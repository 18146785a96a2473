//! Pins batched `DmCrypt` I/O to the per-sector path: same media bytes,
//! same plaintext on read-back, and crypto charges given by the byte-count
//! formula. How a batch's AES work is spread over host threads may only
//! change wall-clock time.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_blockdev::{BlockDevice, MemDisk};
use mobiceal_dm::DmCrypt;
use mobiceal_sim::{CpuCostModel, SimClock, SimDuration, SimInstant};
use proptest::prelude::*;
use std::sync::Arc;

const BLOCKS: u64 = 48;
const BS: usize = 512;

/// Builds one essiv and one xts target over a fresh disk, with timing.
fn stacks() -> Vec<(Arc<MemDisk>, SimClock, DmCrypt)> {
    [true, false]
        .into_iter()
        .map(|essiv| {
            let clock = SimClock::new();
            let disk = Arc::new(MemDisk::new(BLOCKS, BS, clock.clone()));
            let crypt = if essiv {
                DmCrypt::new_essiv(disk.clone(), &[0x42; 32])
            } else {
                DmCrypt::new_xts(disk.clone(), &[0x42; 64])
            };
            (disk, clock.clone(), crypt.with_timing(clock, CpuCostModel::nexus4()))
        })
        .collect()
}

/// The clock a cipherless MemDisk reaches after `run` drives it: MemDisk
/// charges depend only on (op, index, size), so subtracting this from a
/// `DmCrypt` stack's clock after the identical device-op sequence leaves
/// exactly the crypto charge.
fn device_only(blocks: u64, bs: usize, run: impl FnOnce(&MemDisk)) -> SimInstant {
    let clock = SimClock::new();
    run(&MemDisk::new(blocks, bs, clock.clone()));
    clock.now()
}

/// `n` calls' worth of `aes_cost(bytes)`.
fn per_call_cost(model: &CpuCostModel, bytes: usize, n: usize) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for _ in 0..n {
        total += model.aes_cost(bytes);
    }
    total
}

/// A 256×4 KiB (1 MiB) CBC-ESSIV batch — the chunk a `dd` write sends, and
/// deep enough that a multi-core host splits its encrypt across up to four
/// threads — must land the media bytes and read back the plaintext of a
/// per-sector `write_block`/`read_block` loop. Each path's crypto charge is
/// its byte-count formula: one `aes_cost(1 MiB)` per batch call, one
/// `aes_cost(4 KiB)` per sector call.
#[test]
fn one_mib_essiv_batch_matches_per_sector_loop() {
    const N: u64 = 256;
    const SECTOR: usize = 4096;
    let model = CpuCostModel::nexus4();
    let build = || {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(N, SECTOR, clock.clone()));
        let crypt = DmCrypt::new_essiv(disk.clone(), &[0x5E; 32])
            .with_timing(clock.clone(), CpuCostModel::nexus4());
        (disk, clock, crypt)
    };
    let data: Vec<Vec<u8>> =
        (0..N).map(|i| (0..SECTOR).map(|j| ((i * 31 + j as u64) % 251) as u8).collect()).collect();
    let writes: Vec<(u64, &[u8])> = (0..N).zip(data.iter().map(Vec::as_slice)).collect();
    let indices: Vec<u64> = (0..N).collect();

    let (disk_b, clock_b, batched) = build();
    batched.write_blocks(&writes).unwrap();
    let plain_b = batched.read_blocks(&indices).unwrap();
    let raw_b = device_only(N, SECTOR, |d| {
        d.write_blocks(&writes).unwrap();
        d.read_blocks(&indices).unwrap();
    });

    let (disk_1, clock_1, single) = build();
    for &(b, d) in &writes {
        single.write_block(b, d).unwrap();
    }
    let plain_1: Vec<Vec<u8>> = indices.iter().map(|&b| single.read_block(b).unwrap()).collect();
    let raw_1 = device_only(N, SECTOR, |d| {
        for &(b, data) in &writes {
            d.write_block(b, data).unwrap();
        }
        for &b in &indices {
            d.read_block(b).unwrap();
        }
    });

    assert_eq!(disk_b.snapshot().as_bytes(), disk_1.snapshot().as_bytes(), "media bytes");
    assert_eq!(plain_b, data, "batched read-back plaintext");
    assert_eq!(plain_1, data, "per-sector read-back plaintext");
    let total = N as usize * SECTOR;
    assert_eq!(clock_b.now() - raw_b, per_call_cost(&model, total, 2), "batch crypto charge");
    assert_eq!(
        clock_1.now() - raw_1,
        per_call_cost(&model, SECTOR, 2 * N as usize),
        "per-sector crypto charge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Pins the two I/O paths against each other: the sector-batch entry
    /// points and the per-sector loop must land bit-identical ciphertext
    /// on the medium and read back the same plaintext, and each path's
    /// crypto charge must be exactly the byte-count formula —
    /// `aes_cost(total)` once per batch call, `aes_cost(block)` once per
    /// sector call (the documented batch amortization). The crypto charge
    /// is measured against a cipherless twin driving the identical
    /// device-op sequence, so this also pins that real crypto speed — wide
    /// lanes, thread splits — never leaks into the virtual numbers.
    #[test]
    fn batch_and_per_sector_paths_pin_ciphertext_and_crypto_charges(
        batch in prop::collection::vec((0u64..BLOCKS, any::<u8>()), 1..40),
    ) {
        let model = CpuCostModel::nexus4();
        for ((disk_b, clock_b, batched), (disk_1, clock_1, single)) in
            stacks().into_iter().zip(stacks())
        {
            let data: Vec<(u64, Vec<u8>)> = batch
                .iter()
                .map(|&(b, fill)| (b, (0..BS).map(|i| fill ^ (i % 251) as u8).collect()))
                .collect();
            let writes: Vec<(u64, &[u8])> =
                data.iter().map(|(b, d)| (*b, d.as_slice())).collect();

            let indices: Vec<u64> = data.iter().map(|(b, _)| *b).collect();
            let raw_b = device_only(BLOCKS, BS, |d| {
                d.write_blocks(&writes).unwrap();
                d.read_blocks(&indices).unwrap();
            });
            let raw_1 = device_only(BLOCKS, BS, |d| {
                for &(b, data) in &writes {
                    d.write_block(b, data).unwrap();
                }
                for &b in &indices {
                    d.read_block(b).unwrap();
                }
            });

            batched.write_blocks(&writes).unwrap();
            for &(b, d) in &writes {
                single.write_block(b, d).unwrap();
            }

            prop_assert_eq!(
                disk_b.snapshot().as_bytes(),
                disk_1.snapshot().as_bytes(),
                "sector-batch and per-sector paths must land identical media"
            );
            prop_assert_eq!(
                batched.read_blocks(&indices).unwrap(),
                indices.iter().map(|&b| single.read_block(b).unwrap()).collect::<Vec<_>>(),
                "read-back plaintext must not depend on the path"
            );

            let total: usize = data.iter().map(|(_, d)| d.len()).sum();
            prop_assert_eq!(
                clock_b.now() - raw_b,
                per_call_cost(&model, total, 2),
                "batch path charges one amortized aes_cost(total bytes) per call"
            );
            prop_assert_eq!(
                clock_1.now() - raw_1,
                per_call_cost(&model, BS, 2 * data.len()),
                "per-sector loop charges aes_cost(block) once per call"
            );
        }
    }
}
