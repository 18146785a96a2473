//! Attribution of the layers `UnlockedVolume` hides.
//!
//! The unlocked volume is one `BlockDevice` whose write-back cache,
//! dm-crypt, PDE hook and thin volume sit behind it. The traced run logs
//! every call crossing that boundary and then replays the log on a mirror
//! of the composition, built from the public constructors
//! (`ThinPool::create_seeded`, `PdeVolume::new`,
//! `DmCrypt::new_essiv(..).with_timing`, `WriteBackCache::new`) with a
//! [`Timed`] boundary between every pair of layers.
//!
//! Two rungs of the Fig. 4 ladder replay the same log: [`Rung::Public`]
//! is the MC-P shape (cache → crypt → PDE → thin for public calls, cache →
//! crypt → thin for hidden ones) and [`Rung::Hidden`] the MC-H shape
//! (cache → crypt → thin for every call). `PdeVolume` takes its thin
//! volume by value, so on the public rung PDE and thin are one span; the
//! hidden rung's thin span is the thin share, and the difference is the
//! dummy-write hook. Cache decisions and AES charges depend only on the
//! call sequence, never on block contents, so replaying with a fixed
//! pattern reproduces them.

use crate::trace::{Kind, Timed, Tracer};
use mobiceal::{
    DummyStats, DummyWriter, EncryptionFooter, MobiCealConfig, PdeVolume, THIN_READ_LOOKUP,
};
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, MemDisk, SharedDevice, WriteBackCache};
use mobiceal_crypto::ChaCha20Rng;
use mobiceal_dm::{DmCrypt, DmLinear};
use mobiceal_sim::{CpuCostModel, SimClock};
use mobiceal_thinp::{AllocStrategy, PoolConfig, ThinPool};
use std::sync::{Arc, Mutex, PoisonError};

/// Volume tag of the public volume in a [`Log`].
pub const PUBLIC: u8 = 0;
/// Volume tag of the hidden volume in a [`Log`].
pub const HIDDEN: u8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    Flush,
    /// A fresh unlock of the tagged volume.
    Unlock,
    /// `MobiCeal::commit`.
    Commit,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    tag: u8,
    kind: OpKind,
    vectored: bool,
    start: usize,
    len: usize,
}

#[derive(Default)]
struct LogState {
    ops: Vec<Op>,
    indices: Vec<u64>,
    mark: usize,
}

/// The calls that crossed the unlocked-volume boundary, in order.
#[derive(Default)]
pub struct Log {
    state: Mutex<LogState>,
}

impl Log {
    fn state(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one call. Whether it was vectored matters to the cost
    /// model, so it is kept.
    pub fn push(
        &self,
        tag: u8,
        kind: Kind,
        vectored: bool,
        indices: &mut dyn Iterator<Item = u64>,
    ) {
        let mut state = self.state();
        let start = state.indices.len();
        state.indices.extend(indices);
        let len = state.indices.len() - start;
        let kind = match kind {
            Kind::Read => OpKind::Read,
            Kind::Write => OpKind::Write,
            Kind::Flush | Kind::Other => OpKind::Flush,
        };
        state.ops.push(Op { tag, kind, vectored, start, len });
    }

    fn push_marker(&self, tag: u8, kind: OpKind) {
        let mut state = self.state();
        let start = state.indices.len();
        state.ops.push(Op { tag, kind, vectored: false, start, len: 0 });
    }

    /// Appends a fresh unlock of volume `tag`.
    pub fn push_unlock(&self, tag: u8) {
        self.push_marker(tag, OpKind::Unlock);
    }

    /// Appends a device-wide metadata commit (`MobiCeal::commit`).
    pub fn push_commit(&self) {
        self.push_marker(0, OpKind::Commit);
    }

    /// Marks the start of the measured phase.
    pub fn mark_measured(&self) {
        let mut state = self.state();
        state.mark = state.ops.len();
    }
}

/// Which Fig. 4 shape the mirror takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// MC-P: the public volume carries the dummy-write hook.
    Public,
    /// MC-H: every volume is a plain thin volume.
    Hidden,
}

/// A mirrored composition with a timing boundary between every layer.
pub struct Mirror {
    rung: Rung,
    clock: SimClock,
    tracer: Arc<Tracer>,
    pool: Arc<ThinPool>,
    dummy: Arc<parking_lot::Mutex<DummyWriter>>,
    cpu: CpuCostModel,
    config: MobiCealConfig,
    /// The open top of each volume tag; `MobiCeal` hands out a fresh
    /// volume (and a cold cache) on every unlock, and so does the mirror.
    tops: [Option<SharedDevice>; 2],
    dummy_at_mark: DummyStats,
}

impl Mirror {
    /// Builds the mirror over a fresh disk of `disk_blocks` blocks.
    ///
    /// # Errors
    ///
    /// Pool creation errors.
    pub fn new(
        rung: Rung,
        disk_blocks: u64,
        config: &MobiCealConfig,
    ) -> Result<Self, BlockDeviceError> {
        let clock = SimClock::new();
        let tracer = Tracer::new(clock.clone());
        let disk: SharedDevice = Arc::new(Timed::new(
            Arc::new(MemDisk::new(disk_blocks, crate::stack::BLOCK, clock.clone())),
            tracer.clone(),
            "disk",
        ));
        let meta_blocks = config.metadata_blocks;
        let data_blocks = disk_blocks - meta_blocks - crate::stack::FOOTER_BLOCKS;
        let meta: SharedDevice = Arc::new(DmLinear::new(disk.clone(), 0, meta_blocks)?);
        let data: SharedDevice = Arc::new(DmLinear::new(disk, meta_blocks, data_blocks)?);
        let (pool_seed, dummy_seed) = initialize_seeds(config, crate::stack::DEVICE_SEED);
        let pool = Arc::new(ThinPool::create_seeded(
            data,
            meta,
            PoolConfig::new(config.num_volumes),
            AllocStrategy::Random,
            pool_seed,
        )?);
        pool.set_read_overhead(clock.clone(), THIN_READ_LOOKUP);
        for v in 1..=config.num_volumes {
            pool.create_volume(v, data_blocks)?;
        }
        // Header blocks, in initialization order, so the random
        // allocator's stream lines up with the device's.
        for v in 1..=config.num_volumes {
            pool.open_volume(v)?.write_block(0, &[0u8; crate::stack::BLOCK])?;
        }
        pool.commit()?;
        let dummy = Arc::new(parking_lot::Mutex::new(DummyWriter::new(
            ChaCha20Rng::from_u64_seed(dummy_seed),
            clock.clone(),
            config.x,
            config.lambda,
            config.num_volumes,
            config.stored_rand_refresh,
        )));
        Ok(Mirror {
            rung,
            clock,
            tracer,
            pool,
            dummy,
            cpu: CpuCostModel::nexus4(),
            config: config.clone(),
            tops: [None, None],
            dummy_at_mark: DummyStats::default(),
        })
    }

    /// The mirror's span recorder.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The mirror's dummy-write counters over the measured calls.
    pub fn measured_dummy_stats(&self) -> DummyStats {
        let (now, mark) = (self.dummy.lock().stats(), self.dummy_at_mark);
        DummyStats {
            trigger_checks: now.trigger_checks - mark.trigger_checks,
            bursts: now.bursts - mark.bursts,
            blocks_written: now.blocks_written - mark.blocks_written,
            blocks_dropped: now.blocks_dropped - mark.blocks_dropped,
            refreshes: now.refreshes - mark.refreshes,
        }
    }

    /// Opens a fresh top for `tag`: (cache →) crypt → PDE or thin.
    fn open(&mut self, tag: u8) -> Result<(), BlockDeviceError> {
        let thin = self.pool.open_volume(u32::from(tag) + 1)?;
        let below: SharedDevice = if tag == PUBLIC && self.rung == Rung::Public {
            let pde = PdeVolume::new(
                thin,
                self.pool.clone(),
                self.dummy.clone(),
                self.cpu.clone(),
                self.clock.clone(),
            );
            Arc::new(Timed::new(Arc::new(pde), self.tracer.clone(), "pde"))
        } else {
            Arc::new(Timed::new(Arc::new(thin), self.tracer.clone(), "thin"))
        };
        let crypt = DmCrypt::new_essiv(below, &[0x42; 32])
            .with_timing(self.clock.clone(), self.cpu.clone());
        let crypt = Timed::new(Arc::new(crypt), self.tracer.clone(), "crypt");
        let top: SharedDevice = if self.config.cache_blocks == 0 {
            Arc::new(crypt)
        } else {
            let cache = WriteBackCache::new(crypt, self.config.cache_config());
            Arc::new(Timed::new(Arc::new(cache), self.tracer.clone(), "cache"))
        };
        self.tops[usize::from(tag)] = Some(top);
        Ok(())
    }

    /// Replays `log`; totals cover the calls after its measured mark.
    ///
    /// # Errors
    ///
    /// The first device error of the replay.
    pub fn replay(&mut self, log: &Log) -> Result<(), BlockDeviceError> {
        let state = log.state();
        let widest = state.ops.iter().map(|op| op.len).max().unwrap_or(0);
        let pattern = vec![0xA5u8; widest.max(1) * crate::stack::BLOCK];
        let unopened = || BlockDeviceError::Unsupported { what: "call before unlock".into() };
        for (i, op) in state.ops.iter().enumerate() {
            if i == state.mark {
                self.tracer.reset();
                self.dummy_at_mark = self.dummy.lock().stats();
            }
            match op.kind {
                OpKind::Unlock => {
                    self.open(op.tag)?;
                    continue;
                }
                OpKind::Commit => {
                    self.commit()?;
                    continue;
                }
                _ => {}
            }
            // The unlocked volume hides its header block at vblock 0.
            let indices: Vec<u64> =
                state.indices[op.start..op.start + op.len].iter().map(|&v| v + 1).collect();
            let dev = self.tops[usize::from(op.tag)].as_ref().ok_or_else(unopened)?;
            match (op.kind, op.vectored) {
                (OpKind::Read, true) => drop(dev.read_blocks(&indices)?),
                (OpKind::Read, false) => drop(dev.read_block(indices[0])?),
                (OpKind::Write, true) => {
                    let writes: Vec<(u64, &[u8])> =
                        indices.iter().copied().zip(pattern.chunks(crate::stack::BLOCK)).collect();
                    dev.write_blocks(&writes)?;
                }
                (OpKind::Write, false) => {
                    dev.write_block(indices[0], &pattern[..crate::stack::BLOCK])?;
                }
                _ => dev.flush()?,
            }
        }
        if state.mark >= state.ops.len() {
            self.tracer.reset();
            self.dummy_at_mark = self.dummy.lock().stats();
        }
        Ok(())
    }

    /// `MobiCeal::commit`'s order: flush every open volume (writing back
    /// its cache), then commit the pool.
    fn commit(&self) -> Result<(), BlockDeviceError> {
        if self.config.cache_blocks > 0 {
            for top in self.tops.iter().flatten() {
                top.flush()?;
            }
        }
        self.tracer.span("thin", Kind::Flush, 0, || self.pool.commit())
    }
}

/// The allocator and dummy-writer seeds `MobiCeal::initialize` draws from
/// its seeded generator for the benchmark's passwords: master key, footer
/// salt, pool seed, noise headers of the dummy volumes, dummy-writer seed.
/// With them the mirror allocates and fires dummy bursts as the device
/// does; the traced run checks that its dummy counters match.
fn initialize_seeds(config: &MobiCealConfig, seed: u64) -> (u64, u64) {
    let mut rng = ChaCha20Rng::from_u64_seed(seed);
    let master_key = rng.gen_key();
    let footer = EncryptionFooter::with_salt(
        rng.gen_nonce16(),
        &master_key,
        crate::stack::DECOY,
        config.pbkdf2_iterations,
    );
    let pool_seed = rng.next_u64();
    let hidden = footer.hidden_volume_index(crate::stack::HIDDEN, config.num_volumes);
    let mut noise = [0u8; crate::stack::BLOCK];
    for v in 2..=config.num_volumes {
        if v != hidden {
            rng.fill_bytes(&mut noise);
        }
    }
    (pool_seed, rng.next_u64())
}
