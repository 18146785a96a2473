//! The metadata journal and its transaction manager.
//!
//! Between checkpoints (full [`crate::MetadataView`] cuts to a shadow
//! half), every `commit()` appends one checksummed [`JournalRecord`] to a
//! dedicated journal region of the metadata device and then rewrites the
//! superblock. The superblock names the committed journal extent
//! (`journal_blocks`), so the commit point is still a single superblock
//! write: journal blocks that landed without their superblock — a torn
//! commit — sit beyond the committed extent and are ignored on replay.
//!
//! A record carries the *delta* of one transaction as [`DeltaOp`]s:
//! volume creates/deletes, mapping extents set/removed, and bitmap blocks
//! allocated/freed. Replay applies records in sequence order on top of
//! the checkpoint view. Every op is idempotent on mapping and bitmap
//! state (`insert_run` overwrites, `remove_run`/`clear` no-op on absent
//! state), and the sequence numbers are checked to be exactly
//! `checkpoint_txid + 1 ..= transaction_id`, so replay of a valid journal
//! is deterministic and repeatable.
//!
//! Record layout (padded to whole metadata blocks):
//!
//! ```text
//! magic "MCJR" (4) | seq (8 LE) | payload_len (8 LE) | sha256(payload) (32)
//! payload: op_count (8 LE) | ops...
//! ```

use crate::extent::Extent;
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, SharedDevice};
use mobiceal_crypto::sha256;

/// Magic prefix of every journal record header.
pub const RECORD_MAGIC: &[u8; 4] = b"MCJR";

/// Fixed record header size: magic + seq + payload_len + digest.
const HEADER_LEN: usize = 4 + 8 + 8 + 32;

/// Shortest encoded [`DeltaOp`]: tag + volume id ([`DeltaOp::DeleteVolume`]).
/// Bounds how many ops a payload can hold.
const MIN_OP_LEN: usize = 1 + 4;

/// One state transition inside a journaled transaction.
///
/// Replay order within a record is meaningful: volume lifecycle ops come
/// first, then mapping deltas, then bitmap deltas (frees before allocs, so
/// a block freed and re-allocated in one transaction ends up set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// A volume came into existence (empty) this transaction.
    CreateVolume {
        /// Volume id.
        id: u32,
        /// Provisioned size in blocks.
        virtual_blocks: u64,
    },
    /// A volume was deleted this transaction (its block frees are
    /// journaled separately as [`DeltaOp::Free`]).
    DeleteVolume {
        /// Volume id.
        id: u32,
    },
    /// A run of mappings was established (coalesced insert deltas).
    SetMapping {
        /// Volume id.
        id: u32,
        /// The mapped run.
        extent: Extent,
    },
    /// A run of virtual blocks was unmapped (discard / rollback).
    RemoveMapping {
        /// Volume id.
        id: u32,
        /// First virtual block of the run.
        virt_begin: u64,
        /// Run length in blocks.
        len: u64,
    },
    /// A physical block became allocated in the committed bitmap.
    Alloc {
        /// Physical (data-device) block.
        block: u64,
    },
    /// A physical block became free in the committed bitmap.
    Free {
        /// Physical (data-device) block.
        block: u64,
    },
    /// A named scalar register. The pool never emits these; journal
    /// consumers outside the pool (the baseline stores) persist their log
    /// heads, epochs and cursors with them.
    Register {
        /// Consumer-defined register id.
        key: u32,
        /// Register value.
        value: u64,
    },
}

/// Decodes a little-endian `u32` from an exact-length field, surfacing a
/// short slice as corrupt metadata instead of panicking.
fn le_u32(bytes: &[u8]) -> Result<u32, BlockDeviceError> {
    let arr = bytes
        .try_into()
        .map_err(|_| BlockDeviceError::CorruptMetadata { detail: "short u32 field".into() })?;
    Ok(u32::from_le_bytes(arr))
}

/// [`le_u32`] for `u64` fields.
fn le_u64(bytes: &[u8]) -> Result<u64, BlockDeviceError> {
    let arr = bytes
        .try_into()
        .map_err(|_| BlockDeviceError::CorruptMetadata { detail: "short u64 field".into() })?;
    Ok(u64::from_le_bytes(arr))
}

impl DeltaOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            DeltaOp::CreateVolume { id, virtual_blocks } => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&virtual_blocks.to_le_bytes());
            }
            DeltaOp::DeleteVolume { id } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
            DeltaOp::SetMapping { id, extent } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&extent.virt_begin.to_le_bytes());
                out.extend_from_slice(&extent.data_begin.to_le_bytes());
                out.extend_from_slice(&extent.len.to_le_bytes());
            }
            DeltaOp::RemoveMapping { id, virt_begin, len } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&virt_begin.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            DeltaOp::Alloc { block } => {
                out.push(4);
                out.extend_from_slice(&block.to_le_bytes());
            }
            DeltaOp::Free { block } => {
                out.push(5);
                out.extend_from_slice(&block.to_le_bytes());
            }
            DeltaOp::Register { key, value } => {
                out.push(6);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
    }

    fn decode(data: &[u8], pos: &mut usize) -> Result<Self, BlockDeviceError> {
        let corrupt = |detail: &str| BlockDeviceError::CorruptMetadata { detail: detail.into() };
        let mut take = |n: usize| -> Result<&[u8], BlockDeviceError> {
            if *pos + n > data.len() {
                return Err(corrupt("truncated journal op"));
            }
            let s = &data[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let tag = take(1)?[0];
        let op = match tag {
            0 => DeltaOp::CreateVolume { id: le_u32(take(4)?)?, virtual_blocks: le_u64(take(8)?)? },
            1 => DeltaOp::DeleteVolume { id: le_u32(take(4)?)? },
            2 => DeltaOp::SetMapping {
                id: le_u32(take(4)?)?,
                extent: Extent {
                    virt_begin: le_u64(take(8)?)?,
                    data_begin: le_u64(take(8)?)?,
                    len: le_u64(take(8)?)?,
                },
            },
            3 => DeltaOp::RemoveMapping {
                id: le_u32(take(4)?)?,
                virt_begin: le_u64(take(8)?)?,
                len: le_u64(take(8)?)?,
            },
            4 => DeltaOp::Alloc { block: le_u64(take(8)?)? },
            5 => DeltaOp::Free { block: le_u64(take(8)?)? },
            6 => DeltaOp::Register { key: le_u32(take(4)?)?, value: le_u64(take(8)?)? },
            _ => return Err(corrupt("unknown journal op tag")),
        };
        Ok(op)
    }
}

/// One committed transaction's delta, as journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Transaction id this record commits (superblock `transaction_id`
    /// after the commit).
    pub seq: u64,
    /// The transaction's state transitions, in replay order.
    pub ops: Vec<DeltaOp>,
}

impl JournalRecord {
    /// Serializes header + payload (unpadded).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            op.encode_into(&mut payload);
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(RECORD_MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&Self::digest(self.seq, &payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Record digest: covers the sequence number and the payload, so a
    /// corrupted seq is caught by the checksum, not just the replay
    /// sequence check.
    fn digest(seq: u64, payload: &[u8]) -> [u8; 32] {
        let mut buf = Vec::with_capacity(8 + payload.len());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(payload);
        sha256(&buf)
    }

    /// Parses one record from the head of `data`, returning it together
    /// with the number of bytes consumed (header + payload, unpadded).
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] on bad magic, truncation, an
    /// op count the payload cannot hold, or digest mismatch.
    pub fn decode(data: &[u8]) -> Result<(Self, usize), BlockDeviceError> {
        let corrupt = |detail: &str| BlockDeviceError::CorruptMetadata { detail: detail.into() };
        if data.len() < HEADER_LEN {
            return Err(corrupt("truncated journal record header"));
        }
        if &data[..4] != RECORD_MAGIC {
            return Err(corrupt("bad journal record magic"));
        }
        let seq = le_u64(&data[4..12])?;
        let payload_len = le_u64(&data[12..20])?;
        let digest: [u8; 32] = data[20..52].try_into().map_err(|_| {
            BlockDeviceError::CorruptMetadata { detail: "short digest field".into() }
        })?;
        let end = usize::try_from(payload_len)
            .ok()
            .and_then(|len| HEADER_LEN.checked_add(len))
            .filter(|&end| end <= data.len())
            .ok_or_else(|| corrupt("truncated journal record payload"))?;
        let payload = &data[HEADER_LEN..end];
        if Self::digest(seq, payload) != digest {
            return Err(corrupt("journal record digest mismatch"));
        }
        let mut pos = 0usize;
        let take8 = |pos: &mut usize| -> Result<u64, BlockDeviceError> {
            if *pos + 8 > payload.len() {
                return Err(corrupt("truncated journal op count"));
            }
            let v = le_u64(&payload[*pos..*pos + 8])?;
            *pos += 8;
            Ok(v)
        };
        let op_count = take8(&mut pos)?;
        let max_ops = (payload.len() - pos) / MIN_OP_LEN;
        if op_count > max_ops as u64 {
            return Err(corrupt("journal op count exceeds payload"));
        }
        let mut ops = Vec::with_capacity(op_count as usize);
        for _ in 0..op_count {
            ops.push(DeltaOp::decode(payload, &mut pos)?);
        }
        if pos != payload.len() {
            return Err(corrupt("trailing bytes in journal record payload"));
        }
        Ok((JournalRecord { seq, ops }, end))
    }
}

/// Placement of the journal region on the metadata device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// First metadata block of the journal region.
    pub first_block: u64,
    /// Region size in blocks.
    pub blocks: u64,
}

/// Appends and replays journal records on a metadata device.
///
/// The manager does not decide commit points — the pool's superblock does
/// (it names the committed journal extent). The manager only performs the
/// block-aligned append and the sequence-checked replay.
pub struct TransactionManager {
    meta: SharedDevice,
    cfg: JournalConfig,
}

impl TransactionManager {
    /// A manager for the given device region.
    pub fn new(meta: SharedDevice, cfg: JournalConfig) -> Self {
        TransactionManager { meta, cfg }
    }

    /// The region this manager appends into.
    pub fn config(&self) -> JournalConfig {
        self.cfg
    }

    /// Blocks `record` occupies on disk (records are block-aligned).
    pub fn record_blocks(&self, record: &JournalRecord) -> u64 {
        record.to_bytes().len().div_ceil(self.meta.block_size()) as u64
    }

    /// Appends `record` after `used` already-committed journal blocks and
    /// flushes. Returns the new used-block count for the superblock.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::NoSpace`] if the record does not fit in the
    /// remaining region (the caller should checkpoint instead); device
    /// errors otherwise. On error nothing is committed — the superblock
    /// still names the old extent, so a partial append is rolled back by
    /// replay ignoring it.
    pub fn append(&self, used: u64, record: &JournalRecord) -> Result<u64, BlockDeviceError> {
        let bytes = record.to_bytes();
        let bs = self.meta.block_size();
        let need = bytes.len().div_ceil(bs) as u64;
        if used + need > self.cfg.blocks {
            return Err(BlockDeviceError::NoSpace);
        }
        let blocks: Vec<Vec<u8>> = (0..need)
            .map(|i| {
                let mut block = vec![0u8; bs];
                let lo = i as usize * bs;
                let hi = (lo + bs).min(bytes.len());
                block[..hi - lo].copy_from_slice(&bytes[lo..hi]);
                block
            })
            .collect();
        let start = self.cfg.first_block + used;
        let writes: Vec<(BlockIndex, &[u8])> =
            blocks.iter().enumerate().map(|(i, b)| (start + i as u64, b.as_slice())).collect();
        self.meta.write_blocks(&writes)?;
        self.meta.flush()?;
        Ok(used + need)
    }

    /// Reads back the committed journal extent (`used` blocks) and parses
    /// the records `first_seq ..= last_seq` in order.
    ///
    /// The read is one vectored crossing whose size depends only on the
    /// journal extent — never on which volume the records touch — so
    /// replay charges world-independent time for identical journal shapes.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] if records are missing,
    /// out of sequence, or fail their digests.
    pub fn replay(
        &self,
        used: u64,
        first_seq: u64,
        last_seq: u64,
    ) -> Result<Vec<JournalRecord>, BlockDeviceError> {
        let corrupt = |detail: &str| BlockDeviceError::CorruptMetadata { detail: detail.into() };
        if used > self.cfg.blocks {
            return Err(corrupt("journal extent larger than region"));
        }
        // Every record takes at least one block, so more records than
        // `used` blocks cannot all be present.
        let expected = match last_seq.checked_sub(first_seq) {
            None => 0,
            Some(span) => span
                .checked_add(1)
                .filter(|&n| n <= used)
                .ok_or_else(|| corrupt("journal records missing"))?,
        };
        if used == 0 {
            return Ok(Vec::new());
        }
        let bs = self.meta.block_size();
        let indices: Vec<u64> = (0..used).map(|i| self.cfg.first_block + i).collect();
        let mut data = Vec::with_capacity(used as usize * bs);
        for block in self.meta.read_blocks(&indices)? {
            data.extend_from_slice(&block);
        }
        let mut records = Vec::with_capacity(expected as usize);
        let mut offset = 0usize;
        for seq in first_seq..=last_seq {
            if offset >= data.len() {
                return Err(corrupt("journal records missing"));
            }
            let (record, consumed) = JournalRecord::decode(&data[offset..])?;
            if record.seq != seq {
                return Err(corrupt("journal record out of sequence"));
            }
            records.push(record);
            offset += consumed.div_ceil(bs) * bs;
        }
        if offset != used as usize * bs {
            return Err(corrupt("journal extent longer than its records"));
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;
    use std::sync::Arc;

    fn sample_ops() -> Vec<DeltaOp> {
        vec![
            DeltaOp::CreateVolume { id: 1, virtual_blocks: 64 },
            DeltaOp::SetMapping {
                id: 1,
                extent: Extent { virt_begin: 0, data_begin: 100, len: 8 },
            },
            DeltaOp::RemoveMapping { id: 1, virt_begin: 3, len: 1 },
            DeltaOp::Alloc { block: 100 },
            DeltaOp::Free { block: 9 },
            DeltaOp::DeleteVolume { id: 2 },
            DeltaOp::Register { key: 3, value: 0xDEAD },
        ]
    }

    #[test]
    fn record_roundtrip() {
        let rec = JournalRecord { seq: 7, ops: sample_ops() };
        let bytes = rec.to_bytes();
        let (back, consumed) = JournalRecord::decode(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn record_rejects_corruption() {
        let rec = JournalRecord { seq: 7, ops: sample_ops() };
        let bytes = rec.to_bytes();
        for i in [0usize, 5, 25, HEADER_LEN, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(JournalRecord::decode(&bad).is_err(), "flip at {i} must fail");
        }
        assert!(JournalRecord::decode(&bytes[..HEADER_LEN - 1]).is_err());
        assert!(JournalRecord::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    fn is_corrupt<T: std::fmt::Debug>(r: Result<T, BlockDeviceError>) -> bool {
        matches!(r, Err(BlockDeviceError::CorruptMetadata { .. }))
    }

    #[test]
    fn decode_rejects_overflowing_payload_len() {
        // A header whose payload_len overflows HEADER_LEN + len must be
        // reported as corrupt before any slicing or digest work.
        for payload_len in [u64::MAX, u64::MAX - HEADER_LEN as u64 + 1] {
            let mut bytes = RECORD_MAGIC.to_vec();
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&payload_len.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 32 + 64]);
            assert!(is_corrupt(JournalRecord::decode(&bytes)), "payload_len {payload_len:#x}");
        }
    }

    #[test]
    fn decode_bounds_op_count_by_payload() {
        // The digest is unkeyed, so a hostile record can carry a valid one
        // next to an op count of 2^40: decode must refuse it rather than
        // size an allocation from it.
        let seq = 9u64;
        let mut payload = (1u64 << 40).to_le_bytes().to_vec();
        DeltaOp::Alloc { block: 4 }.encode_into(&mut payload);
        let mut bytes = RECORD_MAGIC.to_vec();
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&JournalRecord::digest(seq, &payload));
        bytes.extend_from_slice(&payload);
        assert!(is_corrupt(JournalRecord::decode(&bytes)));
    }

    #[test]
    fn replay_rejects_sequence_ranges_the_extent_cannot_hold() {
        // first_seq = 0, last_seq = u64::MAX overflows the record count;
        // a count larger than the committed blocks cannot be present.
        let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(64, 512));
        let tm = TransactionManager::new(meta, JournalConfig { first_block: 1, blocks: 16 });
        let used = tm.append(0, &JournalRecord { seq: 1, ops: sample_ops() }).unwrap();
        assert!(is_corrupt(tm.replay(used, 0, u64::MAX)));
        assert!(is_corrupt(tm.replay(used, 1, 1 << 40)));
        assert!(is_corrupt(tm.replay(0, 0, u64::MAX)));
    }

    #[test]
    fn append_and_replay_sequence() {
        let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(64, 512));
        let tm = TransactionManager::new(meta, JournalConfig { first_block: 1, blocks: 16 });
        let mut used = 0;
        for seq in 3..6u64 {
            let rec = JournalRecord { seq, ops: sample_ops() };
            used = tm.append(used, &rec).unwrap();
        }
        let records = tm.replay(used, 3, 5).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 3);
        assert_eq!(records[2].seq, 5);
        assert_eq!(records[1].ops, sample_ops());
        // Asking for a different window fails the sequence check.
        assert!(tm.replay(used, 2, 5).is_err());
        assert!(tm.replay(used, 3, 6).is_err());
        assert!(tm.replay(used, 3, 4).is_err(), "extent longer than its records");
    }

    #[test]
    fn append_rejects_overflow() {
        let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(64, 512));
        let tm = TransactionManager::new(meta, JournalConfig { first_block: 1, blocks: 2 });
        let rec = JournalRecord { seq: 1, ops: sample_ops() };
        let used = tm.append(0, &rec).unwrap();
        assert_eq!(used, 1);
        let used = tm.append(used, &JournalRecord { seq: 2, ops: sample_ops() }).unwrap();
        assert!(matches!(
            tm.append(used, &JournalRecord { seq: 3, ops: vec![] }),
            Err(BlockDeviceError::NoSpace)
        ));
    }

    #[test]
    fn replay_of_empty_journal() {
        let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(64, 512));
        let tm = TransactionManager::new(meta, JournalConfig { first_block: 1, blocks: 16 });
        // No records expected: seq window empty (first > last).
        assert!(tm.replay(0, 1, 0).unwrap().is_empty());
        // Records expected but extent empty: corrupt.
        assert!(tm.replay(0, 1, 1).is_err());
    }

    #[test]
    fn uncommitted_tail_is_ignored() {
        // An append whose superblock never landed: replay with the *old*
        // used count never reads the torn tail.
        let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(64, 512));
        let tm = TransactionManager::new(meta, JournalConfig { first_block: 1, blocks: 16 });
        let used = tm.append(0, &JournalRecord { seq: 1, ops: sample_ops() }).unwrap();
        // Torn: record 2 lands, superblock (and its new used count) lost.
        let _ = tm.append(used, &JournalRecord { seq: 2, ops: sample_ops() }).unwrap();
        let records = tm.replay(used, 1, 1).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 1);
    }
}
