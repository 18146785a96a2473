//! [`Copier`]: a background relocation daemon with bounded in-flight work.
//!
//! The copier is the kcopyd analogue of this stack: PDE garbage collection
//! and DEFY cleaning hand it relocation/cleaning jobs, and the daemon
//! drains them off the foreground write path. In-flight work is bounded by
//! a configurable depth — the queue holds at most `depth - 1` pending jobs,
//! and a submit into a full queue self-services the oldest job first
//! (exactly how the depth-1 ring of the async engine degenerates to the
//! direct path: at depth 1 the queue holds nothing and every job runs
//! inline at submit, reassembling today's foreground behavior
//! bit-for-bit).
//!
//! Background work runs by deterministic stepping ([`Copier::step`] /
//! [`Copier::drain`]): the caller decides when it runs, which keeps the
//! simulated clock charges reproducible.
//!
//! Job failures are recorded, surfaced by [`Copier::take_error`], and
//! fail-fast on [`Copier::drain`].

use crate::device::{BlockDevice, BlockDeviceError, BlockIndex, SharedDevice};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A unit of background work. Returns the number of blocks it moved (or
/// otherwise processed), purely for accounting.
pub type CopierJob = Box<dyn FnOnce() -> Result<u64, BlockDeviceError> + Send>;

/// Monotonic copier counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopierStats {
    /// Jobs accepted by [`Copier::submit`].
    pub submitted: u64,
    /// Jobs that ran to completion (successfully or not).
    pub completed: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// Blocks moved across all completed jobs.
    pub blocks_moved: u64,
    /// Jobs the submitter had to self-service because the queue was full.
    pub inline_services: u64,
}

#[derive(Default)]
struct State {
    queue: VecDeque<CopierJob>,
    /// First unconsumed job error, fail-fast like a vectored write prefix.
    error: Option<BlockDeviceError>,
}

/// A bounded background job queue for GC/relocation/cleaning work.
pub struct Copier {
    depth: usize,
    state: Mutex<State>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    blocks_moved: AtomicU64,
    inline_services: AtomicU64,
}

impl Copier {
    /// A copier of the given depth: at most `depth - 1` jobs may be
    /// pending, so depth 1 runs every job inline at submit.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "copier depth must be at least 1");
        Copier {
            depth,
            state: Mutex::new(State::default()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            blocks_moved: AtomicU64::new(0),
            inline_services: AtomicU64::new(0),
        }
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Jobs currently pending (not yet executed).
    pub fn pending(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).queue.len()
    }

    /// A snapshot of the copier counters.
    pub fn stats(&self) -> CopierStats {
        CopierStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            blocks_moved: self.blocks_moved.load(Ordering::Relaxed),
            inline_services: self.inline_services.load(Ordering::Relaxed),
        }
    }

    /// Takes and clears the first recorded job error, if any.
    pub fn take_error(&self) -> Option<BlockDeviceError> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).error.take()
    }

    fn run_job(&self, job: CopierJob) {
        match job() {
            Ok(moved) => {
                self.blocks_moved.fetch_add(moved, Ordering::Relaxed);
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.error.get_or_insert(e);
            }
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Submits a job. With the queue at capacity (`depth - 1` pending) the
    /// submitter self-services the *oldest* pending job first — bounded
    /// in-flight work means foreground progress, never unbounded deferral.
    /// At depth 1 this executes `job` immediately.
    pub fn submit(&self, job: CopierJob) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        if self.depth == 1 {
            self.inline_services.fetch_add(1, Ordering::Relaxed);
            self.run_job(job);
            return;
        }
        let overflow = {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.queue.push_back(job);
            if state.queue.len() > self.depth - 1 {
                state.queue.pop_front()
            } else {
                None
            }
        };
        if let Some(job) = overflow {
            self.inline_services.fetch_add(1, Ordering::Relaxed);
            self.run_job(job);
        }
    }

    /// Runs the oldest pending job, if any. Returns whether one ran.
    pub fn step(&self) -> bool {
        let job = self.state.lock().unwrap_or_else(PoisonError::into_inner).queue.pop_front();
        match job {
            Some(job) => {
                self.run_job(job);
                true
            }
            None => false,
        }
    }

    /// Runs every pending job, fail-fast on the first recorded error
    /// (including one left over from an earlier submit/step).
    pub fn drain(&self) -> Result<(), BlockDeviceError> {
        while self.step() {
            if let Some(e) = self.take_error() {
                return Err(e);
            }
        }
        match self.take_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Copier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Copier")
            .field("depth", &self.depth)
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

/// Builds a kcopyd-style copy job: a vectored read of `src` followed by a
/// vectored write to the corresponding `dst` index on `device`, returning
/// the number of blocks moved.
pub fn copy_job(device: SharedDevice, moves: Vec<(BlockIndex, BlockIndex)>) -> CopierJob {
    Box::new(move || {
        if moves.is_empty() {
            return Ok(0);
        }
        let srcs: Vec<BlockIndex> = moves.iter().map(|&(s, _)| s).collect();
        let bufs = device.read_blocks(&srcs)?;
        let writes: Vec<(BlockIndex, &[u8])> =
            moves.iter().zip(&bufs).map(|(&(_, d), buf)| (d, buf.as_slice())).collect();
        device.write_blocks(&writes)?;
        Ok(moves.len() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn depth_one_runs_inline() {
        let copier = Copier::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        copier.submit(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
            Ok(3)
        }));
        assert_eq!(ran.load(Ordering::SeqCst), 1, "depth-1 submit must execute inline");
        assert_eq!(copier.pending(), 0);
        let stats = copier.stats();
        assert_eq!(stats.inline_services, 1);
        assert_eq!(stats.blocks_moved, 3);
    }

    #[test]
    fn jobs_queue_until_stepped_and_run_in_order() {
        let copier = Copier::new(8);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let o = Arc::clone(&order);
            copier.submit(Box::new(move || {
                o.lock().unwrap().push(i);
                Ok(0)
            }));
        }
        assert_eq!(copier.pending(), 3);
        assert!(order.lock().unwrap().is_empty(), "no job may run before step");
        copier.drain().unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(copier.stats().completed, 3);
    }

    #[test]
    fn full_queue_self_services_oldest() {
        // Depth 3 → 2 pending slots; the 3rd submit runs job 0 inline.
        let copier = Copier::new(3);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let o = Arc::clone(&order);
            copier.submit(Box::new(move || {
                o.lock().unwrap().push(i);
                Ok(0)
            }));
        }
        assert_eq!(*order.lock().unwrap(), vec![0]);
        assert_eq!(copier.pending(), 2);
        assert_eq!(copier.stats().inline_services, 1);
        copier.drain().unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn errors_are_recorded_and_fail_drain() {
        let copier = Copier::new(8);
        copier.submit(Box::new(|| Err(BlockDeviceError::NoSpace)));
        copier.submit(Box::new(|| Ok(1)));
        assert!(matches!(copier.drain(), Err(BlockDeviceError::NoSpace)));
        assert_eq!(copier.stats().failed, 1);
        // Error consumed; the remaining queue still drains.
        copier.drain().unwrap();
        assert_eq!(copier.stats().completed, 2);
    }

    #[test]
    fn copy_job_moves_blocks() {
        let disk: SharedDevice = Arc::new(MemDisk::with_default_timing(64, 512));
        disk.write_block(2, &vec![0xAB; 512]).unwrap();
        disk.write_block(3, &vec![0xCD; 512]).unwrap();
        let copier = Copier::new(4);
        copier.submit(copy_job(Arc::clone(&disk), vec![(2, 10), (3, 11)]));
        copier.drain().unwrap();
        assert_eq!(disk.read_block(10).unwrap(), vec![0xAB; 512]);
        assert_eq!(disk.read_block(11).unwrap(), vec![0xCD; 512]);
        assert_eq!(copier.stats().blocks_moved, 2);
    }
}
