//! The MobiCeal stack every workload runs on, optionally with timing
//! boundaries at the raw disk and the unlocked volumes.

use crate::mirror::Log;
use crate::trace::{Kind, Timed, Tracer};
use mobiceal::{MobiCeal, MobiCealConfig, MobiCealError, UnlockedVolume};
use mobiceal_blockdev::{DeviceStats, MemDisk, SharedDevice};
use mobiceal_sim::SimClock;
use std::sync::Arc;

/// Block size of every disk in the benchmark.
pub const BLOCK: usize = 4096;
/// Footer blocks at the end of a MobiCeal disk (16 KiB of 4 KiB blocks).
pub const FOOTER_BLOCKS: u64 = (mobiceal::FOOTER_BYTES / BLOCK) as u64;
/// The decoy password, as in the Fig. 4 stacks.
pub const DECOY: &str = "decoy";
/// The one hidden password, as in the Fig. 4 stacks.
pub const HIDDEN: &str = "hidden";
/// Seed of the device's own randomness: master key, footer salt, the
/// allocator's stream and the secret dummy-trigger value. It is fixed, so
/// every run measures the same phone; the workload seed shapes only the
/// inputs. (A phone's trigger probability is a secret drawn once in
/// `[0, 50 %)`, so devices differ several-fold in dummy traffic.) This is
/// the first seed `fig4_throughput` builds its MC-P stack with.
pub const DEVICE_SEED: u64 = 1000;

/// The Fig. 4 MobiCeal configuration (`workloads::stacks`), with the
/// write-back cache and copier depth a workload asks for.
pub fn config(cache_blocks: usize, copier_depth: usize) -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 128,
        cache_blocks,
        copier_depth,
        ..MobiCealConfig::default()
    }
}

/// Tracing state of one run: `None` for the untraced run.
#[derive(Clone, Default)]
pub struct Probe {
    /// Span recorder on the stack's clock.
    pub tracer: Option<Arc<Tracer>>,
    /// Calls crossing the unlocked-volume boundary, for the mirror.
    pub log: Option<Arc<Log>>,
}

impl Probe {
    /// Runs `f`, inside a span when tracing.
    pub fn span<T>(&self, layer: &'static str, kind: Kind, units: u64, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.span(layer, kind, units, f),
            None => f(),
        }
    }
}

/// A MobiCeal device on a fresh in-memory disk.
pub struct Stack {
    /// The simulated clock every layer charges.
    pub clock: SimClock,
    /// The raw medium.
    pub disk: Arc<MemDisk>,
    /// The device, on the disk or on a timing boundary over it.
    pub mc: MobiCeal,
    /// Its configuration.
    pub cfg: MobiCealConfig,
    /// Tracing state.
    pub probe: Probe,
}

/// An unlocked volume and the device a client talks to (the volume
/// itself, or a timing boundary over it).
pub struct Volume {
    /// The typed volume, for cache counters.
    pub vol: UnlockedVolume,
    /// The device clients call.
    pub dev: SharedDevice,
}

impl Stack {
    /// Initializes MobiCeal over a fresh disk, as `build_stack` does for
    /// the Fig. 4 MC-P and MC-H rows with [`DEVICE_SEED`].
    ///
    /// # Errors
    ///
    /// Initialization errors.
    pub fn new(disk_blocks: u64, cfg: MobiCealConfig, trace: bool) -> Result<Self, MobiCealError> {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(disk_blocks, BLOCK, clock.clone()));
        let probe = if trace {
            Probe { tracer: Some(Tracer::new(clock.clone())), log: Some(Arc::default()) }
        } else {
            Probe::default()
        };
        let dev: SharedDevice = match &probe.tracer {
            Some(tracer) => {
                let data = cfg.metadata_blocks..disk_blocks - FOOTER_BLOCKS;
                Arc::new(Timed::new(disk.clone(), tracer.clone(), "disk").with_regions(data))
            }
            None => disk.clone(),
        };
        let mc =
            MobiCeal::initialize(dev, clock.clone(), cfg.clone(), DECOY, &[HIDDEN], DEVICE_SEED)?;
        Ok(Stack { clock, disk, mc, cfg, probe })
    }

    fn wrap(&self, vol: UnlockedVolume, tag: u8) -> Volume {
        let dev: SharedDevice = match (&self.probe.tracer, &self.probe.log) {
            (Some(tracer), Some(log)) => {
                log.push_unlock(tag);
                Arc::new(
                    Timed::new(Arc::new(vol.clone()), tracer.clone(), "vol")
                        .with_log(log.clone(), tag),
                )
            }
            _ => Arc::new(vol.clone()),
        };
        Volume { vol, dev }
    }

    /// Unlocks the public volume.
    ///
    /// # Errors
    ///
    /// Unlock errors.
    pub fn public(&self) -> Result<Volume, MobiCealError> {
        Ok(self.wrap(self.mc.unlock_public(DECOY)?, crate::mirror::PUBLIC))
    }

    /// Unlocks the hidden volume.
    ///
    /// # Errors
    ///
    /// Unlock errors.
    pub fn hidden(&self) -> Result<Volume, MobiCealError> {
        Ok(self.wrap(self.mc.unlock_hidden(HIDDEN)?, crate::mirror::HIDDEN))
    }

    /// `MobiCeal::commit`, as a thin-layer span.
    ///
    /// # Errors
    ///
    /// Commit errors.
    pub fn commit(&self) -> Result<(), MobiCealError> {
        if let Some(log) = &self.probe.log {
            log.push_commit();
        }
        self.probe.span("commit", Kind::Flush, 0, || self.mc.commit())
    }

    /// Marks the end of set-up: clears the traced totals and marks the log.
    pub fn start_measuring(&self) {
        if let Some(tracer) = &self.probe.tracer {
            tracer.reset();
        }
        if let Some(log) = &self.probe.log {
            log.mark_measured();
        }
    }

    /// Boots a second MobiCeal instance from the same medium, as after a
    /// power cycle. Call after the final commit, with every volume of the
    /// first instance dropped.
    ///
    /// # Errors
    ///
    /// Open errors.
    pub fn reopen(&self) -> Result<MobiCeal, MobiCealError> {
        MobiCeal::open(self.disk.clone(), self.clock.clone(), self.cfg.clone(), DEVICE_SEED)
    }

    /// The medium's statistics.
    pub fn disk_stats(&self) -> DeviceStats {
        self.disk.stats()
    }
}
