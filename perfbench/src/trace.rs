//! In-memory span recorder and the pass-through timing device.
//!
//! A span covers one call into a layer. On close it adds its wall and
//! simulated duration to its parent's child total, and its own duration
//! minus its children's to its layer's self time, so self times of all
//! layers add up exactly to the time covered by top-level spans. Nothing
//! is written while the workload runs; totals are read at the end.

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, SharedDevice};
use mobiceal_sim::SimClock;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What a span did, so a layer's time can be split by direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Reads (block reads, file reads).
    Read,
    /// Writes (block writes, file writes, creates).
    Write,
    /// Flushes, syncs and commits.
    Flush,
    /// Anything else (deletes, GC submission, copier steps).
    Other,
}

/// Totals of one `(layer, kind)` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Blocks (or bytes, for file calls) the spans carried.
    pub units: u64,
    /// Wall time inside the spans, children included.
    pub wall_ns: u64,
    /// Wall time inside the spans minus their children.
    pub wall_self_ns: u64,
    /// Simulated time inside the spans, children included.
    pub sim_ns: u64,
    /// Simulated time inside the spans minus their children.
    pub sim_self_ns: u64,
    /// Wall duration of every span, children included.
    pub samples_ns: Vec<u64>,
}

struct Frame {
    key: (&'static str, Kind),
    units: u64,
    wall0: Instant,
    sim0: u64,
    child_wall: u64,
    child_sim: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    totals: BTreeMap<(&'static str, Kind), Totals>,
    counters: BTreeMap<&'static str, u64>,
    top_sim_ns: u64,
}

/// Records spans against one simulated clock.
pub struct Tracer {
    clock: SimClock,
    state: Mutex<State>,
}

impl Tracer {
    /// A recorder charging simulated time from `clock`.
    pub fn new(clock: SimClock) -> Arc<Self> {
        Arc::new(Tracer { clock, state: Mutex::new(State::default()) })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic inside a span leaves totals that are merely incomplete.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` inside a span of `layer`/`kind` carrying `units`.
    pub fn span<T>(&self, layer: &'static str, kind: Kind, units: u64, f: impl FnOnce() -> T) -> T {
        let sim0 = self.clock.now().as_nanos();
        self.state().stack.push(Frame {
            key: (layer, kind),
            units,
            wall0: Instant::now(),
            sim0,
            child_wall: 0,
            child_sim: 0,
        });
        let out = f();
        let wall_end = Instant::now();
        let sim_end = self.clock.now().as_nanos();
        let mut state = self.state();
        let frame = state.stack.pop().expect("span stack holds the frame pushed above");
        let wall = wall_end.duration_since(frame.wall0).as_nanos() as u64;
        let sim = sim_end - frame.sim0;
        match state.stack.last_mut() {
            Some(parent) => {
                parent.child_wall += wall;
                parent.child_sim += sim;
            }
            None => state.top_sim_ns += sim,
        }
        let t = state.totals.entry(frame.key).or_default();
        t.calls += 1;
        t.units += frame.units;
        t.wall_ns += wall;
        t.wall_self_ns += wall.saturating_sub(frame.child_wall);
        t.sim_ns += sim;
        t.sim_self_ns += sim - frame.child_sim;
        t.samples_ns.push(wall);
        out
    }

    /// Adds `n` to a named counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.state().counters.entry(name).or_default() += n;
    }

    /// Clears every total and counter (between set-up and measurement).
    ///
    /// # Panics
    ///
    /// Panics if a span is open.
    pub fn reset(&self) {
        let mut state = self.state();
        assert!(state.stack.is_empty(), "reset inside an open span");
        *state = State::default();
    }

    /// The totals of `layer`, summed over the given kinds (all if empty).
    pub fn totals(&self, layer: &str, kinds: &[Kind]) -> Totals {
        let state = self.state();
        let mut sum = Totals::default();
        for ((l, k), t) in &state.totals {
            if *l == layer && (kinds.is_empty() || kinds.contains(k)) {
                sum.calls += t.calls;
                sum.units += t.units;
                sum.wall_ns += t.wall_ns;
                sum.wall_self_ns += t.wall_self_ns;
                sum.sim_ns += t.sim_ns;
                sum.sim_self_ns += t.sim_self_ns;
                sum.samples_ns.extend_from_slice(&t.samples_ns);
            }
        }
        sum
    }

    /// A counter's value (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.state().counters.get(name).copied().unwrap_or(0)
    }

    /// Simulated time covered by top-level spans since the last reset.
    pub fn top_sim_ns(&self) -> u64 {
        self.state().top_sim_ns
    }

    /// Every layer that closed a span, in name order.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.state().totals.keys().map(|(l, _)| *l).collect();
        names.dedup();
        names
    }
}

/// A pass-through [`BlockDevice`] that opens a span for every call and
/// forwards it unchanged, vectored calls and host-queue registration
/// included, so a traced stack issues exactly the commands of an
/// untraced one.
pub struct Timed {
    inner: SharedDevice,
    tracer: Arc<Tracer>,
    layer: &'static str,
    /// For the raw disk: the LBA range of the data region; every other
    /// LBA is metadata (pool metadata in front, footer at the end).
    data_region: Option<Range<u64>>,
    /// Optional log of the calls crossing this boundary, for replay.
    log: Option<(Arc<crate::mirror::Log>, u8)>,
}

impl Timed {
    /// Wraps `inner` as layer `layer`.
    pub fn new(inner: SharedDevice, tracer: Arc<Tracer>, layer: &'static str) -> Self {
        Timed { inner, tracer, layer, data_region: None, log: None }
    }

    /// Also counts commands and bytes per disk region.
    pub fn with_regions(mut self, data_region: Range<u64>) -> Self {
        self.data_region = Some(data_region);
        self
    }

    /// Also appends every call to `log`, tagged with volume `tag`.
    pub fn with_log(mut self, log: Arc<crate::mirror::Log>, tag: u8) -> Self {
        self.log = Some((log, tag));
        self
    }

    fn region(&self, first: Option<BlockIndex>) -> Option<&'static str> {
        let range = self.data_region.as_ref()?;
        Some(match first {
            Some(i) if range.contains(&i) => "data",
            _ => "meta",
        })
    }

    fn count_io(&self, first: Option<BlockIndex>, blocks: usize, write: bool) {
        let bytes = (blocks * self.inner.block_size()) as u64;
        match (self.region(first), write) {
            (Some("data"), true) => {
                self.tracer.count("disk.data.write_cmds", 1);
                self.tracer.count("disk.data.bytes_written", bytes);
            }
            (Some(_), true) => {
                self.tracer.count("disk.meta.write_cmds", 1);
                self.tracer.count("disk.meta.bytes_written", bytes);
            }
            (Some("data"), false) => self.tracer.count("disk.data.read_cmds", 1),
            (Some(_), false) => self.tracer.count("disk.meta.read_cmds", 1),
            (None, _) => {}
        }
    }

    fn record(&self, kind: Kind, vectored: bool, indices: &mut dyn Iterator<Item = BlockIndex>) {
        if let Some((log, tag)) = &self.log {
            log.push(*tag, kind, vectored, indices);
        }
    }
}

impl BlockDevice for Timed {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.count_io(Some(index), 1, false);
        self.record(Kind::Read, false, &mut std::iter::once(index));
        self.tracer.span(self.layer, Kind::Read, 1, || self.inner.read_block(index))
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.count_io(Some(index), 1, true);
        self.record(Kind::Write, false, &mut std::iter::once(index));
        self.tracer.span(self.layer, Kind::Write, 1, || self.inner.write_block(index, data))
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        self.count_io(indices.first().copied(), indices.len(), false);
        self.record(Kind::Read, true, &mut indices.iter().copied());
        let n = indices.len() as u64;
        self.tracer.span(self.layer, Kind::Read, n, || self.inner.read_blocks(indices))
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.count_io(writes.first().map(|w| w.0), writes.len(), true);
        self.record(Kind::Write, true, &mut writes.iter().map(|w| w.0));
        let n = writes.len() as u64;
        self.tracer.span(self.layer, Kind::Write, n, || self.inner.write_blocks(writes))
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        if self.data_region.is_some() {
            self.tracer.count("disk.flushes", 1);
        }
        self.record(Kind::Flush, false, &mut std::iter::empty());
        self.tracer.span(self.layer, Kind::Flush, 0, || self.inner.flush())
    }

    fn host_queue_enter(&self) {
        self.inner.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.inner.host_queue_leave();
    }
}
