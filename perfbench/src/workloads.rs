//! The three user workloads. Each round builds a fresh stack from the
//! seed, sets it up, runs a fixed amount of measured work with one
//! closed-loop client, commits, and re-verifies every acknowledged byte
//! after reopening the medium. Rounds repeat until the run's time is up;
//! every round of a seed does the same simulated work.

use crate::data::{self, Rng};
use crate::stack::{self, Probe, Stack, Volume};
use crate::trace::Kind;
use mobiceal_blockdev::{BlockDevice, CacheStats, Copier, DeviceStats, SharedDevice};
use mobiceal_fs::{FileSystem, SimFs};
use mobiceal_sim::SimClock;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential 1 MiB writes, fdatasync and read-back on MC-P.
    SeqPublicDd,
    /// Skewed single-block reads and overwrites on a cached MC-P volume.
    RandRwCached,
    /// Public bursts, then hidden-volume file churn with background GC.
    HiddenFilesGc,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] =
        [Workload::SeqPublicDd, Workload::RandRwCached, Workload::HiddenFilesGc];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqPublicDd => "seq_public_dd",
            Workload::RandRwCached => "rand_rw_cached",
            Workload::HiddenFilesGc => "hidden_files_gc",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of `seq_public_dd`.
#[derive(Debug, Clone, Copy)]
pub struct SeqShape {
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// Largest file size in bytes.
    pub file_bytes: usize,
    /// Most blocks the seed trims off the file's end, so that the last
    /// call is short by a seeded amount.
    pub max_trim_blocks: u64,
    /// Bytes per write or read call.
    pub chunk_bytes: usize,
    /// Most blocks of the file already on the volume; the seed picks
    /// how many (0 for none).
    pub max_prior_blocks: u64,
}

/// Sizes of `rand_rw_cached`.
#[derive(Debug, Clone, Copy)]
pub struct RandShape {
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// Blocks prefilled and then addressed.
    pub working_blocks: u64,
    /// Blocks in the hot set.
    pub hot_blocks: u64,
    /// Write-back cache capacity in blocks.
    pub cache_blocks: usize,
    /// Measured operations per round.
    pub ops: usize,
}

/// Sizes of `hidden_files_gc`.
#[derive(Debug, Clone, Copy)]
pub struct GcShape {
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// Public blocks written during set-up, accruing dummy blocks.
    pub accrual_blocks: u64,
    /// Public burst plus hidden session cycles per round.
    pub cycles: u64,
    /// Mean fresh public blocks per burst, written in one call; the seed
    /// picks each burst's size within a quarter of it.
    pub burst_blocks: u64,
    /// Files created per hidden session.
    pub files_per_session: u64,
    /// Files kept alive; older ones are deleted.
    pub live_files: usize,
    /// `MobiCeal::commit` after this many files.
    pub commit_every: u64,
    /// Write-back cache capacity in blocks.
    pub cache_blocks: usize,
    /// Copier depth (pending jobs + 1).
    pub copier_depth: usize,
}

/// The sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `seq_public_dd`.
    Seq(SeqShape),
    /// `rand_rw_cached`.
    Rand(RandShape),
    /// `hidden_files_gc`.
    Gc(GcShape),
}

impl Shape {
    /// The sizes the benchmark runs.
    pub fn standard(workload: Workload) -> Shape {
        match workload {
            // fig4_throughput's dd size on its 16384-block disk.
            Workload::SeqPublicDd => Shape::Seq(SeqShape {
                disk_blocks: 16_384,
                file_bytes: 8 << 20,
                max_trim_blocks: 64,
                chunk_bytes: 1 << 20,
                max_prior_blocks: 256,
            }),
            Workload::RandRwCached => Shape::Rand(RandShape {
                disk_blocks: 16_384,
                working_blocks: 4_096,
                hot_blocks: 819,
                cache_blocks: 1_024,
                ops: 100_000,
            }),
            Workload::HiddenFilesGc => Shape::Gc(GcShape {
                disk_blocks: 16_384,
                accrual_blocks: 2_048,
                cycles: 24,
                burst_blocks: 64,
                files_per_session: 32,
                live_files: 64,
                commit_every: 8,
                cache_blocks: 256,
                copier_depth: 8,
            }),
        }
    }

    /// The workload these sizes belong to.
    pub fn workload(&self) -> Workload {
        match self {
            Shape::Seq(_) => Workload::SeqPublicDd,
            Shape::Rand(_) => Workload::RandRwCached,
            Shape::Gc(_) => Workload::HiddenFilesGc,
        }
    }
}

/// How an operation counts towards throughput.
#[derive(Debug, Clone, Copy)]
enum Class {
    Read,
    Write,
    Other,
}

/// Everything one round measured.
#[derive(Default)]
pub struct Round {
    /// Wall time of set-up.
    pub setup_wall_s: f64,
    /// Wall latency of every measured operation (of every dd write
    /// command, on `seq_public_dd`), saturating at 4.29 s.
    pub op_wall_ns: Vec<u32>,
    /// Simulated latency of the same operations.
    pub op_sim_ns: Vec<u64>,
    /// Operations sampled.
    pub ops: u64,
    /// Wall time inside the sampled operations.
    pub busy_ns: u64,
    /// User bytes written, and the wall and simulated time of write ops.
    pub write: (u64, u64, u64),
    /// User bytes read, and the wall and simulated time of read ops.
    pub read: (u64, u64, u64),
    /// Simulated time of the measured phase.
    pub measured_sim_ns: u64,
    /// The medium's statistics over the measured phase.
    pub disk: DeviceStats,
    /// Operations attempted (measured ones plus final re-verification).
    pub attempted: u64,
    /// Operations that failed or read back wrong bytes.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Counters the program keeps itself, over the measured phase.
    pub counts: BTreeMap<&'static str, f64>,
    /// Wall latency of every copier step that ran a job.
    pub copier_steps_ns: Vec<u64>,
    /// Tracing state when traced.
    pub probe: Probe,
    /// The configuration the stack ran, for the mirror.
    pub cfg: Option<mobiceal::MobiCealConfig>,
    /// The medium at the end of the round, when captured.
    pub media: Option<mobiceal_blockdev::DiskSnapshot>,
    /// Whether the workload records one latency sample per phase
    /// instead of one per call (`seq_public_dd`: one per dd write).
    phase_samples: bool,
    stall: (u64, u64),
}

impl Round {
    fn fail(&mut self, msg: impl Display) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg.to_string());
        }
    }

    /// Runs one measured operation.
    fn op<T, E: Display>(
        &mut self,
        clock: &SimClock,
        class: Class,
        bytes: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let sim0 = clock.now();
        let wall0 = Instant::now();
        let out = f();
        let wall = wall0.elapsed().as_nanos() as u64 + self.stall.0;
        let sim = (clock.now() - sim0).as_nanos() + self.stall.1;
        self.stall = (0, 0);
        if !self.phase_samples {
            self.sample(wall, sim);
        }
        self.attempted += 1;
        let slot = match class {
            Class::Read => Some(&mut self.read),
            Class::Write => Some(&mut self.write),
            Class::Other => None,
        };
        if let Some((b, w, s)) = slot {
            *b += bytes;
            *w += wall;
            *s += sim;
        }
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn sample(&mut self, wall_ns: u64, sim_ns: u64) {
        self.op_wall_ns.push(u32::try_from(wall_ns).unwrap_or(u32::MAX));
        self.op_sim_ns.push(sim_ns);
        self.ops += 1;
        self.busy_ns += wall_ns;
    }

    /// A file-system call: an operation inside an `fs` span.
    fn fs_op<T, E: Display>(
        &mut self,
        st: &Stack,
        class: Class,
        kind: Kind,
        bytes: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let probe = &st.probe;
        self.op(&st.clock, class, bytes, || probe.span("fs", kind, bytes, f))
    }

    /// Runs one pending copier job; its time delays the next operation,
    /// as a background job on the client's core would.
    fn step(&mut self, st: &Stack, copier: &Copier) {
        let sim0 = st.clock.now();
        let wall0 = Instant::now();
        let ran = st.probe.span("copier", Kind::Other, 0, || copier.step());
        if ran {
            let wall = wall0.elapsed().as_nanos() as u64;
            self.copier_steps_ns.push(wall);
            self.stall.0 += wall;
            self.stall.1 += (st.clock.now() - sim0).as_nanos();
        }
        if let Some(e) = copier.take_error() {
            self.fail(format!("copier job: {e}"));
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(format!("{what}: read back wrong bytes"));
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn add_cache(&mut self, before: CacheStats, after: CacheStats) {
        self.add("cache.read_hits", (after.read_hits - before.read_hits) as f64);
        self.add("cache.read_misses", (after.read_misses - before.read_misses) as f64);
        self.add("cache.write_hits", (after.write_hits - before.write_hits) as f64);
        self.add("cache.write_misses", (after.write_misses - before.write_misses) as f64);
        self.add("cache.evictions", (after.evictions - before.evictions) as f64);
        self.add("cache.writebacks", (after.writebacks - before.writebacks) as f64);
    }
}

/// Wraps a set-up error as a failed round.
fn setup_failed(e: impl Display) -> Round {
    let mut r = Round { attempted: 1, ..Round::default() };
    r.fail(format!("set-up: {e}"));
    r
}

/// Inputs derived from the seed once per run, shared by its rounds.
pub enum Inputs {
    /// The file `seq_public_dd` writes, and the size in blocks of the
    /// file already on the volume.
    Seq(Vec<u8>, u64),
    /// `(block, is_write)` for every `rand_rw_cached` operation.
    Rand(Vec<(u64, bool)>),
    /// What `hidden_files_gc` writes and reads.
    Gc(GcInputs),
}

/// The seeded inputs of `hidden_files_gc`.
pub struct GcInputs {
    /// Size of every file, in creation order.
    sizes: Vec<usize>,
    /// Which live file the read after each save picks.
    picks: Vec<u64>,
    /// Blocks in each cycle's public burst.
    bursts: Vec<u64>,
}

impl Inputs {
    /// Generates the inputs of `shape` from `seed`.
    pub fn new(shape: &Shape, seed: u64) -> Self {
        match shape {
            Shape::Seq(s) => {
                let mut rng = Rng::new(seed, 1);
                let trim = rng.below(s.max_trim_blocks + 1) as usize * stack::BLOCK;
                let prior = rng.below(s.max_prior_blocks + 1);
                Inputs::Seq(data::bytes(seed, 1, s.file_bytes - trim), prior)
            }
            Shape::Rand(s) => {
                let mut rng = Rng::new(seed, 2);
                // A seeded shuffle splits the working set into hot and cold.
                let mut blocks: Vec<u64> = (0..s.working_blocks).collect();
                for i in (1..blocks.len()).rev() {
                    blocks.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let (hot, cold) = blocks.split_at(s.hot_blocks as usize);
                let ops = (0..s.ops)
                    .map(|_| {
                        let set = if rng.percent(80) { hot } else { cold };
                        let block = set[rng.below(set.len() as u64) as usize];
                        (block, rng.percent(30))
                    })
                    .collect();
                Inputs::Rand(ops)
            }
            Shape::Gc(s) => {
                let mut rng = Rng::new(seed, 3);
                let files = s.cycles * s.files_per_session;
                Inputs::Gc(GcInputs {
                    sizes: (0..files).map(|_| 4096 + rng.below(60 * 1024 + 1) as usize).collect(),
                    picks: (0..files).map(|_| rng.next_u64()).collect(),
                    bursts: (0..s.cycles)
                        .map(|_| s.burst_blocks * 3 / 4 + rng.below(s.burst_blocks / 2 + 1))
                        .collect(),
                })
            }
        }
    }
}

/// How a round runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Insert timing boundaries and log the unlocked volumes' calls.
    pub trace: bool,
    /// Keep an image of the medium at the end of the round.
    pub capture: bool,
}

/// Runs one round of `shape`.
pub fn round(shape: &Shape, inputs: &Inputs, seed: u64, opts: Opts) -> Round {
    match (shape, inputs) {
        (Shape::Seq(s), Inputs::Seq(file, prior)) => seq_public_dd(s, file, *prior, seed, opts),
        (Shape::Rand(s), Inputs::Rand(ops)) => rand_rw_cached(s, ops, seed, opts),
        (Shape::Gc(s), Inputs::Gc(inputs)) => hidden_files_gc(s, inputs, seed, opts),
        _ => setup_failed("inputs do not match the shape"),
    }
}

const DD_FILE: &str = "test.dbf";

const PRIOR_FILE: &str = "prior.dat";

fn seq_public_dd(s: &SeqShape, file: &[u8], prior: u64, seed: u64, opts: Opts) -> Round {
    // A phone's file system is not empty: a file of seeded size already
    // sits on the volume and shifts the allocator and dummy streams.
    let prior_bytes = data::bytes(seed, 4, prior as usize * stack::BLOCK);
    let t0 = Instant::now();
    let setup = || -> Result<(Stack, Volume, SimFs), String> {
        let st = Stack::new(s.disk_blocks, stack::config(0, 1), opts.trace).map_err(e)?;
        let vol = st.public().map_err(e)?;
        let mut fs = SimFs::format(vol.dev.clone()).map_err(e)?;
        if prior > 0 {
            fs.create(PRIOR_FILE).map_err(e)?;
            fs.write(PRIOR_FILE, 0, &prior_bytes).map_err(e)?;
            fs.sync().map_err(e)?;
        }
        fs.create(DD_FILE).map_err(e)?;
        Ok((st, vol, fs))
    };
    let (st, vol, mut fs) = match setup() {
        Ok(v) => v,
        Err(msg) => return setup_failed(msg),
    };
    let mut r =
        Round { setup_wall_s: t0.elapsed().as_secs_f64(), phase_samples: true, ..Round::default() };
    st.start_measuring();
    let (sim0, disk0, dummy0) = (st.clock.now(), st.disk_stats(), st.mc.dummy_stats());

    // dd if=… of=test.dbf bs=1M conv=fdatasync
    for (i, chunk) in file.chunks(s.chunk_bytes).enumerate() {
        let off = (i * s.chunk_bytes) as u64;
        let n = chunk.len() as u64;
        r.fs_op(&st, Class::Write, Kind::Write, n, || fs.write(DD_FILE, off, chunk));
    }
    r.fs_op(&st, Class::Write, Kind::Flush, 0, || fs.sync());
    // The operation a user waits for is the whole dd command.
    r.sample(r.write.1, r.write.2);
    // dd if=test.dbf of=/dev/null bs=1M, every chunk checked.
    for (i, chunk) in file.chunks(s.chunk_bytes).enumerate() {
        let off = (i * s.chunk_bytes) as u64;
        let n = chunk.len();
        if let Some(got) =
            r.fs_op(&st, Class::Read, Kind::Read, n as u64, || fs.read(DD_FILE, off, n))
        {
            r.check(got == chunk, "dd read");
        }
    }
    r.op(&st.clock, Class::Other, 0, || st.commit());
    finish_measuring(&mut r, &st, sim0, &disk0, dummy0);
    drop((fs, vol));

    // Durability: boot from the medium and read the whole file again.
    let reverify = || -> Result<bool, String> {
        let mc = st.reopen().map_err(e)?;
        let dev: SharedDevice = Arc::new(mc.unlock_public(stack::DECOY).map_err(e)?);
        let mut fs = SimFs::mount(dev).map_err(e)?;
        Ok(fs.read(DD_FILE, 0, file.len()).map_err(e)? == file
            && (prior == 0 || fs.read(PRIOR_FILE, 0, prior_bytes.len()).map_err(e)? == prior_bytes))
    };
    verify_after_reopen(&mut r, reverify());
    keep_probe(&mut r, st, opts);
    r
}

fn rand_rw_cached(s: &RandShape, ops: &[(u64, bool)], seed: u64, opts: Opts) -> Round {
    let block =
        |b: u64, version: u32| data::bytes(seed, (b << 32) | u64::from(version), stack::BLOCK);
    let t0 = Instant::now();
    let setup = || -> Result<(Stack, Volume), String> {
        let st =
            Stack::new(s.disk_blocks, stack::config(s.cache_blocks, 1), opts.trace).map_err(e)?;
        let vol = st.public().map_err(e)?;
        let ids: Vec<u64> = (0..s.working_blocks).collect();
        for batch in ids.chunks(256) {
            let bufs: Vec<Vec<u8>> = batch.iter().map(|&b| block(b, 0)).collect();
            let writes: Vec<(u64, &[u8])> =
                batch.iter().copied().zip(bufs.iter().map(Vec::as_slice)).collect();
            vol.dev.write_blocks(&writes).map_err(e)?;
        }
        st.commit().map_err(e)?;
        Ok((st, vol))
    };
    let (st, vol) = match setup() {
        Ok(v) => v,
        Err(msg) => return setup_failed(msg),
    };
    let mut r = Round { setup_wall_s: t0.elapsed().as_secs_f64(), ..Round::default() };
    let mut shadow = vec![0u32; s.working_blocks as usize];
    let mut expect = vec![0u8; stack::BLOCK];
    st.start_measuring();
    let (sim0, disk0, dummy0) = (st.clock.now(), st.disk_stats(), st.mc.dummy_stats());
    let cache0 = vol.vol.cache_stats().unwrap_or_default();
    for &(b, is_write) in ops {
        let slot = &mut shadow[b as usize];
        if is_write {
            let buf = block(b, *slot + 1);
            if r.op(&st.clock, Class::Write, stack::BLOCK as u64, || vol.dev.write_block(b, &buf))
                .is_some()
            {
                *slot += 1;
            }
        } else {
            data::fill(seed, (b << 32) | u64::from(*slot), &mut expect);
            if let Some(got) =
                r.op(&st.clock, Class::Read, stack::BLOCK as u64, || vol.dev.read_block(b))
            {
                r.check(got == expect, "block read");
            }
        }
    }
    r.op(&st.clock, Class::Other, 0, || st.commit());
    finish_measuring(&mut r, &st, sim0, &disk0, dummy0);
    r.add_cache(cache0, vol.vol.cache_stats().unwrap_or_default());
    drop(vol);

    let reverify = || -> Result<bool, String> {
        let mc = st.reopen().map_err(e)?;
        let dev = mc.unlock_public(stack::DECOY).map_err(e)?;
        let ids: Vec<u64> = (0..s.working_blocks).collect();
        for batch in ids.chunks(256) {
            let got = dev.read_blocks(batch).map_err(e)?;
            if batch.iter().zip(&got).any(|(&b, g)| *g != block(b, shadow[b as usize])) {
                return Ok(false);
            }
        }
        Ok(true)
    };
    verify_after_reopen(&mut r, reverify());
    keep_probe(&mut r, st, opts);
    r
}

fn hidden_files_gc(s: &GcShape, inputs: &GcInputs, seed: u64, opts: Opts) -> Round {
    let GcInputs { sizes, picks, bursts } = inputs;
    let public_block = |b: u64| data::bytes(seed, (1 << 40) | b, stack::BLOCK);
    let file_bytes = |id: usize| data::bytes(seed, (2 << 40) | id as u64, sizes[id]);
    let name = |id: usize| format!("f{id}");
    let cfg = stack::config(s.cache_blocks, s.copier_depth);
    let t0 = Instant::now();
    let setup = || -> Result<(Stack, Volume), String> {
        let st = Stack::new(s.disk_blocks, cfg.clone(), opts.trace).map_err(e)?;
        let public = st.public().map_err(e)?;
        let ids: Vec<u64> = (0..s.accrual_blocks).collect();
        for batch in ids.chunks(64) {
            let bufs: Vec<Vec<u8>> = batch.iter().map(|&b| public_block(b)).collect();
            let writes: Vec<(u64, &[u8])> =
                batch.iter().copied().zip(bufs.iter().map(Vec::as_slice)).collect();
            public.dev.write_blocks(&writes).map_err(e)?;
        }
        let hidden = st.hidden().map_err(e)?;
        SimFs::format(hidden.dev.clone()).map_err(e)?;
        st.commit().map_err(e)?;
        Ok((st, public))
    };
    let (st, public) = match setup() {
        Ok(v) => v,
        Err(msg) => return setup_failed(msg),
    };
    let mut r = Round { setup_wall_s: t0.elapsed().as_secs_f64(), ..Round::default() };
    st.start_measuring();
    let (sim0, disk0, dummy0) = (st.clock.now(), st.disk_stats(), st.mc.dummy_stats());
    let cache0 = public.vol.cache_stats().unwrap_or_default();
    let copier = Copier::new(cfg.copier_depth);
    let mut cursor = s.accrual_blocks;
    let mut live: VecDeque<usize> = VecDeque::new();
    let mut next_file = 0usize;
    let mut max_pending = 0usize;
    for cycle in 0..s.cycles {
        // A short public burst on fresh blocks accrues dummy blocks.
        let burst = bursts[cycle as usize];
        let ids: Vec<u64> = (cursor..cursor + burst).collect();
        let bufs: Vec<Vec<u8>> = ids.iter().map(|&b| public_block(b)).collect();
        let writes: Vec<(u64, &[u8])> =
            ids.iter().copied().zip(bufs.iter().map(Vec::as_slice)).collect();
        r.step(&st, &copier);
        r.op(&st.clock, Class::Write, burst * stack::BLOCK as u64, || {
            public.dev.write_blocks(&writes)
        });
        cursor += burst;
        // The hidden session: unlock, prove hidden mode for GC, mount. Its
        // cost is the mode switch's fixed PBKDF2 charge, so it is checked
        // but not a latency sample; `sim.unattributed_s` carries it.
        r.step(&st, &copier);
        r.attempted += 1;
        let session = (|| -> Result<_, String> {
            let hidden = st.hidden().map_err(e)?;
            let gc = st.mc.begin_gc_session(&[stack::HIDDEN]).map_err(e)?;
            let fs = SimFs::mount(hidden.dev.clone()).map_err(e)?;
            Ok((hidden, gc, fs))
        })();
        let (hidden, gc, mut fs) = match session {
            Ok(v) => v,
            Err(msg) => {
                r.fail(msg);
                break;
            }
        };
        let hidden_cache0 = hidden.vol.cache_stats().unwrap_or_default();
        r.step(&st, &copier);
        let report = r.op(&st.clock, Class::Other, 0, || {
            st.probe.span("gc", Kind::Other, 0, || {
                st.mc.garbage_collect_background_in_session(&gc, seed ^ cycle, &copier, 64)
            })
        });
        if let Some(report) = report {
            r.add("gc.passes", 1.0);
            r.add("gc.blocks_reclaimed", report.blocks_reclaimed as f64);
        }
        max_pending = max_pending.max(copier.pending());
        for k in 0..s.files_per_session {
            let id = next_file;
            next_file += 1;
            let (fname, bytes) = (name(id), file_bytes(id));
            let n = bytes.len() as u64;
            // Saving a file, as an app does: create, write, fsync.
            r.step(&st, &copier);
            r.op(&st.clock, Class::Write, n, || {
                let probe = &st.probe;
                probe.span("fs", Kind::Write, 0, || fs.create(&fname))?;
                probe.span("fs", Kind::Write, n, || fs.write(&fname, 0, &bytes))?;
                probe.span("fs", Kind::Flush, 0, || fs.sync())
            });
            live.push_back(id);
            // Read back a live file chosen by the seed: recent ones hit
            // the cache, older ones come from the device.
            let pick = live[picks[id] as usize % live.len()];
            let (pname, want) = (name(pick), file_bytes(pick));
            let m = want.len() as u64;
            r.step(&st, &copier);
            if let Some(got) =
                r.fs_op(&st, Class::Read, Kind::Read, m, || fs.read(&pname, 0, want.len()))
            {
                r.check(got == want, "hidden file read");
            }
            if live.len() > s.live_files {
                let old = live.pop_front().map(name).unwrap_or_default();
                r.step(&st, &copier);
                r.fs_op(&st, Class::Other, Kind::Other, 0, || fs.delete(&old));
            }
            if (k + 1) % s.commit_every == 0 {
                r.step(&st, &copier);
                r.op(&st.clock, Class::Other, 0, || st.commit());
            }
        }
        // End of session: persist, then lock the hidden volume again.
        r.step(&st, &copier);
        r.fs_op(&st, Class::Other, Kind::Flush, 0, || fs.sync());
        r.op(&st.clock, Class::Other, 0, || st.commit());
        r.add_cache(hidden_cache0, hidden.vol.cache_stats().unwrap_or_default());
        drop((fs, hidden));
    }
    r.op(&st.clock, Class::Other, 0, || -> Result<(), String> {
        st.probe.span("copier", Kind::Other, 0, || copier.drain()).map_err(e)?;
        st.commit().map_err(e)
    });
    finish_measuring(&mut r, &st, sim0, &disk0, dummy0);
    r.add_cache(cache0, public.vol.cache_stats().unwrap_or_default());
    r.add("copier.jobs", copier.stats().completed as f64);
    r.add("copier.max_pending", max_pending as f64);
    drop(public);

    let reverify = || -> Result<bool, String> {
        let mc = st.reopen().map_err(e)?;
        let dev: SharedDevice = Arc::new(mc.unlock_hidden(stack::HIDDEN).map_err(e)?);
        let mut fs = SimFs::mount(dev).map_err(e)?;
        for &id in &live {
            if fs.read(&name(id), 0, sizes[id]).map_err(e)? != file_bytes(id) {
                return Ok(false);
            }
        }
        let public = mc.unlock_public(stack::DECOY).map_err(e)?;
        let ids: Vec<u64> = (0..cursor).collect();
        for batch in ids.chunks(256) {
            let got = public.read_blocks(batch).map_err(e)?;
            if batch.iter().zip(&got).any(|(&b, g)| *g != public_block(b)) {
                return Ok(false);
            }
        }
        Ok(true)
    };
    verify_after_reopen(&mut r, reverify());
    keep_probe(&mut r, st, opts);
    r
}

fn e(err: impl Display) -> String {
    err.to_string()
}

/// Closes the measured phase: simulated time, medium and dummy counters.
fn finish_measuring(
    r: &mut Round,
    st: &Stack,
    sim0: mobiceal_sim::SimInstant,
    disk0: &DeviceStats,
    dummy0: mobiceal::DummyStats,
) {
    r.measured_sim_ns = (st.clock.now() - sim0).as_nanos();
    r.disk = st.disk_stats().delta_since(disk0);
    let d = st.mc.dummy_stats();
    r.add("pde.trigger_checks", (d.trigger_checks - dummy0.trigger_checks) as f64);
    r.add("pde.bursts", (d.bursts - dummy0.bursts) as f64);
    r.add("pde.dummy_blocks", (d.blocks_written - dummy0.blocks_written) as f64);
    let dropped = d.blocks_dropped - dummy0.blocks_dropped;
    r.add("pde.dummy_dropped", dropped as f64);
    if dropped > 0 {
        // A full pool silently changes the workload.
        r.fail(format!("{dropped} dummy blocks dropped: the pool ran full"));
    }
    r.add("thin.free_blocks_end", st.mc.free_blocks() as f64);
}

/// Counts the post-reopen check as one more operation.
fn verify_after_reopen(r: &mut Round, outcome: Result<bool, String>) {
    r.attempted += 1;
    match outcome {
        Ok(true) => {}
        Ok(false) => r.fail("after reopen: acknowledged data read back wrong"),
        Err(msg) => r.fail(format!("after reopen: {msg}")),
    }
}

fn keep_probe(r: &mut Round, st: Stack, opts: Opts) {
    r.cfg = Some(st.cfg.clone());
    r.probe = st.probe.clone();
    if opts.capture {
        r.media = Some(st.disk.snapshot());
    }
}
