//! End-to-end and per-layer benchmark of the MobiCeal stack.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how each
//! layer metric maps onto an end-to-end one.

pub mod data;
pub mod mirror;
pub mod stack;
pub mod trace;
pub mod workloads;

use mirror::{Mirror, Rung};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Kind, Tracer};
use workloads::{Inputs, Opts, Round, Shape};

/// Fewest rounds per run, so set-up time is a median of several.
pub const MIN_ROUNDS: usize = 3;

/// Failure lines kept for printing; the counts keep every failure.
const MAX_FAILURE_NOTES: usize = 20;

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of a run.
pub struct Outcome {
    /// Whether every output checked out.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations that failed or read back wrong bytes.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, sizes, failures.
    pub notes: Vec<String>,
}

/// Runs `shape` for at least `seconds` (and [`MIN_ROUNDS`] rounds).
/// Untraced, it reports the end-to-end metrics; traced, it alternates
/// untraced and traced rounds and reports the per-layer metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::new(shape, seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out =
        Outcome { correct: true, attempted: 0, failed: 0, metrics: Vec::new(), notes: Vec::new() };
    let mut plain: Vec<Round> = Vec::new();
    let mut wall = Samples::default();
    let mut plain_busy = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut traced_busy = Vec::new();
    let fail = |out: &mut Outcome, msg: String| {
        out.correct = false;
        out.notes.push(format!("failure: {msg}"));
    };
    while plain.len() < MIN_ROUNDS || Instant::now() < deadline {
        let mut rounds = vec![workloads::round(shape, &inputs, seed, Opts::default())];
        if traced {
            rounds.push(workloads::round(
                shape,
                &inputs,
                seed,
                Opts { trace: true, capture: false },
            ));
        }
        for r in &rounds {
            out.attempted += r.attempted;
            out.failed += r.failed;
            if out.notes.len() < MAX_FAILURE_NOTES {
                out.notes.extend(r.errors.iter().map(|e| format!("failure: {e}")));
            }
            // Every round of a seed does the same simulated work, traced
            // or not.
            let reference = plain.first().unwrap_or(&rounds[0]);
            if r.failed == 0
                && reference.failed == 0
                && sim_fingerprint(r) != sim_fingerprint(reference)
            {
                fail(&mut out, "simulated results differ between rounds of one seed".into());
            }
        }
        if let Some(t) = rounds.get(1) {
            traced_busy.push(t.busy_ns as f64);
            match layers_of(shape, t) {
                Ok((metrics, note)) => {
                    if layers.is_empty() {
                        out.notes.push(note);
                    }
                    layers.push(metrics);
                }
                Err(msg) => fail(&mut out, format!("traced run: {msg}")),
            }
        }
        // Fold the round's wall samples into the pool; its simulated ones
        // equal the first round's.
        let mut r = rounds.swap_remove(0);
        wall.add(r.op_wall_ns.iter().map(|&ns| u64::from(ns)));
        plain_busy.push(r.busy_ns as f64);
        r.op_wall_ns = Vec::new();
        if !plain.is_empty() {
            r.op_sim_ns = Vec::new();
        }
        plain.push(r);
    }
    out.metrics = end_to_end(&plain, &wall, &mut out.notes);
    if traced && !layers.is_empty() {
        out.metrics = layers[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                (name, median(layers.iter().map(|m| m[i].1).collect()), unit)
            })
            .collect();
        let overhead = (median(traced_busy) / median(plain_busy) - 1.0) * 100.0;
        out.metrics.push(("trace.overhead_pct", overhead, "%"));
    }
    out.correct &= out.failed == 0;
    out
}

/// Everything simulated a round produced; equal across rounds of a seed.
fn sim_fingerprint(r: &Round) -> impl PartialEq + '_ {
    (&r.op_sim_ns, r.measured_sim_ns, r.disk, r.write.2, r.read.2, &r.counts)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples kept as a count per value: exact pooled percentiles in
/// memory bounded by the number of distinct values, not of samples.
#[derive(Default)]
struct Samples {
    counts: BTreeMap<u64, u64>,
    n: u64,
}

impl Samples {
    fn add(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            *self.counts.entry(v).or_default() += 1;
            self.n += 1;
        }
    }

    /// The nearest-rank `p`-th percentile (0 when empty).
    fn percentile(&self, p: f64) -> u64 {
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return v;
            }
        }
        0
    }

    /// p99 when at least ten samples lie above it, else the highest of
    /// p95/p90/p75/p50 that has ten above it.
    fn tail_percentile(&self) -> f64 {
        let n = self.n;
        [99.0, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find(|&p| n.saturating_sub(((p / 100.0) * n as f64).ceil() as u64) >= 10)
            .unwrap_or(50.0)
    }

    /// The mean of the samples beyond the `p`-th percentile (at least one).
    fn tail_mean(&self, p: f64) -> f64 {
        let k = (self.n - ((p / 100.0) * self.n as f64).floor() as u64).max(1);
        let (mut left, mut sum) = (k, 0u128);
        for (&v, &c) in self.counts.iter().rev() {
            let take = c.min(left);
            sum += u128::from(v) * u128::from(take);
            left -= take;
            if left == 0 {
                break;
            }
        }
        sum as f64 / k.min(self.n).max(1) as f64
    }
}

const MIB: f64 = (1u64 << 20) as f64;

fn end_to_end(rounds: &[Round], wall: &Samples, notes: &mut Vec<String>) -> Vec<Metric> {
    let rate =
        |bytes: u64, ns: u64| if ns == 0 { 0.0 } else { bytes as f64 / MIB / (ns as f64 / 1e9) };
    let write = median(rounds.iter().map(|r| rate(r.write.0, r.write.1)).collect());
    let read = median(rounds.iter().map(|r| rate(r.read.0, r.read.1)).collect());
    let ops = median(rounds.iter().map(|r| r.ops as f64 / (r.busy_ns as f64 / 1e9)).collect());
    let tail_p = wall.tail_percentile();
    let r0 = &rounds[0];
    let mut sim = Samples::default();
    sim.add(r0.op_sim_ns.iter().copied());
    // Simulated latencies take few distinct values, so the simulated tail
    // is the mean beyond the percentile, which moves with the mix.
    let sim_tail_p = sim.tail_percentile();
    let sim_total: u64 = r0.op_sim_ns.iter().sum();
    let sim_rate =
        |bytes: u64, ns: u64| if ns == 0 { 0.0 } else { bytes as f64 / 1e6 / (ns as f64 / 1e9) };
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    notes.push(format!(
        "op_p99_us is p{tail_p} of {} wall samples over {} rounds; sim_op_p99_us is the mean beyond p{sim_tail_p} of {} samples",
        wall.n,
        rounds.len(),
        sim.n
    ));
    notes.push(format!(
        "error_rate = {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    ));
    vec![
        ("write_MiBps", write, "MiB/s"),
        ("read_MiBps", read, "MiB/s"),
        ("ops_per_s", ops, "1/s"),
        ("op_p50_us", wall.percentile(50.0) as f64 / 1e3, "us"),
        ("op_p99_us", wall.percentile(tail_p) as f64 / 1e3, "us"),
        ("sim_write_MBps", sim_rate(r0.write.0, r0.write.2), "MB/s"),
        ("sim_read_MBps", sim_rate(r0.read.0, r0.read.2), "MB/s"),
        ("sim_ops_per_s", r0.op_sim_ns.len() as f64 / (sim_total as f64 / 1e9), "1/s"),
        ("sim_op_p99_us", sim.tail_mean(sim_tail_p) / 1e3, "us"),
        ("device_write_amp", r0.disk.bytes_written() as f64 / r0.write.0.max(1) as f64, "ratio"),
        ("setup_s", median(rounds.iter().map(|r| r.setup_wall_s).collect()), "s"),
        ("peak_rss_MiB", peak_rss_mib(), "MiB"),
    ]
}

/// The process's peak resident set, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Layers the traced stack's own spans may name; the unlocked volume's
/// (`vol`) and the commit's self time are split by the mirror.
const TRACED_LAYERS: [&str; 6] = ["commit", "copier", "disk", "fs", "gc", "vol"];

/// The per-layer metrics of one traced round, and a line placing the
/// write path's wall time in layers.
fn layers_of(shape: &Shape, r: &Round) -> Result<(Vec<Metric>, String), String> {
    let (Some(t), Some(log), Some(cfg)) = (&r.probe.tracer, &r.probe.log, &r.cfg) else {
        return Err("round was not traced".into());
    };
    if r.failed > 0 {
        return Err("traced round failed".into());
    }
    if let Some(stray) = t.layers().into_iter().find(|l| !TRACED_LAYERS.contains(l)) {
        return Err(format!("unexpected span layer {stray}"));
    }
    let disk_blocks = match shape {
        Shape::Seq(s) => s.disk_blocks,
        Shape::Rand(s) => s.disk_blocks,
        Shape::Gc(s) => s.disk_blocks,
    };
    let mut public = Mirror::new(Rung::Public, disk_blocks, cfg).map_err(|e| e.to_string())?;
    public.replay(log).map_err(|e| format!("public-rung replay: {e}"))?;
    let mut hidden = Mirror::new(Rung::Hidden, disk_blocks, cfg).map_err(|e| e.to_string())?;
    hidden.replay(log).map_err(|e| format!("hidden-rung replay: {e}"))?;
    let count = |name: &str| r.counts.get(name).copied().unwrap_or(0.0);
    let dummies = public.measured_dummy_stats();
    if (dummies.trigger_checks, dummies.blocks_written)
        != (count("pde.trigger_checks") as u64, count("pde.dummy_blocks") as u64)
    {
        return Err(format!("mirror dummy writes {dummies:?} differ from the device's"));
    }
    let (p, h) = (public.tracer(), hidden.tracer());
    let all = |tr: &Tracer, layer: &str| tr.totals(layer, &[]);
    let secs = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let fs = all(t, "fs");
    let vol = all(t, "vol");
    let commit = all(t, "commit");
    let cache = all(p, "cache");
    let crypt = all(p, "crypt");
    let enc = p.totals("crypt", &[Kind::Write]);
    let dec = p.totals("crypt", &[Kind::Read]);
    let thin = all(h, "thin");
    // The volume and commit spans hold cache, crypt, PDE and thin. Crypt
    // and cache charges and thin lookups depend only on the call stream,
    // so the mirror's equal the stack's; the rest is the PDE hook's.
    let stack_sim = vol.sim_self_ns + commit.sim_self_ns;
    let pde_sim = stack_sim
        .checked_sub(cache.sim_self_ns + crypt.sim_self_ns + thin.sim_self_ns)
        .ok_or("mirror charged more simulated time than the stack")?;
    let noise = mobiceal_sim::CpuCostModel::nexus4().rng_cost(stack::BLOCK).as_nanos();
    if pde_sim != noise * count("pde.dummy_blocks") as u64 {
        return Err(format!(
            "PDE simulated self time {pde_sim} ns is not the noise charge of {} dummy blocks",
            count("pde.dummy_blocks")
        ));
    }
    // PDE and the public thin volume are one span on the public rung; the
    // hidden rung's thin span is the thin share.
    let pde_wall = (all(p, "pde").wall_self_ns + all(p, "thin").wall_self_ns) as f64
        - thin.wall_self_ns as f64;
    let gc = all(t, "gc");
    let copier = all(t, "copier");
    let disk = all(t, "disk");
    let mut commit_ns = Samples::default();
    commit_ns.add(commit.samples_ns.iter().copied());
    let mut steps = Samples::default();
    steps.add(r.copier_steps_ns.iter().copied());
    let cmds = |name: &str| t.counter(name) as f64;
    let writes = [Kind::Write, Kind::Flush];
    let below = |tr: &Tracer| {
        let c = tr.totals("crypt", &writes);
        secs(c.wall_ns - c.wall_self_ns)
    };
    let note = format!(
        "write path wall self (s): fs {:.4}, cache {:.4}, crypt {:.4}, pde {:.4}, thin {:.4}, disk {:.4}; \
         traced volume+commit self {:.4} vs mirror cache+crypt+pde+thin {:.4}; below crypt on writes: \
         public rung {:.4}, hidden rung {:.4}",
        secs(t.totals("fs", &writes).wall_self_ns),
        secs(p.totals("cache", &writes).wall_self_ns),
        secs(p.totals("crypt", &writes).wall_self_ns),
        (p.totals("pde", &writes).wall_self_ns + p.totals("thin", &writes).wall_self_ns) as f64 / 1e9
            - secs(h.totals("thin", &writes).wall_self_ns),
        secs(h.totals("thin", &writes).wall_self_ns),
        secs(t.totals("disk", &writes).wall_self_ns),
        secs(vol.wall_self_ns + commit.wall_self_ns),
        secs(cache.wall_self_ns + crypt.wall_self_ns + thin.wall_self_ns) + pde_wall / 1e9,
        below(p),
        below(h),
    );
    let metrics = vec![
        ("fs.calls", fs.calls as f64, "count"),
        ("fs.wall_self_s", secs(fs.wall_self_ns), "s"),
        ("fs.sim_self_s", secs(fs.sim_self_ns), "s"),
        ("fs.dev_blocks_per_call", ratio(vol.units as f64, fs.calls as f64), "blocks"),
        ("fs.syncs", t.totals("fs", &[Kind::Flush]).calls as f64, "count"),
        (
            "cache.read_hit_ratio",
            ratio(count("cache.read_hits"), count("cache.read_hits") + count("cache.read_misses")),
            "ratio",
        ),
        (
            "cache.write_absorb_ratio",
            ratio(
                count("cache.write_hits"),
                count("cache.write_hits") + count("cache.write_misses"),
            ),
            "ratio",
        ),
        ("cache.evictions", count("cache.evictions"), "count"),
        ("cache.writebacks", count("cache.writebacks"), "count"),
        ("cache.wall_self_s", secs(cache.wall_self_ns), "s"),
        ("cache.sim_self_s", secs(cache.sim_self_ns), "s"),
        ("crypt.calls", crypt.calls as f64, "count"),
        ("crypt.sectors_per_call", ratio(crypt.units as f64, crypt.calls as f64), "sectors"),
        ("crypt.wall_self_s", secs(crypt.wall_self_ns), "s"),
        ("crypt.sim_self_s", secs(crypt.sim_self_ns), "s"),
        (
            "crypt.enc_MiBps",
            ratio(enc.units as f64 * stack::BLOCK as f64 / MIB, secs(enc.wall_self_ns)),
            "MiB/s",
        ),
        (
            "crypt.dec_MiBps",
            ratio(dec.units as f64 * stack::BLOCK as f64 / MIB, secs(dec.wall_self_ns)),
            "MiB/s",
        ),
        ("pde.trigger_checks", count("pde.trigger_checks"), "count"),
        ("pde.bursts", count("pde.bursts"), "count"),
        ("pde.dummy_blocks", count("pde.dummy_blocks"), "count"),
        ("pde.dummy_dropped", count("pde.dummy_dropped"), "count"),
        ("pde.wall_self_s", pde_wall / 1e9, "s"),
        ("pde.sim_self_s", secs(pde_sim), "s"),
        ("thin.wall_self_s", secs(thin.wall_self_ns), "s"),
        ("thin.sim_self_s", secs(thin.sim_self_ns), "s"),
        ("thin.commits", commit.calls as f64, "count"),
        ("thin.commit_p50_us", commit_ns.percentile(50.0) as f64 / 1e3, "us"),
        (
            "thin.meta_bytes_per_commit",
            ratio(cmds("disk.meta.bytes_written"), commit.calls as f64),
            "B",
        ),
        ("thin.free_blocks_end", count("thin.free_blocks_end"), "blocks"),
        ("gc.passes", count("gc.passes"), "count"),
        ("gc.blocks_reclaimed", count("gc.blocks_reclaimed"), "blocks"),
        ("gc.wall_self_s", secs(gc.wall_self_ns), "s"),
        ("gc.sim_self_s", secs(gc.sim_self_ns), "s"),
        ("copier.jobs", count("copier.jobs"), "count"),
        ("copier.step_p99_us", steps.percentile(99.0) as f64 / 1e3, "us"),
        ("copier.max_pending", count("copier.max_pending"), "count"),
        ("copier.wall_self_s", secs(copier.wall_self_ns), "s"),
        ("copier.sim_self_s", secs(copier.sim_self_ns), "s"),
        ("disk.data.write_cmds", cmds("disk.data.write_cmds"), "count"),
        ("disk.data.read_cmds", cmds("disk.data.read_cmds"), "count"),
        ("disk.data.bytes_written", cmds("disk.data.bytes_written"), "B"),
        ("disk.meta.bytes_written", cmds("disk.meta.bytes_written"), "B"),
        ("disk.flushes", cmds("disk.flushes"), "count"),
        ("disk.sim_busy_s", secs(disk.sim_ns), "s"),
        ("disk.wall_self_s", secs(disk.wall_self_ns), "s"),
        ("sim.total_s", secs(r.measured_sim_ns), "s"),
        ("sim.unattributed_s", secs(r.measured_sim_ns - t.top_sim_ns()), "s"),
    ];
    Ok((metrics, note))
}
