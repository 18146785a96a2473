//! Checks that the benchmark measures the paper's stack and that tracing
//! does not change what it measures.

use mobiceal_workloads::{build_stack, DdWorkload, StackConfig};
use perfbench::stack::DEVICE_SEED;
use perfbench::workloads::{self, GcShape, Inputs, Opts, RandShape, SeqShape, Shape};
use perfbench::{run, Metric};

fn small_shapes() -> [Shape; 3] {
    [
        Shape::Seq(SeqShape {
            disk_blocks: 4096,
            file_bytes: 2 << 20,
            max_trim_blocks: 16,
            chunk_bytes: 256 << 10,
            max_prior_blocks: 64,
        }),
        Shape::Rand(RandShape {
            disk_blocks: 4096,
            working_blocks: 512,
            hot_blocks: 100,
            cache_blocks: 128,
            ops: 2000,
        }),
        Shape::Gc(GcShape {
            disk_blocks: 4096,
            accrual_blocks: 256,
            cycles: 2,
            burst_blocks: 16,
            files_per_session: 6,
            live_files: 4,
            commit_every: 3,
            cache_blocks: 64,
            copier_depth: 4,
        }),
    ]
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("no metric {name}")).1
}

/// Metrics that come from the simulated clock or from counts only.
fn simulated(metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    const WALL: [&str; 6] = [
        "ops_per_s",
        "setup_s",
        "peak_rss_MiB",
        "trace.overhead_pct",
        "thin.commit_p50_us",
        "copier.step_p99_us",
    ];
    metrics
        .iter()
        .filter(|(name, _, _)| {
            let wall = name.contains("wall") || name.ends_with("MiBps") || name.starts_with("op_");
            !wall && !WALL.contains(name)
        })
        .map(|&(name, v, _)| (name, v))
        .collect()
}

#[test]
fn tracing_changes_no_simulated_total_command_or_byte() {
    for shape in small_shapes() {
        let inputs = Inputs::new(&shape, 5);
        let plain = workloads::round(&shape, &inputs, 5, Opts { trace: false, capture: true });
        let traced = workloads::round(&shape, &inputs, 5, Opts { trace: true, capture: true });
        let name = shape.workload().name();
        assert_eq!(plain.failed, 0, "{name}: {:?}", plain.errors);
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.errors);
        assert_eq!(plain.measured_sim_ns, traced.measured_sim_ns, "{name}: simulated total");
        assert_eq!(plain.op_sim_ns, traced.op_sim_ns, "{name}: simulated op latencies");
        assert_eq!(plain.disk, traced.disk, "{name}: DeviceStats");
        assert!(plain.media.is_some(), "{name}: medium captured");
        assert_eq!(plain.media, traced.media, "{name}: media bytes");
    }
}

#[test]
fn mc_p_stack_reproduces_the_fig4_dd_row() {
    // fig4_throughput's dd shape: 8 MiB in 256 KiB chunks on 16384 blocks.
    let shape = SeqShape {
        disk_blocks: 16_384,
        file_bytes: 8 << 20,
        max_trim_blocks: 0,
        chunk_bytes: 256 << 10,
        max_prior_blocks: 0,
    };
    for seed in [1, 2] {
        let stack = build_stack(StackConfig::MobiCealPublic, 16_384, DEVICE_SEED).expect("stack");
        let dd = DdWorkload { file_bytes: 8 << 20, chunk_bytes: 256 << 10 }
            .run(stack.device.clone(), &stack.clock)
            .expect("dd");
        let shape = Shape::Seq(shape);
        let r = workloads::round(&shape, &Inputs::new(&shape, seed), seed, Opts::default());
        assert_eq!(r.failed, 0, "{:?}", r.errors);
        // DdWorkload's formula, on the benchmark's byte counts and clock.
        let kbps = |bytes: u64, ns: u64| bytes as f64 / (ns as f64 / 1e9) / 1000.0;
        assert_eq!(kbps(r.write.0, r.write.2), dd.write_kbps, "MC-P dd write KB/s, seed {seed}");
        assert_eq!(kbps(r.read.0, r.read.2), dd.read_kbps, "MC-P dd read KB/s, seed {seed}");
    }
}

#[test]
fn same_seed_same_simulated_results_other_seed_different() {
    for shape in small_shapes() {
        let name = shape.workload().name();
        for traced in [false, true] {
            let a = run(&shape, 7, 0.0, traced);
            let b = run(&shape, 7, 0.0, traced);
            let c = run(&shape, 8, 0.0, traced);
            for o in [&a, &b, &c] {
                assert!(o.correct && o.failed == 0, "{name}: {:?}", o.notes);
            }
            assert_eq!(simulated(&a.metrics), simulated(&b.metrics), "{name} traced={traced}");
            assert_ne!(simulated(&a.metrics), simulated(&c.metrics), "{name} traced={traced}");
        }
    }
}

#[test]
fn layer_self_times_add_up_to_the_simulated_clock() {
    for shape in small_shapes() {
        let name = shape.workload().name();
        let o = run(&shape, 3, 0.0, true);
        assert!(o.correct, "{name}: {:?}", o.notes);
        let m = &o.metrics;
        let layers = ["fs", "cache", "crypt", "pde", "thin", "gc", "copier"];
        let sum: f64 = layers.iter().map(|l| value(m, &format!("{l}.sim_self_s"))).sum::<f64>()
            + value(m, "disk.sim_busy_s")
            + value(m, "sim.unattributed_s");
        let total = value(m, "sim.total_s");
        assert!((sum - total).abs() < 1e-6 * total.max(1.0), "{name}: {sum} vs {total}");
    }
}

#[test]
fn a_full_pool_fails_the_run() {
    // 3 MiB of file and its dummy blocks cannot fit a 512-block disk.
    let shape = Shape::Seq(SeqShape {
        disk_blocks: 512,
        file_bytes: 3 << 20,
        max_trim_blocks: 0,
        chunk_bytes: 1 << 20,
        max_prior_blocks: 0,
    });
    let o = run(&shape, 1, 0.0, false);
    assert!(!o.correct);
    assert!(o.failed > 0);
}
