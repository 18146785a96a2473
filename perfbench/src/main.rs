//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host stamp, one line per metric and note, and as its last
//! line one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Exits non-zero when any operation failed or any output was wrong.

use perfbench::workloads::{Shape, Workload};
use perfbench::Outcome;
use std::process::{Command, ExitCode};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workloads: Vec::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Output of a command, trimmed, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> (bool, bool) {
    (std::arch::is_x86_feature_detected!("aes"), std::arch::is_x86_feature_detected!("pclmulqdq"))
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> (bool, bool) {
    (false, false)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn stamp(workload: Workload, args: &Args) -> String {
    let (aes, clmul) = cpu_features();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"aes_ni\": {aes}, \"pclmulqdq\": {clmul}, \"rustc\": {}, \"git\": {}}}}}",
        json_str(workload.name()),
        args.seed,
        args.trace,
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// glibc decides from the history of frees whether a large allocation is
/// a fresh mapping (its zero pages faulted in on first write, inside the
/// measured write path) or reused heap (zeroed by `calloc` in set-up).
/// Fixed thresholds make every run take the same path.
const MALLOC_ENV: [(&str, &str); 2] =
    [("MALLOC_MMAP_THRESHOLD_", "33554432"), ("MALLOC_TRIM_THRESHOLD_", "1073741824")];

/// Runs this program again with [`MALLOC_ENV`] set and waits for it.
fn reexec() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe).args(std::env::args_os().skip(1)).envs(MALLOC_ENV).status()
    });
    match status {
        Ok(s) => ExitCode::from(u8::try_from(s.code().unwrap_or(1)).unwrap_or(1)),
        Err(e) => {
            eprintln!("perfbench: cannot re-run with fixed allocator thresholds: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    if MALLOC_ENV.iter().any(|(k, v)| std::env::var_os(k).is_none_or(|set| set != *v)) {
        return reexec();
    }
    let args = match parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for &workload in &args.workloads {
        println!("{}", stamp(workload, &args));
        let outcome =
            perfbench::run(&Shape::standard(workload), args.seed, args.seconds, args.trace);
        for note in &outcome.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &outcome.metrics {
            println!("# {name} = {value:.6} {unit}");
        }
        println!("{}", result_line(&outcome));
        ok &= outcome.correct;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
