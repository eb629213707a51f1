//! Command line of the PaMO benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper_online|fleet_m2000|serve_storm|des_replay> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context header, one line per metric with its unit and
//! sample count (`metric` for those of the result line, `detail` for
//! the workload's own figures), the correctness checks, and as the last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! a check fails or a metric is not finite, 2 on bad arguments.

use std::process::{Command, ExitCode};

use pamo_benchmark::{json_number, run, Params, Workload, HELD_OUT_SEED, THREADS};

struct Args {
    workload: Workload,
    params: Params,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be finite and >= 0, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            tiny: false,
        },
        traced,
    })
}

/// The `ADDR_NO_RANDOMIZE` personality flag.
const ADDR_NO_RANDOMIZE: u32 = 0x0040000;

/// Whether address-space layout randomization is off for this process;
/// `None` where procfs does not say.
fn aslr_off() -> Option<bool> {
    let text = std::fs::read_to_string("/proc/self/personality").ok()?;
    let flags = u32::from_str_radix(text.trim(), 16).ok()?;
    Some(flags & ADDR_NO_RANDOMIZE != 0)
}

/// Run this benchmark again with address-space randomization off and
/// return its exit code. A randomized heap and stack layout moves this
/// program's speed by 10-20 % from one process to the next, which would
/// swamp the differences the benchmark exists to show. `None` when the
/// layout is already fixed or `setarch` cannot run; the run then
/// proceeds in this process.
fn rerun_without_aslr() -> Option<ExitCode> {
    if aslr_off() != Some(false) {
        return None;
    }
    let setarch_works = Command::new("setarch")
        .args([std::env::consts::ARCH, "-R", "true"])
        .status()
        .is_ok_and(|s| s.success());
    if !setarch_works {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("setarch")
        .arg(std::env::consts::ARCH)
        .arg("-R")
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .status()
        .ok()?;
    Some(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::from(1),
    })
}

/// The checked-out revision, read when the benchmark runs so that a
/// reused build reports the source it measures; "unknown" outside a git
/// checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pamo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = rerun_without_aslr() {
        return code;
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# pamo-benchmark");
    println!(
        "# host: nproc={nproc} cpu=\"{}\" threads={THREADS} (the vendored rayon runs \
         sequentially, so the program uses one thread)",
        cpu_model()
    );
    println!(
        "# build: {} commit={} aslr={}",
        env!("BENCH_RUSTC_VERSION"),
        commit(),
        match aslr_off() {
            Some(true) => "off",
            Some(false) => "on (setarch unavailable)",
            None => "unknown",
        }
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={} (held-out seed for confirming claims: {HELD_OUT_SEED})",
        args.workload.name(),
        args.params.seed,
        args.params.seconds,
        u8::from(args.traced)
    );

    let out = run(args.workload, &args.params, args.traced);

    if !out.span_table.is_empty() {
        println!("# spans (traced units): kind count total_ms self_ms");
        for (kind, count, total, self_ms) in &out.span_table {
            println!("#   {kind:<40} {count:>8} {total:>12.3} {self_ms:>12.3}");
        }
    }
    for (kind, list) in [("metric", &out.metrics), ("detail", &out.detail)] {
        for m in list {
            println!(
                "{kind} {:<28} {:>16} {:<8} n={}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
    }
    for c in &out.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!(
        "ops attempted={} failed={}",
        out.ops.attempted, out.ops.failed
    );
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
