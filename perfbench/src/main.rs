//! The repository benchmark: one workload per run, on both clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <orca_rpc|orca_bcast|fleet_1k> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times the workload and prints the end-to-end metrics;
//! `--trace 1` runs the traced suite, prints the per-layer metrics and
//! writes the span file under `perfbench/out/`. Either way the last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod host;
mod metrics;
mod timed;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

use metrics::{result_line, Metrics};
use workloads::{Checks, Seeds, Workload};

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Result identifiers, printed before the result line.
    pub lines: Vec<String>,
    /// The output checks.
    pub checks: Checks,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Metrics,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(parse_u64(value).ok_or_else(|| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <orca_rpc|orca_bcast|fleet_1k> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let seeds = Seeds::from_arg(args.seed);
    let fingerprint = host::fingerprint(workloads::fleet_runners(seeds, 0));
    println!("host {fingerprint}");
    println!(
        "workload {} seeds orca {:#x} fleet {} trace {}",
        args.workload.name(),
        seeds.orca,
        seeds.fleet,
        u8::from(args.trace)
    );

    let outcome = if args.trace {
        let (outcome, tracer) = traced::run(args.workload, seeds);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            seeds.orca
        ));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"host\": {fingerprint}",
            args.workload.name(),
            seeds.orca
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header, &outcome.metrics)));
        match written {
            Ok(()) => println!("spans {} in {}", tracer.spans().len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome
    } else {
        timed::run(args.workload, seeds, args.seconds)
    };

    let mut outcome = outcome;
    for m in &outcome.metrics.0 {
        let name = &m.name;
        outcome.checks.require(metrics::valid_name(name), || {
            format!("bad metric name {name:?}")
        });
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    for failure in outcome.checks.failures() {
        println!("check FAILED: {failure}");
    }
    println!(
        "failed_frac {}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!(
        "{}",
        result_line(
            outcome.checks.passed(),
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
