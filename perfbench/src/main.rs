//! Release-service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_paper|serve_ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is drawn from `--seed` before timing starts.  With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1` it
//! records spans around the calls into each crate and reports the
//! per-layer metrics, writing the spans to `perfbench/out/`.  Output checks
//! run outside the timed phases; any failure makes the run incorrect.  The
//! last line of standard output is the result as one JSON object.

mod bulk;
mod layers;
mod loadgen;
mod report;
mod served;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use workload::Workload;

/// Command-line arguments.
pub struct Args {
    workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(45).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a traced run writes its spans.
pub fn span_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{seed}.jsonl",
        workload.name()
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload {
        Workload::BulkPaper => bulk::run(&args),
        Workload::ServeIngest => served::run(&args),
    };
    for failure in &outcome.check_failures {
        eprintln!("check failed: {failure}");
    }
    outcome.metrics.print();
    println!("{}", outcome.result_line());
    if !outcome.check_failures.is_empty() {
        std::process::exit(1);
    }
}
