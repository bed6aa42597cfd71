//! End-to-end benchmark for the workspace: three workloads (`serve`,
//! `train`, `scale`) driven through the crates' public APIs.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` telemetry recording is off and the last stdout line
//! holds the end-to-end metrics; with `--trace 1` the workload runs once
//! untraced and once traced, and the last line holds the per-layer
//! metrics. See `perfbench/README.md` for every metric and workload.

mod layers;
mod report;
mod retry;
mod scale;
mod serve;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metric, Outcome};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// How many times each workload builds its system before measuring;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 12;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (serve, train or scale)")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (serve, train or scale)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

const WORKLOADS: [&str; 3] = ["serve", "train", "scale"];

/// Run one workload for `budget` with telemetry recording on or off.
fn run(workload: &str, seed: u64, budget: Duration, traced: bool) -> Outcome {
    faasm_telemetry::set_enabled(traced);
    match workload {
        "serve" => serve::run(seed, budget, traced),
        "train" => train::run(seed, budget, traced),
        _ => scale::run(seed, budget, traced),
    }
}

/// Write a traced run's spans under `perfbench/spans/`.
pub fn write_spans(spans: &stats::Spans, workload: &str, seed: u64, out: &mut Outcome) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{workload}-seed{seed}.tsv"));
    match spans.write(&path) {
        Ok(n) => out
            .notes
            .push(format!("wrote {n} spans to {}", path.display())),
        Err(e) => out.notes.push(format!("could not write spans: {e}")),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} cpus {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = if args.trace {
        // Half the budget untraced, half traced: the difference in time per
        // unit of work is the tracing overhead.
        let half = budget / 2;
        let plain = run(&args.workload, args.seed, half, false);
        let mut traced = run(&args.workload, args.seed, half, true);
        let overhead = (traced.unit_cost_ms / plain.unit_cost_ms - 1.0) * 100.0;
        traced.layers.push(Metric::new(
            "telemetry.overhead_pct",
            overhead,
            "%",
            plain.rounds.min(traced.rounds),
        ));
        traced.merge_counts(&plain);
        traced.notes.push(
            "not measured: core.snapshot_fetch_us (the runtime records SnapshotFetch spans only \
             under a trace context, which the call path installs after the fetch)"
                .into(),
        );
        traced
    } else {
        run(&args.workload, args.seed, budget, false)
    };
    let ok = outcome.print(args.trace, started.elapsed());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
