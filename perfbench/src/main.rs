//! End-to-end and per-layer benchmark of the AutoPower reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root.  Prints a table of every metric with its
//! unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate span-traced replay with
//! `--trace 1`.  See `perfbench/README.md`.

mod inputs;
mod openloop;
mod replay;
mod report;
mod serve;
mod setup;
mod span;
mod stats;
mod sweeps;

use report::{result_json, table, Metrics, Tally, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What one workload run measured.
pub struct WorkloadRun {
    /// End-to-end metrics of the untraced run.
    pub e2e: Metrics,
    /// Per-layer metrics of the traced run, when one was made.
    pub layers: Option<Metrics>,
    /// Operations attempted and failed, gates included.
    pub tally: Tally,
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["sweep-exact", "sweep-surrogate", "serve-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'\n{}", usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("out of range"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{}", usage()))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{}", usage()))?,
        trace: trace.ok_or_else(|| format!("--trace is required\n{}", usage()))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Scratch files of this run (models, checkpoints) live in a directory of
    // their own; traces are kept beside it.
    let out = Path::new("perfbench").join("out");
    let dir: PathBuf = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "perfbench: cannot create {} ({e}); run from the repository root",
            dir.display()
        );
        return ExitCode::from(1);
    }
    let run = match args.workload.as_str() {
        "sweep-exact" => sweeps::exact(args.seed, args.seconds, args.trace, &dir),
        "sweep-surrogate" => sweeps::surrogate(args.seed, args.seconds, args.trace, &dir),
        _ => serve::open_loop(args.seed, args.seconds, args.trace, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} ({cores} cores available)",
        args.workload, args.seed, args.seconds
    );
    print!("{}", table("end-to-end (untraced run)", &run.e2e));
    if let Some(layers) = &run.layers {
        print!("{}", table("per layer (traced run)", layers));
    }
    println!(
        "operations: {} attempted, {} failed",
        run.tally.attempted, run.tally.failed
    );
    let (metrics, expected) = match (args.trace, run.layers) {
        (true, Some(layers)) => (layers, &PER_LAYER[..]),
        _ => (run.e2e, &END_TO_END[..]),
    };
    // Every workload reports the same metrics: a result line missing one
    // (or carrying one not in `BENCHMARK.json`) is a benchmark bug.
    let mut listed = metrics.listed();
    let mut expected = expected.to_vec();
    listed.sort_unstable();
    expected.sort_unstable();
    if listed != expected {
        eprintln!(
            "perfbench: {} reports {listed:?}, not the listed {expected:?}",
            args.workload
        );
        return ExitCode::from(1);
    }
    println!("{}", result_json(run.tally, &metrics));
    ExitCode::SUCCESS
}
