//! End-to-end benchmark of batch and streaming RT-DBSCAN, timed layer by
//! layer through the public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload porto-dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload generates its input from `--seed`, sets up several times
//! (`setup_s` is the median), computes a sequential `ClassicDbscan`
//! reference outside every timed region, and then times its operation in a
//! closed loop (one caller, next call when the last returns) until the
//! timed calls add up to `--seconds`, checking every result against the
//! reference and every repeatable count against the first iteration.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` additionally runs
//! a traced loop and a probe of each layer, prints the per-layer metrics,
//! and writes the recorded spans to `.perfbench/`.  The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the exit code is non-zero when any gate fails.

mod batch;
mod gate;
mod report;
mod stats;
mod stream;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed set aside for confirming a claimed gain on inputs not used while
/// the change was written.
pub const CONFIRM_SEED: u64 = 2027;

const USAGE: &str = "usage: rtdbscan-perfbench --workload <porto-dense|iono-sharded> [--seed N] \
                     [--seconds S] [--trace 0|1]";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    match args.workload.as_str() {
        "porto-dense" => batch::run(&batch::PORTO_DENSE, &args, &mut tracer, &mut report),
        "iono-sharded" => batch::run(&batch::IONO_SHARDED, &args, &mut tracer, &mut report),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    report.metric("peak_rss_mb", stats::peak_rss_mb());
    report.note(format!(
        "seed {} (default {DEFAULT_SEED}, confirm {CONFIRM_SEED}); {} threads",
        args.seed,
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    if args.trace {
        let path = PathBuf::from(gate::OUT_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => report.note(format!("could not write {}: {e}", path.display())),
        }
    }
    report.print(args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
