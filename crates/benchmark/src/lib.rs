//! # bingo-benchmark — the repository's benchmark
//!
//! One command runs one workload of the simulator at full scale, checks
//! every simulated result against its golden digest and its invariants,
//! and prints each metric by name with its unit, one JSON object per
//! line, then a summary object as the last line:
//!
//! ```text
//! cargo run --release -p bingo-benchmark -- --workload <name> --seed <u64> [--trace [0|1]]
//! cargo run --release -p bingo-benchmark -- --list
//! ```
//!
//! `--seconds <n>` is accepted and ignored: each workload makes a fixed
//! number of passes.
//!
//! The crate drives the simulator only through its public entry points
//! (`System`, `Workload::source_for_core`, `capture_workload`,
//! `TraceWorkload`, the prefetcher constructors and `MemorySystem`), on
//! one thread, so what it measures cannot drift with the experiment
//! harness. See `README.md` for the workloads, the metrics and the noise
//! model.

#![warn(missing_docs)]

pub mod digest;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod workload;

use std::io::{self, Write};

pub use digest::{digest, Expected, Golden};
pub use metrics::{END_TO_END, PER_LAYER};
pub use run::{run, Options, Report, Settings};
pub use workload::{BenchWorkload, Scale};

const USAGE: &str = "usage: bingo-benchmark --workload <name> --seed <u64> \
[--seconds <n>] [--trace [0|1]]\n       bingo-benchmark --list";

/// What the command line asked for.
#[derive(Debug)]
enum Command {
    List,
    Run(Options),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    BenchWorkload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                // Accepted from callers that pass a run length, and
                // ignored: a workload's passes are fixed, so every run of
                // it measures the same work.
                value("--seconds")?;
            }
            "--trace" => {
                // `--trace 0`, `--trace 1`, or a bare `--trace` for 1.
                let level = it.next_if(|v| *v == "0" || *v == "1");
                trace = level.is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Command::Run(Options {
        workload,
        seed,
        passes: workload.passes(),
        trace,
    }))
}

/// Runs the command line `args` (without the program name), writing the
/// metrics to `out`; returns the process exit status. A run whose cells
/// fail still exits 0 and reports the failures in its summary; bad
/// arguments exit 2 and an I/O failure 1, without a summary.
pub fn main_with(args: &[String], settings: &Settings, out: &mut dyn Write) -> i32 {
    let result = match parse(args) {
        Ok(Command::List) => list(out),
        Ok(Command::Run(opts)) => match run(opts, settings) {
            Ok(report) => print_report(&report, out),
            Err(err) => {
                eprintln!("bingo-benchmark: {err}");
                return 1;
            }
        },
        Err(msg) => {
            eprintln!("bingo-benchmark: {msg}\n{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(err) => {
            eprintln!("bingo-benchmark: writing output: {err}");
            1
        }
    }
}

/// Prints every workload and every metric with its unit, direction and
/// bound.
fn list(out: &mut dyn Write) -> io::Result<()> {
    for w in BenchWorkload::ALL {
        writeln!(
            out,
            "workload {} passes={} why={}",
            w.name(),
            w.passes(),
            w.why()
        )?;
    }
    for (kind, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for m in metrics {
            let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
            writeln!(
                out,
                "{kind} {} unit={} better={} bound={bound}",
                m.name,
                m.unit,
                m.better.as_str()
            )?;
        }
    }
    Ok(())
}

/// One JSON line per metric, then the summary line.
fn print_report(report: &Report, out: &mut dyn Write) -> io::Result<()> {
    let mut metrics = Vec::new();
    for (m, value) in &report.values {
        let value = json_number(*value);
        writeln!(
            out,
            r#"{{"name": "{}", "value": {value}, "unit": "{}"}}"#,
            m.name, m.unit
        )?;
        metrics.push(format!(
            r#""{}": {{"value": {value}, "unit": "{}"}}"#,
            m.name, m.unit
        ));
    }
    writeln!(
        out,
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.failed_cells == 0,
        report.cells,
        report.failed_cells,
        metrics.join(", ")
    )
}

/// A finite number as JSON; a non-finite one (a broken run) as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    }
}
