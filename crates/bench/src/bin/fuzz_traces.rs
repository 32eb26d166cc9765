//! Adversarial trace-decoder fuzzer: seeded corruption against the
//! hardened loader.
//!
//! ```text
//! fuzz_traces [--seeds N] [--out DIR]    default 500 seeds, artifacts to
//!                                        target/traces-fuzz/
//! ```
//!
//! For every seed, a pristine capture image is corrupted by a deterministic
//! plan ([`bingo_trace::plan_for_seed`]: truncation, bit flips, chunk
//! reordering, garbage headers, mid-record EOF) and pushed through both
//! ingestion policies. The loader's contract, checked per seed:
//!
//! * **no panics** — either policy, any input;
//! * **strict** either decodes everything or returns a typed
//!   [`bingo_trace::ReadError`] whose message carries the byte offset;
//! * **strict-clean implies lenient-clean** — when strict accepts the
//!   bytes, lenient must deliver the identical record stream with nothing
//!   quarantined;
//! * **lenient always terminates** with an ingest report, never an error
//!   (I/O aside), no matter how mangled the bytes are;
//! * **the op fast path is invisible** — a drain that takes op runs with
//!   `TraceReader::take_ops` delivers the same records, the same report
//!   and the same error (variant and offset) as the lazy drain, under
//!   both policies, on the corrupted image and on a forgery of it whose
//!   CRC-valid chunks declare fewer records than their payload holds.
//!
//! A subsample of corrupted images additionally runs a tiny lenient
//! simulation end to end, asserting the sweep completes (or fails as a
//! contained cell) and that the quarantine tally survives into the
//! JSONL stats export.
//!
//! On any violation the corruption plan is shrunk with
//! [`bingo_oracle::shrink_items`] to a minimal reproducing op list, the
//! corrupted image and plan are written to `--out`, and the process exits
//! nonzero — CI uploads the directory as an artifact.

use std::io::Cursor;
use std::mem::discriminant;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bingo_bench::{ParallelHarness, PrefetcherKind, RunScale, RunSpec, StatsExport};
use bingo_oracle::shrink_items;
use bingo_sim::{IngestReport, Instr, TelemetryLevel, ThrottleMode};
use bingo_trace::{
    apply, capture_source, plan_for_seed, CorruptionOp, Policy, ReadError, TraceReader,
};
use bingo_workloads::{TraceWorkload, Workload};

struct Args {
    seeds: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 500,
        out: PathBuf::from("target/traces-fuzz"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seeds needs a number");
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Base images the corruptions are applied to: single-core captures of
/// three workloads with deliberately different access mixes, small chunks
/// so most seeds hit several chunk boundaries.
fn base_images() -> Vec<(Workload, Vec<u8>)> {
    let picks = [Workload::Streaming, Workload::Em3d, Workload::STRESS[0]];
    picks
        .iter()
        .map(|&w| {
            let mut sources = w.sources(1, 0xF0_5EED);
            let mut sink = Cursor::new(Vec::new());
            capture_source(sources[0].as_mut(), 3_000, 128, &mut sink)
                .expect("in-memory capture cannot fail on I/O");
            (w, sink.into_inner())
        })
        .collect()
}

/// Everything one drain observed: the records delivered, the final
/// ingest report, and the first (typed) decode error, if any.
type Drained = (Vec<Instr>, IngestReport, Option<ReadError>);

/// Drains a reader to completion, through `next_instr` alone or, when
/// `batched`, with the op fast path (`leading_ops`, then `take_ops(k)`
/// with k cycling 1..=9) before every `next_instr` call.
fn drain(bytes: &[u8], policy: Policy, batched: bool) -> Drained {
    let mut reader = match TraceReader::new(Cursor::new(bytes), policy) {
        Ok(reader) => reader,
        Err(e) => return (Vec::new(), IngestReport::default(), Some(e)),
    };
    let mut out = Vec::new();
    let mut k = 0;
    loop {
        if batched {
            k = k % 9 + 1;
            let peeked = reader.leading_ops();
            let taken = reader.take_ops(k);
            assert_eq!(taken, peeked.min(k), "take_ops disagrees with leading_ops");
            out.resize(out.len() + taken, Instr::Op);
        }
        match reader.next_instr() {
            Ok(Some(instr)) => out.push(instr),
            Ok(None) => return (out, reader.report(), None),
            Err(e) => return (out, reader.report(), Some(e)),
        }
    }
}

/// How one corrupted image fared against the loader contract. `None`
/// means every clause held.
fn violation(image: &[u8], ops: &[CorruptionOp]) -> Option<String> {
    let corrupted = apply(image, ops);
    let run = |bytes: &[u8], policy: Policy, batched: bool| {
        catch_unwind(AssertUnwindSafe(|| drain(bytes, policy, batched)))
    };
    let Ok(strict) = run(&corrupted, Policy::Strict, false) else {
        return Some("strict decoder PANICKED".to_string());
    };
    let Ok(lenient) = run(&corrupted, Policy::Lenient, false) else {
        return Some("lenient decoder PANICKED".to_string());
    };
    match (&strict.2, &lenient.2) {
        (None, None) => {
            if strict.0 != lenient.0 {
                return Some(format!(
                    "strict accepted {} records but lenient delivered {}",
                    strict.0.len(),
                    lenient.0.len()
                ));
            }
        }
        (Some(e), _) => {
            if !e.to_string().contains("byte") {
                return Some(format!("strict error lost its byte offset: {e}"));
            }
        }
        (_, Some(e)) => {
            return Some(format!(
                "lenient policy must never error on corruption: {e}"
            ));
        }
    }
    // The op fast path must be invisible: same records, same report, same
    // error variant at the same offset as the lazy drain. Checked on the
    // corrupted image and on a forgery of it whose CRC-valid chunks each
    // declare one record fewer than their payload holds.
    let forged = apply(&corrupted, &[CorruptionOp::ShortenChunks { fewer: 1 }]);
    let key = |e: &Option<ReadError>| e.as_ref().map(|e| (discriminant(e), e.offset()));
    for (which, bytes) in [("corrupted", &corrupted), ("forged", &forged)] {
        for policy in [Policy::Strict, Policy::Lenient] {
            let (Ok(lazy), Ok(batched)) = (run(bytes, policy, false), run(bytes, policy, true))
            else {
                return Some(format!("{policy:?} decoder PANICKED on the {which} image"));
            };
            let why = if batched.0 != lazy.0 {
                format!(
                    "batched drain delivered {} records, lazy {}",
                    batched.0.len(),
                    lazy.0.len()
                )
            } else if batched.1 != lazy.1 {
                format!("batched report {} differs from lazy {}", batched.1, lazy.1)
            } else if key(&batched.2) != key(&lazy.2) {
                format!(
                    "batched error {:?} differs from lazy {:?}",
                    batched.2, lazy.2
                )
            } else {
                continue;
            };
            return Some(format!("{policy:?} on the {which} image: {why}"));
        }
    }
    None
}

/// Writes a file, failing loudly with the path and the cause — a fuzz
/// artifact that silently fails to land would hide the repro.
fn write_artifact(path: &Path, bytes: &[u8]) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("creating artifact dir {}: {e}", parent.display()));
    }
    std::fs::write(path, bytes)
        .unwrap_or_else(|e| panic!("writing artifact {}: {e}", path.display()));
}

fn report_violation(
    out: &Path,
    seed: u64,
    workload: Workload,
    image: &[u8],
    ops: &[CorruptionOp],
    why: &str,
) -> ExitCode {
    // Shrink the op list to a minimal plan that still violates the
    // contract (the predicate re-applies the surviving subset to the
    // pristine image each probe). Sim-level failures are not reproducible
    // by the pure decode predicate, so those plans ship unshrunk.
    let (shrunk, final_why) = if violation(image, ops).is_some() {
        let shrunk = shrink_items(ops, &mut |subset| violation(image, subset).is_some());
        let final_why = violation(image, &shrunk).expect("shrunk plan still violates");
        (shrunk, final_why)
    } else {
        (ops.to_vec(), why.to_string())
    };
    let corrupted = apply(image, &shrunk);
    let trace_path = out.join(format!("violation_seed{seed}.btrc"));
    write_artifact(&trace_path, &corrupted);
    let plan = format!(
        "trace-decoder contract violation\nseed {seed}\nbase image: {} ({} bytes)\n\
         violation: {final_why}\nshrunk plan ({} of {} ops):\n{}",
        workload.name(),
        image.len(),
        shrunk.len(),
        ops.len(),
        shrunk
            .iter()
            .map(|op| format!("  {op:?}\n"))
            .collect::<String>()
    );
    write_artifact(
        &out.join(format!("violation_seed{seed}.txt")),
        plan.as_bytes(),
    );
    eprintln!(
        "FAIL seed {seed} ({}): {final_why}\nshrunk {} -> {} ops; artifact: {}",
        workload.name(),
        ops.len(),
        shrunk.len(),
        trace_path.display()
    );
    ExitCode::FAILURE
}

/// End-to-end lenient replay of a corrupted image through the sweep
/// engine: must either complete with an ingest report (quarantine
/// visible in the engine's JSONL stats export) or fail as a contained
/// cell with a loud message — never hang, never take down the process.
fn check_lenient_sim(out: &Path, seed: u64, corrupted: &[u8]) -> Result<(), String> {
    let dir = out.join("sim-scratch").join(format!("seed{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("core0.btrc");
    std::fs::write(&path, corrupted).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let trace = TraceWorkload::with_policy(&dir, Policy::Lenient)
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let scale = RunScale {
        instructions_per_core: 1_500,
        warmup_per_core: 500,
        seed,
    };
    let stats_path = dir.join("stats.jsonl");
    let stats = StatsExport::create(&stats_path)
        .map_err(|e| format!("creating {}: {e}", stats_path.display()))?;
    let spec = RunSpec::trace(
        scale,
        &trace,
        PrefetcherKind::NextLine(1),
        TelemetryLevel::Off,
        ThrottleMode::Off,
    );
    let mut report = ParallelHarness::with_jobs(1)
        .quiet()
        .with_stats_export(stats)
        .try_run(&[spec]);
    let Some(result) = report.evaluations.pop().flatten() else {
        let reason = &report.failures[0].reason;
        // A capture with zero decodable records has nothing to replay;
        // the designed failure is a loud, contained cell panic.
        if reason.contains("no decodable records") {
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        return Err(format!("lenient sim cell failed: {reason}"));
    };
    let ingest = result
        .ingest
        .as_ref()
        .ok_or("lenient sim completed without an ingest report")?;
    // The quarantine tally must survive into the machine-readable export.
    let line = std::fs::read_to_string(&stats_path)
        .map_err(|e| format!("reading back {}: {e}", stats_path.display()))?;
    if !line.contains("\"ingest\"") {
        return Err(format!(
            "stats export dropped the ingest report (quarantined {} records): {line}",
            ingest.quarantined_records
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let images = base_images();
    let mut strict_clean = 0u64;
    let mut strict_rejected = 0u64;
    let mut sims = 0u64;

    for seed in 0..args.seeds {
        let (workload, image) = &images[(seed % images.len() as u64) as usize];
        let ops = plan_for_seed(seed, image.len() as u64);
        if let Some(why) = violation(image, &ops) {
            return report_violation(&args.out, seed, *workload, image, &ops, &why);
        }
        let corrupted = apply(image, &ops);
        match drain(&corrupted, Policy::Strict, false).2 {
            None => strict_clean += 1,
            Some(_) => strict_rejected += 1,
        }
        // Every 25th seed: full lenient simulation over the mangled bytes.
        if seed % 25 == 0 {
            sims += 1;
            if let Err(why) = check_lenient_sim(&args.out, seed, &corrupted) {
                return report_violation(&args.out, seed, *workload, image, &ops, &why);
            }
        }
    }

    println!(
        "trace-decoder fuzz clean: {} corrupted images ({} strict-accepted, {} typed \
         rejections), {} end-to-end lenient sims, zero panics",
        args.seeds, strict_clean, strict_rejected, sims
    );
    ExitCode::SUCCESS
}
