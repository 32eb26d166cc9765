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
//! reordering, garbage headers, mid-record EOF) and pushed through the
//! reader. The loader's contract, checked per seed:
//!
//! * **no panics** on any input;
//! * **typed errors** — the reader either decodes everything or returns a
//!   typed [`bingo_trace::ReadError`] whose message carries its byte
//!   offset;
//! * **the op fast path is invisible** — a drain that takes op runs with
//!   `TraceReader::take_ops` delivers the same records, the same report
//!   and the same error (variant and offset) as the lazy drain, on the
//!   corrupted image and on a forgery of it whose CRC-valid chunks
//!   declare fewer records than their payload holds.
//!
//! Every accepted image, and every 25th image, also runs a tiny
//! simulation end to end. It reads only a prefix of the image, so it may
//! complete even on a rejected one; it must either complete with an
//! ingest report that survives its checkpoint, or fail as a contained cell
//! whose reason carries the exact error the drain of that image returned
//! (an accepted image may fail only for holding no decodable records).
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

use bingo_bench::{Checkpoint, ParallelHarness, PrefetcherKind, RunScale, RunSpec};
use bingo_oracle::shrink_items;
use bingo_sim::{IngestReport, Instr};
use bingo_trace::{apply, capture_source, plan_for_seed, CorruptionOp, ReadError, TraceReader};
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
fn drain(bytes: &[u8], batched: bool) -> Drained {
    let mut reader = match TraceReader::new(Cursor::new(bytes)) {
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
    let run =
        |bytes: &[u8], batched: bool| catch_unwind(AssertUnwindSafe(|| drain(bytes, batched)));
    // Every error names its offset. The op fast path must be invisible:
    // same records, same report, same error variant at the same offset as
    // the lazy drain. Both are checked on the corrupted image and on a
    // forgery of it whose CRC-valid chunks each declare one record fewer
    // than their payload holds.
    let forged = apply(&corrupted, &[CorruptionOp::ShortenChunks { fewer: 1 }]);
    let key = |e: &Option<ReadError>| e.as_ref().map(|e| (discriminant(e), e.offset()));
    for (which, bytes) in [("corrupted", &corrupted), ("forged", &forged)] {
        let (Ok(lazy), Ok(batched)) = (run(bytes, false), run(bytes, true)) else {
            return Some(format!("decoder PANICKED on the {which} image"));
        };
        let why = match &lazy.2 {
            Some(e) if !e.to_string().contains(&format!("byte {}", e.offset())) => {
                format!("error lost its byte offset: {e}")
            }
            _ if batched.0 != lazy.0 => format!(
                "batched drain delivered {} records, lazy {}",
                batched.0.len(),
                lazy.0.len()
            ),
            _ if batched.1 != lazy.1 => {
                format!("batched report {} differs from lazy {}", batched.1, lazy.1)
            }
            _ if key(&batched.2) != key(&lazy.2) => format!(
                "batched error {:?} differs from lazy {:?}",
                batched.2, lazy.2
            ),
            _ => continue,
        };
        return Some(format!("on the {which} image: {why}"));
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

/// End-to-end replay of a corrupted image through the sweep engine: must
/// either complete with an ingest report that a reopened checkpoint gives
/// back, or fail as a contained cell whose reason carries `error`, the
/// typed error the drain of the image returned (with no such error, only
/// an image without decodable records may fail) — never hang, never take
/// down the process. Returns whether the sim completed.
fn check_sim(
    out: &Path,
    seed: u64,
    corrupted: &[u8],
    error: Option<&ReadError>,
) -> Result<bool, String> {
    let dir = out.join("sim-scratch").join(format!("seed{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("core0.btrc");
    std::fs::write(&path, corrupted).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let trace = TraceWorkload::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let scale = RunScale {
        instructions_per_core: 1_500,
        warmup_per_core: 500,
        seed,
    };
    let cp_path = dir.join("checkpoint.jsonl");
    // A checkpoint left by an earlier failed run would replay the cell
    // instead of simulating it.
    std::fs::remove_file(&cp_path).ok();
    let open =
        || Checkpoint::open(&cp_path).map_err(|e| format!("opening {}: {e}", cp_path.display()));
    let spec = RunSpec::trace(scale, &trace, PrefetcherKind::NextLine(1));
    let mut report = ParallelHarness::with_jobs(1)
        .quiet()
        .with_checkpoint(open()?)
        .try_run(std::slice::from_ref(&spec));
    let completed = match report.evaluations.pop().flatten() {
        Some(result) => {
            if result.ingest.is_none() {
                return Err("sim completed without an ingest report".to_string());
            }
            // The ingest report must survive into the machine-readable record.
            let recorded = open()?.get(&spec.key());
            if recorded.as_ref() != Some(&result) {
                return Err(format!(
                    "the checkpoint gave back {:?}, not the result with ingest {:?}",
                    recorded.map(|r| r.ingest),
                    result.ingest
                ));
            }
            true
        }
        None => {
            // A capture with zero decodable records has nothing to replay;
            // the designed failure is a loud, contained cell panic.
            let expected = error.map_or("no decodable records".to_string(), ToString::to_string);
            let reason = &report.failures[0].reason;
            if !reason.contains(&expected) {
                return Err(format!(
                    "sim cell failed with {reason:?}, not the drain's {expected:?}"
                ));
            }
            false
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    Ok(completed)
}

fn main() -> ExitCode {
    let args = parse_args();
    let images = base_images();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    let (mut completed, mut failed) = (0u64, 0u64);

    for seed in 0..args.seeds {
        let (workload, image) = &images[(seed % images.len() as u64) as usize];
        let ops = plan_for_seed(seed, image.len() as u64);
        if let Some(why) = violation(image, &ops) {
            return report_violation(&args.out, seed, *workload, image, &ops, &why);
        }
        let corrupted = apply(image, &ops);
        let error = drain(&corrupted, false).2;
        match error {
            None => accepted += 1,
            Some(_) => rejected += 1,
        }
        // Every accepted image and every 25th seed: a full simulation
        // over the mangled bytes.
        if error.is_none() || seed % 25 == 0 {
            match check_sim(&args.out, seed, &corrupted, error.as_ref()) {
                Ok(true) => completed += 1,
                Ok(false) => failed += 1,
                Err(why) => return report_violation(&args.out, seed, *workload, image, &ops, &why),
            }
        }
    }

    println!(
        "trace-decoder fuzz clean: {} corrupted images ({accepted} accepted, {rejected} typed \
         rejections), {} end-to-end sims ({completed} completed, {failed} failed as contained \
         cells), zero panics",
        args.seeds,
        completed + failed
    );
    ExitCode::SUCCESS
}
