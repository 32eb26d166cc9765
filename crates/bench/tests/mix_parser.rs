//! Mix-config parser error paths: every malformed input yields a
//! [`MixError::Line`] carrying the 1-based line number of the offending
//! text and the reason — no panics, no half-loaded grids — mirroring the
//! trace-decoder test style (typed errors, precise locations, torn
//! inputs).

use bingo_bench::{MixConfig, MixError, PrefetcherKind, Stream};
use bingo_workloads::Workload;

/// Asserts the text fails to parse, returning the error for shape checks.
fn parse_err(text: &str) -> MixError {
    match MixConfig::parse_str(text) {
        Ok(mixes) => panic!("expected a parse error, got {} mix(es)", mixes.len()),
        Err(e) => e,
    }
}

/// Asserts the text fails at `line` for `reason`, and that the error
/// displays as `line <line>: <reason>`: the text a failing binary prints.
fn assert_fails_at(text: &str, line: usize, reason: &str) {
    let err = parse_err(text);
    assert_eq!(
        err.to_string(),
        format!("line {line}: {reason}"),
        "{text:?}"
    );
    match err {
        MixError::Line { line: at, .. } => assert_eq!(at, line, "{text:?}"),
        other => panic!("expected a line error for {text:?}, got {other:?}"),
    }
}

#[test]
fn duplicate_core_id_names_the_second_assignment_line() {
    let text = "mix dup\n\
                core 0 workload=zeus prefetcher=bingo\n\
                core 0 workload=em3d prefetcher=none\n\
                end\n";
    assert_fails_at(text, 3, "core 0 assigned twice");
}

#[test]
fn unknown_workload_is_reported_with_its_name_and_line() {
    let text = "mix bad\ncore 0 workload=not-a-thing prefetcher=bingo\nend\n";
    assert_fails_at(text, 2, "unknown workload \"not-a-thing\"");
}

#[test]
fn unknown_prefetcher_is_reported_with_its_name_and_line() {
    let text = "mix bad\n\ncore 0 workload=zeus prefetcher=warp-drive\nend\n";
    assert_fails_at(text, 3, "unknown prefetcher \"warp-drive\"");
}

#[test]
fn parameterized_prefetchers_are_not_config_addressable() {
    // The slug namespace covers only the fixed paper configurations;
    // parameterized kinds stay programmatic.
    assert_eq!(PrefetcherKind::from_slug("bingo-8k"), None);
    assert_eq!(PrefetcherKind::from_slug("nextline-4"), None);
    assert_eq!(
        PrefetcherKind::from_slug("Bingo"),
        None,
        "slugs are lowercase"
    );
}

#[test]
fn zero_core_mix_is_rejected_at_its_end_line() {
    assert_fails_at("mix empty\nend\n", 2, "mix \"empty\" declares zero cores");
}

#[test]
fn torn_file_reports_the_unterminated_mix() {
    // A file truncated mid-block (e.g. a torn write of a committed
    // config) points at the `mix` line left open.
    let text = "mix whole\n\
                core 0 workload=zeus prefetcher=bingo\n\
                end\n\
                mix torn\n\
                core 0 workload=em3d prefetcher=none\n";
    assert_fails_at(text, 4, "mix \"torn\" never reached its end directive");
}

#[test]
fn non_contiguous_core_ids_report_the_first_gap() {
    let text = "mix gap\n\
                core 0 workload=zeus prefetcher=bingo\n\
                core 2 workload=em3d prefetcher=none\n\
                end\n";
    assert_fails_at(
        text,
        4,
        "core 1 has no assignment (ids must be contiguous from 0)",
    );
}

#[test]
fn directives_outside_a_mix_block_are_rejected() {
    assert_fails_at(
        "core 0 workload=zeus prefetcher=bingo\n",
        1,
        "\"core\" outside a mix block",
    );
    assert_fails_at("end\n", 1, "\"end\" outside a mix block");
    assert_fails_at(
        "mix m\ncore 0 workload=zeus prefetcher=bingo\nmix n\n",
        3,
        "mix block opened before the previous one ended",
    );
}

#[test]
fn unknown_directives_and_fields_are_rejected() {
    assert_fails_at("launch missiles\n", 1, "unknown directive \"launch\"");
    let text = "mix m\ncore 0 workload=zeus prefetcher=bingo turbo=yes\nend\n";
    assert_fails_at(text, 2, "unknown field \"turbo\"");
}

#[test]
fn malformed_values_are_bad_values_not_panics() {
    for (text, line, reason) in [
        (
            "mix m\ncore x workload=zeus prefetcher=bingo\nend\n",
            2,
            "bad core id value \"x\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo scale=0%\nend\n",
            2,
            "bad scale value \"0%\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo scale=150%\nend\n",
            2,
            "bad scale value \"150%\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo scale=lots\nend\n",
            2,
            "bad scale value \"lots\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo turbo\nend\n",
            2,
            "bad field value \"turbo\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=4 increment=2 max=2\nend\n",
            3,
            "bad max value \"2\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=0 increment=2 max=4\nend\n",
            3,
            "bad ramp value \"0\"",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo\n\
             ramp initial=1 increment=1 max=2\nramp initial=1 increment=1 max=2\nend\n",
            4,
            "bad ramp value \"declared twice\"",
        ),
        ("mix a b\n", 1, "bad mix name value \"a b\""),
        ("mix a.b\n", 1, "bad mix name value \"a.b\""),
    ] {
        assert_fails_at(text, line, reason);
    }
}

#[test]
fn missing_required_fields_are_named() {
    assert_fails_at("mix\n", 1, "missing mix name");
    assert_fails_at("mix m\ncore\nend\n", 2, "missing core id");
    let text = "mix m\ncore 0 prefetcher=bingo\nend\n";
    assert_fails_at(text, 2, "missing workload");
    let text = "mix m\ncore 0 workload=zeus\nend\n";
    assert_fails_at(text, 2, "missing prefetcher");
    let text = "mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=2 max=4\nend\n";
    assert_fails_at(text, 3, "missing increment");
}

#[test]
fn duplicate_mix_names_are_rejected_across_blocks() {
    let text = "mix twin\ncore 0 workload=zeus prefetcher=bingo\nend\n\
                mix twin\ncore 0 workload=em3d prefetcher=none\nend\n";
    assert_fails_at(text, 4, "duplicate mix name \"twin\"");
}

/// A field given twice is ambiguous: the line fails instead of one value
/// silently overwriting the other.
#[test]
fn a_repeated_field_fails_at_its_line() {
    let text = "mix m\ncore 0 workload=zeus prefetcher=bingo workload=em3d\nend\n";
    assert_fails_at(text, 2, "repeated field \"workload\"");
    let text = "mix m\ncore 0 workload=zeus prefetcher=bingo\n\
                ramp initial=2 initial=4 increment=2 max=8\nend\n";
    assert_fails_at(text, 3, "repeated field \"initial\"");
}

/// A ramp or a block past the machine's core bound fails at parse,
/// before any sweep materializes its steps or slots.
#[test]
fn a_mix_the_machine_cannot_hold_fails_at_parse() {
    let ramp = |max: usize| {
        format!("mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=1 increment=1 max={max}\nend\n")
    };
    assert_fails_at(
        &ramp(1_000_000_000_000),
        3,
        "ramp max: 1000000000000 cores exceed the 256 the LLC's prefetch-owner field can name",
    );
    assert_fails_at(
        &ramp(257),
        3,
        "ramp max: 257 cores exceed the 256 the LLC's prefetch-owner field can name",
    );
    assert!(MixConfig::parse_str(&ramp(256)).is_ok(), "256 cores fit");

    let block = |cores: usize| {
        let lines: String = (0..cores)
            .map(|i| format!("core {i} workload=zeus prefetcher=none\n"))
            .collect();
        format!("mix wide\n{lines}end\n")
    };
    assert_fails_at(
        &block(257),
        259,
        "mix \"wide\": 257 cores exceed the 256 the LLC's prefetch-owner field can name",
    );
    assert_eq!(
        MixConfig::parse_str(&block(256)).unwrap()[0].core_count(),
        256
    );
}

#[test]
fn every_error_displays_its_line_number() {
    // The Display impl is what a failing binary prints; each message must
    // carry the location.
    for text in [
        "mix m\ncore 0 workload=zeus prefetcher=bingo\ncore 0 workload=em3d prefetcher=none\nend\n",
        "mix m\ncore 0 workload=nope prefetcher=bingo\nend\n",
        "mix m\nend\n",
        "mix m\ncore 0 workload=zeus prefetcher=bingo\n",
        "warp\n",
    ] {
        let msg = parse_err(text).to_string();
        assert!(msg.contains("line "), "no line number in {msg:?}");
    }
    // NoMixes has no location (the whole file is the location).
    assert_eq!(parse_err("").to_string(), "config contains no mixes");
}

#[test]
fn committed_configs_parse_and_stay_valid() {
    // The configs this repo ships must never rot: parse them from disk
    // exactly as fig_multicore and CI do.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let contention = MixConfig::parse_file(format!("{root}/configs/mixes/contention.mix"))
        .expect("configs/mixes/contention.mix parses");
    assert!(
        contention
            .iter()
            .any(|m| m.core_count() == 2 && m.ramp.is_some()),
        "a ramped 2-core mix is committed (acceptance criterion)"
    );
    assert!(
        contention
            .iter()
            .any(|m| m.core_count() == 4 && m.ramp.is_some()),
        "a ramped 4-core mix is committed (acceptance criterion)"
    );
    for m in &contention {
        for (i, slot) in m.cores.iter().enumerate() {
            assert_eq!(slot.stream_core, i, "core {i} of {}", m.name);
            // Round-trip the slugs the file used.
            let Stream::Synthetic(workload) = slot.stream else {
                panic!("a parsed mix has synthetic slots");
            };
            assert_eq!(Workload::from_slug(workload.slug()), Some(workload));
        }
    }
    let equivalence = MixConfig::parse_file(format!("{root}/configs/mixes/equivalence.mix"))
        .expect("configs/mixes/equivalence.mix parses");
    assert_eq!(equivalence.len(), 1);
    assert_eq!(equivalence[0].core_count(), 1);
}
