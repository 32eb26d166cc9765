//! Mix-config parser error paths: every malformed input yields a typed
//! [`MixError`] carrying the 1-based line number of the offending text —
//! no panics, no half-loaded grids — mirroring the trace-decoder test
//! style (typed errors, precise locations, torn inputs).

use bingo_bench::{MixConfig, MixError, PrefetcherKind};
use bingo_workloads::Workload;

/// Asserts the text fails to parse, returning the error for shape checks.
fn parse_err(text: &str) -> MixError {
    match MixConfig::parse_str(text) {
        Ok(mixes) => panic!("expected a parse error, got {} mix(es)", mixes.len()),
        Err(e) => e,
    }
}

#[test]
fn duplicate_core_id_names_the_second_assignment_line() {
    let text = "mix dup\n\
                core 0 workload=zeus prefetcher=bingo\n\
                core 0 workload=em3d prefetcher=none\n\
                end\n";
    match parse_err(text) {
        MixError::DuplicateCore { line: 3, core: 0 } => {}
        other => panic!("expected DuplicateCore at line 3, got {other:?}"),
    }
}

#[test]
fn unknown_workload_is_reported_with_its_name_and_line() {
    let text = "mix bad\ncore 0 workload=not-a-thing prefetcher=bingo\nend\n";
    match parse_err(text) {
        MixError::UnknownWorkload { line: 2, name } => assert_eq!(name, "not-a-thing"),
        other => panic!("expected UnknownWorkload at line 2, got {other:?}"),
    }
}

#[test]
fn unknown_prefetcher_is_reported_with_its_name_and_line() {
    let text = "mix bad\n\ncore 0 workload=zeus prefetcher=warp-drive\nend\n";
    match parse_err(text) {
        MixError::UnknownPrefetcher { line: 3, name } => assert_eq!(name, "warp-drive"),
        other => panic!("expected UnknownPrefetcher at line 3, got {other:?}"),
    }
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
    let text = "mix empty\nend\n";
    match parse_err(text) {
        MixError::ZeroCores { line: 2, name } => assert_eq!(name, "empty"),
        other => panic!("expected ZeroCores at line 2, got {other:?}"),
    }
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
    match parse_err(text) {
        MixError::UnterminatedMix { line: 4, name } => assert_eq!(name, "torn"),
        other => panic!("expected UnterminatedMix at line 4, got {other:?}"),
    }
}

#[test]
fn non_contiguous_core_ids_report_the_first_gap() {
    let text = "mix gap\n\
                core 0 workload=zeus prefetcher=bingo\n\
                core 2 workload=em3d prefetcher=none\n\
                end\n";
    match parse_err(text) {
        MixError::MissingCore { line: 4, core: 1 } => {}
        other => panic!("expected MissingCore 1 at line 4, got {other:?}"),
    }
}

#[test]
fn directives_outside_a_mix_block_are_rejected() {
    match parse_err("core 0 workload=zeus prefetcher=bingo\n") {
        MixError::OutsideMix { line: 1, directive } => assert_eq!(directive, "core"),
        other => panic!("expected OutsideMix, got {other:?}"),
    }
    match parse_err("end\n") {
        MixError::OutsideMix { line: 1, directive } => assert_eq!(directive, "end"),
        other => panic!("expected OutsideMix, got {other:?}"),
    }
}

#[test]
fn unknown_directives_and_fields_are_rejected() {
    match parse_err("launch missiles\n") {
        MixError::UnknownDirective { line: 1, directive } => assert_eq!(directive, "launch"),
        other => panic!("expected UnknownDirective, got {other:?}"),
    }
    let text = "mix m\ncore 0 workload=zeus prefetcher=bingo turbo=yes\nend\n";
    match parse_err(text) {
        MixError::UnknownField { line: 2, field } => assert_eq!(field, "turbo"),
        other => panic!("expected UnknownField, got {other:?}"),
    }
}

#[test]
fn malformed_values_are_bad_values_not_panics() {
    for (text, expect_field) in [
        (
            "mix m\ncore x workload=zeus prefetcher=bingo\nend\n",
            "core id",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo scale=0%\nend\n",
            "scale",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo scale=150%\nend\n",
            "scale",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo scale=lots\nend\n",
            "scale",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=4 increment=2 max=2\nend\n",
            "max",
        ),
        (
            "mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=0 increment=2 max=4\nend\n",
            "ramp",
        ),
    ] {
        match MixConfig::parse_str(text) {
            Err(MixError::BadValue { line, field, .. }) => {
                assert_eq!(field, expect_field, "in {text:?}");
                assert!(
                    line >= 2,
                    "line numbers are 1-based and point past the header"
                );
            }
            other => panic!("expected BadValue({expect_field}) for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn missing_required_fields_are_named() {
    let text = "mix m\ncore 0 prefetcher=bingo\nend\n";
    match parse_err(text) {
        MixError::MissingField { line: 2, field } => assert_eq!(field, "workload"),
        other => panic!("expected MissingField(workload), got {other:?}"),
    }
    let text = "mix m\ncore 0 workload=zeus\nend\n";
    match parse_err(text) {
        MixError::MissingField { line: 2, field } => assert_eq!(field, "prefetcher"),
        other => panic!("expected MissingField(prefetcher), got {other:?}"),
    }
    let text = "mix m\ncore 0 workload=zeus prefetcher=bingo\nramp initial=2 max=4\nend\n";
    match parse_err(text) {
        MixError::MissingField { line: 3, field } => assert_eq!(field, "increment"),
        other => panic!("expected MissingField(increment), got {other:?}"),
    }
}

#[test]
fn duplicate_mix_names_are_rejected_across_blocks() {
    let text = "mix twin\ncore 0 workload=zeus prefetcher=bingo\nend\n\
                mix twin\ncore 0 workload=em3d prefetcher=none\nend\n";
    match parse_err(text) {
        MixError::DuplicateMixName { line: 4, name } => assert_eq!(name, "twin"),
        other => panic!("expected DuplicateMixName at line 4, got {other:?}"),
    }
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
        for a in &m.cores {
            // Round-trip the slugs the file used.
            assert_eq!(Workload::from_slug(a.workload.slug()), Some(a.workload));
        }
    }
    let equivalence = MixConfig::parse_file(format!("{root}/configs/mixes/equivalence.mix"))
        .expect("configs/mixes/equivalence.mix parses");
    assert_eq!(equivalence.len(), 1);
    assert_eq!(equivalence[0].core_count(), 1);
}
