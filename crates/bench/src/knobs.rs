//! Shared parsing for `BINGO_*` environment knobs.
//!
//! Every harness knob — scale overrides, worker count, cell deadline —
//! funnels its failure path through [`parse`], so a typo'd value aborts
//! the run with one uniform message shape (`<NAME> must be <expectation>,
//! got <value>`) instead of each call site inventing its own, or worse,
//! silently falling back to a default and producing numbers from the
//! wrong configuration. A parameter no experiment varies is a constant in
//! the binary that uses it, not a knob, and a figure whose variable it is
//! sets it in code: each figure's cells carry their throttle mode, and
//! every run reports its prefetch lifecycle, so the two former knobs for
//! them are retired ([`reject_retired`]), as is the stats export the
//! checkpoint replaced.

/// Parses a knob value, aborting loudly on garbage.
///
/// The value is trimmed before parsing; the panic message quotes the
/// original untrimmed value so the user sees exactly what the
/// environment held.
///
/// # Panics
///
/// Panics with `"{name} must be {expectation}, got {value:?}"` if
/// `parser` rejects the trimmed value.
pub fn parse<T>(
    name: &str,
    value: &str,
    expectation: &str,
    parser: impl FnOnce(&str) -> Option<T>,
) -> T {
    parser(value.trim()).unwrap_or_else(|| panic!("{name} must be {expectation}, got {value:?}"))
}

/// Reads and parses an optional knob from the environment: `None` when
/// the variable is unset.
///
/// # Panics
///
/// Panics (via [`parse`]) if the variable is set but malformed — a set
/// knob is a statement of intent, and intent that cannot be honored must
/// abort the run, not degrade it silently.
pub fn from_env<T>(
    name: &str,
    expectation: &str,
    parser: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    std::env::var(name)
        .ok()
        .map(|v| parse(name, &v, expectation, parser))
}

/// Aborts if a retired knob — `BINGO_TELEMETRY`, `BINGO_THROTTLE` or
/// `BINGO_STATS` — is set to any value: a run asking for a configuration
/// or an output the harness no longer offers must not quietly go without
/// it.
///
/// # Panics
///
/// Panics naming the first retired variable the environment sets, and
/// what replaced it.
pub fn reject_retired() {
    for (name, instead) in [
        (
            "BINGO_TELEMETRY",
            "telemetry is always on: every run reports its prefetch lifecycle",
        ),
        ("BINGO_THROTTLE", "each figure sets its own throttle mode"),
        ("BINGO_STATS", "point BINGO_CHECKPOINT at a fresh file"),
    ] {
        if std::env::var_os(name).is_some() {
            panic!("{name} is retired: {instead}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_trims_and_converts() {
        let n: u64 = parse("BINGO_TEST", " 42 ", "an unsigned integer", |v| {
            v.parse().ok()
        });
        assert_eq!(n, 42);
    }

    #[test]
    #[should_panic(expected = "BINGO_TEST must be an unsigned integer, got \"4x2\"")]
    fn parse_panics_with_the_uniform_message() {
        let _: u64 = parse("BINGO_TEST", "4x2", "an unsigned integer", |v| {
            v.parse().ok()
        });
    }
}
