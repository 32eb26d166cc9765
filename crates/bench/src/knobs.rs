//! Shared parsing for `BINGO_*` environment knobs.
//!
//! Every harness knob — scale overrides, worker count, cell deadline,
//! telemetry level, throttle mode — funnels its failure path through
//! [`parse`], so a typo'd value aborts the run with one uniform message
//! shape (`<NAME> must be <expectation>, got <value>`) instead of each
//! call site inventing its own, or worse, silently falling back to a
//! default and producing numbers from the wrong configuration. A
//! parameter no experiment varies is a constant in the binary that uses
//! it, not a knob.

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

    #[test]
    #[should_panic(expected = "BINGO_THROTTLE must be one of off/feedback/percore, got \"static\"")]
    fn throttle_rejects_the_retired_static_mode() {
        // Mirrors `runner::throttle_from_env`: `static` and its numeric
        // alias `1` name no mode, so a script asking for them aborts
        // instead of silently running another policy.
        assert_eq!(bingo_sim::ThrottleMode::parse("1"), None);
        let _ = parse(
            crate::THROTTLE_ENV,
            "static",
            "one of off/feedback/percore",
            bingo_sim::ThrottleMode::parse,
        );
    }

    #[test]
    #[should_panic(expected = "BINGO_TELEMETRY must be one of off/counts, got \"trace\"")]
    fn telemetry_rejects_the_retired_trace_level() {
        // Mirrors `runner::telemetry_from_env`: the ring-buffer level is
        // gone, so a script asking for it aborts instead of silently
        // running at another level.
        let _ = parse(
            crate::runner::TELEMETRY_ENV,
            "trace",
            "one of off/counts",
            bingo_sim::TelemetryLevel::parse,
        );
    }

    #[test]
    #[should_panic(expected = "BINGO_TELEMETRY must be one of off/counts, got \"2\"")]
    fn telemetry_rejects_the_retired_numeric_trace_level() {
        let _ = parse(
            crate::runner::TELEMETRY_ENV,
            "2",
            "one of off/counts",
            bingo_sim::TelemetryLevel::parse,
        );
    }
}
