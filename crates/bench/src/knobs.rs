//! Shared parsing for `BINGO_*` environment knobs.
//!
//! Every harness knob — scale overrides, telemetry level, throttle mode,
//! queue-depth overrides — funnels its failure path through [`parse`], so
//! a typo'd value aborts the run with one uniform message shape
//! (`<NAME> must be <expectation>, got <value>`) instead of each call
//! site inventing its own, or worse, silently falling back to a default
//! and producing numbers from the wrong configuration.

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

/// Environment variable overriding the LLC prefetch-queue depth for
/// pressure studies (consumed by the `stress_degrade` binary; the
/// default harness keeps the paper configuration's unbounded queue so
/// checkpoint keys stay stable).
pub const PF_QUEUE_ENV: &str = "BINGO_PF_QUEUE";

/// Reads [`PF_QUEUE_ENV`]: `None` when unset.
///
/// # Panics
///
/// Panics if the variable is set but not a positive integer.
pub fn pf_queue_from_env() -> Option<usize> {
    let depth = from_env(PF_QUEUE_ENV, "a positive integer", |v| {
        v.parse::<usize>().ok()
    })?;
    assert!(
        depth > 0,
        "{PF_QUEUE_ENV} must be a positive integer, got 0"
    );
    Some(depth)
}

/// Environment variable overriding the records-per-chunk of captured
/// traces (consumed by `trace_capture` and the trace fuzzer; replay
/// reads the chunk size from the file header, so this only affects
/// newly written captures).
pub const TRACE_CHUNK_ENV: &str = "BINGO_TRACE_CHUNK";

/// Reads [`TRACE_CHUNK_ENV`]: `None` when unset.
///
/// # Panics
///
/// Panics if the variable is set but not a positive integer within the
/// format's per-chunk cap.
pub fn trace_chunk_from_env() -> Option<u32> {
    let records = from_env(TRACE_CHUNK_ENV, "a positive integer", |v| {
        v.parse::<u32>().ok()
    })?;
    assert!(
        records > 0 && records <= bingo_trace::MAX_CHUNK_RECORDS,
        "{TRACE_CHUNK_ENV} must be a positive integer <= {}, got {records}",
        bingo_trace::MAX_CHUNK_RECORDS
    );
    Some(records)
}

/// Environment variable overriding the per-core QoS starvation SLO used
/// by `BINGO_THROTTLE=percore`: the minimum acceptable min/max progress
/// ratio across cores before the watchdog clamps the offending cores.
/// Unset falls back to [`bingo_sim::DEFAULT_QOS_SLO`].
pub const QOS_SLO_ENV: &str = "BINGO_QOS_SLO";

/// Reads [`QOS_SLO_ENV`]: `None` when unset.
///
/// # Panics
///
/// Panics if the variable is set but is not a finite ratio in `(0, 1]`.
pub fn qos_slo_from_env() -> Option<f64> {
    let slo = from_env(QOS_SLO_ENV, "a ratio in (0, 1]", |v| v.parse::<f64>().ok())?;
    assert!(
        slo.is_finite() && slo > 0.0 && slo <= 1.0,
        "{QOS_SLO_ENV} must be a ratio in (0, 1], got {slo}"
    );
    Some(slo)
}

/// Environment variable gating the chaos cells of the figure binaries:
/// `standard` (the [`bingo_sim::ChaosPlan::standard`] perturbation
/// schedule, seeded from [`CHAOS_SEED_ENV`]) or `off` to skip them. The
/// chaos cells are part of the committed figures, so unset means
/// `standard`.
pub const CHAOS_ENV: &str = "BINGO_CHAOS";

/// Reads [`CHAOS_ENV`]: `true` when unset.
///
/// # Panics
///
/// Panics if the variable is set but is neither `off` nor `standard` —
/// an unrecognized chaos spec must not silently run a calm simulation
/// and report its numbers as chaos-hardened.
pub fn chaos_from_env() -> bool {
    from_env(CHAOS_ENV, "one of off/standard", |v| match v {
        "off" => Some(false),
        "standard" => Some(true),
        _ => None,
    })
    .unwrap_or(true)
}

/// Environment variable seeding the chaos injector's PRNG when
/// [`CHAOS_ENV`] is `standard`. Unset uses the documented default so CI
/// cells replay bit-for-bit.
pub const CHAOS_SEED_ENV: &str = "BINGO_CHAOS_SEED";

/// Default chaos seed: committed so every CI chaos cell replays the same
/// perturbation log.
pub const DEFAULT_CHAOS_SEED: u64 = 0xB1A60;

/// Reads [`CHAOS_SEED_ENV`], defaulting to [`DEFAULT_CHAOS_SEED`].
///
/// # Panics
///
/// Panics if the variable is set but not an unsigned 64-bit integer.
pub fn chaos_seed_from_env() -> u64 {
    from_env(CHAOS_SEED_ENV, "an unsigned 64-bit integer", |v| {
        v.parse::<u64>().ok()
    })
    .unwrap_or(DEFAULT_CHAOS_SEED)
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
    #[should_panic(expected = "BINGO_TRACE_CHUNK must be a positive integer")]
    fn trace_chunk_rejects_zero() {
        // Hermetic mirror of `trace_chunk_from_env`'s bounds check.
        let records: u32 = parse(TRACE_CHUNK_ENV, "0", "a positive integer", |v| {
            v.parse().ok()
        });
        assert!(
            records > 0 && records <= bingo_trace::MAX_CHUNK_RECORDS,
            "{TRACE_CHUNK_ENV} must be a positive integer <= {}, got {records}",
            bingo_trace::MAX_CHUNK_RECORDS
        );
    }

    #[test]
    #[should_panic(expected = "BINGO_QOS_SLO must be a ratio in (0, 1], got \"fast\"")]
    fn qos_slo_rejects_non_numeric() {
        let _: f64 = parse(QOS_SLO_ENV, "fast", "a ratio in (0, 1]", |v| v.parse().ok());
    }

    #[test]
    #[should_panic(expected = "BINGO_QOS_SLO must be a ratio in (0, 1], got 0")]
    fn qos_slo_rejects_zero() {
        // Hermetic mirror of `qos_slo_from_env`'s bounds check: zero parses
        // as a float and must be caught by the range assert.
        let slo: f64 = parse(QOS_SLO_ENV, "0", "a ratio in (0, 1]", |v| v.parse().ok());
        assert!(
            slo.is_finite() && slo > 0.0 && slo <= 1.0,
            "{QOS_SLO_ENV} must be a ratio in (0, 1], got {slo}"
        );
    }

    #[test]
    #[should_panic(expected = "BINGO_QOS_SLO must be a ratio in (0, 1], got 1.5")]
    fn qos_slo_rejects_above_one() {
        let slo: f64 = parse(QOS_SLO_ENV, "1.5", "a ratio in (0, 1]", |v| v.parse().ok());
        assert!(
            slo.is_finite() && slo > 0.0 && slo <= 1.0,
            "{QOS_SLO_ENV} must be a ratio in (0, 1], got {slo}"
        );
    }

    #[test]
    #[should_panic(expected = "BINGO_QOS_SLO must be a ratio in (0, 1], got NaN")]
    fn qos_slo_rejects_nan() {
        let slo: f64 = parse(QOS_SLO_ENV, "NaN", "a ratio in (0, 1]", |v| v.parse().ok());
        assert!(
            slo.is_finite() && slo > 0.0 && slo <= 1.0,
            "{QOS_SLO_ENV} must be a ratio in (0, 1], got {slo}"
        );
    }

    #[test]
    #[should_panic(expected = "BINGO_CHAOS must be one of off/standard, got \"maximum\"")]
    fn chaos_rejects_unknown_spec() {
        let _: bool = parse(CHAOS_ENV, "maximum", "one of off/standard", |v| match v {
            "off" => Some(false),
            "standard" => Some(true),
            _ => None,
        });
    }

    #[test]
    fn chaos_parses_both_modes() {
        let spec = |v: &str| match v {
            "off" => Some(false),
            "standard" => Some(true),
            _ => None,
        };
        assert!(!parse(CHAOS_ENV, "off", "one of off/standard", spec));
        assert!(parse(CHAOS_ENV, " standard ", "one of off/standard", spec));
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

    #[test]
    #[should_panic(expected = "BINGO_CHAOS_SEED must be an unsigned 64-bit integer, got \"-1\"")]
    fn chaos_seed_rejects_negative() {
        let _: u64 = parse(CHAOS_SEED_ENV, "-1", "an unsigned 64-bit integer", |v| {
            v.parse().ok()
        });
    }

    #[test]
    #[should_panic(expected = "BINGO_PF_QUEUE must be a positive integer")]
    fn pf_queue_rejects_zero() {
        // Exercised through `parse` directly to stay hermetic (no process
        // environment mutation in tests): zero passes the integer parse
        // and must be caught by the positivity assert.
        let depth: usize = parse(PF_QUEUE_ENV, "0", "a positive integer", |v| v.parse().ok());
        assert!(
            depth > 0,
            "{PF_QUEUE_ENV} must be a positive integer, got 0"
        );
    }
}
