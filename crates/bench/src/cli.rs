//! The harness binaries' one command-line reader: `--flag value` options
//! and workload names.

use bingo_workloads::Workload;

/// Values of every `--flag value` occurrence of `flag`, in order.
///
/// # Panics
///
/// Panics if `flag` is the last argument, with no value after it.
pub fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("{flag} requires a value"));
            values.push(v.clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    values
}

/// The value of the last `--flag value` occurrence of `flag`, if any.
///
/// # Panics
///
/// As [`flag_values`].
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    flag_values(args, flag).pop()
}

/// The workload of `set` that `name` spells: its slug (`data-serving`),
/// paper name (`Data Serving`) or variant name (`DataServing`), ignoring
/// case, spaces, hyphens and underscores.
///
/// # Panics
///
/// Panics on a name no workload of `set` answers to, listing the valid
/// slugs.
pub fn workload_named(name: &str, set: &[Workload]) -> Workload {
    let canon = |s: &str| {
        s.chars()
            .filter(|c| !matches!(c, ' ' | '-' | '_'))
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let wanted = canon(name);
    *set.iter()
        .find(|w| {
            [w.slug(), w.name(), &format!("{w:?}")]
                .iter()
                .any(|s| canon(s) == wanted)
        })
        .unwrap_or_else(|| {
            let slugs: Vec<&str> = set.iter().map(|w| w.slug()).collect();
            panic!("unknown workload {name:?}; valid slugs: {slugs:?}")
        })
}

/// The workloads of every `--workload NAME` in `args`, resolved over `set`
/// by [`workload_named`], each once in first-mention order; all of `set`
/// when no `--workload` is given.
///
/// # Panics
///
/// As [`flag_values`] and [`workload_named`].
pub fn workload_args(args: &[String], set: &[Workload]) -> Vec<Workload> {
    let mut picked = Vec::new();
    for name in flag_values(args, "--workload") {
        let w = workload_named(&name, set);
        if !picked.contains(&w) {
            picked.push(w);
        }
    }
    if picked.is_empty() {
        set.to_vec()
    } else {
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn suite() -> Vec<Workload> {
        Workload::ALL.into_iter().chain(Workload::STRESS).collect()
    }

    #[test]
    fn every_spelling_resolves_to_its_workload() {
        let set = suite();
        for &w in &set {
            let variant = format!("{w:?}");
            for name in [
                w.slug(),
                w.name(),
                variant.as_str(),
                &w.slug().to_ascii_uppercase(),
                &w.name().to_ascii_lowercase(),
                &w.name().replace(' ', "_"),
            ] {
                assert_eq!(workload_named(name, &set), w, "{name:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload \"em4d\"; valid slugs: [\"data-serving\"")]
    fn an_unknown_name_panics_listing_the_valid_slugs() {
        workload_named("em4d", &suite());
    }

    #[test]
    #[should_panic(expected = "valid slugs")]
    fn a_workload_outside_the_set_is_unknown() {
        workload_named("stress-storm", &Workload::ALL);
    }

    #[test]
    fn last_flag_wins_and_workloads_dedupe_in_order() {
        let a = args(&[
            "--quick",
            "--traces",
            "a",
            "--workload",
            "mix-2",
            "--traces",
            "b",
            "--workload",
            "em3d",
            "--workload",
            "Mix 2",
        ]);
        assert_eq!(flag_values(&a, "--traces"), ["a", "b"]);
        assert_eq!(flag_value(&a, "--traces").as_deref(), Some("b"));
        assert_eq!(flag_value(&a, "--report"), None);
        assert_eq!(
            workload_args(&a, &Workload::ALL),
            [Workload::Mix2, Workload::Em3d]
        );
        assert_eq!(
            workload_args(&args(&["--quick"]), &Workload::ALL),
            Workload::ALL
        );
    }

    #[test]
    #[should_panic(expected = "--workload requires a value")]
    fn a_flag_without_its_value_panics() {
        flag_values(&args(&["--quick", "--workload"]), "--workload");
    }
}
