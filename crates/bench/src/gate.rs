//! The shared CI-gate scaffolding of the bench binaries.
//!
//! Every `bench_*` bin measures into a serde-derived report type that
//! implements [`GatedReport`], then hands it to [`finish`], which writes
//! `results/BENCH_<x>.json` and, under `--check <baseline>`, runs the
//! same two-half protocol for every bench:
//!
//! * **exact half** — deterministic keyed values (round counts, `t*`)
//!   must match the checked-in baseline with zero tolerance; this half is
//!   *never* skipped, because drift is a correctness failure;
//! * **wall half** — a wall-time statistic may regress by at most
//!   [`REGRESSION_HEADROOM_PERCENT`]; skippable via
//!   `TREECAST_BENCH_GATE=off` for underpowered or loaded hosts.
//!
//! Besides [`finish`], this module holds argument parsing
//! ([`check_arg`]), the exact comparison ([`exact_gate`]), the headroom
//! check ([`wall_gate`]), the skip switch ([`wall_gate_disabled`]), and
//! the shared anti-noise timing statistic ([`best_ns`]). The halves are
//! pure (they return `Result` instead of exiting) so the pass/fail logic
//! is unit-testable; [`finish`] prints the messages and translates `Err`
//! into a nonzero exit.

use std::fmt::Debug;
use std::time::Instant;

/// Allowed slowdown of any gated wall-time statistic against its
/// checked-in baseline, in percent.
pub const REGRESSION_HEADROOM_PERCENT: u32 = 25;

/// The environment variable that disables the wall half of every gate.
pub const GATE_ENV_VAR: &str = "TREECAST_BENCH_GATE";

/// A bench report the one `--check` path can gate: serde gives the
/// JSON shape, these methods pick the gated values out of it.
pub trait GatedReport: serde::Serialize + serde::Deserialize {
    /// The `<x>` of `results/BENCH_<x>.json` and of its checked-in
    /// `results/BENCH_<x>_baseline.json`.
    const NAME: &'static str;

    /// The zero-tolerance cells, each keyed by a readable label. Empty
    /// for a bench without an exact half.
    fn exact_cells(&self) -> Vec<(String, i64)>;

    /// The wall-gated statistic, or `None` when the report lacks the row
    /// that carries it.
    fn wall(&self) -> Option<Wall>;

    /// Drops the baseline rows this run leaves out by design (the
    /// solver's `--quick` stops below the baseline's largest size).
    /// Keeps every row by default.
    fn scope_baseline(&self, _baseline: &mut Self) {}
}

/// One wall-gated statistic with its label and unit.
#[derive(Debug, Clone)]
pub struct Wall {
    /// What was timed, for the gate messages (e.g. `compose_into/1024`).
    pub label: String,
    /// The statistic; lower is better.
    pub value: f64,
    /// Renders a value of this statistic with its unit.
    pub format: fn(f64) -> String,
}

/// Extracts the `--check <baseline>` argument pair.
///
/// # Panics
///
/// Panics if `--check` is present without a following path — the same
/// hard failure every bin wants.
pub fn check_arg(args: &[String]) -> Option<String> {
    args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .expect("--check needs a baseline path")
            .clone()
    })
}

/// `true` when `TREECAST_BENCH_GATE=off` asks for the wall half to be
/// skipped. The exact half ignores this switch by design.
pub fn wall_gate_disabled() -> bool {
    std::env::var(GATE_ENV_VAR).as_deref() == Ok("off")
}

/// The exact half: every `(key, value)` cell of the baseline must be
/// present in `current` with the identical value.
///
/// Returns the number of compared cells, or one message per mismatch /
/// missing cell. Cells present in `current` but absent from the baseline
/// are allowed (a new bench adds rows before its baseline is
/// regenerated); the reverse is a failure, so a bench cannot silently
/// stop measuring a gated cell. An empty baseline is a failure too: a
/// gate that compares nothing must not pass.
///
/// # Errors
///
/// One human-readable message per baseline cell that is missing from
/// `current` or differs from it, or one message for an empty baseline.
pub fn exact_gate<K: Debug + PartialEq>(
    current: &[(K, i64)],
    baseline: &[(K, i64)],
) -> Result<usize, Vec<String>> {
    if baseline.is_empty() {
        return Err(vec![
            "EMPTY: the baseline has no exact cells, so the exact gate would compare nothing"
                .into(),
        ]);
    }
    let mut failures = Vec::new();
    for (key, base) in baseline {
        match current.iter().find(|(k, _)| k == key) {
            Some((_, now)) if now == base => {}
            Some((_, now)) => failures.push(format!(
                "MISMATCH: {key:?} measured {now}, baseline {base} \
                 (exact gate, no tolerance)"
            )),
            None => failures.push(format!("MISSING: baseline cell {key:?} not measured")),
        }
    }
    if failures.is_empty() {
        Ok(baseline.len())
    } else {
        Err(failures)
    }
}

/// The wall half: `now` may exceed `base` by at most
/// [`REGRESSION_HEADROOM_PERCENT`]. Both values must share a unit; the
/// caller-supplied `format` renders one value with that unit for the
/// message (e.g. `|ns| format!("{ns:.0} ns/round")`).
///
/// Returns the "gate ok" line to print, or the regression report.
///
/// # Errors
///
/// The `REGRESSION: …` message when `now` is past the limit.
pub fn wall_gate(
    label: &str,
    now: f64,
    base: f64,
    format: impl Fn(f64) -> String,
) -> Result<String, String> {
    let limit = base * (100.0 + f64::from(REGRESSION_HEADROOM_PERCENT)) / 100.0;
    if now > limit {
        Err(format!(
            "REGRESSION: {label} took {}, baseline {} \
             (+{REGRESSION_HEADROOM_PERCENT}% limit {})",
            format(now),
            format(base),
            format(limit)
        ))
    } else {
        Ok(format!(
            "gate ok: {label} {} within +{REGRESSION_HEADROOM_PERCENT}% of baseline {}",
            format(now),
            format(base)
        ))
    }
}

/// Writes `report` to `results/BENCH_<NAME>.json` and, given a baseline
/// path, gates it: the exact half, then the wall half. Exits nonzero on
/// any failure. A report type whose current and baseline exact cells are
/// both empty has no exact half and runs only the wall half.
///
/// # Panics
///
/// Panics if the report cannot be written, the baseline cannot be read
/// or deserialized into `R`, or either side lacks the wall statistic.
pub fn finish<R: GatedReport>(report: &R, baseline_path: Option<&str>) {
    let out_path = format!("results/BENCH_{}.json", R::NAME);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&out_path, serde::json::to_string_pretty(report) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    let Some(baseline_path) = baseline_path else {
        return;
    };
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let mut baseline: R = serde::json::from_str(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {baseline_path}: {e}"));
    report.scope_baseline(&mut baseline);

    let (current, base) = (report.exact_cells(), baseline.exact_cells());
    if current.is_empty() && base.is_empty() {
        println!("no exact half: {} gates wall time only", R::NAME);
    } else {
        enforce_exact(&current, &base, R::NAME);
    }

    let base_wall = baseline
        .wall()
        .unwrap_or_else(|| panic!("baseline {baseline_path} has no gated wall statistic"));
    let now = report
        .wall()
        .expect("the gated statistic was just measured");
    enforce_wall(&now, base_wall.value);
}

/// Prints each failure of an [`exact_gate`] run and exits nonzero, or
/// prints how many `name` cells matched.
fn enforce_exact(current: &[(String, i64)], baseline: &[(String, i64)], name: &str) {
    match exact_gate(current, baseline) {
        Ok(compared) => {
            println!("gate ok: all {compared} {name} exact cells match the baseline exactly");
        }
        Err(failures) => {
            for f in &failures {
                eprintln!("{f}");
            }
            std::process::exit(1);
        }
    }
}

/// Runs the wall half with the skip switch applied and exits nonzero on
/// regression.
fn enforce_wall(now: &Wall, base: f64) {
    if wall_gate_disabled() {
        println!("{GATE_ENV_VAR}=off: skipping the wall-time gate");
        return;
    }
    match wall_gate(&now.label, now.value, base, now.format) {
        Ok(line) => println!("{line}"),
        Err(report) => {
            eprintln!("{report}");
            std::process::exit(1);
        }
    }
}

/// Best (minimum) batch-mean ns per call of `f`: warm up, size batches to
/// ~1 ms, time `samples` of them, keep the fastest.
///
/// The minimum is the right statistic for a CI gate on a shared host:
/// background load can only make a batch slower, never faster, so the
/// fastest batch approximates the true cost and the gate does not flake
/// when the machine is busy.
pub fn best_ns<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    // Warm-up and batch sizing: aim for ~1 ms per sample.
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed().as_millis() < 50 {
        f();
        calls += 1;
        if calls >= 1000 {
            break;
        }
    }
    let per_call = (start.elapsed().as_nanos() / u128::from(calls)).max(1);
    let batch = (1_000_000 / per_call).clamp(1, 10_000) as u32;

    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    best
}

/// The checked-in `results/BENCH_<NAME>_baseline.json`, deserialized.
#[cfg(test)]
pub(crate) fn read_checked_in<R: GatedReport>() -> R {
    let path = format!(
        "{}/../../results/BENCH_{}_baseline.json",
        env!("CARGO_MANIFEST_DIR"),
        R::NAME
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde::json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Re-rendering the checked-in baseline the way [`finish`] writes a
/// report parses back to the same value: every written report can serve
/// as a future baseline.
#[cfg(test)]
pub(crate) fn assert_json_shaped<R: GatedReport + PartialEq + Debug>() {
    let baseline: R = read_checked_in();
    let text = serde::json::to_string_pretty(&baseline);
    assert!(text.starts_with("{\n") && text.ends_with('}'), "{text}");
    assert_eq!(serde::json::from_str::<R>(&text).unwrap(), baseline);
}

/// Writes `report` the way [`finish`] does and reads it back the way
/// [`finish`] reads a baseline; asserts the two agree and returns the
/// re-read copy, whose gated values the caller checks.
#[cfg(test)]
pub(crate) fn reread<R: GatedReport + PartialEq + Debug>(report: &R) -> R {
    let text = serde::json::to_string_pretty(report) + "\n";
    let back: R = serde::json::from_str(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(&back, report, "{text}");
    back
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_baselines_are_readable() {
        use crate::{
            adversarybench::AdversaryBenchReport, composebench::ComposeBenchReport,
            emulationbench::EmulationBenchReport, frontierbench::FrontierBenchReport,
            montecarlobench::MontecarloBenchReport, serverbench::ServerBenchReport,
            solverbench::SolverBenchReport, workloadbench::WorkloadsBenchReport,
        };
        fn shape<R: GatedReport>() -> (&'static str, usize, bool) {
            let baseline: R = read_checked_in();
            (
                R::NAME,
                baseline.exact_cells().len(),
                baseline.wall().is_some(),
            )
        }
        // Exact-cell counts per baseline; compose has only a wall half.
        let shapes = [
            (shape::<ComposeBenchReport>(), 0),
            (shape::<SolverBenchReport>(), 6),
            (shape::<WorkloadsBenchReport>(), 42),
            (shape::<AdversaryBenchReport>(), 18),
            (shape::<FrontierBenchReport>(), 2),
            (shape::<ServerBenchReport>(), 27),
            (shape::<MontecarloBenchReport>(), 30),
            (shape::<EmulationBenchReport>(), 120),
        ];
        for ((name, cells, has_wall), expected) in shapes {
            assert_eq!(cells, expected, "exact cells of the {name} baseline");
            assert!(has_wall, "the {name} baseline has no gated wall statistic");
        }
        // Every checked-in bench baseline has a report type above.
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut on_disk: Vec<String> = std::fs::read_dir(results)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let bench = name
                    .strip_prefix("BENCH_")?
                    .strip_suffix("_baseline.json")?;
                Some(bench.to_string())
            })
            .collect();
        on_disk.sort();
        let mut typed: Vec<String> = shapes.iter().map(|s| s.0 .0.to_string()).collect();
        typed.sort();
        assert_eq!(on_disk, typed);
    }

    #[test]
    fn check_arg_extracts_the_path() {
        let args: Vec<String> = ["--quick", "--check", "results/base.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(check_arg(&args), Some("results/base.json".into()));
        assert_eq!(check_arg(&args[..1]), None);
    }

    #[test]
    #[should_panic(expected = "--check needs a baseline path")]
    fn check_arg_rejects_a_trailing_flag() {
        check_arg(&["--check".to_string()]);
    }

    #[test]
    fn exact_gate_passes_on_identical_cells() {
        let cells = [(("broadcast", 16usize), 15i64), (("gossip", 16), -1)];
        assert_eq!(exact_gate(&cells, &cells), Ok(2));
    }

    #[test]
    fn exact_gate_allows_extra_current_cells() {
        let current = [(1, 10i64), (2, 20)];
        let baseline = [(1, 10i64)];
        assert_eq!(exact_gate(&current, &baseline), Ok(1));
    }

    #[test]
    fn exact_gate_reports_every_mismatch_and_missing_cell() {
        let current = [(1, 10i64), (2, 99)];
        let baseline = [(1, 10i64), (2, 20), (3, 30)];
        let failures = exact_gate(&current, &baseline).unwrap_err();
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("MISMATCH"));
        assert!(failures[0].contains("measured 99"));
        assert!(failures[1].contains("MISSING"));
    }

    #[test]
    fn exact_gate_fails_on_an_empty_baseline() {
        // A baseline that parses to zero cells must not pass vacuously.
        let failures = exact_gate(&[("t_star n=6".to_string(), 1i64)], &[]).unwrap_err();
        assert!(failures[0].contains("EMPTY"), "{failures:?}");
        assert!(exact_gate::<String>(&[], &[]).is_err());
    }

    #[test]
    fn exact_gate_has_zero_tolerance() {
        // Even an off-by-one on a single cell fails the gate.
        let failures = exact_gate(&[(0, 101i64)], &[(0, 100i64)]).unwrap_err();
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn wall_gate_boundary_is_exactly_plus_25_percent() {
        let fmt = |ns: f64| format!("{ns:.0} ns");
        // 125.0 is the limit itself: inside the gate.
        assert!(wall_gate("x", 125.0, 100.0, fmt).is_ok());
        // Just past it: regression.
        let report = wall_gate("x", 125.1, 100.0, fmt).unwrap_err();
        assert!(report.contains("REGRESSION"));
        assert!(
            report.contains("125 ns"),
            "formatted with the unit: {report}"
        );
        // Faster than baseline is always fine.
        assert!(wall_gate("x", 10.0, 100.0, fmt).is_ok());
    }

    #[test]
    fn wall_gate_messages_carry_the_label() {
        let ok = wall_gate("compose_into/1024", 100.0, 100.0, |v| format!("{v}")).unwrap();
        assert!(ok.contains("compose_into/1024"));
        assert!(ok.starts_with("gate ok"));
    }

    #[test]
    fn best_ns_is_positive_and_finite() {
        let mut x = 0u64;
        let ns = best_ns(
            || {
                x = x.wrapping_add(1);
                std::hint::black_box(x);
            },
            3,
        );
        assert!(ns.is_finite() && ns > 0.0);
    }
}
