//! Shared pieces of the exact-solver benchmark (`bench_solver`): the
//! measurement record and the report. The gate's exact half is `t*` per
//! size; its wall half is the [`SOLVER_GATE_N`] solve time.

use treecast_core::bounds;

use crate::gate::{GatedReport, Wall};

/// The size whose wall time the CI gate compares (largest quick size —
/// big enough to be stable, small enough for every CI run).
pub const SOLVER_GATE_N: usize = 6;

/// One `(n, result, timing)` row of the solver benchmark.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverMeasurement {
    /// Number of processes.
    pub n: usize,
    /// The exact `t*(T_n)` the solve produced (exact cell).
    pub t_star: u64,
    /// `bounds::lower_bound(n)`, the Theorem 3.1 lower end.
    pub lower_bound: u64,
    /// `bounds::upper_bound(n)` = ⌈(1+√2)n − 1⌉, the upper end.
    pub upper_bound: u64,
    /// Distinct canonical states explored.
    pub states: usize,
    /// Raw successor evaluations (realizable vectors emitted, pre
    /// cross-root dedup).
    pub transitions: u64,
    /// Best (minimum) wall time of one full solve, milliseconds.
    pub wall_ms: f64,
}

impl SolverMeasurement {
    /// A row for size `n`, with the theorem's sandwich filled in.
    #[must_use]
    pub fn new(n: usize, t_star: u64, states: usize, transitions: u64, wall_ms: f64) -> Self {
        SolverMeasurement {
            n,
            t_star,
            lower_bound: bounds::lower_bound(n as u64),
            upper_bound: bounds::upper_bound(n as u64),
            states,
            transitions,
            wall_ms,
        }
    }
}

/// The `results/BENCH_solver.json` document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverBenchReport {
    /// Report discriminator (`"solver_exact"`).
    pub bench: String,
    /// The `--threads` override (0 = all available).
    pub threads: usize,
    /// One row per solved size.
    pub results: Vec<SolverMeasurement>,
}

impl GatedReport for SolverBenchReport {
    const NAME: &'static str = "solver";

    fn exact_cells(&self) -> Vec<(String, i64)> {
        self.results
            .iter()
            .map(|r| (format!("t_star n={}", r.n), r.t_star as i64))
            .collect()
    }

    fn wall(&self) -> Option<Wall> {
        let row = self.results.iter().find(|r| r.n == SOLVER_GATE_N)?;
        Some(Wall {
            label: format!("solve/{SOLVER_GATE_N}"),
            value: row.wall_ms,
            format: |ms| format!("{ms:.1} ms"),
        })
    }

    /// The baseline is a full-mode record (`n ≤ 7`); a `--quick` run
    /// stops at `n = 6`, so sizes past the largest measured one are out
    /// of scope. A size missing below that still fails the gate.
    fn scope_baseline(&self, baseline: &mut Self) {
        let max_n = self.results.iter().map(|r| r.n).max().unwrap_or(0);
        baseline.results.retain(|r| r.n <= max_n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_parser() {
        let mut report = SolverBenchReport {
            bench: "solver_exact".into(),
            threads: 1,
            results: vec![
                SolverMeasurement::new(5, 6, 1_234, 56_789, 3.5),
                SolverMeasurement::new(6, 7, 112_620, 5_535_810, 2040.0),
            ],
        };
        let parsed = crate::gate::reread(&report);
        assert_eq!(
            parsed.exact_cells(),
            vec![("t_star n=5".into(), 6), ("t_star n=6".into(), 7)]
        );
        assert_eq!(parsed.results[1].states, 112_620);
        assert_eq!(parsed.wall().unwrap().value, 2040.0);
        report.results.truncate(1);
        assert!(crate::gate::reread(&report).wall().is_none());
    }

    #[test]
    fn report_is_json_shaped() {
        crate::gate::assert_json_shaped::<SolverBenchReport>();
    }

    #[test]
    fn report_embeds_the_theorem_bounds() {
        let row = SolverMeasurement::new(6, 7, 112_620, 5_535_810, 2040.0);
        assert_eq!(row.lower_bound, 7);
        assert_eq!(row.upper_bound, bounds::upper_bound(6));
        let baseline = crate::gate::read_checked_in::<SolverBenchReport>();
        for r in &baseline.results {
            let fresh = SolverMeasurement::new(r.n, r.t_star, r.states, r.transitions, r.wall_ms);
            assert_eq!(r, &fresh, "baseline row n = {} records the sandwich", r.n);
            assert!(bounds::sandwich_holds(r.n as u64, r.t_star));
        }
    }

    #[test]
    fn quick_runs_scope_the_full_baseline() {
        let mut baseline = crate::gate::read_checked_in::<SolverBenchReport>();
        let quick = SolverBenchReport {
            results: baseline
                .results
                .iter()
                .filter(|r| r.n <= SOLVER_GATE_N)
                .cloned()
                .collect(),
            ..baseline.clone()
        };
        quick.scope_baseline(&mut baseline);
        assert_eq!(baseline.exact_cells(), quick.exact_cells());
        assert!(crate::gate::exact_gate(&quick.exact_cells(), &baseline.exact_cells()).is_ok());
    }
}
