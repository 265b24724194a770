//! Shared pieces of the compose benchmark (`bench_compose`): the
//! workload generator and the report. The gate has no exact half; it
//! gates the `n = 1024` composition time.

use rand::rngs::StdRng;
use rand::Rng;
use treecast_bitmatrix::BoolMatrix;

use crate::gate::{GatedReport, Wall};

/// The size whose composition time the CI gate compares.
pub const GATE_N: usize = 1024;

/// The measured workload: a reflexive matrix with roughly
/// `density_percent`% of the off-diagonal entries set.
///
/// One definition shared by `benches/compose.rs` and the `bench_compose`
/// gate binary, so the criterion numbers and the JSON gate can never
/// silently measure different matrices.
pub fn random_matrix(n: usize, density_percent: u32, rng: &mut StdRng) -> BoolMatrix {
    let mut m = BoolMatrix::identity(n);
    for x in 0..n {
        for y in 0..n {
            if rng.gen_ratio(density_percent, 100) {
                m.set(x, y, true);
            }
        }
    }
    m
}

/// One (size, timing) row of the compose benchmark.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComposeMeasurement {
    /// Number of nodes.
    pub n: usize,
    /// Best (minimum) ~1 ms-batch mean wall time of one `compose_into`
    /// call — robust against background load on shared hosts.
    pub ns_per_op: f64,
    /// Left-operand edges processed per second (`edges · 1e9 / ns_per_op`).
    pub edges_per_sec: f64,
    /// The PR-1 seed implementation's median on the reference host.
    pub seed_ns_per_op: f64,
    /// `seed_ns_per_op / ns_per_op`.
    pub speedup_vs_seed: f64,
}

/// The `results/BENCH_compose.json` document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComposeBenchReport {
    /// Report discriminator (`"compose_into"`).
    pub bench: String,
    /// Density (percent) of the measured operands.
    pub density_percent: u32,
    /// One row per measured size.
    pub results: Vec<ComposeMeasurement>,
}

impl GatedReport for ComposeBenchReport {
    const NAME: &'static str = "compose";

    fn exact_cells(&self) -> Vec<(String, i64)> {
        Vec::new()
    }

    fn wall(&self) -> Option<Wall> {
        let row = self.results.iter().find(|r| r.n == GATE_N)?;
        Some(Wall {
            label: format!("compose_into/{GATE_N}"),
            value: row.ns_per_op,
            format: |ns| format!("{ns:.0} ns/op"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_parser() {
        let row = |n, ns_per_op| ComposeMeasurement {
            n,
            ns_per_op,
            edges_per_sec: 1e9,
            seed_ns_per_op: 2.0 * ns_per_op,
            speedup_vs_seed: 2.0,
        };
        let mut report = ComposeBenchReport {
            bench: "compose_into".into(),
            density_percent: 10,
            results: vec![row(64, 700.0), row(GATE_N, 200_000.0)],
        };
        let parsed = crate::gate::reread(&report);
        assert!(parsed.exact_cells().is_empty(), "compose has no exact half");
        let wall = parsed.wall().expect("the gate row is present");
        assert_eq!(wall.value, 200_000.0);
        assert_eq!(wall.label, format!("compose_into/{GATE_N}"));
        report.results.truncate(1);
        assert!(crate::gate::reread(&report).wall().is_none());
    }

    #[test]
    fn report_is_json_shaped() {
        crate::gate::assert_json_shaped::<ComposeBenchReport>();
    }
}
