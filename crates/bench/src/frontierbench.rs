//! Shared pieces of the frontier-engine benchmark (`bench_frontier`):
//! the scale-run measurements, peak-RSS readout, and the report.
//!
//! The gate has the standard two halves (see [`crate::gate`]):
//!
//! * **round counts** — every row is a deterministic frontier run
//!   (seeded sources, fixed workloads), so completion rounds are exact
//!   and drift against `results/BENCH_frontier_baseline.json` is a
//!   correctness failure that is *never* skipped;
//! * **wall time** — the per-round cost of the gated smoke row
//!   ([`GATE_N`], k-source spread under seeded uniform trees) is gated
//!   at +25%, skippable via `TREECAST_BENCH_GATE=off`.
//!
//! The baseline records only the smoke sizes: the n = 10⁶ rows run in
//! the release tier, where [`crate::gate::exact_gate`]'s
//! extra-current-cells allowance keeps them gate-exempt until a
//! million-node baseline is recorded deliberately.

use std::time::Instant;

use treecast_core::frontier::{run_workload_frontier, FrontierSource};
use treecast_core::{KSourceBroadcast, SimulationConfig, Workload};
use treecast_trees::generators;

use crate::gate::{GatedReport, Wall};

/// Smoke size: quick-tier CI territory (a second or two, debug build).
pub const SMOKE_N: usize = 10_000;

/// Scale size: the tentpole target, release tier only.
pub const SCALE_N: usize = 1_000_000;

/// The row whose per-round wall time the CI gate compares.
pub const GATE_N: usize = SMOKE_N;

/// Tracked tokens of the sampled gossip-style sweep. All-token gossip is
/// Ω(n²) by construction (every node must *hold* n tokens), so at scale
/// the gossip column is a k-source spread — exact dissemination of k
/// tokens from evenly spaced sources, the dense-equivalent tracked
/// workload.
pub const SWEEP_K: usize = 16;

/// RNG seed of every seeded-uniform scale source; fixed so round counts
/// are exact gate material.
pub const SCALE_SEED: u64 = 0x5CA1E;

/// One measured frontier run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScaleMeasurement {
    /// Workload name (`broadcast`, `k-source-broadcast(k=16)`, …).
    pub workload: String,
    /// Source label (`static(path)`, `seeded-uniform(seed=…)`).
    pub source: String,
    /// Network size.
    pub n: usize,
    /// Completion round, or `None` (`null`) if the capped run did not
    /// complete (never expected for these rows). The exact cell, `-1`
    /// for `None`.
    pub rounds: Option<u64>,
    /// Total run wall time, ms.
    pub wall_ms: f64,
    /// Mean wall time per executed round, ns.
    pub ns_per_round: f64,
    /// `VmHWM` after the run, KiB (peak RSS of the *process*, so a
    /// high-water mark over everything run so far — see the bench
    /// README's caveats), when the platform exposes it (`null` if not).
    pub peak_rss_kb: Option<u64>,
}

/// Peak resident set size (`VmHWM`) of the current process in KiB, from
/// `/proc/self/status`. `None` where procfs is unavailable (non-Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// Runs one frontier workload and wraps it in a [`ScaleMeasurement`].
pub fn measure_run(
    n: usize,
    mut source: FrontierSource,
    workload: &dyn Workload,
) -> ScaleMeasurement {
    let started = Instant::now();
    let report = run_workload_frontier(n, &mut source, workload, SimulationConfig::for_n(n));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    ScaleMeasurement {
        workload: report.workload,
        source: report.source,
        n,
        rounds: report.completion_time,
        wall_ms,
        ns_per_round: wall_ms * 1e6 / report.rounds.max(1) as f64,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// The two scale rows of the paper's regime at size `n`:
///
/// * **broadcast** — the root token on the static path, the Θ(n)-round
///   worst-case diameter, where the frontier engine's O(1)-per-round
///   quiet path is the whole story. A single tracked token: on a
///   root-stable source the root's token is exactly the dense broadcast
///   (all-token tracking would make the row Ω(n²) by state size alone);
/// * **k-source sweep** ([`SWEEP_K`] tokens, evenly spread) under seeded
///   uniform random trees — the O(log n)-round gossip-style regime,
///   where every round is a full delta over all n candidates.
pub fn measure_scale_rows(n: usize) -> Vec<ScaleMeasurement> {
    vec![
        measure_run(
            n,
            FrontierSource::fixed(generators::path(n)),
            &KSourceBroadcast::new(vec![0]),
        ),
        measure_run(
            n,
            FrontierSource::seeded(n, SCALE_SEED),
            &KSourceBroadcast::evenly_spread(n, SWEEP_K.min(n)),
        ),
    ]
}

/// The `results/BENCH_frontier.json` document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrontierBenchReport {
    /// Report discriminator (`"frontier"`).
    pub bench: String,
    /// The smoke rows, plus the scale rows under `--scale`.
    pub runs: Vec<ScaleMeasurement>,
}

impl GatedReport for FrontierBenchReport {
    const NAME: &'static str = "frontier";

    fn exact_cells(&self) -> Vec<(String, i64)> {
        self.runs
            .iter()
            .map(|r| {
                let key = format!("{} {} n={}", r.workload, r.source, r.n);
                (key, r.rounds.map_or(-1, |t| t as i64))
            })
            .collect()
    }

    /// The seeded sweep (not the path run) is the gate row: its rounds
    /// are all-delta, so it covers the engine's full per-round machinery.
    fn wall(&self) -> Option<Wall> {
        let workload = format!("k-source-broadcast(k={SWEEP_K})");
        let row = self
            .runs
            .iter()
            .find(|r| r.workload == workload && r.n == GATE_N)?;
        Some(Wall {
            label: format!("frontier sweep n={GATE_N}"),
            value: row.ns_per_round,
            format: |ns| format!("{:.2} ms/round", ns / 1e6),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_parsers() {
        let report = FrontierBenchReport {
            bench: "frontier".into(),
            runs: vec![
                ScaleMeasurement {
                    workload: "broadcast".into(),
                    source: "static(path)".into(),
                    n: GATE_N,
                    rounds: Some(GATE_N as u64 - 1),
                    wall_ms: 12.5,
                    ns_per_round: 1250.0,
                    peak_rss_kb: Some(4_321),
                },
                ScaleMeasurement {
                    workload: format!("k-source-broadcast(k={SWEEP_K})"),
                    source: "seeded-uniform(seed=379422)".into(),
                    n: GATE_N,
                    rounds: None,
                    wall_ms: 3.0,
                    ns_per_round: 142857.1,
                    peak_rss_kb: None,
                },
            ],
        };
        let parsed = crate::gate::reread(&report);
        let cells = parsed.exact_cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0],
            (
                format!("broadcast static(path) n={GATE_N}"),
                GATE_N as i64 - 1
            )
        );
        assert_eq!(cells[1].1, -1, "a null round count gates as -1");
        // The seeded sweep row, not the path row, carries the wall gate.
        assert_eq!(parsed.wall().unwrap().value, 142857.1);
    }

    #[test]
    fn report_is_json_shaped() {
        crate::gate::assert_json_shaped::<FrontierBenchReport>();
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }

    #[test]
    fn tiny_scale_rows_complete_deterministically() {
        let n = 512;
        let a = measure_scale_rows(n);
        let b = measure_scale_rows(n);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].workload, "k-source-broadcast(k=1)");
        assert_eq!(a[0].rounds, Some(n as u64 - 1), "path diameter");
        assert!(a[1].rounds.is_some(), "seeded sweep completes");
        // Wall times vary; the exact-gate cells must not.
        let key = |m: &ScaleMeasurement| (m.workload.clone(), m.source.clone(), m.n, m.rounds);
        assert_eq!(key(&a[0]), key(&b[0]));
        assert_eq!(key(&a[1]), key(&b[1]));
    }
}
