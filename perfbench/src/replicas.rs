//! `mc-loss` and `emulate-knobs`: fixed grids of replica cells run through
//! the Monte Carlo layer's `estimate_from`, first on one thread (the
//! closed loop) and then on `nproc` threads (the pool).
//!
//! A pass runs every cell in both phases; passes repeat the same replicas.
//! The traced run runs only the pooled phase of each pass, first untraced
//! and then with each cell replaced by the mirror in [`crate::mirror`], so
//! that the two can be compared replica for replica.

use std::sync::Mutex;
use std::time::Instant;

use treecast_core::bounds::upper_bound;
use treecast_core::replica::{replica_seed, FaultSpec, ReplicaOutcome, ReplicaSource, TreeSpec};
use treecast_emulation::{EmulationSpec, GossipKnobs};
use treecast_montecarlo::{estimate_from, run_replica_on, RunSpec};

use crate::mirror::{emulated_replica, model_replica, replay_frontier_trees, Engine, Traced};
use crate::report::Report;
use crate::stats::{elapsed_ns, overhead_frac, ratio, summarize, unattributed_frac};

/// One cell of a grid.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A synchronous-engine cell.
    Model(RunSpec),
    /// A gossip-emulation cell.
    Emulated(EmulationSpec),
}

impl Cell {
    fn source(&self) -> &dyn ReplicaSource {
        match self {
            Cell::Model(spec) => spec,
            Cell::Emulated(spec) => spec,
        }
    }

    fn mirror(&self, index: usize) -> Traced {
        match self {
            Cell::Model(spec) => model_replica(spec, index),
            Cell::Emulated(spec) => emulated_replica(spec, index),
        }
    }

    /// The cell's faults, whichever kind it is.
    fn faults(&self) -> FaultSpec {
        match self {
            Cell::Model(spec) => spec.faults,
            Cell::Emulated(spec) => spec.faults,
        }
    }

    /// `true` when the runner is the paper's model: a model cell, or an
    /// emulated one with every knob unconstrained.
    fn is_model(&self) -> bool {
        match self {
            Cell::Model(_) => true,
            Cell::Emulated(spec) => spec.knobs.is_unconstrained(),
        }
    }
}

/// The `mc-loss` grid: path and seeded-uniform cells at n = 1024 (the
/// dense engine) and n = 1025 (the frontier engine, just above
/// `DENSE_MAX_N`), each at about half its critical loss rate in
/// `results/montecarlo_critical.csv` (10‰ for k = 1 on the path, 6‰ for
/// k = 2 on seeded-uniform trees). The cheaper frontier cells run more
/// replicas so each engine gets a comparable share of the time, and the
/// frontier path cell is large enough that the median replica is one of
/// its own rather than a boundary between two cells.
pub fn mc_loss(seed: u64) -> Vec<Cell> {
    let grid = [
        (1024, 1, TreeSpec::Path, 5, 8),
        (1024, 2, TreeSpec::SeededUniform, 3, 8),
        (1025, 1, TreeSpec::Path, 5, 48),
        (1025, 2, TreeSpec::SeededUniform, 3, 16),
    ];
    grid.iter()
        .enumerate()
        .map(|(i, &(n, k, trees, permille, replicas))| {
            Cell::Model(
                RunSpec::new(n, k, trees, FaultSpec::loss_permille(permille))
                    .with_replicas(replicas)
                    .with_seed(replica_seed(seed, i)),
            )
        })
        .collect()
}

/// The `emulate-knobs` grid at n = 256: quiet unconstrained cells (pinned
/// equal to the model), a bandwidth cap, a fan-out cap, and the loss and
/// dropout mix both unconstrained and fan-out capped. The path cells track
/// one token, since k ≥ 2 never completes on a static path. A bandwidth
/// cap counts every token a peer forwards, not only the tracked ones, so
/// under the mix any cap small enough to bind at n = 256 censors nearly
/// every replica; the bandwidth cap runs quiet on the path instead.
pub fn emulate_knobs(seed: u64) -> Vec<Cell> {
    let free = GossipKnobs::unconstrained();
    let mix = FaultSpec {
        loss_permille: 5,
        dropout_permille: 10,
        dropout_rounds: 2,
        rotation_period: None,
    };
    let grid = [
        (1, TreeSpec::Path, FaultSpec::none(), free),
        (2, TreeSpec::SeededUniform, FaultSpec::none(), free),
        (1, TreeSpec::Path, FaultSpec::none(), free.with_bandwidth(2)),
        (
            2,
            TreeSpec::SeededUniform,
            FaultSpec::none(),
            free.with_fanout(2),
        ),
        (2, TreeSpec::SeededUniform, mix, free),
        (2, TreeSpec::SeededUniform, mix, free.with_fanout(2)),
    ];
    grid.iter()
        .enumerate()
        .map(|(i, &(k, trees, faults, knobs))| {
            Cell::Emulated(
                EmulationSpec::new(256, k, trees, faults, knobs)
                    .with_replicas(12)
                    .with_seed(replica_seed(seed, i)),
            )
        })
        .collect()
}

/// A toy grid covering both synchronous engines' dense side and every
/// emulation reference kind, for tests.
#[cfg(test)]
pub fn tiny(seed: u64) -> Vec<Cell> {
    let free = GossipKnobs::unconstrained();
    let specs = [
        (12, 1, TreeSpec::Path, FaultSpec::loss_permille(30), None),
        (12, 2, TreeSpec::SeededUniform, FaultSpec::none(), None),
        (10, 1, TreeSpec::Path, FaultSpec::none(), Some(free)),
        (
            10,
            2,
            TreeSpec::SeededUniform,
            FaultSpec::loss(5),
            Some(free.with_fanout(1)),
        ),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, &(n, k, trees, faults, knobs))| {
            let seed = replica_seed(seed, i);
            match knobs {
                None => Cell::Model(
                    RunSpec::new(n, k, trees, faults)
                        .with_replicas(3)
                        .with_seed(seed),
                ),
                Some(knobs) => Cell::Emulated(
                    EmulationSpec::new(n, k, trees, faults, knobs)
                        .with_replicas(3)
                        .with_seed(seed),
                ),
            }
        })
        .collect()
}

/// What a cell's replicas must equal, computed during set-up.
#[derive(Debug, Clone)]
enum Reference {
    /// Replica 0 run on the other synchronous engine.
    OtherEngine(ReplicaOutcome),
    /// The outcomes of the unconstrained cell's `RunSpec` twin.
    Twin(Vec<ReplicaOutcome>),
    /// No reference: a constrained emulation is not the model.
    Unpinned,
}

impl Reference {
    fn holds(&self, index: usize, outcome: ReplicaOutcome) -> bool {
        match self {
            Reference::OtherEngine(want) => index != 0 || outcome == *want,
            Reference::Twin(want) => want.get(index) == Some(&outcome),
            Reference::Unpinned => true,
        }
    }
}

/// A grid with its references.
pub struct Inputs {
    cells: Vec<(Cell, Reference)>,
    threads: usize,
    /// Wall time of the twins' pooled estimates during set-up.
    twin_ns: u64,
}

/// Computes the references of `cells`.
pub fn setup(cells: Vec<Cell>, threads: usize) -> Inputs {
    let mut twin_ns = 0;
    let cells = cells
        .into_iter()
        .map(|cell| {
            let reference = match &cell {
                Cell::Model(spec) => {
                    Reference::OtherEngine(run_replica_on(spec, 0, !spec.uses_frontier()))
                }
                Cell::Emulated(spec) if spec.knobs.is_unconstrained() => {
                    let twin = RunSpec {
                        n: spec.n,
                        k: spec.k,
                        trees: spec.trees,
                        faults: spec.faults,
                        round_budget: spec.round_budget,
                        replicas: spec.replicas,
                        base_seed: spec.base_seed,
                    };
                    let (records, wall) = pooled(&twin, threads);
                    twin_ns += wall;
                    Reference::Twin(records.into_iter().map(|(o, _)| o).collect())
                }
                Cell::Emulated(_) => Reference::Unpinned,
            };
            (cell, reference)
        })
        .collect();
    Inputs {
        cells,
        threads,
        twin_ns,
    }
}

/// Wraps a cell to record each replica's outcome and time.
struct Recorder<'a> {
    inner: &'a dyn ReplicaSource,
    slots: Vec<Mutex<(ReplicaOutcome, u64)>>,
}

/// Wraps a cell to run each replica through the mirror.
struct Mirrored<'a> {
    cell: &'a Cell,
    slots: Vec<Mutex<Option<Traced>>>,
}

impl Recorder<'_> {
    fn source(&self) -> &dyn ReplicaSource {
        self.inner
    }
}

impl Mirrored<'_> {
    fn source(&self) -> &dyn ReplicaSource {
        self.cell.source()
    }
}

/// The cell description of a wrapper is its wrapped cell's.
macro_rules! delegate_labels {
    () => {
        fn n(&self) -> usize {
            self.source().n()
        }
        fn k(&self) -> usize {
            self.source().k()
        }
        fn replicas(&self) -> usize {
            self.source().replicas()
        }
        fn round_budget(&self) -> u64 {
            self.source().round_budget()
        }
        fn workload_label(&self) -> String {
            self.source().workload_label()
        }
        fn source_label(&self) -> String {
            self.source().source_label()
        }
        fn fault_label(&self) -> String {
            self.source().fault_label()
        }
    };
}

impl ReplicaSource for Recorder<'_> {
    delegate_labels!();

    fn run_replica(&self, index: usize) -> ReplicaOutcome {
        let start = Instant::now();
        let outcome = self.inner.run_replica(index);
        *self.slots[index].lock().expect("no replica panicked") = (outcome, elapsed_ns(start));
        outcome
    }
}

impl ReplicaSource for Mirrored<'_> {
    delegate_labels!();

    fn run_replica(&self, index: usize) -> ReplicaOutcome {
        let traced = self.cell.mirror(index);
        let outcome = traced.outcome();
        *self.slots[index].lock().expect("no replica panicked") = Some(traced);
        outcome
    }
}

/// Runs `source` through `estimate_from` on `threads` threads: each
/// replica's outcome and time, and the wall time of the call.
fn pooled(source: &dyn ReplicaSource, threads: usize) -> (Vec<(ReplicaOutcome, u64)>, u64) {
    let recorder = Recorder {
        inner: source,
        slots: (0..source.replicas())
            .map(|_| Mutex::new((ReplicaOutcome::default(), 0)))
            .collect(),
    };
    let start = Instant::now();
    let _ = estimate_from(&recorder, threads);
    let wall = elapsed_ns(start);
    let records = recorder
        .slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("no replica panicked"))
        .collect();
    (records, wall)
}

/// Executed rounds of a replica: a censored one ran its whole budget.
fn executed_rounds(outcome: ReplicaOutcome, budget: u64) -> u64 {
    outcome.rounds.unwrap_or(budget)
}

/// Untraced timings gathered over passes.
#[derive(Debug, Default)]
struct Tally {
    passes: u64,
    /// Per-replica time of the one-thread phase.
    serial_latencies_ns: Vec<u64>,
    serial_ns: u64,
    pooled_ns: u64,
    pooled_replicas: u64,
    pooled_rounds: u64,
    /// Pooled wall time of the cells that have a model twin.
    twinned_ns: u64,
    censored: u64,
    /// The pooled outcomes of the last pass, per cell.
    outcomes: Vec<Vec<ReplicaOutcome>>,
    /// Σ pooled wall time per cell.
    cell_ns: Vec<u64>,
}

fn untraced_pass(inputs: &Inputs, serial: bool, tally: &mut Tally, report: &mut Report) {
    tally.passes += 1;
    tally.outcomes.clear();
    tally.cell_ns.resize(inputs.cells.len(), 0);
    for (i, (cell, reference)) in inputs.cells.iter().enumerate() {
        let source = cell.source();
        let (records, wall) = pooled(source, inputs.threads);
        tally.cell_ns[i] += wall;
        tally.pooled_ns += wall;
        tally.pooled_replicas += records.len() as u64;
        if matches!(reference, Reference::Twin(_)) {
            tally.twinned_ns += wall;
        }
        for (index, &(outcome, _)) in records.iter().enumerate() {
            report.check(
                reference.holds(index, outcome),
                "replica vs set-up reference",
            );
            tally.pooled_rounds += executed_rounds(outcome, source.round_budget());
            tally.censored += u64::from(outcome.rounds.is_none());
        }
        if serial {
            let (serial_records, wall) = pooled(source, 1);
            tally.serial_ns += wall;
            for ((outcome, ns), (want, _)) in serial_records.iter().zip(&records) {
                report.check(outcome == want, "one-thread replica vs pooled replica");
                tally.serial_latencies_ns.push(*ns);
            }
        }
        tally
            .outcomes
            .push(records.into_iter().map(|(o, _)| o).collect());
    }
}

/// Traced totals gathered over passes.
#[derive(Debug, Default)]
struct Ledger {
    /// Σ threads × cell wall.
    thread_ns: u64,
    /// Σ cell wall.
    wall_ns: u64,
    replicas: u64,
    censored: u64,
    rounds: u64,
    trees_ns: u64,
    trees_drawn: u64,
    trees_used: u64,
    faults_ns: u64,
    fault_rounds: u64,
    nonquiet_rounds: u64,
    predicate_ns: u64,
    replica_ns: u64,
    /// Self time and rounds per engine: dense, frontier, emulation.
    engine_ns: [u64; 3],
    engine_rounds: [u64; 3],
}

/// `true` when a fault-free model run finished broadcast within the
/// paper's bound ⌈(1+√2)n − 1⌉.
fn within_theorem(traced: &Traced) -> bool {
    let report = &traced.report;
    let bound = upper_bound(report.n as u64);
    report
        .broadcast_time
        .map_or(report.rounds < bound, |t| t <= bound)
}

/// Runs the pooled phase through the mirror and checks it against the
/// latest untraced pass.
fn traced_pass(inputs: &Inputs, untraced: &Tally, ledger: &mut Ledger, report: &mut Report) {
    let first = ledger.replicas == 0;
    for ((cell, _), want) in inputs.cells.iter().zip(&untraced.outcomes) {
        let mirrored = Mirrored {
            cell,
            slots: (0..want.len()).map(|_| Mutex::new(None)).collect(),
        };
        let start = Instant::now();
        let _ = estimate_from(&mirrored, inputs.threads);
        let wall = elapsed_ns(start);
        ledger.wall_ns += wall;
        ledger.thread_ns += wall * inputs.threads as u64;
        for (index, slot) in mirrored.slots.into_iter().enumerate() {
            let mut traced = slot
                .into_inner()
                .expect("no replica panicked")
                .expect("the pool runs every replica");
            let mut ok = traced.outcome() == want[index];
            if cell.faults().is_quiet() && cell.is_model() {
                ok &= within_theorem(&traced);
            }
            if let (Cell::Emulated(spec), true) = (cell, first && index == 0) {
                ok &= traced.report == spec.run_one(0);
            }
            report.check(ok, "mirrored replica vs program replica");
            if let Cell::Model(spec) = cell {
                if traced.engine == Engine::Frontier {
                    replay_frontier_trees(spec, index, &mut traced);
                }
            }
            book(ledger, &traced);
        }
    }
}

fn book(ledger: &mut Ledger, traced: &Traced) {
    let l = &traced.layers;
    ledger.replicas += 1;
    ledger.censored += u64::from(traced.outcome().rounds.is_none());
    ledger.rounds += l.rounds;
    ledger.trees_ns += l.trees_ns;
    ledger.trees_drawn += l.trees_drawn;
    ledger.trees_used += l.trees_used;
    ledger.faults_ns += l.faults_ns;
    ledger.fault_rounds += l.fault_rounds;
    ledger.nonquiet_rounds += l.nonquiet_rounds;
    ledger.predicate_ns += l.predicate_ns;
    ledger.replica_ns += l.replica_ns;
    let engine = traced.engine as usize;
    ledger.engine_ns[engine] += l.engine_self_ns;
    ledger.engine_rounds[engine] += l.rounds;
}

/// Runs passes for `seconds` and reports the end-to-end metrics or, when
/// `trace` is set, runs the pooled phase of every pass both untraced and
/// through the mirror, alternating which goes first (passes repeat the
/// same replicas, so a mirrored pass is checked against the latest
/// untraced one), and reports the per-layer metrics.
pub fn run(inputs: &Inputs, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut untraced = Tally::default();
    let mut ledger = Ledger::default();
    let start = Instant::now();
    while untraced.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let traced_first = trace && untraced.passes % 2 == 1;
        if traced_first {
            traced_pass(inputs, &untraced, &mut ledger, &mut report);
        }
        untraced_pass(inputs, !trace, &mut untraced, &mut report);
        if trace && !traced_first {
            traced_pass(inputs, &untraced, &mut ledger, &mut report);
        }
    }
    if trace {
        per_layer(&untraced, &ledger, inputs, &mut report);
    } else {
        end_to_end(&untraced, inputs, &mut report);
    }
    report
}

fn end_to_end(tally: &Tally, inputs: &Inputs, report: &mut Report) {
    let per_second = |count: u64, ns: u64| ratio(count as f64 * 1e9, ns as f64);
    let latency = summarize(&tally.serial_latencies_ns, 99).expect("a pass runs replicas");
    report.set(
        "qps",
        per_second(tally.serial_latencies_ns.len() as u64, tally.serial_ns),
    );
    report.set("latency_p50_us", latency.p50 / 1e3);
    report.set("latency_p99_us", latency.tail / 1e3);
    report.set(
        "batch_qps",
        per_second(tally.pooled_replicas, tally.pooled_ns),
    );
    report.set(
        "replica_rounds_per_s",
        per_second(tally.pooled_rounds, tally.pooled_ns),
    );
    report.note(format!(
        "replica latency: p50 {:.1} us, p{:.2} {:.1} us over {} replicas",
        latency.p50 / 1e3,
        latency.tail_percentile,
        latency.tail / 1e3,
        latency.samples
    ));
    for ((cell, _), (ns, outcomes)) in inputs
        .cells
        .iter()
        .zip(tally.cell_ns.iter().zip(&tally.outcomes))
    {
        let source = cell.source();
        let completed: Vec<u64> = outcomes.iter().filter_map(|o| o.rounds).collect();
        report.note(format!(
            "cell n={} {} {} {}: {} replicas, {} completed (mean {:.1} rounds), pooled {:.1} ms per pass",
            source.n(),
            source.workload_label(),
            source.source_label(),
            source.fault_label(),
            outcomes.len(),
            completed.len(),
            ratio(completed.iter().sum::<u64>() as f64, completed.len() as f64),
            *ns as f64 / 1e6 / tally.passes as f64
        ));
    }
    report.note(format!(
        "{} passes over {} cells; {} of {} pooled replicas censored; {} threads",
        tally.passes,
        inputs.cells.len(),
        tally.censored,
        tally.pooled_replicas,
        inputs.threads
    ));
}

fn per_layer(untraced: &Tally, ledger: &Ledger, inputs: &Inputs, report: &mut Report) {
    let per_round = |ns: u64, rounds: u64| ratio(ns as f64, rounds as f64);
    report.set(
        "trees.ns_per_round",
        per_round(ledger.trees_ns, ledger.rounds),
    );
    report.set(
        "trees.useful_ratio",
        ratio(ledger.trees_used as f64, ledger.trees_drawn as f64),
    );
    report.set(
        "scenario.faults.ns_per_round",
        per_round(ledger.faults_ns, ledger.fault_rounds),
    );
    report.set(
        "scenario.nonquiet_share",
        ratio(ledger.nonquiet_rounds as f64, ledger.fault_rounds as f64),
    );
    let names = [
        "engine.dense.ns_per_round",
        "frontier.ns_per_round",
        "emulation.ns_per_round",
    ];
    for (i, name) in names.into_iter().enumerate() {
        report.set(
            name,
            per_round(ledger.engine_ns[i], ledger.engine_rounds[i]),
        );
    }
    report.set(
        "workload.predicate.ns_per_round",
        per_round(ledger.predicate_ns, ledger.rounds),
    );
    let idle_ns = ledger.thread_ns as f64 - ledger.replica_ns as f64;
    report.set(
        "montecarlo.pool.idle_frac",
        ratio(idle_ns, ledger.thread_ns as f64),
    );
    report.set(
        "montecarlo.censored_share",
        ratio(ledger.censored as f64, ledger.replicas as f64),
    );
    if inputs.twin_ns > 0 {
        let per_pass = untraced.twinned_ns as f64 / untraced.passes as f64;
        report.set(
            "emulation.model_ratio",
            ratio(per_pass, inputs.twin_ns as f64),
        );
    }
    let layers = [
        ledger.trees_ns,
        ledger.faults_ns,
        ledger.predicate_ns,
        ledger.engine_ns[0],
        ledger.engine_ns[1],
        ledger.engine_ns[2],
    ]
    .map(|ns| ns as f64);
    let mut claimed = layers.to_vec();
    claimed.push(idle_ns);
    report.set(
        "ledger.unattributed_frac",
        unattributed_frac(ledger.thread_ns as f64, &claimed),
    );
    report.set(
        "trace.overhead_frac",
        overhead_frac(ledger.wall_ns as f64, untraced.pooled_ns as f64),
    );
    report.note(format!(
        "traced {} replicas, {} rounds, {} trees drawn of which {} used",
        ledger.replicas, ledger.rounds, ledger.trees_drawn, ledger.trees_used
    ));
}
