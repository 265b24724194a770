//! The traced mirror of one replica.
//!
//! The program has no probes of its own yet, so the traced run rebuilds a
//! replica from the program's public pieces and times the calls between
//! them. [`model_replica`] mirrors `treecast_montecarlo::run_replica_on`
//! and [`emulated_replica`] mirrors `EmulationSpec::run_one`, as wired at
//! the time this benchmark was written: the same seed derivation, tree
//! source, fault model, workload and budget, handed to the same runners
//! (`run_workload_faulty`, `run_workload_frontier_faulty`,
//! `run_emulation`) through timing adapters around `TreeSource::next_tree`,
//! `FaultModel::faults` and `Workload::is_complete`. The traced run checks
//! that every mirrored outcome equals the program's own, so a change to
//! that wiring shows as a failure here rather than as skewed numbers.
//!
//! `FrontierSource` is a concrete type the frontier runner calls directly,
//! so its per-round tree generation cannot be timed in place:
//! [`replay_frontier_trees`] replays `next_round` for the executed rounds
//! on a fresh source afterwards, and that time is labelled as replayed.

use std::cell::Cell as Counter;
use std::hint::black_box;
use std::time::Instant;

use treecast_core::replica::{replica_seed, splitmix64, ReplicaOutcome, TREE_STREAM_TWEAK};
use treecast_core::scenario::{run_workload_faulty, FaultModel, RoundFaults};
use treecast_core::workload::{SourceSet, WorkloadProgress};
use treecast_core::{
    run_workload_frontier_faulty, BroadcastState, FrontierSource, KSourceBroadcast,
    SimulationConfig, StaticSource, TreeSource, TreeSpec, Workload, WorkloadOutcome,
    WorkloadReport,
};
use treecast_emulation::{run_emulation, EmulationSpec};
use treecast_montecarlo::RunSpec;
use treecast_trees::{generators, NodeId, RootedTree};

use crate::stats::{elapsed_ns, self_time};

/// The engine a replica ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The bit-matrix engine (`run_workload_faulty`).
    Dense,
    /// The frontier-sparse engine (`run_workload_frontier_faulty`).
    Frontier,
    /// The gossip emulation (`run_emulation`).
    Emulation,
}

/// Where one replica's time went.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Tree generation: source construction, pre-drawn sequences and
    /// `next_tree` calls (or, on the frontier engine, replayed rounds).
    pub trees_ns: u64,
    /// Trees the source drew.
    pub trees_drawn: u64,
    /// Drawn trees a round used.
    pub trees_used: u64,
    /// `FaultModel::faults` time.
    pub faults_ns: u64,
    /// `FaultModel::faults` calls.
    pub fault_rounds: u64,
    /// Rounds whose faults were not quiet (the dense matrix path).
    pub nonquiet_rounds: u64,
    /// `Workload::is_complete` time.
    pub predicate_ns: u64,
    /// The runner's self time: its span minus the layers it called.
    pub engine_self_ns: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// The whole replica, mirror glue included.
    pub replica_ns: u64,
}

/// A mirrored replica: its report, where its time went, and the fault
/// roots it drew (the input of a frontier tree replay).
#[derive(Debug, Clone)]
pub struct Traced {
    /// The runner's report.
    pub report: WorkloadReport,
    /// The engine that ran it.
    pub engine: Engine,
    /// The time split.
    pub layers: Layers,
    /// Per round, the root the fault model demanded.
    pub roots: Vec<Option<NodeId>>,
}

impl Traced {
    /// The replica outcome, as `ReplicaSource::run_replica` folds it.
    pub fn outcome(&self) -> ReplicaOutcome {
        ReplicaOutcome {
            rounds: match self.report.outcome {
                WorkloadOutcome::Completed => self.report.completion_time,
                WorkloadOutcome::RoundLimit => None,
            },
        }
    }
}

/// Times `next_tree`.
struct TimedSource<S> {
    inner: S,
    ns: u64,
    calls: u64,
}

impl<S: TreeSource> TreeSource for TimedSource<S> {
    fn next_tree(&mut self, state: &BroadcastState) -> RootedTree {
        let start = Instant::now();
        let tree = self.inner.next_tree(state);
        self.ns += elapsed_ns(start);
        self.calls += 1;
        tree
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Times `faults` and records what each round demanded.
struct TimedFaults<F> {
    inner: F,
    ns: u64,
    nonquiet: u64,
    roots: Vec<Option<NodeId>>,
}

impl<F: FaultModel> FaultModel for TimedFaults<F> {
    fn faults(&mut self, round: u64, n: usize) -> RoundFaults {
        let start = Instant::now();
        let faults = self.inner.faults(round, n);
        self.ns += elapsed_ns(start);
        self.nonquiet += u64::from(!faults.is_quiet());
        self.roots.push(faults.root);
        faults
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Times `is_complete`.
struct TimedWorkload<W> {
    inner: W,
    ns: Counter<u64>,
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn sources(&self, n: usize) -> SourceSet {
        self.inner.sources(n)
    }

    fn is_complete(&self, progress: &WorkloadProgress) -> bool {
        let start = Instant::now();
        let complete = self.inner.is_complete(progress);
        self.ns.set(self.ns.get() + elapsed_ns(start));
        complete
    }
}

/// The per-replica inputs `run_replica_on` and `run_one` both derive.
struct Derived<F> {
    workload: TimedWorkload<KSourceBroadcast>,
    faults: TimedFaults<F>,
    config: SimulationConfig,
    tree_seed: u64,
}

fn derive<F>(
    n: usize,
    k: usize,
    base_seed: u64,
    budget: u64,
    index: usize,
    model: impl FnOnce(u64) -> F,
) -> Derived<F> {
    let seed = replica_seed(base_seed, index);
    Derived {
        workload: TimedWorkload {
            inner: KSourceBroadcast::evenly_spread(n, k),
            ns: Counter::new(0),
        },
        faults: TimedFaults {
            inner: model(seed),
            ns: 0,
            nonquiet: 0,
            roots: Vec::new(),
        },
        config: SimulationConfig::for_n(n).with_max_rounds(budget),
        tree_seed: splitmix64(seed ^ TREE_STREAM_TWEAK),
    }
}

/// The dense-engine tree source of a cell, with the trees it draws.
fn dense_source(
    trees: TreeSpec,
    n: usize,
    tree_seed: u64,
    budget: u64,
) -> (Box<dyn TreeSource>, u64) {
    match trees {
        TreeSpec::Path => (Box::new(StaticSource::new(generators::path(n))), 1),
        TreeSpec::Star => (Box::new(StaticSource::new(generators::star(n))), 1),
        TreeSpec::SeededUniform => (
            FrontierSource::seeded(n, tree_seed).dense_twin(budget),
            budget.max(1),
        ),
    }
}

/// The frontier-engine tree source of a cell.
fn frontier_source(trees: TreeSpec, n: usize, tree_seed: u64) -> FrontierSource {
    match trees {
        TreeSpec::Path => FrontierSource::fixed(generators::path(n)),
        TreeSpec::Star => FrontierSource::fixed(generators::star(n)),
        TreeSpec::SeededUniform => FrontierSource::seeded(n, tree_seed),
    }
}

/// Runs `body` on a dense-style tree source and books its layers.
fn run_on_dense_source<F: FaultModel>(
    trees: TreeSpec,
    n: usize,
    derived: &mut Derived<F>,
    budget: u64,
    layers: &mut Layers,
    body: impl FnOnce(&mut TimedSource<Box<dyn TreeSource>>, &mut Derived<F>) -> WorkloadReport,
) -> WorkloadReport {
    let start = Instant::now();
    let (source, drawn) = dense_source(trees, n, derived.tree_seed, budget);
    layers.trees_ns += elapsed_ns(start);
    let mut source = TimedSource {
        inner: source,
        ns: 0,
        calls: 0,
    };
    let start = Instant::now();
    let report = body(&mut source, derived);
    let span = elapsed_ns(start);
    // Freeing the drawn trees is tree-layer work too.
    let (next_tree_ns, calls) = (source.ns, source.calls);
    let start = Instant::now();
    drop(source);
    layers.trees_ns += next_tree_ns + elapsed_ns(start);
    layers.trees_drawn = drawn;
    layers.trees_used = if drawn == 1 {
        u64::from(calls > 0)
    } else {
        calls.min(drawn)
    };
    layers.engine_self_ns = self_time(
        span,
        next_tree_ns + derived.faults.ns + derived.workload.ns.get(),
    );
    report
}

fn finish<F>(
    report: WorkloadReport,
    engine: Engine,
    mut layers: Layers,
    derived: Derived<F>,
    start: Instant,
) -> Traced {
    layers.faults_ns = derived.faults.ns;
    layers.fault_rounds = derived.faults.roots.len() as u64;
    layers.nonquiet_rounds = derived.faults.nonquiet;
    layers.predicate_ns = derived.workload.ns.get();
    layers.rounds = report.rounds;
    layers.replica_ns = elapsed_ns(start);
    Traced {
        report,
        engine,
        layers,
        roots: derived.faults.roots,
    }
}

/// Mirrors `run_replica_on(spec, index, spec.uses_frontier())`. On the
/// frontier engine the engine self time still includes tree generation
/// until [`replay_frontier_trees`] books it.
pub fn model_replica(spec: &RunSpec, index: usize) -> Traced {
    let start = Instant::now();
    let n = spec.n;
    let mut derived = derive(
        n,
        spec.k,
        spec.base_seed,
        spec.round_budget,
        index,
        |seed| spec.faults.model(seed),
    );
    let mut layers = Layers::default();
    if spec.uses_frontier() {
        let t = Instant::now();
        let mut source = frontier_source(spec.trees, n, derived.tree_seed);
        layers.trees_ns += elapsed_ns(t);
        let t = Instant::now();
        let report = run_workload_frontier_faulty(
            n,
            &mut source,
            &derived.workload,
            &mut derived.faults,
            derived.config,
        );
        let span = elapsed_ns(t);
        layers.trees_drawn = match spec.trees {
            TreeSpec::SeededUniform => report.rounds,
            TreeSpec::Path | TreeSpec::Star => 1,
        };
        layers.trees_used = layers.trees_drawn.min(report.rounds.max(1));
        layers.engine_self_ns = self_time(span, derived.faults.ns + derived.workload.ns.get());
        return finish(report, Engine::Frontier, layers, derived, start);
    }
    let report = run_on_dense_source(
        spec.trees,
        n,
        &mut derived,
        spec.round_budget,
        &mut layers,
        |source, d| run_workload_faulty(n, source, &d.workload, &mut d.faults, d.config),
    );
    finish(report, Engine::Dense, layers, derived, start)
}

/// Mirrors `EmulationSpec::run_one(index)`.
pub fn emulated_replica(spec: &EmulationSpec, index: usize) -> Traced {
    let start = Instant::now();
    let n = spec.n;
    let mut derived = derive(
        n,
        spec.k,
        spec.base_seed,
        spec.round_budget,
        index,
        |seed| spec.faults.model(seed),
    );
    let mut layers = Layers::default();
    let report = run_on_dense_source(
        spec.trees,
        n,
        &mut derived,
        spec.round_budget,
        &mut layers,
        |source, d| run_emulation(n, source, &d.workload, &spec.knobs, &mut d.faults, d.config),
    );
    finish(report, Engine::Emulation, layers, derived, start)
}

/// Replays the frontier tree stream of a mirrored `spec` replica and books
/// it: the `next_round` time moves from the engine's self time to trees.
pub fn replay_frontier_trees(spec: &RunSpec, index: usize, traced: &mut Traced) {
    let seed = replica_seed(spec.base_seed, index);
    let mut source = frontier_source(spec.trees, spec.n, splitmix64(seed ^ TREE_STREAM_TWEAK));
    let start = Instant::now();
    for &root in &traced.roots {
        black_box(source.next_round(spec.n, root));
    }
    let replayed = elapsed_ns(start);
    traced.layers.trees_ns += replayed;
    traced.layers.engine_self_ns = self_time(traced.layers.engine_self_ns, replayed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_core::replica::FaultSpec;
    use treecast_emulation::GossipKnobs;
    use treecast_montecarlo::run_replica;

    #[test]
    fn mirrored_model_replicas_equal_the_program() {
        let specs = [
            RunSpec::new(20, 2, TreeSpec::SeededUniform, FaultSpec::loss(5)),
            RunSpec::new(20, 1, TreeSpec::Path, FaultSpec::rotation(3)),
            RunSpec::new(1025, 1, TreeSpec::SeededUniform, FaultSpec::rotation(3)),
        ];
        for spec in specs {
            let spec = spec.with_replicas(2).with_seed(11);
            for index in 0..spec.replicas {
                let mut traced = model_replica(&spec, index);
                assert_eq!(traced.outcome(), run_replica(&spec, index), "{spec:?}");
                let layers = &traced.layers;
                assert_eq!(layers.rounds, traced.report.rounds);
                assert_eq!(layers.fault_rounds, layers.rounds);
                assert!(layers.trees_used <= layers.trees_drawn);
                if spec.uses_frontier() {
                    assert_eq!(traced.engine, Engine::Frontier);
                    let before = traced.layers.trees_ns;
                    replay_frontier_trees(&spec, index, &mut traced);
                    assert!(
                        traced.layers.trees_ns > before,
                        "replayed rounds are booked"
                    );
                } else {
                    assert_eq!(traced.engine, Engine::Dense);
                }
            }
        }
    }

    #[test]
    fn dense_seeded_replicas_draw_the_whole_budget() {
        let spec = RunSpec::new(16, 1, TreeSpec::SeededUniform, FaultSpec::none()).with_budget(50);
        let traced = model_replica(&spec, 0);
        assert_eq!(traced.layers.trees_drawn, 50);
        assert_eq!(traced.layers.trees_used, traced.report.rounds);
        assert_eq!(traced.layers.nonquiet_rounds, 0);
    }

    #[test]
    fn mirrored_emulated_replicas_equal_the_program() {
        let mix = FaultSpec {
            loss_permille: 30,
            dropout_permille: 30,
            dropout_rounds: 2,
            rotation_period: Some(4),
        };
        let knobs = GossipKnobs::unconstrained().with_bandwidth(3);
        for trees in [TreeSpec::Path, TreeSpec::SeededUniform] {
            let spec = EmulationSpec::new(18, 1, trees, mix, knobs).with_seed(5);
            for index in 0..3 {
                let traced = emulated_replica(&spec, index);
                assert_eq!(traced.report, spec.run_one(index), "{trees:?} {index}");
                assert_eq!(traced.engine, Engine::Emulation);
                assert!(traced.layers.nonquiet_rounds > 0);
            }
        }
    }
}
