//! `serve-zipf`: the prefix-cached query server, first driven by one client
//! in a closed loop through `Server::serve`, then handed the same request
//! list through its worker pool, `Server::serve_batch`.
//!
//! A pass builds a fresh server, primes it with the hot pool, and serves a
//! seed-shuffled list of 64 requests: Gossip `BroadcastTime` queries drawn
//! Zipf(1.1) over 24 pool sequences that share 6 stems, 4 sequences the
//! server has never seen (a known stem plus a fresh tail), 3 fault
//! `ScenarioReplay`s and 3 small-n `AdversaryPlan`s. The cache budget is
//! below the pool's working set, so misses, inserts and evictions run
//! beside the hits. Every tree and fault log is built during set-up;
//! passes differ in which pool sequence holds which rank and in which
//! fresh sequences and replays they serve.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use treecast_core::bounds::upper_bound;
use treecast_core::scenario::{FaultModel, FaultSchedule, RoundFaults, SeededFaults};
use treecast_core::{
    run_workload, run_workload_faulty, splitmix64, SequenceSource, SimulationConfig, WorkloadReport,
};
use treecast_server::{
    CacheConfig, ObjectiveSpec, PlanReport, PoolSpec, Request, Response, Schedule, Server,
    ServerConfig, WorkloadSpec,
};
use treecast_trees::{random, RootedTree};

use crate::report::Report;
use crate::stats::{elapsed_ns, median, overhead_frac, ratio, summarize, unattributed_frac};

/// Shards of every server's cache (the server's default).
const CACHE_SHARDS: usize = 16;

/// The request mix of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Processes per tree.
    pub n: usize,
    /// Distinct stems the pool sequences start with.
    pub stems: usize,
    /// Trees per stem.
    pub stem_len: usize,
    /// Trees after the stem.
    pub tail_len: usize,
    /// Hot pool sequences, ranked for the Zipf draw.
    pub pool: usize,
    /// Zipf exponent over the pool ranks.
    pub zipf_s: f64,
    /// Pool requests per pass.
    pub hot: usize,
    /// Never-seen sequences per pass.
    pub fresh: usize,
    /// Passes before the fresh sequences and replays repeat.
    pub rotation: usize,
    /// Fault replays per pass.
    pub replays: usize,
    /// Adversary plans per pass.
    pub plans: usize,
    /// Processes per planned tree.
    pub plan_n: usize,
    /// Cache byte budget in per-mille of the pool's working set.
    pub cache_permille: usize,
}

impl Shape {
    /// The benchmark's mix. The cache budget is 90% of the bytes the
    /// primed pool occupies in an unbounded cache (about 44 MiB at
    /// n = 1024, where a prefix product is a 128 KiB entry), measured per
    /// seed so the miss rate does not hinge on how long the seed's
    /// sequences take to complete. About one lookup in eight then misses
    /// and evicts, while about two requests in three see no miss, so the
    /// median request is a hit.
    pub const FULL: Shape = Shape {
        n: 1024,
        stems: 6,
        stem_len: 8,
        tail_len: 16,
        pool: 24,
        zipf_s: 1.1,
        hot: 54,
        fresh: 4,
        rotation: 3,
        replays: 3,
        plans: 3,
        plan_n: 12,
        cache_permille: 900,
    };

    /// A toy mix with the same structure, for tests.
    #[cfg(test)]
    pub const TINY: Shape = Shape {
        n: 24,
        stems: 2,
        stem_len: 3,
        tail_len: 5,
        pool: 4,
        zipf_s: 1.1,
        hot: 6,
        fresh: 2,
        rotation: 2,
        replays: 1,
        plans: 1,
        plan_n: 6,
        cache_permille: 500,
    };

    /// Round cap of every sequence request: its length.
    fn rounds(&self) -> u64 {
        (self.stem_len + self.tail_len) as u64
    }
}

/// Request classes, in the order the traced run reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A pool sequence.
    Pool,
    /// A sequence the server has not seen in this pass.
    Fresh,
    /// A recorded fault scenario.
    Replay,
    /// An adversary plan.
    Plan,
}

/// A distinct request and the answer the uncached engines gave it
/// during set-up.
type Known = (Request, Response);

/// The generated inputs of one seed.
pub struct Inputs {
    shape: Shape,
    seed: u64,
    workers: usize,
    pool: Vec<Known>,
    /// `rotation` times as many fresh sequences and replays as a pass
    /// uses; consecutive passes take consecutive slices.
    fresh: Vec<Known>,
    replays: Vec<Known>,
    plans: Vec<Known>,
    /// Pool requests per rank.
    counts: Vec<usize>,
    /// This pass's pool index at each rank.
    ranked: Vec<usize>,
    /// This pass's list, index-aligned with `expected`.
    requests: Vec<Request>,
    expected: Vec<(Kind, Response)>,
    /// The cache byte budget.
    cache_bytes: usize,
}

/// Builds the inputs of `seed`, with every answer's reference.
pub fn setup(seed: u64, shape: Shape, workers: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed));
    let n = shape.n;
    let rounds = shape.rounds();
    let draw = |count: usize, rng: &mut StdRng| -> Vec<RootedTree> {
        (0..count).map(|_| random::uniform(n, rng)).collect()
    };
    let stems: Vec<Vec<RootedTree>> = (0..shape.stems)
        .map(|_| draw(shape.stem_len, &mut rng))
        .collect();
    let gossip = |i: usize, rng: &mut StdRng| {
        let mut tree_sequence = stems[i % shape.stems].clone();
        tree_sequence.extend(draw(shape.tail_len, rng));
        Request::BroadcastTime {
            tree_sequence,
            workload: WorkloadSpec::Gossip,
            rounds,
        }
    };
    let known = |request: Request| {
        let expected = reference(&request);
        (request, expected)
    };

    let pool: Vec<Known> = (0..shape.pool)
        .map(|i| known(gossip(i, &mut rng)))
        .collect();
    let fresh: Vec<Known> = (0..shape.fresh * shape.rotation)
        .map(|i| known(gossip(i, &mut rng)))
        .collect();
    let replays: Vec<Known> = (0..shape.replays * shape.rotation)
        .map(|_| {
            let trees = draw(rounds as usize, &mut rng);
            let mut model = SeededFaults::new(rng.gen())
                .with_token_loss_permille(20)
                .with_dropout_permille(20, 2);
            let faults: Vec<RoundFaults> = (1..=rounds).map(|r| model.faults(r, n)).collect();
            // Gossip cannot complete under this much loss, so every replay
            // runs its whole schedule and costs the same whatever the seed.
            let schedule = Schedule {
                trees,
                faults,
                workload: WorkloadSpec::Gossip,
                rounds,
            };
            known(Request::ScenarioReplay { schedule })
        })
        .collect();
    let objectives = [
        ObjectiveSpec::MinDisseminated,
        ObjectiveSpec::MinNewEdges,
        ObjectiveSpec::MinMaxReach,
    ];
    let plans: Vec<Known> = (0..shape.plans)
        .map(|i| {
            known(Request::AdversaryPlan {
                n: shape.plan_n,
                pool: PoolSpec::Sampled {
                    count: 8,
                    seed: rng.gen(),
                },
                objective: objectives[i % objectives.len()],
                width: 4,
                workload: WorkloadSpec::Broadcast,
            })
        })
        .collect();
    let unbounded = Server::new(ServerConfig {
        workers,
        cache: CacheConfig {
            shards: CACHE_SHARDS,
            byte_budget: usize::MAX,
        },
    });
    for (request, _) in &pool {
        let _ = unbounded.serve(request);
    }
    let cache_bytes = unbounded.stats().bytes / 1000 * shape.cache_permille;
    Inputs {
        shape,
        seed,
        workers,
        cache_bytes,
        counts: zipf_counts(shape.pool, shape.hot, shape.zipf_s),
        ranked: (0..shape.pool).collect(),
        pool,
        fresh,
        replays,
        plans,
        requests: Vec::new(),
        expected: Vec::new(),
    }
}

/// Pool requests per rank: `total` split in proportion to the Zipf
/// weights `1/(r+1)^s` by largest remainder, so the mix does not vary
/// with the seed.
fn zipf_counts(ranks: usize, total: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (0..ranks).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        let ra = shares[a] - shares[a].floor();
        let rb = shares[b] - shares[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(missing) {
        counts[r] += 1;
    }
    counts
}

fn config(n: usize, rounds: u64) -> SimulationConfig {
    if rounds == 0 {
        SimulationConfig::for_n(n)
    } else {
        SimulationConfig::for_n(n).with_max_rounds(rounds)
    }
}

/// The answer to `request` from the uncached engines: `run_workload` for
/// sequences and plan schedules, `run_workload_faulty` for replays, and
/// the plan search of a cache-less server.
fn reference(request: &Request) -> Response {
    let replay = |trees: &[RootedTree], spec: &WorkloadSpec, rounds: u64| -> WorkloadReport {
        let n = trees[0].n();
        let workload = spec.workload(n).expect("generated workloads are valid");
        run_workload(
            n,
            &mut SequenceSource::new(trees.to_vec()),
            &*workload,
            config(n, rounds),
        )
    };
    match request {
        Request::BroadcastTime {
            tree_sequence,
            workload,
            rounds,
        } => Response::BroadcastTime {
            report: replay(tree_sequence, workload, *rounds),
        },
        Request::ScenarioReplay { schedule } => {
            let n = schedule.trees[0].n();
            let workload = schedule.workload.workload(n).expect("valid workload");
            let report = run_workload_faulty(
                n,
                &mut SequenceSource::new(schedule.trees.clone()),
                &*workload,
                &mut FaultSchedule::replay(&schedule.faults),
                config(n, schedule.rounds),
            );
            Response::ScenarioReplay { report }
        }
        Request::AdversaryPlan { workload, .. } => {
            let uncached = Server::new(ServerConfig {
                workers: 1,
                cache: CacheConfig::disabled(),
            });
            match uncached.serve(request) {
                Response::AdversaryPlan { report } => Response::AdversaryPlan {
                    report: PlanReport {
                        replay: replay(&report.schedule, workload, 0),
                        ..report
                    },
                },
                other => other,
            }
        }
    }
}

/// `true` when `response` is the reference answer and, for fault-free
/// answers, broadcast finished within the paper's bound ⌈(1+√2)n − 1⌉.
fn correct(response: &Response, (kind, expected): &(Kind, Response)) -> bool {
    if response != expected {
        return false;
    }
    if *kind == Kind::Replay {
        return true;
    }
    response.report().is_some_and(|r| {
        let bound = upper_bound(r.n as u64);
        r.broadcast_time.map_or(r.rounds < bound, |t| t <= bound)
    })
}

impl Inputs {
    /// Builds pass `pass`'s list, the same for the traced and untraced
    /// passes: a seeded assignment of pool sequences to Zipf ranks, the
    /// pass's slice of fresh sequences and replays, the plans, all in a
    /// seeded order. Re-ranking every pass spreads the hot traffic over
    /// the whole pool, so a run does not hinge on its top few sequences.
    fn build_pass(&mut self, pass: u64) {
        // Free the previous list before cloning the next one.
        self.requests.clear();
        self.expected.clear();
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ splitmix64(pass + 1)));
        self.ranked.shuffle(&mut rng);
        let mut items: Vec<(Request, (Kind, Response))> = Vec::new();
        let mut add = |kind: Kind, (request, expected): &Known, copies: usize| {
            for _ in 0..copies {
                items.push((request.clone(), (kind, expected.clone())));
            }
        };
        for (&index, &count) in self.ranked.iter().zip(&self.counts) {
            add(Kind::Pool, &self.pool[index], count);
        }
        let slice = |known: &[Known], per_pass: usize| -> Vec<usize> {
            (0..per_pass)
                .map(|j| (pass as usize * per_pass + j) % known.len())
                .collect()
        };
        for i in slice(&self.fresh, self.shape.fresh) {
            add(Kind::Fresh, &self.fresh[i], 1);
        }
        for i in slice(&self.replays, self.shape.replays) {
            add(Kind::Replay, &self.replays[i], 1);
        }
        for known in &self.plans {
            add(Kind::Plan, known, 1);
        }
        items.shuffle(&mut rng);
        (self.requests, self.expected) = items.into_iter().unzip();
    }

    /// A fresh server primed with the pool, tail rank first so the top
    /// ranks are the most recently used.
    fn primed(&self) -> Server {
        let server = Server::new(ServerConfig {
            workers: self.workers,
            cache: CacheConfig {
                shards: CACHE_SHARDS,
                byte_budget: self.cache_bytes,
            },
        });
        for &index in self.ranked.iter().rev() {
            let _ = server.serve(&self.pool[index].0);
        }
        server
    }

    /// The pool sequences.
    #[cfg(test)]
    pub fn pool(&self) -> Vec<Request> {
        self.pool
            .iter()
            .map(|(request, _)| request.clone())
            .collect()
    }
}

/// Timings gathered over passes.
#[derive(Debug, Default)]
struct Tally {
    /// Per-request `serve` time of the serial phase.
    latencies_ns: Vec<u64>,
    /// Σ `serve` time.
    serial_ns: u64,
    /// Wall time of the serial loops.
    serial_loop_ns: u64,
    /// Σ `serve_batch` wall time.
    batch_ns: u64,
    batch_requests: u64,
    /// Rounds the batch answers executed.
    batch_rounds: u64,
    hits: u64,
    lookups: u64,
    /// Cache bytes resident after each serial phase.
    resident_bytes: Vec<u64>,
    /// Traced only: serial `serve` times of hot (no miss) and cold
    /// (at least one miss) broadcast queries, replays and plans.
    classes: [Vec<u64>; 4],
}

fn pass(inputs: &mut Inputs, index: u64, traced: bool, tally: &mut Tally, report: &mut Report) {
    inputs.build_pass(index);

    let server = inputs.primed();
    let before = server.stats();
    let mut responses = Vec::with_capacity(inputs.requests.len());
    let start = Instant::now();
    for (request, (kind, _)) in inputs.requests.iter().zip(&inputs.expected) {
        let misses = traced.then(|| server.stats().misses);
        let t = Instant::now();
        let response = server.serve(request);
        let ns = elapsed_ns(t);
        if let Some(misses) = misses {
            let class = match kind {
                Kind::Pool | Kind::Fresh if server.stats().misses == misses => 0,
                Kind::Pool | Kind::Fresh => 1,
                Kind::Replay => 2,
                Kind::Plan => 3,
            };
            tally.classes[class].push(ns);
        }
        tally.latencies_ns.push(ns);
        tally.serial_ns += ns;
        responses.push(response);
    }
    tally.serial_loop_ns += elapsed_ns(start);
    let after = server.stats();
    tally.hits += after.hits - before.hits;
    tally.lookups += (after.hits + after.misses) - (before.hits + before.misses);
    tally.resident_bytes.push(after.bytes as u64);
    drop(server);
    for (response, expected) in responses.iter().zip(&inputs.expected) {
        report.check(
            correct(response, expected),
            "serve answer vs uncached reference",
        );
    }

    let server = inputs.primed();
    let t = Instant::now();
    let responses = server.serve_batch(&inputs.requests);
    tally.batch_ns += elapsed_ns(t);
    tally.batch_requests += responses.len() as u64;
    for (response, expected) in responses.iter().zip(&inputs.expected) {
        report.check(
            correct(response, expected),
            "serve_batch answer vs uncached reference",
        );
        tally.batch_rounds += response.report().map_or(0, |r| r.rounds);
    }
}

/// Runs passes for `seconds` and reports the end-to-end metrics or, when
/// `trace` is set, runs every pass both untraced and traced, alternating
/// which goes first, and reports the per-layer metrics.
pub fn run(inputs: &mut Inputs, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let start = Instant::now();
    let mut index = 0;
    while index == 0 || start.elapsed().as_secs_f64() < seconds {
        let order: &[bool] = match (trace, index % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_run in order {
            let tally = if traced_run {
                &mut traced
            } else {
                &mut untraced
            };
            pass(inputs, index, traced_run, tally, &mut report);
        }
        index += 1;
    }
    if trace {
        per_layer(&untraced, &traced, inputs.workers, &mut report);
    } else {
        end_to_end(&untraced, inputs, &mut report);
    }
    report
}

fn per_second(count: u64, ns: u64) -> f64 {
    ratio(count as f64 * 1e9, ns as f64)
}

fn end_to_end(tally: &Tally, inputs: &Inputs, report: &mut Report) {
    let serial = tally.latencies_ns.len() as u64;
    report.set("qps", per_second(serial, tally.serial_ns));
    let latency = summarize(&tally.latencies_ns, 99).expect("a pass serves requests");
    report.set("latency_p50_us", latency.p50 / 1e3);
    report.set("latency_p99_us", latency.tail / 1e3);
    report.set(
        "batch_qps",
        per_second(tally.batch_requests, tally.batch_ns),
    );
    report.set(
        "replica_rounds_per_s",
        per_second(tally.batch_rounds, tally.batch_ns),
    );
    report.note(format!(
        "latency: p50 {:.1} us, p{:.2} {:.1} us over {} requests",
        latency.p50 / 1e3,
        latency.tail_percentile,
        latency.tail / 1e3,
        latency.samples
    ));
    report.note(format!(
        "serial {:.0} qps vs serve_batch {:.0} qps on {} workers; cache hit ratio {:.3}; \
         {} passes of {} requests",
        per_second(serial, tally.serial_ns),
        per_second(tally.batch_requests, tally.batch_ns),
        inputs.workers,
        ratio(tally.hits as f64, tally.lookups as f64),
        tally.resident_bytes.len(),
        inputs.requests.len()
    ));
}

fn per_layer(untraced: &Tally, traced: &Tally, workers: usize, report: &mut Report) {
    let names = [
        "server.broadcast_hot.us_p50",
        "server.broadcast_cold.us_p50",
        "server.replay.us_p50",
        "server.plan.us_p50",
    ];
    for (name, samples) in names.into_iter().zip(&traced.classes) {
        report.set(name, median(samples) / 1e3);
        report.note(format!("{name}: {} samples", samples.len()));
    }
    report.set(
        "server.cache.hit_ratio",
        ratio(traced.hits as f64, traced.lookups as f64),
    );
    report.set(
        "server.cache.resident_mib",
        median(&traced.resident_bytes) / f64::from(1 << 20),
    );
    report.set(
        "server.pool.overhead_frac",
        1.0 - ratio(
            traced.serial_ns as f64,
            workers as f64 * traced.batch_ns as f64,
        ),
    );
    // The ledger: the serial loop's time is claimed by the per-class
    // `serve` spans, the batch phase by the pool's span; what remains is
    // the client loop itself.
    let wall = (traced.serial_loop_ns + traced.batch_ns) as f64;
    report.set(
        "ledger.unattributed_frac",
        unattributed_frac(wall, &[traced.serial_ns as f64, traced.batch_ns as f64]),
    );
    report.set(
        "trace.overhead_frac",
        overhead_frac(wall, (untraced.serial_loop_ns + untraced.batch_ns) as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_to_the_total_and_fall_with_rank() {
        let counts = zipf_counts(24, 54, 1.1);
        assert_eq!(counts.iter().sum::<usize>(), 54);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] > 10);
    }
}
