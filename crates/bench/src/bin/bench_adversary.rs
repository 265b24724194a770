//! Adversary-search measurement harness: replays the deterministic beam
//! plan grid, times one representative planning run, and emits
//! `results/BENCH_adversary.json`.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_adversary
//! cargo run --release -p treecast-bench --bin bench_adversary -- \
//!     --check results/BENCH_adversary_baseline.json   # CI gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if (a) any grid cell's
//! achieved round count differs from the baseline — a search-behavior gate
//! that is never skipped — or (b) planning is more than 25% slower
//! (skippable via `TREECAST_BENCH_GATE=off` for unsuitable hosts).

use treecast_bench::adversarybench::{measure_plan_wall, measure_rounds, AdversaryBenchReport};
use treecast_bench::gate::{check_arg, finish};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_baseline = check_arg(&args);

    println!("running the deterministic beam-plan grid...");
    let rounds = measure_rounds();
    for r in &rounds {
        println!(
            "  {:<22} {:<18} w={:<2} d={} n={:<3} rounds={}",
            r.workload,
            r.objective,
            r.width,
            r.lookahead,
            r.n,
            if r.rounds < 0 {
                ">cap".into()
            } else {
                r.rounds.to_string()
            }
        );
    }

    let wall = measure_plan_wall(25);
    println!(
        "plan_wall n={} w={}: {:.2} ms/plan",
        wall.n,
        wall.width,
        wall.ns_per_plan / 1e6
    );

    let report = AdversaryBenchReport {
        bench: "adversary".into(),
        plans: rounds,
        plan_wall: wall,
    };
    finish(&report, check_baseline.as_deref());
}
