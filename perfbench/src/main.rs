//! `perfbench`: runs one workload of the treecast benchmark, checks every
//! output it produces, and ends with one JSON result line.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced. `--trace 1`
//! runs every pass both untraced and traced, and prints the per-layer
//! metrics, including what tracing cost. See `perfbench/README.md`.

mod mirror;
mod replicas;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::{peak_rss_mib, Report, END_TO_END, PER_LAYER};
use stats::{elapsed_ns, median, ratio};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <serve-zipf|mc-loss|emulate-knobs> \
                     --seed <u64> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds a workload's inputs [`SETUPS`] times, recording each time, and
/// keeps the last; the previous inputs are freed before the next build.
fn timed_setups<T>(times: &mut Vec<u64>, mut build: impl FnMut() -> T) -> T {
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(build());
        times.push(elapsed_ns(start));
    }
    inputs.expect("at least one set-up")
}

/// Sets up and runs `args.workload`.
fn measure(args: &Args, threads: usize) -> Result<Report, String> {
    let mut setup_ns = Vec::new();
    let report = match args.workload.as_str() {
        "serve-zipf" => {
            let mut inputs = timed_setups(&mut setup_ns, || {
                serve::setup(args.seed, serve::Shape::FULL, threads)
            });
            serve::run(&mut inputs, args.seconds, args.trace)
        }
        "mc-loss" => {
            let inputs = timed_setups(&mut setup_ns, || {
                replicas::setup(replicas::mc_loss(args.seed), threads)
            });
            replicas::run(&inputs, args.seconds, args.trace)
        }
        "emulate-knobs" => {
            let inputs = timed_setups(&mut setup_ns, || {
                replicas::setup(replicas::emulate_knobs(args.seed), threads)
            });
            replicas::run(&inputs, args.seconds, args.trace)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    finish(report, &setup_ns)
}

/// Adds the metrics every workload shares.
fn finish(mut report: Report, setup_ns: &[u64]) -> Result<Report, String> {
    report.set("setup_s", median(setup_ns) / 1e9);
    report.set(
        "peak_rss_mib",
        peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    report.set(
        "ok_frac",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = match measure(&args, threads) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# {} seed {} for {} s, trace {}, {threads} threads",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in report.notes() {
        println!("# {note}");
    }
    for (what, count) in report.failures() {
        println!("# FAILED {count} operations: {what}");
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        if let Some(value) = report.get(name) {
            println!("# {name} = {value:.6} {unit}");
        }
    }
    println!("{}", report.result_line(catalogue, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args(&[
            "--workload",
            "mc-loss",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: "mc-loss".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args(&["--workload", "mc-loss", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let parsed = args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .unwrap();
        assert!(measure(&parsed, 1).is_err());
    }

    /// The metrics a run records, as `(name, unit)` pairs.
    fn recorded(report: &Report) -> Vec<(&'static str, &'static str)> {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .filter(|(name, _)| report.get(name).is_some())
            .copied()
            .collect()
    }

    #[test]
    fn seeds_change_inputs_but_not_metric_names_or_units() {
        // The real grids draw different replica streams per seed.
        let seeds = |cells: Vec<replicas::Cell>| format!("{cells:?}");
        assert_ne!(seeds(replicas::mc_loss(1)), seeds(replicas::mc_loss(2)));
        assert_ne!(
            seeds(replicas::emulate_knobs(1)),
            seeds(replicas::emulate_knobs(2))
        );

        for trace in [false, true] {
            let mut names = Vec::new();
            for seed in [1, 2] {
                let mut serve_inputs = serve::setup(seed, serve::Shape::TINY, 2);
                let replica_inputs = replicas::setup(replicas::tiny(seed), 2);
                let served = finish(serve::run(&mut serve_inputs, 0.01, trace), &[1]).unwrap();
                let replicated = finish(replicas::run(&replica_inputs, 0.01, trace), &[1]).unwrap();
                for report in [&served, &replicated] {
                    assert_eq!(
                        report.failed,
                        0,
                        "{:?}",
                        report.failures().collect::<Vec<_>>()
                    );
                    // Every end-to-end metric is present on every workload.
                    let _ = report.result_line(&END_TO_END, trace);
                }
                names.push((
                    serve_inputs.pool().to_vec(),
                    recorded(&served),
                    recorded(&replicated),
                ));
            }
            assert_ne!(names[0].0, names[1].0, "the seed drives the request pool");
            assert_eq!(names[0].1, names[1].1);
            assert_eq!(names[0].2, names[1].2);
        }
    }
}
