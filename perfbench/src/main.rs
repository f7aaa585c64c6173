//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from a timed run and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth-all|service-mix|bdd-large --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload for `--seconds` seconds
//! with nothing but the program's own code on the clock, checks every output
//! outside the timed window, and reports the end-to-end metrics. With
//! `--trace 1` it replays the workload with in-memory spans around every
//! call into a layer (see [`trace`]) and reports the per-layer metrics.
//! Human-readable notes go to stdout first; the last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`. `README.md` beside
//! this package records why each workload exists and which end-to-end
//! metric each layer metric should move.

mod bdd_large;
mod service_mix;
mod stats;
mod synth_all;
mod trace;

use std::collections::BTreeMap;

use bidecomp_bench::cli::ArgCursor;
use bidecomp_bench::json::{self, Value};

/// The end-to-end metrics every `--trace 0` run reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_share", "share"),
    ("qor_size", "count"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run reports, with their units. A
/// layer a workload does not exercise reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("boolfunc.minterm_cover.calls", "count"),
    ("boolfunc.minterm_cover.self_s", "s"),
    ("boolfunc.minterm_cover.cubes", "count"),
    ("sop.espresso.calls", "count"),
    ("sop.espresso.self_s", "s"),
    ("sop.espresso.cubes_in", "count"),
    ("sop.espresso.cubes_out", "count"),
    ("spp.merge.calls", "count"),
    ("spp.merge.self_s", "s"),
    ("spp.merge.literals_out", "count"),
    ("core.decompose.divisor.calls", "count"),
    ("core.decompose.divisor.self_s", "s"),
    ("core.quotient.calls", "count"),
    ("core.quotient.self_s", "s"),
    ("core.quotient.invalid", "count"),
    ("core.verify.calls", "count"),
    ("core.verify.self_s", "s"),
    ("techmap.area.calls", "count"),
    ("techmap.area.self_s", "s"),
    ("techmap.map.calls", "count"),
    ("techmap.map.self_s", "s"),
    ("techmap.build.calls", "count"),
    ("techmap.build.self_s", "s"),
    ("techmap.mapped_area_total", "area"),
    ("core.recursive.nodes", "count"),
    ("core.recursive.self_s", "s"),
    ("core.recursive.candidates_tried", "count"),
    ("core.recursive.candidates_won", "count"),
    ("core.recursive.candidate_win_ratio", "ratio"),
    ("core.engine.busy_share", "share"),
    ("core.engine.max_job_ms", "ms"),
    ("service.npn.canonicalize.calls", "count"),
    ("service.npn.canonicalize.self_s", "s"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.cache.insertions", "count"),
    ("service.cache.evictions", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.server.latency_p50_ms", "ms"),
    ("service.server.latency_p99_ms", "ms"),
    ("service.server.compute_s", "s"),
    ("service.server.queue_wait_s", "s"),
    ("service.server.sheds", "count"),
    ("service.client.overhead_mean_ms", "ms"),
    ("bdd.peak_nodes", "count"),
    ("bdd.unique_lookups", "count"),
    ("bdd.unique_hit_ratio", "ratio"),
    ("bdd.unique_probe_steps", "count"),
    ("bdd.apply_hit_ratio", "ratio"),
    ("bdd.ite_hit_ratio", "ratio"),
    ("bdd.sift_passes", "count"),
    ("bdd.level_swaps", "count"),
    ("bdd.gc_runs", "count"),
    ("trace.spans", "count"),
    ("trace.self_sum_share", "share"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back: the operation counts, the metrics it
/// measured, and any whole-run check that failed (a determinism or
/// differential mismatch that no single operation owns).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed whole-run check.
    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.problems.push(message);
    }
}

fn parse_args() -> Args {
    let mut argv = ArgCursor::from_env("perfbench");
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--workload" => workload = Some(argv.value(&flag)),
            "--seed" => seed = Some(argv.number(&flag)),
            "--seconds" => seconds = Some(argv.float(&flag)),
            "--trace" => {
                trace = match argv.number(&flag) {
                    0 => false,
                    1 => true,
                    other => argv.fail(format_args!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| argv.fail("--workload is required"));
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        argv.fail(format_args!("--seconds must lie in (0, 600], not {seconds}"));
    }
    Args { workload, seed: seed.unwrap_or(1), seconds, trace }
}

fn main() {
    let args = parse_args();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut outcome = match args.workload.as_str() {
        "synth-all" => synth_all::run(&args),
        "service-mix" => service_mix::run(&args),
        "bdd-large" => bdd_large::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (synth-all, service-mix, bdd-large)");
            std::process::exit(2);
        }
    };
    println!(
        "# failed_share {} ({} of {} failed)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    if !args.trace {
        outcome.set("peak_rss_mb", stats::peak_rss_mb());
        if outcome.attempted > 0 {
            let ok = outcome.attempted.saturating_sub(outcome.failed);
            outcome.set("ok_share", ok as f64 / outcome.attempted as f64);
        }
    }
    println!("{}", result_line(&args, &outcome));
}

/// The final JSON line: every declared metric of the run's kind, in
/// declaration order. A declared end-to-end metric the workload did not
/// produce is a bug in the benchmark, so it aborts instead of printing.
fn result_line(args: &Args, outcome: &Outcome) -> Value {
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(extra) = outcome.metrics.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        panic!("workload produced undeclared metric {extra}");
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload did not produce end-to-end metric {name}"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("# {name:<40} {value:>16.6} {unit}");
        let entry = Value::Object(vec![
            ("value".into(), Value::Num(value)),
            ("unit".into(), json::s(unit)),
        ]);
        metrics.push((name.to_string(), entry));
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), json::num(outcome.attempted.max(1))),
        ("failed".into(), json::num(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}
