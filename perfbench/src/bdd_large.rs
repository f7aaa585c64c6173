//! `bdd-large`: `engine::sweep` with `Backend::Bdd` (a private manager per
//! worker) over `Suite::large` (24–40 inputs, 110 jobs) with 2 workers and
//! the `bdd_sweep` reorder settings: FORCE seeding and a sift threshold of
//! 14336 live nodes.
//!
//! One pass takes a fraction of a second, so a run repeats passes, each at
//! its own engine seed (the seed of the jobs' divisors) drawn from a
//! `DetRng` seeded with `--seed`. How much BDD work a pass does depends
//! strongly on its seed; spreading a run over a few hundred seeds keeps
//! runs at different `--seed`s comparable. The traced run attaches an
//! `obs::Registry` through `EngineConfig::obs` and reads the program's own
//! `bdd.mgr.*` counters.

use std::sync::Arc;
use std::time::Instant;

use benchmarks::{DetRng, Suite};
use bidecomp::engine::{sweep, Backend, EngineConfig, JobResult, ReorderConfig, SweepReport};
use bidecomp_bench::json::Value;

use crate::stats::{self, ratio, Window};
use crate::{Args, Outcome};

const THREADS: usize = 2;
/// `latency_tail_ms` is this quantile of the per-job times.
const TAIL: f64 = 0.90;
/// The `bdd_sweep` binary's auto-sift trigger, tuned on `Suite::large`.
const SIFT_THRESHOLD: usize = 14336;
/// Set-up rounds before and again after the timed passes; `setup_s` is the
/// median over both.
const SETUP_ROUNDS: usize = 4;
/// Windows the timed passes are grouped into for the reported medians.
const WINDOWS: usize = 8;
/// `qor_size` is the BDD node total of the first this many passes.
const QOR_PASSES: usize = 16;
/// The committed per-operator totals of the large-suite sweep at the
/// engine's default seed.
const BASELINE: &str = "BENCH_bdd_baseline.json";

fn engine_config(seed: u64, obs: Option<Arc<obs::Registry>>) -> EngineConfig {
    EngineConfig {
        threads: THREADS,
        backend: Backend::Bdd,
        seed,
        reorder: Some(ReorderConfig { sift_threshold: SIFT_THRESHOLD, ..ReorderConfig::default() }),
        obs,
        ..EngineConfig::default()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let registry = args.trace.then(|| Arc::new(obs::Registry::new()));
    let pass_seed = |pass: usize| {
        DetRng::seed_from_u64(args.seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64()
    };
    // Set-up is the suite plus one warm-up pass at the engine's default
    // seed, which pays the first-touch allocation of the per-worker managers
    // and is the pass the committed baseline describes.
    let set_up = || {
        let suite = Suite::large();
        let report = sweep(&suite, &engine_config(EngineConfig::default().seed, None));
        (suite, report)
    };
    let mut setup_walls = Vec::new();
    let (suite, baseline_pass) = stats::time_setup(SETUP_ROUNDS, &mut setup_walls, set_up);

    // Whole passes until another one would overrun the measuring window.
    let mut passes: Vec<SweepReport> = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(sweep(&suite, &engine_config(pass_seed(passes.len()), registry.clone())));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (passes.len() + 1) as f64 / passes.len() as f64 > args.seconds {
            break;
        }
    }
    let timed = passes.len();
    let wall_s: f64 = passes.iter().map(|p| p.wall_micros as f64 / 1e6).sum();
    let nanos: Vec<u64> = passes.iter().flat_map(|p| p.jobs.iter().map(|j| j.nanos)).collect();
    println!("# {timed} passes of {} jobs in {wall_s:.3} s", passes[0].jobs.len());
    // Consecutive passes form the windows of the reported medians.
    let windows: Vec<Window> = passes
        .chunks(timed.div_ceil(WINDOWS))
        .map(|chunk| Window {
            wall_s: chunk.iter().map(|p| p.wall_micros as f64 / 1e6).sum(),
            ops: chunk.iter().map(|p| p.jobs.len() as u64).sum(),
            latencies_ns: chunk.iter().flat_map(|p| p.jobs.iter().map(|j| j.nanos)).collect(),
        })
        .collect();
    // Passes the quality total needs but the window did not reach run
    // untimed.
    while passes.len() < QOR_PASSES {
        passes.push(sweep(&suite, &engine_config(pass_seed(passes.len()), None)));
    }

    // Every job must verify and be maximally flexible, and the first and
    // the last timed pass must repeat exactly when run again.
    for job in passes.iter().flat_map(|p| &p.jobs) {
        outcome.attempted += 1;
        if !(job.verified && job.maximal) {
            outcome.failed += 1;
            eprintln!(
                "perfbench: bdd-large {} output {} {} failed",
                job.instance, job.output, job.op
            );
        }
    }
    for index in [0, timed - 1] {
        let again = sweep(&suite, &engine_config(pass_seed(index), None));
        if !again
            .jobs
            .iter()
            .map(JobResult::semantic)
            .eq(passes[index].jobs.iter().map(JobResult::semantic))
        {
            outcome.problem(format!("pass {index} did not repeat its results"));
        }
    }
    check_baseline(&baseline_pass, &mut outcome);
    stats::time_setup(SETUP_ROUNDS, &mut setup_walls, set_up);

    if let Some(registry) = registry {
        let counter = |name: &str| registry.counter(&format!("bdd.mgr.{name}")).get() as f64;
        let peak = passes.iter().flat_map(|p| &p.jobs).map(|j| j.bdd_nodes).max().unwrap_or(0);
        outcome.set("bdd.peak_nodes", peak as f64);
        outcome.set("bdd.unique_lookups", counter("unique_lookups"));
        outcome
            .set("bdd.unique_hit_ratio", ratio(counter("unique_hits"), counter("unique_lookups")));
        outcome.set("bdd.unique_probe_steps", counter("unique_probe_steps"));
        let apply = counter("apply_hits") + counter("apply_misses");
        outcome.set("bdd.apply_hit_ratio", ratio(counter("apply_hits"), apply));
        let ite = counter("ite_hits") + counter("ite_misses");
        outcome.set("bdd.ite_hit_ratio", ratio(counter("ite_hits"), ite));
        outcome.set("bdd.sift_passes", counter("sift_passes"));
        outcome.set("bdd.level_swaps", counter("level_swaps"));
        outcome.set("bdd.gc_runs", counter("gc_runs"));
        let busy: u64 = nanos.iter().sum();
        outcome.set("core.engine.busy_share", ratio(busy as f64 / 1e9, wall_s * THREADS as f64));
        let max_job = nanos.iter().copied().max().unwrap_or(0);
        outcome.set("core.engine.max_job_ms", max_job as f64 / 1e6);
    } else {
        outcome.set("setup_s", stats::median(setup_walls));
        stats::set_window_medians(&mut outcome, &windows, TAIL);
        let qor: u64 = passes[..QOR_PASSES].iter().flat_map(|p| &p.jobs).map(|j| j.bdd_nodes).sum();
        outcome.set("qor_size", qor as f64);
    }
    outcome
}

/// Requires `report`, a pass at the engine's default seed, to have the
/// per-operator `|h_on|` / `|h_dc|` totals of the committed baseline.
fn check_baseline(report: &SweepReport, outcome: &mut Outcome) {
    let text = match std::fs::read_to_string(BASELINE) {
        Ok(text) => text,
        Err(e) => return outcome.problem(format!("cannot read {BASELINE}: {e}")),
    };
    let baseline = match Value::parse(&text) {
        Ok(value) => value,
        Err(e) => return outcome.problem(format!("cannot parse {BASELINE}: {e}")),
    };
    let operators = baseline.get("operators").and_then(Value::as_array).unwrap_or(&[]);
    if operators.len() != report.operators.len() {
        return outcome.problem(format!(
            "{BASELINE} lists {} operators, the sweep {}",
            operators.len(),
            report.operators.len()
        ));
    }
    for stats in &report.operators {
        let expected = operators
            .iter()
            .find(|o| o.get("op").and_then(Value::as_str) == Some(stats.op.symbol()));
        let field = |name: &str| expected.and_then(|o| o.get(name)).and_then(Value::as_u64);
        if field("on_minterms") != Some(stats.on_minterms)
            || field("dc_minterms") != Some(stats.dc_minterms)
        {
            outcome.problem(format!(
                "{} totals |h_on| {} |h_dc| {} differ from {BASELINE}",
                stats.op, stats.on_minterms, stats.dc_minterms
            ));
        }
    }
}
