//! `synth-all`: `engine::sweep_synthesis` over `Suite::all` (140 jobs of at
//! most 12 inputs) with the default `RecursiveConfig` and 2 workers.
//!
//! The input set is the paper's Table III/IV functions and does not depend
//! on `--seed`; the seed is only recorded. The timed run repeats whole
//! sweeps; the traced run replays `RecursiveSynthesizer::synthesize_seeded`
//! call by call through the layers' public functions (see [`Replayer`]).

use std::collections::BTreeMap;
use std::time::Instant;

use benchmarks::{DetRng, Suite};
use bidecomp::decompose::combine_op;
use bidecomp::engine::{
    run_pool, sweep_synthesis, SynthesisConfig, SynthesisJobResult, SynthesisReport,
};
use bidecomp::{
    derive_strategy_divisor, full_quotient, verify_decomposition, verify_network, ApproxStrategy,
    RecursiveConfig, RecursiveSynthesizer,
};
use boolfunc::{Isf, TruthTable};
use sop::espresso_cover;
use spp::{SppForm, SppSynthesizer};
use techmap::{AreaModel, Network, NodeId};

use crate::stats::{self, ratio};
use crate::trace::{self, LayerTotals, Span, Tracer};
use crate::{Args, Outcome};

const THREADS: usize = 2;
/// `latency_tail_ms` is this quantile: of the 140 jobs, 14 lie beyond p90,
/// where p99 would leave one.
const TAIL: f64 = 0.90;
/// Set-up rounds at each of the three points of a run that `setup_s` is the
/// median over: before the output check, after it, and after the sweeps.
/// One round takes a few milliseconds, so a run affords many.
const SETUP_ROUNDS: usize = 15;

pub fn run(args: &Args) -> Outcome {
    println!("# synth-all does not depend on --seed: its inputs are the fixed Suite::all");
    if args.trace {
        traced()
    } else {
        timed(args)
    }
}

fn config() -> SynthesisConfig {
    SynthesisConfig { threads: THREADS, ..SynthesisConfig::default() }
}

/// The `(instance, output)` jobs of `sweep_synthesis`, in its order.
fn job_specs(suite: &Suite, config: &SynthesisConfig) -> Vec<(usize, usize)> {
    let mut specs = Vec::new();
    for (i, inst) in suite.instances().iter().enumerate() {
        if inst.num_inputs() <= config.max_inputs {
            specs.extend((0..inst.num_outputs().min(config.max_outputs)).map(|o| (i, o)));
        }
    }
    specs
}

fn function(suite: &Suite, (instance, output): (usize, usize)) -> &Isf {
    &suite.instances()[instance].outputs()[output]
}

/// The comparable part of one job: `(gates, depth, branches, mapped_area
/// bits, flat_area bits)`.
type Fingerprint = (usize, usize, usize, u64, u64);

/// What the sweep reported for `job`, as a [`Fingerprint`].
fn reported(job: &SynthesisJobResult) -> Fingerprint {
    (job.gates, job.depth, job.branches, job.mapped_area.to_bits(), job.flat_area.to_bits())
}

/// `true` if `network` output 0 agrees with `f` on every care minterm, by
/// `Network::eval`.
fn eval_matches(f: &Isf, network: &Network) -> bool {
    (0..1u64 << f.num_vars()).all(|m| f.value(m).is_none_or(|v| network.eval(m)[0] == v))
}

fn timed(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_walls = Vec::new();
    let suite = stats::time_setup(SETUP_ROUNDS, &mut setup_walls, Suite::all);
    let config = config();

    // Output check, untimed and before the windows (so it also warms the
    // allocator the first sweep would otherwise grow): synthesize every job
    // through the public synthesizer and re-evaluate its network on every
    // care minterm. Every timed sweep must then report the same results.
    let specs = job_specs(&suite, &config);
    let checked = run_pool(
        &specs,
        THREADS,
        || RecursiveSynthesizer::new(config.recursive.clone()),
        |synthesizer, &(i, o)| {
            let f = function(&suite, (i, o));
            let result = synthesizer
                .synthesize_seeded(f, config.job_seed(i, o))
                .expect("the default portfolio has no External strategy");
            let fingerprint = (
                result.gate_count(),
                result.tree.depth(),
                result.tree.num_branches(),
                result.mapped_area.to_bits(),
                result.flat_area.to_bits(),
            );
            (fingerprint, eval_matches(f, &result.network))
        },
    );

    stats::time_setup(SETUP_ROUNDS, &mut setup_walls, Suite::all);

    // Whole sweeps, as many as come nearest to filling the measuring
    // window: another one starts while it would end at most half a sweep
    // past the window.
    let mut reports: Vec<SynthesisReport> = Vec::new();
    let start = Instant::now();
    loop {
        reports.push(sweep_synthesis(&suite, &config));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / reports.len() as f64 / 2.0 > args.seconds {
            break;
        }
    }
    stats::time_setup(SETUP_ROUNDS, &mut setup_walls, Suite::all);
    outcome.set("setup_s", stats::median(setup_walls));
    // A run holds only two to four sweeps of several seconds each. The
    // throughput is taken over all of them together: the median of so few
    // would be the figure of a single sweep.
    let walls: Vec<f64> = reports.iter().map(|r| r.wall_micros as f64 / 1e6).collect();
    let listed: Vec<String> =
        walls.iter().map(|w| format!("{:.1}", specs.len() as f64 / w)).collect();
    println!("# {} sweeps, throughputs {}", walls.len(), listed.join(" "));
    let jobs: usize = reports.iter().map(|r| r.jobs.len()).sum();
    outcome.set("throughput_ops_per_s", jobs as f64 / walls.iter().sum::<f64>());
    // The latency of a job is its mean over the sweeps, like the
    // throughput: which job shares the two cores with it, and how fast the
    // host runs, change from sweep to sweep.
    let per_job: Vec<u64> = (0..specs.len())
        .map(|job| reports.iter().map(|r| r.jobs[job].nanos).sum::<u64>() / reports.len() as u64)
        .collect();
    println!("# {} jobs, each at its mean over the sweeps", per_job.len());
    stats::set_latency_quantiles(&mut outcome, &per_job, TAIL);
    let first = &reports[0];
    outcome.set("qor_size", first.total_gates() as f64);
    println!(
        "# gates_total {} mapped_area_total {}",
        first.total_gates(),
        first.jobs.iter().map(|j| j.mapped_area).sum::<f64>()
    );

    for report in &reports {
        for (job, (fingerprint, eval_ok)) in report.jobs.iter().zip(&checked) {
            outcome.attempted += 1;
            if !(job.verified && *eval_ok && reported(job) == *fingerprint) {
                outcome.failed += 1;
                eprintln!("perfbench: synth-all job {} output {} failed", job.instance, job.output);
            }
        }
    }
    outcome
}

fn traced() -> Outcome {
    let mut outcome = Outcome::default();
    let suite = Suite::all();
    let config = config();
    let specs = job_specs(&suite, &config);

    let untraced = sweep_synthesis(&suite, &config);
    let untraced_wall_s = untraced.wall_micros as f64 / 1e6;

    let start = Instant::now();
    let replays = run_pool(
        &specs,
        THREADS,
        || Replayer::new(&config.recursive),
        |replayer, &(i, o)| {
            let job_start = Instant::now();
            let job_id = (i * 64 + o) as u64;
            let out = replayer.synthesize(function(&suite, (i, o)), config.job_seed(i, o), job_id);
            (out, job_start.elapsed().as_nanos() as u64)
        },
    );
    let traced_wall_s = start.elapsed().as_secs_f64();

    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut counts = Counts::default();
    let (mut self_sum, mut job_wall_sum, mut span_count) = (0u64, 0u64, 0usize);
    for ((out, job_nanos), (job, &(i, o))) in replays.iter().zip(untraced.jobs.iter().zip(&specs)) {
        outcome.attempted += 1;
        self_sum += trace::accumulate(&out.spans, &mut layers);
        job_wall_sum += job_nanos;
        span_count += out.spans.len();
        counts.add(&out.counts);
        let reported = reported(job);
        let eval_ok = eval_matches(function(&suite, (i, o)), &out.network);
        if reported != out.fingerprint
            || !eval_ok
            || !out.verified
            || out.counts.verify_failures > 0
        {
            outcome.failed += 1;
            outcome.problem(format!(
                "replay of {} output {} differs from the untraced sweep: {reported:?} vs {:?}",
                job.instance, job.output, out.fingerprint
            ));
        }
    }

    for (layer, totals) in &layers {
        println!(
            "# span {layer:<24} calls {:>8} self {:>10.6} s",
            totals.calls,
            secs(totals.self_nanos)
        );
    }
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let set_layer =
        |outcome: &mut Outcome, name: &str, calls: &'static str, self_s: &'static str| {
            let totals = layer(name);
            outcome.set(calls, totals.calls as f64);
            outcome.set(self_s, secs(totals.self_nanos));
        };
    set_layer(
        &mut outcome,
        "boolfunc.minterm_cover",
        "boolfunc.minterm_cover.calls",
        "boolfunc.minterm_cover.self_s",
    );
    set_layer(&mut outcome, "sop.espresso", "sop.espresso.calls", "sop.espresso.self_s");
    set_layer(&mut outcome, "spp.merge", "spp.merge.calls", "spp.merge.self_s");
    set_layer(
        &mut outcome,
        "core.decompose.divisor",
        "core.decompose.divisor.calls",
        "core.decompose.divisor.self_s",
    );
    set_layer(&mut outcome, "core.quotient", "core.quotient.calls", "core.quotient.self_s");
    set_layer(&mut outcome, "core.verify", "core.verify.calls", "core.verify.self_s");
    set_layer(&mut outcome, "techmap.area", "techmap.area.calls", "techmap.area.self_s");
    set_layer(&mut outcome, "techmap.map", "techmap.map.calls", "techmap.map.self_s");
    set_layer(&mut outcome, "techmap.build", "techmap.build.calls", "techmap.build.self_s");
    outcome.set("core.recursive.self_s", secs(layer("core.recursive").self_nanos));

    outcome.set("boolfunc.minterm_cover.cubes", counts.minterm_cubes as f64);
    outcome.set("sop.espresso.cubes_in", counts.espresso_cubes_in as f64);
    outcome.set("sop.espresso.cubes_out", counts.espresso_cubes_out as f64);
    outcome.set("spp.merge.literals_out", counts.merge_literals_out as f64);
    outcome.set("core.quotient.invalid", counts.quotient_invalid as f64);
    outcome.set("core.recursive.nodes", counts.nodes as f64);
    outcome.set("core.recursive.candidates_tried", counts.tried as f64);
    outcome.set("core.recursive.candidates_won", counts.won as f64);
    outcome
        .set("core.recursive.candidate_win_ratio", ratio(counts.won as f64, counts.tried as f64));

    let busy: u64 = untraced.jobs.iter().map(|j| j.nanos).sum();
    let max_job = untraced.jobs.iter().map(|j| j.nanos).max().unwrap_or(0);
    outcome.set("core.engine.busy_share", ratio(secs(busy), untraced_wall_s * THREADS as f64));
    outcome.set("core.engine.max_job_ms", max_job as f64 / 1e6);
    outcome.set("techmap.mapped_area_total", untraced.jobs.iter().map(|j| j.mapped_area).sum());

    outcome.set("trace.spans", span_count as f64);
    outcome.set("trace.self_sum_share", ratio(self_sum as f64, job_wall_sum as f64));
    outcome.set("trace.untraced_wall_s", untraced_wall_s);
    outcome.set("trace.traced_wall_s", traced_wall_s);
    outcome.set("trace.overhead_s", traced_wall_s - untraced_wall_s);
    outcome
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Work counts of one replayed job, recorded beside its spans.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    minterm_cubes: u64,
    espresso_cubes_in: u64,
    espresso_cubes_out: u64,
    merge_literals_out: u64,
    quotient_invalid: u64,
    nodes: u64,
    tried: u64,
    won: u64,
    verify_failures: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.minterm_cubes += other.minterm_cubes;
        self.espresso_cubes_in += other.espresso_cubes_in;
        self.espresso_cubes_out += other.espresso_cubes_out;
        self.merge_literals_out += other.merge_literals_out;
        self.quotient_invalid += other.quotient_invalid;
        self.nodes += other.nodes;
        self.tried += other.tried;
        self.won += other.won;
        self.verify_failures += other.verify_failures;
    }
}

/// One replayed job.
struct ReplayOut {
    fingerprint: Fingerprint,
    network: Network,
    verified: bool,
    spans: Vec<Span>,
    counts: Counts,
}

/// One scored portfolio candidate (the replay's copy of the synthesizer's).
struct Candidate {
    op: bidecomp::BinaryOp,
    area: f64,
    g_isf: Isf,
    h: Isf,
    g_form: SppForm,
    h_form: SppForm,
}

/// Replays `RecursiveSynthesizer::synthesize_seeded` with the same public
/// calls in the same order, recording a span around each:
///
/// * `boolfunc.minterm_cover`, `sop.espresso`, `spp.merge` — the three steps
///   of `SppSynthesizer::synthesize`;
/// * `core.decompose.divisor` — `derive_strategy_divisor`, which includes the
///   re-synthesis `FullExpansion::approximate` runs internally;
/// * `core.quotient` — `full_quotient`;
/// * `core.verify` — `verify_decomposition` on every candidate (a debug-build
///   assertion in the program, a few microseconds per call) and
///   `verify_network` on the finished network;
/// * `techmap.area`, `techmap.map`, `techmap.build` — `AreaModel`,
///   `Mapper::map` and the `Network` construction calls;
/// * `core.recursive` — the job and each recursion node; its self time is the
///   recursion's own work (termination tests, candidate bookkeeping).
struct Replayer<'a> {
    config: &'a RecursiveConfig,
    synthesizer: SppSynthesizer,
    area: AreaModel,
    tracer: Tracer,
    counts: Counts,
}

impl<'a> Replayer<'a> {
    fn new(config: &'a RecursiveConfig) -> Self {
        Replayer {
            config,
            synthesizer: SppSynthesizer::new(),
            area: AreaModel::mcnc(),
            tracer: Tracer::new(0),
            counts: Counts::default(),
        }
    }

    fn synthesize(&mut self, f: &Isf, seed: u64, job_id: u64) -> ReplayOut {
        self.tracer = Tracer::new(job_id);
        self.counts = Counts::default();
        let root = self.tracer.enter("core.recursive");
        let mut network = Network::new(f.num_vars());
        let flat_form = self.spp(f);
        let flat_area = self.tracer.time("techmap.area", || self.area.spp_area(&flat_form));
        let (depth, branches, node) = self.node(f, &flat_form, flat_area, 0, seed, &mut network);
        network.add_output(node);
        let mapped_area = self.tracer.time("techmap.map", || self.area.mapper().map(&network).area);
        let verified = self.tracer.time("core.verify", || verify_network(f, &network, 0));
        self.tracer.exit(root);
        let tracer = std::mem::replace(&mut self.tracer, Tracer::new(0));
        ReplayOut {
            fingerprint: (
                network.gate_count(),
                depth,
                branches,
                mapped_area.to_bits(),
                flat_area.to_bits(),
            ),
            network,
            verified,
            spans: tracer.into_spans(),
            counts: self.counts,
        }
    }

    /// `SppSynthesizer::synthesize`, step by step.
    fn spp(&mut self, f: &Isf) -> SppForm {
        let on = self.tracer.time("boolfunc.minterm_cover", || f.on().to_minterm_cover());
        let dc = self.tracer.time("boolfunc.minterm_cover", || f.dc().to_minterm_cover());
        let cubes_in = (on.num_cubes() + dc.num_cubes()) as u64;
        let options = self.synthesizer.options().espresso;
        let seed = self.tracer.time("sop.espresso", || espresso_cover(&on, &dc, options));
        let form = self.tracer.time("spp.merge", || self.synthesizer.improve_cover(&seed));
        self.counts.minterm_cubes += cubes_in;
        self.counts.espresso_cubes_in += cubes_in;
        self.counts.espresso_cubes_out += seed.num_cubes() as u64;
        self.counts.merge_literals_out += form.literal_count() as u64;
        form
    }

    /// One recursion node: returns `(depth, branches, root)` of its subtree.
    fn node(
        &mut self,
        f: &Isf,
        f_form: &SppForm,
        flat_area: f64,
        depth: usize,
        seed: u64,
        net: &mut Network,
    ) -> (usize, usize, NodeId) {
        let span = self.tracer.enter("core.recursive");
        self.counts.nodes += 1;
        let result = self.node_body(f, f_form, flat_area, depth, seed, net);
        self.tracer.exit(span);
        result
    }

    fn node_body(
        &mut self,
        f: &Isf,
        f_form: &SppForm,
        flat_area: f64,
        depth: usize,
        seed: u64,
        net: &mut Network,
    ) -> (usize, usize, NodeId) {
        let leaf = |node| (0, 0, node);
        if f.on().is_zero() {
            return leaf(self.tracer.time("techmap.build", || net.constant(false)));
        }
        if f.off().is_zero() {
            return leaf(self.tracer.time("techmap.build", || net.constant(true)));
        }
        for var in 0..f.num_vars() {
            let x = TruthTable::variable(f.num_vars(), var);
            if f.is_completion(&x) {
                return leaf(self.tracer.time("techmap.build", || net.input(var)));
            }
            if f.is_completion(&!&x) {
                return leaf(self.tracer.time("techmap.build", || {
                    let input = net.input(var);
                    net.not(input)
                }));
            }
        }
        if f_form.num_pseudoproducts() <= 1 || depth >= self.config.max_depth {
            return leaf(self.tracer.time("techmap.build", || net.build_spp(f_form)));
        }

        let config = self.config;
        let mut best: Option<Candidate> = None;
        for &(op, strategy) in &config.portfolio {
            let strategy = mix_strategy(strategy, seed);
            let divisor = self.tracer.time("core.decompose.divisor", || {
                derive_strategy_divisor(f, f_form, op, strategy, &self.synthesizer)
            });
            let Ok(g) = divisor else { continue };
            let quotient = self.tracer.time("core.quotient", || full_quotient(f, &g, op));
            let Ok(h) = quotient else {
                self.counts.quotient_invalid += 1;
                continue;
            };
            if !self.tracer.time("core.verify", || verify_decomposition(f, &g, &h, op)) {
                self.counts.verify_failures += 1;
            }
            self.counts.tried += 1;
            let g_isf = Isf::completely_specified(g);
            let g_form = self.spp(&g_isf);
            let h_form = self.spp(&h);
            let area = self.tracer.time("techmap.area", || {
                self.area.bidecomposition_area(&g_form, &h_form, combine_op(op))
            });
            if area + config.min_gain > flat_area {
                continue;
            }
            if best.as_ref().is_none_or(|b| area < b.area) {
                best = Some(Candidate { op, area, g_isf, h, g_form, h_form });
            }
        }
        let Some(c) = best else {
            return leaf(self.tracer.time("techmap.build", || net.build_spp(f_form)));
        };
        self.counts.won += 1;
        let g_area = self.tracer.time("techmap.area", || self.area.spp_area(&c.g_form));
        let h_area = self.tracer.time("techmap.area", || self.area.spp_area(&c.h_form));
        let (g_depth, g_branches, g_node) =
            self.node(&c.g_isf, &c.g_form, g_area, depth + 1, child_seed(seed, 0), net);
        let (h_depth, h_branches, h_node) =
            self.node(&c.h, &c.h_form, h_area, depth + 1, child_seed(seed, 1), net);
        let root =
            self.tracer.time("techmap.build", || net.combine(g_node, h_node, combine_op(c.op)));
        (1 + g_depth.max(h_depth), 1 + g_branches + h_branches, root)
    }
}

/// The synthesizer's per-node mixing of `Seeded` portfolio entries.
fn mix_strategy(strategy: ApproxStrategy, seed: u64) -> ApproxStrategy {
    match strategy {
        ApproxStrategy::Seeded { seed: base } => {
            ApproxStrategy::Seeded { seed: DetRng::seed_from_u64(base ^ seed).next_u64() }
        }
        other => other,
    }
}

/// The synthesizer's sub-seed of child `index` (0 = divisor, 1 = quotient).
fn child_seed(seed: u64, index: u64) -> u64 {
    DetRng::seed_from_u64(seed.wrapping_mul(2).wrapping_add(index + 1)).next_u64()
}
