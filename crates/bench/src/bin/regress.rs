//! The CI regression gate: compares a fresh benchmark artifact against its
//! committed baseline and exits non-zero on regression.
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin regress -- \
//!     [--baseline PATH] [--current PATH] [--tolerance F]
//! ```
//!
//! Baseline and current must carry the same `schema`. Its row of [`GATES`]
//! lists the [`Check`]s that one interpreter runs over the two documents,
//! and every failure names the dotted path of its field
//! (`operators[AND].on_minterms`, `robustness.sheds`, `scaling.rows[bdd@4]`).
//! Deterministic fields — the Table II quotient statistics, the Lemma
//! verdicts, synthesis results, workload shapes and fault plans — are exact.
//! Same-process ratios are banded by `--tolerance` (default 0.75). Raw wall
//! times and latencies differ between hosts and are reported, never
//! compared. Two checks are not per-field and stay plain functions:
//! [`scaling_speedups`] and [`scrape_accounting`].
//!
//! Exit codes: 0 OK; 1 a gate failed or an artifact is unreadable or
//! malformed; 2 bad command line.

use std::collections::BTreeSet;
use std::process::ExitCode;

use bidecomp_bench::cli::ArgCursor;
use bidecomp_bench::json::Value;
use Check::*;

/// Headroom of the peak-node ceilings. The peaks are deterministic (fixed
/// suite, seeded divisors, no time-based reorder triggers), so the band only
/// leaves room for deliberate small algorithmic changes.
const NODE_TOLERANCE: f64 = 0.05;

/// `Err` when an artifact is malformed; gate failures are collected apart.
type Verdict = Result<(), String>;

/// Field names a check applies to, one by one.
type Keys = &'static [&'static str];

/// One gate over fields of the baseline and current documents. A field a
/// check reads must exist, or the artifact is malformed.
enum Check {
    /// Equal: exact for integers, strings and bools, within 1e-6 for floats.
    Same(Keys),
    /// The current value is 0.
    Zero(Keys),
    /// The current value is `true`.
    True(Keys),
    /// The current value of the first field equals that of the second.
    Equal(&'static str, &'static str),
    /// A same-process ratio: current ≥ max(1, baseline × (1 − tolerance)).
    Floor(&'static str),
    /// A deterministic node count: current ≤ baseline × (1 + [`NODE_TOLERANCE`]).
    /// Gated when the baseline records a positive count.
    NodeCeiling(&'static str),
    /// A rate: current ≥ baseline − 0.05 (five points).
    PointsFloor(&'static str),
    /// A same-process overhead ratio: current ≤ 1 + tolerance, whatever the
    /// baseline's own ratio.
    AbsCeiling(&'static str),
    /// A cross-host latency: current ≤ baseline × (1 + 4 × tolerance), a band
    /// wide enough to catch only order-of-magnitude regressions. Gated when
    /// the baseline is positive.
    LatencyCeiling(&'static str),
    /// `Rows(array, key, checks)`: rows matched on the `key` fields. Every
    /// baseline row has a current row with its key, `checks` run on each
    /// pair, and the row counts agree.
    Rows(&'static str, Keys, &'static [Check]),
    /// A nested object, gated only when the baseline carries it.
    Block(&'static str, &'static [Check]),
    /// Reported, never compared.
    Info(Keys),
    /// A check over a whole (sub)document that is not per-field.
    Func(fn(&mut Gate<'_>, &Value, &Value, &str) -> Verdict),
}

/// The gate table: one row per artifact schema.
const GATES: &[(&str, &[Check])] = &[
    // `sweep` and `bdd_sweep`: per-operator Table II statistics, the BDD
    // peak, the reference-over-engine speedup (both arms at one thread) and
    // the BDD sweep's thread-scaling arm.
    ("bidecomp-sweep-v1", SWEEP),
    // `synth_sweep`: fully deterministic, one row per (instance, output).
    ("bidecomp-synth-v1", SYNTH),
    // `service_loadgen`: the workload shape, zero errors, the cached-over-cold
    // speedup, the cached arm's NPN hit rate, the happy-path robustness
    // counters and the server's own `--scrape` snapshot.
    ("bidecomp-service-v1", SERVICE),
    // `service_loadgen --chaos`: the seeded workload and fault plan, and the
    // absolute robustness contract under them.
    ("bidecomp-service-chaos-v1", CHAOS),
    // `oracle_fuzz`: the seeded corpus and the three judges' verdict split.
    ("bidecomp-oracle-v1", ORACLE),
    // `obs_overhead`: the job shape and the metrics registry's cost.
    ("bidecomp-obs-overhead-v1", OBS_OVERHEAD),
];

const SWEEP: &[Check] = &[
    Same(&["suite", "jobs", "verified", "maximal"]),
    Rows(
        "operators",
        &["op"],
        &[
            Same(&["jobs", "verified", "maximal"]),
            Same(&["on_minterms", "dc_minterms", "divisor_errors"]),
        ],
    ),
    NodeCeiling("peak_bdd_nodes"),
    Floor("speedup"),
    Info(&["engine_wall_ms"]),
    // One fingerprint over every job's quotients and verdicts: `bdd_sweep`
    // refuses to emit rows whose fingerprints differ across thread counts.
    Block(
        "scaling",
        &[
            Same(&["jobs", "semantic_fp"]),
            NodeCeiling("private_peak_nodes"),
            Rows("rows", &["backend", "threads"], &[]),
            Func(scaling_speedups),
        ],
    ),
];

const SYNTH: &[Check] = &[
    Same(&["suite", "jobs", "verified", "total_gates", "total_branches"]),
    Same(&["average_gain_percent"]),
    Rows(
        "instances",
        &["instance", "output"],
        &[
            Same(&["num_vars", "gates", "depth", "branches", "verified"]),
            Same(&["mapped_area", "flat_area", "gain_percent"]),
        ],
    ),
    Info(&["wall_ms"]),
];

const SERVICE: &[Check] = &[
    Same(&["requests", "synthesize", "decompose", "connections", "num_vars", "bases"]),
    Same(&["repeat_ratio"]),
    Zero(&["errors"]),
    Floor("speedup"),
    PointsFloor("hit_rate"),
    Block("cold", &[Info(&["p50_ms", "p99_ms"])]),
    Block("cached", &[Info(&["p50_ms", "p99_ms"])]),
    Block(
        "robustness",
        &[
            Same(&["sheds", "timeouts", "panics"]),
            Same(&["rejected_connections", "slow_clients", "line_overflows"]),
        ],
    ),
    Block(
        "scrape",
        &[
            Same(&["schema"]),
            Block("counters", &[Zero(&["server.panics"])]),
            Block(
                "verbs",
                &[
                    Block("decompose", &[Info(&["p50_ms"]), LatencyCeiling("p99_ms")]),
                    Block("synthesize", &[Info(&["p50_ms"]), LatencyCeiling("p99_ms")]),
                ],
            ),
            Func(scrape_accounting),
        ],
    ),
];

const CHAOS: &[Check] = &[
    Same(&["requests", "connections", "num_vars", "bases", "recovery_requests"]),
    Same(&["repeat_ratio"]),
    Block("faults", &[Same(&["panic_per_mille", "delay_per_mille", "delay_ms", "drop_per_mille"])]),
    Equal("completed", "requests"),
    Zero(&["lost", "corrupted", "recovery_errors"]),
    True(&["recovered"]),
    Info(&["retries", "overloads_seen", "internal_seen", "reconnects", "p50_ms", "p99_ms"]),
];

const ORACLE: &[Check] = &[
    Same(&["seed", "cases", "min_vars", "max_vars", "ops", "checks"]),
    Same(&["valid_divisors", "invalid_divisors", "tamper_checks"]),
    Zero(&["disagreements"]),
    True(&["tamper_rejected"]),
    Info(&["tamper_lemma", "wall_ms"]),
];

const OBS_OVERHEAD: &[Check] = &[
    Same(&["suite", "jobs"]),
    AbsCeiling("overhead_ratio"),
    Info(&["wall_off_micros", "wall_on_micros"]),
];

/// The `bdd` rows' speedups over their own 1-thread row, from the current
/// run only. Wall-clock scaling exists only where hardware parallelism
/// does, so the checks engage by the current run's `host_threads`: with 2+
/// the speedups must improve over 1/2/4 threads within the tolerance band
/// and exceed 1.0 at the largest of those counts; with 4+ the 8-thread
/// speedup must also hold `max(1, speedup(4) × (1 − tolerance))`.
fn scaling_speedups(gate: &mut Gate<'_>, _: &Value, cur: &Value, at: &str) -> Verdict {
    let file = gate.args.current.as_str();
    let mut walls = Vec::new();
    for row in rows(cur, "rows", file, at)? {
        if row.get("backend").and_then(Value::as_str) == Some("bdd") {
            let (threads, wall) =
                (number(row, "threads", file, at)?, number(row, "wall_ms", file, at)?);
            walls.push((threads as u64, wall));
        }
    }
    walls.sort_by_key(|&(threads, _)| threads);
    let Some(&(1, wall_1t)) = walls.first() else {
        return Err(format!("{file}: {at}.rows lack a 1-thread bdd row"));
    };
    let speedups: Vec<(u64, f64)> =
        walls.iter().map(|&(t, wall)| (t, wall_1t / wall.max(f64::MIN_POSITIVE))).collect();
    let speedup = |threads| speedups.iter().find(|s| s.0 == threads).map(|s| s.1);
    let host = number(cur, "host_threads", file, at)?;
    let summary: Vec<String> = speedups.iter().map(|(t, s)| format!("{s:.2}x@{t}t")).collect();
    println!("{at}: bdd speedups on a {host}-hardware-thread host: {}", summary.join(" "));
    if host < 2.0 {
        println!("{at}: speedups reported only (the host has no hardware parallelism)");
        return Ok(());
    }
    let tol = gate.args.tolerance;
    let gated: Vec<(u64, f64)> =
        [1, 2, 4].into_iter().filter_map(|t| Some((t, speedup(t)?))).collect();
    for pair in gated.windows(2) {
        let ((t0, s0), (t1, s1)) = (pair[0], pair[1]);
        if s1 < s0 * (1.0 - tol) {
            gate.fail(format!(
                "{at}.rows[bdd@{t1}] speedup {s1:.2}x fell below the banded {s0:.2}x at {t0} \
                 threads (floor {:.2}x, tolerance {tol})",
                s0 * (1.0 - tol)
            ));
        }
    }
    if let Some(&(top, s)) = gated.last().filter(|&&(top, s)| top > 1 && s < 1.0) {
        gate.fail(format!(
            "{at}.rows[bdd@{top}] speedup {s:.2}x: threading must beat the 1-thread run on a \
             {host}-hardware-thread host"
        ));
    }
    if let (true, Some(s4), Some(s8)) = (host >= 4.0, speedup(4), speedup(8)) {
        let floor = (s4 * (1.0 - tol)).max(1.0);
        if s8 < floor {
            gate.fail(format!(
                "{at}.rows[bdd@8] speedup {s8:.2}x fell below the floor {floor:.2}x \
                 (4-thread {s4:.2}x, tolerance {tol})"
            ));
        }
    }
    Ok(())
}

/// The server's counter name set is exact (instrumentation must not
/// silently appear or vanish). Zero lost: both arms replay the workload
/// once, so the server must count exactly twice the client-side verb totals,
/// in its counters and in its latency histograms.
fn scrape_accounting(gate: &mut Gate<'_>, base: &Value, cur: &Value, at: &str) -> Verdict {
    let (bfile, cfile) = (gate.args.baseline.as_str(), gate.args.current.as_str());
    let names = |doc: &Value, file: &str| match doc.get("counters") {
        Some(Value::Object(fields)) => Ok(fields.iter().map(|(k, _)| k.clone()).collect()),
        _ => Err(format!("{file}: {at}.counters is not an object")),
    };
    let (base_names, cur_names): (BTreeSet<String>, BTreeSet<String>) =
        (names(base, bfile)?, names(cur, cfile)?);
    println!("{at}.counters: {} names (compared exactly)", base_names.len());
    for name in base_names.difference(&cur_names) {
        gate.fail(format!("{at}.counters.{name} vanished from the current run"));
    }
    for name in cur_names.difference(&base_names) {
        gate.fail(format!("{at}.counters.{name} appeared without a baseline"));
    }
    let (counters, verbs) = (field(cur, "counters", cfile, at)?, field(cur, "verbs", cfile, at)?);
    for verb in ["decompose", "synthesize"] {
        let sent = 2.0 * number(gate.current, verb, cfile, "")?;
        let hist = field(verbs, verb, cfile, &join(at, "verbs"))?;
        let hist_at = format!("{at}.verbs.{verb}");
        for (path, n) in [
            (
                format!("{at}.counters.server.{verb}"),
                number(counters, &format!("server.{verb}"), cfile, at)?,
            ),
            (format!("{hist_at}.count"), number(hist, "count", cfile, &hist_at)?),
        ] {
            if n != sent {
                gate.fail(format!("{path} is {n}, the two arms sent {sent}"));
            }
        }
        let (p50, p99) =
            (number(hist, "p50_ms", cfile, &hist_at)?, number(hist, "p99_ms", cfile, &hist_at)?);
        if p50 > p99 {
            gate.fail(format!("{hist_at}.p50_ms {p50} exceeds its p99 {p99}"));
        }
    }
    Ok(())
}

/// The interpreter's state: the command line, the whole current document
/// (for checks that relate a block to the workload) and the failures so far.
struct Gate<'a> {
    args: &'a Args,
    current: &'a Value,
    failures: Vec<String>,
}

impl Gate<'_> {
    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Runs `checks` on a (sub)document pair found at dotted path `at`.
    fn run(&mut self, checks: &[Check], base: &Value, cur: &Value, at: &str) -> Verdict {
        let (bfile, cfile, tol) =
            (self.args.baseline.as_str(), self.args.current.as_str(), self.args.tolerance);
        for check in checks {
            match *check {
                Same(keys) => {
                    for &key in keys {
                        let (b, c) = (field(base, key, bfile, at)?, field(cur, key, cfile, at)?);
                        if !same(b, c) {
                            let path = join(at, key);
                            self.fail(format!("{path} differs: baseline {b} vs current {c}"));
                        }
                    }
                }
                Zero(keys) | True(keys) => {
                    let want =
                        if matches!(check, Zero(_)) { Value::Num(0.0) } else { Value::Bool(true) };
                    for &key in keys {
                        let c = field(cur, key, cfile, at)?;
                        if *c != want {
                            self.fail(format!("{} is {c}, must be {want}", join(at, key)));
                        }
                    }
                }
                Equal(key, other) => {
                    let (c, o) = (field(cur, key, cfile, at)?, field(cur, other, cfile, at)?);
                    if !same(c, o) {
                        let (path, other) = (join(at, key), join(at, other));
                        self.fail(format!("{path} is {c}, must equal {other} {o}"));
                    }
                }
                Floor(key) | NodeCeiling(key) | PointsFloor(key) | AbsCeiling(key)
                | LatencyCeiling(key) => {
                    let optional = matches!(check, NodeCeiling(_) | LatencyCeiling(_));
                    if optional && base.get(key).and_then(Value::as_f64).unwrap_or(0.0) <= 0.0 {
                        continue;
                    }
                    let b = number(base, key, bfile, at)?;
                    let (limit, is_floor) = match check {
                        Floor(_) => ((b * (1.0 - tol)).max(1.0), true),
                        NodeCeiling(_) => ((b * (1.0 + NODE_TOLERANCE)).floor(), false),
                        PointsFloor(_) => (b - 0.05, true),
                        AbsCeiling(_) => (1.0 + tol, false),
                        _ => (b * (1.0 + 4.0 * tol), false),
                    };
                    let c = number(cur, key, cfile, at)?;
                    let (bound, ok) =
                        if is_floor { ("floor", c >= limit) } else { ("ceiling", c <= limit) };
                    let path = join(at, key);
                    println!("{path}: baseline {b}, current {c} ({bound} {limit:.3})");
                    if !ok {
                        self.fail(format!(
                            "{path} regressed: {c} is past the {bound} {limit:.3} \
                             (baseline {b}, tolerance {tol})"
                        ));
                    }
                }
                Rows(array, key, checks) => {
                    let (base_rows, cur_rows) =
                        (rows(base, array, bfile, at)?, rows(cur, array, cfile, at)?);
                    let id = |row: &Value| {
                        let parts: Vec<String> =
                            key.iter().map(|k| row.get(k).map_or("?".into(), plain)).collect();
                        parts.join("@")
                    };
                    let path = join(at, array);
                    for base_row in base_rows {
                        let row_path = format!("{path}[{}]", id(base_row));
                        match cur_rows.iter().find(|r| id(r) == id(base_row)) {
                            Some(cur_row) => self.run(checks, base_row, cur_row, &row_path)?,
                            None => self.fail(format!("{row_path} missing from the current run")),
                        }
                    }
                    let (n, base_n) = (cur_rows.len(), base_rows.len());
                    if n != base_n {
                        self.fail(format!("{path} has {n} rows, the baseline {base_n}"));
                    }
                }
                Block(key, checks) => {
                    if let Some(b) = base.get(key) {
                        self.run(checks, b, field(cur, key, cfile, at)?, &join(at, key))?;
                    }
                }
                Info(keys) => {
                    for &key in keys {
                        let (b, c) = (field(base, key, bfile, at)?, field(cur, key, cfile, at)?);
                        println!("{}: baseline {b}, current {c} (reported only)", join(at, key));
                    }
                }
                Func(check) => check(self, base, cur, at)?,
            }
        }
        Ok(())
    }
}

fn same(b: &Value, c: &Value) -> bool {
    match (b, c) {
        (Value::Num(b), Value::Num(c)) => (b - c).abs() <= 1e-6,
        _ => b == c,
    }
}

/// A row key part: strings without their quotes.
fn plain(v: &Value) -> String {
    v.as_str().map_or_else(|| v.to_string(), str::to_string)
}

fn join(at: &str, key: &str) -> String {
    if at.is_empty() {
        key.to_string()
    } else {
        format!("{at}.{key}")
    }
}

fn field<'v>(doc: &'v Value, key: &str, file: &str, at: &str) -> Result<&'v Value, String> {
    doc.get(key).ok_or_else(|| format!("{file}: missing field {}", join(at, key)))
}

fn number(doc: &Value, key: &str, file: &str, at: &str) -> Result<f64, String> {
    field(doc, key, file, at)?
        .as_f64()
        .ok_or_else(|| format!("{file}: {} is not a number", join(at, key)))
}

fn rows<'v>(doc: &'v Value, key: &str, file: &str, at: &str) -> Result<&'v [Value], String> {
    field(doc, key, file, at)?
        .as_array()
        .ok_or_else(|| format!("{file}: {} is not an array", join(at, key)))
}

struct Args {
    baseline: String,
    current: String,
    tolerance: f64,
}

/// Exits with code 2 on any unknown flag, missing value or unparsable
/// tolerance (via [`ArgCursor`]): a typo must not silently run the CI gate
/// with defaults (e.g. a looser tolerance band or the wrong baseline path).
fn parse_args() -> Args {
    let mut args = Args {
        baseline: "BENCH_baseline.json".to_string(),
        current: "BENCH_sweep.json".to_string(),
        tolerance: 0.75,
    };
    let mut argv = ArgCursor::from_env("regress");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--baseline" => args.baseline = argv.value(&flag),
            "--current" => args.current = argv.value(&flag),
            "--tolerance" => args.tolerance = argv.float(&flag),
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The failures of `current` against `baseline` under the schema's gates.
fn compare(args: &Args, baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    let base_schema = field(baseline, "schema", &args.baseline, "")?;
    let cur_schema = field(current, "schema", &args.current, "")?;
    if base_schema != cur_schema {
        return Err(format!("schema mismatch: baseline is {base_schema}, current is {cur_schema}"));
    }
    let (_, checks) = GATES
        .iter()
        .find(|(name, _)| base_schema.as_str() == Some(name))
        .ok_or_else(|| format!("{}: unknown schema {base_schema}", args.baseline))?;
    let mut gate = Gate { args, current, failures: Vec::new() };
    gate.run(checks, baseline, current, "")?;
    Ok(gate.failures)
}

fn main() -> ExitCode {
    let args = parse_args();
    let result = load(&args.baseline)
        .and_then(|baseline| Ok((baseline, load(&args.current)?)))
        .and_then(|(baseline, current)| compare(&args, &baseline, &current));
    match result {
        Err(message) => {
            eprintln!("regress: {message}");
            ExitCode::FAILURE
        }
        Ok(failures) if failures.is_empty() => {
            println!("regress: OK — current run matches the baseline");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for failure in &failures {
                eprintln!("regress: FAIL — {failure}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The failures of `baseline` against itself with the first `from` in
    /// its text replaced by `to`.
    fn failures(baseline: &str, tolerance: f64, from: &str, to: &str) -> Vec<String> {
        let base = Value::parse(baseline).unwrap();
        let cur = Value::parse(&baseline.replacen(from, to, 1)).unwrap();
        let args = Args { baseline: "base".into(), current: "cur".into(), tolerance };
        compare(&args, &base, &cur).unwrap()
    }

    #[test]
    fn failures_name_their_dotted_field_path() {
        let bdd = include_str!("../../../../BENCH_bdd_baseline.json");
        let f = failures(bdd, 0.2, "\"on_minterms\": 1102318841500", "\"on_minterms\": 1");
        assert!(f[0].starts_with("operators[AND].on_minterms differs"), "{f:?}");
        let f = failures(bdd, 0.2, "\"threads\": 4", "\"threads\": 5");
        assert!(f[0].starts_with("scaling.rows[bdd@4] missing"), "{f:?}");
        let service = include_str!("../../../../BENCH_service_baseline.json");
        let f = failures(service, 0.35, "\"sheds\": 0", "\"sheds\": 1");
        assert_eq!(f, ["robustness.sheds differs: baseline 0 vs current 1"]);
        let f = failures(service, 0.35, "\"cache.hits\"", "\"cache.hitz\"");
        assert_eq!(
            f,
            [
                "scrape.counters.cache.hits vanished from the current run",
                "scrape.counters.cache.hitz appeared without a baseline"
            ]
        );
    }
}
