//! The `regress` gate, driven end to end: every committed baseline compared
//! with itself passes, and at least one perturbation per gate kind per
//! schema — written to a temp file built from the committed baseline — makes
//! the binary exit 1 with `regress: FAIL` on stderr. Boundary cases that
//! must still pass pin the bands from the other side.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use bidecomp_bench::json::{self, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn baseline_path(name: &str) -> PathBuf {
    repo_root().join(name)
}

fn load(name: &str) -> Value {
    let text = std::fs::read_to_string(baseline_path(name)).expect("committed baseline");
    Value::parse(&text).expect("baseline parses")
}

/// The tolerance CI passes for each baseline (`None`: the default).
fn ci_tolerance(baseline: &str) -> Option<&'static str> {
    match baseline {
        "BENCH_bdd_baseline.json" => Some("0.2"),
        "BENCH_service_baseline.json" => Some("0.35"),
        "BENCH_obs_overhead_baseline.json" => Some("0.10"),
        _ => None,
    }
}

/// A temp file holding `doc`, removed on drop.
struct TempDoc(PathBuf);

impl TempDoc {
    fn new(doc: &Value) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("regress_gates_{}_{n}.json", std::process::id()));
        std::fs::write(&path, json::pretty(doc)).expect("write temp artifact");
        TempDoc(path)
    }
}

impl Drop for TempDoc {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn regress(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regress")).args(args).output().expect("run regress")
}

fn run_paths(baseline: &Path, current: &Path, tolerance: Option<&str>) -> Output {
    let (baseline, current) = (baseline.to_str().unwrap(), current.to_str().unwrap());
    let mut args = vec!["--baseline", baseline, "--current", current];
    if let Some(tolerance) = tolerance {
        args.extend(["--tolerance", tolerance]);
    }
    regress(&args)
}

/// Gates `current` against the committed `baseline` at CI's tolerance.
fn gate(baseline: &str, current: &Value) -> Output {
    gate_at(baseline, current, ci_tolerance(baseline))
}

fn gate_at(baseline: &str, current: &Value, tolerance: Option<&str>) -> Output {
    let current = TempDoc::new(current);
    run_paths(&baseline_path(baseline), &current.0, tolerance)
}

fn describe(out: &Output) -> String {
    format!(
        "exit {:?}\n--- stdout\n{}--- stderr\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

fn assert_pass(out: Output) {
    assert_eq!(out.status.code(), Some(0), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("regress: OK"), "{}", describe(&out));
}

fn assert_fail(out: Output) {
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("regress: FAIL"), "{}", describe(&out));
}

/// The value at `path` (object keys or array indices).
fn at<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(doc, |v, seg| match v {
        Value::Object(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap_or_else(|| panic!("no {seg}")).1
        }
        Value::Array(items) => &mut items[seg.parse::<usize>().expect("array index")],
        _ => panic!("{seg}: not a container"),
    })
}

fn remove(doc: &mut Value, path: &[&str]) {
    let (last, parent) = path.split_last().expect("non-empty path");
    match at(doc, parent) {
        Value::Object(fields) => fields.retain(|(k, _)| k != last),
        Value::Array(items) => {
            items.remove(last.parse::<usize>().expect("array index"));
        }
        _ => panic!("not a container"),
    }
}

/// `baseline` with the value at `path` replaced.
fn with(baseline: &str, path: &[&str], value: Value) -> Value {
    let mut doc = load(baseline);
    *at(&mut doc, path) = value;
    doc
}

/// `baseline` with the number at `path` moved by `delta`.
fn bumped(baseline: &str, path: &[&str], delta: f64) -> Value {
    let mut doc = load(baseline);
    let v = at(&mut doc, path);
    *v = Value::Num(v.as_f64().expect("number") + delta);
    doc
}

fn without(baseline: &str, path: &[&str]) -> Value {
    let mut doc = load(baseline);
    remove(&mut doc, path);
    doc
}

#[test]
fn every_committed_baseline_passes_against_itself() {
    let mut names: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repo root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with("baseline.json"))
        .collect();
    names.sort();
    assert!(names.len() >= 7, "committed baselines: {names:?}");
    for name in &names {
        let path = baseline_path(name);
        let out = run_paths(&path, &path, ci_tolerance(name));
        assert_eq!(out.status.code(), Some(0), "{name}: {}", describe(&out));
    }
}

const DENSE: &str = "BENCH_baseline.json";
const BDD: &str = "BENCH_bdd_baseline.json";

#[test]
fn sweep_semantics_are_exact() {
    for base in [DENSE, BDD] {
        assert_fail(gate(base, &bumped(base, &["operators", "0", "on_minterms"], 1.0)));
        assert_fail(gate(base, &bumped(base, &["operators", "3", "divisor_errors"], -1.0)));
        assert_fail(gate(base, &without(base, &["operators", "1"])));
        assert_fail(gate(base, &bumped(base, &["jobs"], 1.0)));
        assert_fail(gate(base, &with(base, &["suite"], json::s("smoke"))));
    }
    // Reported, never compared.
    assert_pass(gate(DENSE, &bumped(DENSE, &["engine_wall_ms"], 100.0)));
    assert_pass(gate(DENSE, &bumped(DENSE, &["operators", "0", "wall_ms"], 100.0)));
}

#[test]
fn sweep_speedup_has_a_relative_floor() {
    // Dense: 81.41 × (1 − 0.75) = 20.35.
    assert_fail(gate(DENSE, &with(DENSE, &["speedup"], Value::Num(20.0))));
    assert_pass(gate(DENSE, &with(DENSE, &["speedup"], Value::Num(20.5))));
    // BDD at 0.2: 3.67 × 0.8 = 2.936.
    assert_fail(gate(BDD, &with(BDD, &["speedup"], Value::Num(2.9))));
    assert_pass(gate(BDD, &with(BDD, &["speedup"], Value::Num(2.95))));
    // Never below 1.0, whatever the tolerance.
    assert_fail(gate_at(DENSE, &with(DENSE, &["speedup"], Value::Num(0.99)), Some("0.999")));
}

#[test]
fn peak_bdd_nodes_has_a_ceiling() {
    // 13,444 × 1.05 = 14,116.2.
    assert_pass(gate(BDD, &with(BDD, &["peak_bdd_nodes"], json::num(14_116))));
    assert_fail(gate(BDD, &with(BDD, &["peak_bdd_nodes"], json::num(14_117))));
}

#[test]
fn embedded_scaling_block_is_gated() {
    assert_fail(gate(BDD, &with(BDD, &["scaling", "semantic_fp"], json::s("0000000000000000"))));
    assert_fail(gate(BDD, &without(BDD, &["scaling", "rows", "2"])));
    assert_fail(gate(BDD, &bumped(BDD, &["scaling", "jobs"], 1.0)));
    // 26,622 × 1.05 = 27,953.1.
    assert_pass(gate(BDD, &with(BDD, &["scaling", "private_peak_nodes"], json::num(27_953))));
    assert_fail(gate(BDD, &with(BDD, &["scaling", "private_peak_nodes"], json::num(27_954))));
    let mut renamed = load(BDD);
    *at(&mut renamed, &["scaling", "rows", "1", "backend"]) = json::s("dense");
    assert_fail(gate(BDD, &renamed));
}

/// The BDD baseline on a host with `host` hardware threads and the given
/// 1/2/4/8-thread walls.
fn scaling_run(host: u64, walls: [f64; 4]) -> Value {
    let mut doc = with(BDD, &["scaling", "host_threads"], json::num(host));
    for (i, wall) in walls.into_iter().enumerate() {
        *at(&mut doc, &["scaling", "rows", &i.to_string(), "wall_ms"]) = Value::Num(wall);
    }
    doc
}

#[test]
fn scaling_speedups_are_host_aware() {
    // 1→2→4 must not fall more than the band: 2.0x at 2 threads, 1.0x at 4
    // (floor 1.6x at tolerance 0.2).
    assert_fail(gate(BDD, &scaling_run(4, [200.0, 100.0, 200.0, 50.0])));
    assert_fail(gate(BDD, &scaling_run(2, [200.0, 100.0, 200.0, 50.0])));
    // The same walls are only reported on a one-thread host.
    assert_pass(gate(BDD, &scaling_run(1, [200.0, 100.0, 200.0, 50.0])));
    // Threading must beat one thread at the top gated count.
    assert_fail(gate(BDD, &scaling_run(2, [200.0, 210.0, 220.0, 50.0])));
    // The 8-thread floor on 4+ thread hosts: max(1, 4.0 × 0.8) = 3.2x.
    assert_fail(gate(BDD, &scaling_run(4, [200.0, 100.0, 50.0, 200.0])));
    assert_pass(gate(BDD, &scaling_run(4, [200.0, 100.0, 50.0, 60.0])));
    // ... which a 2-thread host does not enforce.
    assert_pass(gate(BDD, &scaling_run(2, [200.0, 100.0, 50.0, 200.0])));
}

const SYNTH: &str = "BENCH_synth_baseline.json";

#[test]
fn synth_document_is_exact() {
    assert_fail(gate(SYNTH, &bumped(SYNTH, &["total_gates"], 1.0)));
    assert_fail(gate(SYNTH, &bumped(SYNTH, &["total_branches"], 1.0)));
    assert_fail(gate(SYNTH, &bumped(SYNTH, &["average_gain_percent"], 1e-3)));
    assert_fail(gate(SYNTH, &bumped(SYNTH, &["instances", "3", "mapped_area"], 1e-3)));
    assert_fail(gate(SYNTH, &bumped(SYNTH, &["instances", "7", "depth"], 1.0)));
    assert_fail(gate(SYNTH, &without(SYNTH, &["instances", "5"])));
    assert_fail(gate(SYNTH, &with(SYNTH, &["instances", "0", "verified"], Value::Bool(false))));
    // Floats are compared within 1e-6; the wall time is reported only.
    assert_pass(gate(SYNTH, &bumped(SYNTH, &["instances", "3", "mapped_area"], 1e-7)));
    assert_pass(gate(SYNTH, &bumped(SYNTH, &["wall_ms"], 1e4)));
}

const SERVICE: &str = "BENCH_service_baseline.json";

#[test]
fn service_contract_is_gated() {
    assert_fail(gate(SERVICE, &with(SERVICE, &["errors"], json::num(1))));
    assert_fail(gate(SERVICE, &bumped(SERVICE, &["requests"], 1.0)));
    assert_fail(gate(SERVICE, &bumped(SERVICE, &["connections"], 1.0)));
    // 5.654 × 0.65 = 3.675.
    assert_fail(gate(SERVICE, &with(SERVICE, &["speedup"], Value::Num(3.6))));
    assert_pass(gate(SERVICE, &with(SERVICE, &["speedup"], Value::Num(3.7))));
    // At most 5 points under the baseline's 0.742.
    assert_fail(gate(SERVICE, &bumped(SERVICE, &["hit_rate"], -0.06)));
    assert_pass(gate(SERVICE, &bumped(SERVICE, &["hit_rate"], -0.04)));
    assert_fail(gate(SERVICE, &with(SERVICE, &["robustness", "sheds"], json::num(1))));
    assert_fail(gate(SERVICE, &with(SERVICE, &["robustness", "line_overflows"], json::num(1))));
    // Client-side latencies are reported only.
    assert_pass(gate(SERVICE, &bumped(SERVICE, &["cached", "p99_ms"], 1e3)));
}

#[test]
fn service_workload_repeat_ratio_is_exact() {
    assert_fail(gate(SERVICE, &with(SERVICE, &["repeat_ratio"], Value::Num(0.95))));
}

#[test]
fn service_scrape_block_is_gated() {
    let mut added = load(SERVICE);
    if let Value::Object(counters) = at(&mut added, &["scrape", "counters"]) {
        counters.push(("server.new_counter".into(), json::num(0)));
    }
    assert_fail(gate(SERVICE, &added));
    assert_fail(gate(SERVICE, &without(SERVICE, &["scrape", "counters", "cache.probe_hits"])));
    assert_fail(gate(
        SERVICE,
        &with(SERVICE, &["scrape", "counters", "server.panics"], json::num(1)),
    ));
    assert_fail(gate(SERVICE, &bumped(SERVICE, &["scrape", "counters", "server.decompose"], 1.0)));
    assert_fail(gate(
        SERVICE,
        &bumped(SERVICE, &["scrape", "counters", "server.synthesize"], -1.0),
    ));
    assert_fail(gate(SERVICE, &bumped(SERVICE, &["scrape", "verbs", "synthesize", "count"], -1.0)));
    assert_fail(gate(SERVICE, &bumped(SERVICE, &["scrape", "verbs", "decompose", "count"], 1.0)));
    assert_fail(gate(SERVICE, &with(SERVICE, &["scrape", "schema"], json::s("other-v1"))));
    // p99 ceiling: 262.144 × (1 + 4 × 0.35) = 629.1 ms.
    let p99 = ["scrape", "verbs", "decompose", "p99_ms"];
    assert_fail(gate(SERVICE, &with(SERVICE, &p99, Value::Num(700.0))));
    assert_pass(gate(SERVICE, &with(SERVICE, &p99, Value::Num(620.0))));
    // p50 may not exceed p99.
    let p50 = ["scrape", "verbs", "synthesize", "p50_ms"];
    assert_fail(gate(SERVICE, &with(SERVICE, &p50, Value::Num(200.0))));
    // Counter values other than the accounted ones are reported only.
    assert_pass(gate(SERVICE, &bumped(SERVICE, &["scrape", "counters", "cache.hits"], 5.0)));
}

const CHAOS: &str = "BENCH_service_chaos_baseline.json";

#[test]
fn chaos_contract_is_absolute() {
    assert_fail(gate(CHAOS, &bumped(CHAOS, &["faults", "drop_per_mille"], 1.0)));
    assert_fail(gate(CHAOS, &bumped(CHAOS, &["recovery_requests"], 1.0)));
    assert_fail(gate(CHAOS, &with(CHAOS, &["lost"], json::num(1))));
    assert_fail(gate(CHAOS, &with(CHAOS, &["corrupted"], json::num(1))));
    assert_fail(gate(CHAOS, &with(CHAOS, &["recovery_errors"], json::num(1))));
    assert_fail(gate(CHAOS, &bumped(CHAOS, &["completed"], -1.0)));
    assert_fail(gate(CHAOS, &with(CHAOS, &["recovered"], Value::Bool(false))));
    // Retry and shed tallies vary with timing and are reported only.
    assert_pass(gate(CHAOS, &bumped(CHAOS, &["retries"], 100.0)));
    assert_pass(gate(CHAOS, &bumped(CHAOS, &["server", "sheds"], 100.0)));
}

#[test]
fn chaos_workload_repeat_ratio_is_exact() {
    assert_fail(gate(CHAOS, &with(CHAOS, &["repeat_ratio"], Value::Num(0.95))));
}

const ORACLE: &str = "BENCH_oracle_baseline.json";

#[test]
fn oracle_verdicts_are_exact() {
    assert_fail(gate(ORACLE, &bumped(ORACLE, &["cases"], 1.0)));
    assert_fail(gate(ORACLE, &bumped(ORACLE, &["valid_divisors"], 1.0)));
    assert_fail(gate(ORACLE, &with(ORACLE, &["disagreements"], json::num(1))));
    assert_fail(gate(ORACLE, &with(ORACLE, &["tamper_rejected"], Value::Bool(false))));
    assert_pass(gate(ORACLE, &bumped(ORACLE, &["wall_ms"], 1e4)));
}

const OBS: &str = "BENCH_obs_overhead_baseline.json";

#[test]
fn obs_overhead_has_an_absolute_ceiling() {
    assert_fail(gate(OBS, &with(OBS, &["overhead_ratio"], Value::Num(1.2))));
    assert_pass(gate(OBS, &with(OBS, &["overhead_ratio"], Value::Num(1.09))));
    assert_fail(gate(OBS, &bumped(OBS, &["jobs"], 1.0)));
    assert_fail(gate(OBS, &with(OBS, &["suite"], json::s("smoke"))));
}

#[test]
fn malformed_and_mismatched_artifacts_are_rejected() {
    // Schema mismatch.
    assert_eq!(gate(DENSE, &load(SYNTH)).status.code(), Some(1));
    // Unknown schema on both sides.
    let unknown = with(DENSE, &["schema"], json::s("bidecomp-unknown-v1"));
    let (base, cur) = (TempDoc::new(&unknown), TempDoc::new(&unknown));
    assert_eq!(run_paths(&base.0, &cur.0, None).status.code(), Some(1));
    // A gated field missing from the current run, and an unreadable file.
    assert_eq!(gate(DENSE, &without(DENSE, &["speedup"])).status.code(), Some(1));
    assert_eq!(gate(BDD, &without(BDD, &["scaling"])).status.code(), Some(1));
    let missing = baseline_path("BENCH_does_not_exist.json");
    assert_eq!(run_paths(&baseline_path(DENSE), &missing, None).status.code(), Some(1));
}

#[test]
fn bad_command_lines_exit_2() {
    assert_eq!(regress(&["--bogus"]).status.code(), Some(2));
    assert_eq!(regress(&["--tolerance"]).status.code(), Some(2));
    assert_eq!(regress(&["--tolerance", "abc"]).status.code(), Some(2));
}
