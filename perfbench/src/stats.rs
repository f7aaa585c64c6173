//! Small measurement helpers shared by the workloads.

use std::time::Instant;

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`, sorting them
/// in place. Returns 0 for an empty slice.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(mut samples: Vec<f64>) -> f64 {
    quantile(&mut samples, 0.5)
}

/// The `p`-quantile of latency samples, estimated as the mean of the order
/// statistics within ±⌈√n/2⌉ ranks of the nearest rank, narrowed to stay
/// symmetric where it would reach past the first or the last sample (so a
/// high quantile of a small sample is not pulled towards its maximum).
/// Averaging neighbouring ranks keeps the estimate from jumping where the
/// samples have a gap: the 140 per-job times of `synth-all` have one at the
/// median, between jobs of about 50 ms and about 80 ms.
fn latency_quantile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let index = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let half = (((n as f64).sqrt() / 2.0).ceil() as usize).min(index).min(n - 1 - index);
    let band = &samples[index - half..=index + half];
    band.iter().sum::<f64>() / band.len() as f64
}

/// Runs the set-up `f` `rounds` times, appending each wall time in seconds
/// to `walls`, and returns the last result. Workloads call it at several
/// points of a run, so that the median of `walls` spans the run's fast and
/// slow phases.
pub fn time_setup<R>(rounds: usize, walls: &mut Vec<f64>, mut f: impl FnMut() -> R) -> R {
    let mut last = None;
    for _ in 0..rounds {
        let start = Instant::now();
        let result = f();
        walls.push(start.elapsed().as_secs_f64());
        // The previous result is dropped outside the timed round.
        last = Some(result);
    }
    last.expect("at least one set-up round")
}

/// One part of a run's measuring window: how long it took, how many
/// operations completed, and each operation's latency.
pub struct Window {
    pub wall_s: f64,
    pub ops: u64,
    pub latencies_ns: Vec<u64>,
}

/// Reports `throughput_ops_per_s` as the median over `windows`, so that a
/// burst of interference from outside the program moves one window and not
/// the reported value.
pub fn set_throughput_median(outcome: &mut crate::Outcome, windows: &[Window]) {
    let throughputs: Vec<f64> = windows.iter().map(|w| w.ops as f64 / w.wall_s).collect();
    let listed: Vec<String> = throughputs.iter().map(|t| format!("{t:.1}")).collect();
    println!("# {} windows, throughputs {}", windows.len(), listed.join(" "));
    outcome.set("throughput_ops_per_s", median(throughputs));
}

fn to_ms(nanos: &[u64]) -> Vec<f64> {
    nanos.iter().map(|&n| n as f64 / 1e6).collect()
}

/// How many of `n` samples lie beyond their nearest-rank `p`-quantile.
fn beyond(n: usize, p: f64) -> usize {
    n - (p * n as f64).ceil() as usize
}

/// Reports `latency_p50_ms` and `latency_tail_ms`, the `tail`-quantile, of
/// one sample set given in nanoseconds.
pub fn set_latency_quantiles(outcome: &mut crate::Outcome, nanos: &[u64], tail: f64) {
    let mut ms = to_ms(nanos);
    println!(
        "# latency_tail_ms is p{}: {} of {} samples lie beyond it",
        tail * 100.0,
        beyond(ms.len(), tail),
        ms.len()
    );
    outcome.set("latency_p50_ms", latency_quantile(&mut ms, 0.5));
    outcome.set("latency_tail_ms", latency_quantile(&mut ms, tail));
}

/// Reports the median window throughput and, for `latency_p50_ms` and
/// `latency_tail_ms` (the `tail`-quantile), the median over the windows of
/// that window's quantile.
pub fn set_window_medians(outcome: &mut crate::Outcome, windows: &[Window], tail: f64) {
    set_throughput_median(outcome, windows);
    let smallest = windows.iter().map(|w| w.latencies_ns.len()).min().unwrap_or(0);
    println!(
        "# latency_tail_ms is p{}: the smallest window has {smallest} samples, {} beyond it",
        tail * 100.0,
        beyond(smallest, tail)
    );
    for (name, p) in [("latency_p50_ms", 0.5), ("latency_tail_ms", tail)] {
        let per_window =
            windows.iter().map(|w| latency_quantile(&mut to_ms(&w.latencies_ns), p)).collect();
        outcome.set(name, median(per_window));
    }
}

/// Peak resident set size of this process (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
