//! `service-mix`: a closed loop of 2 connections against an in-process
//! `service::Server` with `workers = 2` and the otherwise default
//! `ServiceConfig`.
//!
//! The traffic is the `service_loadgen` mix: 9-variable functions, a pool of
//! 12 seeded bases, 90% of requests an NPN-transformed repeat of a base,
//! 80/20 `synthesize`/`decompose`. Set-up binds the server and runs a
//! warm-up pass (every base synthesized and decomposed once, on one
//! connection) that fills the cache; each connection then sends its next
//! request only after the previous reply arrived.
//!
//! The cost of a cache hit depends on its base (NPN canonicalization of a
//! function with many symmetries costs several times more), so one pool is
//! a noisy sample. A run therefore splits its window into [`EPOCHS`] equal
//! parts, each with its own pool seeded from `--seed` and the epoch and its
//! own untimed warm-up; `--seed` also seeds the fresh functions and the
//! transforms. Each epoch is cut into [`SLICES`] equal time slices by when
//! replies arrive, and the run reports medians over all slices: on a shared
//! host, bursts of outside load of a second or two slow every request they
//! overlap, and the slowest 1% of an epoch's requests are then mostly the
//! burst's. A median over many short slices leaves them out.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benchmarks::DetRng;
use bidecomp::engine::{run_pool, seeded_divisor};
use bidecomp::{BinaryOp, Oracle};
use bidecomp_bench::json::Value;
use boolfunc::{Isf, TruthTable};
use service::npn::{canonicalize, NpnTransform};
use service::server::{table_from_hex, table_to_hex};
use service::{Server, ServiceConfig};

use crate::stats::{self, ratio, Window};
use crate::{Args, Outcome};

/// `latency_tail_ms` is this quantile: about 8% of requests are fresh
/// syntheses, so p90 would sit on the edge between hits and misses.
const TAIL: f64 = 0.99;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const NUM_VARS: usize = 9;
const BASES: usize = 12;
const REPEAT_PER_MILLE: u64 = 900;
/// Set-up rounds (each a fresh server and warm-up) before the epochs and
/// again after them; `setup_s` is the median over both.
const SETUP_ROUNDS: usize = 5;
/// `qor_size` is the gate total of the replies to this many of the first
/// fresh `synthesize` requests: cold syntheses of seeded random functions.
const QOR_FRESH: usize = 256;
/// Pools, and equal parts of the measuring window, per run.
const EPOCHS: u64 = 10;
/// Time slices per epoch that the reported medians are taken over.
const SLICES: usize = 2;

/// One request of the mix.
enum Request {
    Synthesize { f: Isf },
    Decompose { f: Isf, op: BinaryOp, divisor: Divisor },
}

/// How a decompose request names its divisor.
enum Divisor {
    /// Sent as a table.
    Table(TruthTable),
    /// Sent as a seed; the server derives `seeded_divisor(f, op, seed)`.
    Seed(u64),
}

impl Request {
    fn function(&self) -> &Isf {
        match self {
            Request::Synthesize { f } | Request::Decompose { f, .. } => f,
        }
    }

    fn line(&self) -> String {
        match self {
            Request::Synthesize { f } => format!(
                r#"{{"verb":"synthesize","num_vars":{NUM_VARS},"f_on":"{}","f_dc":"{}"}}"#,
                table_to_hex(f.on()),
                table_to_hex(f.dc()),
            ),
            Request::Decompose { f, op, divisor } => {
                let divisor = match divisor {
                    Divisor::Table(g) => format!(r#""g":"{}""#, table_to_hex(g)),
                    // Seeds are full 64-bit values, so they travel as strings.
                    Divisor::Seed(seed) => format!(r#""seed":"{seed}""#),
                };
                format!(
                    r#"{{"verb":"decompose","num_vars":{NUM_VARS},"f_on":"{}","f_dc":"{}","op":"{}",{divisor},"tables":true}}"#,
                    table_to_hex(f.on()),
                    table_to_hex(f.dc()),
                    op.symbol(),
                )
            }
        }
    }
}

/// The seeded request stream: request `i` is a pure function of the seed
/// and `i`, so the output check can regenerate any request it needs.
struct Mix {
    seed: u64,
    bases: Vec<Isf>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        Mix { seed, bases: (0..BASES).map(|_| random_isf(&mut rng)).collect() }
    }

    /// The warm-up decompose of base `index`: its per-base operator and
    /// divisor, which every repeat of the base reuses under a transform.
    fn base_problem(&self, index: usize) -> (BinaryOp, TruthTable) {
        let op = BinaryOp::all()[index % 10];
        (op, seeded_divisor(&self.bases[index], op, self.seed ^ index as u64))
    }

    /// Request `i`, and whether it is fresh (not a repeat of a base).
    fn request(&self, i: u64) -> (Request, bool) {
        let mut rng = DetRng::seed_from_u64(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let repeat = rng.next_u64() % 1000 < REPEAT_PER_MILLE;
        let synthesize = rng.next_u64() % 5 < 4;
        if repeat {
            let index = (rng.next_u64() % BASES as u64) as usize;
            let t = random_transform(&mut rng);
            let f = t.apply_isf(&self.bases[index]);
            if synthesize {
                return (Request::Synthesize { f }, false);
            }
            let (op, g) = self.base_problem(index);
            let divisor = Divisor::Table(t.permute_table(&g));
            (Request::Decompose { f, op: t.map_op(op), divisor }, false)
        } else {
            let f = random_isf(&mut rng);
            if synthesize {
                return (Request::Synthesize { f }, true);
            }
            let op = BinaryOp::all()[(rng.next_u64() % 10) as usize];
            (Request::Decompose { f, op, divisor: Divisor::Seed(rng.next_u64()) }, true)
        }
    }
}

/// A seeded on/dc cover pair of 8 + 2 cubes with 2–3 literals each.
fn random_isf(rng: &mut DetRng) -> Isf {
    let mut cube = || {
        let mut chars = vec!['-'; NUM_VARS];
        for _ in 0..2 + rng.next_u64() % 2 {
            let var = (rng.next_u64() % NUM_VARS as u64) as usize;
            chars[var] = if rng.next_u64() & 1 == 0 { '0' } else { '1' };
        }
        chars.into_iter().collect::<String>()
    };
    let on: Vec<String> = (0..8).map(|_| cube()).collect();
    let dc: Vec<String> = (0..2).map(|_| cube()).collect();
    let on: Vec<&str> = on.iter().map(String::as_str).collect();
    let dc: Vec<&str> = dc.iter().map(String::as_str).collect();
    Isf::from_cover_str(NUM_VARS, &on, &dc).expect("generated cubes are well-formed")
}

fn random_transform(rng: &mut DetRng) -> NpnTransform {
    let mut perm: Vec<u8> = (0..NUM_VARS as u8).collect();
    for i in (1..NUM_VARS).rev() {
        perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let neg = (rng.next_u64() as u32) & ((1u32 << NUM_VARS) - 1);
    NpnTransform::new(perm, neg, rng.next_u64() & 1 == 1)
}

/// One synchronous client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set a read timeout");
        let writer = stream.try_clone().expect("clone the client socket");
        Client { writer, reader: BufReader::new(stream), line: String::new() }
    }

    /// Sends one request line and returns the reply and the round-trip time.
    fn call(&mut self, request: &str) -> (Value, u64) {
        self.line.clear();
        let request = format!("{request}\n");
        let sent = Instant::now();
        self.writer.write_all(request.as_bytes()).expect("send a request");
        self.reader.read_line(&mut self.line).expect("read a reply");
        let nanos = sent.elapsed().as_nanos() as u64;
        let reply = Value::parse(self.line.trim()).unwrap_or(Value::Null);
        (reply, nanos)
    }
}

/// A running in-process server.
struct Running {
    port: u16,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> Running {
        let config = ServiceConfig { workers: WORKERS, ..ServiceConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).expect("bind the server");
        let port = server.local_addr().expect("server address").port();
        Running { port, thread: std::thread::spawn(move || server.run()) }
    }

    fn stop(self) {
        let (reply, _) = Client::connect(self.port).call(r#"{"verb":"shutdown"}"#);
        assert!(is_true(&reply, "ok"), "shutdown refused: {reply}");
        self.thread.join().expect("server thread panicked").expect("server run failed");
    }
}

fn is_true(reply: &Value, key: &str) -> bool {
    reply.get(key).and_then(Value::as_bool) == Some(true)
}

fn number(reply: &Value, key: &str) -> f64 {
    reply.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The quotient a decompose reply carries (`"tables":true`).
fn reply_quotient(reply: &Value) -> Option<Isf> {
    let table = |key| table_from_hex(reply.get(key)?.as_str()?, NUM_VARS).ok();
    Isf::new(table("h_on")?, table("h_dc")?).ok()
}

/// Synthesizes and decomposes every base once, in order, on one connection.
/// Returns the number of failed replies.
fn warm_up(port: u16, mix: &Mix) -> u64 {
    let mut client = Client::connect(port);
    let mut failed = 0;
    for index in 0..BASES {
        let f = mix.bases[index].clone();
        let (reply, _) = client.call(&Request::Synthesize { f: f.clone() }.line());
        failed += u64::from(!(is_true(&reply, "ok") && is_true(&reply, "verified")));
        let (op, g) = mix.base_problem(index);
        let (reply, _) =
            client.call(&Request::Decompose { f, op, divisor: Divisor::Table(g) }.line());
        failed += u64::from(!(is_true(&reply, "ok") && is_true(&reply, "verified")));
    }
    failed
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<u64>,
    /// When each reply arrived, in seconds since the epoch started.
    arrivals: Vec<f64>,
    /// `(epoch, request index, returned quotient)` of every decompose reply.
    quotients: Vec<(u64, u64, Isf)>,
    /// `(epoch, request index, gates, mapped area)` of every fresh
    /// synthesize reply.
    fresh_networks: Vec<(u64, u64, u64, f64)>,
    failed: u64,
    canonicalize_calls: u64,
    canonicalize_nanos: u64,
}

/// One connection's closed loop from `start` until `deadline`. Request
/// indices come from the shared `next` counter, so both connections walk
/// one stream.
fn closed_loop(
    port: u16,
    (epoch, mix): (u64, &Mix),
    next: &AtomicU64,
    (start, deadline): (Instant, Instant),
    trace: bool,
) -> ClientLog {
    let mut client = Client::connect(port);
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let (request, fresh) = mix.request(index);
        if trace {
            let start = Instant::now();
            std::hint::black_box(canonicalize(request.function()));
            log.canonicalize_nanos += start.elapsed().as_nanos() as u64;
            log.canonicalize_calls += 1;
        }
        let (reply, nanos) = client.call(&request.line());
        log.latencies.push(nanos);
        log.arrivals.push(start.elapsed().as_secs_f64());
        // A shed, a timeout or any other error reply is not `ok`.
        let answered = is_true(&reply, "ok") && is_true(&reply, "verified");
        match request {
            Request::Synthesize { .. } if answered => {
                if fresh {
                    let gates = number(&reply, "gates") as u64;
                    log.fresh_networks.push((epoch, index, gates, number(&reply, "mapped_area")));
                }
            }
            Request::Decompose { .. } if answered && is_true(&reply, "maximal") => {
                match reply_quotient(&reply) {
                    Some(h) => log.quotients.push((epoch, index, h)),
                    None => log.failed += 1,
                }
            }
            _ => {
                log.failed += 1;
                eprintln!("perfbench: service-mix epoch {epoch} request {index} failed: {reply}");
            }
        }
    }
    log
}

/// The server's counters and merged per-verb latency buckets.
#[derive(Default)]
struct Scrape {
    counters: BTreeMap<String, u64>,
    latency: obs::HistogramSnapshot,
}

impl Scrape {
    fn take(port: u16) -> Scrape {
        let (reply, _) = Client::connect(port).call(r#"{"verb":"metrics"}"#);
        assert!(is_true(&reply, "ok"), "metrics refused: {reply}");
        let counters = match reply.get("counters") {
            Some(Value::Object(fields)) => {
                fields.iter().map(|(name, v)| (name.clone(), v.as_u64().unwrap_or(0))).collect()
            }
            _ => BTreeMap::new(),
        };
        let mut latency =
            obs::HistogramSnapshot { counts: vec![0; obs::BUCKETS], count: 0, sum: 0 };
        for verb in ["server.latency.synthesize", "server.latency.decompose"] {
            let Some(hist) = reply.get("histograms").and_then(|h| h.get(verb)) else { continue };
            latency.count += hist.get("count").and_then(Value::as_u64).unwrap_or(0);
            latency.sum += hist.get("sum_us").and_then(Value::as_u64).unwrap_or(0);
            for bucket in hist.get("buckets").and_then(Value::as_array).unwrap_or(&[]) {
                if let [lower, count] = bucket.as_array().unwrap_or(&[]) {
                    let index = obs::bucket_index(lower.as_u64().unwrap_or(0));
                    latency.counts[index] += count.as_u64().unwrap_or(0);
                }
            }
        }
        Scrape { counters, latency }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `after - before` to this scrape.
    fn add_delta(&mut self, before: &Scrape, after: &Scrape) {
        for (name, value) in &after.counters {
            *self.counters.entry(name.clone()).or_default() += value - before.counter(name);
        }
        let counts = &mut self.latency.counts;
        counts.resize(obs::BUCKETS, 0);
        for (i, total) in counts.iter_mut().enumerate() {
            *total += after.latency.counts[i] - before.latency.counts[i];
        }
        self.latency.count += after.latency.count - before.latency.count;
        self.latency.sum += after.latency.sum - before.latency.sum;
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mixes: Vec<Mix> = (0..EPOCHS)
        .map(|epoch| Mix::new(args.seed ^ epoch.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)))
        .collect();

    // Set-up: a fresh server plus warm-up per round; the last round before
    // the epochs serves them.
    let mut walls = Vec::new();
    let mut set_up = |outcome: &mut Outcome| {
        let start = Instant::now();
        let running = Running::start();
        let failed = warm_up(running.port, &mixes[0]);
        walls.push(start.elapsed().as_secs_f64());
        if failed > 0 {
            outcome.problem(format!("{failed} warm-up replies failed"));
        }
        running
    };
    for _ in 1..SETUP_ROUNDS {
        set_up(&mut outcome).stop();
    }
    let server = set_up(&mut outcome);

    let window = Duration::from_secs_f64(args.seconds / EPOCHS as f64);
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut scrape = Scrape::default();
    for (epoch, mix) in (0..EPOCHS).zip(&mixes) {
        if epoch > 0 {
            let failed = warm_up(server.port, mix);
            if failed > 0 {
                outcome.problem(format!("{failed} warm-up replies of epoch {epoch} failed"));
            }
        }
        let before = args.trace.then(|| Scrape::take(server.port));
        let next = AtomicU64::new(0);
        let start = Instant::now();
        let deadline = start + window;
        let epoch_logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    let next = &next;
                    let span = (start, deadline);
                    scope.spawn(move || {
                        closed_loop(server.port, (epoch, mix), next, span, args.trace)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        windows.extend(slices(&epoch_logs, window.as_secs_f64(), start.elapsed().as_secs_f64()));
        logs.extend(epoch_logs);
        if let Some(before) = before {
            scrape.add_delta(&before, &Scrape::take(server.port));
        }
    }
    server.stop();
    for _ in 0..SETUP_ROUNDS {
        set_up(&mut outcome).stop();
    }

    let latencies: Vec<u64> = logs.iter().flat_map(|l| l.latencies.iter().copied()).collect();
    let wall_s: f64 = windows.iter().map(|w| w.wall_s).sum();
    println!("# {EPOCHS} epochs of {SLICES} slices each");
    let quotients: Vec<&(u64, u64, Isf)> = logs.iter().flat_map(|l| &l.quotients).collect();
    outcome.attempted = latencies.len() as u64;
    outcome.failed = logs.iter().map(|l| l.failed).sum();
    println!(
        "# {} requests in {wall_s:.3} s, {} decompose replies",
        latencies.len(),
        quotients.len()
    );
    let mut fresh: Vec<(u64, u64, u64, f64)> =
        logs.iter().flat_map(|l| l.fresh_networks.iter().copied()).collect();
    fresh.sort_by_key(|&(epoch, index, ..)| (epoch, index));
    if fresh.len() < QOR_FRESH {
        outcome.problem(format!("only {} fresh syntheses, {QOR_FRESH} needed", fresh.len()));
    }
    let quality = fresh
        .iter()
        .take(QOR_FRESH)
        .fold((0, 0.0), |(g, a), &(.., gates, area)| (g + gates, a + area));
    println!(
        "# first {QOR_FRESH} fresh networks: gates_total {} mapped_area_total {}",
        quality.0, quality.1
    );

    // Output check, outside the timed window: the SAT oracle re-judges every
    // returned quotient against a locally re-derived divisor.
    let rejected = run_pool(
        &quotients,
        WORKERS,
        || (),
        |(), (epoch, index, h)| {
            let (Request::Decompose { f, op, divisor }, _) = mixes[*epoch as usize].request(*index)
            else {
                return true;
            };
            let g = match divisor {
                Divisor::Table(g) => g,
                Divisor::Seed(seed) => seeded_divisor(&f, op, seed),
            };
            Oracle::check(&f, &g, h, op).is_err()
        },
    );
    let rejected = rejected.iter().filter(|r| **r).count() as u64;
    if rejected > 0 {
        eprintln!("perfbench: the oracle rejected {rejected} returned quotients");
    }
    outcome.failed += rejected;

    if args.trace {
        per_layer(&mut outcome, &scrape, &logs, &latencies, wall_s, quality.1);
    } else {
        outcome.set("setup_s", stats::median(walls));
        stats::set_window_medians(&mut outcome, &windows, TAIL);
        outcome.set("qor_size", quality.0 as f64);
    }
    outcome
}

/// Cuts one epoch of `window` seconds, which ended `wall_s` seconds after
/// it started, into [`SLICES`] windows by when each reply arrived. The last
/// slice also holds the replies that arrived after the deadline.
fn slices(logs: &[ClientLog], window: f64, wall_s: f64) -> Vec<Window> {
    let width = window / SLICES as f64;
    let mut slices: Vec<Window> = (0..SLICES)
        .map(|k| Window {
            wall_s: if k + 1 < SLICES { width } else { wall_s - width * k as f64 },
            ops: 0,
            latencies_ns: Vec::new(),
        })
        .collect();
    for log in logs {
        for (&nanos, &arrival) in log.latencies.iter().zip(&log.arrivals) {
            let slice = &mut slices[((arrival / width) as usize).min(SLICES - 1)];
            slice.ops += 1;
            slice.latencies_ns.push(nanos);
        }
    }
    slices
}

fn per_layer(
    outcome: &mut Outcome,
    scrape: &Scrape,
    logs: &[ClientLog],
    latencies: &[u64],
    wall_s: f64,
    mapped_area: f64,
) {
    let calls: u64 = logs.iter().map(|l| l.canonicalize_calls).sum();
    let nanos: u64 = logs.iter().map(|l| l.canonicalize_nanos).sum();
    outcome.set("service.npn.canonicalize.calls", calls as f64);
    outcome.set("service.npn.canonicalize.self_s", nanos as f64 / 1e9);

    let c = |name: &str| scrape.counter(name) as f64;
    outcome.set("service.cache.hits", c("cache.hits"));
    outcome.set("service.cache.misses", c("cache.misses"));
    outcome.set("service.cache.insertions", c("cache.insertions"));
    outcome.set("service.cache.evictions", c("cache.evictions"));
    outcome.set(
        "service.cache.hit_ratio",
        ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
    );

    let compute_s =
        (c("engine.quotient_nanos") + c("engine.verify_nanos") + c("engine.synthesis_nanos")) / 1e9;
    outcome.set("service.server.latency_p50_ms", scrape.latency.quantile(0.50) / 1e3);
    outcome.set("service.server.latency_p99_ms", scrape.latency.quantile(0.99) / 1e3);
    outcome.set("service.server.compute_s", compute_s);
    outcome.set("service.server.queue_wait_s", scrape.latency.sum as f64 / 1e6 - compute_s);
    outcome.set("service.server.sheds", c("server.sheds"));
    // The server's histogram sum is exact where its quantiles are log-bucket
    // estimates, so the client's share of a round trip is taken as a mean.
    let client_s = latencies.iter().sum::<u64>() as f64 / 1e9;
    let overhead_s = client_s - scrape.latency.sum as f64 / 1e6;
    outcome.set("service.client.overhead_mean_ms", 1e3 * ratio(overhead_s, latencies.len() as f64));

    outcome.set("core.quotient.calls", c("server.decompose"));
    outcome.set("core.quotient.self_s", c("engine.quotient_nanos") / 1e9);
    outcome.set("core.verify.calls", c("server.decompose"));
    outcome.set("core.verify.self_s", c("engine.verify_nanos") / 1e9);
    outcome.set("core.engine.busy_share", ratio(compute_s, wall_s * WORKERS as f64));
    outcome.set("techmap.mapped_area_total", mapped_area);
}
