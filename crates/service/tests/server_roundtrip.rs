//! End-to-end exercise of the TCP service: a real listener on an ephemeral
//! port, real connections, the full verb set, and the NPN cache observable
//! through both the per-response `cache` field and the `stats` verb.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use bidecomp::{full_quotient, BinaryOp};
use boolfunc::{Isf, TruthTable};
use service::json::Value;
use service::server::{table_from_hex, table_to_hex};
use service::{NpnTransform, Server, ServiceConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the test server");
        let writer = stream.try_clone().expect("clone stream");
        Client { reader: BufReader::new(stream), writer }
    }

    fn roundtrip(&mut self, request: &str) -> Value {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        Value::parse(line.trim()).expect("response is valid JSON")
    }
}

fn start_server(config: ServiceConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn str_field<'v>(doc: &'v Value, key: &str) -> &'v str {
    doc.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

fn u64_field(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

fn bool_field(doc: &Value, key: &str) -> bool {
    doc.get(key).and_then(Value::as_bool).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

#[test]
fn full_protocol_round_trip() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    // Fig. 1 of the paper, decomposed over the wire with explicit tables.
    let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
    let g = boolfunc::Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
    let request = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"AND","g":"{}","tables":true}}"#,
        table_to_hex(f.on()),
        table_to_hex(&g),
    );
    let response = client.roundtrip(&request);
    assert!(bool_field(&response, "ok"), "error: {response}");
    assert!(bool_field(&response, "verified"));
    assert!(bool_field(&response, "maximal"));
    assert_eq!(str_field(&response, "cache"), "miss");
    let h = full_quotient(&f, &g, BinaryOp::And).unwrap();
    assert_eq!(u64_field(&response, "on_minterms"), h.on().count_ones());
    assert_eq!(u64_field(&response, "dc_minterms"), h.dc().count_ones());
    assert_eq!(table_from_hex(str_field(&response, "h_on"), 4).unwrap(), *h.on());
    assert_eq!(table_from_hex(str_field(&response, "h_dc"), 4).unwrap(), *h.dc());

    // An NPN variant of the same problem — the diagonal transform of
    // (f, g) with an output complement, so the operator flips to NAND —
    // must be answered from the cache, bit-identically.
    let t = NpnTransform::new(vec![3, 1, 0, 2], 0b0110, true);
    let f2 = t.apply_isf(&f);
    let g2 = t.permute_table(&g);
    let request = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"NAND","g":"{}","tables":true}}"#,
        table_to_hex(f2.on()),
        table_to_hex(&g2),
    );
    let response = client.roundtrip(&request);
    assert!(bool_field(&response, "ok"), "error: {response}");
    assert_eq!(str_field(&response, "cache"), "hit");
    assert!(bool_field(&response, "verified") && bool_field(&response, "maximal"));
    let h2 = full_quotient(&f2, &g2, BinaryOp::Nand).unwrap();
    assert_eq!(
        table_from_hex(str_field(&response, "h_on"), 4).unwrap(),
        *h2.on(),
        "NPN hit must be bit-identical to the cold quotient"
    );
    assert_eq!(table_from_hex(str_field(&response, "h_dc"), 4).unwrap(), *h2.dc());

    // Synthesize twice: miss, then (same class) hit, both verified.
    let synth =
        format!(r#"{{"verb":"synthesize","num_vars":4,"f_on":"{}"}}"#, table_to_hex(f.on()));
    let cold = client.roundtrip(&synth);
    assert!(bool_field(&cold, "ok"), "error: {cold}");
    assert_eq!(str_field(&cold, "cache"), "miss");
    assert!(bool_field(&cold, "verified"));
    let warm = client.roundtrip(&synth);
    assert_eq!(str_field(&warm, "cache"), "hit");
    assert!(bool_field(&warm, "verified"));
    assert_eq!(u64_field(&warm, "gates"), u64_field(&cold, "gates"));

    // A second connection shares the cache and the stats.
    let mut other = Client::connect(addr);
    let response = other.roundtrip(&synth);
    assert_eq!(str_field(&response, "cache"), "hit");

    // no_cache bypasses both lookup and insertion.
    let bypass = format!(
        r#"{{"verb":"synthesize","num_vars":4,"f_on":"{}","no_cache":true}}"#,
        table_to_hex(f.on())
    );
    let response = client.roundtrip(&bypass);
    assert_eq!(str_field(&response, "cache"), "bypass");

    // Errors are per-request; the connection survives them.
    let response = client.roundtrip("this is not json");
    assert!(!bool_field(&response, "ok"));
    let response = client.roundtrip(r#"{"verb":"decompose","num_vars":4,"f_on":"00","op":"AND"}"#);
    assert!(!bool_field(&response, "ok"));
    let bad_divisor = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"AND","g":"{}"}}"#,
        table_to_hex(f.on()),
        table_to_hex(&TruthTable::zero(4)), // AND needs f_on ⊆ g
    );
    let response = client.roundtrip(&bad_divisor);
    assert!(!bool_field(&response, "ok"));
    assert!(str_field(&response, "error").contains("side condition"));

    // Stats reflect everything above.
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert!(bool_field(&stats, "ok"));
    // Three decompose requests reached the handler (the bad-hex one died
    // at parse time and only counts as an error).
    assert_eq!(u64_field(&stats, "decompose"), 3);
    assert_eq!(u64_field(&stats, "synthesize"), 4);
    assert_eq!(u64_field(&stats, "errors"), 3);
    let cache = stats.get("cache").expect("cache stats present");
    assert!(u64_field(cache, "hits") >= 3);
    assert!(u64_field(cache, "entries") >= 2);

    // Shutdown: acknowledged, then the server task returns.
    let response = client.roundtrip(r#"{"verb":"shutdown"}"#);
    assert!(bool_field(&response, "ok"));
    drop(client);
    drop(other);
    handle.join().expect("server thread");
}

#[test]
fn cache_disabled_server_always_bypasses() {
    let config = ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(addr);
    let f = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
    let request = format!(
        r#"{{"verb":"decompose","num_vars":3,"f_on":"{}","op":"OR","seed":3}}"#,
        table_to_hex(f.on())
    );
    for _ in 0..2 {
        let response = client.roundtrip(&request);
        assert!(bool_field(&response, "ok"), "error: {response}");
        assert_eq!(str_field(&response, "cache"), "bypass");
        assert!(bool_field(&response, "verified"));
    }
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(stats.get("cache"), Some(&Value::Null));
    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Write a burst of decompose requests before reading anything — the
    // dispatcher batches them through run_pool, and replies must come back
    // in request order.
    let mut expected = Vec::new();
    let mut batch = String::new();
    for seed in 0..24u64 {
        let f = Isf::completely_specified(TruthTable::from_fn(5, |m| m % (seed + 2) == 0));
        let op = BinaryOp::all()[(seed % 10) as usize];
        batch.push_str(&format!(
            "{{\"verb\":\"decompose\",\"num_vars\":5,\"f_on\":\"{}\",\"op\":\"{}\",\"seed\":{seed}}}\n",
            table_to_hex(f.on()),
            op.symbol(),
        ));
        let g = bidecomp::engine::seeded_divisor(&f, op, seed);
        expected.push(full_quotient(&f, &g, op).unwrap().dc().count_ones());
    }
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    for (i, want_dc) in expected.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = Value::parse(line.trim()).unwrap();
        assert!(bool_field(&response, "ok"), "request {i}: {response}");
        assert_eq!(u64_field(&response, "dc_minterms"), *want_dc, "request {i} out of order");
        assert!(bool_field(&response, "verified"));
    }

    writer.write_all(b"{\"verb\":\"shutdown\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    drop(writer);
    drop(reader);
    handle.join().expect("server thread");
}

#[test]
fn a_stray_symbolic_flag_is_ignored() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    // Unknown request fields are ignored, so a request still carrying the
    // retired `"symbolic":true` option gets exactly the reply it would get
    // without it.
    let f = Isf::completely_specified(TruthTable::from_fn(6, |m| m % 3 == 1));
    let base = format!(
        r#""verb":"decompose","num_vars":6,"f_on":"{}","op":"XOR","seed":9,"tables":true,"no_cache":true"#,
        table_to_hex(f.on()),
    );
    let plain = client.roundtrip(&format!("{{{base}}}"));
    assert!(bool_field(&plain, "ok"), "error: {plain}");
    let flagged = client.roundtrip(&format!(r#"{{{base},"symbolic":true}}"#));
    assert_eq!(flagged, plain);

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    handle.join().expect("server thread");
}
