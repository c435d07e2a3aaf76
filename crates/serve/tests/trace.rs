//! End-to-end tests of per-request distributed tracing: `traceparent`
//! adoption and echo, id uniqueness under concurrency, the tail-sampled
//! trace store behind `/v1/debug/traces`, span-tree wall-time coverage,
//! and byte-identical simulation bodies with tracing in the path.

use cesim_json::JsonValue;
use cesim_serve::client;
use cesim_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

const SWEEP_BODY: &str = r#"{"figure":"fig4","apps":["LULESH"],"nodes":16,"steps_scale":0.05}"#;
/// A sweep whose every replica runs the engine: fig5's CE rates leave no
/// replica quiet, while fig4's at this scale are answered from the
/// noise-free memo in a few milliseconds. The coverage check needs
/// request handling to dominate the ~0.4 ms of loopback transport
/// (connect, accept, queue hand-off) that no server span can cover.
const ENGINE_BOUND_SWEEP_BODY: &str =
    r#"{"figure":"fig5","apps":["LULESH"],"nodes":16,"steps_scale":0.05}"#;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// The 32-hex trace id out of a `00-<trace>-<span>-01` response header.
fn trace_id_of(resp: &client::ClientResponse) -> String {
    let tp = resp
        .header("traceparent")
        .expect("every response carries a traceparent header");
    let mut parts = tp.split('-');
    assert_eq!(parts.next(), Some("00"), "version-00 traceparent: {tp}");
    let trace = parts.next().expect("trace-id field").to_string();
    assert_eq!(trace.len(), 32, "32-hex trace id: {tp}");
    let span = parts.next().expect("parent-id field");
    assert_eq!(span.len(), 16, "16-hex span id: {tp}");
    assert_eq!(parts.next(), Some("01"), "sampled flag: {tp}");
    trace
}

fn get_trace(addr: SocketAddr, id: &str) -> client::ClientResponse {
    client::get(addr, &format!("/v1/debug/traces/{id}"), TIMEOUT).unwrap()
}

#[test]
fn traceparent_roundtrips_and_trace_is_retrievable() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let sent = "0af7651916cd43dd8448eb211c80319c";
    let resp = client::request_with_headers(
        addr,
        "POST",
        "/v1/sweep",
        Some(SWEEP_BODY),
        TIMEOUT,
        &[("traceparent", &format!("00-{sent}-b7ad6b7169203331-01"))],
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(trace_id_of(&resp), sent, "adopted id must be echoed back");

    // The full span tree is retrievable by that id.
    let trace = get_trace(addr, sent);
    assert_eq!(trace.status, 200, "{}", trace.body);
    let v = JsonValue::parse(&trace.body).expect("trace JSON parses");
    assert_eq!(v.get("trace_id").and_then(JsonValue::as_str), Some(sent));
    assert_eq!(v.get("status").and_then(JsonValue::as_u64), Some(200));
    assert_eq!(
        v.get("remote_parent").and_then(JsonValue::as_str),
        Some("b7ad6b7169203331"),
        "adopted traces remember the caller's span"
    );
    let root = v.get("root").expect("root span");
    assert_eq!(
        root.get("name").and_then(JsonValue::as_str),
        Some("POST /v1/sweep")
    );
    let children = root
        .get("children")
        .and_then(JsonValue::as_array)
        .expect("root children");
    let names: Vec<&str> = children
        .iter()
        .filter_map(|c| c.get("name").and_then(JsonValue::as_str))
        .collect();
    for expected in ["parse", "cache_lookup", "dispatch", "serialize"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }

    // The Chrome rendering of the same trace is well-formed JSON with
    // one slice per span.
    let chrome = client::get(addr, &format!("/v1/debug/traces/{sent}/chrome"), TIMEOUT).unwrap();
    assert_eq!(chrome.status, 200, "{}", chrome.body);
    let cv = JsonValue::parse(&chrome.body).expect("chrome JSON parses");
    let events = cv
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents");
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("name").and_then(JsonValue::as_str) == Some("dispatch")
        }),
        "{}",
        chrome.body
    );

    // The summary listing knows about the trace too.
    let summary = client::get(addr, "/v1/debug/traces", TIMEOUT).unwrap();
    assert_eq!(summary.status, 200);
    assert!(summary.body.contains(sent), "{}", summary.body);

    // Lookup edge cases: bad ids are 400, unknown ids 404, and the
    // collection only answers GET.
    assert_eq!(get_trace(addr, "not-hex").status, 400);
    assert_eq!(
        get_trace(addr, "ffffffffffffffffffffffffffffffff").status,
        404
    );
    assert_eq!(
        client::post(addr, "/v1/debug/traces", "{}", TIMEOUT)
            .unwrap()
            .status,
        405
    );
    server.shutdown();
}

#[test]
fn malformed_traceparent_falls_back_to_fresh_ids_without_erroring() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    for bad in [
        "garbage",
        "00-00000000000000000000000000000000-b7ad6b7169203331-01",
        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        "00-short-b7ad6b7169203331-01",
    ] {
        let resp = client::request_with_headers(
            addr,
            "GET",
            "/healthz",
            None,
            TIMEOUT,
            &[("traceparent", bad)],
        )
        .unwrap();
        assert_eq!(resp.status, 200, "malformed traceparent must not 4xx");
        let fresh = trace_id_of(&resp);
        assert!(
            !bad.contains(&fresh),
            "malformed header {bad:?} must yield a fresh id, got {fresh}"
        );
    }
    server.shutdown();
}

#[test]
fn concurrent_requests_get_distinct_trace_ids() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                (0..5)
                    .map(|_| trace_id_of(&client::get(addr, "/healthz", TIMEOUT).unwrap()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    for h in handles {
        for id in h.join().unwrap() {
            assert!(seen.insert(id.clone()), "duplicate trace id {id}");
        }
    }
    assert_eq!(seen.len(), 40);
    server.shutdown();
}

#[test]
fn span_tree_covers_request_wall_time() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let t0 = Instant::now();
    let resp = client::post(addr, "/v1/sweep", ENGINE_BOUND_SWEEP_BODY, TIMEOUT).unwrap();
    let client_wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(resp.status, 200, "{}", resp.body);
    let id = trace_id_of(&resp);

    let trace = get_trace(addr, &id);
    assert_eq!(trace.status, 200, "{}", trace.body);
    let v = JsonValue::parse(&trace.body).expect("trace JSON parses");
    let root = v.get("root").expect("root span");
    let root_dur = root.get("dur_ns").and_then(JsonValue::as_u64).unwrap();

    // Union the root's direct children (the parse → cache_lookup →
    // dispatch → serialize chain) and compare against the wall time the
    // client actually measured.
    let mut ivals: Vec<(u64, u64)> = root
        .get("children")
        .and_then(JsonValue::as_array)
        .expect("root children")
        .iter()
        .map(|c| {
            let s = c.get("start_ns").and_then(JsonValue::as_u64).unwrap();
            let d = c.get("dur_ns").and_then(JsonValue::as_u64).unwrap();
            (s, s + d)
        })
        .collect();
    ivals.sort_unstable();
    let (mut covered, mut end) = (0u64, 0u64);
    for (s, e) in ivals {
        let s = s.max(end);
        if e > s {
            covered += e - s;
            end = e.max(end);
        }
    }
    let of_root = covered as f64 / root_dur as f64;
    let of_client = covered as f64 / client_wall_ns as f64;
    assert!(
        of_root >= 0.95,
        "span tree covers {:.1}% of the root ({covered} of {root_dur} ns)",
        of_root * 100.0
    );
    assert!(
        of_client >= 0.95,
        "span tree covers {:.1}% of client-measured wall time \
         ({covered} of {client_wall_ns} ns)",
        of_client * 100.0
    );
    server.shutdown();
}

#[test]
fn error_traces_survive_recency_churn() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let err = client::post(addr, "/v1/simulate", "{not json", TIMEOUT).unwrap();
    assert_eq!(err.status, 400);
    let err_id = trace_id_of(&err);

    // Churn the recency ring well past its capacity with healthy traffic.
    for _ in 0..300 {
        assert_eq!(client::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    }

    let trace = get_trace(addr, &err_id);
    assert_eq!(trace.status, 200, "error trace must survive churn");
    let v = JsonValue::parse(&trace.body).expect("trace JSON parses");
    assert_eq!(v.get("status").and_then(JsonValue::as_u64), Some(400));
    server.shutdown();
}

#[test]
fn sweep_bodies_are_byte_identical_with_and_without_traceparent() {
    // Tracing must never perturb simulation results: the same sweep on
    // two fresh servers — one request traced from outside, one not —
    // returns byte-identical bodies.
    let server_a = Server::bind(test_config()).unwrap();
    let plain = client::post(server_a.addr(), "/v1/sweep", SWEEP_BODY, TIMEOUT).unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body);
    server_a.shutdown();

    let server_b = Server::bind(test_config()).unwrap();
    let traced = client::request_with_headers(
        server_b.addr(),
        "POST",
        "/v1/sweep",
        Some(SWEEP_BODY),
        TIMEOUT,
        &[(
            "traceparent",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        )],
    )
    .unwrap();
    assert_eq!(traced.status, 200, "{}", traced.body);
    server_b.shutdown();

    assert_eq!(
        plain.body, traced.body,
        "tracing must not change simulation bytes"
    );
}
