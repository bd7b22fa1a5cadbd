//! Protocol robustness: hostile or malformed input must produce
//! structured `{"error", "detail"}` responses — never a panic in the
//! accept loop or a wedged daemon. After every abuse the daemon still
//! answers a well-formed request.

use fsim::prelude::*;
use fsim::serve::client::HttpClient;
use fsim::serve::json::Json;
use fsim::serve::{Daemon, ServerConfig};
use fsim_core::FsimEngine;

fn small_engine() -> FsimEngine<'static> {
    let g = fsim_graph::graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2)]);
    let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    FsimEngine::new_owned(g.clone(), g, &cfg).expect("valid config")
}

fn start(cfg: ServerConfig) -> Daemon {
    let daemon = Daemon::bind("127.0.0.1:0", cfg).expect("bind");
    daemon.add_namespace("g", small_engine());
    daemon
}

/// Asserts the response is the structured error shape with this kind.
fn assert_error(resp: &fsim::serve::client::HttpResponse, status: u16, kind: &str) {
    assert_eq!(resp.status, status, "body: {}", resp.text());
    let doc = Json::parse(&resp.text())
        .unwrap_or_else(|e| panic!("error body is not JSON ({e}): {}", resp.text()));
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some(kind),
        "body: {}",
        resp.text()
    );
    assert!(
        doc.get("detail").and_then(Json::as_str).is_some(),
        "error body must carry a detail: {}",
        resp.text()
    );
}

/// The daemon must still serve after whatever the test just did to it.
fn assert_alive(daemon: &Daemon) {
    let mut c = HttpClient::connect(daemon.addr()).expect("reconnect");
    let resp = c.get("/score?ns=g&u=0&v=0").expect("health read");
    assert_eq!(resp.status, 200, "daemon wedged: {}", resp.text());
}

#[test]
fn malformed_request_line_is_a_structured_400() {
    let daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    let resp = c
        .send_raw(b"NONSENSE\r\n\r\n")
        .expect("server must respond before closing");
    assert_error(&resp, 400, "bad_request");
    assert_alive(&daemon);
}

#[test]
fn binary_garbage_is_a_structured_400() {
    let daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    let resp = c
        .send_raw(b"\xff\xfe\x00\x01 \xff garbage \r\n\r\n")
        .expect("server must respond before closing");
    assert_eq!(resp.status, 400);
    assert_alive(&daemon);
}

#[test]
fn oversized_body_is_rejected_before_it_is_read() {
    let daemon = start(ServerConfig {
        max_body_bytes: 256,
        ..ServerConfig::default()
    });
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    // Claim a huge body but never send it: the 413 must arrive from the
    // Content-Length header alone.
    let resp = c
        .send_raw(b"POST /edits?ns=g HTTP/1.1\r\nhost: x\r\ncontent-length: 10000000\r\n\r\n")
        .expect("413 must not wait for the body");
    assert_error(&resp, 413, "body_too_large");
    assert_alive(&daemon);
}

#[test]
fn unknown_namespace_and_path_are_structured_404s() {
    let daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    assert_error(
        &c.get("/score?ns=nope&u=0&v=0").expect("send"),
        404,
        "unknown_namespace",
    );
    assert_error(
        &c.get("/definitely/not/a/route").expect("send"),
        404,
        "not_found",
    );
    assert_error(
        &c.get("/score?u=0&v=0").expect("send"),
        400,
        "missing_param",
    );
    assert_error(
        &c.get("/score?ns=g&u=zebra&v=0").expect("send"),
        400,
        "bad_param",
    );
    assert_alive(&daemon);
}

#[test]
fn wrong_method_is_a_structured_405() {
    let daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    assert_error(
        &c.post("/score", "{}").expect("send"),
        405,
        "method_not_allowed",
    );
    assert_error(
        &c.get("/edits?ns=g").expect("send"),
        405,
        "method_not_allowed",
    );
    assert_alive(&daemon);
}

#[test]
fn bad_edit_bodies_are_structured_400s() {
    let daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    for body in [
        "not json at all",
        "{\"edits\": 7}",
        "{\"edits\": []}",
        "{\"edits\": [{\"op\": \"add_edge\", \"side\": \"up\", \"src\": 0, \"dst\": 1}]}",
        "{\"edits\": [{\"op\": \"explode\", \"side\": \"left\", \"src\": 0, \"dst\": 1}]}",
        "{\"edits\": [{\"op\": \"add_edge\", \"side\": \"left\", \"src\": -3, \"dst\": 1}]}",
        "{\"edits\": [{\"op\": \"add_edge\", \"side\": \"left\", \"src\": 0.5, \"dst\": 1}]}",
    ] {
        assert_error(
            &c.post("/edits?ns=g", body).expect("send"),
            400,
            "bad_edit_batch",
        );
    }
    // A deeply nested body must be rejected by the parser's depth cap,
    // not by blowing the connection thread's stack.
    let deep = format!("{{\"edits\": {}1{}}}", "[".repeat(5000), "]".repeat(5000));
    let resp = c.post("/edits?ns=g", &deep).expect("send");
    assert_error(&resp, 400, "bad_edit_batch");
    assert_alive(&daemon);
}

#[test]
fn bad_namespace_bodies_are_structured_errors() {
    let daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    assert_error(
        &c.post("/namespaces", "{}").expect("send"),
        400,
        "bad_namespace",
    );
    assert_error(
        &c.post("/namespaces", "{\"name\": \"g\"}").expect("send"),
        409,
        "namespace_exists",
    );
    assert_error(
        &c.post(
            "/namespaces",
            "{\"name\": \"h\", \"g1\": {\"labels\": [\"a\"], \"edges\": [[0, 5]]}, \
             \"g2\": {\"labels\": [\"a\"], \"edges\": []}}",
        )
        .expect("send"),
        400,
        "bad_namespace",
    );
    assert_error(
        &c.post(
            "/namespaces",
            "{\"name\": \"h\", \"g1\": {\"labels\": [\"a\"], \"edges\": []}, \
             \"g2\": {\"labels\": [\"a\"], \"edges\": []}, \"variant\": \"zz\"}",
        )
        .expect("send"),
        400,
        "bad_namespace",
    );
    // And a valid create still works end to end over HTTP.
    let resp = c
        .post(
            "/namespaces",
            "{\"name\": \"h\", \
             \"g1\": {\"labels\": [\"a\", \"b\"], \"edges\": [[0, 1]]}, \
             \"g2\": {\"labels\": [\"a\", \"b\", \"b\"], \"edges\": [[0, 1], [0, 2]]}, \
             \"variant\": \"s\"}",
        )
        .expect("send");
    assert_eq!(resp.status, 201, "{}", resp.text());
    let score = c.get("/score?ns=h&u=0&v=0").expect("send");
    assert_eq!(score.status, 200);
    let doc = Json::parse(&score.text()).expect("json");
    assert!(doc.get("score").and_then(Json::as_f64).unwrap() > 0.99);
    assert_alive(&daemon);
}

#[test]
fn full_edit_queue_is_a_structured_429() {
    let daemon = start(ServerConfig {
        queue_capacity: 1,
        // Hold the writer on each batch so the queue can be driven full
        // deterministically.
        writer_throttle: std::time::Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    let body = "{\"edits\": [{\"op\": \"add_edge\", \"side\": \"right\", \"src\": 2, \"dst\": 0}]}";
    let mut saw_429 = false;
    for _ in 0..50 {
        let resp = c.post("/edits?ns=g", body).expect("send");
        match resp.status {
            202 => {}
            429 => {
                assert_error(&resp, 429, "queue_full");
                saw_429 = true;
                break;
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(
        saw_429,
        "a capacity-1 queue under a throttled writer never filled"
    );
    // Backpressure is load shedding, not failure: reads still work.
    assert_alive(&daemon);
}

/// A panic while holding a namespace lock poisons it. The daemon's
/// poison-stripping lock helpers mean that at worst the one affected
/// request degrades (a structured 500, never a dead connection thread);
/// here the stripped guard still yields a valid value, so every later
/// request — including the ones that take that exact lock — keeps
/// serving, the writer keeps applying edits, and shutdown leaks nothing.
#[test]
fn poisoned_namespace_lock_degrades_without_killing_the_daemon() {
    let mut daemon = start(ServerConfig::default());
    let ns = daemon.namespace("g").expect("registered namespace");
    // Poison the namespace's last-error mutex: panic while holding
    // its guard on a throwaway thread.
    let victim = std::sync::Arc::clone(&ns);
    let poisoner = std::thread::spawn(move || {
        let _guard = victim.stats.last_error.lock().expect("first lock");
        panic!("deliberately poison the stats lock");
    });
    assert!(poisoner.join().is_err(), "poisoner must have panicked");
    assert!(ns.stats.last_error.is_poisoned(), "lock must be poisoned");

    // GET /stats reads through the poisoned lock — it must answer,
    // not kill the connection thread.
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    let resp = c.get("/stats?ns=g").expect("stats over poisoned lock");
    assert_eq!(resp.status, 200, "body: {}", resp.text());

    // The writer path (which records apply errors into that same
    // lock) must also survive: a failing batch is rejected and
    // recorded, a valid batch still advances the epoch.
    let bad = "{\"edits\": [{\"op\": \"add_edge\", \"side\": \"right\", \"src\": 99, \"dst\": 0}]}";
    let good = "{\"edits\": [{\"op\": \"add_edge\", \"side\": \"right\", \"src\": 2, \"dst\": 0}]}";
    assert_eq!(c.post("/edits?ns=g", bad).expect("send").status, 202);
    assert_eq!(c.post("/edits?ns=g", good).expect("send").status, 202);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let resp = c.get("/stats?ns=g").expect("poll stats");
        let doc = Json::parse(&resp.text()).expect("stats json");
        if doc.get("batches_applied").and_then(Json::as_u64) == Some(1)
            && doc.get("batches_failed").and_then(Json::as_u64) == Some(1)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "writer wedged after lock poison: {}",
            resp.text()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_alive(&daemon);
    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0, "leaked daemon threads");
}

#[test]
fn abuse_leaves_no_threads_behind() {
    let mut daemon = start(ServerConfig::default());
    let mut c = HttpClient::connect(daemon.addr()).expect("connect");
    let _ = c.send_raw(b"GET /\r\n\r\n");
    let _ = HttpClient::connect(daemon.addr()); // idle connection, never speaks
    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0, "leaked daemon threads");
}
