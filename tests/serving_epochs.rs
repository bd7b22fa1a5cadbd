//! Multi-threaded serving stress: N readers hammer `/score` and `/dump`
//! while an editor churns the right-hand graph through `/edits`.
//!
//! Invariants pinned here:
//!
//! * **No torn reads** — every `/dump` response's pair list re-hashes
//!   (FNV-1a over `(u, v, score bits)`) to exactly the `X-Fsim-Score-Hash`
//!   the response claims, and across *all* threads one `epoch_id` maps to
//!   one score hash.
//! * **Epoch monotonicity** — per connection, `X-Fsim-Epoch` never goes
//!   backwards.
//! * **Clean drain** — shutdown applies every accepted batch, and the
//!   daemon's `live_threads()` returns to exactly 0 (accept loop,
//!   connection handlers and namespace writers all joined).

use fsim::prelude::*;
use fsim::serve::client::HttpClient;
use fsim::serve::json::Json;
use fsim::serve::{Daemon, ServerConfig};
use fsim_core::{score_hash, FsimEngine};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const READERS: usize = 8;
const READS_PER_READER: usize = 60;
const EDIT_BATCHES: usize = 40;

fn graph_pair() -> (Graph, Graph) {
    let interner = LabelInterner::shared();
    let mk = |interner, n: u32| {
        let mut b = GraphBuilder::with_interner(interner);
        for i in 0..n {
            b.add_node(["a", "b", "c"][i as usize % 3]);
            if i > 0 {
                b.add_edge(i - 1, i);
            }
        }
        b.add_edge(n - 1, 0);
        b.build()
    };
    let g1 = mk(Arc::clone(&interner), 9);
    let g2 = mk(interner, 24);
    (g1, g2)
}

fn parse_hash_header(resp: &fsim::serve::client::HttpResponse) -> u64 {
    let raw = resp
        .header("x-fsim-score-hash")
        .expect("score-hash header on namespaced response");
    u64::from_str_radix(raw.trim_start_matches("0x"), 16)
        .unwrap_or_else(|_| panic!("unparseable score hash {raw:?}"))
}

fn parse_epoch_header(resp: &fsim::serve::client::HttpResponse) -> u64 {
    resp.header("x-fsim-epoch")
        .expect("epoch header on namespaced response")
        .parse()
        .expect("numeric epoch header")
}

/// One reader connection: alternates `/score` and `/dump`, checking
/// self-consistency of every response, and returns its `(epoch, hash)`
/// observations for the cross-thread torn-read check.
fn reader(addr: std::net::SocketAddr, done: Arc<AtomicBool>) -> Vec<(u64, u64)> {
    let mut client = HttpClient::connect(addr).expect("connect");
    let mut seen = Vec::new();
    let mut last_epoch = 0u64;
    let mut i = 0usize;
    while i < READS_PER_READER || !done.load(Ordering::SeqCst) {
        let (epoch, hash) = if i % 4 == 0 {
            let resp = client.get("/dump?ns=stress").expect("dump");
            assert_eq!(resp.status, 200, "dump failed: {}", resp.text());
            let doc = Json::parse(&resp.text()).expect("dump body is JSON");
            let pairs = doc.get("pairs").and_then(Json::as_array).expect("pairs");
            // Re-hash the returned scores: a torn read (scores from one
            // epoch, header from another) cannot produce a matching
            // fingerprint.
            let rehashed = score_hash(pairs.iter().map(|p| {
                let p = p.as_array().expect("pair triple");
                (
                    p[0].as_u64().expect("u") as NodeId,
                    p[1].as_u64().expect("v") as NodeId,
                    p[2].as_f64().expect("score"),
                )
            }));
            assert_eq!(
                rehashed,
                parse_hash_header(&resp),
                "dump body does not hash to its own X-Fsim-Score-Hash"
            );
            let body_epoch = doc.get("epoch").and_then(Json::as_u64).expect("epoch");
            let header_epoch = parse_epoch_header(&resp);
            assert_eq!(body_epoch, header_epoch, "body/header epoch mismatch");
            (header_epoch, rehashed)
        } else {
            let resp = client
                .get(&format!("/score?ns=stress&u={}&v={}", i % 9, i % 24))
                .expect("score");
            assert_eq!(resp.status, 200, "score failed: {}", resp.text());
            let doc = Json::parse(&resp.text()).expect("score body is JSON");
            let body_hash = doc.get("score_hash").and_then(Json::as_str).expect("hash");
            let header_hash = parse_hash_header(&resp);
            assert_eq!(
                body_hash,
                format!("{header_hash:#018x}"),
                "body/header score-hash mismatch"
            );
            (parse_epoch_header(&resp), header_hash)
        };
        assert!(
            epoch >= last_epoch,
            "epoch went backwards on one connection: {last_epoch} -> {epoch}"
        );
        last_epoch = epoch;
        seen.push((epoch, hash));
        i += 1;
    }
    seen
}

#[test]
fn readers_see_consistent_epochs_under_edit_churn() {
    let (g1, g2) = graph_pair();
    let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    let mut daemon = Daemon::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    daemon.add_namespace(
        "stress",
        FsimEngine::new_owned(g1, g2, &cfg).expect("valid config"),
    );
    let addr = daemon.addr();

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || reader(addr, done))
        })
        .collect();

    // Edit churn: toggle a right-hand chord on and off, one batch per
    // request, while the readers run.
    let mut editor = HttpClient::connect(addr).expect("connect editor");
    let mut accepted = 0u64;
    for i in 0..EDIT_BATCHES {
        let op = if i % 2 == 0 {
            "add_edge"
        } else {
            "remove_edge"
        };
        let body = format!(
            "{{\"edits\":[{{\"op\":\"{op}\",\"side\":\"right\",\"src\":{},\"dst\":{}}}]}}",
            i % 23,
            (i + 11) % 24
        );
        let resp = editor.post("/edits?ns=stress", &body).expect("post edits");
        match resp.status {
            202 => accepted += 1,
            429 => {} // backpressure is legal under churn; retry not needed here
            other => panic!("unexpected edit status {other}: {}", resp.text()),
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    done.store(true, Ordering::SeqCst);

    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    let mut max_epoch = 0u64;
    for handle in readers {
        for (epoch, hash) in handle.join().expect("reader thread") {
            max_epoch = max_epoch.max(epoch);
            if let Some(prev) = by_epoch.insert(epoch, hash) {
                assert_eq!(
                    prev, hash,
                    "two responses claimed epoch {epoch} with different score hashes"
                );
            }
        }
    }
    assert!(
        max_epoch > 1,
        "edit churn never produced a visible epoch advance"
    );
    assert!(accepted > 0, "no edit batch was accepted");

    // Clean drain: after shutdown every accepted batch has been applied
    // (none dropped) and the final epoch reflects all of them.
    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0, "daemon shutdown leaked threads");
}

/// Shutdown with a loaded queue must drain: every accepted batch is
/// applied before the writer joins.
#[test]
fn shutdown_drains_accepted_batches() {
    let (g1, g2) = graph_pair();
    let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    let mut daemon = Daemon::bind(
        "127.0.0.1:0",
        ServerConfig {
            // Slow the writer so batches are still queued at shutdown.
            writer_throttle: std::time::Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    daemon.add_namespace(
        "drain",
        FsimEngine::new_owned(g1, g2, &cfg).expect("valid config"),
    );
    let mut client = HttpClient::connect(daemon.addr()).expect("connect");
    let mut accepted = 0u64;
    for i in 0..10 {
        let op = if i % 2 == 0 {
            "add_edge"
        } else {
            "remove_edge"
        };
        let body =
            format!("{{\"edits\":[{{\"op\":\"{op}\",\"side\":\"right\",\"src\":0,\"dst\":12}}]}}");
        if client.post("/edits?ns=drain", &body).expect("post").status == 202 {
            accepted += 1;
        }
    }
    let ns = daemon.namespace("drain").expect("namespace");
    daemon.shutdown();
    assert_eq!(
        ns.cell.load().batches_applied,
        accepted,
        "shutdown dropped queued batches instead of draining them"
    );
}
