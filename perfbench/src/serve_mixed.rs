//! `serve_mixed`: the serving user, and the only workload that reaches
//! `snapshot` restore and `serve`. An in-process `fsimd` starts the way
//! `--snapshot-dir` does, by restoring a namespace from an FSNP file
//! written before timing (NELL surrogate, Simple, Jaro–Winkler, θ = 0.6).
//! One reader connection sends `/score` and per-`u` `/top_k` requests
//! on a fixed schedule (open loop) while one editor connection posts
//! paced single-edge batches and watches each become visible.

use crate::layers::{self, timed, BuildSummary, RunCounters};
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::Args;
use fsim_core::{score_hash, FsimConfig, FsimEngine, Variant};
use fsim_graph::{FxHashSet, Graph, NodeId};
use fsim_labels::LabelFn;
use fsim_serve::client::HttpClient;
use fsim_serve::json::Json;
use fsim_serve::{Daemon, ServerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.15;
/// Session builds per cycle; `first_run_s` is the median over all of
/// them, and the last one is written as the snapshot.
const BUILDS_PER_CYCLE: usize = 3;
/// Daemon start-ups from the snapshot per cycle; `setup_s` is the
/// median over all of them.
const STARTS_PER_CYCLE: usize = 3;
/// How long each cycle serves the load.
const CYCLE: Duration = Duration::from_secs(5);
/// Cycles measured even when the window closes first.
const MIN_CYCLES: u64 = 2;
/// Offered read rate, requests per second, on one connection. A single
/// keep-alive connection in a closed loop serves several thousand reads
/// per second here, so this stays well below capacity.
const READ_RATE: f64 = 500.0;
/// Every fourth read is a `/top_k` for one left node; the rest `/score`.
const TOPK_EVERY: u64 = 4;
const TOPK_K: usize = 10;
/// One single-edge batch is posted per period (paced editor).
const EDIT_PERIOD: Duration = Duration::from_millis(200);
/// How often the editor polls `/stats` while waiting for its batch.
const POLL: Duration = Duration::from_millis(1);
/// A batch not visible after this long counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);
/// The reader sleeps until this long before a request is due, then
/// yields until it is: plain sleeps overshoot by tens of microseconds,
/// which is on the order of the read latency itself.
const SPIN: Duration = Duration::from_micros(200);
const NS: &str = "bench";

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

#[derive(Default)]
struct ReaderOut {
    score_s: Vec<f64>,
    topk_s: Vec<f64>,
    late_s: Vec<f64>,
    service_s: Vec<f64>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// The open-loop reader: request `i` is due at `start + i / READ_RATE`
/// and its latency runs from that due time, so a stall also charges the
/// requests queued behind it. A failed request enters the samples as an
/// infinite latency.
fn reader(
    addr: SocketAddr,
    n: u32,
    seed: u64,
    window: (Instant, Instant),
    mut tr: Tracer,
) -> ReaderOut {
    let (start, end) = window;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EAD_5EED);
    let mut client = HttpClient::connect(addr).ok();
    let mut out = ReaderOut::default();
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / READ_RATE);
        if due >= end {
            break;
        }
        let topk = i % TOPK_EVERY == TOPK_EVERY - 1;
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let path = if topk {
            format!("/top_k?ns={NS}&u={u}&k={TOPK_K}")
        } else {
            format!("/score?ns={NS}&u={u}&v={v}")
        };
        wait_until(due);
        let sent = Instant::now();
        // Whole groups of `TOPK_EVERY` alternate, so traced and untraced
        // reads have the same mix.
        let traced = tr.enabled() && (i / TOPK_EVERY) % 2 == 1;
        if traced {
            tr.enter(if topk { "serve.topk" } else { "serve.score" });
        }
        let ok = match client.as_mut().map(|c| c.get(&path)) {
            Some(Ok(resp)) => resp.status == 200,
            _ => {
                client = HttpClient::connect(addr).ok();
                false
            }
        };
        if traced {
            tr.exit();
        }
        let (latency, service) = if ok {
            (due.elapsed().as_secs_f64(), sent.elapsed().as_secs_f64())
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.late_s.push((sent - due).as_secs_f64());
        out.service_s.push(service);
        if topk {
            &mut out.topk_s
        } else {
            &mut out.score_s
        }
        .push(latency);
        if traced {
            &mut out.traced_s
        } else {
            &mut out.untraced_s
        }
        .push(latency);
    }
    out.spans = tr.finish();
    out
}

#[derive(Default)]
struct EditorOut {
    visible_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    queue_depth_max: u64,
    /// Right-side edges flipped relative to the generated graph (each at
    /// most once).
    toggled: FxHashSet<(NodeId, NodeId)>,
    spans: Vec<Span>,
}

fn stats_field(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The paced editor: one single-edge toggle per [`EDIT_PERIOD`]; after
/// each `202` it polls `/stats` until `batches_applied` (plus
/// `batches_failed`) covers the batch, which is the edit's visibility
/// latency as a client sees it.
fn editor(
    addr: SocketAddr,
    g: &Graph,
    seed: u64,
    window: (Instant, Instant),
    mut tr: Tracer,
) -> EditorOut {
    let (start, end) = window;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xED17_5EED);
    let mut out = EditorOut::default();
    let Ok(mut client) = HttpClient::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let n = g.node_count_u32();
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut accepted = 0u64;
    for k in 0u32.. {
        let due = start + EDIT_PERIOD * k;
        if due >= end {
            break;
        }
        wait_until(due);
        // Additions of an absent edge alternate with removals of a
        // generated edge, so the graph keeps its size.
        let (u, v, op) = if k % 2 == 0 {
            loop {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                if !g.has_edge(u, v) && !out.toggled.contains(&(u, v)) {
                    break (u, v, "add_edge");
                }
            }
        } else {
            loop {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                if !out.toggled.contains(&(u, v)) {
                    break (u, v, "remove_edge");
                }
            }
        };
        let body = format!(
            "{{\"edits\":[{{\"op\":\"{op}\",\"side\":\"right\",\"src\":{u},\"dst\":{v}}}]}}"
        );
        out.attempted += 1;
        let status = tr.span("serve.edit_post", || {
            client.post(&format!("/edits?ns={NS}"), &body)
        });
        if !matches!(status, Ok(ref r) if r.status == 202) {
            out.failed += 1;
            continue;
        }
        let acked = Instant::now();
        accepted += 1;
        out.toggled.insert((u, v));
        tr.enter("serve.edit_visible");
        let visible = loop {
            let doc = client
                .get(&format!("/stats?ns={NS}"))
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| Json::parse(&r.text()).ok());
            if let Some(doc) = doc {
                let done =
                    stats_field(&doc, "batches_applied") + stats_field(&doc, "batches_failed");
                let depth = stats_field(&doc, "batches_accepted").saturating_sub(done);
                out.queue_depth_max = out.queue_depth_max.max(depth);
                if done >= accepted {
                    break true;
                }
            }
            if acked.elapsed() > VISIBLE_TIMEOUT {
                break false;
            }
            std::thread::sleep(POLL);
        };
        tr.exit();
        if visible {
            out.visible_s.push(acked.elapsed().as_secs_f64());
        } else {
            out.failed += 1;
            out.visible_s.push(f64::INFINITY);
        }
    }
    out.spans = tr.finish();
    out
}

/// Re-hashes a `/dump` body with the engine's score fingerprint. The
/// `pairs` array is scanned in place rather than parsed into a document
/// tree, so the check does not inflate the workload's peak RSS.
fn dump_hash(body: &str) -> Option<u64> {
    let pairs = body.split_once("\"pairs\":[")?.1;
    let pairs = pairs.strip_suffix("]}")?;
    let mut triples = Vec::new();
    if !pairs.is_empty() {
        for item in pairs.strip_prefix('[')?.strip_suffix(']')?.split("],[") {
            let mut it = item.split(',');
            let (u, v, s) = (it.next()?, it.next()?, it.next()?);
            if it.next().is_some() {
                return None;
            }
            triples.push((u.parse().ok()?, v.parse().ok()?, s.parse().ok()?));
        }
    }
    Some(score_hash(triples.into_iter()))
}

fn hash_header(h: u64) -> String {
    format!("{h:#018x}")
}

/// What the cycles of one run add up to.
#[derive(Default)]
struct Totals {
    builds: Vec<BuildSummary>,
    warm: Vec<RunCounters>,
    write_s: Vec<f64>,
    restore_s: Vec<f64>,
    add_s: Vec<f64>,
    setup_s: Vec<f64>,
    snapshot_bytes: u64,
    reads: ReaderOut,
    visible_s: Vec<f64>,
    edit_attempted: u64,
    edit_failed: u64,
    queue_depth_max: u64,
    accepted: u64,
    rejected: u64,
    applied: u64,
    batches_failed: u64,
    epochs: u64,
    first_epoch_ok: bool,
    dump_rehash_ok: bool,
    dump_cold_ok: bool,
    threads_ok: bool,
}

/// One cycle: build the session and write its snapshot (untimed for
/// `setup_s`), start the daemon from the snapshot `STARTS_PER_CYCLE`
/// times, serve the load for [`CYCLE`], then drain and check.
fn cycle(
    t: &mut Totals,
    g: &Graph,
    cfg: &FsimConfig,
    path: &std::path::Path,
    seed: u64,
    tr: &mut Tracer,
    id_base: u64,
) {
    let mut engine = None;
    for _ in 0..BUILDS_PER_CYCLE {
        drop(engine.take());
        let (mut e, summary) = layers::build(g, cfg, tr);
        t.warm.push(layers::warm_run(&mut e, tr, true));
        t.builds.push(summary);
        engine = Some(e);
    }
    let engine = engine.expect("BUILDS_PER_CYCLE > 0");
    let pre_hash = score_hash(engine.iter_pairs());
    let (write_s, written) = tr.span("snapshot.write", || timed(|| engine.write_snapshot(path)));
    written.expect("snapshot write succeeds");
    t.write_s.push(write_s);
    t.snapshot_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    drop(engine);

    let mut daemon: Option<Daemon> = None;
    for _ in 0..STARTS_PER_CYCLE {
        if let Some(mut d) = daemon.take() {
            d.shutdown();
        }
        let d = Daemon::bind("127.0.0.1:0", ServerConfig::default()).expect("bind a local port");
        let t0 = Instant::now();
        let (restore_s, restored) =
            tr.span("snapshot.restore", || timed(|| FsimEngine::restore(path)));
        let restored = restored.expect("snapshot restores");
        let (add_s, ()) = tr.span("serve.add_namespace", || {
            timed(|| d.add_namespace(NS, restored))
        });
        let first = tr.span("serve.first_read", || {
            HttpClient::connect(d.addr())
                .and_then(|mut c| c.get(&format!("/score?ns={NS}&u=0&v=0")))
        });
        t.setup_s.push(t0.elapsed().as_secs_f64());
        t.restore_s.push(restore_s);
        t.add_s.push(add_s);
        t.first_epoch_ok &= matches!(first, Ok(ref r) if r.status == 200
            && r.header("x-fsim-score-hash") == Some(hash_header(pre_hash).as_str()));
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("STARTS_PER_CYCLE > 0");
    let ns = daemon.namespace(NS).expect("namespace is registered");

    let addr = daemon.addr();
    let start = Instant::now() + Duration::from_millis(20);
    let window = (start, start + CYCLE);
    let n = g.node_count_u32();
    let enabled = tr.enabled();
    let origin = tr.origin();
    let (rd, ed) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(addr, n, seed, window, Tracer::new(enabled, origin, id_base)));
        let e = s.spawn(|| {
            editor(
                addr,
                g,
                seed,
                window,
                Tracer::new(enabled, origin, id_base + (1 << 40)),
            )
        });
        (
            r.join().expect("reader thread"),
            e.join().expect("editor thread"),
        )
    });

    // Drain the queue, then check the final state two ways.
    let drained = Instant::now();
    let pending = || {
        let s = &ns.stats;
        s.batches_accepted.load(Ordering::SeqCst)
            > s.batches_applied.load(Ordering::SeqCst) + s.batches_failed.load(Ordering::SeqCst)
    };
    while pending() && drained.elapsed() < VISIBLE_TIMEOUT {
        std::thread::sleep(POLL);
    }
    let dump = tr.span("serve.dump", || {
        HttpClient::connect(addr).and_then(|mut c| c.get(&format!("/dump?ns={NS}")))
    });
    let header = dump
        .as_ref()
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.header("x-fsim-score-hash").map(str::to_string));
    let rehash = dump.as_ref().ok().and_then(|r| dump_hash(&r.text()));
    t.dump_rehash_ok &= header.is_some() && header == rehash.map(hash_header);
    let (adds, removes): (Vec<_>, Vec<_>) =
        ed.toggled.iter().partition(|&&(u, v)| !g.has_edge(u, v));
    let edited = g.with_edits(&adds, &removes, &[]);
    let mut cold = FsimEngine::new(g, &edited, cfg).expect("valid config");
    cold.run();
    t.dump_cold_ok &= header == Some(hash_header(score_hash(cold.iter_pairs())));
    drop(cold);

    let s = &ns.stats;
    t.accepted += s.batches_accepted.load(Ordering::SeqCst);
    t.rejected += s.batches_rejected_full.load(Ordering::SeqCst);
    t.applied += s.batches_applied.load(Ordering::SeqCst);
    t.batches_failed += s.batches_failed.load(Ordering::SeqCst);
    t.epochs += s.epochs_published.load(Ordering::SeqCst);
    drop(ns);
    daemon.shutdown();
    t.threads_ok &= fsim_serve::live_daemon_threads() == 0;

    let r = &mut t.reads;
    r.score_s.extend(rd.score_s);
    r.topk_s.extend(rd.topk_s);
    r.late_s.extend(rd.late_s);
    r.service_s.extend(rd.service_s);
    r.traced_s.extend(rd.traced_s);
    r.untraced_s.extend(rd.untraced_s);
    r.attempted += rd.attempted;
    r.failed += rd.failed;
    r.spans.extend(rd.spans);
    r.spans.extend(ed.spans);
    t.visible_s.extend(ed.visible_s);
    t.edit_attempted += ed.attempted;
    t.edit_failed += ed.failed;
    t.queue_depth_max = t.queue_depth_max.max(ed.queue_depth_max);
}

pub fn run(args: &Args, origin: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace, origin, 0);
    let g = layers::surrogate(SCALE, args.seed);
    let mut cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.6);
    cfg.epsilon = 1e-4;
    out.inputs.push(("seed", args.seed.to_string()));
    layers::describe_graph(&mut out.inputs, SCALE, &g);
    out.inputs.push((
        "config",
        "Simple, Jaro-Winkler, theta 0.6, eps 1e-4, Auto, 1 thread".into(),
    ));
    out.inputs.push((
        "read_load",
        format!("open loop, {READ_RATE} req/s on 1 connection, every {TOPK_EVERY}th a /top_k k={TOPK_K}, else /score"),
    ));
    out.inputs.push((
        "edit_pacing",
        format!(
            "1 single right-edge toggle per {} ms on 1 connection, each awaited until visible",
            EDIT_PERIOD.as_millis()
        ),
    ));

    let dir = crate::work_dir().join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work directory is creatable");
    let path = dir.join(format!("{NS}.fsnp"));
    let mut t = Totals {
        first_epoch_ok: true,
        dump_rehash_ok: true,
        dump_cold_ok: true,
        threads_ok: true,
        ..Totals::default()
    };
    // The window is a series of cycles, so start-ups, builds and load
    // are sampled over the whole window rather than bunched.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0u64;
    while Instant::now() < deadline || k < MIN_CYCLES {
        tr.enter("workload.cycle");
        let seed = args.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cycle(&mut t, &g, &cfg, &path, seed, &mut tr, (2 * k + 1) << 40);
        tr.exit();
        k += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.inputs.push((
        "pairs",
        t.builds.last().map_or(0, |b| b.candidate_pairs).to_string(),
    ));
    out.check(
        "first epoch's X-Fsim-Score-Hash equals the pre-snapshot session's",
        t.first_epoch_ok,
    );
    out.check(
        "final /dump re-hashes to its X-Fsim-Score-Hash",
        t.dump_rehash_ok,
    );
    out.check(
        "final /dump equals a cold session on the edited graphs",
        t.dump_cold_ok,
    );
    out.check("daemon stopped every thread it started", t.threads_ok);

    let rd = &t.reads;
    out.attempted += rd.attempted + t.edit_attempted;
    out.failed += rd.failed + t.edit_failed + t.batches_failed;
    let m = &mut out.metrics;
    m.put("setup_s", stats::median(&t.setup_s), "s");
    layers::record(m, &t.builds, &t.warm);
    // The declared operation is a read as the server answers it, from
    // send to response. Timed from its due time, a read also carries the
    // generator's own wake-up lateness; edit visibility is dominated by a
    // CPU-bound batch beside three busy threads on two cores. Between
    // runs both moved with the host's CPU steal by more than the bound,
    // so they are reported only.
    report::put_latency(m, "op", "ms", 1e3, &rd.service_s);
    let reads: Vec<f64> = rd.score_s.iter().chain(&rd.topk_s).copied().collect();
    report::put_latency(m, "read", "ms", 1e3, &reads);
    report::put_latency(m, "score", "us", 1e6, &rd.score_s);
    report::put_latency(m, "topk", "us", 1e6, &rd.topk_s);
    report::put_latency(m, "read_service", "us", 1e6, &rd.service_s);
    report::put_latency(m, "edit_visible", "ms", 1e3, &t.visible_s);
    report::put_overhead(m, &rd.traced_s, &rd.untraced_s);
    m.put("snapshot.write_s", stats::median(&t.write_s), "s");
    m.put("snapshot.restore_s", stats::median(&t.restore_s), "s");
    m.put("snapshot.bytes", t.snapshot_bytes as f64, "B");
    m.put("serve.add_namespace_s", stats::median(&t.add_s), "s");
    m.put("serve.score_requests", rd.score_s.len() as f64, "count");
    m.put("serve.topk_requests", rd.topk_s.len() as f64, "count");
    m.put("serve.edits_accepted", t.accepted as f64, "count");
    m.put("serve.edits_rejected_429", t.rejected as f64, "count");
    m.put("serve.epochs_published", t.epochs as f64, "count");
    m.put("serve.batches_failed", t.batches_failed as f64, "count");
    m.put("serve.queue_depth_max", t.queue_depth_max as f64, "count");
    let late = stats::nearest_rank(&rd.late_s, 0.99).unwrap_or(0.0);
    m.put("serve.generator_late_p99_us", late * 1e6, "us");
    // The writer owns the session, so the per-batch engine counters of
    // `edits` are not observable here; its batch counts are.
    layers::put_bypassed(m, &["edits"]);
    m.put("edits.batches", t.applied as f64, "count");
    m.put("edits.failed", t.batches_failed as f64, "count");

    let mut spans = tr.finish();
    spans.append(&mut t.reads.spans);
    out.spans = spans;
    out
}
