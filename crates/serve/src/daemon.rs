//! The daemon: accept loop, connection threads and the request router.

use crate::http::{Conn, Recv, Request, Response};
use crate::json::{escape_json, json_f64, Json};
use crate::namespace::{EnqueueError, Namespace};
use crate::ThreadGuard;
use fsim_core::{
    ConvergenceMode, FsimConfig, FsimEngine, GraphEdit, GraphSide, ShardSpec, Variant,
};
use fsim_graph::{Graph, GraphBuilder};
use fsim_labels::LabelFn;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded per-namespace edit-queue capacity; a full queue turns
    /// `POST /edits` into a 429.
    pub queue_capacity: usize,
    /// Largest accepted request body; larger `Content-Length`s are
    /// rejected with 413 before the payload is read.
    pub max_body_bytes: usize,
    /// Test hook: how long each namespace writer sleeps before applying
    /// a queue window, so tests can drive the 429 path deterministically.
    /// Zero (the default) in production.
    pub writer_throttle: Duration,
    /// Socket read timeout — the interval at which idle connection
    /// threads poll the shutdown flag.
    pub read_timeout: Duration,
    /// Where `POST /namespaces/<ns>/snapshot` writes `<ns>.fsnp` when
    /// the request body does not name an explicit path, and where
    /// [`Daemon::preload_snapshots`] looks for sessions at startup.
    /// `None` (the default) disables the implicit target; snapshot
    /// requests must then carry `{"path": ...}`.
    pub snapshot_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            max_body_bytes: 1024 * 1024,
            writer_throttle: Duration::ZERO,
            read_timeout: Duration::from_millis(50),
            snapshot_dir: None,
        }
    }
}

/// What a snapshot-directory preload did: the namespace names loaded,
/// plus the files skipped as `(file_name, reason)` pairs.
pub type PreloadOutcome = (Vec<String>, Vec<(String, String)>);

struct Shared {
    cfg: ServerConfig,
    namespaces: RwLock<HashMap<String, Arc<Namespace>>>,
    stop: AtomicBool,
    /// This daemon's live threads (see [`Daemon::live_threads`]).
    live: Arc<AtomicUsize>,
}

/// A running `fsimd` instance.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            namespaces: RwLock::new(HashMap::new()),
            stop: AtomicBool::new(false),
            live: Arc::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            let _guard = ThreadGuard::new(&accept_shared.live);
            accept_loop(listener, accept_shared);
        });
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// This daemon's live threads: its accept loop, connection handlers
    /// and namespace writers. Exactly 0 once [`shutdown`](Self::shutdown)
    /// has returned, whatever other daemons of the process are doing.
    pub fn live_threads(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Registers (and if necessary converges) a namespace directly,
    /// bypassing HTTP — the programmatic twin of `POST /namespaces`.
    pub fn add_namespace(&self, name: &str, engine: FsimEngine<'static>) {
        let ns = Namespace::start_counted(
            name,
            engine,
            self.shared.cfg.queue_capacity,
            self.shared.cfg.writer_throttle,
            &self.shared.live,
        );
        write_lock(&self.shared.namespaces).insert(name.to_string(), ns);
    }

    /// Snapshot accessor for tests/benches: the namespace by name.
    pub fn namespace(&self, name: &str) -> Option<Arc<Namespace>> {
        read_lock(&self.shared.namespaces).get(name).cloned()
    }

    /// Restores every `*.fsnp` session in `dir` as a namespace named by
    /// its file stem — the cold-start path behind `fsimd
    /// --snapshot-dir`. Returns the names loaded plus the files skipped
    /// as `(file_name, reason)` pairs; only an unreadable directory is a
    /// hard error. Files already claimed as namespaces are skipped, so
    /// a preload never clobbers a live session.
    pub fn preload_snapshots(&self, dir: &std::path::Path) -> Result<PreloadOutcome, String> {
        let (sessions, rejected) = fsim_core::scan_snapshot_dir(dir).map_err(|e| e.to_string())?;
        let mut loaded = Vec::new();
        let mut skipped: Vec<(String, String)> = rejected
            .into_iter()
            .map(|(file, err)| (file, err.to_string()))
            .collect();
        for (name, engine) in sessions {
            if read_lock(&self.shared.namespaces).contains_key(&name) {
                skipped.push((format!("{name}.fsnp"), "namespace already exists".into()));
                continue;
            }
            self.add_namespace(&name, engine);
            loaded.push(name);
        }
        Ok((loaded, skipped))
    }

    /// Drain-and-join shutdown: stops accepting, joins every connection
    /// thread, then shuts each namespace down (drain the edit queue,
    /// join the writer). Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway local connect
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let namespaces: Vec<Arc<Namespace>> = write_lock(&self.shared.namespaces)
            .drain()
            .map(|(_, ns)| ns)
            .collect();
        for ns in namespaces {
            ns.shutdown();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
                let conn_shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || {
                    let _guard = ThreadGuard::new(&conn_shared.live);
                    serve_conn(Conn::new(stream), conn_shared);
                }));
                // Reap finished handlers so a long-lived daemon does not
                // accumulate one JoinHandle per past connection.
                conns.retain(|h| !h.is_finished());
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    // The daemon joins connection threads before namespace writers shut
    // down, so no request can observe a half-closed namespace.
    for handle in conns {
        let _ = handle.join();
    }
}

fn serve_conn(mut conn: Conn, shared: Arc<Shared>) {
    loop {
        match conn.read_request(shared.cfg.max_body_bytes) {
            Recv::Idle => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Recv::Closed => return,
            Recv::Bad { status, reason } => {
                let kind = if status == 413 {
                    "body_too_large"
                } else {
                    "bad_request"
                };
                conn.write_response(&Response::error(status, kind, &reason), false);
                return;
            }
            Recv::Ready(req) => {
                let keep_alive = req.keep_alive;
                let resp = route(&req, &shared);
                if !conn.write_response(&resp, keep_alive) || !keep_alive {
                    return;
                }
            }
        }
    }
}

/// Dispatches one request. Every error path returns a structured
/// `{"error", "detail"}` response; nothing in here may panic the
/// connection thread on client-controlled input.
fn route(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"namespaces\":{},\"live_threads\":{}}}",
                read_lock(&shared.namespaces).len(),
                crate::live_daemon_threads()
            ),
        ),
        ("GET", "/namespaces") => {
            let namespaces = read_lock(&shared.namespaces);
            let mut names: Vec<&String> = namespaces.keys().collect();
            names.sort();
            let items: Vec<String> = names
                .iter()
                .map(|name| {
                    let epoch = namespaces[name.as_str()].cell.load();
                    format!(
                        "{{\"name\":\"{}\",\"epoch\":{},\"pairs\":{}}}",
                        escape_json(name),
                        epoch.epoch_id,
                        epoch.snapshot.pair_count()
                    )
                })
                .collect();
            Response::json(200, format!("{{\"namespaces\":[{}]}}", items.join(",")))
        }
        ("POST", "/namespaces") => create_namespace(req, shared),
        ("GET", "/score") => with_namespace(req, shared, get_score),
        ("GET", "/top_k") => with_namespace(req, shared, get_top_k),
        ("GET", "/dump") => with_namespace(req, shared, get_dump),
        ("GET", "/stats") => with_namespace(req, shared, get_stats),
        ("POST", "/edits") => with_namespace(req, shared, post_edits),
        ("POST", path) if snapshot_route(path).is_some() => post_snapshot(req, shared),
        (_, path) if snapshot_route(path).is_some() => Response::error(
            405,
            "method_not_allowed",
            &format!("{} {}", req.method, req.path),
        ),
        (_, "/health" | "/namespaces" | "/score" | "/top_k" | "/dump" | "/stats" | "/edits") => {
            Response::error(
                405,
                "method_not_allowed",
                &format!("{} {}", req.method, req.path),
            )
        }
        _ => Response::error(404, "not_found", &req.path),
    }
}

/// Resolves the `ns` parameter and hands the handler the namespace; the
/// response is stamped with the freshness headers of whatever epoch the
/// handler consulted (handlers return it alongside the response body so
/// headers and body always describe the same epoch).
fn with_namespace(
    req: &Request,
    shared: &Shared,
    handler: fn(&Request, &Namespace) -> Handled,
) -> Response {
    let Some(name) = req.param("ns") else {
        return Response::error(400, "missing_param", "query parameter 'ns' is required");
    };
    let Some(ns) = read_lock(&shared.namespaces).get(name).cloned() else {
        return Response::error(404, "unknown_namespace", name);
    };
    match handler(req, &ns) {
        Err(resp) => resp,
        Ok((resp, epoch)) => match epoch {
            None => resp,
            Some(e) => resp
                .with_header("x-fsim-epoch", e.epoch_id.to_string())
                .with_header("x-fsim-error-bound", json_f64(e.snapshot.error_bound()))
                .with_header(
                    "x-fsim-score-hash",
                    format!("{:#018x}", e.snapshot.score_hash()),
                ),
        },
    }
}

type Handled = Result<(Response, Option<Arc<crate::Epoch>>), Response>;

fn parse_node(req: &Request, key: &str) -> Result<u32, Response> {
    let Some(raw) = req.param(key) else {
        return Err(Response::error(
            400,
            "missing_param",
            &format!("query parameter '{key}' is required"),
        ));
    };
    raw.parse::<u32>().map_err(|_| {
        Response::error(
            400,
            "bad_param",
            &format!("'{key}' must be a node id, got {raw:?}"),
        )
    })
}

fn get_score(req: &Request, ns: &Namespace) -> Handled {
    let u = parse_node(req, "u")?;
    let v = parse_node(req, "v")?;
    let epoch = ns.cell.load();
    ns.stats.reads.fetch_add(1, Ordering::SeqCst);
    let body = format!(
        "{{\"u\":{},\"v\":{},\"score\":{},\"maintained\":{},\"epoch\":{},\"batches_applied\":{},\"error_bound\":{},\"score_hash\":\"{:#018x}\"}}",
        u,
        v,
        json_f64(epoch.snapshot.score(u, v)),
        epoch.snapshot.get(u, v).is_some(),
        epoch.epoch_id,
        epoch.batches_applied,
        json_f64(epoch.snapshot.error_bound()),
        epoch.snapshot.score_hash(),
    );
    Ok((Response::json(200, body), Some(epoch)))
}

fn get_top_k(req: &Request, ns: &Namespace) -> Handled {
    let k = match req.param("k") {
        None => 10,
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            Response::error(
                400,
                "bad_param",
                &format!("'k' must be a count, got {raw:?}"),
            )
        })?,
    };
    let exclude_identity = req.param("exclude_identity") == Some("true");
    let epoch = ns.cell.load();
    ns.stats.reads.fetch_add(1, Ordering::SeqCst);
    let pairs: Vec<String> = match req.param("u") {
        Some(_) => {
            let u = parse_node(req, "u")?;
            epoch
                .snapshot
                .top_k_for_left(u, k)
                .into_iter()
                .map(|(v, s)| format!("{{\"u\":{},\"v\":{},\"score\":{}}}", u, v, json_f64(s)))
                .collect()
        }
        None => epoch
            .snapshot
            .top_k(k, exclude_identity)
            .into_iter()
            .map(|(u, v, s)| format!("{{\"u\":{},\"v\":{},\"score\":{}}}", u, v, json_f64(s)))
            .collect(),
    };
    let body = format!(
        "{{\"epoch\":{},\"pairs\":[{}]}}",
        epoch.epoch_id,
        pairs.join(",")
    );
    Ok((Response::json(200, body), Some(epoch)))
}

fn get_dump(_req: &Request, ns: &Namespace) -> Handled {
    let epoch = ns.cell.load();
    ns.stats.reads.fetch_add(1, Ordering::SeqCst);
    let pairs: Vec<String> = epoch
        .snapshot
        .iter_pairs()
        .map(|(u, v, s)| format!("[{},{},{}]", u, v, json_f64(s)))
        .collect();
    let body = format!(
        "{{\"epoch\":{},\"batches_applied\":{},\"converged\":{},\"iterations\":{},\"error_bound\":{},\"pairs\":[{}]}}",
        epoch.epoch_id,
        epoch.batches_applied,
        epoch.snapshot.converged(),
        epoch.snapshot.iterations(),
        json_f64(epoch.snapshot.error_bound()),
        pairs.join(",")
    );
    Ok((Response::json(200, body), Some(epoch)))
}

fn get_stats(_req: &Request, ns: &Namespace) -> Handled {
    let epoch = ns.cell.load();
    let s = &ns.stats;
    let last_error = s
        .last_error
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let body = format!(
        "{{\"name\":\"{}\",\"epoch\":{},\"reads\":{},\"batches_accepted\":{},\"batches_rejected_full\":{},\"batches_applied\":{},\"batches_failed\":{},\"epochs_published\":{},\"last_error\":{}}}",
        escape_json(&ns.name),
        epoch.epoch_id,
        s.reads.load(Ordering::SeqCst),
        s.batches_accepted.load(Ordering::SeqCst),
        s.batches_rejected_full.load(Ordering::SeqCst),
        s.batches_applied.load(Ordering::SeqCst),
        s.batches_failed.load(Ordering::SeqCst),
        s.epochs_published.load(Ordering::SeqCst),
        match last_error {
            None => "null".to_string(),
            Some(e) => format!("\"{}\"", escape_json(&e)),
        }
    );
    Ok((Response::json(200, body), Some(epoch)))
}

fn post_edits(req: &Request, ns: &Namespace) -> Handled {
    let edits = parse_edit_batch(&req.body)
        .map_err(|detail| Response::error(400, "bad_edit_batch", &detail))?;
    if edits.is_empty() {
        return Err(Response::error(400, "bad_edit_batch", "empty edit batch"));
    }
    let count = edits.len();
    match ns.enqueue(edits) {
        Ok(()) => {
            let epoch = ns.cell.load();
            let body = format!(
                "{{\"queued\":true,\"edits\":{},\"epoch_at_enqueue\":{}}}",
                count, epoch.epoch_id
            );
            Ok((Response::json(202, body), Some(epoch)))
        }
        Err(EnqueueError::Full) => Err(Response::error(
            429,
            "queue_full",
            "edit queue is at capacity; retry after the writer catches up",
        )),
        Err(EnqueueError::ShuttingDown) => Err(Response::error(
            409,
            "shutting_down",
            "namespace is shutting down",
        )),
    }
}

/// Matches `/namespaces/<ns>/snapshot` and extracts the namespace name
/// from the middle segment. The name must be a single non-empty
/// segment — no slashes, so a crafted path can never escape the
/// configured snapshot directory.
fn snapshot_route(path: &str) -> Option<&str> {
    let name = path
        .strip_prefix("/namespaces/")?
        .strip_suffix("/snapshot")?;
    (!name.is_empty() && !name.contains('/') && name != "." && name != "..").then_some(name)
}

/// `POST /namespaces/<ns>/snapshot`: ask the namespace writer to
/// serialize its session. The optional body `{"path": "..."}` names an
/// explicit target; otherwise the daemon writes
/// `<snapshot_dir>/<ns>.fsnp`. The request rides the edit queue, so the
/// snapshot reflects every batch enqueued before it and shares the
/// queue's backpressure (429 when full).
fn post_snapshot(req: &Request, shared: &Shared) -> Response {
    let Some(name) = snapshot_route(&req.path) else {
        return Response::error(404, "not_found", &req.path);
    };
    let Some(ns) = read_lock(&shared.namespaces).get(name).cloned() else {
        return Response::error(404, "unknown_namespace", name);
    };
    let explicit = if req.body.is_empty() {
        None
    } else {
        let doc = match std::str::from_utf8(&req.body)
            .map_err(|_| "body is not utf-8".to_string())
            .and_then(|t| Json::parse(t).map_err(|e| e.to_string()))
        {
            Ok(doc) => doc,
            Err(detail) => return Response::error(400, "bad_request", &detail),
        };
        match doc.get("path") {
            None => None,
            Some(p) => match p.as_str() {
                Some(s) if !s.is_empty() => Some(std::path::PathBuf::from(s)),
                _ => {
                    return Response::error(400, "bad_request", "'path' must be a non-empty string")
                }
            },
        }
    };
    let target = match explicit {
        Some(path) => path,
        None => match &shared.cfg.snapshot_dir {
            Some(dir) => dir.join(format!("{name}.fsnp")),
            None => {
                return Response::error(
                    400,
                    "no_snapshot_target",
                    "no snapshot directory configured; pass {\"path\": ...} or start with --snapshot-dir",
                )
            }
        },
    };
    match ns.snapshot_to(target.clone()) {
        Ok(Ok(bytes)) => Response::json(
            200,
            format!(
                "{{\"namespace\":\"{}\",\"path\":\"{}\",\"bytes\":{}}}",
                escape_json(name),
                escape_json(&target.display().to_string()),
                bytes
            ),
        ),
        Ok(Err(detail)) => Response::error(500, "snapshot_failed", &detail),
        Err(EnqueueError::Full) => Response::error(
            429,
            "queue_full",
            "edit queue is at capacity; retry after the writer catches up",
        ),
        Err(EnqueueError::ShuttingDown) => {
            Response::error(409, "shutting_down", "namespace is shutting down")
        }
    }
}

/// Body shape: `{"edits": [{"op": "add_edge"|"remove_edge",
/// "side": "left"|"right", "src": U, "dst": V}, …]}`.
fn parse_edit_batch(body: &[u8]) -> Result<Vec<GraphEdit>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let Some(items) = doc.get("edits").and_then(Json::as_array) else {
        return Err("missing 'edits' array".to_string());
    };
    let mut edits = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .ok_or_else(|| format!("edit #{i}: missing '{key}'"))
        };
        let side = match field("side")?.as_str() {
            Some("left") => GraphSide::Left,
            Some("right") => GraphSide::Right,
            _ => return Err(format!("edit #{i}: 'side' must be \"left\" or \"right\"")),
        };
        let node = |key: &str| -> Result<u32, String> {
            field(key)?
                .as_u64()
                .filter(|n| *n <= u32::MAX as u64)
                .map(|n| n as u32)
                .ok_or_else(|| format!("edit #{i}: '{key}' must be a node id"))
        };
        let (src, dst) = (node("src")?, node("dst")?);
        let edit = match field("op")?.as_str() {
            Some("add_edge") => GraphEdit::add_edge(side, src, dst),
            Some("remove_edge") => GraphEdit::remove_edge(side, src, dst),
            _ => {
                return Err(format!(
                    "edit #{i}: 'op' must be \"add_edge\" or \"remove_edge\""
                ))
            }
        };
        edits.push(edit);
    }
    Ok(edits)
}

/// `POST /namespaces` body: `{"name": "...", "g1": {graph}, "g2": {graph},
/// "variant": "s"|"dp"|"b"|"bj", "theta": T, "threads": N,
/// "convergence": "auto"|"sweep"|"delta"|"approx", "tolerance": T,
/// "shards": K}` — graphs in the `fsim_graph::io` JSON shape
/// (`{"labels": [...], "edges": [[u,v], ...]}`).
fn create_namespace(req: &Request, shared: &Shared) -> Response {
    let doc = match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|t| Json::parse(t).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(detail) => return Response::error(400, "bad_request", &detail),
    };
    match create_namespace_inner(&doc, shared) {
        Ok(body) => Response::json(201, body),
        Err(resp) => resp,
    }
}

fn create_namespace_inner(doc: &Json, shared: &Shared) -> Result<String, Response> {
    let bad = |detail: &str| Response::error(400, "bad_namespace", detail);
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing 'name'"))?
        .to_string();
    if name.is_empty() {
        return Err(bad("'name' must be non-empty"));
    }
    if read_lock(&shared.namespaces).contains_key(&name) {
        return Err(Response::error(409, "namespace_exists", &name));
    }
    let g1 = graph_from_value(doc.get("g1").ok_or_else(|| bad("missing 'g1'"))?, None)
        .map_err(|e| bad(&format!("g1: {e}")))?;
    // g2 shares g1's label interner, as the CLI does — label equality
    // across the pair must be by string, not by per-graph symbol id.
    let g2 = graph_from_value(doc.get("g2").ok_or_else(|| bad("missing 'g2'"))?, Some(&g1))
        .map_err(|e| bad(&format!("g2: {e}")))?;
    let cfg = config_from_value(doc).map_err(|e| bad(&e))?;
    let engine =
        FsimEngine::new_owned(g1, g2, &cfg).map_err(|e| bad(&format!("invalid config: {e}")))?;
    let ns = Namespace::start_counted(
        &name,
        engine,
        shared.cfg.queue_capacity,
        shared.cfg.writer_throttle,
        &shared.live,
    );
    let epoch = ns.cell.load();
    let body = format!(
        "{{\"name\":\"{}\",\"epoch\":{},\"pairs\":{},\"converged\":{}}}",
        escape_json(&name),
        epoch.epoch_id,
        epoch.snapshot.pair_count(),
        epoch.snapshot.converged()
    );
    {
        use std::collections::hash_map::Entry;
        let mut namespaces = write_lock(&shared.namespaces);
        if let Entry::Vacant(slot) = namespaces.entry(name.clone()) {
            slot.insert(ns);
            return Ok(body);
        }
    }
    // Lost a create race. The loser's namespace drains and joins its
    // writer — strictly *after* the map guard is released, so no reader
    // (or other creator) ever waits on a convergence we are discarding.
    ns.shutdown();
    Err(Response::error(409, "namespace_exists", &name))
}

fn graph_from_value(v: &Json, share_interner_with: Option<&Graph>) -> Result<Graph, String> {
    let labels = v
        .get("labels")
        .and_then(Json::as_array)
        .ok_or("missing 'labels' array")?;
    let edges = v
        .get("edges")
        .and_then(Json::as_array)
        .ok_or("missing 'edges' array")?;
    let mut b = match share_interner_with {
        None => GraphBuilder::new(),
        Some(g) => GraphBuilder::with_interner(std::sync::Arc::clone(g.interner())),
    };
    for (i, label) in labels.iter().enumerate() {
        let s = label
            .as_str()
            .ok_or(format!("label #{i} is not a string"))?;
        b.add_node(s);
    }
    let n = labels.len() as u64;
    for (i, edge) in edges.iter().enumerate() {
        let pair = edge.as_array().ok_or(format!("edge #{i} is not a pair"))?;
        let [u, v] = pair else {
            return Err(format!("edge #{i} is not a pair"));
        };
        let (u, v) = match (u.as_u64(), v.as_u64()) {
            (Some(u), Some(v)) if u < n && v < n => (u as u32, v as u32),
            _ => return Err(format!("edge #{i} references a node outside 0..{n}")),
        };
        b.add_edge(u, v);
    }
    Ok(b.build())
}

fn config_from_value(doc: &Json) -> Result<FsimConfig, String> {
    let variant = match doc.get("variant").map(|v| v.as_str()) {
        None => Variant::Bijective,
        Some(Some("s")) => Variant::Simple,
        Some(Some("dp")) => Variant::DegreePreserving,
        Some(Some("b")) => Variant::Bi,
        Some(Some("bj")) => Variant::Bijective,
        Some(other) => {
            return Err(format!("unknown variant {other:?} (expected s|dp|b|bj)"));
        }
    };
    let mut cfg = FsimConfig::new(variant).label_fn(LabelFn::Indicator);
    if let Some(theta) = doc.get("theta") {
        cfg.theta = theta.as_f64().ok_or("'theta' must be a number")?;
    }
    if let Some(threads) = doc.get("threads") {
        cfg.threads = threads
            .as_u64()
            .ok_or("'threads' must be a non-negative integer")? as usize;
    }
    let tolerance = match doc.get("tolerance") {
        None => 1.0,
        Some(t) => t.as_f64().ok_or("'tolerance' must be a number")?,
    };
    if let Some(mode) = doc.get("convergence") {
        cfg.convergence = match mode.as_str() {
            Some("auto") => ConvergenceMode::Auto,
            Some("sweep") => ConvergenceMode::FullSweep,
            Some("delta") => ConvergenceMode::DeltaDriven,
            Some("approx") => ConvergenceMode::Approximate { tolerance },
            other => {
                return Err(format!(
                    "unknown convergence mode {other:?} (expected auto|sweep|delta|approx)"
                ));
            }
        };
    } else if doc.get("tolerance").is_some() {
        return Err("'tolerance' requires \"convergence\": \"approx\"".to_string());
    }
    if let Some(shards) = doc.get("shards") {
        cfg.shards = match (shards.as_str(), shards.as_u64()) {
            (Some("auto"), _) => ShardSpec::Auto,
            (Some("off"), _) => ShardSpec::Off,
            (None, Some(k)) => ShardSpec::Fixed(k as usize),
            _ => return Err("'shards' must be \"auto\", \"off\" or a shard count".to_string()),
        };
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}
