//! `fsimd` — the similarity-serving daemon.
//!
//! ```text
//! fsimd [--listen ADDR] [--ns NAME --g1 FILE --g2 FILE
//!        [--variant s|dp|b|bj] [--theta T] [--threads N]
//!        [--convergence auto|sweep|delta|approx] [--tolerance T]
//!        [--shards N|auto|off]]
//!       [--queue-capacity N] [--max-body-bytes N] [--snapshot-dir DIR]
//! ```
//!
//! Binds `--listen` (default `127.0.0.1:7878`; port `0` picks an
//! ephemeral port), optionally pre-converges one namespace from a pair
//! of text-format graph files, prints the bound address as
//! `listening on ADDR` and serves until stdin reaches EOF (or a line
//! reading `quit`), at which point it drains every edit queue and joins
//! every thread before exiting. Further namespaces can be created at
//! runtime with `POST /namespaces`.
//!
//! With `--snapshot-dir DIR`, every `*.fsnp` session snapshot in `DIR`
//! is restored at startup as a namespace named by its file stem (no
//! re-convergence — the saved fixpoint is served as-is), and
//! `POST /namespaces/<ns>/snapshot` writes `DIR/<ns>.fsnp` when the
//! request body does not name an explicit path.
//!
//! The HTTP API (all responses JSON; namespaced reads carry
//! `X-Fsim-Epoch`, `X-Fsim-Error-Bound` and `X-Fsim-Score-Hash`
//! freshness headers):
//!
//! ```text
//! GET  /health
//! GET  /namespaces
//! POST /namespaces   {"name", "g1", "g2", "variant", ...}
//! GET  /score?ns=NAME&u=U&v=V
//! GET  /top_k?ns=NAME[&k=K][&u=U][&exclude_identity=true]
//! GET  /dump?ns=NAME
//! GET  /stats?ns=NAME
//! POST /edits?ns=NAME   {"edits": [{"op", "side", "src", "dst"}, ...]}
//! POST /namespaces/NAME/snapshot   [{"path": "..."}]
//! ```

use fsim::core::{ConvergenceMode, FsimConfig, FsimEngine, ShardSpec, Variant};
use fsim::graph::Graph;
use fsim::labels::LabelFn;
use fsim::serve::{Daemon, ServerConfig};
use std::io::BufRead;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "fsimd — epoch-swapped similarity-serving daemon\n\
         usage:\n  \
         fsimd [--listen ADDR] [--queue-capacity N] [--max-body-bytes N]\n        \
         [--snapshot-dir DIR]\n        \
         [--ns NAME --g1 FILE --g2 FILE [--variant s|dp|b|bj] [--theta T]\n         \
         [--threads N] [--convergence auto|sweep|delta|approx] [--tolerance T]\n         \
         [--shards N|auto|off]]\n\
         serves until stdin closes (or a line reading 'quit')."
    );
}

fn run(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    if let Some(p) = a.positional.first() {
        return Err(format!("unexpected positional argument {p:?}"));
    }
    let listen = a.flag("listen").unwrap_or("127.0.0.1:7878");

    let mut cfg = ServerConfig::default();
    if let Some(n) = a.flag("queue-capacity") {
        cfg.queue_capacity = n
            .parse()
            .map_err(|_| format!("bad --queue-capacity {n:?}"))?;
    }
    if let Some(n) = a.flag("max-body-bytes") {
        cfg.max_body_bytes = n
            .parse()
            .map_err(|_| format!("bad --max-body-bytes {n:?}"))?;
    }
    if let Some(dir) = a.flag("snapshot-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("--snapshot-dir {dir}: {e}"))?;
        cfg.snapshot_dir = Some(dir.into());
    }

    let mut daemon = Daemon::bind(listen, cfg).map_err(|e| format!("bind {listen}: {e}"))?;

    if let Some(dir) = a.flag("snapshot-dir") {
        let (loaded, skipped) = daemon
            .preload_snapshots(std::path::Path::new(dir))
            .map_err(|e| format!("--snapshot-dir {dir}: {e}"))?;
        for name in &loaded {
            if let Some(ns) = daemon.namespace(name) {
                let epoch = ns.cell.load();
                eprintln!(
                    "namespace {name:?}: restored from snapshot ({} pairs, {} iterations)",
                    epoch.snapshot.pair_count(),
                    epoch.snapshot.iterations()
                );
            }
        }
        for (file, reason) in &skipped {
            eprintln!("warning: skipped snapshot {file:?}: {reason}");
        }
    }

    if let Some(name) = a.flag("ns") {
        let (Some(p1), Some(p2)) = (a.flag("g1"), a.flag("g2")) else {
            return Err("--ns requires --g1 and --g2".into());
        };
        let (g1, g2) = (load_graph(p1)?, load_graph(p2)?);
        let engine_cfg = build_config(&a)?;
        let engine = FsimEngine::new_owned(g1, g2, &engine_cfg).map_err(|e| e.to_string())?;
        daemon.add_namespace(name, engine);
        let ns = daemon.namespace(name).expect("just added");
        let epoch = ns.cell.load();
        eprintln!(
            "namespace {name:?}: {} pairs converged in {} iterations",
            epoch.snapshot.pair_count(),
            epoch.snapshot.iterations()
        );
    } else if a.flag("g1").is_some() || a.flag("g2").is_some() {
        return Err("--g1/--g2 require --ns".into());
    }

    // Tests and scripts parse this line for the ephemeral port.
    println!("listening on {}", daemon.addr());

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    daemon.shutdown();
    eprintln!("drained and stopped");
    Ok(())
}

/// Minimal flag cursor, same shape as the `fsim` CLI's.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix('-').map(|s| s.trim_start_matches('-')) {
                let value = it
                    .peek()
                    .filter(|next| !next.starts_with('-'))
                    .map(|v| v.as_str());
                if value.is_some() {
                    it.next();
                }
                flags.push((name, value));
            } else {
                positional.push(arg.as_str());
            }
        }
        Self { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }
}

/// Loads one text-format graph. Each graph gets its own interner; the
/// engine aligns the two by label string.
fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    fsim::graph::io::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn build_config(a: &Args<'_>) -> Result<FsimConfig, String> {
    let variant = match a.flag("variant").unwrap_or("bj") {
        "s" => Variant::Simple,
        "dp" => Variant::DegreePreserving,
        "b" => Variant::Bi,
        "bj" => Variant::Bijective,
        other => return Err(format!("unknown variant {other:?} (expected s|dp|b|bj)")),
    };
    let mut cfg = FsimConfig::new(variant).label_fn(LabelFn::Indicator);
    if let Some(t) = a.flag("theta") {
        cfg.theta = t.parse().map_err(|_| format!("bad theta {t:?}"))?;
    }
    if let Some(t) = a.flag("threads") {
        cfg.threads = t.parse().map_err(|_| format!("bad thread count {t:?}"))?;
    }
    if let Some(m) = a.flag("convergence") {
        cfg.convergence = match m {
            "auto" => ConvergenceMode::Auto,
            "sweep" => ConvergenceMode::FullSweep,
            "delta" => ConvergenceMode::DeltaDriven,
            "approx" => {
                let tolerance = match a.flag("tolerance") {
                    Some(t) => t.parse().map_err(|_| format!("bad tolerance {t:?}"))?,
                    None => 1.0,
                };
                ConvergenceMode::Approximate { tolerance }
            }
            other => {
                return Err(format!(
                    "unknown convergence mode {other:?} (expected auto|sweep|delta|approx)"
                ))
            }
        };
    }
    if a.flag("tolerance").is_some() && cfg.convergence.approximate_tolerance().is_none() {
        return Err("--tolerance requires --convergence approx".into());
    }
    if let Some(s) = a.flag("shards") {
        cfg.shards = match s {
            "auto" => ShardSpec::Auto,
            "off" => ShardSpec::Off,
            n => ShardSpec::Fixed(
                n.parse()
                    .map_err(|_| format!("bad --shards {n:?} (want N|auto|off)"))?,
            ),
        };
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}
