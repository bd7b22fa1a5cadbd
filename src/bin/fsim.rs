//! `fsim` — command-line front end for fractional χ-simulation.
//!
//! ```text
//! fsim stats <graph>
//! fsim generate --dataset NELL [--scale F] [--seed S] [-o out.txt]
//! fsim score <g1> <g2> [--variant s|dp|b|bj] [--theta T] [--threads N]
//!            [--convergence auto|sweep|delta|approx] [--tolerance T]
//!            [--shards N|auto|off] [--pair U,V]... [--top K]
//! fsim update <g1> [g2] --script FILE [--variant V] [--theta T]
//!             [--threads N] [--convergence MODE] [--tolerance T]
//!             [--shards N|auto|off] [--verify] [--top K]
//! fsim exact <g1> <g2> [--variant s|dp|b|bj] [--pair U,V]...
//! fsim topk <graph> [-k K] [--variant s|dp|b|bj]
//! fsim align <g1> <g2> [--method fsim|kbisim|olap|gsa|final]
//! fsim snapshot <g1> <g2> -o session.fsnp [config flags]
//! ```
//!
//! Graphs are read in the text edge-list format of `fsim_graph::io`
//! (`n <id> <label>` / `e <src> <dst>` lines). Edit scripts for `update`
//! hold one edit per line — `add SIDE SRC DST`, `del SIDE SRC DST`,
//! `relabel SIDE NODE LABEL` (SIDE is `1` or `2`), with `flush` applying
//! the batch accumulated so far; a trailing batch is flushed implicitly.
//!
//! Sessions persist: `fsim snapshot` runs to convergence and writes an
//! `FSNP` snapshot; `score` and `update` accept `--from-snapshot FILE`
//! in place of graph paths to restore it (bitwise-equivalent to the
//! original session) and `--save-snapshot FILE` to persist their final
//! state. `--spill-dir DIR` lets sharded runs cache per-shard CSRs on
//! disk between sweeps.

use fsim::core::{top_k_search, ConvergenceMode, FsimConfig, ShardSpec, Variant};
use fsim::prelude::*;
use std::process::exit;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    let result = match cmd.as_str() {
        "stats" => cmd_stats(rest),
        "generate" => cmd_generate(rest),
        "score" => cmd_score(rest),
        "update" => cmd_update(rest),
        "exact" => cmd_exact(rest),
        "topk" => cmd_topk(rest),
        "align" => cmd_align(rest),
        "snapshot" => cmd_snapshot(rest),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "fsim — fractional chi-simulation on graph data\n\
         commands:\n  \
         stats <graph>                                  print graph statistics\n  \
         generate --dataset NAME [--scale F] [--seed S] [-o FILE]\n  \
         score <g1> <g2> [--variant V] [--theta T] [--threads N] [--convergence auto|sweep|delta|approx] [--tolerance T] [--shards N|auto|off] [--pair U,V]... [--top K]\n  \
         update <g1> [g2] --script FILE [--variant V] [--theta T] [--threads N] [--convergence MODE] [--tolerance T] [--shards N|auto|off] [--verify] [--top K]\n  \
         exact <g1> <g2> [--variant V] [--pair U,V]...\n  \
         topk <graph> [-k K] [--variant V]\n  \
         align <g1> <g2> [--method fsim|kbisim|olap|gsa|final]\n  \
         snapshot <g1> <g2> -o FILE [config flags]           run to convergence and persist the session\n\
         score/update also accept --from-snapshot FILE, --save-snapshot FILE and --spill-dir DIR"
    );
}

/// Minimal flag cursor over the argument list.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix('-').map(|s| s.trim_start_matches('-')) {
                let value = it
                    .peek()
                    .filter(|next| !next.starts_with('-'))
                    .map(|v| v.as_str());
                if value.is_some() {
                    it.next();
                }
                flags.push((name, value));
            } else {
                positional.push(a.as_str());
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

    fn flags_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| *v)
            .collect()
    }
}

/// Loads one text-format graph. Each graph gets its own interner; the
/// engine aligns two of them by label string.
fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    fsim::graph::io::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_variant(s: Option<&str>) -> Result<Variant, String> {
    match s.unwrap_or("bj") {
        "s" => Ok(Variant::Simple),
        "dp" => Ok(Variant::DegreePreserving),
        "b" => Ok(Variant::Bi),
        "bj" => Ok(Variant::Bijective),
        other => Err(format!("unknown variant {other:?} (expected s|dp|b|bj)")),
    }
}

fn parse_pair(s: &str) -> Result<(u32, u32), String> {
    let (a, b) = s
        .split_once(',')
        .ok_or_else(|| format!("bad pair {s:?} (want U,V)"))?;
    Ok((
        a.trim().parse().map_err(|_| format!("bad node id {a:?}"))?,
        b.trim().parse().map_err(|_| format!("bad node id {b:?}"))?,
    ))
}

fn build_config(a: &Args<'_>) -> Result<FsimConfig, String> {
    let mut cfg = FsimConfig::new(parse_variant(a.flag("variant"))?).label_fn(LabelFn::Indicator);
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
    if let Some(dir) = a.flag("spill-dir") {
        cfg.spill_dir = Some(dir.into());
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Restores an engine from `--from-snapshot`, or builds and runs one on
/// the two positional graph paths. Either way the caller gets an owned,
/// converged session plus its effective configuration.
fn obtain_session(
    a: &Args<'_>,
    usage: &str,
) -> Result<(fsim::core::FsimEngine<'static>, FsimConfig), String> {
    if let Some(path) = a.flag("from-snapshot") {
        if !a.positional.is_empty() {
            return Err("--from-snapshot replaces the graph paths".into());
        }
        let t0 = Instant::now();
        let engine = fsim::core::FsimEngine::restore(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "restored session from {path} in {:.1} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
        let cfg = engine.config().clone();
        Ok((engine, cfg))
    } else {
        let [p1, p2] = a.positional[..] else {
            return Err(usage.into());
        };
        let (g1, g2) = (load_graph(p1)?, load_graph(p2)?);
        let cfg = build_config(a)?;
        let mut engine =
            fsim::core::FsimEngine::new_owned(g1, g2, &cfg).map_err(|e| e.to_string())?;
        engine.run();
        Ok((engine, cfg))
    }
}

/// Honors `--save-snapshot FILE` against the session's final state.
fn save_snapshot(a: &Args<'_>, engine: &fsim::core::FsimEngine<'_>) -> Result<(), String> {
    if let Some(path) = a.flag("save-snapshot") {
        let path = std::path::Path::new(path);
        engine
            .write_snapshot(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        eprintln!("saved snapshot to {} ({bytes} bytes)", path.display());
    }
    Ok(())
}

fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let out = a
        .flag("o")
        .or_else(|| a.flag("out"))
        .ok_or("usage: fsim snapshot <g1> <g2> -o FILE [config flags]")?;
    let [p1, p2] = a.positional[..] else {
        return Err("usage: fsim snapshot <g1> <g2> -o FILE [config flags]".into());
    };
    let (g1, g2) = (load_graph(p1)?, load_graph(p2)?);
    let cfg = build_config(&a)?;
    let t0 = Instant::now();
    let mut engine = fsim::core::FsimEngine::new_owned(g1, g2, &cfg).map_err(|e| e.to_string())?;
    engine.run();
    let run_ms = t0.elapsed().as_secs_f64() * 1e3;
    let path = std::path::Path::new(out);
    engine
        .write_snapshot(path)
        .map_err(|e| format!("{out}: {e}"))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "computed {} pairs in {} iterations ({run_ms:.1} ms); snapshot: {out} ({bytes} bytes)",
        engine.pair_count(),
        engine.iterations(),
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let [path] = a.positional[..] else {
        return Err("usage: fsim stats <graph>".into());
    };
    let g = load_graph(path)?;
    println!("{}", GraphStats::of(&g));
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let name = a.flag("dataset").ok_or("--dataset NAME is required")?;
    let spec = fsim::datasets::DatasetSpec::by_name(name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let scale: f64 = a
        .flag("scale")
        .unwrap_or("1.0")
        .parse()
        .map_err(|_| "bad --scale")?;
    let seed: u64 = a
        .flag("seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let g = spec.generate_scaled(scale, seed);
    let text = fsim::graph::io::to_text(&g);
    match a.flag("o") {
        Some(path) => std::fs::write(path, text).map_err(|e| e.to_string())?,
        None => print!("{text}"),
    }
    eprintln!("generated {name}: {}", GraphStats::of(&g));
    Ok(())
}

fn cmd_score(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    // A session: --pair queries against pruned pairs reuse the cached
    // label alignment instead of rebuilding it per pair.
    let (engine, cfg) = obtain_session(&a, "usage: fsim score <g1> <g2> [flags]")?;
    eprintln!(
        "computed {} pairs in {} iterations (converged: {}, {}: {} evaluations)",
        engine.pair_count(),
        engine.iterations(),
        engine.converged(),
        if engine.delta_scheduled() {
            "delta-driven"
        } else {
            "full sweep"
        },
        engine.pairs_evaluated().iter().sum::<usize>(),
    );
    if let Some(pps) = engine.pairs_per_second() {
        eprintln!("throughput: {:.3e} pair evaluations/s", pps);
    }
    if engine.shard_count() > 0 {
        eprintln!(
            "sharded: {} u-row shards, peak resident CSR {} bytes",
            engine.shard_count(),
            engine.peak_csr_bytes(),
        );
    }
    if cfg.convergence.approximate_tolerance().is_some() {
        eprintln!(
            "approximate mode: certified max score error {:.3e}",
            engine.error_bound()
        );
    }
    save_snapshot(&a, &engine)?;
    let pairs = a.flags_all("pair");
    if !pairs.is_empty() {
        let (g1, g2) = engine.graphs();
        let (n1, n2) = (g1.node_count(), g2.node_count());
        for p in pairs {
            let (u, v) = parse_pair(p)?;
            if u as usize >= n1 || v as usize >= n2 {
                return Err(format!(
                    "pair ({u},{v}) out of range: graphs have {n1} and {n2} nodes"
                ));
            }
            println!("FSim{}({u},{v}) = {:.6}", cfg.variant, engine.score(u, v));
        }
        return Ok(());
    }
    let k: usize = a
        .flag("top")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad --top")?;
    for (u, v, s) in engine.top_k(k, false) {
        println!("({u},{v}) {s:.6}");
    }
    Ok(())
}

/// Parses one edit-script line into session edits. In single-graph mode
/// (`mirror == true`) every edit is applied to both sides so the
/// self-similarity session stays consistent.
fn parse_edit_line(
    line: &str,
    mirror: bool,
    out: &mut Vec<fsim::core::GraphEdit>,
) -> Result<bool, String> {
    use fsim::core::{GraphEdit, GraphSide};
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.is_empty() || tokens[0].starts_with('#') {
        return Ok(false);
    }
    if tokens[0] == "flush" {
        return Ok(true);
    }
    let parse_side = |s: &str| -> Result<GraphSide, String> {
        match s {
            "1" | "l" | "left" => Ok(GraphSide::Left),
            "2" | "r" | "right" => Ok(GraphSide::Right),
            other => Err(format!("bad side {other:?} (want 1|2)")),
        }
    };
    let parse_node =
        |s: &str| -> Result<u32, String> { s.parse().map_err(|_| format!("bad node id {s:?}")) };
    let sides = |side: GraphSide| -> Vec<GraphSide> {
        if mirror {
            vec![GraphSide::Left, GraphSide::Right]
        } else {
            vec![side]
        }
    };
    match tokens.as_slice() {
        ["add", side, src, dst] => {
            let (src, dst) = (parse_node(src)?, parse_node(dst)?);
            for s in sides(parse_side(side)?) {
                out.push(GraphEdit::add_edge(s, src, dst));
            }
        }
        ["del", side, src, dst] => {
            let (src, dst) = (parse_node(src)?, parse_node(dst)?);
            for s in sides(parse_side(side)?) {
                out.push(GraphEdit::remove_edge(s, src, dst));
            }
        }
        ["relabel", side, node, label] => {
            let node = parse_node(node)?;
            for s in sides(parse_side(side)?) {
                out.push(GraphEdit::relabel(s, node, *label));
            }
        }
        _ => return Err(format!("bad edit line {line:?}")),
    }
    Ok(false)
}

/// Replays an edit script against a live engine session, reporting the
/// incremental work per batch (`fsim update`).
fn cmd_update(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let script_path = a.flag("script").ok_or("--script FILE is required")?;
    let script = std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let verify = a.flags.iter().any(|(n, _)| *n == "verify");

    let (mut engine, mirror) = if let Some(path) = a.flag("from-snapshot") {
        if !a.positional.is_empty() {
            return Err("--from-snapshot replaces the graph paths".into());
        }
        let t0 = Instant::now();
        let engine = fsim::core::FsimEngine::restore(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "restored session from {path} in {:.1} ms ({} pairs, {} iterations carried)",
            t0.elapsed().as_secs_f64() * 1e3,
            engine.pair_count(),
            engine.iterations(),
        );
        // A snapshot holds two (possibly identical) graphs; --mirror
        // opts into applying each edit to both sides.
        let mirror = a.flags.iter().any(|(n, _)| *n == "mirror");
        (engine, mirror)
    } else {
        let (g1, g2, mirror) = match a.positional[..] {
            [p] => {
                let g = load_graph(p)?;
                (g.clone(), g, true)
            }
            [p1, p2] => {
                let (g1, g2) = (load_graph(p1)?, load_graph(p2)?);
                (g1, g2, false)
            }
            _ => return Err("usage: fsim update <g1> [g2] --script FILE [flags]".into()),
        };
        let cfg = build_config(&a)?;
        let t0 = Instant::now();
        let mut engine =
            fsim::core::FsimEngine::new_owned(g1, g2, &cfg).map_err(|e| e.to_string())?;
        engine.run();
        eprintln!(
            "cold start: {} pairs, {} iterations, {} evaluations, {:.1} ms{}",
            engine.pair_count(),
            engine.iterations(),
            engine.pairs_evaluated().iter().sum::<usize>(),
            t0.elapsed().as_secs_f64() * 1e3,
            if engine.can_replay_edits() {
                ""
            } else {
                " (no trajectory: edits will re-iterate cold)"
            },
        );
        (engine, mirror)
    };
    if engine.shard_count() > 0 {
        eprintln!(
            "sharded: {} u-row shards, peak resident CSR {} bytes",
            engine.shard_count(),
            engine.peak_csr_bytes(),
        );
    }

    let mut batch: Vec<fsim::core::GraphEdit> = Vec::new();
    let mut batch_no = 0usize;
    let mut flush = |batch: &mut Vec<fsim::core::GraphEdit>,
                     engine: &mut fsim::core::FsimEngine<'_>|
     -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        batch_no += 1;
        let edits = std::mem::take(batch);
        let t = Instant::now();
        engine.apply_edits(&edits).map_err(|e| e.to_string())?;
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let approximate = engine
            .config()
            .convergence
            .approximate_tolerance()
            .is_some();
        eprintln!(
            "batch {batch_no}: {} edits, {} pairs, {} iterations, {} evaluations, {warm_ms:.1} ms{}",
            edits.len(),
            engine.pair_count(),
            engine.iterations(),
            engine.pairs_evaluated().iter().sum::<usize>(),
            if approximate {
                format!(", certified max error {:.3e}", engine.error_bound())
            } else {
                String::new()
            },
        );
        if verify {
            let (e1, e2) = engine.graphs();
            if approximate {
                // Approximate sessions stop short of the exact scores;
                // verify the certified bound against an exact cold
                // recompute.
                let mut exact_cfg = engine.config().clone();
                exact_cfg.convergence = fsim::core::ConvergenceMode::DeltaDriven;
                let fresh = fsim::core::compute(e1, e2, &exact_cfg).map_err(|e| e.to_string())?;
                if engine.pair_count() != fresh.pair_count() {
                    return Err(format!("batch {batch_no}: pair sets diverged"));
                }
                let max_err = engine
                    .iter_pairs()
                    .zip(fresh.iter_pairs())
                    .map(|(a, b)| (a.2 - b.2).abs())
                    .fold(0.0f64, f64::max);
                if max_err > engine.error_bound() {
                    return Err(format!(
                        "batch {batch_no}: observed error {max_err:.3e} exceeds certified bound {:.3e}",
                        engine.error_bound()
                    ));
                }
                eprintln!(
                    "batch {batch_no}: verified within bound (observed {max_err:.3e} <= {:.3e})",
                    engine.error_bound()
                );
            } else {
                let fresh =
                    fsim::core::compute(e1, e2, engine.config()).map_err(|e| e.to_string())?;
                let identical = engine.pair_count() == fresh.pair_count()
                    && engine
                        .iter_pairs()
                        .zip(fresh.iter_pairs())
                        .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2.to_bits() == b.2.to_bits());
                if !identical {
                    return Err(format!(
                        "batch {batch_no}: warm scores diverged from cold recompute"
                    ));
                }
                eprintln!("batch {batch_no}: verified bitwise against cold recompute");
            }
        }
        Ok(())
    };
    for (lineno, line) in script.lines().enumerate() {
        let flush_now = parse_edit_line(line, mirror, &mut batch)
            .map_err(|e| format!("{script_path}:{}: {e}", lineno + 1))?;
        if flush_now {
            flush(&mut batch, &mut engine)?;
        }
    }
    flush(&mut batch, &mut engine)?;
    save_snapshot(&a, &engine)?;

    if let Some(k) = a.flag("top") {
        let k: usize = k.parse().map_err(|_| "bad --top")?;
        for (u, v, s) in engine.top_k(k, mirror) {
            println!("({u},{v}) {s:.6}");
        }
    }
    Ok(())
}

fn cmd_exact(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let [p1, p2] = a.positional[..] else {
        return Err("usage: fsim exact <g1> <g2> [flags]".into());
    };
    let (g1, g2) = (load_graph(p1)?, load_graph(p2)?);
    let variant = fsim::exact_variant(parse_variant(a.flag("variant"))?);
    let relation = simulation_relation(&g1, &g2, variant);
    let pairs = a.flags_all("pair");
    if pairs.is_empty() {
        println!("{} simulation pairs", relation.len());
        for (u, v) in relation.pairs() {
            println!("{u} {v}");
        }
    } else {
        for p in pairs {
            let (u, v) = parse_pair(p)?;
            println!("{u} ~ {v}: {}", relation.contains(u, v));
        }
    }
    Ok(())
}

fn cmd_topk(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let [path] = a.positional[..] else {
        return Err("usage: fsim topk <graph> [flags]".into());
    };
    let g = load_graph(path)?;
    let k: usize = a.flag("k").unwrap_or("10").parse().map_err(|_| "bad -k")?;
    let cfg = build_config(&a)?;
    let top = top_k_search(&g, &g, &cfg, k, true);
    eprintln!("certified: {} ({} passes)", top.certified, top.passes);
    for (u, v, s) in top.pairs {
        println!(
            "({u},{v}) {s:.6}  [{} / {}]",
            g.label_str(u),
            g.label_str(v)
        );
    }
    Ok(())
}

fn cmd_align(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args);
    let [p1, p2] = a.positional[..] else {
        return Err("usage: fsim align <g1> <g2> [--method fsim|kbisim|olap|gsa|final]".into());
    };
    let (g1, g2) = (load_graph(p1)?, load_graph(p2)?);
    let method = a.flag("method").unwrap_or("fsim");
    let alignment = match method {
        "fsim" => {
            let cfg = FsimConfig::new(Variant::Bi)
                .label_fn(LabelFn::Indicator)
                .theta(1.0);
            fsim::align::fsim_align(&g1, &g2, &cfg)
        }
        "kbisim" => fsim::align::kbisim_align(&g1, &g2, 2),
        "olap" => fsim::align::olap_align(&g1, &g2),
        "gsa" => fsim::align::gsa_na_align(&g1, &g2),
        "final" => fsim::align::final_align(&g1, &g2, 0.82, 12),
        other => return Err(format!("unknown method {other:?}")),
    };
    for (u, row) in alignment.iter().enumerate() {
        if !row.is_empty() {
            let cells: Vec<String> = row.iter().map(u32::to_string).collect();
            println!("{u} -> {}", cells.join(","));
        }
    }
    Ok(())
}
