//! `edit_stream`: the maintained-session user. A Bijective session on
//! the NELL surrogate (Jaro–Winkler, θ = 0.9, default config) is
//! converged once, then a seeded script of `apply_edits` batches is
//! applied back to back (closed loop). Time goes to `edits` repair,
//! sparse trajectory replay and bj matching; a change that speeds the
//! dense sweep of `batch_score` but slows the replay frontier shows here.

use crate::layers::{self, timed, BuildSummary};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::Args;
use fsim_core::{score_hash, FsimConfig, FsimEngine, GraphEdit, GraphSide, Variant};
use fsim_graph::{Graph, NodeId};
use fsim_labels::LabelFn;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.45;
/// How long each cycle applies batches to one session.
const CYCLE: Duration = Duration::from_secs(1);
/// Builds and batches measured even when the window closes first:
/// `setup_s` and `first_run_s` are medians over builds, and the tail rule
/// needs eleven batches.
const MIN_BUILDS: usize = 3;
const MIN_BATCHES: usize = 11;
/// Edges toggled by a multi-edge batch.
const MULTI: usize = 8;

/// The kinds of batch in the script, in the order they repeat: six
/// single right-side edge toggles, one eight-edge batch, one relabel of
/// a right-side node to a label the graph already uses.
#[derive(Clone, Copy)]
enum Kind {
    Toggle,
    Multi,
    Relabel,
}
const PATTERN: [Kind; 8] = [
    Kind::Toggle,
    Kind::Toggle,
    Kind::Toggle,
    Kind::Multi,
    Kind::Toggle,
    Kind::Toggle,
    Kind::Toggle,
    Kind::Relabel,
];

/// The seeded edit script. It keeps the right graph's shape stationary,
/// so a long run does not drift into a denser or differently labelled
/// graph: edge removals (of a random existing edge) alternate with
/// additions (of a random absent one), and a relabel copies the label of
/// another random node, so label frequencies only drift neutrally.
struct Script {
    rng: ChaCha8Rng,
    toggles: u64,
}

impl Script {
    fn toggle(&mut self, g2: &Graph) -> GraphEdit {
        self.toggles += 1;
        if self.toggles % 2 == 1 {
            let edges: Vec<(NodeId, NodeId)> = g2.edges().collect();
            let (u, v) = edges[self.rng.gen_range(0..edges.len())];
            return GraphEdit::remove_edge(GraphSide::Right, u, v);
        }
        let n = g2.node_count_u32();
        loop {
            let u = self.rng.gen_range(0..n);
            let v = (u + self.rng.gen_range(1..n)) % n;
            if !g2.has_edge(u, v) {
                return GraphEdit::add_edge(GraphSide::Right, u, v);
            }
        }
    }

    fn next_batch(&mut self, kind: Kind, g2: &Graph) -> Vec<GraphEdit> {
        match kind {
            Kind::Toggle => vec![self.toggle(g2)],
            Kind::Multi => (0..MULTI).map(|_| self.toggle(g2)).collect(),
            Kind::Relabel => {
                let n = g2.node_count_u32();
                let node = self.rng.gen_range(0..n);
                let label = g2.label_str(self.rng.gen_range(0..n));
                vec![GraphEdit::relabel(GraphSide::Right, node, &*label)]
            }
        }
    }
}

pub fn run(args: &Args, origin: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace, origin, 0);
    let g = layers::surrogate(SCALE, args.seed);
    let mut cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9);
    cfg.epsilon = 1e-4;
    out.inputs.push(("seed", args.seed.to_string()));
    layers::describe_graph(&mut out.inputs, SCALE, &g);
    out.inputs.push((
        "config",
        "Bijective, Jaro-Winkler, theta 0.9, eps 1e-4, Auto, 1 thread".into(),
    ));
    out.inputs.push((
        "edit_mix",
        format!("per 8 batches: 6 single right-edge toggles, 1 x {MULTI}-edge toggle batch, 1 relabel to another node's label; toggles alternate remove-existing / add-absent; closed loop"),
    ));

    let mut script = Script {
        rng: ChaCha8Rng::seed_from_u64(args.seed ^ 0xED17_5EED),
        toggles: 0,
    };
    // The window is a series of cycles. Each converges a fresh session
    // on the generated graphs (the set-up sample), applies the next
    // batches of the script for `CYCLE`, and checks the maintained scores
    // against a cold session on the edited graphs. Restarting from the
    // generated graphs keeps the input stationary: a long edit history
    // can walk the graph into states where bj iteration runs to its cap,
    // which would make the cost depend on how many batches a run got
    // through.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut matches_cold = true;
    let mut builds: Vec<BuildSummary> = Vec::new();
    let mut warm = Vec::new();
    let mut latency = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut evals, mut iters, mut ratio, mut replayable, mut edit_failed) =
        (0.0, 0.0, 0.0, 0u64, 0u64);
    while Instant::now() < deadline || builds.len() < MIN_BUILDS || latency.len() < MIN_BATCHES {
        let (mut engine, summary) = layers::build(&g, &cfg, &mut tr);
        // One warm run per build gives `deps.build_s` (first minus warm).
        warm.push(layers::warm_run(&mut engine, &mut tr, true));
        builds.push(summary);
        tr.enter("workload.cycle");
        let cycle_end = Instant::now() + CYCLE;
        while Instant::now() < cycle_end {
            let i = latency.len();
            let batch = script.next_batch(PATTERN[i % PATTERN.len()], engine.graphs().1);
            replayable += u64::from(engine.can_replay_edits());
            // Whole script periods alternate, so both halves see the same
            // batch mix.
            let traced = args.trace && (i / PATTERN.len()) % 2 == 1;
            if traced {
                tr.enter("edits.apply");
            }
            let (secs, result) = timed(|| engine.apply_edits(&batch).map(|r| r.pair_count()));
            if traced {
                tr.exit();
            }
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(secs);
            latency.push(secs);
            out.attempted += 1;
            match result {
                Ok(_) => {
                    let e: usize = engine.pairs_evaluated().iter().sum();
                    let sweep = engine.pair_count() * engine.iterations();
                    evals += e as f64;
                    iters += engine.iterations() as f64;
                    ratio += e as f64 / sweep.max(1) as f64;
                }
                Err(_) => {
                    out.failed += 1;
                    edit_failed += 1;
                }
            }
        }
        tr.exit();
        tr.enter("check.cold");
        let (g1_now, g2_now) = engine.graphs();
        let mut cold = FsimEngine::new(g1_now, g2_now, &cfg).expect("valid config");
        cold.run();
        matches_cold &= score_hash(cold.iter_pairs()) == score_hash(engine.iter_pairs());
        tr.exit();
    }
    out.check(
        "each edited session's score_hash equals a cold new + run on its edited graphs",
        matches_cold,
    );
    out.inputs.push((
        "pairs",
        builds.last().map_or(0, |b| b.candidate_pairs).to_string(),
    ));

    let m = &mut out.metrics;
    let setup: Vec<f64> = builds.iter().map(|b| b.new_s + b.first_run_s).collect();
    m.put("setup_s", crate::stats::median(&setup), "s");
    layers::record(m, &builds, &warm);
    report::put_latency(m, "op", "ms", 1e3, &latency);
    report::put_latency(m, "edit", "ms", 1e3, &latency);
    report::put_overhead(m, &traced_s, &untraced_s);
    let n = latency.len() as f64;
    let ok = (n - edit_failed as f64).max(1.0);
    m.put("edits.batches", n, "count");
    m.put("edits.pairs_evaluated", evals / ok, "count");
    m.put("edits.iterations", iters / ok, "count");
    m.put("edits.replay_ratio", ratio / ok, "ratio");
    m.put("edits.can_replay_frac", replayable as f64 / n, "ratio");
    m.put("edits.failed", edit_failed as f64, "count");
    layers::put_bypassed(m, &["snapshot", "serve"]);
    out.spans = tr.finish();
    out
}
