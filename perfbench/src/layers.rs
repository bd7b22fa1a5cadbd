//! What every workload shares: building a session layer by layer through
//! the public entry points, timing each call, and reading the counters
//! the engine exposes after a run.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use fsim_core::candidates::enumerate_candidates;
use fsim_core::{FsimConfig, FsimEngine, LabelEval, OpCtx, VariantOp};
use fsim_datasets::DatasetSpec;
use fsim_graph::{Graph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Generator seed of the surrogate topology every workload starts from.
pub const TOPOLOGY_SEED: u64 = 42;

/// The NELL surrogate at `scale`, its node ids (and with them the label
/// ids, interned in node order) permuted by `seed`. The topology is
/// fixed: across generator seeds, |H| and the iteration count move the
/// warm-run time by more than any regression bound could tolerate, so the
/// seed varies the input's layout, the edit script and the read
/// schedule, while the amount of work stays put.
pub fn surrogate(scale: f64, seed: u64) -> Graph {
    let base = DatasetSpec::by_name("NELL")
        .expect("NELL is a Table-4 dataset")
        .generate_scaled(scale, TOPOLOGY_SEED);
    let mut order: Vec<NodeId> = base.nodes().collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let mut new_id = vec![0; order.len()];
    for (i, &old) in (0..).zip(&order) {
        new_id[old as usize] = i;
    }
    let mut b = GraphBuilder::new();
    for &old in &order {
        b.add_node(&base.label_str(old));
    }
    for (u, v) in base.edges() {
        b.add_edge(new_id[u as usize], new_id[v as usize]);
    }
    b.build()
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Counters of one `run`, read from the session right after it.
#[derive(Debug, Clone, Copy)]
pub struct RunCounters {
    pub wall_s: f64,
    pub kernel_s: f64,
    pub iterations: usize,
    pub pairs_evaluated: usize,
    pub pairs: usize,
    pub delta_scheduled: bool,
    pub shard_count: usize,
}

impl RunCounters {
    pub fn of(engine: &FsimEngine<'_>, wall_s: f64) -> RunCounters {
        RunCounters {
            wall_s,
            kernel_s: engine.iteration_seconds().iter().sum(),
            iterations: engine.iterations(),
            pairs_evaluated: engine.pairs_evaluated().iter().sum(),
            pairs: engine.pair_count(),
            delta_scheduled: engine.delta_scheduled(),
            shard_count: engine.shard_count(),
        }
    }
}

/// The timings and counts of one layer-by-layer session build: the
/// label table and the candidate store prepared on their own (the work
/// `FsimEngine::new` repeats internally), then `new` and the first `run`.
#[derive(Debug, Clone, Copy)]
pub struct BuildSummary {
    pub prepare_s: f64,
    pub label_count: usize,
    pub enumerate_s: f64,
    pub candidate_pairs: usize,
    pub new_s: f64,
    pub first_run_s: f64,
    pub dep_entries: usize,
    pub csr_bytes: usize,
}

/// Builds and converges a session scoring `g` against itself, as every
/// workload starts.
pub fn build<'g>(
    g: &'g Graph,
    cfg: &FsimConfig,
    tr: &mut Tracer,
) -> (FsimEngine<'g>, BuildSummary) {
    let (prepare_s, prepared) = tr.span("labels.prepare", || {
        timed(|| cfg.label_fn.prepare(g.interner()))
    });
    let label_count = prepared.label_count();
    let label_eval = LabelEval::Sim(prepared);
    let ctx = OpCtx {
        labels1: g.labels(),
        labels2: g.labels(),
        label_eval: &label_eval,
        theta: cfg.theta,
    };
    let op = VariantOp {
        variant: cfg.variant,
        matcher: cfg.matcher,
    };
    let (enumerate_s, store) = tr.span("candidates.enumerate", || {
        timed(|| enumerate_candidates(g, g, &ctx, cfg, &op))
    });
    let candidate_pairs = store.len();
    drop(store);
    let (new_s, mut engine) = tr.span("session.new", || {
        timed(|| FsimEngine::new(g, g, cfg).expect("workload configs are valid"))
    });
    // The first run builds the dependency CSR, then converges.
    let (first_run_s, _) = tr.span("deps.first_run", || timed(|| engine.run().has_run()));
    assert_eq!(candidate_pairs, engine.pair_count(), "candidate store size");
    let summary = BuildSummary {
        prepare_s,
        label_count,
        enumerate_s,
        candidate_pairs,
        new_s,
        first_run_s,
        dep_entries: engine.dep_entry_count().unwrap_or(0),
        csr_bytes: engine.peak_csr_bytes(),
    };
    (engine, summary)
}

/// A warm `run` of an already-converged session.
pub fn warm_run(engine: &mut FsimEngine<'_>, tr: &mut Tracer, traced: bool) -> RunCounters {
    if traced {
        tr.enter("iterate.run");
    }
    let (wall_s, _) = timed(|| {
        engine.run();
    });
    if traced {
        tr.exit();
    }
    RunCounters::of(engine, wall_s)
}

/// Records the per-layer metrics of repeated builds and warm runs:
/// medians over the repetitions, counts from the last one (they are
/// identical across repetitions of one input).
pub fn record(m: &mut Metrics, builds: &[BuildSummary], warm: &[RunCounters]) {
    let med = |f: &dyn Fn(&BuildSummary) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    let last = builds.last().expect("at least one build");
    m.put("labels.prepare_s", med(&|b| b.prepare_s), "s");
    m.put("labels.label_count", last.label_count as f64, "count");
    m.put("candidates.enumerate_s", med(&|b| b.enumerate_s), "s");
    m.put("candidates.pairs", last.candidate_pairs as f64, "count");
    m.put("session.new_s", med(&|b| b.new_s), "s");
    let first_run_s = med(&|b| b.first_run_s);
    m.put("first_run_s", first_run_s, "s");

    let w = warm.last().expect("at least one warm run");
    let warm_s = median(&warm.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let kernel_s = median(&warm.iter().map(|r| r.kernel_s).collect::<Vec<_>>());
    let outside_s = median(
        &warm
            .iter()
            .map(|r| r.wall_s - r.kernel_s)
            .collect::<Vec<_>>(),
    );
    m.put("warm_run_s", warm_s, "s");
    m.put("deps.build_s", first_run_s - warm_s, "s");
    m.put("deps.entries", last.dep_entries as f64, "count");
    m.put("deps.csr_bytes", last.csr_bytes as f64, "B");
    m.put("iterate.kernel_s", kernel_s, "s");
    m.put("iterate.outside_kernel_s", outside_s, "s");
    m.put("iterate.iterations", w.iterations as f64, "count");
    m.put("iterate.pairs_evaluated", w.pairs_evaluated as f64, "count");
    m.put(
        "iterate.sweep_ratio",
        w.pairs_evaluated as f64 / (w.pairs * w.iterations).max(1) as f64,
        "ratio",
    );
    m.put(
        "iterate.pairs_per_s",
        w.pairs_evaluated as f64 / warm_s,
        "1/s",
    );
    m.put(
        "iterate.delta_scheduled",
        f64::from(u8::from(w.delta_scheduled)),
        "count",
    );
    m.put("iterate.shard_count", w.shard_count as f64, "count");
}

/// The recorded description of a generated graph.
pub fn describe_graph(inputs: &mut Vec<(&'static str, String)>, scale: f64, g: &Graph) {
    inputs.push((
        "graph",
        format!("NELL surrogate, scale {scale}, topology seed {TOPOLOGY_SEED}, node ids permuted by the run seed"),
    ));
    inputs.push(("nodes", g.node_count().to_string()));
    inputs.push(("edges", g.edge_count().to_string()));
    inputs.push(("labels", g.used_labels().len().to_string()));
}

/// Records the declared counts of layers a workload never reaches as 0,
/// so every run reports the same per-layer names.
pub fn put_bypassed(m: &mut Metrics, bypassed: &[&str]) {
    for &(name, unit) in crate::report::PER_LAYER {
        if bypassed.iter().any(|l| name.split('.').next() == Some(l)) {
            assert_ne!(unit, "s", "{name}: a bypassed layer has no time to report");
            m.put(name, 0.0, unit);
        }
    }
}
