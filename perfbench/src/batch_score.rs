//! `batch_score`: the `fsim score` / θ-sweep user. One session on the
//! NELL surrogate (Simple, Jaro–Winkler, θ = 0.6, ε = 1e-4, the default
//! `Auto` plan at one thread) is built and converged, then re-run warm
//! for the measured window. Time goes to `candidates`, `deps` and
//! `iterate`; nothing reaches `edits`, `snapshot` or `serve`.

use crate::layers::{self, BuildSummary};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::Args;
use fsim_core::{score_hash, ConvergenceMode, FsimConfig, FsimEngine, Variant};
use fsim_labels::LabelFn;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.25;
/// Warm runs per session build.
const WARM_PER_BUILD: usize = 3;
/// Builds and warm runs measured even when the window closes first:
/// `setup_s` and `first_run_s` are medians over builds, and the tail rule
/// (ten samples beyond) needs eleven warm runs.
const MIN_BUILDS: usize = 3;
const MIN_RUNS: usize = 11;

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

    // The window is a series of cycles, each a fresh session build
    // followed by warm runs, so set-up and warm-run samples are spread
    // over the whole window rather than bunched at its start.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut builds: Vec<BuildSummary> = Vec::new();
    let mut warm = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut bitwise = true;
    let mut engine: Option<FsimEngine<'_>> = None;
    while Instant::now() < deadline || builds.len() < MIN_BUILDS || warm.len() < MIN_RUNS {
        tr.enter("workload.cycle");
        // One session alive at a time, as a user holds it.
        drop(engine.take());
        let (mut e, summary) = layers::build(&g, &cfg, &mut tr);
        builds.push(summary);
        let first: Vec<u64> = e.iter_pairs().map(|(_, _, s)| s.to_bits()).collect();
        for _ in 0..WARM_PER_BUILD {
            // Traced runs alternate traced and untraced operations, so
            // the two medians give the tracing overhead under equal
            // conditions.
            let traced = args.trace && warm.len() % 2 == 1;
            let r = layers::warm_run(&mut e, &mut tr, traced);
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(r.wall_s);
            out.attempted += 1;
            if !e
                .iter_pairs()
                .map(|(_, _, s)| s.to_bits())
                .eq(first.iter().copied())
            {
                out.failed += 1;
                bitwise = false;
            }
            warm.push(r);
        }
        engine = Some(e);
        tr.exit();
    }
    out.check("warm runs bitwise equal the first run", bitwise);
    let engine = engine.expect("at least one build");
    out.inputs.push(("pairs", engine.pair_count().to_string()));

    let auto_hash = score_hash(engine.iter_pairs());
    drop(engine);
    let sweep_cfg = cfg.clone().convergence(ConvergenceMode::FullSweep);
    let mut sweep = FsimEngine::new(&g, &g, &sweep_cfg).expect("valid config");
    sweep.run();
    out.check(
        "score_hash equals a FullSweep session's",
        score_hash(sweep.iter_pairs()) == auto_hash,
    );
    drop(sweep);

    let m = &mut out.metrics;
    let setup: Vec<f64> = builds.iter().map(|b| b.new_s).collect();
    m.put("setup_s", crate::stats::median(&setup), "s");
    layers::record(m, &builds, &warm);
    let secs: Vec<f64> = warm.iter().map(|r| r.wall_s).collect();
    report::put_latency(m, "op", "ms", 1e3, &secs);
    report::put_overhead(m, &traced_s, &untraced_s);
    layers::put_bypassed(m, &["edits", "snapshot", "serve"]);
    out.spans = tr.finish();
    out
}
