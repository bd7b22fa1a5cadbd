//! Sharded-execution bench: peak resident dependency-CSR bytes and
//! wall-clock, unsharded vs u-row sharding at K ∈ {1, 4, 16}. Sharding
//! trades per-sweep shard-CSR rebuilds for bounded memory — only one
//! shard's CSR is ever resident — so the curve to watch is peak bytes
//! falling ~1/K while wall-clock rises. The bench asserts that sharded
//! execution stays **bitwise identical** to unsharded (a bench measuring
//! a wrong answer measures nothing) and **fails** — also under CI's
//! `--test` smoke run — if the K=16 peak is not under 1/8 of the
//! unsharded CSR footprint on the gated workload. It emits
//! `BENCH_sharding.json` at the repository root so the perf trajectory is
//! recorded across commits.

use fsim_bench::{assert_bitwise, assert_same_work, best_of, test_mode, write_record, Record};
use fsim_core::{ConvergenceMode, FsimConfig, FsimEngine, ShardSpec, Variant};
use fsim_datasets::DatasetSpec;
use fsim_graph::Graph;
use fsim_labels::LabelFn;

/// One shard count's measurements.
struct ShardRow {
    k_requested: usize,
    k_effective: usize,
    peak_csr_bytes: usize,
    cold_s: f64,
    warm_s: f64,
    total_pairs_evaluated: usize,
}

/// One workload's measurements.
struct Row {
    name: String,
    pairs: usize,
    iterations: usize,
    unsharded_dep_entries: usize,
    unsharded_peak_csr_bytes: usize,
    unsharded_cold_s: f64,
    unsharded_warm_s: f64,
    sharded: Vec<ShardRow>,
}

fn measure(name: &str, g1: &Graph, g2: &Graph, cfg: &FsimConfig, reps: usize) -> Row {
    let delta_cfg = cfg.clone().convergence(ConvergenceMode::DeltaDriven);
    let cold_s = best_of(reps, || {
        FsimEngine::new(g1, g2, &delta_cfg)
            .expect("valid config")
            .run();
    });
    let mut whole = FsimEngine::new(g1, g2, &delta_cfg).expect("valid config");
    whole.run();
    let warm_s = best_of(reps, || {
        whole.run();
    });
    assert_eq!(whole.shard_count(), 0, "{name}: baseline must be unsharded");
    let unsharded_peak = whole.peak_csr_bytes();
    assert!(unsharded_peak > 0, "{name}: baseline holds a CSR");

    let mut sharded_rows = Vec::new();
    for k in [1usize, 4, 16] {
        let shard_cfg = cfg.clone().shards(ShardSpec::Fixed(k));
        let shard_cold_s = best_of(reps, || {
            FsimEngine::new(g1, g2, &shard_cfg)
                .expect("valid config")
                .run();
        });
        let mut sharded = FsimEngine::new(g1, g2, &shard_cfg).expect("valid config");
        sharded.run();
        let shard_warm_s = best_of(reps, || {
            sharded.run();
        });
        let what = format!("{name}: K={k}");
        assert_bitwise(&what, &whole, &sharded);
        assert_same_work(&what, &whole, &sharded);
        sharded_rows.push(ShardRow {
            k_requested: k,
            k_effective: sharded.shard_count(),
            peak_csr_bytes: sharded.peak_csr_bytes(),
            cold_s: shard_cold_s,
            warm_s: shard_warm_s,
            total_pairs_evaluated: sharded.pairs_evaluated().iter().sum(),
        });
    }

    Row {
        name: name.to_string(),
        pairs: whole.pair_count(),
        iterations: whole.iterations(),
        unsharded_dep_entries: whole.dep_entry_count().unwrap_or(0),
        unsharded_peak_csr_bytes: unsharded_peak,
        unsharded_cold_s: cold_s,
        unsharded_warm_s: warm_s,
        sharded: sharded_rows,
    }
}

impl Row {
    /// The workload's entry of `BENCH_sharding.json`.
    fn record(&self) -> Record {
        let sharded: Vec<Record> = self
            .sharded
            .iter()
            .map(|s| {
                Record::new()
                    .field("k_requested", s.k_requested)
                    .field("k_effective", s.k_effective)
                    .field("peak_csr_bytes", s.peak_csr_bytes)
                    .field("peak_ratio", self.peak_ratio(s))
                    .field("cold_s", s.cold_s)
                    .field("warm_s", s.warm_s)
                    .field("total_pairs_evaluated", s.total_pairs_evaluated)
            })
            .collect();
        Record::new()
            .field("workload", self.name.as_str())
            .field("pairs", self.pairs)
            .field("iterations", self.iterations)
            .field(
                "unsharded",
                Record::new()
                    .field("dep_entries", self.unsharded_dep_entries)
                    .field("peak_csr_bytes", self.unsharded_peak_csr_bytes)
                    .field("cold_s", self.unsharded_cold_s)
                    .field("warm_s", self.unsharded_warm_s),
            )
            .field("sharded", sharded)
    }

    /// A shard count's peak resident CSR bytes over the unsharded peak.
    fn peak_ratio(&self, s: &ShardRow) -> f64 {
        s.peak_csr_bytes as f64 / self.unsharded_peak_csr_bytes.max(1) as f64
    }
}

fn main() {
    let test_mode = test_mode();
    let (scale, reps, epsilon) = if test_mode {
        (0.08, 1, 1e-3)
    } else {
        (0.45, 5, 1e-4)
    };
    let g = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(scale, 42);

    // The gated workload: θ-pruned self-similarity under bijective
    // simulation — the serving shape whose CSR dominates session memory
    // (same configuration the convergence bench gates on).
    let mut theta_cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9);
    theta_cfg.epsilon = epsilon;

    // A dense (θ = 0) simple-simulation workload: the worst case for CSR
    // memory (every pair maintained), reported ungated.
    let mut dense_cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::JaroWinkler);
    dense_cfg.epsilon = epsilon;
    let dense_scale = if test_mode { 0.05 } else { 0.18 };
    let gd = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(dense_scale, 42);

    let rows = vec![
        measure("session_reuse_theta0.9_bj", &g, &g, &theta_cfg, reps),
        measure("dense_theta0_s", &gd, &gd, &dense_cfg, reps),
    ];

    for r in &rows {
        println!(
            "bench sharding/{:<26} pairs {:>8}  iters {:>3}  unsharded CSR {:>11} B  warm {:.3}ms",
            r.name,
            r.pairs,
            r.iterations,
            r.unsharded_peak_csr_bytes,
            r.unsharded_warm_s * 1e3,
        );
        for s in &r.sharded {
            println!(
                "bench sharding/{:<26} K={:<3} peak {:>11} B ({:>5.1}% of unsharded)  warm {:.3}ms ({:.2}x)",
                r.name,
                s.k_requested,
                s.peak_csr_bytes,
                100.0 * r.peak_ratio(s),
                s.warm_s * 1e3,
                s.warm_s / r.unsharded_warm_s.max(1e-12),
            );
        }
    }

    let workloads: Vec<Record> = rows.iter().map(Row::record).collect();
    write_record("sharding", Record::new().field("workloads", workloads));

    // Acceptance gate, checked after the JSON is on disk so a failing
    // record is still inspectable: on the dense workload — the regime
    // whose CSR actually blows memory budgets, and hence the one sharding
    // exists for — the K=16 peak resident CSR must be under 1/8 of the
    // unsharded footprint. The θ-pruned workload is reported ungated: a
    // single hub u-row there holds ~19% of all dependency entries, and
    // rows are never split across shards, so that row is its intrinsic
    // peak-memory floor no plan can beat (analogous to the incremental
    // bench's ungated dense-JW influence-ball floor).
    let gated = rows
        .iter()
        .find(|r| r.name.starts_with("dense"))
        .expect("gated workload");
    let k16 = gated
        .sharded
        .iter()
        .find(|s| s.k_requested == 16)
        .expect("K=16 row");
    let ratio = gated.peak_ratio(k16);
    assert!(
        ratio < 0.125,
        "sharding must bound peak CSR memory: K=16 peak is {:.1}% of unsharded on the dense \
         workload (need < 12.5%)",
        ratio * 100.0
    );
}
