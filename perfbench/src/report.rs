//! What a workload run hands back, and the one-line JSON result the
//! benchmark prints last.

use crate::stats;
use crate::trace::Span;

/// The end-to-end metrics `BENCHMARK.json` declares, with their units.
/// Every workload reports each of them (as its own operation's figure).
/// Two more are reported but not declared, because between runs they
/// moved by more than the largest allowed bound: the tail (`op_tail_ms`,
/// the 11th largest of hundreds to thousands of samples) and
/// `peak_rss_mb` on `serve_mixed`, where glibc's per-thread arenas make
/// the high-water mark depend on thread timing.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("first_run_s", "s"), ("op_p50_ms", "ms")];

/// The per-layer metrics `BENCHMARK.json` declares, printed by traced
/// runs. Counts of a layer a workload bypasses read 0; the times listed
/// here are measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("labels.prepare_s", "s"),
    ("labels.label_count", "count"),
    ("candidates.enumerate_s", "s"),
    ("candidates.pairs", "count"),
    ("session.new_s", "s"),
    ("deps.build_s", "s"),
    ("deps.entries", "count"),
    ("deps.csr_bytes", "B"),
    ("iterate.kernel_s", "s"),
    ("iterate.outside_kernel_s", "s"),
    ("iterate.iterations", "count"),
    ("iterate.pairs_evaluated", "count"),
    ("iterate.sweep_ratio", "ratio"),
    ("iterate.pairs_per_s", "1/s"),
    ("iterate.delta_scheduled", "count"),
    ("iterate.shard_count", "count"),
    ("edits.batches", "count"),
    ("edits.pairs_evaluated", "count"),
    ("edits.iterations", "count"),
    ("edits.replay_ratio", "ratio"),
    ("edits.can_replay_frac", "ratio"),
    ("edits.failed", "count"),
    ("snapshot.bytes", "B"),
    ("serve.score_requests", "count"),
    ("serve.topk_requests", "count"),
    ("serve.edits_accepted", "count"),
    ("serve.edits_rejected_429", "count"),
    ("serve.epochs_published", "count"),
    ("serve.batches_failed", "count"),
    ("serve.queue_depth_max", "count"),
    ("labels.self_s", "s"),
    ("candidates.self_s", "s"),
    ("session.self_s", "s"),
    ("deps.self_s", "s"),
    ("iterate.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds or replaces a metric.
    ///
    /// # Panics
    /// Panics on a non-finite value: JSON has no spelling for it, and a
    /// measurement that produced one is a bug here.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// The generated inputs, recorded so a run can be re-checked.
    pub inputs: Vec<(&'static str, String)>,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(&'static str, bool)>,
    /// Operations attempted and failed (failed checks included).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a correctness check; it counts as one operation.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// Records `<name>_p50_<unit>`, `<name>_tail_<unit>` and, beside them,
/// the quartiles, the tail's percentile and the sample count. `scale` converts seconds
/// to `unit`. Failed operations enter `secs` as infinite latencies; a
/// statistic they reach reads as the largest finite number.
pub fn put_latency(m: &mut Metrics, name: &str, unit: &'static str, scale: f64, secs: &[f64]) {
    m.put(&format!("{name}_samples"), secs.len() as f64, "count");
    if secs.is_empty() {
        return;
    }
    let finite = |x: f64| if x.is_finite() { x * scale } else { f64::MAX };
    m.put(
        &format!("{name}_p50_{unit}"),
        finite(stats::median(secs)),
        unit,
    );
    if let Some([q1, _, q3]) = stats::quartiles(secs) {
        m.put(&format!("{name}_q1_{unit}"), finite(q1), unit);
        m.put(&format!("{name}_q3_{unit}"), finite(q3), unit);
    }
    if let Some(t) = stats::tail(secs) {
        m.put(&format!("{name}_tail_{unit}"), finite(t.value), unit);
        m.put(&format!("{name}_tail_pct"), t.percentile, "%");
    }
}

/// Tracing overhead of interleaved traced and untraced operations: the
/// ratio of their medians, minus one.
pub fn put_overhead(m: &mut Metrics, traced: &[f64], untraced: &[f64]) {
    if !traced.is_empty() && !untraced.is_empty() {
        let frac = stats::median(traced) / stats::median(untraced) - 1.0;
        m.put("trace.overhead_frac", frac, "ratio");
    }
}

/// The result line: `correct`, `attempted`, `failed` and the declared
/// metrics (`END_TO_END` untraced, `PER_LAYER` traced).
///
/// # Panics
/// Panics when a declared metric is missing or carries another unit.
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let (value, got) = out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(got, unit, "unit of {name}");
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_serve::json::Json;

    /// `BENCHMARK.json` at the repository root and the lists above must
    /// name the same metrics with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_array).expect(key);
            let names: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(names, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn result_line_has_declared_metrics_only() {
        let mut out = Outcome::default();
        for &(name, unit) in END_TO_END {
            out.metrics.put(name, 1.25, unit);
        }
        out.metrics.put("extra", 2.0, "s");
        out.attempted = 3;
        out.check("ok", true);
        let line = result_line(&out, false);
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        // Three operations plus the check.
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(4));
        let metrics = doc.get("metrics").expect("metrics");
        assert!(metrics.get("extra").is_none());
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
