//! # fsim-bench
//!
//! The harness of the six gated benches under `benches/`: each one times
//! an operation a user runs (a cold session build, a warm run, an edit
//! batch, a sharded or spilled run, a snapshot restore, a served read),
//! asserts that the strategies it compares agree, fails the process when
//! a gate does not hold, and writes its record `BENCH_<name>.json` at the
//! repository root (`docs/BENCHMARKS.md` documents every schema). The
//! paper's efficiency figures themselves are regenerated by `fsim-exp`
//! (`fig7`, `fig8`, `fig9`, `efficiency`).
//!
//! Every bench reads its mode, times, checks and records through this
//! crate, so the records share one convention: `--test` selects the small
//! smoke workload, wall clocks are seconds, and a record is an ordered
//! JSON object opening with `bench` and `test_mode`.

use fsim_core::FsimEngine;
use fsim_serve::json::{escape_json, json_f64};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Whether the bench runs its `--test` smoke workload (CI's mode: small
/// inputs, the same checks, timings not comparable across machines).
pub fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Wall-clock seconds of one call.
pub fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The fastest of `reps` (at least one) timed calls, in seconds.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| time(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// The median, minimum and maximum of `xs` (non-empty) — how the
/// wall-clock gates read interleaved repeats.
pub fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    let median = if xs.len() % 2 == 0 {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    };
    (median, xs[0], xs[xs.len() - 1])
}

/// Panics unless `a` and `b` hold the same pairs in the same order with
/// bitwise-equal scores after the same number of iterations — a bench
/// that measures a wrong answer measures nothing. `what` names the
/// comparison in the panic message.
pub fn assert_bitwise(what: &str, a: &FsimEngine<'_>, b: &FsimEngine<'_>) {
    assert_eq!(a.pair_count(), b.pair_count(), "{what}: pair sets");
    for ((u1, v1, s1), (u2, v2, s2)) in a.iter_pairs().zip(b.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{what}: pair order");
        assert_eq!(
            s1.to_bits(),
            s2.to_bits(),
            "{what}: diverged at ({u1},{v1})"
        );
    }
    assert_eq!(a.iterations(), b.iterations(), "{what}: iterations");
}

/// Panics unless `a` and `b` evaluated the same number of slots in every
/// iteration — the contract of schedules that must take the same steps
/// (sharded, spilled and restored runs against their baseline).
pub fn assert_same_work(what: &str, a: &FsimEngine<'_>, b: &FsimEngine<'_>) {
    assert_eq!(
        a.pairs_evaluated(),
        b.pairs_evaluated(),
        "{what}: per-iteration work"
    );
}

/// One value of a bench record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    /// A count, written as a JSON integer.
    Int(u64),
    /// A measurement, written in Rust's shortest round-trip form; a
    /// non-finite one is written as `null` (JSON has no `inf`/`NaN`).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Record),
}

impl Value {
    fn write(&self, out: &mut String) {
        match self {
            Value::Bool(b) => write!(out, "{b}").expect("String writes"),
            Value::Int(i) => write!(out, "{i}").expect("String writes"),
            Value::Num(x) => out.push_str(&json_f64(*x)),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(record) => record.write(out),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Record> for Value {
    fn from(r: Record) -> Self {
        Value::Obj(r)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// A JSON object whose fields keep the order they were added in, so a
/// record reads in the order its bench measures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the field `key`.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The object as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, key);
            out.push(':');
            value.write(out);
        }
        out.push('}');
    }
}

/// Writes `BENCH_<bench>.json` at the repository root: `bench` and
/// `test_mode`, then `fields`. Benches write their record before checking
/// their gates, so a failing record is still inspectable.
pub fn write_record(bench: &str, fields: Record) {
    let mut record = Record::new()
        .field("bench", bench)
        .field("test_mode", test_mode());
    record.fields.extend(fields.fields);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, record.to_json() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_serve::json::Json;

    #[test]
    fn spread_reads_odd_and_even_lengths() {
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
        assert_eq!(spread(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.0, 4.0));
        assert_eq!(spread(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn best_of_returns_the_fastest_call() {
        let sleeps = [40u64, 1, 40];
        let mut calls = 0;
        let best = best_of(sleeps.len(), || {
            std::thread::sleep(std::time::Duration::from_millis(sleeps[calls]));
            calls += 1;
        });
        assert_eq!(calls, 3);
        assert!((0.001..0.040).contains(&best), "best {best}");
        // Zero repeats still time one call.
        let mut once = 0;
        best_of(0, || once += 1);
        assert_eq!(once, 1);
    }

    /// The parsed form a record value must read back as.
    fn expected(v: &Value) -> Json {
        match v {
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::Num(*i as f64),
            Value::Num(x) if x.is_finite() => Json::Num(*x),
            Value::Num(_) => Json::Null,
            Value::Str(s) => Json::Str(s.clone()),
            Value::Arr(items) => Json::Arr(items.iter().map(expected).collect()),
            Value::Obj(r) => Json::Obj(
                r.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), expected(v)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn records_round_trip_through_the_json_parser() {
        let record = Record::new()
            .field("workload", "a \"quoted\"\\path\n\ttab\u{1}é")
            .field("count", 25827usize)
            .field("flag", false)
            .field(
                "nested",
                Record::new()
                    .field("tiny", 5e-324)
                    .field("small", 1.25e-7)
                    .field("huge", 1.7976931348623157e308)
                    .field("big", 12765692.388123)
                    .field("neg_zero", -0.0)
                    .field("tolerance", 5.000000000000001)
                    .field("empty", Record::new()),
            )
            .field("per_iteration", vec![25827usize, 5953, 0])
            .field(
                "mixed",
                vec![Value::Num(0.5), Value::from("x"), Value::Arr(vec![])],
            );
        let text = record.to_json();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{e:?} in {text}"));
        assert_eq!(parsed, expected(&Value::Obj(record)));
        // Bitwise, not just numerically: -0.0 keeps its sign.
        let neg = parsed.get("nested").and_then(|n| n.get("neg_zero"));
        assert_eq!(
            neg.and_then(Json::as_f64).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        let record = Record::new()
            .field("inf", f64::INFINITY)
            .field("ninf", f64::NEG_INFINITY)
            .field("nan", f64::NAN)
            .field("list", vec![1.0, f64::NAN]);
        let text = record.to_json();
        assert_eq!(
            text,
            r#"{"inf":null,"ninf":null,"nan":null,"list":[1.0,null]}"#
        );
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
    }
}
