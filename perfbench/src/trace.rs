//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span is named `<layer>.<call>`; a layer's self time is the
//! summed duration of its spans minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Ids are unique within a run; `parent` links a
/// span to the span that was open on the same thread when it started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. Disabled tracers record nothing, so the
/// untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` and whose ids start
    /// at `id_base` (give each thread its own base so merged ids stay
    /// unique).
    pub fn new(enabled: bool, origin: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            next_id: id_base,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.next_id += 1;
            let start = self.now_ns();
            self.open.push((self.next_id, name, start));
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open: enter/exit pairs are written by hand
    /// in this crate, so a mismatch is a bug here.
    pub fn exit(&mut self) {
        if self.enabled {
            let end = self.now_ns();
            let (id, name, start) = self.open.pop().expect("exit without a matching enter");
            self.spans.push(Span {
                id,
                parent: self.open.last().map(|o| o.0),
                name,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The finished spans, consuming the tracer.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open: {:?}", self.open);
        self.spans
    }
}

/// Self time per layer, in seconds: each span's duration minus the union
/// of its children's intervals (clipped to the span), summed by layer.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // setup [0,1000) holds session [100,600) and labels [700,900);
        // session holds candidates [200,500).
        let spans = [
            span(1, None, "workload.setup", 0, 1000),
            span(2, Some(1), "session.new", 100, 600),
            span(3, Some(2), "candidates.enumerate", 200, 500),
            span(4, Some(1), "labels.prepare", 700, 900),
        ];
        let self_s = layer_self_seconds(&spans);
        let ns = |layer: &str| (self_s[layer] * 1e9).round();
        assert_eq!(ns("workload"), 300.0); // 1000 - 500 - 200
        assert_eq!(ns("session"), 200.0); // 500 - 300
        assert_eq!(ns("candidates"), 300.0);
        assert_eq!(ns("labels"), 200.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children overlapping on [30,50) and one sticking out past
        // the parent's end.
        let spans = [
            span(1, None, "serve.run", 0, 100),
            span(2, Some(1), "serve.a", 10, 50),
            span(3, Some(1), "serve.b", 30, 60),
            span(4, Some(1), "serve.c", 90, 120),
        ];
        let covered = 50 + 10; // [10,60) and [90,100)
        let self_s = layer_self_seconds(&spans);
        let expect = (100 - covered) + 40 + 30 + 30;
        assert_eq!((self_s["serve"] * 1e9).round(), expect as f64);
    }

    #[test]
    fn tracer_links_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 100);
        t.enter("workload.setup");
        t.span("labels.prepare", || ());
        t.exit();
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "labels.prepare");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        assert!(spans.iter().all(|s| s.id > 100 && s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false, Instant::now(), 0);
        off.span("labels.prepare", || ());
        assert!(off.finish().is_empty());
    }
}
