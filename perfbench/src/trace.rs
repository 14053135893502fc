//! In-memory spans and per-layer self times.
//!
//! A span records a name, start and end (ns on one monotonic clock), the
//! span that caused it, and the op it belongs to. Spans stay in memory
//! while the benchmark runs and are written out once at the end. A
//! span's *self time* is its duration minus the part of its interval its
//! child spans cover; a layer's self time is the sum over its spans. The
//! layer is the span name up to its first `.` (`wire.encode` → `wire`).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// Parent marker of a root span.
pub const ROOT: SpanId = SpanId::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name, e.g. `net.tx`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`start_ns` while still open).
    pub end_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// The op (request) this span belongs to.
    pub op: u64,
}

/// Records spans against one clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&mut self, name: &'static str, start_ns: u64, parent: SpanId, op: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let t = self.now();
        self.spans[id as usize].end_ns = t;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let r = f(self);
        self.close(id);
        r
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines: `id name start_ns end_ns
    /// parent op` (`parent` is `-` for roots).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the time its children
/// cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur - covered(kids, s.start_ns, s.end_ns).min(dur)
        })
        .collect()
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time and span count per span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

/// Sums self times by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.self_ns += self_ns;
        t.count += 1;
    }
    out
}

/// Sums self times by layer.
pub fn totals_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals_by_name(spans) {
        *out.entry(layer_of(name)).or_default() += t.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // op [0,100) with children wire [10,30), net [25,60) overlapping
        // wire by 5, and kv [90,120) sticking out past its parent's end;
        // net has its own child [30,40).
        let spans = [
            span("workload.op", 0, 100, ROOT),
            span("wire.encode", 10, 30, 0),
            span("net.tx", 25, 60, 0),
            span("kv.execute", 90, 120, 0),
            span("net.sys", 30, 40, 2),
        ];
        let st = self_times(&spans);
        // op covers [10,60) ∪ [90,100) = 60 → self 40.
        assert_eq!(st, vec![40, 20, 25, 30, 10]);
        let layers = totals_by_layer(&spans);
        assert_eq!(layers["workload"], 40);
        assert_eq!(layers["net"], 35);
        assert_eq!(layers["wire"], 20);
        assert_eq!(layers["kv"], 30);
    }

    #[test]
    fn tracer_nests_and_writes_every_span() {
        let mut t = Tracer::new();
        let root = t.open("workload.op", ROOT, 1);
        t.span("wire.encode", root, 1, |_| std::hint::black_box(1 + 1));
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let st = self_times(spans);
        assert_eq!(st[0] + st[1], spans[0].end_ns - spans[0].start_ns);
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
