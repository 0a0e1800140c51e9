//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; nothing inside the program is touched.
//! The recorder is compiled into the untraced run too and reduced there to
//! one branch on a `bool`, so both runs execute the same binary.
//!
//! Each load-generating thread owns one [`Tracer`] (no sharing, no locks on
//! the measured path); all of them stamp against one common origin and are
//! merged with [`Tracer::absorb`] before the trace is written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `count` is the work done inside it (items
/// offered, calls made, entries returned), recorded at the same boundary
/// as the times so ratios are taken where the work happens.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at the top level.
    pub parent: u32,
    /// Identifier shared by the spans of one operation (a batch number, a
    /// query cycle number).
    pub op_id: u64,
    pub count: u64,
}

/// Handle to an open span; `INACTIVE` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

impl SpanId {
    const INACTIVE: SpanId = SpanId(u32::MAX);
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the part covered by direct child spans.
    pub self_ns: u64,
    pub count: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> SpanId {
        if !self.on {
            return SpanId::INACTIVE;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op_id,
            count: 0,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, id: SpanId, count: u64) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != NO_PARENT {
                span.parent += offset;
            }
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every closed span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect()
    }

    /// Self time per span name: a span's duration minus the part of it its
    /// direct children cover (children of one thread never overlap).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &self.spans[span.parent as usize];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[span.parent as usize] += end.saturating_sub(start);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let entry = out.entry(span.name).or_default();
            entry.spans += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(covered);
            entry.count += span.count;
        }
        out
    }

    /// Writes the environment header, the per-name self-time table and
    /// every span to `path` (one span per line, so the file diffs and
    /// greps well).
    pub fn write_json(&self, path: &Path, env: &Value) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"env\": {},", env.render())?;
        let self_times = Value::Obj(
            self.self_times()
                .into_iter()
                .map(|(name, t)| {
                    (
                        name.to_string(),
                        Value::obj([
                            ("spans", Value::Num(t.spans as f64)),
                            ("total_ns", Value::Num(t.total_ns as f64)),
                            ("self_ns", Value::Num(t.self_ns as f64)),
                            ("count", Value::Num(t.count as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        writeln!(w, "\"self_time\": {},", self_times.render())?;
        writeln!(w, "\"spans\": [")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}, \"count\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns, parent, span.op_id, span.count
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("a", 1);
        t.end(id, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                op_id: 0,
                count: 1,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                op_id: 0,
                count: 2,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 70,
                parent: 0,
                op_id: 0,
                count: 3,
            },
            Span {
                name: "leaf",
                start_ns: 12,
                end_ns: 20,
                parent: 1,
                op_id: 0,
                count: 0,
            },
        ];
        let times = t.self_times();
        assert_eq!(times["outer"].self_ns, 50);
        assert_eq!(
            times["inner"],
            SelfTime {
                spans: 2,
                total_ns: 50,
                self_ns: 42,
                count: 5
            }
        );
        assert_eq!(t.durations_ns("inner"), vec![30, 20]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let outer = a.begin("a.outer", 0);
        a.end(outer, 0);
        let mut b = a.sibling();
        let outer = b.begin("b.outer", 7);
        let inner = b.begin("b.inner", 7);
        b.end(inner, 1);
        b.end(outer, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
    }
}
