//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer: kept in memory, written out when the run ends.
//! Spans inside the program are a later issue.

use crate::json::Json;
use std::time::Instant;

/// Cap per tracer: a run keeps the first spans it records and only
/// counts the rest, so a 300,000-op run does not write a 50 MB file.
const MAX_SPANS: usize = 150_000;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Shared by all spans of one operation.
    pub op: u64,
}

/// One thread's span buffer. Disabled tracers cost one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// An enabled buffer on the same clock, for a thread or a phase of
    /// its own; [`Tracer::absorb`] merges it back.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin, true)
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open a span; the handle goes to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.record(name, now, now, parent, op)
    }

    pub fn end(&mut self, handle: u32) {
        if handle != NO_PARENT {
            self.spans[handle as usize].end_ns = self.now_ns();
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span from clock readings the caller took (one
    /// reading can close a span and open the next).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` under a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let h = self.begin(name, parent, op);
        let out = f();
        self.end(h);
        out
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One row per span, columns named once in `fields`: a run records a
    /// few hundred thousand spans.
    pub fn to_json(&self) -> Json {
        let rows = self.spans.iter().map(|s| {
            Json::Arr(vec![
                Json::str(s.name),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                },
                Json::Num(s.op as f64),
            ])
        });
        Json::obj([
            (
                "fields",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("dropped", Json::Num(self.dropped as f64)),
            ("spans", Json::Arr(rows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let op = t.begin("op", NO_PARENT, 7);
        let a = t.begin("a", op, 7);
        t.end(a);
        let b = t.begin("b", op, 7);
        t.end(b);
        t.end(op);
        // Pin the clock readings so the arithmetic is checked exactly.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        t.spans[2].start_ns = 50;
        t.spans[2].end_ns = 90;
        assert_eq!(t.self_times_ns(), vec![30, 30, 40]);
        assert!(t.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let x = t.span("call", NO_PARENT, 1, || 5);
        assert_eq!(x, 5);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        a.span("x", NO_PARENT, 1, || ());
        let mut b = Tracer::new(origin, true);
        let p = b.begin("p", NO_PARENT, 2);
        let c = b.begin("c", p, 2);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NO_PARENT);
    }
}
