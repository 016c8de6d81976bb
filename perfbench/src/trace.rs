//! Spans recorded from outside the program, around its public calls.
//!
//! A span is `(id, parent, name, start, end, worker)`. Parents are passed
//! explicitly rather than kept on a thread-local stack, because a trial
//! span runs on a pool worker while its parent batch span belongs to the
//! calling thread. Spans stay in memory until the run writes them out.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ksa_json::Value;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub worker: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span sink. When off, [`Tracer::span`] only calls its body: the
/// end-to-end passes run through the same code with no clock reads.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Root parent id: a span with this parent has none.
pub const ROOT: u64 = 0;

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Small stable per-thread index for the span file's worker column.
    static WORKER: usize = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id for its own children.
    pub fn span<T>(&self, parent: u64, name: &'static str, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            worker: WORKER.with(|w| *w),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
        out
    }

    /// Removes and returns every span recorded so far, in id order.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers (children on different pool
/// workers overlap, so their durations are not simply subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::array(spans.iter().map(|s| {
        Value::object([
            ("id", Value::from(s.id)),
            ("parent", Value::from(s.parent)),
            ("name", Value::str(s.name)),
            ("start_ns", Value::from(s.start_ns)),
            ("end_ns", Value::from(s.end_ns)),
            ("worker", Value::from(s.worker)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            start_ns,
            end_ns,
            worker: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..50 and 30..60 overlap (union 10..60).
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 30]);
    }
}
