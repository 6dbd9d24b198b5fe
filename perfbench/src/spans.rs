//! In-memory spans recorded by the benchmark around its calls into each
//! crate.  Spans nest on one thread; a span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Spans kept verbatim for the span file; later spans only feed the
/// per-name totals, which bounds memory on long runs.
const KEPT_SPANS: usize = 50_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Span id (1-based, unique within its recorder).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// The request the span belongs to.
    pub request: u64,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Summed self time.
    pub self_time: Duration,
}

impl SpanTotals {
    /// Mean duration in nanoseconds (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        self.total.as_nanos() as f64 / self.count.max(1) as f64
    }
}

struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    start: Duration,
    child_time: Duration,
}

/// A per-thread span recorder.  A disabled recorder records nothing and
/// costs one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Recorder {
    /// A recorder whose times are relative to `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            enabled,
            epoch,
            next_id: 1,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Open a span starting now, as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) {
        self.open_at(name, request, Instant::now());
    }

    /// Open a span that started at `at` (e.g. a request's due time).
    pub fn open_at(&mut self, name: &'static str, request: u64, at: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |open| open.id);
        self.stack.push(Open {
            name,
            id,
            parent,
            request,
            start: at.saturating_duration_since(self.epoch),
            child_time: Duration::ZERO,
        });
    }

    /// Close the innermost open span now.
    pub fn close(&mut self) {
        self.close_at(Instant::now());
    }

    /// Close the innermost open span at `at`.
    pub fn close_at(&mut self, at: Instant) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("close matches an open span");
        let end = at.saturating_duration_since(self.epoch).max(open.start);
        let duration = end - open.start;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_time += duration;
        }
        let totals = self.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total += duration;
        totals.self_time += duration.saturating_sub(open.child_time);
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                request: open.request,
                start: open.start,
                end,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, request);
        let out = f();
        self.close();
        out
    }

    /// Totals of the spans named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Fold another recorder's spans into this one.  Span ids of `other`
    /// are offset so they stay unique.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.next_id - 1;
        self.next_id += other.next_id - 1;
        for (name, totals) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += totals.count;
            mine.total += totals.total;
            mine.self_time += totals.self_time;
        }
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        self.kept
            .extend(other.kept.into_iter().take(room).map(|mut span| {
                span.id += offset;
                if span.parent != 0 {
                    span.parent += offset;
                }
                span
            }));
    }

    /// Write the kept spans as JSON lines, then one line of per-name totals.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.kept {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name,
                span.id,
                span.parent,
                span.request,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        let totals: Vec<String> = self
            .totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    t.count,
                    t.total.as_nanos(),
                    t.self_time.as_nanos()
                )
            })
            .collect();
        writeln!(out, "{{\"totals\":{{{}}}}}", totals.join(","))?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut recorder = Recorder::new(true, epoch);
        recorder.open_at("root", 7, at(0));
        recorder.open_at("child", 7, at(2));
        recorder.open_at("grandchild", 7, at(3));
        recorder.close_at(at(4));
        recorder.close_at(at(5));
        recorder.open_at("child", 7, at(6));
        recorder.close_at(at(9));
        recorder.close_at(at(10));
        let root = recorder.totals("root");
        assert_eq!(root.total, Duration::from_millis(10));
        assert_eq!(root.self_time, Duration::from_millis(4));
        let child = recorder.totals("child");
        assert_eq!(child.count, 2);
        assert_eq!(child.total, Duration::from_millis(6));
        assert_eq!(child.self_time, Duration::from_millis(5));
        assert_eq!(recorder.kept[0].parent, recorder.kept[1].id);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut recorder = Recorder::new(false, Instant::now());
        let value = recorder.span("root", 1, || 5);
        assert_eq!(value, 5);
        assert_eq!(recorder.totals("root"), SpanTotals::default());
    }

    #[test]
    fn absorbed_ids_stay_unique() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        a.span("x", 1, || ());
        let mut b = Recorder::new(true, epoch);
        b.open("y", 2);
        b.span("z", 2, || ());
        b.close();
        a.absorb(b);
        let ids: Vec<u64> = a.kept.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert_eq!(a.kept[1].parent, 2);
        assert_eq!(a.totals("z").count, 1);
    }
}
