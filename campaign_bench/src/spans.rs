//! Spans timed from outside the program, kept in memory, and the
//! self-time arithmetic that turns them into per-layer numbers.
//!
//! A span wraps one call into a public function of the program. Spans
//! nest by call: a span opened while another is open is its child. All
//! calls run on one thread (`DEEPSTRIKE_THREADS=1`), so siblings never
//! overlap and a span's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One timed call, or (see [`Tracer::leaf`]) `count` calls whose
/// durations sum to `busy_ns`, from the start of the first to the end of
/// the last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `attack.score_dense`.
    pub name: &'static str,
    /// Start of the first call, in ns since the tracer was made.
    pub start_ns: u64,
    /// End of the last call, in ns since the tracer was made.
    pub end_ns: u64,
    /// Summed duration of the calls.
    pub busy_ns: u64,
    /// Calls in this record.
    pub count: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Campaign point the call belongs to.
    pub point: Option<u64>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    point: Option<u64>,
    counts: BTreeMap<&'static str, f64>,
}

/// The span recorder. Disabled, a span costs one relaxed load.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { enabled: AtomicBool::new(false), origin: Instant::now(), state: Mutex::default() }
    }
}

/// Closes its span on drop, so a panicking call (a quarantined point)
/// still leaves a well-formed span tree.
struct Open<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.index);
    }
}

impl Tracer {
    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether calls are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update leaves the state valid, so a poisoned lock (a
        // panic elsewhere while it was held) is safe to reuse.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_enabled() {
            return f();
        }
        let _open = Open { tracer: self, index: self.open(name) };
        f()
    }

    /// Runs `f` as campaign point `id`: inside a `point` span, with every
    /// span it opens tagged with `id`.
    pub fn point<R>(&self, id: u64, f: impl FnOnce() -> R) -> R {
        struct Tagged<'a>(&'a Tracer);
        impl Drop for Tagged<'_> {
            fn drop(&mut self) {
                self.0.lock().point = None;
            }
        }
        self.lock().point = Some(id);
        let _tagged = Tagged(self);
        self.span("point", f)
    }

    fn open(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut state = self.lock();
        let index = state.spans.len();
        let parent = state.open.last().copied();
        let point = state.point;
        state.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            count: 1,
            parent,
            point,
        });
        state.open.push(index);
        index
    }

    fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        let mut state = self.lock();
        while let Some(top) = state.open.pop() {
            if top == index {
                break;
            }
        }
        let span = &mut state.spans[index];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Records `count` calls named `name`, the first starting at `first`
    /// and together `busy_ns` long, as one leaf under the open span. For
    /// calls too short and frequent to open a span each: the caller times
    /// them with two clock reads and no lock.
    pub fn leaf(&self, name: &'static str, first: Instant, count: u64, busy_ns: u64) {
        if !self.is_enabled() || count == 0 {
            return;
        }
        let start_ns =
            u64::try_from(first.saturating_duration_since(self.origin).as_nanos()).unwrap_or(0);
        let end_ns = self.now_ns();
        let mut state = self.lock();
        let parent = state.open.last().copied();
        let point = state.point;
        state.spans.push(Span { name, start_ns, end_ns, busy_ns, count, parent, point });
    }

    /// Adds `value` to the counter `name` while recording.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.is_enabled() {
            *self.lock().counts.entry(name).or_default() += value;
        }
    }

    /// The recorded spans and counters, leaving the recorder empty.
    pub fn take(&self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        let mut state = self.lock();
        (std::mem::take(&mut state.spans), std::mem::take(&mut state.counts))
    }
}

/// Self time of every span: its busy time minus its children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.busy_ns);
        }
    }
    own
}

/// Per span name: summed self time in seconds and number of calls.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += own as f64 * 1e-9;
        entry.1 += span.count;
    }
    totals
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\
             \"self_ns\":{own},\"count\":{},\"parent\":{},\"point\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.count,
            opt(s.parent.map(|p| p as u64)),
            opt(s.point),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            count: 1,
            parent,
            point: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // block [0,100) > point [10,90) > {plan [10,20), run [20,50), score [50,85)}
        let spans = vec![
            span("block", 0, 100, None),
            span("point", 10, 90, Some(0)),
            span("plan", 10, 20, Some(1)),
            span("run", 20, 50, Some(1)),
            span("score", 50, 85, Some(1)),
        ];
        assert_eq!(self_ns(&spans), vec![20, 5, 10, 30, 35]);
        // Self times partition the root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn merged_records_subtract_their_busy_time() {
        // run [0,100) with 40 pumps merged into one record of 60 ns busy.
        let mut pumps = span("pump", 5, 95, Some(0));
        pumps.busy_ns = 60;
        pumps.count = 40;
        let spans = vec![span("run", 0, 100, None), pumps];
        assert_eq!(self_ns(&spans), vec![40, 60]);
        let totals = by_name(&spans);
        assert_eq!(totals["pump"].1, 40);
        assert!((totals["run"].0 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_survives_panics() {
        let tracer = Tracer::default();
        tracer.set_enabled(true);
        tracer.point(7, || {
            tracer.span("run", || {
                tracer.span("inference", || ());
                tracer.leaf("pump", Instant::now(), 40, 1);
            });
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.span("boom", || tracer.span("inner", || panic!("quarantined")))
        }));
        assert!(caught.is_err());
        tracer.span("after", || ());
        tracer.set_enabled(false);
        tracer.span("ignored", || ());
        tracer.count("ignored", 1.0);

        let (spans, counts) = tracer.take();
        assert!(counts.is_empty(), "a disabled tracer counts nothing");
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["point", "run", "inference", "pump", "boom", "inner", "after"]);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[..4].iter().all(|s| s.point == Some(7)));
        assert_eq!((spans[3].parent, spans[3].count, spans[3].busy_ns), (Some(1), 40, 1));
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!(spans[6].parent, None, "a panic must not leave spans open");
        assert_eq!(spans[6].point, None);
        let own = self_ns(&spans);
        assert_eq!(own[..4].iter().sum::<u64>(), spans[0].busy_ns);
    }
}
