//! Spans recorded around calls into the system's public functions, and the
//! two statistics rules the report relies on: self time and percentiles.
//!
//! Spans live in memory while the benchmark runs and are written out once
//! at exit. A [`Recorder`] that is switched off records nothing, so the
//! untraced run pays one branch per call.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pipeline::PipelineSpec;
use storage::{ClientError, FetchRequest, FetchResponse, FetchTransport};

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

const NO_PARENT: usize = usize::MAX;

/// One timed interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<usize>,
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log shared by the decorators of one client thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The open outer span that spans on other threads nest under.
    open_parent: AtomicUsize,
    batch: AtomicU64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open_parent: AtomicUsize::new(NO_PARENT),
            batch: AtomicU64::new(0),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with `batch`.
    pub fn set_batch(&self, batch: u64) {
        self.batch.store(batch, Ordering::Relaxed);
    }

    /// Opens a span and returns its index; `outer` spans become the parent
    /// of spans opened on any thread until they close.
    fn open(&self, name: &'static str, outer: bool) -> usize {
        let parent = match self.open_parent.load(Ordering::SeqCst) {
            NO_PARENT => None,
            p if !outer => Some(p),
            _ => None,
        };
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            batch: self.batch.load(Ordering::Relaxed),
        };
        let mut spans = self.spans.lock().expect("span log lock is never poisoned");
        spans.push(span);
        let idx = spans.len() - 1;
        if outer {
            self.open_parent.store(idx, Ordering::SeqCst);
        }
        idx
    }

    fn close(&self, idx: usize, outer: bool) {
        let end = self.now_ns();
        if outer {
            self.open_parent.store(NO_PARENT, Ordering::SeqCst);
        }
        self.spans.lock().expect("span log lock is never poisoned")[idx].end_ns = end;
    }

    /// Records a finished span with no parent.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled() {
            return;
        }
        let batch = self.batch.load(Ordering::Relaxed);
        self.spans.lock().expect("span log lock is never poisoned").push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            batch,
        });
    }

    /// Runs `f`, recording it as a span with no parent, and returns its
    /// result with its wall time in seconds (measured even when off).
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.record(name, start, end);
        (r, (end - start) as f64 / 1e9)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock is never poisoned").clone()
    }

    /// Appends the spans as CSV rows tagged with `thread`.
    pub fn write_csv(&self, out: &mut impl Write, thread: usize) -> std::io::Result<()> {
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{thread},{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
        Ok(())
    }
}

/// A [`FetchTransport`] decorator that records one span per
/// `fetch_many_requests` call. An outer decorator's span is the parent of
/// every span its inner transports record, whichever thread they run on.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    rec: Arc<Recorder>,
    name: &'static str,
    outer: bool,
}

impl<T> Timed<T> {
    /// A decorator whose spans parent the spans recorded beneath it.
    pub fn outer(rec: &Arc<Recorder>, name: &'static str, inner: T) -> Timed<T> {
        Timed { inner, rec: Arc::clone(rec), name, outer: true }
    }

    /// A decorator whose spans nest under the open outer span.
    pub fn child(rec: &Arc<Recorder>, name: &'static str, inner: T) -> Timed<T> {
        Timed { inner, rec: Arc::clone(rec), name, outer: false }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: FetchTransport> FetchTransport for Timed<T> {
    fn configure(&mut self, dataset_seed: u64, pipeline: PipelineSpec) -> Result<(), ClientError> {
        self.inner.configure(dataset_seed, pipeline)
    }

    fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        if !self.rec.enabled() {
            return self.inner.fetch_many_requests(requests);
        }
        let idx = self.rec.open(self.name, self.outer);
        let result = self.inner.fetch_many_requests(requests);
        self.rec.close(idx, self.outer);
        result
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Nearest-rank `p`-th percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, batch: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![span(0, 100, None), span(10, 30, Some(0)), span(50, 60, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel node fetches under one fleet span: only their union
        // is covered.
        let spans = vec![span(0, 100, None), span(10, 70, Some(0)), span(20, 90, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(10, 50, None), span(0, 20, Some(0)), span(40, 80, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = vec![span(0, 100, None), span(0, 50, Some(0)), span(10, 20, Some(1))];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&values, 90.0);
        values.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&values, 90.0));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        rec.record("x", 0, 1);
        assert!(rec.spans().is_empty());
    }
}
