//! The traced run's span recorder: an in-memory log of wall-clock spans,
//! fed by the span hooks the program already calls (`slot`, `decide`,
//! `fw.iter`, `queue.update`, ...) and by bench-side timers around public
//! calls and observer sinks. Nothing is written until the run ends.

use crate::stats;
use grefar_obs::{Event, Observer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name: a program hook name or a bench-side layer label.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Shared by every span of one slot or one request.
    pub root: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    root: u32,
}

/// A log shared between the observer chain and the stepping loop.
pub type SharedLog = Rc<RefCell<SpanLog>>;

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            root: 0,
        }
    }

    /// A fresh shared log.
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(Self::new()))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new slot or request: later spans carry a new root id.
    pub fn next_root(&mut self) {
        self.root += 1;
    }

    /// Opens `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            root: self.root,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open (an unbalanced hook is a bug).
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("span exit without an open span");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as tab-separated `name start_ns end_ns parent root`
    /// lines (parent `-` for a root span).
    ///
    /// # Errors
    /// Any I/O error creating or writing `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(file, "name\tstart_ns\tend_ns\tparent\troot")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                file,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.root
            )?;
        }
        file.flush()
    }

    /// Folds the log into per-name totals.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn summarize(&self) -> Summary {
        assert!(self.open.is_empty(), "summarize with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.busy_ns += span.dur_ns();
            entry.self_ns += span.dur_ns().saturating_sub(*child);
            entry.durations_us.push(span.dur_ns() as f64 / 1e3);
        }
        Summary { by_name }
    }

    /// Number of `child` spans under each `parent` span, in log order:
    /// e.g. `fw.iter` per `decide` is the per-slot Frank–Wolfe count.
    pub fn children_per(&self, parent: &str, child: &str) -> Vec<u64> {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == parent {
                counts.entry(id as u32).or_insert(0);
            }
        }
        for span in &self.spans {
            if span.name == child && span.parent != NO_PARENT {
                if let Some(count) = counts.get_mut(&span.parent) {
                    *count += 1;
                }
            }
        }
        counts.into_values().collect()
    }
}

/// Totals for one span name.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub busy_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Every span's duration, in microseconds.
    pub durations_us: Vec<f64>,
}

/// Per-name totals of a span log.
#[derive(Debug, Default)]
pub struct Summary {
    by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    fn get(&self, name: &str) -> Option<&NameStats> {
        self.by_name.get(name)
    }

    /// Spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |s| s.count)
    }

    /// Summed duration of `name`, seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.busy_ns as f64 / 1e9)
    }

    /// Summed self time of `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e9)
    }

    /// Quantile `q` of `name`'s durations, microseconds (0 when absent).
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        self.get(name)
            .map_or(0.0, |s| stats::quantile(&s.durations_us, q))
    }
}

/// The root of the traced observer chain. It answers the program's span
/// hooks into the log and forwards events, timed as `label`, to an
/// optional inner sink.
pub struct Traced<I> {
    log: SharedLog,
    inner: Option<Timed<I>>,
}

impl<I: Observer> Traced<I> {
    /// A profiling-only, events-off observer (what the `NullObserver`
    /// workloads run under when traced).
    pub fn hooks_only(log: SharedLog) -> Self {
        Traced { log, inner: None }
    }

    /// Hooks plus a real sink, timed as `label`.
    pub fn with_sink(log: SharedLog, label: &'static str, inner: I) -> Self {
        let timed = Timed::new(log.clone(), label, inner);
        Traced {
            log,
            inner: Some(timed),
        }
    }

    /// Hands the inner sink back.
    pub fn into_inner(self) -> Option<Timed<I>> {
        self.inner
    }
}

impl<I: Observer> Observer for Traced<I> {
    fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(Observer::enabled)
    }

    fn record_event(&mut self, event: Event) {
        if let Some(inner) = &mut self.inner {
            inner.record_event(event);
        }
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        if let Some(inner) = &mut self.inner {
            inner.add_counter(name, delta);
        }
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.set_gauge(name, value);
        }
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.record_value(name, value);
        }
    }

    fn profiling(&self) -> bool {
        true
    }

    fn span_enter(&mut self, name: &'static str) {
        self.log.borrow_mut().enter(name);
    }

    fn span_exit(&mut self, _name: &'static str) {
        self.log.borrow_mut().exit();
    }
}

/// Times every call into a sink as a span named `label`, nested under
/// whichever span emitted into it, and counts the events it saw.
pub struct Timed<I> {
    log: SharedLog,
    label: &'static str,
    inner: I,
    events: u64,
}

impl<I: Observer> Timed<I> {
    /// Wraps `inner`.
    pub fn new(log: SharedLog, label: &'static str, inner: I) -> Self {
        Timed {
            log,
            label,
            inner,
            events: 0,
        }
    }

    /// Events forwarded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> I {
        self.inner
    }

    fn timed(&mut self, call: impl FnOnce(&mut I)) {
        self.log.borrow_mut().enter(self.label);
        call(&mut self.inner);
        self.log.borrow_mut().exit();
    }
}

impl<I: Observer> Observer for Timed<I> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record_event(&mut self, event: Event) {
        self.events += 1;
        self.timed(|inner| inner.record_event(event));
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.timed(|inner| inner.add_counter(name, delta));
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.timed(|inner| inner.set_gauge(name, value));
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        self.timed(|inner| inner.record_value(name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        log.enter("slot");
        log.enter("decide");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit();
        log.exit();
        let summary = log.summarize();
        assert_eq!(summary.count("slot"), 1);
        assert!(summary.busy_s("slot") >= summary.busy_s("decide"));
        assert!(summary.self_s("slot") < summary.busy_s("decide"));
        assert_eq!(log.children_per("slot", "decide"), vec![1]);
        assert!(log.spans().iter().all(|s| s.root == 0));
    }
}
