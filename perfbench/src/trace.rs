//! The traced run's span recorder: spans around each call the benchmark
//! makes into a layer, kept in memory, reduced to per-layer self time and
//! exported as Chrome trace-event JSON (which Perfetto and
//! `chrome://tracing` open directly).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the process, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The measured pass (or set-up) this span belongs to; spans of one
    /// pass share it.
    pub run: u64,
    /// The workspace crate the call enters (`core`, `store`, ...).
    pub layer: &'static str,
    /// What was called, with its argument (`Gpu::run_with_mode volta_256`).
    pub name: String,
    /// Small per-thread number, stable within the process.
    pub tid: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Small number of the calling thread, stable within the process.
pub fn thread_number() -> u64 {
    TID.with(|t| *t)
}

/// An in-memory span recorder. A disabled tracer records nothing and costs
/// one branch per call, so untraced passes run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    /// Parent for spans opened on threads the benchmark does not own (the
    /// sweep pool's workers); 0 when unset.
    context: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            context: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every later span with run id `run`.
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The parent installed by [`Tracer::with_context`], if any.
    pub fn context(&self) -> Option<u64> {
        match self.context.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }

    /// Runs `f` with `parent` as the parent of spans recorded from other
    /// threads through [`Tracer::context`].
    pub fn with_context<T>(&self, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.context.store(parent.unwrap_or(0), Ordering::Relaxed);
        let out = f();
        self.context.store(0, Ordering::Relaxed);
        out
    }

    /// Runs `f` inside a span. `f` receives the span's id (for children)
    /// when tracing is on; `name` is only built when tracing is on.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: impl FnOnce() -> String,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            layer,
            name: name(),
            tid: thread_number(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span over an interval measured by the caller.
    pub fn record(
        &self,
        layer: &'static str,
        name: String,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            layer,
            name,
            tid: thread_number(),
            start_ns,
            end_ns,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// The spans tagged with the current run id.
    pub fn spans_of_current_run(&self) -> Vec<Span> {
        let run = self.run.load(Ordering::Relaxed);
        let spans = self.spans.lock().expect("span buffer lock");
        spans.iter().filter(|s| s.run == run).cloned().collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += own[&s.id];
    }
    by_layer
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Chrome trace-event JSON ("complete" `X` events, microsecond times).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run\":{},\
             \"self_us\":{:.3}}}}}",
            escape(&s.name),
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.run,
            own[&s.id] as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            layer,
            name: format!("s{id}"),
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (10..40 and 30..60) cover 50 of the
        // parent's 100 ns; a third reaches past the parent's end and only
        // counts inside it.
        let spans = vec![
            span(1, None, "sweep", 0, 100),
            span(2, Some(1), "store", 10, 40),
            span(3, Some(1), "store", 30, 60),
            span(4, Some(1), "core", 90, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
        assert_eq!(own[&2], 30);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["sweep"], 40);
        assert_eq!(layers["store"], 60);
        assert_eq!(layers["core"], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let got = tracer.span("core", || unreachable!("name built"), None, |id| id);
        assert_eq!(got, None);
        tracer.record("store", "x".into(), None, 0, 1);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn chrome_export_has_one_complete_event_per_span() {
        let tracer = Tracer::new(true);
        tracer.set_run(3);
        tracer.span(
            "serve",
            || "Server::run \"virgo\"".into(),
            None,
            |id| {
                tracer.record("core", "inner".into(), id, tracer.now_ns(), tracer.now_ns());
            },
        );
        let json = chrome_trace_json(&tracer.spans());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("Server::run \\\"virgo\\\""));
        assert!(json.contains("\"run\":3"));
        assert!(json.contains("\"parent\":null"));
    }
}
