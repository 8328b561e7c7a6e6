//! Spans around the benchmark's own calls into each layer's public
//! functions. Nothing inside the crates is instrumented: a span covers one
//! call as the caller sees it.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span this call was made under, if any.
    pub parent: Option<u64>,
    /// The benchmark's request number (stream position) the call serves.
    pub request: Option<u64>,
    /// `layer.function`, e.g. `core.nninit`.
    pub name: &'static str,
    /// What the call was made on, e.g. `k3` or a repair tier; empty if
    /// nothing.
    pub detail: &'static str,
    /// Offsets from the run's origin.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

impl Span {
    /// The call's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The run's span store. Disabled, it records nothing and its timing
/// helpers only run the call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer recording iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Offset of now from the run's origin.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds spans a thread collected locally.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.lock().expect("span store poisoned").extend(spans);
        }
    }

    /// Runs `f` as one call named `name` under `parent`, returning its
    /// result and duration in seconds. The duration is measured whether or
    /// not spans are recorded.
    pub fn time<T>(
        &self,
        name: &'static str,
        detail: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        if self.enabled {
            let span = Span { id: self.id(), parent, request: None, name, detail, start, end };
            self.spans.lock().expect("span store poisoned").push(span);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Records a call timed by the caller, whose `detail` is known only
    /// from its result.
    pub fn record(&self, name: &'static str, detail: &'static str, start: Duration, end: Duration) {
        if self.enabled {
            let span =
                Span { id: self.id(), parent: None, request: None, name, detail, start, end };
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(&self) -> (u64, Duration) {
        (self.id(), self.now())
    }

    /// Records the parent span opened by [`Tracer::open`].
    pub fn close(&self, opened: (u64, Duration), name: &'static str, parent: Option<u64>) {
        if self.enabled {
            let (id, start) = opened;
            let span = Span { id, parent, request: None, name, detail: "", start, end: self.now() };
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Durations in seconds of every span named `name` with `detail`.
    pub fn durations(&self, name: &str, detail: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name && s.detail == detail)
            .map(Span::secs)
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::with_capacity(spans.len() * 120);
        for s in spans.iter() {
            let _ = write!(out, "{{\"id\":{},\"name\":\"{}\"", s.id, s.name);
            if !s.detail.is_empty() {
                let _ = write!(out, ",\"detail\":\"{}\"", s.detail);
            }
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
