//! Spans recorded from outside the simulator, around the calls the
//! benchmark makes into each layer's public seam.
//!
//! Every wrapper forwards to the policy the engine would have built
//! itself and only adds timing, so a wrapped episode's report must be
//! byte-identical to the plain `run` — the benchmark checks that on
//! every traced episode.

use crate::stats::proc_status_mib;
use papi_core::pricer::SharedIterationCache;
use papi_core::{
    AdmissionCandidate, AdmissionPolicy, AdmissionView, AutoscalePolicy, AutoscaleView,
    ScaleAction, ServingEngine, ServingReport, SessionStatus,
};
use papi_workload::{
    MigrationContext, MigrationPolicy, RouteContext, RoutePolicy, Router, ServingWorkload,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: its layer, host-time interval (ns since the tracer's
/// origin), the span open around it, and the request it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder. The seams it wraps are called from the
/// thread driving the episode, so one stack of open spans gives every
/// span its parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    buffer: Mutex<Buffer>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            buffer: Mutex::new(Buffer::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&self, name: &'static str, request: Option<u64>) -> usize {
        let mut buf = self.buffer.lock().expect("tracer lock poisoned");
        let id = buf.spans.len();
        let parent = buf.open.last().copied();
        buf.open.push(id);
        buf.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&self, id: usize) {
        let end = self.now_ns();
        let mut buf = self.buffer.lock().expect("tracer lock poisoned");
        buf.spans[id].end_ns = end;
        let closed = buf.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close innermost first");
    }

    /// Takes every recorded span, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        let mut buf = self.buffer.lock().expect("tracer lock poisoned");
        assert!(buf.open.is_empty(), "took spans while one was open");
        std::mem::take(&mut buf.spans)
    }
}

/// Each span's self time: its duration minus the part its children
/// cover (children never outlive their parent, so that is the sum of
/// their durations).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Writes each episode's spans as tab-separated rows with their self
/// times, after a `#` header line. Span ids are per episode; the `seam`
/// column names which seams the episode wrapped.
pub fn write_spans<S: std::fmt::Debug>(
    path: &std::path::Path,
    header: &str,
    episodes: &std::collections::BTreeMap<S, Vec<Span>>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    writeln!(
        out,
        "seam\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\trequest"
    )?;
    for (seam, spans) in episodes {
        for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            let request = span.request.map_or(String::new(), |r| r.to_string());
            writeln!(
                out,
                "{seam:?}\t{id}\t{parent}\t{}\t{}\t{}\t{self_ns}\t{request}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

/// Route timing around the fleet's built-in router, sampling VmRSS every
/// [`RSS_EVERY`] routes.
#[derive(Debug)]
pub struct TimedRoute<'a> {
    inner: Router,
    tracer: &'a Tracer,
    calls: u64,
    /// `(routes / 1000, VmRSS MiB)` samples.
    pub rss: Vec<(f64, f64)>,
}

pub const RSS_EVERY: u64 = 1000;

impl<'a> TimedRoute<'a> {
    pub fn new(inner: Router, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            calls: 0,
            rss: Vec::new(),
        }
    }
}

impl RoutePolicy for TimedRoute<'_> {
    fn route(&mut self, ctx: &RouteContext<'_>) -> usize {
        if self.calls.is_multiple_of(RSS_EVERY) {
            if let Some(mib) = proc_status_mib("VmRSS") {
                self.rss.push((self.calls as f64 / RSS_EVERY as f64, mib));
            }
        }
        self.calls += 1;
        let span = self.tracer.enter("route", Some(ctx.request.request.id));
        // The trait method, not `Router`'s positional `route`: the context
        // carries the elastic ring and the shared-prefix directory.
        let target = RoutePolicy::route(&mut self.inner, ctx);
        self.tracer.exit(span);
        target
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Decode-placement timing around the fleet's built-in migration policy.
#[derive(Debug)]
pub struct TimedMigrate<'a> {
    pub inner: Box<dyn MigrationPolicy>,
    pub tracer: &'a Tracer,
}

impl MigrationPolicy for TimedMigrate<'_> {
    fn place(&mut self, ctx: &MigrationContext<'_>) -> usize {
        let span = self.tracer.enter("migrate", Some(ctx.request.request.id));
        let target = self.inner.place(ctx);
        self.tracer.exit(span);
        target
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Decision timing around the fleet's built-in autoscaling policy.
#[derive(Debug)]
pub struct TimedAutoscale<'a> {
    pub inner: Box<dyn AutoscalePolicy>,
    pub tracer: &'a Tracer,
}

impl AutoscalePolicy for TimedAutoscale<'_> {
    fn decide(&mut self, view: &AutoscaleView<'_>) -> Vec<ScaleAction> {
        let span = self.tracer.enter("autoscale.decide", None);
        let actions = self.inner.decide(view);
        self.tracer.exit(span);
        actions
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Admission timing and outcome counts around the engine's admission
/// policy. The engine shares its policy behind an `Arc`, so the wrapper
/// owns its tracer handle and counts with atomics.
#[derive(Debug)]
pub struct TimedAdmission {
    inner: Arc<dyn AdmissionPolicy>,
    tracer: Arc<Tracer>,
    counts: Arc<AdmissionCounts>,
}

/// What the admission wrapper counted.
#[derive(Debug, Default)]
pub struct AdmissionCounts {
    pub consulted: AtomicU64,
    pub accepted: AtomicU64,
    pub preempt_calls: AtomicU64,
}

impl TimedAdmission {
    pub fn new(
        inner: Arc<dyn AdmissionPolicy>,
        tracer: Arc<Tracer>,
        counts: Arc<AdmissionCounts>,
    ) -> Self {
        Self {
            inner,
            tracer,
            counts,
        }
    }
}

impl AdmissionPolicy for TimedAdmission {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn admit(&self, candidate: &AdmissionCandidate, view: &AdmissionView<'_>) -> bool {
        let span = self.tracer.enter("admission.admit", Some(candidate.id));
        let admitted = self.inner.admit(candidate, view);
        self.tracer.exit(span);
        // Statistics only: nothing else is published through these.
        self.counts.consulted.fetch_add(1, Ordering::Relaxed);
        if admitted {
            self.counts.accepted.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    fn preempt_victim(&self, view: &AdmissionView<'_>) -> Option<usize> {
        let span = self.tracer.enter("admission.preempt", None);
        let victim = self.inner.preempt_victim(view);
        self.tracer.exit(span);
        self.counts.preempt_calls.fetch_add(1, Ordering::Relaxed);
        victim
    }
}

/// Serves one episode on `engine` exactly as `ServingEngine::run` does —
/// open a session, push every generated request, step until idle, take
/// the report — optionally with a pricing memo installed, and with a
/// span around each call when `tracer` is given.
pub fn drive_session(
    engine: &ServingEngine,
    workload: &ServingWorkload,
    tracer: Option<&Tracer>,
    memo: Option<&Arc<SharedIterationCache>>,
) -> ServingReport {
    let enter = |name, request| tracer.map(|t| t.enter(name, request));
    let exit = |span: Option<usize>| {
        if let (Some(t), Some(id)) = (tracer, span) {
            t.exit(id);
        }
    };
    let episode = enter("episode", None);
    let mut session = engine.open_session(workload);
    if let Some(memo) = memo {
        session.install_pricer_cache(Arc::clone(memo));
    }
    for request in workload.requests() {
        let span = enter("serving.push", Some(request.request.id));
        session.push(request);
        exit(span);
    }
    loop {
        let span = enter("serving.step", None);
        let status = session.step();
        exit(span);
        if status != SessionStatus::Advanced {
            break;
        }
    }
    let span = enter("serving.report", None);
    let report = session.into_report();
    exit(span);
    exit(episode);
    report
}
