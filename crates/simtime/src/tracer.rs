//! Per-launch span tracing.
//!
//! [`StageLog`](crate::StageLog) answers "how long did each stage of this
//! container take" as flat per-container aggregates, and opens every stage
//! as a span on its tracer. The [`Tracer`] answers the question one level
//! down: *when* did every stage of every container run, on which thread,
//! nested under what — a complete timeline of a launch wave rather than a
//! table of means.
//!
//! Design points:
//!
//! - **Sim-time anchored, wall-clock annotated.** Every span records its
//!   interval twice: in simulated time (read from the shared [`Clock`],
//!   identical to what `StageLog` reports) and in raw wall-clock time
//!   (measured directly with [`Instant`]). The sim component is the
//!   modelled cost plus any real contention divided by the time scale; the
//!   wall component is the ground truth of what the host actually spent.
//!   Comparing the two is how real-clock contamination (scheduler jitter
//!   leaking into sim-time metrics) is diagnosed instead of guessed at.
//! - **Nesting is per-thread.** Each thread keeps a stack of its open
//!   spans; a new span's parent is whatever span the same thread currently
//!   has open. Cross-thread work (e.g. the asynchronous VF driver init)
//!   opens root-level spans on its own track.
//! - **Attribution is two-dimensional:** a *vm* id (set with
//!   [`Tracer::vm_scope`]; 0 means host/background work such as pool
//!   replenishment) and a *track* (one per participating thread, assigned
//!   on first use).
//! - **Disabled by default, one atomic load when off.** Hosts carry a
//!   tracer everywhere; only `fastiovctl observe` and tests turn it on,
//!   so the instrumentation costs nothing on benchmark paths.
//!
//! Two exports:
//!
//! - [`Tracer::chrome_trace_json`] — Chrome trace-event JSON (the
//!   `traceEvents` array format) loadable in `chrome://tracing` or
//!   Perfetto. Timestamps are simulated microseconds; wall microseconds
//!   ride along in each event's `args`. Timestamped output is inherently
//!   schedule-dependent and is **not** part of any determinism guarantee.
//! - [`Tracer::canonical_json`] — a structural digest (per-VM span
//!   name/depth counts, no timestamps, no track ids) that *is*
//!   byte-identical across same-seed runs.

use crate::{Clock, SimInstant};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"4-vfio-dev"` or `"iommu.map"`.
    pub name: String,
    /// Owning VM id (`1000 + launch index` by engine convention), or 0 for
    /// host/background work.
    pub vm: u64,
    /// Track (thread) the span ran on; assigned per thread on first use.
    pub track: u32,
    /// Unique span id within this tracer.
    pub id: u32,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Nesting depth: 0 for root spans.
    pub depth: u32,
    /// Simulated start time.
    pub sim_start: SimInstant,
    /// Simulated end time.
    pub sim_end: SimInstant,
    /// Wall-clock start, measured from the tracer's creation.
    pub wall_start: Duration,
    /// Wall-clock end, measured from the tracer's creation.
    pub wall_end: Duration,
}

impl Span {
    /// Simulated duration of the span.
    pub fn sim_duration(&self) -> Duration {
        self.sim_end.duration_since(self.sim_start)
    }

    /// Wall-clock duration of the span.
    pub fn wall_duration(&self) -> Duration {
        self.wall_end.saturating_sub(self.wall_start)
    }
}

struct TracerInner {
    /// Process-unique tracer id, used to key thread-local state so tests
    /// running several tracers on one thread do not cross-contaminate.
    id: u64,
    clock: Clock,
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
    next_span: AtomicU32,
    next_track: AtomicU32,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TLS: RefCell<TraceTls> = RefCell::new(TraceTls::default());
}

/// Per-thread trace state, keyed by tracer id. The vectors are tiny (one
/// entry per live tracer, a handful of open frames), so linear scans beat
/// any map.
#[derive(Default)]
struct TraceTls {
    /// Stack of open spans: (tracer id, span id, depth).
    frames: Vec<(u64, u32, u32)>,
    /// Stack of VM scopes: (tracer id, vm).
    vms: Vec<(u64, u64)>,
    /// Track assigned to this thread: (tracer id, track).
    tracks: Vec<(u64, u32)>,
}

/// Drops the calling thread's trace state, for a worker between tasks:
/// the next task's first span opens a fresh track.
pub(crate) fn clear_thread() {
    TLS.with_borrow_mut(|t| *t = TraceTls::default());
}

/// A span recorder shared by every component of a simulated host.
///
/// Cheap to clone (an `Arc` internally) and created disabled: components
/// call [`Tracer::span`] unconditionally and pay one atomic load when
/// tracing is off.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Creates a disabled tracer anchored to `clock`.
    pub fn new(clock: Clock) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                origin: Instant::now(),
                enabled: AtomicBool::new(false),
                spans: Mutex::new(Vec::new()),
                next_span: AtomicU32::new(1),
                next_track: AtomicU32::new(1),
            }),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// The clock spans are timed against.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Attributes spans opened by this thread to `vm` until the returned
    /// guard drops. Scopes nest; the innermost wins.
    pub fn vm_scope(&self, vm: u64) -> VmScope {
        if !self.is_enabled() {
            return VmScope { tracer: None };
        }
        let id = self.inner.id;
        TLS.with(|t| t.borrow_mut().vms.push((id, vm)));
        VmScope {
            tracer: Some(self.clone()),
        }
    }

    /// Opens a span starting "now".
    pub fn span(&self, name: &str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { open: None };
        }
        self.open_span(name, self.inner.clock.now())
    }

    /// Opens a span with an externally read simulated start time, so a
    /// caller that already sampled the clock (e.g. `StageLog::stage`) can
    /// share the exact reading and the span reconciles with its record to
    /// the nanosecond.
    pub fn span_at(&self, name: &str, sim_start: SimInstant) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { open: None };
        }
        self.open_span(name, sim_start)
    }

    fn open_span(&self, name: &str, sim_start: SimInstant) -> SpanGuard {
        let inner = &self.inner;
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let (parent, depth, vm, track) = TLS.with(|t| {
            let mut t = t.borrow_mut();
            let parent = t
                .frames
                .iter()
                .rev()
                .find(|f| f.0 == inner.id)
                .map(|f| (f.1, f.2));
            let vm = t
                .vms
                .iter()
                .rev()
                .find(|v| v.0 == inner.id)
                .map_or(0, |v| v.1);
            let track = match t.tracks.iter().find(|tr| tr.0 == inner.id) {
                Some(tr) => tr.1,
                None => {
                    let tr = inner.next_track.fetch_add(1, Ordering::Relaxed);
                    t.tracks.push((inner.id, tr));
                    tr
                }
            };
            let depth = parent.map_or(0, |(_, d)| d + 1);
            t.frames.push((inner.id, id, depth));
            (parent.map(|(p, _)| p), depth, vm, track)
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self.clone(),
                span: Span {
                    name: name.to_string(),
                    vm,
                    track,
                    id,
                    parent,
                    depth,
                    sim_start,
                    sim_end: sim_start,
                    wall_start: inner.origin.elapsed(),
                    wall_end: Duration::ZERO,
                },
            }),
        }
    }

    fn close_span(&self, mut span: Span, sim_end: SimInstant) {
        span.sim_end = sim_end.max(span.sim_start);
        span.wall_end = self.inner.origin.elapsed();
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            // Pop this span's frame. Guards are values, so drops normally
            // run in LIFO order and this is the top frame; a retain keeps
            // the stack consistent even if a guard outlives its scope.
            if let Some(pos) = t
                .frames
                .iter()
                .rposition(|f| f.0 == self.inner.id && f.1 == span.id)
            {
                t.frames.remove(pos);
            }
        });
        self.inner.spans.lock().push(span);
    }

    /// A snapshot of all completed spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().clone()
    }

    /// Drops all recorded spans (between experiment phases).
    pub fn clear(&self) {
        self.inner.spans.lock().clear();
    }

    /// Completed spans sorted for display: by vm, then track, then start.
    fn sorted_spans(&self) -> Vec<Span> {
        let mut spans = self.spans();
        spans.sort_by(|a, b| {
            (a.vm, a.track, a.sim_start, a.id).cmp(&(b.vm, b.track, b.sim_start, b.id))
        });
        spans
    }

    /// Renders all spans as Chrome trace-event JSON (the `traceEvents`
    /// object format), loadable in `chrome://tracing` or Perfetto.
    ///
    /// Events are complete-phase (`"ph":"X"`); `pid` is the vm id, `tid`
    /// the track, `ts`/`dur` are simulated microseconds, and each event's
    /// `args` carries its nesting depth. Every figure is simulated, so the
    /// same wave on a fresh host renders the same bytes.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.sorted_spans();
        let mut out = String::with_capacity(128 + spans.len() * 160);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut seen_vms: Vec<u64> = Vec::new();
        for s in &spans {
            if !seen_vms.contains(&s.vm) {
                seen_vms.push(s.vm);
                let pname = if s.vm == 0 {
                    "host".to_string()
                } else {
                    format!("vm-{}", s.vm)
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"{pname}\"}}}}",
                    s.vm
                );
            }
            if !first {
                out.push(',');
            }
            first = false;
            let ts = s.sim_start.since_origin().as_secs_f64() * 1e6;
            let dur = s.sim_duration().as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"depth\":{}}}}}",
                escape(&s.name),
                s.vm,
                s.track,
                s.depth
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders a deterministic structural digest of the trace: per-VM
    /// counts of `(span name, depth)` pairs, sorted, with background
    /// (vm 0) spans excluded. Contains no timestamps and no track ids, so
    /// two same-configuration runs produce byte-identical output — this is
    /// the view determinism tests assert on.
    pub fn canonical_json(&self) -> String {
        // vm -> (name, depth) -> count
        let mut vms: BTreeMap<u64, BTreeMap<(String, u32), u64>> = BTreeMap::new();
        for s in self.spans() {
            if s.vm == 0 {
                continue;
            }
            *vms.entry(s.vm)
                .or_default()
                .entry((s.name, s.depth))
                .or_insert(0) += 1;
        }
        let mut out = String::from("{\"vms\":[");
        for (i, (vm, counts)) in vms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"vm\":{vm},\"spans\":[");
            for (j, ((name, depth), count)) in counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"depth\":{depth},\"count\":{count}}}",
                    escape(name)
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.inner.spans.lock().len())
            .finish()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Guard returned by [`Tracer::vm_scope`]; restores the previous VM
/// attribution when dropped.
pub struct VmScope {
    tracer: Option<Tracer>,
}

impl Drop for VmScope {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            let id = t.inner.id;
            TLS.with(|tls| {
                let mut tls = tls.borrow_mut();
                if let Some(pos) = tls.vms.iter().rposition(|v| v.0 == id) {
                    tls.vms.remove(pos);
                }
            });
        }
    }
}

struct OpenSpan {
    tracer: Tracer,
    span: Span,
}

/// An open span; records the interval when finished (or dropped).
#[must_use = "a span measures until it is finished or dropped"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// Closes the span at the current simulated time (same as dropping).
    pub fn finish(mut self) {
        if let Some(o) = self.open.take() {
            let end = o.tracer.inner.clock.now();
            o.tracer.close_span(o.span, end);
        }
    }

    /// Closes the span with an externally read simulated end time, for
    /// callers that share clock readings with another recorder.
    pub fn finish_at(mut self, sim_end: SimInstant) {
        if let Some(o) = self.open.take() {
            o.tracer.close_span(o.span, sim_end);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            let end = o.tracer.inner.clock.now();
            o.tracer.close_span(o.span, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DurationExt;

    fn tracer() -> Tracer {
        let t = Tracer::new(Clock::new_virtual(1.0));
        t.enable();
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(Clock::new_virtual(1.0));
        let _vm = t.vm_scope(7);
        t.span("x").finish();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let t = tracer();
        let clock = t.clock().clone();
        let outer = t.span("outer");
        clock.sleep(5u64.sim_ms());
        let inner = t.span("inner");
        clock.sleep(5u64.sim_ms());
        inner.finish();
        outer.finish();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        // The child interval lies within the parent's.
        let at = |ms: u64| SimInstant::from_origin(ms.sim_ms());
        assert_eq!((outer.sim_start, outer.sim_end), (at(0), at(10)));
        assert_eq!((inner.sim_start, inner.sim_end), (at(5), at(10)));
        assert!(inner.wall_duration() <= outer.wall_duration());
        assert!(clock.is_virtual());
    }

    #[test]
    fn vm_scope_attributes_and_restores() {
        let t = tracer();
        t.span("pre").finish();
        {
            let _vm = t.vm_scope(1003);
            t.span("in").finish();
            {
                let _inner = t.vm_scope(1007);
                t.span("deep").finish();
            }
            t.span("back").finish();
        }
        t.span("post").finish();
        let vm_of = |name: &str| t.spans().iter().find(|s| s.name == name).unwrap().vm;
        assert_eq!(vm_of("pre"), 0);
        assert_eq!(vm_of("in"), 1003);
        assert_eq!(vm_of("deep"), 1007);
        assert_eq!(vm_of("back"), 1003);
        assert_eq!(vm_of("post"), 0);
    }

    #[test]
    fn threads_get_distinct_tracks_and_root_spans() {
        let t = tracer();
        let main = t.span("main-root");
        let t2 = t.clone();
        crate::spawn(t.clock(), "other", move || {
            t2.span("thread-root").finish();
        })
        .join()
        .unwrap();
        main.finish();
        let spans = t.spans();
        let a = spans.iter().find(|s| s.name == "main-root").unwrap();
        let b = spans.iter().find(|s| s.name == "thread-root").unwrap();
        assert_ne!(a.track, b.track);
        // The other thread's span is a root, not a child of main's.
        assert_eq!(b.parent, None);
        assert_eq!(b.depth, 0);
    }

    #[test]
    fn span_at_and_finish_at_share_exact_readings() {
        let t = tracer();
        let start = SimInstant::from_origin(Duration::from_secs(3));
        let end = SimInstant::from_origin(Duration::from_secs(5));
        t.span_at("stage", start).finish_at(end);
        let s = &t.spans()[0];
        assert_eq!(s.sim_start, start);
        assert_eq!(s.sim_end, end);
        assert_eq!(s.sim_duration(), Duration::from_secs(2));
    }

    #[test]
    fn finish_at_clamps_backwards_end() {
        let t = tracer();
        let start = SimInstant::from_origin(Duration::from_secs(5));
        t.span_at("s", start).finish_at(SimInstant::ZERO);
        assert_eq!(t.spans()[0].sim_duration(), Duration::ZERO);
    }

    #[test]
    fn chrome_trace_has_events_and_metadata() {
        let t = tracer();
        let _vm = t.vm_scope(1000);
        t.span("0-cgroup").finish();
        let json = t.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"vm-1000\""));
        assert!(json.contains("\"name\":\"0-cgroup\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":1000"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn canonical_json_is_structural_and_sorted() {
        let t = tracer();
        {
            let _vm = t.vm_scope(1001);
            t.span("b").finish();
            t.span("a").finish();
            t.span("a").finish();
        }
        t.span("background").finish(); // vm 0: excluded
        assert_eq!(
            t.canonical_json(),
            "{\"vms\":[{\"vm\":1001,\"spans\":[\
             {\"name\":\"a\",\"depth\":0,\"count\":2},\
             {\"name\":\"b\",\"depth\":0,\"count\":1}]}]}"
        );
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_cross_nest() {
        let a = tracer();
        let b = tracer();
        let outer_a = a.span("a-outer");
        let b_span = b.span("b-span");
        b_span.finish();
        outer_a.finish();
        let b_spans = b.spans();
        assert_eq!(b_spans[0].parent, None, "b must not nest under a's span");
        assert_eq!(a.spans().len(), 1);
    }

    #[test]
    fn clear_drops_spans() {
        let t = tracer();
        t.span("x").finish();
        assert_eq!(t.spans().len(), 1);
        t.clear();
        assert!(t.spans().is_empty());
    }
}
