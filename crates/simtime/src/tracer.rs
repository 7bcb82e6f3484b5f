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
//! - **One tracer per clock.** The span log lives in the clock's executor,
//!   beside its lock witness; every component reaches it through
//!   [`Clock::tracer`] on the clock it already holds. A span records into
//!   the clock it is opened on, whatever thread opens it (a plain
//!   `std::thread` in no executor included), unlike a lock acquisition.
//! - **Sim-time anchored.** Every span records its interval in simulated
//!   time, read from the clock (identical to what `StageLog` reports). It
//!   also keeps the raw wall-clock interval, from the clock's creation, on
//!   the [`Span`] only: no export carries it.
//! - **Nesting is per-thread.** Each thread keeps a stack of its open
//!   spans per clock; a new span's parent is whatever span the same
//!   thread currently has open on that clock. Cross-thread work (e.g. the
//!   asynchronous VF driver init) opens root-level spans on its own track.
//!   The state ends with the thread's executor membership: a task on a
//!   reused worker, or a driver of a new clock, opens a fresh track.
//! - **Attribution is two-dimensional:** a *vm* id (set with
//!   [`Tracer::vm_scope`]; 0 means host/background work such as pool
//!   replenishment) and a *track* (one per participating thread, assigned
//!   on first use).
//! - **Disabled by default, one atomic load when off.** Instrumented
//!   paths open spans unconditionally; only `fastiovctl observe`, the
//!   benchmark's traced runs (`--trace 1`) and tests turn recording on.
//!
//! One export: [`Tracer::chrome_trace_json`] — Chrome trace-event JSON
//! (the `traceEvents` array format) loadable in `chrome://tracing` or
//! Perfetto. Timestamps are simulated microseconds and no figure is wall
//! time, so the same wave on a fresh virtual-clock host renders the same
//! bytes, timestamps and track ids included.

use crate::exec::with_thread_trace;
use crate::{Clock, SimInstant};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"4-vfio-dev"` or `"iommu.map"`.
    pub name: String,
    /// Owning VM id (`fastiov_engine::vm_id` of the launch), or 0 for
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
    /// Wall-clock start, measured from the clock's creation.
    pub wall_start: Duration,
    /// Wall-clock end, measured from the clock's creation.
    pub wall_end: Duration,
}

impl Span {
    /// Simulated duration of the span.
    pub fn sim_duration(&self) -> Duration {
        self.sim_end.duration_since(self.sim_start)
    }
}

/// One clock's span log, owned by its executor.
pub(crate) struct TraceLog {
    /// Process-unique, never reused: keys this log's entries in a
    /// thread's [`ThreadTrace`].
    id: u64,
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
    next_span: AtomicU32,
    next_track: AtomicU32,
}

impl Default for TraceLog {
    fn default() -> Self {
        static NEXT_LOG: AtomicU64 = AtomicU64::new(1);
        TraceLog {
            id: NEXT_LOG.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            next_span: AtomicU32::new(1),
            next_track: AtomicU32::new(1),
        }
    }
}

/// A thread's trace state, keyed by log id, held by its executor
/// membership. The vectors are tiny (one entry per clock the thread
/// traces on, a handful of open frames), so linear scans beat any map.
#[derive(Default)]
pub(crate) struct ThreadTrace {
    /// Stack of open spans: (log id, span id, depth).
    frames: Vec<(u64, u32, u32)>,
    /// Stack of VM scopes: (log id, vm).
    vms: Vec<(u64, u64)>,
    /// Track assigned to this thread: (log id, track).
    tracks: Vec<(u64, u32)>,
}

/// The span tracer of one clock ([`Clock::tracer`]), shared by every
/// component of a simulated host.
///
/// Cheap to clone (a clock handle) and disabled until [`Tracer::enable`]:
/// components call [`Tracer::span`] unconditionally and pay one atomic
/// load when tracing is off.
#[derive(Clone, Debug)]
#[repr(transparent)]
pub struct Tracer {
    pub(crate) clock: Clock,
}

impl Tracer {
    fn log(&self) -> &TraceLog {
        &self.clock.exec().trace
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.log().enabled.store(true, Ordering::Release);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.log().enabled.load(Ordering::Acquire)
    }

    /// The clock spans are timed against.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Attributes spans opened by this thread to `vm` until the returned
    /// guard drops. Scopes nest; the innermost wins.
    pub fn vm_scope(&self, vm: u64) -> VmScope {
        if !self.is_enabled() {
            return VmScope { log: None };
        }
        let id = self.log().id;
        with_thread_trace(|t| t.vms.push((id, vm)));
        VmScope { log: Some(id) }
    }

    /// Opens a span starting "now".
    pub fn span(&self, name: &str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { open: None };
        }
        self.open_span(name, self.clock.now())
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
        let log = self.log();
        let id = log.next_span.fetch_add(1, Ordering::Relaxed);
        let (parent, depth, vm, track) = with_thread_trace(|t| {
            let parent = t
                .frames
                .iter()
                .rev()
                .find(|f| f.0 == log.id)
                .map(|f| (f.1, f.2));
            let vm = t
                .vms
                .iter()
                .rev()
                .find(|v| v.0 == log.id)
                .map_or(0, |v| v.1);
            let track = match t.tracks.iter().find(|tr| tr.0 == log.id) {
                Some(tr) => tr.1,
                None => {
                    let tr = log.next_track.fetch_add(1, Ordering::Relaxed);
                    t.tracks.push((log.id, tr));
                    tr
                }
            };
            let depth = parent.map_or(0, |(_, d)| d + 1);
            t.frames.push((log.id, id, depth));
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
                    wall_start: log.origin.elapsed(),
                    wall_end: Duration::ZERO,
                },
            }),
        }
    }

    fn close_span(&self, mut span: Span, sim_end: SimInstant) {
        let log = self.log();
        span.sim_end = sim_end.max(span.sim_start);
        span.wall_end = log.origin.elapsed();
        with_thread_trace(|t| {
            // Pop this span's frame. Guards are values, so drops normally
            // run in LIFO order and this is the top frame; a search keeps
            // the stack consistent even if a guard outlives its scope.
            if let Some(pos) = t
                .frames
                .iter()
                .rposition(|f| f.0 == log.id && f.1 == span.id)
            {
                t.frames.remove(pos);
            }
        });
        log.spans.lock().push(span);
    }

    /// A snapshot of all completed spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.lock().clone()
    }

    /// Drops all recorded spans (between experiment phases).
    pub fn clear(&self) {
        self.log().spans.lock().clear();
    }

    /// Renders all spans as Chrome trace-event JSON (the `traceEvents`
    /// object format), loadable in `chrome://tracing` or Perfetto.
    ///
    /// Events are complete-phase (`"ph":"X"`); `pid` is the vm id, `tid`
    /// the track, `ts`/`dur` are simulated microseconds, and each event's
    /// `args` carries its nesting depth. Every figure is simulated, so the
    /// same wave on a fresh host renders the same bytes.
    pub fn chrome_trace_json(&self) -> String {
        let mut spans = self.spans();
        // By vm, then track, then start.
        spans.sort_by_key(|s| (s.vm, s.track, s.sim_start, s.id));
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
    /// The id of the tracer's log, if it was enabled.
    log: Option<u64>,
}

impl Drop for VmScope {
    fn drop(&mut self) {
        if let Some(id) = self.log {
            with_thread_trace(|t| {
                if let Some(pos) = t.vms.iter().rposition(|v| v.0 == id) {
                    t.vms.remove(pos);
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
    pub fn finish(self) {}

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
            let end = o.tracer.clock.now();
            o.tracer.close_span(o.span, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DurationExt;

    fn tracer() -> Tracer {
        let t = Clock::new_virtual(1.0).tracer().clone();
        t.enable();
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Clock::new_virtual(1.0).tracer().clone();
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
        assert!(outer.wall_start <= inner.wall_start && inner.wall_end <= outer.wall_end);
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
    fn a_plain_thread_records_nested_spans_on_its_own_track() {
        let clock = Clock::new_virtual(1.0);
        let t = clock.tracer();
        t.enable();
        let driver = t.span("driver");
        let c = clock.clone();
        // A thread in no executor: its spans still record into the clock
        // they are opened on.
        std::thread::spawn(move || {
            let t = c.tracer();
            let outer = t.span("outer");
            c.tracer().span("inner").finish();
            outer.finish();
        })
        .join()
        .expect("plain thread");
        driver.finish();
        let spans = t.spans();
        let span = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let (driver, outer, inner) = (span("driver"), span("outer"), span("inner"));
        assert_eq!((outer.parent, outer.depth), (None, 0));
        assert_eq!((inner.parent, inner.depth), (Some(outer.id), 1));
        assert_eq!(inner.track, outer.track);
        assert_ne!(outer.track, driver.track);
        assert!(clock.is_virtual());
    }

    #[test]
    fn two_clocks_driven_one_after_another_share_no_track_or_parent() {
        let first = Clock::new_virtual(1.0);
        let a = first.tracer();
        a.enable();
        // A task takes the first clock's track 1 and the driver track 2;
        // the driver leaves a span open while it moves to the next clock.
        let t = a.clone();
        crate::spawn(&first, "task", move || t.span("task").finish())
            .join()
            .expect("task");
        let open = a.span("open");
        let second = Clock::new_virtual(1.0);
        let b = second.tracer();
        b.enable();
        b.span("b").finish();
        drop(open);
        let (open, b) = (&a.spans()[1], &b.spans()[0]);
        assert_eq!((open.name.as_str(), open.track), ("open", 2));
        assert_eq!((b.track, b.parent, b.depth), (1, None, 0));
        // A clock built after the first one is gone, perhaps at its
        // address, starts from nothing on this thread too.
        drop(first);
        let third = Clock::new_virtual(1.0);
        let c = third.tracer();
        c.enable();
        c.span("c").finish();
        let c = &c.spans()[0];
        assert_eq!((c.track, c.parent, c.depth), (1, None, 0));
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
