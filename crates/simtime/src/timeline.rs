//! Per-container stage timelines.
//!
//! The paper's measurement methodology (§3.1) instruments every component
//! with an asynchronous logging tool and reconstructs a per-container
//! timeline of named stages (Fig. 5). [`StageLog`] is the equivalent here:
//! each container thread owns one and records `(stage, start, end)`
//! triples in simulated time.

use crate::{SimInstant, Tracer};
use std::time::Duration;

/// One recorded stage interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name, e.g. `"4-vfio-dev"`.
    pub name: String,
    /// Simulated start time.
    pub start: SimInstant,
    /// Simulated end time.
    pub end: SimInstant,
}

impl StageRecord {
    /// Duration of the stage.
    pub fn duration(&self) -> Duration {
        self.end.duration_since(self.start)
    }
}

/// An append-only log of stage intervals for a single container startup.
///
/// Every stage is also opened as a span on the log's [`Tracer`]; while the
/// tracer is disabled that costs one atomic load per stage.
#[derive(Debug, Clone)]
pub struct StageLog {
    tracer: Tracer,
    records: Vec<StageRecord>,
    started: SimInstant,
}

impl StageLog {
    /// Creates a log whose container start time is "now" on the tracer's
    /// clock.
    pub fn begin(tracer: &Tracer) -> Self {
        StageLog {
            tracer: tracer.clone(),
            records: Vec::new(),
            started: tracer.clock().now(),
        }
    }

    /// Simulated time at which this container's startup began.
    pub fn started(&self) -> SimInstant {
        self.started
    }

    /// Times `f` and records it under `name`, with a span of the identical
    /// interval: the span and the [`StageRecord`] share the *same* clock
    /// readings, so the trace reconciles exactly with the stage-mean
    /// aggregates. Spans opened inside `f` on the same thread nest under
    /// it.
    pub fn stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let clock = self.tracer.clock();
        let start = clock.now();
        let guard = self.tracer.span_at(name, start);
        let r = f();
        let end = clock.now();
        guard.finish_at(end);
        self.records.push(StageRecord {
            name: name.to_string(),
            start,
            end,
        });
        r
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Simulated duration from startup begin until now.
    pub fn elapsed(&self) -> Duration {
        self.tracer.clock().now().duration_since(self.started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clock;

    #[test]
    fn stage_records_interval_and_result() {
        let clock = Clock::new_virtual(1.0);
        clock.sleep(Duration::from_millis(3));
        let mut log = StageLog::begin(&Tracer::new(clock.clone()));
        let v = log.stage("0-cgroup", || {
            clock.sleep(Duration::from_millis(10));
            7
        });
        assert_eq!(v, 7);
        assert_eq!(log.records().len(), 1);
        let r = &log.records()[0];
        assert_eq!(r.name, "0-cgroup");
        assert_eq!(r.start.since_origin(), Duration::from_millis(3));
        assert_eq!(r.duration(), Duration::from_millis(10));
    }

    #[test]
    fn untraced_stages_record_without_spans() {
        let clock = Clock::new_virtual(1.0);
        let tracer = Tracer::new(clock.clone());
        let mut log = StageLog::begin(&tracer);
        for _ in 0..3 {
            log.stage("1-dma-ram", || clock.sleep(Duration::from_millis(5)));
        }
        assert_eq!(log.records().len(), 3);
        assert_eq!(log.elapsed(), Duration::from_millis(15));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn traced_stage_span_matches_record_exactly() {
        let clock = Clock::new_virtual(1.0);
        let tracer = Tracer::new(clock.clone());
        tracer.enable();
        let mut log = StageLog::begin(&tracer);
        log.stage("4-vfio-dev", || clock.sleep(Duration::from_millis(10)));
        let rec = &log.records()[0];
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "4-vfio-dev");
        // Shared clock readings: span and record agree to the nanosecond.
        assert_eq!(spans[0].sim_start, rec.start);
        assert_eq!(spans[0].sim_end, rec.end);
    }

    #[test]
    fn traced_stage_nests_inner_spans() {
        let clock = Clock::new_virtual(1.0);
        let tracer = Tracer::new(clock.clone());
        tracer.enable();
        let mut log = StageLog::begin(&tracer);
        log.stage("1-dma-ram", || tracer.span("iommu.map").finish());
        let spans = tracer.spans();
        let stage = spans.iter().find(|s| s.name == "1-dma-ram").unwrap();
        let inner = spans.iter().find(|s| s.name == "iommu.map").unwrap();
        assert_eq!(inner.parent, Some(stage.id));
        assert_eq!(inner.depth, stage.depth + 1);
    }
}
