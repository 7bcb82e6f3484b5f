//! Per-layer numbers derived from a traced wave's spans.

use crate::catalog::{BENCH_SPANS, LAYER_SPANS, STAGES, VF_STAGES};
use crate::stats;
use fastiov::simtime::Span;
use std::collections::{BTreeMap, HashMap};

/// Pods are traced under VM ids from 1000 up; VM 0 is host background
/// work (pool provisioning and recycling).
const FIRST_POD_VM: u64 = 1000;

/// The stage run off the startup path, on the pool's replenisher: its
/// samples are single spans of VM 0 rather than per-pod totals.
const RECYCLE: &str = "w-recycle";

/// `span.<name>.count` and `span.<name>.self_s` for every known span name,
/// `stage.<name>.{p50_s,p95_s}` for every stage, and `vf_overhead_mean_s`.
///
/// A span's self time is its simulated duration minus the time its child
/// spans cover; children nest on their parent's thread, one after another,
/// so the covered time is the sum of their durations.
pub fn metrics(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut covered: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *covered.entry(parent).or_default() += s.sim_duration().as_secs_f64();
        }
    }

    let mut count: HashMap<&str, f64> = HashMap::new();
    let mut self_s: HashMap<&str, f64> = HashMap::new();
    // Per-pod stage totals (a pod may record a stage more than once).
    let mut per_pod: HashMap<(&str, u64), f64> = HashMap::new();
    let mut recycles: Vec<f64> = Vec::new();
    let mut pods: Vec<u64> = Vec::new();
    for s in spans {
        let dur = s.sim_duration().as_secs_f64();
        let own = (dur - covered.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *count.entry(s.name.as_str()).or_default() += 1.0;
        *self_s.entry(s.name.as_str()).or_default() += own;
        if s.name == RECYCLE {
            recycles.push(dur);
        } else if s.vm >= FIRST_POD_VM {
            if s.name == "launch" {
                pods.push(s.vm);
            } else if STAGES.contains(&s.name.as_str()) {
                *per_pod.entry((s.name.as_str(), s.vm)).or_default() += dur;
            }
        }
    }

    let mut out = BTreeMap::new();
    for &stage in STAGES {
        let sample: Vec<f64> = if stage == RECYCLE {
            recycles.clone()
        } else {
            per_pod
                .iter()
                .filter(|((name, _), _)| *name == stage)
                .map(|(_, &d)| d)
                .collect()
        };
        out.insert(format!("stage.{stage}.p50_s"), stats::p50(&sample));
        out.insert(format!("stage.{stage}.p95_s"), stats::p95(&sample));
    }
    let vf: Vec<f64> = pods
        .iter()
        .map(|&vm| {
            VF_STAGES
                .iter()
                .filter_map(|&st| per_pod.get(&(st, vm)))
                .sum()
        })
        .collect();
    out.insert("vf_overhead_mean_s".into(), stats::mean(&vf));
    for &name in STAGES.iter().chain(LAYER_SPANS).chain(BENCH_SPANS) {
        let n = count.get(name).copied().unwrap_or(0.0);
        if !BENCH_SPANS.contains(&name) {
            out.insert(format!("span.{name}.count"), n);
        }
        let own = self_s.get(name).copied().unwrap_or(0.0);
        out.insert(format!("span.{name}.self_s"), own);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov::simtime::SimInstant;
    use std::time::Duration;

    fn span(id: u32, parent: Option<u32>, vm: u64, name: &str, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name: name.into(),
            vm,
            track: 1,
            id,
            parent,
            depth: u32::from(parent.is_some()),
            sim_start: SimInstant::from_origin(Duration::from_millis(start_ms)),
            sim_end: SimInstant::from_origin(Duration::from_millis(end_ms)),
            wall_start: Duration::ZERO,
            wall_end: Duration::ZERO,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_stages_sum_per_pod() {
        let spans = vec![
            span(1, None, 1000, "launch", 0, 1000),
            span(2, Some(1), 1000, "4-vfio-dev", 100, 400),
            span(3, Some(2), 1000, "vfio.open", 150, 350),
            span(4, Some(1), 1000, "1-dma-ram", 400, 500),
            span(5, Some(1), 1000, "1-dma-ram", 500, 600),
            span(6, None, 0, "w-recycle", 0, 250),
        ];
        let m = metrics(&spans);
        let close = |k: &str, v: f64| {
            let got = m[k];
            assert!((got - v).abs() < 1e-9, "{k}: {got} != {v}");
        };
        close("span.launch.self_s", 0.5);
        close("span.4-vfio-dev.self_s", 0.1);
        close("span.vfio.open.self_s", 0.2);
        close("span.1-dma-ram.count", 2.0);
        close("stage.1-dma-ram.p50_s", 0.2);
        close("stage.w-recycle.p50_s", 0.25);
        close("vf_overhead_mean_s", 0.5);
        close("span.app.exec.count", 0.0);
    }
}
