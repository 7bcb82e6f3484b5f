//! Repo-level tracer invariants (ISSUE 4 tentpole).
//!
//! The unit tests in `fastiov-simtime` exercise the tracer in isolation;
//! these drive a real launch wave through the whole stack and check the
//! properties the trace is trusted for: spans nest, children fit inside
//! their parents, and the timeline reconciles *exactly* with the stage
//! log the `LaunchSummary` is built from — traced stages share their
//! clock readings with their `StageRecord`, so any divergence means
//! spans are being dropped or misattributed.

use fastiov_repro::engine::LaunchOutcome;
use fastiov_repro::simtime::Span;
use fastiov_repro::{Baseline, ExperimentConfig};
use std::collections::HashMap;
use std::time::Duration;

/// One traced FastIOV wave; spans are captured after teardown, which
/// joins the asynchronous VF-init threads — before that, their still-open
/// root spans would be missing from the snapshot. Teardown itself runs
/// without a VM scope, so its spans land on vm 0 and never disturb the
/// per-VM reconciliation below.
fn traced_wave(conc: u32) -> (Vec<Span>, LaunchOutcome) {
    let cfg = ExperimentConfig::smoke(Baseline::FastIov, conc);
    let (host, engine) = cfg.build().expect("build");
    host.tracer.enable();
    let outcome = engine.launch_concurrent(conc);
    assert!(outcome.summary.is_clean(), "{}", outcome.summary);
    for pod in outcome.pods.iter().flatten() {
        let _ = engine.teardown_pod(pod);
    }
    (host.tracer.spans(), outcome)
}

#[test]
fn tracer_is_off_by_default_and_records_nothing() {
    let cfg = ExperimentConfig::smoke(Baseline::FastIov, 2);
    let (host, engine) = cfg.build().expect("build");
    let outcome = engine.launch_concurrent(2);
    assert!(outcome.summary.is_clean(), "{}", outcome.summary);
    for pod in outcome.pods.iter().flatten() {
        let _ = engine.teardown_pod(pod);
    }
    assert!(host.tracer.spans().is_empty());
}

#[test]
fn spans_nest_within_parents_and_children_fit() {
    let (spans, _) = traced_wave(4);
    assert!(!spans.is_empty());
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_sim: HashMap<u32, Duration> = HashMap::new();
    for s in &spans {
        assert!(s.sim_end >= s.sim_start, "{s:?}");
        let Some(pid) = s.parent else { continue };
        let p = by_id
            .get(&pid)
            .unwrap_or_else(|| panic!("{s:?}: parent not recorded"));
        // Nesting is per-thread: a child runs on its parent's track, one
        // level deeper, attributed to the same VM, strictly inside the
        // parent's interval.
        assert_eq!(s.track, p.track, "child {s:?} crossed threads from {p:?}");
        assert_eq!(s.depth, p.depth + 1, "child {s:?} under {p:?}");
        assert_eq!(s.vm, p.vm, "child {s:?} changed VM from {p:?}");
        assert!(
            s.sim_start >= p.sim_start && s.sim_end <= p.sim_end,
            "child {s:?} outside parent {p:?}"
        );
        *child_sim.entry(pid).or_default() += s.sim_duration();
    }
    // Direct children are sequential within their parent, so their sim
    // time can never sum past the parent's.
    for (pid, sum) in child_sim {
        let p = by_id[&pid];
        assert!(
            sum <= p.sim_duration(),
            "children of {} sum to {sum:?} > parent {:?}",
            p.name,
            p.sim_duration()
        );
    }
}

#[test]
fn trace_reconciles_exactly_with_stage_log_and_summary() {
    let (spans, outcome) = traced_wave(4);
    // Per-(VM, name) sim totals from the trace.
    let mut totals: HashMap<(u64, &str), Duration> = HashMap::new();
    for s in &spans {
        *totals.entry((s.vm, s.name.as_str())).or_default() += s.sim_duration();
    }
    // Exact per-pod equality with the stage log: traced stages share
    // their clock readings with their StageRecord, nanosecond for
    // nanosecond.
    for (i, pod) in outcome.pods.iter().enumerate() {
        let report = &pod.as_ref().expect("clean wave").report;
        let vm = 1000 + i as u64;
        let mut names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            assert_eq!(
                totals.get(&(vm, name)).copied().unwrap_or_default(),
                report.stage_total(name),
                "vm {vm} stage {name}: trace and stage log disagree"
            );
        }
    }
    // And therefore with the summary's per-stage means — the acceptance
    // bound is 1%, but equality above makes this exact up to float
    // rounding.
    assert!(!outcome.summary.stage_percentiles.is_empty());
    for (stage, s) in &outcome.summary.stage_percentiles {
        let vm_totals: Vec<Duration> = outcome
            .pods
            .iter()
            .enumerate()
            .filter_map(|(i, _)| totals.get(&(1000 + i as u64, stage.as_str())).copied())
            .collect();
        if vm_totals.is_empty() {
            continue;
        }
        let trace_mean =
            vm_totals.iter().map(Duration::as_secs_f64).sum::<f64>() / vm_totals.len() as f64;
        let sim_mean = s.mean.as_secs_f64();
        let rel = if sim_mean > 0.0 {
            (trace_mean - sim_mean).abs() / sim_mean
        } else {
            trace_mean
        };
        assert!(
            rel <= 0.01,
            "stage {stage}: trace mean {trace_mean} vs summary mean {sim_mean}"
        );
    }
}

#[test]
fn chrome_trace_shape_is_loadable() {
    let chrome_json = || {
        let cfg = ExperimentConfig::smoke(Baseline::FastIov, 2);
        let (host, engine) = cfg.build().expect("build");
        host.tracer.enable();
        let outcome = engine.launch_concurrent(2);
        assert!(outcome.summary.is_clean(), "{}", outcome.summary);
        for pod in outcome.pods.iter().flatten() {
            let _ = engine.teardown_pod(pod);
        }
        host.tracer.chrome_trace_json()
    };
    let json = chrome_json();
    // The shape chrome://tracing and Perfetto accept: a traceEvents
    // array of complete ("X") events plus process_name metadata, pids
    // carrying the engine's VM numbering.
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains("\"ph\":\"M\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"name\":\"process_name\""), "{json}");
    assert!(json.contains("\"pid\":1000"), "{json}");
    assert!(json.contains("\"pid\":1001"), "{json}");
    assert!(!json.contains(",]") && !json.contains(",}"), "{json}");
    // Only simulated figures: the same wave on a fresh host renders the
    // same bytes.
    assert_eq!(json, chrome_json());
}

#[test]
fn two_fresh_hosts_run_the_same_wave_to_identical_spans() {
    // The host clock is virtual: the executor, not the OS scheduler,
    // decides every interleaving, so a wave repeats exactly.
    let timeline = |spans: Vec<Span>| -> Vec<_> {
        spans
            .into_iter()
            .map(|s| (s.name, s.vm, s.depth, s.sim_start, s.sim_end))
            .collect()
    };
    let (first, _) = traced_wave(8);
    let (second, _) = traced_wave(8);
    assert!(first.len() > 8 * 9, "{} spans", first.len());
    assert_eq!(timeline(first), timeline(second));
}
