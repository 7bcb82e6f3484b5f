//! Two same-config launch waves on fresh hosts must render byte-identical
//! Chrome traces: every span's name, VM, track, depth and simulated
//! timestamps. The trace carries no wall-clock figure, so on a virtual
//! clock any difference is a scheduling or attribution change.

use fastiov::{Baseline, ExperimentConfig};

/// One traced launch wave; returns its Chrome trace JSON.
fn traced_wave(cfg: &ExperimentConfig) -> String {
    let (host, engine) = cfg.build().expect("build");
    host.tracer.enable();
    let outcome = engine.launch_concurrent(cfg.concurrency);
    assert!(outcome.summary.is_clean(), "{}", outcome.summary);
    for pod in outcome.pods.iter().flatten() {
        let _ = engine.teardown_pod(pod);
    }
    host.tracer.chrome_trace_json()
}

#[test]
fn same_config_traces_are_byte_identical() {
    let cfg = ExperimentConfig::smoke(Baseline::FastIov, 4);
    let a = traced_wave(&cfg);
    let b = traced_wave(&cfg);
    assert!(a == b, "same-config traces diverged");
    // Sanity: all four launches are present and rooted at `launch`.
    assert!(a.contains("\"name\":\"vm-1000\""), "{a}");
    assert!(a.contains("\"name\":\"vm-1003\""), "{a}");
    assert!(a.contains("\"name\":\"launch\""), "{a}");
}
