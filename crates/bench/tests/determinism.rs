//! The tracer's canonical structural digest — which VMs ran which spans
//! at which depths, how many times — must be byte-identical across
//! same-config runs. (The Chrome trace JSON carries no wall-clock figure
//! either, so on a virtual clock it repeats byte for byte too; that is
//! checked in `tests/trace.rs`.)

use fastiov::{Baseline, ExperimentConfig};

/// One traced launch wave; returns the structural trace digest.
fn canonical_trace(cfg: &ExperimentConfig) -> String {
    let (host, engine) = cfg.build().expect("build");
    host.tracer.enable();
    let outcome = engine.launch_concurrent(cfg.concurrency);
    assert!(outcome.summary.is_clean(), "{}", outcome.summary);
    for pod in outcome.pods.iter().flatten() {
        let _ = engine.teardown_pod(pod);
    }
    host.tracer.canonical_json()
}

#[test]
fn same_config_traces_have_identical_structure() {
    // No pool (warm-claim assignment is scheduling-dependent) and no
    // faults, so the per-VM span structure is fully determined by the
    // config. Teardown spans run without a VM scope and land on vm 0,
    // which the digest excludes.
    let cfg = ExperimentConfig::smoke(Baseline::FastIov, 4);
    let a = canonical_trace(&cfg);
    let b = canonical_trace(&cfg);
    assert_eq!(a, b, "same-config trace structure diverged");
    // Sanity: all four launches are present and rooted at `launch`.
    assert!(a.contains("\"vm\":1000"), "{a}");
    assert!(a.contains("\"vm\":1003"), "{a}");
    assert!(a.contains("\"name\":\"launch\""), "{a}");
}
