//! End-to-end experiment invariants across baselines.
//!
//! These run the full stack (engine → CNI → hypervisor → VFIO → KVM →
//! fastiovd → NIC) at a small scale and assert the *orderings* the paper
//! establishes, which must hold at any scale.
//!
//! Every host runs on a virtual clock, so each measured duration is the
//! modelled cost exactly, with no scheduler noise: a timing comparison
//! runs once per side.

use fastiov_repro::apps::AppKind;
use fastiov_repro::microvm::stages;
use fastiov_repro::{
    run_app_experiment, run_startup_experiment, Baseline, ExperimentConfig, StartupRunResult,
};
use std::time::Duration;

fn smoke(baseline: Baseline, conc: u32) -> StartupRunResult {
    run_startup_experiment(&ExperimentConfig::smoke(baseline, conc)).expect("startup run")
}

#[test]
fn fastiov_beats_vanilla_on_vf_related_time() {
    let v_vf = smoke(Baseline::Vanilla, 8).vf_related.mean;
    let f_vf = smoke(Baseline::FastIov, 8).vf_related.mean;
    assert!(
        f_vf < v_vf,
        "FastIOV vf-related {f_vf:?} must beat vanilla {v_vf:?}"
    );
}

#[test]
fn no_net_has_zero_vf_time_and_fastiov_approaches_it() {
    let nonet = smoke(Baseline::NoNet, 6);
    let fast = smoke(Baseline::FastIov, 6);
    let vanilla = smoke(Baseline::Vanilla, 6);
    // Structural: no-net has no VF-related stages at all.
    assert_eq!(nonet.vf_related.mean, Duration::ZERO);
    // FastIOV's distance to no-net must be smaller than vanilla's, and
    // its VF-related time a small fraction of vanilla's.
    let fast_gap = fast.total.mean.saturating_sub(nonet.total.mean);
    let vanilla_gap = vanilla.total.mean.saturating_sub(nonet.total.mean);
    assert!(
        fast_gap < vanilla_gap,
        "fast gap {fast_gap:?} vs vanilla gap {vanilla_gap:?}"
    );
    let (f_vf, v_vf) = (fast.vf_related.mean, vanilla.vf_related.mean);
    assert!(f_vf * 2 < v_vf, "fast vf {f_vf:?} vs vanilla vf {v_vf:?}");
}

#[test]
fn every_ablation_variant_lands_between_vanilla_and_fastiov() {
    let vanilla = smoke(Baseline::Vanilla, 8).total.mean;
    let fast = smoke(Baseline::FastIov, 8).total.mean;
    for variant in [
        Baseline::FastIovMinusL,
        Baseline::FastIovMinusA,
        Baseline::FastIovMinusS,
        Baseline::FastIovMinusD,
    ] {
        let run = smoke(variant, 8).total.mean;
        // Each variant is missing one optimization: no better than full
        // FastIOV, no worse than 1.2x vanilla.
        assert!(
            run >= fast,
            "{variant} unexpectedly faster than FastIOV ({run:?} vs {fast:?})"
        );
        assert!(
            run.as_secs_f64() <= vanilla.as_secs_f64() * 1.2,
            "{variant} slower than vanilla ({run:?} vs {vanilla:?})"
        );
    }
}

#[test]
fn prezero_improves_vanilla_dma_stage() {
    let dma = |b: Baseline| smoke(b, 8).stage_means[stages::DMA_RAM];
    let v_dma = dma(Baseline::Vanilla);
    let p_dma = dma(Baseline::Prezero(100));
    assert!(
        p_dma <= v_dma,
        "pre-zeroing must not make DMA mapping slower: {p_dma:?} vs {v_dma:?}"
    );
}

#[test]
fn fastiov_skips_image_stage_and_vanilla_does_not() {
    let vanilla = smoke(Baseline::Vanilla, 4);
    let fast = smoke(Baseline::FastIov, 4);
    assert!(vanilla.stage_means[stages::DMA_IMAGE] > Duration::ZERO);
    assert_eq!(fast.stage_means[stages::DMA_IMAGE], Duration::ZERO);
    // Async init: no synchronous driver stage for FastIOV.
    assert!(vanilla.stage_means[stages::VF_DRIVER] > Duration::ZERO);
    assert_eq!(fast.stage_means[stages::VF_DRIVER], Duration::ZERO);
}

#[test]
fn ipvtap_records_addcni_and_no_vf_stages() {
    let run = smoke(Baseline::Ipvtap, 6);
    assert!(run.stage_means[stages::ADD_CNI] > Duration::ZERO);
    assert_eq!(run.vf_related.mean, Duration::ZERO);
}

#[test]
fn serverless_tasks_complete_and_fastiov_wins() {
    let run = |b: Baseline| {
        let run =
            run_app_experiment(&ExperimentConfig::smoke(b, 4), AppKind::Image).expect("tasks");
        assert_eq!(run.tasks.len(), 4);
        for t in &run.tasks {
            assert!(t.completion >= t.startup);
            assert_eq!(t.downloaded, 2 * 1024 * 1024);
        }
        let startup: Duration = run.tasks.iter().map(|t| t.startup).sum();
        (startup, run.completion.mean)
    };
    let (van_startup, van_completion) = run(Baseline::Vanilla);
    let (fast_startup, fast_completion) = run(Baseline::FastIov);
    assert!(
        fast_startup < van_startup,
        "fastiov startup {fast_startup:?} vs vanilla {van_startup:?}"
    );
    assert!(
        fast_completion.as_secs_f64() <= van_completion.as_secs_f64() * 1.05,
        "fastiov completion {fast_completion:?} vs vanilla {van_completion:?}"
    );
}

#[test]
fn startup_reports_are_internally_consistent() {
    let run = smoke(Baseline::Vanilla, 6);
    for r in &run.reports {
        assert_eq!(r.vf_related() + r.others(), r.total);
        for rec in &r.records {
            assert!(rec.end >= rec.start);
            assert!(rec.start >= r.started);
        }
    }
    assert!(run.total.p99 >= run.total.p50);
    assert!(run.total.max >= run.total.p99);
    assert!(run.total.min <= run.total.p50);
}

/// The fallback pacing ratio is the only use of `time_scale`: a wave that
/// stays virtual records the same stages to the nanosecond at any value.
#[test]
fn startup_reports_do_not_depend_on_the_time_scale() {
    let reports = |baseline, scale| {
        let mut cfg = ExperimentConfig::smoke(baseline, 8);
        cfg.host.time_scale = scale;
        let run = run_startup_experiment(&cfg).expect("startup run");
        let each = run.reports.into_iter();
        each.map(|r| (r.index, r.started, r.total, r.records))
            .collect::<Vec<_>>()
    };
    for baseline in [Baseline::Vanilla, Baseline::FastIov] {
        let fine = reports(baseline, 2e-4);
        assert_eq!(fine.len(), 8);
        assert_eq!(fine, reports(baseline, 0.4), "{baseline:?}");
    }
}
