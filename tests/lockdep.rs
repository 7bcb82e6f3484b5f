//! Lock-discipline witness driven through the whole stack (ISSUE 5).
//!
//! The unit tests in `fastiov-simtime` exercise the witness mechanics in
//! isolation; these check the two contracts the repo relies on. Negative:
//! a deliberately inverted acquisition (child before parent) must produce
//! a report naming *both* acquisition sites, because a report without the
//! partner site is not actionable. Positive:
//! a full 200-way launch wave under both lock policies — `Coarse` via the
//! vanilla baseline, `Hierarchical` via FastIOV — must produce none.

use fastiov_repro::hostmem::addr::units::gib;
use fastiov_repro::simtime::lockdep::{self, LockClass, ReportKind};
use fastiov_repro::simtime::{TrackedMutex, TrackedRwLock};
use fastiov_repro::{Baseline, ExperimentConfig};
use std::sync::Mutex;

/// The witness keeps one process-global graph and report list, so the
/// tests in this binary serialize on this gate and wipe the state before
/// driving it. Held stacks are per-thread and drain as guards drop.
static GATE: Mutex<()> = Mutex::new(());

fn fresh() -> std::sync::MutexGuard<'static, ()> {
    let g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    lockdep::enable();
    lockdep::reset();
    g
}

#[test]
fn child_before_parent_reports_both_sites() {
    let _g = fresh();
    // Standalone locks carrying the real devset classes: acquiring the
    // level-1 child first and then the level-0 parent is the inversion
    // `ParentChildLock` exists to make impossible (§4.2.1). Two separate
    // instances cannot actually deadlock, so the test is safe to run.
    let child = TrackedMutex::new(LockClass::DevsetChild, ());
    let parent = TrackedRwLock::new(LockClass::DevsetParent, ());
    let held_child = child.lock();
    let inverted = parent.write();
    drop(inverted);
    drop(held_child);

    let reports = lockdep::reports();
    let r = reports
        .iter()
        .find(|r| r.kind == ReportKind::HierarchyViolation)
        .unwrap_or_else(|| panic!("no hierarchy violation among {reports:?}"));
    assert_eq!(r.held_class, LockClass::DevsetChild);
    assert_eq!(r.acquired_class, LockClass::DevsetParent);
    // Both witness sites must point back into this file, at different
    // lines — the held lock's acquisition and the offending one.
    assert!(r.held_site.contains("tests/lockdep.rs"), "{}", r.held_site);
    assert!(
        r.acquire_site.contains("tests/lockdep.rs"),
        "{}",
        r.acquire_site
    );
    assert_ne!(r.held_site, r.acquire_site, "{r}");
    assert!(r.detail.contains("child-before-parent"), "{}", r.detail);
}

/// One full launch wave at the paper's headline concurrency with the
/// witness recording every acquisition. The test host gets enough VFs and
/// memory for 200 smoke-sized guests; the lock behavior under scrutiny is
/// identical to the paper configuration.
fn witnessed_wave(baseline: Baseline) {
    let conc = 200;
    let mut cfg = ExperimentConfig::smoke(baseline, conc);
    cfg.host.total_vfs = conc as u16;
    cfg.host.total_memory = gib(32);
    let (_host, engine) = cfg.build().expect("build");
    let outcome = engine.launch_concurrent(conc);
    assert!(outcome.summary.is_clean(), "{}", outcome.summary);
    for pod in outcome.pods.iter().flatten() {
        let _ = engine.teardown_pod(pod);
    }
    if let Some(pool) = engine.pool() {
        pool.wait_idle();
    }
    let reports = lockdep::reports();
    assert!(
        reports.is_empty(),
        "{} wave produced lock-discipline reports:\n{}",
        baseline.label(),
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn coarse_200_way_wave_is_report_free() {
    let _g = fresh();
    witnessed_wave(Baseline::Vanilla);
}

#[test]
fn hierarchical_200_way_wave_is_report_free() {
    let _g = fresh();
    witnessed_wave(Baseline::FastIov);
}
