//! Lock-discipline witness driven through the whole stack.
//!
//! The unit tests in `fastiov-simtime` exercise the witness mechanics in
//! isolation; these check the contracts the repo relies on. Negative:
//! a deliberately inverted acquisition (child before parent) must produce
//! a report naming *both* acquisition sites, because a report without the
//! partner site is not actionable. Positive:
//! a full 200-way launch wave under both lock policies — `Coarse` via the
//! vanilla baseline, `Hierarchical` via FastIOV — must produce none.
//! Isolation: each clock owns its witness and lock counters, so hosts on
//! different threads see only their own.
//!
//! Each test starts its own clock (directly or by building a host), so
//! the witness it reads is its own.

use fastiov_repro::hostmem::addr::units::gib;
use fastiov_repro::simtime::lockdep::{self, LockClass, LockdepReport, ReportKind};
use fastiov_repro::simtime::{Clock, TrackedMutex, TrackedRwLock};
use fastiov_repro::{Baseline, ExperimentConfig};

/// Takes a per-device child lock and then the devset parent: the
/// inversion `ParentChildLock` exists to make impossible (§4.2.1). Two
/// separate instances cannot actually deadlock, so this is safe to run.
fn invert_child_and_parent() {
    let child = TrackedMutex::new(LockClass::DevsetChild, ());
    let parent = TrackedRwLock::new(LockClass::DevsetParent, ());
    let held_child = child.lock();
    let inverted = parent.write();
    drop(inverted);
    drop(held_child);
}

#[test]
fn child_before_parent_reports_both_sites() {
    let _clock = Clock::new_virtual(1.0);
    invert_child_and_parent();

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

#[test]
fn an_inversion_on_one_clock_leaves_another_clocks_reports_empty() {
    let _clock = Clock::new_virtual(1.0);
    let other = std::thread::spawn(|| {
        let _clock = Clock::new_virtual(1.0);
        invert_child_and_parent();
        lockdep::reports().len()
    });
    assert_eq!(other.join().expect("inverting thread"), 1);
    let reports = lockdep::reports();
    assert!(reports.is_empty(), "{reports:?}");
}

/// Every class's (acquisitions, contended) and the witness reports of
/// one 200-way wave on a fresh host, read on the host's driver thread.
type LockTable = (Vec<(u64, u64)>, Vec<String>);

/// One full launch wave at the paper's headline concurrency with the
/// witness recording every acquisition. The test host gets enough VFs and
/// memory for 200 smoke-sized guests; the lock behavior under scrutiny is
/// identical to the paper configuration.
fn witnessed_wave(baseline: Baseline) -> LockTable {
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
    let counts = LockClass::ALL
        .iter()
        .map(|c| c.stats())
        .map(|s| (s.acquisitions, s.contended))
        .collect();
    let reports = lockdep::reports();
    (
        counts,
        reports.iter().map(LockdepReport::to_string).collect(),
    )
}

fn assert_report_free(baseline: Baseline) {
    let (_, reports) = witnessed_wave(baseline);
    assert!(
        reports.is_empty(),
        "{} wave produced lock-discipline reports:\n{}",
        baseline.label(),
        reports.join("\n")
    );
}

#[test]
fn coarse_200_way_wave_is_report_free() {
    assert_report_free(Baseline::Vanilla);
}

#[test]
fn hierarchical_200_way_wave_is_report_free() {
    assert_report_free(Baseline::FastIov);
}

#[test]
fn two_hosts_at_once_each_count_what_they_count_alone() {
    let on_a_thread = |b| std::thread::spawn(move || witnessed_wave(b));
    let alone = [Baseline::Vanilla, Baseline::FastIov].map(|b| on_a_thread(b).join().unwrap());
    let together = [Baseline::Vanilla, Baseline::FastIov]
        .map(on_a_thread)
        .map(|t| t.join().unwrap());
    assert_ne!(alone[0].0, alone[1].0, "the two lock policies count alike");
    assert_eq!(together, alone);
}
