//! Two short runs with the same seed must repeat the structural counters
//! exactly, so a later change may claim a difference in one of them as a
//! count. Timings are not compared: the simulation clock is wall-clock
//! backed.

use fastiov_startbench::workload::{run_host, Kind, Spec};

const STRUCTURAL: &[&str] = &[
    "vfio.opens",
    "nic.admin_cmds",
    "fastiovd.registered",
    "fastiovd.instantly_zeroed",
    "hostmem.allocations",
    "pool.hits",
    "pool.misses",
];

/// The structural counters of every wave of one short host.
fn counts(kind: Kind, seed: u64) -> Vec<Vec<Option<f64>>> {
    let host = run_host(&Spec::short(kind), seed, false).expect("host runs");
    host.waves
        .iter()
        .map(|wave| {
            assert!(
                wave.violations.is_empty(),
                "{}: {:?}",
                kind.name(),
                wave.violations
            );
            assert_eq!(wave.failed, 0, "{}", kind.name());
            STRUCTURAL
                .iter()
                .map(|&n| wave.layer.get(n).copied())
                .collect()
        })
        .collect()
}

#[test]
fn same_seed_runs_repeat_structural_counters() {
    for kind in Kind::ALL {
        let first = counts(kind, 7);
        assert_eq!(first, counts(kind, 7), "{}", kind.name());
        let opens = first[0][0].expect("vfio.opens is always read");
        assert!(opens > 0.0, "{}: the short run opens VFs", kind.name());
    }
}

#[test]
fn short_pool_run_hits_and_misses() {
    for wave in counts(Kind::ChurnPool, 3) {
        assert_eq!(wave[5..], [Some(4.0), Some(4.0)]);
    }
}
