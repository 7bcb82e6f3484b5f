//! §6.5: impact of FastIOV on in-guest memory access performance.
//!
//! A Tinymembench-style probe inside a single microVM: `memcpy` of
//! 2048-byte blocks (throughput) and random byte reads (latency), for the
//! vanilla and FastIOV zeroing disciplines. FastIOV intercepts only the
//! *first* EPT fault per page, so the steady-state numbers must be
//! statistically identical; the cold (first-touch) pass is where the
//! lazy-zeroing cost surfaces — off the startup path, as designed.

use crate::baseline::Baseline;
use crate::{Error, Result};
use fastiov_hostmem::Gpa;
use std::time::Duration;

/// Result of the memory-access probe for one baseline. Durations are
/// model-exact charges derived from observed event counts (faults, pages
/// zeroed) — deterministic, free of host-side measurement noise.
#[derive(Debug, Clone, Copy)]
pub struct MemPerfResult {
    /// The baseline measured.
    pub baseline: Baseline,
    /// Modelled time of one steady-state sweep.
    pub steady_sweep: Duration,
    /// Modelled time of the random-read pass.
    pub random_reads: Duration,
    /// EPT faults taken.
    pub ept_faults: u64,
    /// Pages lazily zeroed during the probe.
    pub lazily_zeroed: u64,
}

/// Runs the probe for `baseline` over `sweep_bytes` of guest memory with
/// `iterations` steady-state sweeps and `reads` random accesses.
pub fn run_memperf(
    baseline: Baseline,
    cfg: &crate::ExperimentConfig,
    sweep_bytes: u64,
    iterations: u32,
    reads: u32,
) -> Result<MemPerfResult> {
    let cfg = crate::ExperimentConfig {
        baseline,
        concurrency: 1,
        ..cfg.clone()
    };
    let (host, engine) = cfg.build()?;
    let pod = engine.run_pod(0).map_err(Error::Startup)?;
    if baseline.uses_passthrough() {
        pod.vm.wait_net_ready().map_err(Error::Host)?;
    }
    let vm = pod.vm.vm();
    let base = pod.vm.layout().app_gpa;
    let block = 2048u64;
    let faults_before = vm.stats().ept_faults;
    let zeroed_before = host.fastiovd.stats().lazily_zeroed;
    let copy_bw = host.params.membw_stream_cap;

    // Cold sweep: writes the whole range once — this is where first
    // touches (EPT faults, and under decoupled zeroing the lazy page
    // zeroing) happen, so the steady sweeps below fault no more. The
    // model actually executes the accesses; the reported durations are
    // *model-exact* charges computed from the observed event counts, so
    // they carry no host-side measurement noise.
    let payload = vec![0xa5u8; block as usize];
    let mut off = 0;
    while off < sweep_bytes {
        vm.write_gpa(Gpa(base.raw() + off), &payload)
            .map_err(|e| Error::Host(e.into()))?;
        off += block;
    }
    let cold_faults = vm.stats().ept_faults - faults_before;
    let copy_time = Duration::from_secs_f64(sweep_bytes as f64 / copy_bw);

    // Steady-state sweeps: every page is mapped, so the charge is the
    // plain copy time, identical by construction across zeroing modes —
    // the accesses are re-executed to prove no further faults occur.
    for _ in 0..iterations {
        let mut off = 0;
        while off < sweep_bytes {
            vm.write_gpa(Gpa(base.raw() + off), &payload)
                .map_err(|e| Error::Host(e.into()))?;
            off += block;
        }
    }
    let steady_faults = vm.stats().ept_faults - faults_before - cold_faults;
    let steady_sweep =
        copy_time + host.params.ept_fault * (steady_faults / u64::from(iterations.max(1))) as u32;

    // Random reads over the touched range: one modelled DRAM access each,
    // plus any residual faults (there must be none).
    let dram_latency = Duration::from_nanos(90);
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut buf = [0u8; 1];
    let before = vm.stats().ept_faults;
    for _ in 0..reads {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let off = state % sweep_bytes;
        vm.read_gpa(Gpa(base.raw() + off), &mut buf)
            .map_err(|e| Error::Host(e.into()))?;
    }
    let read_faults = vm.stats().ept_faults - before;
    let random_reads = dram_latency * reads + host.params.ept_fault * read_faults as u32;

    let result = MemPerfResult {
        baseline,
        steady_sweep,
        random_reads,
        ept_faults: vm.stats().ept_faults - faults_before,
        lazily_zeroed: host.fastiovd.stats().lazily_zeroed - zeroed_before,
    };
    engine.teardown_pod(&pod).map_err(Error::Startup)?;
    Ok(result)
}

impl Baseline {
    /// True if the baseline uses SR-IOV passthrough.
    pub(crate) fn uses_passthrough(self) -> bool {
        !matches!(self, Baseline::NoNet | Baseline::Ipvtap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn steady_state_is_equal_across_zeroing_modes() {
        let cfg = ExperimentConfig::smoke(Baseline::Vanilla, 1);
        let sweep = 4 * 2 * 1024 * 1024; // 4 pages
        let van = run_memperf(Baseline::Vanilla, &cfg, sweep, 3, 200).unwrap();
        let fast = run_memperf(Baseline::FastIov, &cfg, sweep, 3, 200).unwrap();
        // FastIOV zeroes lazily during the cold sweep…
        assert!(fast.lazily_zeroed > 0);
        assert_eq!(van.lazily_zeroed, 0);
        // …and both modes take the same number of faults (one per page).
        assert_eq!(van.ept_faults, fast.ept_faults);
    }
}
