//! The experiment baselines of §6.1 and how each is assembled.

use fastiov_cni::{CniParams, CniPlugin, FastIovCni, IpvtapCni, SriovCniFixed, VfPool};
use fastiov_engine::{PodNetworking, VmOptions};
use fastiov_microvm::{Host, ZeroingMode};
use fastiov_vfio::LockPolicy;
use std::fmt;
use std::sync::Arc;

/// One experiment baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Startup without any network: the lower bound.
    NoNet,
    /// The fixed SR-IOV CNI — the paper's vanilla baseline.
    Vanilla,
    /// Full FastIOV: all four optimizations.
    FastIov,
    /// FastIOV without Lock decomposition.
    FastIovMinusL,
    /// FastIOV without Asynchronous VF driver init.
    FastIovMinusA,
    /// FastIOV without mapping Skipping.
    FastIovMinusS,
    /// FastIOV without Decoupled zeroing.
    FastIovMinusD,
    /// Vanilla over a memory pool pre-zeroed to the given percentage
    /// (HawkEye-style; Pre10/Pre50/Pre100 in §6.1).
    Prezero(u8),
    /// The IPvtap software CNI (§6.4).
    Ipvtap,
    /// Extension (§7 discussion): FastIOV with a vDPA-mediated VF — the
    /// guest uses the standard virtio driver, removing the vendor VF
    /// driver initialization entirely. Not a paper baseline; included to
    /// quantify the direction the paper sketches as future work.
    FastIovVdpa,
    /// Extension: full FastIOV plus a warm microVM pool of the given
    /// capacity. Pods claim pre-launched, VF-attached microVMs and pay
    /// only per-pod identity work; misses fall back to the cold FastIOV
    /// path. Not a paper baseline; quantifies how much startup latency
    /// remains once even the boot is moved off the critical path.
    WarmPool(u16),
}

impl Baseline {
    /// VFIO devset lock policy for this baseline.
    pub fn lock_policy(self) -> LockPolicy {
        match self {
            Baseline::FastIov
            | Baseline::FastIovMinusA
            | Baseline::FastIovMinusS
            | Baseline::FastIovMinusD
            | Baseline::FastIovVdpa
            | Baseline::WarmPool(_) => LockPolicy::Hierarchical,
            _ => LockPolicy::Coarse,
        }
    }

    /// Fraction of free memory pre-zeroed before the run.
    pub fn prezero_fraction(self) -> f64 {
        match self {
            Baseline::Prezero(pct) => f64::from(pct) / 100.0,
            _ => 0.0,
        }
    }

    /// MicroVM options for this baseline.
    pub fn vm_options(self, ram_bytes: u64, image_bytes: u64) -> VmOptions {
        let mut opts = VmOptions::vanilla(ram_bytes, image_bytes);
        match self {
            Baseline::FastIov | Baseline::WarmPool(_) => {
                opts = VmOptions::fastiov(ram_bytes, image_bytes);
            }
            Baseline::FastIovMinusL => {
                // All but the lock decomposition (the lock lives in the
                // host policy, not here).
                opts = VmOptions::fastiov(ram_bytes, image_bytes);
            }
            Baseline::FastIovMinusA => {
                opts = VmOptions::fastiov(ram_bytes, image_bytes);
                opts.async_vf_init = false;
            }
            Baseline::FastIovMinusS => {
                opts = VmOptions::fastiov(ram_bytes, image_bytes);
                opts.skip_image_mapping = false;
            }
            Baseline::FastIovMinusD => {
                opts = VmOptions::fastiov(ram_bytes, image_bytes);
                opts.zeroing = ZeroingMode::Eager;
            }
            Baseline::FastIovVdpa => {
                opts = VmOptions::fastiov(ram_bytes, image_bytes);
                // The virtio probe is cheap and synchronous; asynchronous
                // init has nothing left to mask.
                opts.async_vf_init = false;
            }
            _ => {}
        }
        opts
    }

    /// Builds the pod networking (CNI plugin) for this baseline on `host`,
    /// pre-binding VFs where the fixed flow requires it, and returns the
    /// VF pool the plugin draws from (when there is one), so the warm pool
    /// can share it and allocations stay globally consistent.
    pub fn networking(
        self,
        host: &Arc<Host>,
    ) -> fastiov_microvm::Result<(PodNetworking, Option<Arc<VfPool>>)> {
        let vf_pool = || VfPool::new(host.pf.vf_count() as u16);
        Ok(match self {
            Baseline::NoNet => (PodNetworking::None, None),
            Baseline::Ipvtap => (
                PodNetworking::Software(Arc::new(IpvtapCni::new(CniParams::paper()))),
                None,
            ),
            Baseline::Vanilla | Baseline::Prezero(_) => {
                host.prebind_all_vfs()?;
                let vfs = vf_pool();
                (
                    PodNetworking::Sriov(
                        Arc::new(SriovCniFixed::new(Arc::clone(&vfs))) as Arc<dyn CniPlugin>
                    ),
                    Some(vfs),
                )
            }
            Baseline::FastIovVdpa => {
                host.prebind_all_vfs()?;
                let vfs = vf_pool();
                (
                    PodNetworking::Vdpa(
                        Arc::new(FastIovCni::new(Arc::clone(&vfs))) as Arc<dyn CniPlugin>
                    ),
                    Some(vfs),
                )
            }
            _ => {
                host.prebind_all_vfs()?;
                let vfs = vf_pool();
                (
                    PodNetworking::Sriov(
                        Arc::new(FastIovCni::new(Arc::clone(&vfs))) as Arc<dyn CniPlugin>
                    ),
                    Some(vfs),
                )
            }
        })
    }

    /// Warm-pool capacity when this baseline runs one.
    pub fn pool_capacity(self) -> Option<usize> {
        match self {
            Baseline::WarmPool(n) => Some(n as usize),
            _ => None,
        }
    }

    /// Short label used in tables (matches the paper's figure legends).
    pub fn label(self) -> String {
        match self {
            Baseline::NoNet => "No-Net".into(),
            Baseline::Vanilla => "Vanilla".into(),
            Baseline::FastIov => "FastIOV".into(),
            Baseline::FastIovMinusL => "FastIOV-L".into(),
            Baseline::FastIovMinusA => "FastIOV-A".into(),
            Baseline::FastIovMinusS => "FastIOV-S".into(),
            Baseline::FastIovMinusD => "FastIOV-D".into(),
            Baseline::Prezero(p) => format!("Pre{p}"),
            Baseline::Ipvtap => "IPvtap".into(),
            Baseline::FastIovVdpa => "FastIOV+vDPA".into(),
            Baseline::WarmPool(n) => format!("FastIOV+Pool{n}"),
        }
    }
}

impl fmt::Display for Baseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_policies_match_paper_matrix() {
        assert_eq!(Baseline::Vanilla.lock_policy(), LockPolicy::Coarse);
        assert_eq!(Baseline::FastIov.lock_policy(), LockPolicy::Hierarchical);
        // Removing L means the coarse lock comes back.
        assert_eq!(Baseline::FastIovMinusL.lock_policy(), LockPolicy::Coarse);
        assert_eq!(
            Baseline::FastIovMinusD.lock_policy(),
            LockPolicy::Hierarchical
        );
    }

    #[test]
    fn variant_options_toggle_exactly_one_axis() {
        let full = Baseline::FastIov.vm_options(512, 256);
        let no_a = Baseline::FastIovMinusA.vm_options(512, 256);
        let no_s = Baseline::FastIovMinusS.vm_options(512, 256);
        let no_d = Baseline::FastIovMinusD.vm_options(512, 256);
        assert!(full.async_vf_init && full.skip_image_mapping);
        assert!(full.zeroing.is_decoupled());
        assert!(!no_a.async_vf_init && no_a.skip_image_mapping);
        assert!(!no_s.skip_image_mapping && no_s.async_vf_init);
        assert!(!no_d.zeroing.is_decoupled() && no_d.async_vf_init);
    }

    #[test]
    fn prezero_fraction_parsing() {
        assert_eq!(Baseline::Prezero(10).prezero_fraction(), 0.1);
        assert_eq!(Baseline::Prezero(100).prezero_fraction(), 1.0);
        assert_eq!(Baseline::Vanilla.prezero_fraction(), 0.0);
    }

    #[test]
    fn labels_are_paper_legends() {
        assert_eq!(Baseline::Prezero(50).label(), "Pre50");
        assert_eq!(Baseline::FastIovMinusL.label(), "FastIOV-L");
    }
}
