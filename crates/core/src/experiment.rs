//! One-call experiment runners.

use crate::baseline::Baseline;
use crate::{Error, Result};
use fastiov_apps::{run_serverless_concurrent, AppKind, StorageServer, TaskResult};
use fastiov_engine::{vm_id, Engine, EngineParams, LaunchSummary, StartupReport, Summary};
use fastiov_faults::FaultConfig;
use fastiov_hostmem::addr::units::mib;
use fastiov_microvm::{stages, Host, HostParams};
use fastiov_pool::{PoolParams, WarmPool};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The baseline under test.
    pub baseline: Baseline,
    /// Concurrently launched containers.
    pub concurrency: u32,
    /// Guest RAM per container.
    pub ram_bytes: u64,
    /// Image region per container.
    pub image_bytes: u64,
    /// vCPUs per container (used by app experiments).
    pub vcpus: f64,
    /// Host parameter set (defaults to [`HostParams::paper`]).
    pub host: HostParams,
    /// Engine parameter set.
    pub engine: EngineParams,
    /// Fault-injection configuration (disabled by default). The engine's
    /// retry jitter is seeded from the host's fault plane, so a single
    /// seed reproduces the entire run.
    pub faults: FaultConfig,
    /// Overrides the warm pool's low watermark ([`Baseline::WarmPool`]
    /// only). `Some(0)` disables claim-time replenish nudges, which keeps
    /// background provisioning out of deterministic fault sweeps.
    pub pool_watermark: Option<usize>,
}

impl ExperimentConfig {
    /// The paper's default measurement setting (§3.1): 512 MB RAM,
    /// 256 MB image, 0.5 vCPU.
    pub fn paper(baseline: Baseline, concurrency: u32) -> Self {
        ExperimentConfig {
            baseline,
            concurrency,
            ram_bytes: mib(512),
            image_bytes: mib(256),
            vcpus: 0.5,
            host: HostParams::paper(),
            engine: EngineParams::paper(),
            faults: FaultConfig::disabled(),
            pool_watermark: None,
        }
    }

    /// A tiny configuration for tests and doc examples: few containers,
    /// small guests, the small test host.
    pub fn smoke(baseline: Baseline, concurrency: u32) -> Self {
        ExperimentConfig {
            baseline,
            concurrency,
            ram_bytes: mib(64),
            image_bytes: mib(32),
            vcpus: 0.5,
            host: HostParams::for_tests(),
            engine: EngineParams::paper(),
            faults: FaultConfig::disabled(),
            pool_watermark: None,
        }
    }

    /// Builds the host + engine pair for this configuration. For
    /// [`Baseline::WarmPool`], also constructs the warm pool — sharing
    /// the SR-IOV flow's VF pool — and prefills it before any pod
    /// arrives.
    pub fn build(&self) -> Result<(Arc<Host>, Arc<Engine>)> {
        let host = Host::with_faults(
            self.host.clone(),
            self.baseline.lock_policy(),
            self.faults.build(),
        )
        .map_err(Error::Host)?;
        let frac = self.baseline.prezero_fraction();
        if frac > 0.0 {
            host.mem.prezero_pass(frac);
        }
        let networking = self.baseline.networking(&host).map_err(Error::Host)?;
        let pool = match (self.baseline.pool_capacity(), networking.vf_pool()) {
            (Some(capacity), Some(vfs)) => {
                let mut params = PoolParams::new(capacity, self.ram_bytes, self.image_bytes);
                if let Some(watermark) = self.pool_watermark {
                    params.low_watermark = watermark;
                }
                let pool = WarmPool::new(Arc::clone(&host), Arc::clone(vfs), params);
                pool.prefill();
                Some(pool)
            }
            _ => None,
        };
        let engine = Engine::with_pool(
            Arc::clone(&host),
            self.engine,
            networking,
            self.baseline.vm_options(self.ram_bytes, self.image_bytes),
            pool,
        );
        Ok((host, engine))
    }
}

/// Result of a startup experiment.
#[derive(Debug, Clone)]
pub struct StartupRunResult {
    /// The baseline measured.
    pub baseline: Baseline,
    /// Per-container reports, index order.
    pub reports: Vec<StartupReport>,
    /// End-to-end startup time summary.
    pub total: Summary,
    /// VF-related time summary (stages 1, 3, 4, 5).
    pub vf_related: Summary,
    /// Per-stage mean durations.
    pub stage_means: BTreeMap<String, Duration>,
}

impl StartupRunResult {
    /// Mean share of a stage in the mean total time.
    pub fn stage_share(&self, stage: &str) -> f64 {
        let t = self.total.mean.as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.stage_means
                .get(stage)
                .map(|d| d.as_secs_f64() / t)
                .unwrap_or(0.0)
        }
    }
}

/// Runs one startup experiment: builds a fresh host, launches
/// `concurrency` containers simultaneously, tears them down, summarizes.
pub fn run_startup_experiment(cfg: &ExperimentConfig) -> Result<StartupRunResult> {
    let (_host, engine) = cfg.build()?;
    let reports: Vec<StartupReport> = engine
        .measure_startup(cfg.concurrency)
        .into_iter()
        .collect::<std::result::Result<_, _>>()
        .map_err(Error::Startup)?;
    summarize(cfg.baseline, reports)
}

/// Runs one launch wave on a fresh host: `prepare` sees the host first,
/// every started pod is torn down, and the warm pool (if any) is drained
/// before returning the host, the wave's summary and the VM ids of the
/// pods that started ([`vm_id`], the id their spans carry),
/// in ascending order.
pub fn run_wave(
    cfg: &ExperimentConfig,
    prepare: impl FnOnce(&Host),
) -> Result<(Arc<Host>, LaunchSummary, Vec<u64>)> {
    let (host, engine) = cfg.build()?;
    prepare(&host);
    let outcome = engine.launch_concurrent(cfg.concurrency);
    let mut started = Vec::new();
    for pod in outcome.pods.iter().flatten() {
        started.push(vm_id(pod.index));
        let _ = engine.teardown_pod(pod);
    }
    if let Some(pool) = engine.pool() {
        pool.wait_idle();
    }
    Ok((host, outcome.summary, started))
}

/// Builds the result summary from raw reports.
pub fn summarize(baseline: Baseline, reports: Vec<StartupReport>) -> Result<StartupRunResult> {
    if reports.is_empty() {
        return Err(Error::Empty);
    }
    let totals: Vec<Duration> = reports.iter().map(|r| r.total).collect();
    let vf: Vec<Duration> = reports.iter().map(|r| r.vf_related()).collect();
    let mut stage_means = BTreeMap::new();
    for name in [
        stages::CGROUP,
        stages::DMA_RAM,
        stages::VIRTIOFS,
        stages::DMA_IMAGE,
        stages::VFIO_DEV,
        stages::VF_DRIVER,
        stages::ADD_CNI,
        "g-kernel-load",
        "g-boot",
    ] {
        let sum: Duration = reports.iter().map(|r| r.stage_total(name)).sum();
        stage_means.insert(name.to_string(), sum / reports.len() as u32);
    }
    Ok(StartupRunResult {
        baseline,
        total: Summary::from_durations(&totals).expect("non-empty"),
        vf_related: Summary::from_durations(&vf).expect("non-empty"),
        stage_means,
        reports,
    })
}

/// Result of a serverless application experiment.
#[derive(Debug, Clone)]
pub struct AppRunResult {
    /// The baseline measured.
    pub baseline: Baseline,
    /// The application.
    pub app: AppKind,
    /// Per-task results.
    pub tasks: Vec<TaskResult>,
    /// Task completion time summary.
    pub completion: Summary,
}

/// Runs one serverless application experiment: `concurrency` tasks of
/// `app`, launched simultaneously (§6.6).
pub fn run_app_experiment(cfg: &ExperimentConfig, app: AppKind) -> Result<AppRunResult> {
    let (_host, engine) = cfg.build()?;
    let storage = Arc::new(StorageServer::new());
    let params = fastiov_apps::runner::TaskParams {
        vcpus: cfg.vcpus,
        ..fastiov_apps::runner::TaskParams::paper()
    };
    let tasks = run_serverless_concurrent(
        &engine,
        cfg.concurrency,
        app.workload().into(),
        &storage,
        &params,
    )
    .into_iter()
    .collect::<std::result::Result<Vec<_>, _>>()
    .map_err(Error::App)?;
    if tasks.is_empty() {
        return Err(Error::Empty);
    }
    let completions: Vec<Duration> = tasks.iter().map(|t| t.completion).collect();
    Ok(AppRunResult {
        baseline: cfg.baseline,
        app,
        completion: Summary::from_durations(&completions).expect("non-empty"),
        tasks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_startup_runs_all_baselines() {
        for b in [
            Baseline::NoNet,
            Baseline::Vanilla,
            Baseline::FastIov,
            Baseline::Prezero(100),
            Baseline::Ipvtap,
            Baseline::FastIovVdpa,
        ] {
            let run = run_startup_experiment(&ExperimentConfig::smoke(b, 3)).unwrap();
            assert_eq!(run.reports.len(), 3, "{b}");
            assert!(run.total.mean > Duration::ZERO, "{b}");
        }
    }

    #[test]
    fn warm_pool_baseline_prefills_and_serves_warm() {
        let cfg = ExperimentConfig::smoke(Baseline::WarmPool(4), 4);
        let (_host, engine) = cfg.build().unwrap();
        let pool = Arc::clone(engine.pool().expect("pool configured"));
        assert_eq!(pool.stats().size, 4);
        let reports = engine.measure_startup(4);
        assert!(reports.iter().all(|r| r.is_ok()));
        pool.wait_idle();
        let s = pool.stats();
        assert_eq!(s.hits, 4);
        assert_eq!(s.misses, 0);
        assert_eq!(s.recycled, 4);
    }

    #[test]
    fn warm_pool_beats_plain_fastiov_in_smoke() {
        let fast = run_startup_experiment(&ExperimentConfig::smoke(Baseline::FastIov, 4)).unwrap();
        let pooled =
            run_startup_experiment(&ExperimentConfig::smoke(Baseline::WarmPool(4), 4)).unwrap();
        assert!(
            pooled.total.mean < fast.total.mean,
            "pooled {:?} vs fastiov {:?}",
            pooled.total.mean,
            fast.total.mean
        );
    }

    #[test]
    fn fastiov_beats_vanilla_even_in_smoke() {
        let van = run_startup_experiment(&ExperimentConfig::smoke(Baseline::Vanilla, 6)).unwrap();
        let fast = run_startup_experiment(&ExperimentConfig::smoke(Baseline::FastIov, 6)).unwrap();
        assert!(
            fast.vf_related.mean < van.vf_related.mean,
            "fastiov vf {:?} vs vanilla vf {:?}",
            fast.vf_related.mean,
            van.vf_related.mean
        );
    }

    #[test]
    fn stage_shares_sum_below_one() {
        let run = run_startup_experiment(&ExperimentConfig::smoke(Baseline::Vanilla, 4)).unwrap();
        let total_share: f64 = [
            stages::CGROUP,
            stages::DMA_RAM,
            stages::VIRTIOFS,
            stages::DMA_IMAGE,
            stages::VFIO_DEV,
            stages::VF_DRIVER,
        ]
        .iter()
        .map(|s| run.stage_share(s))
        .sum();
        assert!(total_share > 0.0 && total_share <= 1.0, "{total_share}");
    }

    #[test]
    fn smoke_app_experiment() {
        let cfg = ExperimentConfig::smoke(Baseline::FastIov, 2);
        let run = run_app_experiment(&cfg, AppKind::Image).unwrap();
        assert_eq!(run.tasks.len(), 2);
        assert!(run.completion.mean >= Duration::ZERO);
    }
}
