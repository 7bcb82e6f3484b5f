//! The four workloads, and one set-up host with its measured waves.
//!
//! A host is built fresh (the set-up) and then runs a few waves. Each wave
//! runs the measured phase, checks the outputs and the invariants, and
//! reads every layer's counters as deltas over the measured phase.

use crate::{probe, spans, stats};
use fastiov::apps::runner::TaskParams;
use fastiov::apps::storage::{object_byte, NetworkedStorage};
use fastiov::apps::{run_serverless_task, AppKind, StorageServer, TaskResult};
use fastiov::engine::{Engine, SustainedConfig};
use fastiov::hostmem::addr::units::mib;
use fastiov::hostmem::Gpa;
use fastiov::microvm::{Host, HostParams};
use fastiov::simtime::{LockSnapshot, SimInstant};
use fastiov::{Baseline, ExperimentConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 200 simultaneous launches under the vanilla baseline (§3.1).
    BurstVanilla,
    /// The same burst under full FastIOV.
    BurstFastiov,
    /// 200 simultaneous Fig. 15 image tasks under FastIOV.
    ServerlessImage,
    /// Open-loop Poisson arrivals against a warm pool.
    ChurnPool,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::BurstVanilla,
        Kind::BurstFastiov,
        Kind::ServerlessImage,
        Kind::ChurnPool,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BurstVanilla => "burst-vanilla",
            Kind::BurstFastiov => "burst-fastiov",
            Kind::ServerlessImage => "serverless-image",
            Kind::ChurnPool => "churn-pool",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn baseline(self, pool_capacity: u16) -> Baseline {
        match self {
            Kind::BurstVanilla => Baseline::Vanilla,
            Kind::BurstFastiov | Kind::ServerlessImage => Baseline::FastIov,
            Kind::ChurnPool => Baseline::WarmPool(pool_capacity),
        }
    }
}

/// The size and setting of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Real seconds per simulated second of the wall-clock-backed
    /// simulation clock. This is the one field to re-baseline once the
    /// clock no longer depends on the host.
    pub scale: f64,
    /// Pods (or tasks) per wave.
    pub pods: u32,
    /// Waves measured on each set-up host.
    pub waves: u32,
    /// Host model; its `time_scale` is replaced by `scale`.
    pub host: HostParams,
    /// Guest RAM per pod.
    pub ram_bytes: u64,
    /// Image region per pod.
    pub image_bytes: u64,
    /// Warm-pool capacity (`churn-pool` only).
    pub pool_capacity: u16,
    /// Offered arrival rate in pods per simulated second (`churn-pool`).
    pub rate_per_s: f64,
    /// Simulated lifetime of a pod before teardown (`churn-pool`).
    pub hold: Duration,
}

impl Spec {
    /// The measured setting: the paper's host, 200 pods, 512 MB RAM and a
    /// 256 MB image per pod. The FastIOV burst and the serverless tasks have
    /// the least slack, so host delays inflate their modelled times most:
    /// they run at a larger scale, with two waves per set-up to pay for it.
    /// `churn-pool` varies with its seed (the arrival schedule sets the hit
    /// ratio), so it runs four waves per set-up to average over more
    /// schedules.
    pub fn full(kind: Kind) -> Spec {
        let (scale, waves) = match kind {
            Kind::BurstVanilla => (0.1, 1),
            Kind::BurstFastiov | Kind::ServerlessImage => (0.4, 2),
            Kind::ChurnPool => (0.1, 4),
        };
        Spec {
            kind,
            scale,
            pods: 200,
            waves,
            host: HostParams::paper(),
            ram_bytes: mib(512),
            image_bytes: mib(256),
            pool_capacity: 24,
            rate_per_s: 8.0,
            hold: Duration::from_secs(2),
        }
    }

    /// A seconds-long setting for the benchmark's own tests: a 16-VF test
    /// host and two waves of 8 small pods. Arrivals are fast enough that every
    /// `churn-pool` claim happens before the first recycle can finish, so
    /// its hit and miss counts repeat exactly.
    pub fn short(kind: Kind) -> Spec {
        Spec {
            kind,
            scale: 0.02,
            pods: 8,
            waves: 2,
            host: HostParams::for_tests(),
            ram_bytes: mib(64),
            image_bytes: mib(32),
            pool_capacity: 4,
            rate_per_s: 100.0,
            hold: Duration::from_secs(2),
        }
    }

    fn config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(self.kind.baseline(self.pool_capacity), self.pods);
        cfg.host = HostParams {
            time_scale: self.scale,
            ..self.host.clone()
        };
        cfg.ram_bytes = self.ram_bytes;
        cfg.image_bytes = self.image_bytes;
        cfg
    }
}

/// What one wave measured.
#[derive(Debug, Default)]
pub struct Wave {
    /// Pods or tasks attempted.
    pub attempted: u64,
    /// Pods or tasks that failed.
    pub failed: u64,
    /// Broken correctness checks, one line each.
    pub violations: Vec<String>,
    /// End-to-end metrics of this wave (not `setup_s`, which belongs to
    /// the host, nor `peak_rss_mb`, which belongs to the whole run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics. Span-derived ones only when traced.
    pub layer: BTreeMap<String, f64>,
    /// Figures printed beside the paper's (burst workloads): the mean
    /// share of each Tab. 1 stage in mean startup, and the mean VF
    /// overhead from the pods' stage records.
    pub reference: BTreeMap<&'static str, f64>,
}

/// Counters that only grow, read at one instant.
type Snapshot = BTreeMap<&'static str, f64>;

fn lock_s(host: &Host, s: LockSnapshot, wait: bool) -> f64 {
    let ns = if wait { s.wait_ns } else { s.hold_ns };
    host.clock.to_sim(Duration::from_nanos(ns)).as_secs_f64()
}

fn snapshot(host: &Host, engine: &Engine, served: Option<&NetworkedStorage>) -> Snapshot {
    let vfio = host.vfio.stats();
    let devset = host.vfio.lock_stats();
    let mem = host.mem.stats();
    let iommu = host.iommu.table_lock_stats();
    let fd = host.fastiovd.stats();
    let (rx, bytes, faults) = host.dma.stats();
    let mut s: Snapshot = BTreeMap::from([
        ("vfio.opens", vfio.opens as f64),
        ("vfio.resets", vfio.resets as f64),
        ("vfio.busy_refusals", vfio.busy_refusals as f64),
        ("vfio.devset.wait_s", lock_s(host, devset, true)),
        ("vfio.devset.hold_s", lock_s(host, devset, false)),
        ("vfio.devset.acquisitions", devset.acquisitions as f64),
        ("hostmem.allocations", mem.allocations as f64),
        ("hostmem.batches_retrieved", mem.batches_retrieved as f64),
        ("hostmem.frames_zeroed", mem.frames_zeroed_charged as f64),
        ("hostmem.frames_stolen", mem.frames_stolen as f64),
        (
            "hostmem.free_list.wait_s",
            lock_s(host, host.mem.free_lock_stats(), true),
        ),
        ("iommu.table.wait_s", lock_s(host, iommu, true)),
        ("iommu.table.acquisitions", iommu.acquisitions as f64),
        ("fastiovd.registered", fd.registered as f64),
        ("fastiovd.lazily_zeroed", fd.lazily_zeroed as f64),
        ("fastiovd.instantly_zeroed", fd.instantly_zeroed as f64),
        ("fastiovd.background_zeroed", fd.background_zeroed as f64),
        (
            "fastiovd.tier1.wait_s",
            lock_s(host, host.fastiovd.tier1_lock_stats(), true),
        ),
        ("nic.admin_cmds", host.pf.stats().admin_cmds as f64),
        ("nic.dma.rx", rx as f64),
        ("nic.dma.bytes", bytes as f64),
        ("nic.dma.faults", faults as f64),
        (
            "virtio.virtiofs_bw.operations",
            host.virtiofs_bw.stats().operations as f64,
        ),
        ("sim.cpu_s", probe::cpu_seconds()),
        ("sim.ctx_switches_invol", probe::invol_ctx_switches() as f64),
    ]);
    if let Some(pool) = engine.pool() {
        let p = pool.stats();
        s.extend([
            ("pool.hits", p.hits as f64),
            ("pool.misses", p.misses as f64),
            ("pool.provisioned", p.provisioned as f64),
            ("pool.recycled", p.recycled as f64),
            ("pool.evicted", p.evicted as f64),
            ("pool.provision_failures", p.provision_failures as f64),
            ("pool.recycle_failures", p.recycle_failures as f64),
        ]);
    }
    if let Some(storage) = served {
        s.insert("apps.storage.served", storage.served() as f64);
    }
    s
}

/// `end - start - (excluded_end - excluded_start)`, per counter: the
/// growth over the measured phase minus the growth during a check that
/// ran inside it.
fn delta(start: &Snapshot, end: &Snapshot, excluded: Option<(&Snapshot, &Snapshot)>) -> Snapshot {
    end.iter()
        .map(|(&k, &v)| {
            let skip = excluded.map_or(0.0, |(a, b)| b[k] - a[k]);
            (k, v - start[k] - skip)
        })
        .collect()
}

/// splitmix64: derives independent per-host, per-wave and per-pod values
/// from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const BLOCK: u64 = 4096;

/// The §4.3.2 invariant on one pod: a 4 KiB block of a guest RAM page the
/// pod never wrote (above the kernel, the two rings, the RX area and the
/// application buffer) must read as zeros, never as residue of a previous
/// tenant or of the allocator.
fn residue_violation(host: &Host, pod: &fastiov::engine::PodHandle, seed: u64) -> Option<String> {
    let layout = pod.vm.layout();
    let page = host.params.page_size.bytes();
    let first = layout.app_gpa.raw() / page + 1;
    let pages = layout.ram_bytes / page;
    if first >= pages {
        return Some(format!("pod {}: no unwritten RAM page to check", pod.index));
    }
    let r = mix(seed, u64::from(pod.index));
    let gpa = Gpa((first + r % (pages - first)) * page + (r >> 32) % (page / BLOCK) * BLOCK);
    let mut buf = vec![0u8; BLOCK as usize];
    match pod.vm.vm().read_gpa(gpa, &mut buf) {
        Ok(()) if buf.iter().all(|&b| b == 0) => None,
        Ok(()) => Some(format!(
            "pod {}: previous-tenant residue at {gpa:?}",
            pod.index
        )),
        Err(e) => Some(format!("pod {}: read of {gpa:?} failed: {e}", pod.index)),
    }
}

/// The measured phase of one workload, before counters are derived.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    startups: Vec<f64>,
    completions: Vec<f64>,
    wall: f64,
    /// Counters around a check that ran inside the measured phase.
    excluded: Option<(Snapshot, Snapshot)>,
    extra: BTreeMap<String, f64>,
    reference: BTreeMap<&'static str, f64>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One set-up of a host and the waves measured on it.
#[derive(Debug, Default)]
pub struct HostRun {
    /// Host seconds to build the host, prebind its VFs, prefill the pool
    /// and attach the storage server.
    pub setup_s: f64,
    /// The waves run on this host, in order.
    pub waves: Vec<Wave>,
}

/// Runs one set-up of `spec` and its `waves`, with inputs drawn from
/// `seed`.
pub fn run_host(spec: &Spec, seed: u64, traced: bool) -> Result<HostRun, String> {
    let cfg = spec.config();
    let t_setup = Instant::now();
    let (host, engine) = cfg.build().map_err(|e| format!("host build: {e}"))?;
    // The serverless storage server, behind a front end whose request
    // count the benchmark can read.
    let serverless = (spec.kind == Kind::ServerlessImage).then(|| {
        let storage = Arc::new(StorageServer::new());
        let front = NetworkedStorage::new(Arc::clone(&storage), Arc::clone(&host.dma));
        host.wire.connect(Arc::clone(&front) as _);
        (storage, front)
    });
    let setup_s = secs(t_setup.elapsed());
    let setup_end = host.clock.now();
    if traced {
        host.tracer.enable();
    }

    let mut waves = Vec::new();
    for w in 0..spec.waves {
        let seed = mix(seed, u64::from(w));
        let mut violations = Vec::new();
        let front = serverless.as_ref().map(|(_, f)| f.as_ref());
        if traced {
            // Each wave's trace starts afresh with the host's set-up span.
            host.tracer.clear();
            host.tracer
                .span_at("bench.setup", SimInstant::ZERO)
                .finish_at(setup_end);
        }
        let start = snapshot(&host, &engine, front);
        let phase = match spec.kind {
            Kind::BurstVanilla | Kind::BurstFastiov => {
                burst(spec, &host, &engine, seed, &mut violations)
            }
            Kind::ServerlessImage => {
                let (storage, _) = serverless
                    .as_ref()
                    .expect("invariant: storage is built above for serverless-image");
                serverless_wave(spec, &host, &engine, storage, seed, &mut violations)
            }
            Kind::ChurnPool => churn(spec, &host, &engine, seed, &mut violations),
        };
        let end = snapshot(&host, &engine, front);
        let excluded = phase.excluded.as_ref().map(|(a, b)| (a, b));
        let mut layer: BTreeMap<String, f64> = delta(&start, &end, excluded)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        layer.extend(phase.extra);
        layer.insert(
            "hostmem.membw.max_queue".into(),
            host.membw.stats().max_queue as f64,
        );
        layer.insert(
            "virtio.virtiofs_bw.max_queue".into(),
            host.virtiofs_bw.stats().max_queue as f64,
        );
        layer.insert(
            "sim.cpu.max_queue".into(),
            host.cpu.stats().max_queue as f64,
        );
        let registered = layer["fastiovd.registered"];
        if registered > 0.0 {
            layer.insert(
                "fastiovd.lazy_ratio".into(),
                layer["fastiovd.lazily_zeroed"] / registered,
            );
        }
        if let (Some(&hits), Some(&misses)) = (layer.get("pool.hits"), layer.get("pool.misses")) {
            if hits + misses != f64::from(spec.pods) {
                violations.push(format!(
                    "pool.hits + pool.misses = {} != {} pods",
                    hits + misses,
                    spec.pods
                ));
            }
            layer.insert("pool.hit_ratio".into(), hits / (hits + misses).max(1.0));
        }
        if traced {
            layer.extend(spans::metrics(&host.tracer.spans()));
        }
        if phase.attempted != u64::from(spec.pods) {
            violations.push(format!(
                "succeeded + failed = {} != {} attempted",
                phase.attempted, spec.pods
            ));
        }

        // Conservation: once every pod is gone, every frame is free again
        // and fastiovd tracks nothing. Parked pool VMs hold frames until
        // the pool shuts down after the host's last wave.
        let last = w + 1 == spec.waves;
        if let (true, Some(pool)) = (last, engine.pool()) {
            pool.shutdown();
        }
        if last || engine.pool().is_none() {
            let mem = host.mem.stats();
            if mem.free_frames != mem.total_frames {
                violations.push(format!(
                    "free_frames {} != total_frames {} after teardown",
                    mem.free_frames, mem.total_frames
                ));
            }
            let tracked = host.fastiovd.stats().tracked;
            layer.insert("fastiovd.tracked_end".into(), tracked as f64);
            if tracked != 0 {
                violations.push(format!("fastiovd tracks {tracked} pages after teardown"));
            }
        }

        let completions = if phase.completions.is_empty() {
            &phase.startups
        } else {
            &phase.completions
        };
        let e2e = BTreeMap::from([
            ("startup_p50_s", stats::p50(&phase.startups)),
            ("startup_p95_s", stats::p95(&phase.startups)),
            ("startup_mean_s", stats::mean(&phase.startups)),
            ("task_p50_s", stats::p50(completions)),
            ("task_p95_s", stats::p95(completions)),
            (
                "success_ratio",
                (phase.attempted - phase.failed) as f64 / phase.attempted.max(1) as f64,
            ),
            ("run_wall_s", phase.wall),
        ]);
        waves.push(Wave {
            attempted: phase.attempted,
            failed: phase.failed,
            violations,
            e2e,
            layer,
            reference: phase.reference,
        });
    }
    Ok(HostRun { setup_s, waves })
}

/// `burst-*`: one `crictl`-style wave, the residue check, then teardown of
/// every pod.
fn burst(
    spec: &Spec,
    host: &Arc<Host>,
    engine: &Arc<Engine>,
    seed: u64,
    violations: &mut Vec<String>,
) -> Phase {
    let t0 = Instant::now();
    let wave = host.tracer.span("bench.wave");
    let outcome = engine.launch_concurrent(spec.pods);
    // A pod is done once its network is up: under FastIOV the VF driver
    // initializes after startup returns, and tearing down mid-init would
    // cut its admin commands short by a timing-dependent amount.
    for pod in outcome.pods.iter().flatten() {
        if let Err(e) = pod.vm.wait_net_ready() {
            violations.push(format!("pod {}: network never came up: {e}", pod.index));
        }
    }
    wave.finish();
    let wave_wall = secs(t0.elapsed());

    let before_check = snapshot(host, engine, None);
    for pod in outcome.pods.iter().flatten() {
        violations.extend(residue_violation(host, pod, seed));
    }
    let after_check = snapshot(host, engine, None);

    let t1 = Instant::now();
    let teardown = host.tracer.span("bench.teardown");
    for pod in outcome.pods.iter().flatten() {
        if let Err(e) = engine.teardown_pod(pod) {
            violations.push(format!("teardown of pod {}: {e}", pod.index));
        }
    }
    teardown.finish();
    let teardown_wall = secs(t1.elapsed());

    let reports: Vec<_> = outcome
        .pods
        .iter()
        .flatten()
        .map(|p| p.report.clone())
        .collect();
    let startups = reports.iter().map(|r| secs(r.total)).collect();
    let mut reference = BTreeMap::new();
    if let Ok(run) = fastiov::experiment::summarize(spec.kind.baseline(spec.pool_capacity), reports)
    {
        for &(stage, _) in crate::TAB1 {
            reference.insert(stage, run.stage_share(stage));
        }
        reference.insert("vf_overhead_mean_s", run.vf_related.mean_secs());
    }
    Phase {
        attempted: outcome.summary.total() as u64,
        failed: outcome.summary.failed as u64,
        startups,
        wall: wave_wall + teardown_wall,
        extra: BTreeMap::from([("engine.teardown_wall_s".to_string(), teardown_wall)]),
        excluded: Some((before_check, after_check)),
        reference,
        ..Phase::default()
    }
}

/// `serverless-image`: every task launches its pod, downloads its input
/// over the VF, computes and tears down, all at once (Fig. 15).
fn serverless_wave(
    spec: &Spec,
    host: &Arc<Host>,
    engine: &Arc<Engine>,
    storage: &Arc<StorageServer>,
    seed: u64,
    violations: &mut Vec<String>,
) -> Phase {
    // The input object's bytes are drawn from the seed.
    let workload = AppKind::Image.workload();
    let total = workload.input_bytes();
    let object_seed = mix(seed, u64::MAX);
    storage.put(&format!("input-{}", workload.name()), total, object_seed);
    let params = TaskParams {
        vcpus: 0.5,
        ..TaskParams::paper()
    };

    let t0 = Instant::now();
    let wave = host.tracer.span("bench.wave");
    let results: Vec<Result<TaskResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.pods)
            .map(|i| {
                let workload = workload.as_ref();
                let params = &params;
                s.spawn(move || {
                    run_serverless_task(engine, i, workload, storage, params)
                        .map_err(|e| format!("task {i}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("task thread panicked".into()))
            })
            .collect()
    });
    wave.finish();
    let wall = secs(t0.elapsed());

    // The task computes over the first chunk it received, one RX buffer
    // long on the VF path: recompute it from the storage server's bytes.
    let sample_len = (host.params.rx_buffer_bytes as u64).min(total);
    let expected_input: Vec<u8> = (0..sample_len)
        .map(|o| object_byte(object_seed, o))
        .collect();
    let expected = workload.compute(&expected_input);
    let tasks: Vec<&TaskResult> = results.iter().flatten().collect();
    for t in &tasks {
        if t.output != expected {
            violations.push(format!(
                "task {}: output differs from the stored input's",
                t.index
            ));
        }
    }
    for e in results.iter().filter_map(|r| r.as_ref().err()) {
        violations.push(e.clone());
    }
    let net_wait: Vec<f64> = tasks.iter().map(|t| secs(t.net_wait)).collect();
    let launch: Vec<f64> = tasks.iter().map(|t| secs(t.launch)).collect();
    let extra = BTreeMap::from([
        ("apps.launch.p50_s".to_string(), stats::p50(&launch)),
        ("apps.net_wait.p50_s".to_string(), stats::p50(&net_wait)),
        ("apps.net_wait.p95_s".to_string(), stats::p95(&net_wait)),
    ]);
    Phase {
        attempted: results.len() as u64,
        failed: results.iter().filter(|r| r.is_err()).count() as u64,
        startups: tasks.iter().map(|t| secs(t.startup)).collect(),
        completions: tasks.iter().map(|t| secs(t.completion)).collect(),
        wall,
        extra,
        ..Phase::default()
    }
}

/// `churn-pool`: open-loop Poisson arrivals, each pod held then torn down;
/// the measured phase ends when the pool has recycled every returned VM.
fn churn(
    spec: &Spec,
    host: &Arc<Host>,
    engine: &Arc<Engine>,
    seed: u64,
    violations: &mut Vec<String>,
) -> Phase {
    let t0 = Instant::now();
    let wave = host.tracer.span("bench.wave");
    let outcome = engine.run_sustained(SustainedConfig {
        total: spec.pods,
        rate_per_s: spec.rate_per_s,
        hold: spec.hold,
        seed,
    });
    match engine.pool() {
        Some(pool) => pool.wait_idle(),
        None => violations.push("churn-pool engine has no pool".into()),
    }
    wave.finish();
    let wall = secs(t0.elapsed());

    let starts: Vec<f64> = outcome
        .reports
        .iter()
        .map(|r| r.started.as_secs_f64())
        .collect();
    let span = starts.iter().copied().fold(f64::MIN, f64::max)
        - starts.iter().copied().fold(f64::MAX, f64::min);
    let mut extra = BTreeMap::new();
    if starts.len() > 1 && span > 0.0 {
        let achieved = (starts.len() - 1) as f64 / span;
        extra.insert(
            "gen.arrival_rate_ratio".to_string(),
            achieved / spec.rate_per_s,
        );
    }
    Phase {
        attempted: outcome.summary.total() as u64,
        failed: outcome.summary.failed as u64,
        startups: outcome.reports.iter().map(|r| secs(r.total)).collect(),
        wall,
        extra,
        ..Phase::default()
    }
}
