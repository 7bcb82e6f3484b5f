//! The paper's evaluation as data: one scenario table, one claim table.
//!
//! A [`Row`] is one measured cell: a launch wave, a serverless burst, a
//! sustained arrival stream, a fault-plane wave, the §6.5 memory probe,
//! or one of the two ablation procedures. A [`Claim`] names the rows it
//! reads, the paper's value or relation, and one [`Pred`] over the
//! model's value. `fastiovctl reproduce` runs the rows the selected
//! claims read, evaluates the claims, and writes one `RESULTS.json` line
//! per claim ([`Record`]); every `<!-- results:<figure> -->` block of
//! `EXPERIMENTS.md` is re-rendered from that file by [`render_blocks`].
//!
//! Rows run sequentially. Rows with the same [`Run`] are measured once,
//! so every figure that reads, say, the 200-way vanilla wave reads the
//! same numbers.

use crate::{
    run_app_experiment, run_memperf, run_startup_experiment, Baseline, Error, ExperimentConfig,
    Result,
};
use fastiov_apps::AppKind;
use fastiov_engine::SustainedConfig;
use fastiov_faults::{FaultConfig, FaultPlane};
use fastiov_hostmem::addr::units::{gib, mib};
use fastiov_hostmem::{AddressSpace, Gpa, Iova, MemCosts, PageSize, PhysMemory};
use fastiov_iommu::Iommu;
use fastiov_microvm::stages;
use fastiov_simtime::{lockdep, Clock, CpuPool, FairShareBandwidth, WallStopwatch};
use fastiov_vfio::{DmaZeroMode, VfioContainer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Relative band shared by every [`Pred::Near`] claim.
pub const BAND: f64 = 0.25;

/// Seed of the fault plane in fault rows and of the arrival process in
/// sustained rows.
const SEED: u64 = 11;

/// What a row measures, under the paper's §3.1 configuration plus the
/// row's overrides.
#[derive(Debug, Clone)]
pub enum Run {
    /// One simultaneous launch wave.
    Startup(ExperimentConfig),
    /// One serverless task per container, launched simultaneously.
    App(ExperimentConfig, AppKind),
    /// `concurrency` pods arriving as a Poisson stream at this rate (pods
    /// per simulated second), each held for 2 s.
    Sustained(ExperimentConfig, f64),
    /// One launch wave under the fault plane, counted, not timed: the
    /// wave's goodput and failures, and each fault site's `checks`,
    /// `errors`, `delays`, `retries` and `fallbacks`
    /// (`site.<site>.<count>`).
    Faults(ExperimentConfig),
    /// The §6.5 in-guest memory probe.
    MemPerf(ExperimentConfig),
    /// §5 ablation: a wave, a 10 s idle window with or without the
    /// background scrubber, then a 64 MB heap sweep per container.
    Scrubber(ExperimentConfig, bool),
    /// P2 ablation: one 512 MB DMA mapping at this page size, with every
    /// `n`-th frame punched out of the free list.
    Fragmentation(PageSize, Option<usize>),
}

/// Named model outputs of one row.
pub type Metrics = BTreeMap<String, f64>;

impl Run {
    /// The experiment configuration, for every kind but fragmentation.
    pub fn config(&self) -> Option<&ExperimentConfig> {
        match self {
            Run::Startup(c) | Run::App(c, _) | Run::Sustained(c, _) => Some(c),
            Run::Faults(c) | Run::MemPerf(c) | Run::Scrubber(c, _) => Some(c),
            Run::Fragmentation(..) => None,
        }
    }

    /// Runs the row. Fails if the row's lock witness holds any report:
    /// every row builds its clock on the calling thread, so the witness
    /// read afterwards is the row's own.
    pub fn measure(&self) -> Result<Metrics> {
        let m = self.metrics()?;
        let reports = lockdep::reports();
        if reports.is_empty() {
            Ok(m)
        } else {
            Err(Error::Lockdep(reports))
        }
    }

    fn metrics(&self) -> Result<Metrics> {
        if let Run::Fragmentation(page, stride) = self {
            let batches = fragmentation_case(*page, *stride, mib(512))?;
            return Ok(Metrics::from([("batches".into(), batches as f64)]));
        }
        let cfg = self
            .config()
            .expect("invariant: only fragmentation has no config");
        let mut m = Metrics::new();
        let mut put = |k: &str, v: f64| m.insert(k.to_string(), v);
        match self {
            Run::Startup(_) => {
                let r = run_startup_experiment(cfg)?;
                put("avg", r.total.mean_secs());
                put("p99", r.total.p99_secs());
                put("min", r.total.min.as_secs_f64());
                put("max", r.total.max.as_secs_f64());
                put("vf", r.vf_related.mean_secs());
                for (name, mean) in &r.stage_means {
                    put(&stage(name), mean.as_secs_f64());
                }
            }
            Run::App(_, app) => {
                let r = run_app_experiment(cfg, *app)?;
                put("avg", r.completion.mean_secs());
                put("p99", r.completion.p99_secs());
            }
            Run::Sustained(_, rate) => {
                let (_host, engine) = cfg.build()?;
                let outcome = engine.run_sustained(SustainedConfig {
                    total: cfg.concurrency,
                    rate_per_s: *rate,
                    hold: Duration::from_secs(2),
                    seed: SEED,
                });
                if let Some(pool) = engine.pool() {
                    pool.wait_idle();
                    put("hit_rate", pool.stats().hit_rate());
                }
                put("failed", outcome.summary.failed as f64);
                let r = crate::experiment::summarize(cfg.baseline, outcome.reports)?;
                put("avg", r.total.mean_secs());
                put("p99", r.total.p99_secs());
            }
            Run::Faults(_) => {
                let (host, sum, _) = crate::run_wave(cfg, |_| {})?;
                put("goodput", sum.succeeded as f64 / sum.total().max(1) as f64);
                put("failed", sum.failed as f64);
                let panics = sum.classes.iter().find(|(c, _)| *c == "launch-panic");
                put("panics", panics.map_or(0, |&(_, n)| n) as f64);
                put("injected", host.faults.total_errors() as f64);
                for (site, st) in host.faults.report() {
                    let counts = [
                        ("checks", st.checks),
                        ("errors", st.errors),
                        ("delays", st.delays),
                        ("retries", st.retries),
                        ("fallbacks", st.fallbacks),
                    ];
                    for (name, n) in counts {
                        put(&format!("site.{site}.{name}"), n as f64);
                    }
                }
            }
            Run::MemPerf(_) => {
                let r = run_memperf(cfg.baseline, cfg, mib(32), 3, 5_000)?;
                put("steady_ms", r.steady_sweep.as_secs_f64() * 1e3);
                put("random_ms", r.random_reads.as_secs_f64() * 1e3);
                put("lazily_zeroed", r.lazily_zeroed as f64);
            }
            Run::Scrubber(_, scrub) => {
                let (lazy, background) = scrubber_case(cfg, *scrub)?;
                put("lazy", lazy as f64);
                put("background", background as f64);
            }
            Run::Fragmentation(..) => {}
        };
        Ok(m)
    }
}

/// Launches `cfg.concurrency` FastIOV containers, leaves them idle for
/// 10 s (with the scrubber running if `scrub`), then sweeps 64 MB of each
/// heap. Returns fastiovd's fault-time and background zeroing counts.
fn scrubber_case(cfg: &ExperimentConfig, scrub: bool) -> Result<(u64, u64)> {
    let (host, engine) = cfg.build()?;
    let pods: Vec<_> = engine
        .launch_concurrent(cfg.concurrency)
        .pods
        .into_iter()
        .collect::<std::result::Result<_, _>>()
        .map_err(Error::Startup)?;
    let handle = scrub.then(|| {
        host.fastiovd
            .start_scrubber(Duration::from_millis(20), 1024)
    });

    // Idle window: applications are "starting up" (image transfer etc.).
    host.clock.sleep(Duration::from_secs(10));

    // Application phase: each container sweeps 64 MB of its heap.
    let page = host.params.page_size.bytes();
    let heap_base = pods[0].vm.layout().app_gpa;
    for pod in &pods {
        let mut byte = [0u8; 1];
        for p in 0..mib(64) / page {
            pod.vm
                .vm()
                .read_gpa(Gpa(heap_base.raw() + p * page), &mut byte)
                .map_err(|e| Error::Host(e.into()))?;
        }
    }
    let stats = host.fastiovd.stats();
    drop(handle);
    for pod in &pods {
        engine.teardown_pod(pod).map_err(Error::Startup)?;
    }
    Ok((stats.lazily_zeroed, stats.background_zeroed))
}

/// Maps `guest_bytes` of freshly allocated guest memory through one VFIO
/// container on a standalone allocator with every `frag_stride`-th frame
/// punched out. Returns the batches the retrieval loop collected.
fn fragmentation_case(page: PageSize, frag_stride: Option<usize>, guest_bytes: u64) -> Result<u64> {
    let clock = Clock::new_virtual(5e-3);
    let cpu = CpuPool::new(clock.clone(), 56);
    let membw = FairShareBandwidth::new(clock.clone(), 24.0e9, 0.6e9);
    let (retrieval_per_batch, pin_per_page) = (Duration::from_micros(30), Duration::from_micros(2));
    let costs = MemCosts {
        clock: clock.clone(),
        cpu,
        membw,
        retrieval_per_batch,
        pin_per_page,
    };
    let mem = PhysMemory::new(costs, page, page.pages_for(guest_bytes) * 3);
    if let Some(stride) = frag_stride {
        mem.inject_fragmentation(stride);
    }
    let aspace = AddressSpace::new(1, Arc::clone(&mem));
    let iommu = Iommu::new(
        clock,
        Duration::from_nanos(200),
        Duration::from_micros(1),
        64,
    );
    let container = VfioContainer::new(iommu.create_domain(page), aspace, FaultPlane::disabled());
    let hva = container
        .address_space()
        .mmap("ram", guest_bytes)
        .map_err(|e| Error::Host(e.into()))?;
    container
        .dma_map(hva, guest_bytes, Iova(0), DmaZeroMode::Eager)
        .map_err(|e| Error::Host(e.into()))?;
    Ok(mem.stats().batches_retrieved)
}

/// One scenario row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stable id, `<figure>.<cell>`: the paper figure, table or
    /// extension the row belongs to, then the cell.
    pub id: String,
    /// What it measures.
    pub run: Run,
}

fn row(figure: &str, cell: impl std::fmt::Display, run: Run) -> Row {
    Row {
        id: format!("{figure}.{cell}"),
        run,
    }
}

/// A launch wave of `b` at concurrency `conc`, id `<figure>.<label>@<conc>`.
fn wave(figure: &str, b: Baseline, conc: u32) -> Row {
    row(
        figure,
        key(b, conc),
        Run::Startup(ExperimentConfig::paper(b, conc)),
    )
}

/// Row-id cell of a baseline at a concurrency: `fastiov-l@200`.
fn key(b: Baseline, conc: u32) -> String {
    format!("{}@{conc}", b.label().to_ascii_lowercase())
}

/// Fig. 13c/16i–l: 192 GB of the 256 GB server and its 112 vCPUs divided
/// evenly (the rest covers image regions and host overhead).
fn fully_loaded(cfg: ExperimentConfig) -> ExperimentConfig {
    let n = cfg.concurrency;
    let (ram_bytes, vcpus) = ((gib(192) / u64::from(n)).min(gib(8)), 112.0 / f64::from(n));
    ExperimentConfig {
        ram_bytes,
        vcpus,
        ..cfg
    }
}

fn app_key(app: AppKind) -> String {
    app.name().to_ascii_lowercase()
}

const CONCS: [u32; 4] = [10, 50, 100, 200];
const FIG11: [Baseline; 10] = [
    Baseline::NoNet,
    Baseline::Vanilla,
    Baseline::FastIov,
    Baseline::FastIovMinusL,
    Baseline::FastIovMinusA,
    Baseline::FastIovMinusS,
    Baseline::FastIovMinusD,
    Baseline::Prezero(10),
    Baseline::Prezero(50),
    Baseline::Prezero(100),
];
/// Fig. 13b/16e–h resource levels at concurrency 50: (label, RAM, vCPUs).
/// Fig. 13b varies memory only.
const RESOURCES: [(&str, u64, f64); 3] =
    [("512mb", 512, 0.5), ("1gb", 1024, 1.0), ("2gb", 2048, 2.0)];
const FAULT_RATES: [(&str, f64); 3] = [("0pct", 0.0), ("1pct", 0.01), ("5pct", 0.05)];
const FRAGMENTATION: [(&str, Option<usize>); 3] =
    [("none", None), ("25pct", Some(4)), ("50pct", Some(2))];
const POOL: Baseline = Baseline::WarmPool(24);

/// The scenario table.
#[rustfmt::skip]
pub fn rows() -> Vec<Row> {
    use Baseline::*;
    let mut rows: Vec<Row> = [NoNet, Vanilla, FastIov].map(|b| wave("calibrate", b, 200)).to_vec();
    for conc in [10, 50, 100, 150, 200] {
        rows.extend([wave("fig01", NoNet, conc), wave("fig01", Vanilla, conc)]);
    }
    rows.extend([wave("fig05", Vanilla, 200), wave("tab1", Vanilla, 200)]);
    rows.extend(FIG11.map(|b| wave("fig11", b, 200)));
    rows.extend([NoNet, Vanilla, FastIov].map(|b| wave("fig12", b, 200)));
    for b in [Vanilla, FastIov] {
        for conc in CONCS {
            let full = Run::Startup(fully_loaded(ExperimentConfig::paper(b, conc)));
            rows.extend([wave("fig13", b, conc), row("fig13", format!("{}/full", key(b, conc)), full)]);
        }
        for (label, ram_mb, _) in RESOURCES {
            let run = Run::Startup(ExperimentConfig { ram_bytes: mib(ram_mb), ..ExperimentConfig::paper(b, 50) });
            rows.push(row("fig13", format!("{}/{label}", key(b, 50)), run));
        }
    }
    rows.extend([Vanilla, Ipvtap, FastIov].map(|b| wave("fig14", b, 200)));
    for b in [Vanilla, FastIov] {
        rows.push(row("sec65", b.label().to_ascii_lowercase(), Run::MemPerf(ExperimentConfig::paper(b, 1))));
    }
    for app in AppKind::ALL {
        let (fig15, fig16) = (format!("fig15.{}", app_key(app)), format!("fig16.{}", app_key(app)));
        for b in [Vanilla, FastIov] {
            rows.push(row(&fig15, key(b, 200), Run::App(ExperimentConfig::paper(b, 200), app)));
            for conc in CONCS {
                rows.push(row(&fig16, key(b, conc), Run::App(ExperimentConfig::paper(b, conc), app)));
                let full = Run::App(fully_loaded(ExperimentConfig::paper(b, conc)), app);
                rows.push(row(&fig16, format!("{}/full", key(b, conc)), full));
            }
            for (label, ram_mb, vcpus) in RESOURCES {
                let s = ExperimentConfig { ram_bytes: mib(ram_mb), vcpus, ..ExperimentConfig::paper(b, 50) };
                rows.push(row(&fig16, format!("{}/{label}", key(b, 50)), Run::App(s, app)));
            }
        }
    }
    rows.extend([Vanilla, FastIov, FastIovVdpa].map(|b| wave("ext_vdpa", b, 200)));
    for (b, rate) in [(Vanilla, 2.0), (FastIov, 2.0), (POOL, 2.0), (POOL, 16.0)] {
        let run = Run::Sustained(ExperimentConfig::paper(b, 96), rate);
        rows.push(row("ext_warmpool", format!("{}/{rate}per-s", key(b, 96)), run));
    }
    for conc in [50, 200] {
        for (label, rate) in FAULT_RATES {
            for b in [FastIov, WarmPool(conc as u16)] {
                // Smaller guests than the paper's measurement VMs: fault-plane
                // behaviour is RAM-independent and this keeps the 200-way
                // cells fast. No claim-time replenish nudges: background
                // provisioning driven by pool occupancy would consult the
                // plane on an interleaving-dependent schedule.
                let faults = if rate > 0.0 { FaultConfig::uniform(SEED, rate) } else { FaultConfig::disabled() };
                let (ram_bytes, image_bytes, pool_watermark) = (mib(128), mib(64), Some(0));
                let s = ExperimentConfig { ram_bytes, image_bytes, faults, pool_watermark, ..ExperimentConfig::paper(b, conc) };
                rows.push(row("ext_faults", format!("{}/{label}", key(b, conc)), Run::Faults(s)));
            }
        }
    }
    for (label, scrub) in [("off", false), ("on", true)] {
        rows.push(row("ablation_scrubber", label, Run::Scrubber(ExperimentConfig::paper(FastIov, 32), scrub)));
    }
    for (page, plabel) in [(PageSize::Size2M, "2m"), (PageSize::Size4K, "4k")] {
        for (flabel, stride) in FRAGMENTATION {
            rows.push(row("ablation_frag", format!("{plabel}/{flabel}"), Run::Fragmentation(page, stride)));
        }
    }
    rows
}

/// A claim's predicate over the model's value(s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pred {
    /// Every model value lies within [`BAND`] of the paper value.
    Near(f64),
    /// Every model value is at most this bound.
    AtMost(f64),
    /// Every model value is at least this bound.
    AtLeast(f64),
    /// The model values, in order, satisfy a ranking such as
    /// `"L < A < D ≤ S < FastIOV"`: labels separated by `<` or `≤`.
    Order(&'static str),
}

impl Pred {
    /// True if `model` satisfies the predicate. An empty or NaN model
    /// never does.
    pub fn holds(&self, model: &[f64]) -> bool {
        if model.is_empty() {
            return false;
        }
        match *self {
            Pred::Near(p) => model.iter().all(|m| (m - p).abs() <= BAND * p.abs()),
            Pred::AtMost(x) => model.iter().all(|&m| m <= x),
            Pred::AtLeast(x) => model.iter().all(|&m| m >= x),
            Pred::Order(spec) => {
                let rels: Vec<&str> = spec.split_whitespace().skip(1).step_by(2).collect();
                rels.len() + 1 == model.len()
                    && rels
                        .iter()
                        .zip(model.windows(2))
                        .all(|(rel, w)| match *rel {
                            "<" => w[0] < w[1],
                            "≤" => w[0] <= w[1],
                            _ => false,
                        })
            }
        }
    }

    fn render(&self, unit: &str) -> String {
        match *self {
            Pred::Near(p) => format!("within {:.0} % of {}", BAND * 100.0, fmt(p, unit)),
            Pred::AtMost(x) => format!("≤ {}", fmt(x, unit)),
            Pred::AtLeast(x) => format!("≥ {}", fmt(x, unit)),
            Pred::Order(spec) => spec.to_string(),
        }
    }
}

/// Formats a value at the precision its unit is reported in.
fn fmt(v: f64, unit: &str) -> String {
    match unit {
        "s" => format!("{v:.2}"),
        "%" => format!("{v:.1}"),
        "count" => format!("{v:.0}"),
        _ => format!("{v:.3}"),
    }
}

/// Where a claim's expectation comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// A value, bound or relation the paper states, optionally citing the
    /// DESIGN.md §8 deviation (`D1`…) that explains a failure.
    Paper(Option<&'static str>),
    /// An acceptance threshold of an extension. It never carries a
    /// deviation: a failure is always ❌.
    Acceptance,
}

/// A claim's status: ✅ if its predicate holds, 🔶 if it fails and cites
/// a deviation, ❌ otherwise.
pub fn status(holds: bool, basis: Basis) -> &'static str {
    match (holds, basis) {
        (true, _) => "✅",
        (false, Basis::Paper(Some(_))) => "🔶",
        (false, _) => "❌",
    }
}

/// Measured rows: metrics keyed by row id.
pub type Results = BTreeMap<String, Metrics>;

fn metric(r: &Results, row: &str, name: &str) -> f64 {
    let value = r.get(row).and_then(|m| m.get(name));
    *value.unwrap_or_else(|| panic!("row {row} has no metric {name} (or was not measured)"))
}

/// A model value: an expression over measured rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A metric of a row.
    Get(String, String),
    /// Percent reduction (cut) of a metric against the same metric of a
    /// base row.
    Cut(String, String, String),
    /// Percent increase (rise) of a metric over the same metric of a base
    /// row.
    Rise(String, String, String),
    /// A metric minus the same metric of a base row.
    Diff(String, String, String),
    /// Percent share of a metric in the row's average startup time.
    Share(String, String),
    /// Sum of the terms.
    Sum(Vec<Expr>),
    /// Largest of the terms.
    Max(Vec<Expr>),
    /// Fault sites with any retry or fallback across the rows.
    RecoverySites(Vec<String>),
}

impl Expr {
    /// Evaluates the expression.
    ///
    /// # Panics
    /// If a row it reads is not in `r` or lacks the metric.
    pub fn eval(&self, r: &Results) -> f64 {
        match self {
            Expr::Get(row, m) => metric(r, row, m),
            Expr::Cut(row, base, m) => 100.0 * (1.0 - metric(r, row, m) / metric(r, base, m)),
            Expr::Rise(row, base, m) => 100.0 * (metric(r, row, m) / metric(r, base, m) - 1.0),
            Expr::Diff(row, base, m) => metric(r, row, m) - metric(r, base, m),
            Expr::Share(row, m) => 100.0 * metric(r, row, m) / metric(r, row, "avg"),
            Expr::Sum(terms) => terms.iter().map(|e| e.eval(r)).sum(),
            Expr::Max(terms) => terms.iter().map(|e| e.eval(r)).fold(f64::MIN, f64::max),
            Expr::RecoverySites(rows) => {
                let mut sites = BTreeMap::<&str, f64>::new();
                for row in rows {
                    for (k, v) in r.get(row).into_iter().flatten() {
                        let site = k.strip_prefix("site.").and_then(|k| {
                            k.strip_suffix(".retries").or(k.strip_suffix(".fallbacks"))
                        });
                        if let Some(site) = site {
                            *sites.entry(site).or_default() += v;
                        }
                    }
                }
                sites.values().filter(|&&n| n > 0.0).count() as f64
            }
        }
    }

    /// The ids of the rows the expression reads.
    pub fn rows(&self) -> Vec<&str> {
        match self {
            Expr::Get(row, _) | Expr::Share(row, _) => vec![row],
            Expr::Cut(row, base, _) | Expr::Rise(row, base, _) | Expr::Diff(row, base, _) => {
                vec![row, base]
            }
            Expr::Sum(terms) | Expr::Max(terms) => terms.iter().flat_map(Expr::rows).collect(),
            Expr::RecoverySites(rows) => rows.iter().map(String::as_str).collect(),
        }
    }
}

fn get(row: String, m: &str) -> Expr {
    Expr::Get(row, m.into())
}

fn cut(row: String, base: String, m: &str) -> Expr {
    Expr::Cut(row, base, m.into())
}

fn rise(row: String, base: String, m: &str) -> Expr {
    Expr::Rise(row, base, m.into())
}

fn stage(name: &str) -> String {
    format!("stage.{name}")
}

/// One checked statement of the paper.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable id, `<figure>.<name>`. The figure key also names the
    /// `EXPERIMENTS.md` block the claim renders in.
    pub id: String,
    /// The paper's value or statement, as printed.
    pub paper: String,
    /// Unit of the model value(s): `s`, `%`, `count` or `ratio`.
    pub unit: &'static str,
    /// The predicate over the model value(s).
    pub pred: Pred,
    /// Paper statement (with optional deviation) or acceptance threshold.
    pub basis: Basis,
    /// The model value(s), one expression each; they name the rows read.
    pub model: Vec<Expr>,
}

fn claim(id: &str, unit: &'static str, pred: Pred, model: Vec<Expr>) -> Claim {
    let paper = match pred {
        Pred::Near(p) => fmt(p, unit),
        _ => pred.render(unit),
    };
    Claim {
        id: id.to_string(),
        paper,
        unit,
        pred,
        basis: Basis::Paper(None),
        model,
    }
}

impl Claim {
    /// The ids of the rows the claim reads.
    pub fn rows(&self) -> Vec<&str> {
        self.model.iter().flat_map(Expr::rows).collect()
    }

    /// Replaces the paper column, for relations the paper states in words.
    fn paper(mut self, text: &str) -> Claim {
        self.paper = text.to_string();
        self
    }

    /// Cites a DESIGN.md §8 deviation.
    fn dev(mut self, id: &'static str) -> Claim {
        self.basis = Basis::Paper(Some(id));
        self
    }

    fn acceptance(mut self) -> Claim {
        self.basis = Basis::Acceptance;
        self.paper = "—".to_string();
        self
    }

    /// Evaluates the claim on `results`, which must hold its rows.
    pub fn evaluate(&self, results: &Results) -> Record {
        let model: Vec<f64> = self.model.iter().map(|e| e.eval(results)).collect();
        let status = status(self.pred.holds(&model), self.basis);
        let shown: Vec<String> = model.iter().map(|&v| fmt(v, self.unit)).collect();
        Record {
            id: self.id.clone(),
            figure: self.id.split('.').next().unwrap_or_default().to_string(),
            paper: self.paper.clone(),
            model: shown.join(", "),
            unit: self.unit.to_string(),
            predicate: self.pred.render(self.unit),
            status: status.to_string(),
            deviation: match (status, self.basis) {
                ("🔶", Basis::Paper(d)) => d.map(String::from),
                _ => None,
            },
        }
    }
}

/// Row id of `b` at `conc` under `figure`, plus an optional cell suffix.
fn at(figure: &str, b: Baseline, conc: u32, suffix: &str) -> String {
    format!("{figure}.{}{suffix}", key(b, conc))
}

/// The claim table. Deviation ids refer to DESIGN.md §8.
#[rustfmt::skip]
pub fn claims() -> Vec<Claim> {
    use AppKind::{Compression, Image, Inference, Scientific};
    use Baseline::*;
    use Pred::*;
    let (s, pct, count, ratio) = ("s", "%", "count", "ratio");

    // Headline numbers (abstract) and the absolute 200-way averages.
    let cal = |b| at("calibrate", b, 200, "");
    let cal_red = |m| vec![cut(cal(FastIov), cal(Vanilla), m)];
    let mut c = vec![
        claim("calibrate.no-net-avg", s, Near(4.0), vec![get(cal(NoNet), "avg")]),
        claim("calibrate.vanilla-avg", s, Near(16.2), vec![get(cal(Vanilla), "avg")]),
        claim("calibrate.fastiov-avg", s, Near(5.6), vec![get(cal(FastIov), "avg")]).dev("D2"),
        claim("calibrate.vf-reduction", pct, Near(96.1), cal_red("vf")),
        claim("calibrate.avg-reduction", pct, Near(65.7), cal_red("avg")),
        claim("calibrate.p99-reduction", pct, Near(75.4), cal_red("p99")),
        claim("calibrate.fastiov-vs-no-net", pct, Near(39.1), vec![rise(cal(FastIov), cal(NoNet), "avg")])
            .dev("D2"),
    ];

    // Fig. 1: SR-IOV enablement overhead vs concurrency.
    let f1 = |b, n| at("fig01", b, n, "");
    let overhead = |n| Expr::Diff(f1(Vanilla, n), f1(NoNet, n), "avg".into());
    let overheads = [10, 50, 100, 150, 200].map(overhead).to_vec();
    c.extend([
        claim("fig01.overhead-200", s, Near(12.2), vec![overhead(200)]),
        claim("fig01.overhead-pct-200", pct, Near(305.0), vec![rise(f1(Vanilla, 200), f1(NoNet, 200), "avg")]),
        claim("fig01.overhead-grows", s, Order("10 < 50 < 100 < 150 < 200"), overheads)
            .paper("grows with concurrency"),
        claim("fig01.no-net-floor", s, Near(0.46), vec![get(f1(NoNet, 10), "min")]).dev("D3"),
    ]);

    // Fig. 5: the fastest and slowest container of the 200-way wave.
    let f5 = || at("fig05", Vanilla, 200, "");
    c.extend([
        claim("fig05.fastest", s, Near(3.8), vec![get(f5(), "min")]).dev("D11"),
        claim("fig05.slowest", s, Near(20.0), vec![get(f5(), "max")]).paper("≈ 20"),
    ]);

    // Tab. 1: stage shares of the average startup time.
    let t1 = |m: &str| vec![Expr::Share(at("tab1", Vanilla, 200, ""), m.into())];
    c.extend([
        claim("tab1.0-cgroup", pct, Near(2.9), t1(&stage(stages::CGROUP))),
        claim("tab1.1-dma-ram", pct, Near(13.0), t1(&stage(stages::DMA_RAM))).dev("D4"),
        claim("tab1.2-virtiofs", pct, Near(13.3), t1(&stage(stages::VIRTIOFS))).dev("D5"),
        claim("tab1.3-dma-image", pct, Near(5.6), t1(&stage(stages::DMA_IMAGE))),
        claim("tab1.4-vfio-dev", pct, Near(48.1), t1(&stage(stages::VFIO_DEV))),
        claim("tab1.5-vf-driver", pct, Near(3.4), t1(&stage(stages::VF_DRIVER))),
        claim("tab1.vf-related", pct, Near(70.1), t1("vf")),
    ]);

    // Fig. 11: reductions vs vanilla across the baselines.
    let f11 = |b| at("fig11", b, 200, "");
    let r11 = |b| cut(f11(b), f11(Vanilla), "avg");
    let ranking = [FastIovMinusL, FastIovMinusA, FastIovMinusD, FastIovMinusS, FastIov].map(r11).to_vec();
    c.extend([
        claim("fig11.minus-l", pct, Near(21.8), vec![r11(FastIovMinusL)]),
        claim("fig11.minus-a", pct, Near(40.3), vec![r11(FastIovMinusA)]).dev("D11"),
        claim("fig11.minus-s", pct, Near(58.2), vec![r11(FastIovMinusS)]).dev("D11"),
        claim("fig11.minus-d", pct, Near(43.7), vec![r11(FastIovMinusD)]).dev("D1"),
        claim("fig11.order", pct, Order("L < A < D < S < FastIOV"), ranking),
        claim("fig11.vs-pre100", pct, Near(56.4), vec![cut(f11(FastIov), f11(Prezero(100)), "avg")]),
        claim("fig11.prezero", pct, AtMost(21.0), [10, 50, 100].map(|f| r11(Prezero(f))).to_vec())
            .paper("≈ 13–21").dev("D4"),
    ]);

    // Fig. 12: tails against the no-network p99.
    let f12 = |b| rise(at("fig12", b, 200, ""), at("fig12", NoNet, 200, ""), "p99");
    c.extend([
        claim("fig12.vanilla-p99-over-no-net", pct, Near(354.5), vec![f12(Vanilla)]),
        claim("fig12.fastiov-p99-over-no-net", pct, Near(11.6), vec![f12(FastIov)]).dev("D2"),
    ]);

    // Fig. 13: (a) concurrency, (b) memory at concurrency 50, (c) a fully
    // loaded server.
    let r13 = |n, sfx| cut(at("fig13", FastIov, n, sfx), at("fig13", Vanilla, n, sfx), "avg");
    let growth = |b| vec![rise(at("fig13", b, 50, "/2gb"), at("fig13", b, 50, "/512mb"), "avg")];
    c.extend([
        claim("fig13.a-reduction-10", pct, Near(46.7), vec![r13(10, "")]),
        claim("fig13.a-reduction-200", pct, Near(65.6), vec![r13(200, "")]),
        claim("fig13.a-grows", pct, Order("10 < 50 < 100 < 200"), CONCS.map(|n| r13(n, "")).to_vec())
            .paper("46.7 → 65.6, grows with concurrency"),
        claim("fig13.b-vanilla-growth", pct, Near(60.5), growth(Vanilla)),
        claim("fig13.b-fastiov-growth", pct, Near(21.5), growth(FastIov)).dev("D7"),
        claim("fig13.c-reduction-200", pct, Near(65.7), vec![r13(200, "/full")]),
        claim("fig13.c-reduction-10", pct, Near(79.5), vec![r13(10, "/full")]),
        claim("fig13.c-rises-as-conc-drops", pct, Order("200 < 100 < 50 < 10"),
              [200, 100, 50, 10].map(|n| r13(n, "/full")).to_vec())
            .paper("65.7 → 79.5 as concurrency drops"),
    ]);

    // Fig. 14: software CNI. Every wave launches the same 200 containers,
    // so the model's total margin equals its average margin.
    let f14 = |b| at("fig14", b, 200, "");
    let margin = || vec![cut(f14(FastIov), f14(Ipvtap), "avg")];
    let cni = |b| Expr::Sum(vec![get(f14(b), &stage(stages::ADD_CNI)), get(f14(b), &stage(stages::CGROUP))]);
    c.extend([
        claim("fig14.order", s, Order("FastIOV < IPvtap < Vanilla"),
              [FastIov, Ipvtap, Vanilla].map(|b| get(f14(b), "avg")).to_vec()),
        claim("fig14.avg-margin", pct, Near(31.8), margin()).dev("D6"),
        claim("fig14.total-margin", pct, Near(41.3), margin()).dev("D6"),
        claim("fig14.ipvtap-cost", s, Order("FastIOV < IPvtap"), vec![cni(FastIov), cni(Ipvtap)])
            .paper("IPvtap pays in addCNI + cgroup"),
    ]);

    // §6.5: in-guest memory access performance.
    let mp = |m| vec![rise("sec65.fastiov".into(), "sec65.vanilla".into(), m)];
    c.extend([
        claim("sec65.steady-degradation", pct, AtMost(1.0), mp("steady_ms")).paper("< 1"),
        claim("sec65.random-degradation", pct, AtMost(1.0), mp("random_ms")).paper("< 1"),
        claim("sec65.cold-lazy-zeroing", count, AtLeast(1.0), vec![get("sec65.fastiov".into(), "lazily_zeroed")])
            .paper("zeroing moves to first touch"),
    ]);

    // Fig. 15: serverless completion at concurrency 200.
    let r15 = |app, m| {
        let cell = |b| at(&format!("fig15.{}", app_key(app)), b, 200, "");
        cut(cell(FastIov), cell(Vanilla), m)
    };
    let shrinking = [Inference, Scientific, Compression, Image].map(|a| r15(a, "avg")).to_vec();
    c.extend([
        claim("fig15.image-avg", pct, Near(53.5), vec![r15(Image, "avg")]),
        claim("fig15.inference-avg", pct, Near(12.1), vec![r15(Inference, "avg")]),
        claim("fig15.image-p99", pct, Near(53.7), vec![r15(Image, "p99")]),
        claim("fig15.inference-p99", pct, Near(20.3), vec![r15(Inference, "p99")]),
        claim("fig15.decreasing", pct, Order("Inference < Scientific < Compression < Image"), shrinking)
            .paper("shrinks Image → Inference"),
    ]);

    // Fig. 16: per app, (a–d) R-ratio vs concurrency, (e–h) FastIOV with
    // 4× resources, (i–l) a fully loaded server.
    for app in AppKind::ALL {
        let name = app_key(app);
        let cell = |b, n, sfx| at(&format!("fig16.{name}"), b, n, sfx);
        let r16 = |n, sfx| cut(cell(FastIov, n, sfx), cell(Vanilla, n, sfx), "avg");
        let full = vec![Expr::Max([50, 100, 200].map(|n| r16(n, "/full")).to_vec()), r16(10, "/full")];
        let resources = vec![get(cell(FastIov, 50, "/2gb"), "avg"), get(cell(FastIov, 50, "/512mb"), "avg")];
        c.extend([
            claim(&format!("fig16.{name}-conc"), pct, Order("10 < 50 < 100 < 200"), CONCS.map(|n| r16(n, "")).to_vec())
                .paper("R-ratio grows with concurrency"),
            claim(&format!("fig16.{name}-resources"), s, Order("2GB/2c ≤ 512MB/0.5c"), resources)
                .paper("FastIOV flat or ↓ with 4× resources"),
            claim(&format!("fig16.{name}-full"), pct, Order("others < 10"), full)
                .paper("largest at low concurrency"),
        ]);
    }

    // §7 extension: vDPA-mediated VFs.
    let fv = |m: &str| [FastIovVdpa, Vanilla].map(|b| get(at("ext_vdpa", b, 200, ""), m)).to_vec();
    c.extend([
        claim("ext_vdpa.below-vanilla", s, Order("FastIOV+vDPA < Vanilla"), fv("avg"))
            .paper("open question (§7)"),
        claim("ext_vdpa.probe-below-vendor-driver", s, Order("FastIOV+vDPA < Vanilla"), fv(&stage(stages::VF_DRIVER)))
            .paper("vDPA drops the vendor VF driver (§7)"),
    ]);

    // Extensions with acceptance thresholds: warm pool under sustained
    // arrivals, fault injection and self-healing startup.
    let wp = |b, rate| at("ext_warmpool", b, 96, &format!("/{rate}per-s"));
    let pooled = |m| vec![get(wp(POOL, 2.0), m), get(wp(FastIov, 2.0), m)];
    let streams = [(Vanilla, 2.0), (FastIov, 2.0), (POOL, 2.0), (POOL, 16.0)];
    let cells = |rates: &[&str]| -> Vec<String> {
        let cell = |conc, rate, b| at("ext_faults", b, conc, &format!("/{rate}"));
        [50, 200].iter().flat_map(|&n| {
            rates.iter().flat_map(move |r| [cell(n, r, FastIov), cell(n, r, WarmPool(n as u16))])
        }).collect()
    };
    let sum = |rows: Vec<String>, metrics: &[&str]| {
        Expr::Sum(rows.iter().flat_map(|r| metrics.iter().map(|m| get(r.clone(), m))).collect())
    };
    let faulted = || cells(&["1pct", "5pct"]);
    c.extend([
        claim("ext_warmpool.hit-rate", ratio, AtLeast(0.9), vec![get(wp(POOL, 2.0), "hit_rate")]).acceptance(),
        claim("ext_warmpool.pooled-avg", s, Order("pooled < cold"), pooled("avg")).acceptance(),
        claim("ext_warmpool.pooled-p99", s, Order("pooled < cold"), pooled("p99")).acceptance(),
        claim("ext_warmpool.no-failures", count, AtMost(0.0), streams.map(|(b, r)| get(wp(b, r), "failed")).to_vec())
            .acceptance(),
        claim("ext_faults.goodput-1pct", ratio, AtLeast(0.99), cells(&["1pct"]).into_iter().map(|r| get(r, "goodput")).collect())
            .acceptance(),
        claim("ext_faults.recovery-sites", count, AtLeast(3.0), vec![Expr::RecoverySites(faulted())]).acceptance(),
        claim("ext_faults.no-launch-panic", count, AtMost(0.0), vec![sum(faulted(), &["panics"])]).acceptance(),
        claim("ext_faults.fault-free-clean", count, AtMost(0.0), vec![sum(cells(&["0pct"]), &["failed", "injected"])])
            .acceptance(),
    ]);

    // §5 and P2 ablations.
    let sc = |cell: &str, m| get(format!("ablation_scrubber.{cell}"), m);
    let fr = |cell: &str| get(format!("ablation_frag.{cell}"), "batches");
    c.extend([
        claim("ablation_scrubber.fewer-fault-zeroings", count, Order("with < without"),
              vec![sc("on", "lazy"), sc("off", "lazy")])
            .paper("scrubber overlaps zeroing (§5)"),
        claim("ablation_scrubber.background", count, AtLeast(1.0), vec![sc("on", "background")])
            .paper("scrubber zeroes idle pages (§5)"),
        claim("ablation_frag.4k-fragmentation", count, Order("none < 25% < 50%"),
              vec![fr("4k/none"), fr("4k/25pct"), fr("4k/50pct")])
            .paper("fragmentation multiplies batches (§3.2.3)"),
        claim("ablation_frag.hugepages", count, Order("2M < 4K"), vec![fr("2m/50pct"), fr("4k/50pct")])
            .paper("hugepages mitigate P2 (§3.2.3)"),
        claim("ablation_frag.2m-contiguous", count, AtMost(1.0), vec![fr("2m/none")])
            .paper("one batch when contiguous"),
    ]);
    c
}

/// One `RESULTS.json` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Claim id.
    pub id: String,
    /// Figure key.
    pub figure: String,
    /// Paper value or statement.
    pub paper: String,
    /// Model value(s), comma-separated.
    pub model: String,
    /// Unit.
    pub unit: String,
    /// Rendered predicate.
    pub predicate: String,
    /// ✅, 🔶 or ❌.
    pub status: String,
    /// Cited DESIGN.md §8 deviation, when the status is 🔶.
    pub deviation: Option<String>,
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect();
    format!("\"{escaped}\"")
}

/// A JSON number if `s` reads as a finite number, else a JSON string.
fn json_value(s: &str) -> String {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && !s.starts_with('+') && !s.ends_with('.') => s.to_string(),
        _ => json_str(s),
    }
}

impl Record {
    /// One flat JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"figure\":{},\"paper\":{},\"model\":{},\"unit\":{},\"predicate\":{},\
             \"status\":{},\"deviation\":{}}}",
            json_str(&self.id),
            json_str(&self.figure),
            json_value(&self.paper),
            json_value(&self.model),
            json_str(&self.unit),
            json_str(&self.predicate),
            json_str(&self.status),
            self.deviation.as_deref().map_or("null".into(), json_str),
        )
    }

    /// Parses a line written by [`Record::to_json`].
    pub fn from_json(line: &str) -> Option<Record> {
        let fields = parse_flat_object(line)?;
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        Some(Record {
            id: get("id")??,
            figure: get("figure")??,
            paper: get("paper")??,
            model: get("model")??,
            unit: get("unit")??,
            predicate: get("predicate")??,
            status: get("status")??,
            deviation: get("deviation")?,
        })
    }
}

/// Parses `{"k":v,…}` whose values are strings, numbers or `null`.
/// Numbers come back as their source text, `null` as `None`.
fn parse_flat_object(line: &str) -> Option<Vec<(String, Option<String>)>> {
    let mut chars = line.trim().chars().peekable();
    let string = |chars: &mut std::iter::Peekable<std::str::Chars>| -> Option<String> {
        let mut s = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(s),
                '\\' => match chars.next()? {
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        s.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    c => s.push(c),
                },
                c => s.push(c),
            }
        }
    };
    let mut fields = Vec::new();
    (chars.next()? == '{').then_some(())?;
    loop {
        (chars.next()? == '"').then_some(())?;
        let key = string(&mut chars)?;
        (chars.next()? == ':').then_some(())?;
        let value = if chars.peek() == Some(&'"') {
            chars.next();
            Some(string(&mut chars)?)
        } else {
            let raw: String =
                std::iter::from_fn(|| chars.next_if(|c| !matches!(c, ',' | '}'))).collect();
            (raw != "null").then_some(raw)
        };
        fields.push((key, value));
        match chars.next()? {
            ',' => continue,
            '}' => return Some(fields),
            _ => return None,
        }
    }
}

/// Parses `RESULTS.json`. Lines that do not parse are skipped.
pub fn parse_results(text: &str) -> Vec<Record> {
    text.lines().filter_map(Record::from_json).collect()
}

/// Merges `fresh` records into an existing `RESULTS.json` (empty for a
/// full run): lines whose id is in `fresh` are replaced, every other line
/// is kept byte-for-byte, and fresh records with new ids are appended.
pub fn merge_results(old: &str, fresh: &[Record]) -> String {
    let mut used = vec![false; fresh.len()];
    let mut out = String::new();
    for line in old.lines() {
        let hit = Record::from_json(line).and_then(|r| fresh.iter().position(|f| f.id == r.id));
        match hit {
            Some(i) => {
                out.push_str(&fresh[i].to_json());
                used[i] = true;
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    for (r, _) in fresh.iter().zip(&used).filter(|(_, &u)| !u) {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

const BLOCK_END: &str = "<!-- /results -->";

/// The markdown table of one figure's records.
pub fn render_table(records: &[Record], figure: &str) -> String {
    let mut out = String::from(
        "| Claim | Paper | Model | Unit | Predicate | Status |\n|---|---|---|---|---|---|\n",
    );
    for r in records.iter().filter(|r| r.figure == figure) {
        let status = match &r.deviation {
            Some(d) => format!("{} {d}", r.status),
            None => r.status.clone(),
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            r.id, r.paper, r.model, r.unit, r.predicate, status
        );
    }
    out
}

/// Re-renders every `<!-- results:<figure> -->` … `<!-- /results -->`
/// block of `md` from `records`; everything outside the blocks is kept.
pub fn render_blocks(md: &str, records: &[Record]) -> String {
    let mut out = String::new();
    let mut lines = md.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(figure) = line
            .strip_prefix("<!-- results:")
            .and_then(|rest| rest.strip_suffix(" -->"))
        else {
            continue;
        };
        out.push_str(&render_table(records, figure));
        for skipped in lines.by_ref() {
            if skipped == BLOCK_END {
                out.push_str(BLOCK_END);
                out.push('\n');
                break;
            }
        }
    }
    out
}

/// Figure keys of every `<!-- results:<figure> -->` block in `md`.
pub fn block_figures(md: &str) -> Vec<&str> {
    md.lines()
        .filter_map(|l| l.strip_prefix("<!-- results:")?.strip_suffix(" -->"))
        .collect()
}

/// Runs every row the claims whose id starts with `only` read, in table
/// order and one at a time, then evaluates those claims. Progress goes to
/// stderr. Identical runs are measured once.
pub fn reproduce(only: &str) -> Result<Vec<Record>> {
    let claims: Vec<Claim> = claims()
        .into_iter()
        .filter(|c| c.id.starts_with(only))
        .collect();
    if claims.is_empty() {
        return Err(Error::Empty);
    }
    let needed: std::collections::BTreeSet<&str> = claims.iter().flat_map(Claim::rows).collect();
    let mut measured: Vec<(String, Metrics)> = Vec::new();
    let mut results = Results::new();
    for row in rows()
        .into_iter()
        .filter(|r| needed.contains(r.id.as_str()))
    {
        let run = format!("{:?}", row.run);
        let metrics = match measured.iter().find(|(r, _)| *r == run) {
            Some((_, m)) => m.clone(),
            None => {
                let t0 = WallStopwatch::start();
                let m = row.run.measure()?;
                eprintln!("{:<48} {:>6.1}s", row.id, t0.elapsed().as_secs_f64());
                measured.push((run, m.clone()));
                m
            }
        };
        results.insert(row.id, metrics);
    }
    Ok(claims.iter().map(|c| c.evaluate(&results)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, status: &str) -> Record {
        Record {
            id: id.into(),
            figure: id.split('.').next().unwrap().into(),
            paper: "65.7".into(),
            model: "70.1, \"x\"".into(),
            unit: "%".into(),
            predicate: "within 25 % of 65.7".into(),
            status: status.into(),
            deviation: None,
        }
    }

    #[test]
    fn predicates() {
        let near = Pred::Near(100.0);
        assert!(near.holds(&[75.0]) && near.holds(&[125.0]));
        assert!(!near.holds(&[74.9]) && !near.holds(&[125.1]));
        assert!(!near.holds(&[]) && !near.holds(&[f64::NAN]));
        assert!(
            Pred::AtLeast(0.99).holds(&[1.0, 0.99]) && !Pred::AtLeast(0.99).holds(&[1.0, 0.98])
        );
        assert!(Pred::AtMost(0.0).holds(&[0.0]) && !Pred::AtMost(0.0).holds(&[1.0]));
        let strict = Pred::Order("L < A < D");
        assert!(strict.holds(&[1.0, 2.0, 3.0]) && !strict.holds(&[1.0, 2.0, 2.0]));
        assert!(!strict.holds(&[1.0, 2.0]), "arity must match the labels");
        let loose = Pred::Order("L < A ≤ D");
        assert!(loose.holds(&[1.0, 2.0, 2.0]) && !loose.holds(&[1.0, 2.0, 1.5]));
    }

    #[test]
    fn status_follows_basis() {
        assert_eq!(status(true, Basis::Paper(None)), "✅");
        assert_eq!(status(false, Basis::Paper(Some("D1"))), "🔶");
        assert_eq!(status(false, Basis::Paper(None)), "❌");
        assert_eq!(status(true, Basis::Acceptance), "✅");
        assert_eq!(status(false, Basis::Acceptance), "❌");
    }

    #[test]
    fn acceptance_claims_are_never_deviations() {
        let row = || "x.row".to_string();
        let cl = claim("x.y", "%", Pred::AtLeast(1.0), vec![get(row(), "v")]).dev("D1");
        let results = Results::from([(row(), Metrics::from([("v".to_string(), 0.0)]))]);
        assert_eq!(cl.evaluate(&results).status, "🔶");
        let r = cl.acceptance().evaluate(&results);
        assert_eq!((r.status.as_str(), r.deviation), ("❌", None));
        for c in claims() {
            if c.id.starts_with("ext_faults.") || c.id.starts_with("ext_warmpool.") {
                assert_eq!(c.basis, Basis::Acceptance, "{}", c.id);
            }
        }
    }

    #[test]
    fn record_json_round_trips() {
        let mut r = record("fig11.order", "🔶");
        r.deviation = Some("D1".into());
        let line = r.to_json();
        assert!(line.contains("\"paper\":65.7,"), "{line}");
        assert_eq!(Record::from_json(&line), Some(r));
    }

    #[test]
    fn only_merge_replaces_matching_lines_and_keeps_the_rest() {
        let old = "{\"id\":\"a.1\",\"figure\":\"a\", \"odd\":\"spacing kept\"}\n\
                   not json at all\n"
            .to_string()
            + &record("b.1", "✅").to_json()
            + "\n";
        let fresh = [record("b.1", "❌"), record("c.1", "✅")];
        let merged = merge_results(&old, &fresh);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(lines[0], old.lines().next().unwrap());
        assert_eq!(lines[1], "not json at all");
        assert_eq!(lines[2], fresh[0].to_json());
        assert_eq!(lines[3], fresh[1].to_json());
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn blocks_are_rerendered_and_prose_is_kept() {
        let md = "# T\nprose\n<!-- results:fig11 -->\nstale\n<!-- /results -->\ntail\n";
        let out = render_blocks(md, &[record("fig11.order", "✅"), record("fig12.x", "✅")]);
        assert!(out.starts_with("# T\nprose\n<!-- results:fig11 -->\n| Claim |"));
        assert!(out.contains("| `fig11.order` | 65.7 |"));
        assert!(!out.contains("stale") && !out.contains("fig12.x"));
        assert!(out.ends_with("<!-- /results -->\ntail\n"));
        assert_eq!(render_blocks(&out, &[record("fig11.order", "✅")]), out);
    }

    #[test]
    fn every_row_builds_a_valid_config_and_ids_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for row in rows() {
            assert!(seen.insert(row.id.clone()), "duplicate row {}", row.id);
            let Some(cfg) = row.run.config() else {
                continue;
            };
            let id = &row.id;
            assert!(cfg.concurrency >= 1 && cfg.vcpus > 0.0, "{id}");
            assert!((mib(64)..=gib(8)).contains(&cfg.ram_bytes), "{id}");
            assert!(cfg.image_bytes > 0, "{id}");
            let faulted = id.starts_with("ext_faults.") && !id.ends_with("/0pct");
            assert_eq!(!cfg.faults.is_disabled(), faulted, "{id}");
        }
    }

    #[test]
    fn claims_read_existing_rows_and_metrics() {
        let rows = rows();
        // Every metric some row kind produces.
        let metrics: Metrics = "avg p99 min max vf hit_rate failed goodput panics injected \
             steady_ms random_ms lazily_zeroed lazy background batches stage.addCNI \
             stage.0-cgroup stage.1-dma-ram stage.2-virtiofs stage.3-dma-image \
             stage.4-vfio-dev stage.5-vf-driver"
            .split_whitespace()
            .map(|m| (m.to_string(), 1.0))
            .collect();
        let mut ids = std::collections::BTreeSet::new();
        for c in claims() {
            assert!(ids.insert(c.id.clone()), "duplicate claim {}", c.id);
            assert!(!c.rows().is_empty(), "{} reads no row", c.id);
            let mut fake = Results::new();
            for id in c.rows() {
                assert!(rows.iter().any(|r| r.id == id), "{}: no row {id}", c.id);
                fake.insert(id.to_string(), metrics.clone());
            }
            // Panics on a metric no row kind produces.
            c.evaluate(&fake);
        }
    }
}
