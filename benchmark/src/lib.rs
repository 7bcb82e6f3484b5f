//! Startup benchmark of the FastIOV reproduction.
//!
//! Four seeded workloads run through the public API of the `fastiov`
//! crate, end to end with tracing off and layer by layer in a separate
//! traced run. `README.md` beside this crate says why each workload was
//! chosen and which end-to-end metric each layer metric should move.

pub mod catalog;
pub mod probe;
pub mod spans;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Kind, Spec, Wave};

/// The paper's Tab. 1: mean share (%) of each stage in vanilla startup at
/// concurrency 200. Printed beside the model's shares as information; the
/// model was calibrated on these numbers.
pub const TAB1: &[(&str, f64)] = &[
    ("0-cgroup", 2.9),
    ("1-dma-ram", 13.0),
    ("2-virtiofs", 13.3),
    ("3-dma-image", 5.6),
    ("4-vfio-dev", 48.1),
    ("5-vf-driver", 3.4),
];

/// The paper's vanilla 200-way mean startup, in seconds.
pub const PAPER_VANILLA_MEAN_S: f64 = 16.2;

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Pods or tasks attempted over every wave.
    pub attempted: u64,
    /// Pods or tasks that failed.
    pub failed: u64,
    /// Broken correctness checks.
    pub violations: Vec<String>,
    /// Reported metrics with their units.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Per-layer metrics this workload does not exercise (reported as 0).
    pub unexercised: Vec<String>,
    /// Waves run (traced, untraced).
    pub waves: (usize, usize),
    /// Medians of the untraced waves' reference figures.
    pub reference: BTreeMap<&'static str, f64>,
}

fn medians<'a, K: Ord + Clone + 'a>(
    maps: impl IntoIterator<Item = &'a BTreeMap<K, f64>>,
) -> BTreeMap<K, f64> {
    let mut values: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for m in maps {
        for (k, &v) in m {
            values.entry(k.clone()).or_default().push(v);
        }
    }
    values
        .into_iter()
        .map(|(k, vs)| (k, stats::median(&vs)))
        .collect()
}

/// Runs hosts of `spec` for `seconds` of host time, but at least two of
/// them, and reports medians over their waves (`setup_s`: over hosts). A
/// further host starts only if the last one's duration still fits. With
/// `trace`, hosts alternate between traced and untraced, starting traced:
/// the traced waves give the per-layer metrics, and their difference from
/// the untraced waves gives the tracing overhead. Without it every host is
/// untraced and the end-to-end metrics are reported.
pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    const MIN_HOSTS: usize = 2;
    let t0 = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut traced: Vec<Wave> = Vec::new();
    let mut untraced: Vec<Wave> = Vec::new();
    let mut setups = Vec::new();
    let mut out = Outcome::default();
    let mut last = Duration::ZERO;
    for i in 0u64.. {
        if setups.len() >= MIN_HOSTS && t0.elapsed() + last > budget {
            break;
        }
        let t_host = Instant::now();
        let on = trace && i % 2 == 0;
        let host = workload::run_host(spec, workload::mix(seed, i), on)?;
        last = t_host.elapsed();
        setups.push(host.setup_s);
        for (w, wave) in host.waves.into_iter().enumerate() {
            eprintln!(
                "host {i} wave {w}{}: startup p50 {:.4} mean {:.4} p95 {:.4} sim_s, \
                 task p50 {:.4} sim_s, wall {:.3} s, setup {:.3} s",
                if on { " (traced)" } else { "" },
                wave.e2e["startup_p50_s"],
                wave.e2e["startup_mean_s"],
                wave.e2e["startup_p95_s"],
                wave.e2e["task_p50_s"],
                wave.e2e["run_wall_s"],
                host.setup_s,
            );
            out.attempted += wave.attempted;
            out.failed += wave.failed;
            out.violations.extend(wave.violations.iter().cloned());
            if on { &mut traced } else { &mut untraced }.push(wave);
        }
    }
    out.waves = (traced.len(), untraced.len());

    let untraced_e2e = medians(untraced.iter().map(|w| &w.e2e));
    if trace {
        let traced_e2e = medians(traced.iter().map(|w| &w.e2e));
        let layer = medians(traced.iter().map(|w| &w.layer));
        for (name, unit) in catalog::per_layer() {
            let value = match name.strip_prefix("trace_overhead.") {
                Some(m) => traced_e2e[m] - untraced_e2e[m],
                None => match layer.get(&name) {
                    Some(&v) => v,
                    None => {
                        out.unexercised.push(name.clone());
                        0.0
                    }
                },
            };
            out.metrics.push((name, unit, value));
        }
    } else {
        for &(name, unit) in catalog::END_TO_END {
            let value = match name {
                "setup_s" => stats::median(&setups),
                "peak_rss_mb" => probe::peak_rss_mb(),
                _ => untraced_e2e[name],
            };
            out.metrics.push((name.to_string(), unit, value));
        }
    }
    out.reference = medians(untraced.iter().map(|w| &w.reference));
    for (name, _, v) in &out.metrics {
        if !v.is_finite() {
            out.violations
                .push(format!("{name} is not a finite number"));
        }
    }
    Ok(out)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Human-readable context printed before the result line: the setting,
/// the paper's reference numbers beside the modelled burst metrics, and
/// any broken checks.
pub fn report(kind: Kind, spec: &Spec, out: &Outcome) -> String {
    let mut s = format!(
        "workload {} | {} pods | time scale {} real s per sim s | {} traced + {} untraced waves\n",
        kind.name(),
        spec.pods,
        spec.scale,
        out.waves.0,
        out.waves.1
    );
    for (name, unit, v) in &out.metrics {
        s.push_str(&format!("  {name:<40} {v:>14.4} {unit}\n"));
    }
    let value = |n: &str| {
        let metric = out.metrics.iter().find(|m| m.0 == n).map(|m| m.2);
        metric.or_else(|| out.reference.get(n).copied())
    };
    let vanilla_vf = PAPER_VANILLA_MEAN_S * 0.701;
    match kind {
        Kind::BurstVanilla => {
            if let Some(mean) = value("startup_mean_s") {
                s.push_str(&format!(
                    "paper: vanilla mean startup {PAPER_VANILLA_MEAN_S} s (model {mean:.2} s)\n"
                ));
            }
        }
        Kind::BurstFastiov => {
            if let Some(mean) = value("startup_mean_s") {
                s.push_str(&format!(
                    "paper: FastIOV mean startup -65.7 % vs vanilla ({:.2} s; model {mean:.2} s), \
                     p99 -75.4 %\n",
                    PAPER_VANILLA_MEAN_S * (1.0 - 0.657)
                ));
            }
            if let Some(vf) = value("vf_overhead_mean_s") {
                s.push_str(&format!(
                    "paper: VF overhead -96.1 % vs vanilla ({:.3} s; model {vf:.3} s)\n",
                    vanilla_vf * (1.0 - 0.961)
                ));
            }
        }
        _ => {}
    }
    if kind == Kind::BurstVanilla && !out.reference.is_empty() {
        s.push_str("Tab. 1 stage shares of mean startup (paper / model):\n");
        for &(stage, paper) in TAB1 {
            let model = out.reference.get(stage).copied().unwrap_or(0.0) * 100.0;
            s.push_str(&format!("  {stage:<12} {paper:>5.1} % / {model:>5.1} %\n"));
        }
    }
    if matches!(kind, Kind::BurstVanilla | Kind::BurstFastiov) {
        s.push_str(
            "The model is calibrated on Tab. 1 and validated only on the held-out Fig. 11 \
             ablations; paper numbers are information, not gates.\n",
        );
    }
    if !out.unexercised.is_empty() {
        s.push_str(&format!(
            "not exercised by this workload (reported as 0): {}\n",
            out.unexercised.join(" ")
        ));
    }
    for v in &out.violations {
        s.push_str(&format!("CHECK FAILED: {v}\n"));
    }
    s
}
