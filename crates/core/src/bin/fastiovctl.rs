//! `fastiovctl` — command-line front end for the FastIOV reproduction.
//!
//! ```text
//! fastiovctl baselines
//! fastiovctl startup --baseline fastiov --conc 200 [--scale 0.02]
//!                    [--ram-mb 512] [--image-mb 256]
//! fastiovctl compare --conc 200            # no-net vs vanilla vs fastiov
//! fastiovctl app --app image --baseline vanilla --conc 50
//! fastiovctl pool --capacity 16 --pods 32 [--rate 20] [--scale 0.002]
//! fastiovctl faults --baseline pool16 --conc 50 [--rate 0.01] [--seed 1]
//! fastiovctl contention --conc 50 [--baseline fastiov]
//! fastiovctl trace [--baseline fastiov] [--conc 200] [--out FILE] [--smoke]
//! fastiovctl lockdep [--baseline NAME] [--conc 200] [--out FILE]
//!                    [--json FILE] [--smoke]
//! fastiovctl memperf
//! ```
//!
//! Failed experiments exit with the stable code of their error class
//! (see [`fastiov::Error::exit_code`]); `0` always means success.

use fastiov::apps::AppKind;
use fastiov::engine::cdf_points;
use fastiov::hostmem::addr::units::mib;
use fastiov::{
    run_app_experiment, run_memperf, run_startup_experiment, Baseline, ExperimentConfig, Table,
};
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::from("true"));
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn baseline_from(name: &str) -> Option<Baseline> {
    Some(match name.to_ascii_lowercase().as_str() {
        "no-net" | "nonet" => Baseline::NoNet,
        "vanilla" => Baseline::Vanilla,
        "vanilla-orig" | "original" => Baseline::VanillaOriginal,
        "fastiov" => Baseline::FastIov,
        "fastiov-l" => Baseline::FastIovMinusL,
        "fastiov-a" => Baseline::FastIovMinusA,
        "fastiov-s" => Baseline::FastIovMinusS,
        "fastiov-d" => Baseline::FastIovMinusD,
        "pre10" => Baseline::Prezero(10),
        "pre50" => Baseline::Prezero(50),
        "pre100" => Baseline::Prezero(100),
        "ipvtap" => Baseline::Ipvtap,
        "fastiov-vdpa" | "vdpa" => Baseline::FastIovVdpa,
        name => {
            if let Some(n) = name.strip_prefix("pool") {
                return n.parse().ok().map(Baseline::WarmPool);
            }
            return None;
        }
    })
}

/// The `--baseline` flag, or `default` without one. An unknown name is
/// reported and yields `None`.
fn baseline_or(flags: &HashMap<String, String>, default: Baseline) -> Option<Baseline> {
    let Some(name) = flags.get("baseline") else {
        return Some(default);
    };
    let b = baseline_from(name);
    if b.is_none() {
        eprintln!("unknown baseline {name} (see `fastiovctl baselines`)");
    }
    b
}

fn app_from(name: &str) -> Option<AppKind> {
    Some(match name.to_ascii_lowercase().as_str() {
        "image" => AppKind::Image,
        "compression" => AppKind::Compression,
        "scientific" => AppKind::Scientific,
        "inference" => AppKind::Inference,
        _ => return None,
    })
}

fn config(flags: &HashMap<String, String>, baseline: Baseline) -> ExperimentConfig {
    let conc: u32 = flags
        .get("conc")
        .map(|v| v.parse().expect("--conc takes an integer"))
        .unwrap_or(50);
    let scale: f64 = flags
        .get("scale")
        .map(|v| v.parse().expect("--scale takes a float"))
        .unwrap_or(0.02);
    let mut cfg = ExperimentConfig::paper_scaled(baseline, conc, scale);
    if let Some(ram) = flags.get("ram-mb") {
        cfg.ram_bytes = mib(ram.parse().expect("--ram-mb takes an integer"));
    }
    if let Some(image) = flags.get("image-mb") {
        cfg.image_bytes = mib(image.parse().expect("--image-mb takes an integer"));
    }
    if let Some(vcpus) = flags.get("vcpus") {
        cfg.vcpus = vcpus.parse().expect("--vcpus takes a float");
    }
    cfg
}

/// Reports a failed experiment and translates it into the stable exit
/// code of its error class.
fn fail(e: &fastiov::Error) -> ExitCode {
    eprintln!("fastiovctl: {e}");
    ExitCode::from(e.exit_code().clamp(1, 255) as u8)
}

fn print_startup(cfg: &ExperimentConfig, cdf: bool) -> ExitCode {
    let run = match run_startup_experiment(cfg) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["baseline".to_string(), run.baseline.label()]);
    t.row(vec![
        "containers".to_string(),
        run.reports.len().to_string(),
    ]);
    t.row(vec![
        "avg (s)".to_string(),
        format!("{:.2}", run.total.mean_secs()),
    ]);
    t.row(vec![
        "p50 (s)".to_string(),
        format!("{:.2}", run.total.p50.as_secs_f64()),
    ]);
    t.row(vec![
        "p99 (s)".to_string(),
        format!("{:.2}", run.total.p99_secs()),
    ]);
    t.row(vec![
        "vf-related avg (s)".to_string(),
        format!("{:.2}", run.vf_related.mean_secs()),
    ]);
    println!("{}", t.render());
    println!("stage means:");
    for (stage, mean) in &run.stage_means {
        if !mean.is_zero() {
            println!("  {stage:<14} {:.2}s", mean.as_secs_f64());
        }
    }
    if cdf {
        println!("\ntime_s,cdf");
        for (x, y) in cdf_points(&run.totals()) {
            println!("{x:.3},{y:.4}");
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fastiovctl baselines\n  fastiovctl startup --baseline <name> [--conc N] \
         [--scale F] [--ram-mb M] [--image-mb M] [--cdf]\n  fastiovctl compare [--conc N] \
         [--scale F]\n  fastiovctl app --app <image|compression|scientific|inference> \
         --baseline <name> [--conc N]\n  fastiovctl pool [--capacity N] [--pods N] \
         [--rate F] [--hold-ms M] [--scale F]\n  fastiovctl faults [--baseline <name>] \
         [--conc N] [--rate F] [--seed N] [--scale F]\n  fastiovctl contention \
         [--baseline <name>] [--conc N] [--scale F]\n  fastiovctl trace \
         [--baseline <name>] [--conc N] [--out FILE] [--scale F] [--smoke]\n  \
         fastiovctl lockdep [--baseline <name>] [--conc N] [--out FILE] [--json FILE] \
         [--scale F] [--smoke]\n  fastiovctl memperf [--scale F]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "baselines" => {
            let mut t = Table::new(vec!["name", "label"]);
            for (name, b) in [
                ("no-net", Baseline::NoNet),
                ("vanilla", Baseline::Vanilla),
                ("vanilla-orig", Baseline::VanillaOriginal),
                ("fastiov", Baseline::FastIov),
                ("fastiov-l", Baseline::FastIovMinusL),
                ("fastiov-a", Baseline::FastIovMinusA),
                ("fastiov-s", Baseline::FastIovMinusS),
                ("fastiov-d", Baseline::FastIovMinusD),
                ("pre10", Baseline::Prezero(10)),
                ("pre50", Baseline::Prezero(50)),
                ("pre100", Baseline::Prezero(100)),
                ("ipvtap", Baseline::Ipvtap),
                ("fastiov-vdpa", Baseline::FastIovVdpa),
                ("pool16", Baseline::WarmPool(16)),
            ] {
                t.row(vec![name.to_string(), b.label()]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "startup" => {
            let Some(b) = flags.get("baseline").and_then(|n| baseline_from(n)) else {
                eprintln!("--baseline required (see `fastiovctl baselines`)");
                return ExitCode::FAILURE;
            };
            print_startup(&config(&flags, b), flags.contains_key("cdf"))
        }
        "compare" => {
            let mut t = Table::new(vec!["baseline", "avg (s)", "p99 (s)", "vf-related (s)"]);
            for b in [Baseline::NoNet, Baseline::Vanilla, Baseline::FastIov] {
                let run = match run_startup_experiment(&config(&flags, b)) {
                    Ok(run) => run,
                    Err(e) => return fail(&e),
                };
                t.row(vec![
                    run.baseline.label(),
                    format!("{:.2}", run.total.mean_secs()),
                    format!("{:.2}", run.total.p99_secs()),
                    format!("{:.2}", run.vf_related.mean_secs()),
                ]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "app" => {
            let Some(b) = flags.get("baseline").and_then(|n| baseline_from(n)) else {
                eprintln!("--baseline required");
                return ExitCode::FAILURE;
            };
            let Some(app) = flags.get("app").and_then(|n| app_from(n)) else {
                eprintln!("--app required (image|compression|scientific|inference)");
                return ExitCode::FAILURE;
            };
            let run = match run_app_experiment(&config(&flags, b), app) {
                Ok(run) => run,
                Err(e) => return fail(&e),
            };
            println!(
                "{} × {} on {}: avg completion {:.2}s, p99 {:.2}s",
                app.name(),
                run.tasks.len(),
                run.baseline.label(),
                run.completion.mean_secs(),
                run.completion.p99_secs(),
            );
            ExitCode::SUCCESS
        }
        "pool" => {
            let capacity: u16 = flags
                .get("capacity")
                .map(|v| v.parse().expect("--capacity takes an integer"))
                .unwrap_or(16);
            let pods: u32 = flags
                .get("pods")
                .map(|v| v.parse().expect("--pods takes an integer"))
                .unwrap_or(2 * u32::from(capacity));
            let rate: f64 = flags
                .get("rate")
                .map(|v| v.parse().expect("--rate takes a float"))
                .unwrap_or(20.0);
            let hold_ms: u64 = flags
                .get("hold-ms")
                .map(|v| v.parse().expect("--hold-ms takes an integer"))
                .unwrap_or(500);
            let mut cfg = config(&flags, Baseline::WarmPool(capacity));
            if !flags.contains_key("scale") {
                // Sustained runs sleep through pod lifetimes too; default
                // to a finer scale than burst measurements.
                cfg.host = fastiov::microvm::HostParams::paper_scaled(0.002);
            }
            let (_host, engine) = match cfg.build() {
                Ok(built) => built,
                Err(e) => return fail(&e),
            };
            let pool = std::sync::Arc::clone(engine.pool().expect("pool"));
            let outcome = engine.run_sustained(fastiov::engine::SustainedConfig {
                total: pods,
                rate_per_s: rate,
                hold: std::time::Duration::from_millis(hold_ms),
                seed: 7,
            });
            pool.wait_idle();
            let s = pool.stats();
            let mut t = Table::new(vec!["metric", "value"]);
            t.row(vec!["capacity".to_string(), s.capacity.to_string()]);
            t.row(vec!["parked now".to_string(), s.size.to_string()]);
            t.row(vec!["claims (hit)".to_string(), s.hits.to_string()]);
            t.row(vec!["claims (miss)".to_string(), s.misses.to_string()]);
            t.row(vec![
                "hit rate".to_string(),
                format!("{:.1}%", 100.0 * s.hit_rate()),
            ]);
            t.row(vec!["provisioned".to_string(), s.provisioned.to_string()]);
            t.row(vec!["recycled".to_string(), s.recycled.to_string()]);
            t.row(vec![
                "provision failures".to_string(),
                s.provision_failures.to_string(),
            ]);
            t.row(vec!["replenish backlog".to_string(), s.backlog.to_string()]);
            t.row(vec![
                "pods run".to_string(),
                outcome.summary.total().to_string(),
            ]);
            t.row(vec![
                "launch summary".to_string(),
                outcome.summary.to_string(),
            ]);
            if let Ok(sum) = fastiov::experiment::summarize(cfg.baseline, outcome.reports) {
                t.row(vec![
                    "startup avg (s)".to_string(),
                    format!("{:.3}", sum.total.mean_secs()),
                ]);
                t.row(vec![
                    "startup p99 (s)".to_string(),
                    format!("{:.3}", sum.total.p99_secs()),
                ]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "faults" => {
            let Some(b) = baseline_or(&flags, Baseline::FastIov) else {
                return ExitCode::FAILURE;
            };
            let rate: f64 = flags
                .get("rate")
                .map(|v| v.parse().expect("--rate takes a float"))
                .unwrap_or(0.01);
            let seed: u64 = flags
                .get("seed")
                .map(|v| v.parse().expect("--seed takes an integer"))
                .unwrap_or(1);
            let mut cfg = config(&flags, b);
            cfg.faults = fastiov::faults::FaultConfig::uniform(seed, rate);
            cfg.pool_watermark = Some(0);
            let (host, engine) = match cfg.build() {
                Ok(built) => built,
                Err(e) => return fail(&e),
            };
            let outcome = engine.launch_concurrent(cfg.concurrency);
            for pod in outcome.pods.iter().flatten() {
                let _ = engine.teardown_pod(pod);
            }
            if let Some(pool) = engine.pool() {
                pool.wait_idle();
            }
            let summary = &outcome.summary;
            println!(
                "baseline {}  seed {seed}  per-site rate {rate}\n\
                 launched {}/{}  failure classes: {}",
                b.label(),
                summary.succeeded,
                summary.total(),
                if summary.classes.is_empty() {
                    "-".to_string()
                } else {
                    summary
                        .classes
                        .iter()
                        .map(|(c, n)| format!("{c}={n}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            );
            let mut t = Table::new(vec![
                "site",
                "checks",
                "errors",
                "delays",
                "retries",
                "fallbacks",
            ]);
            for (site, s) in host.faults.report() {
                t.row(vec![
                    site.to_string(),
                    s.checks.to_string(),
                    s.errors.to_string(),
                    s.delays.to_string(),
                    s.retries.to_string(),
                    s.fallbacks.to_string(),
                ]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "contention" => {
            use fastiov::simtime::LockClass;
            let Some(b) = baseline_or(&flags, Baseline::FastIov) else {
                return ExitCode::FAILURE;
            };
            let cfg = config(&flags, b);
            let (_host, engine) = match cfg.build() {
                Ok(built) => built,
                Err(e) => return fail(&e),
            };
            let outcome = engine.launch_concurrent(cfg.concurrency);
            for pod in outcome.pods.iter().flatten() {
                let _ = engine.teardown_pod(pod);
            }
            if let Some(pool) = engine.pool() {
                pool.wait_idle();
            }
            println!(
                "{} at conc {}: {}",
                b.label(),
                cfg.concurrency,
                outcome.summary
            );
            let mut t = Table::new(vec![
                "lock class",
                "wait (ms)",
                "hold (ms)",
                "acquisitions",
                "contended",
                "mean wait (us)",
            ]);
            // Real (wall-clock) time since process start, host boot
            // included: a relative ranking of which lock class threads
            // queued on, not a simulated-cost figure.
            let mut classes: Vec<(LockClass, _)> = LockClass::ALL
                .iter()
                .map(|&c| (c, c.stats()))
                .filter(|(_, s)| s.acquisitions > 0)
                .collect();
            classes.sort_by_key(|(_, s)| std::cmp::Reverse(s.wait_ns));
            for (class, s) in classes {
                t.row(vec![
                    class.name().to_string(),
                    format!("{:.2}", s.wait_ns as f64 / 1e6),
                    format!("{:.2}", s.hold_ns as f64 / 1e6),
                    s.acquisitions.to_string(),
                    s.contended.to_string(),
                    format!("{:.1}", s.mean_wait_ns() / 1e3),
                ]);
            }
            println!("{}", t.render());
            ExitCode::SUCCESS
        }
        "trace" => {
            let Some(b) = baseline_or(&flags, Baseline::FastIov) else {
                return ExitCode::FAILURE;
            };
            let smoke = flags.contains_key("smoke");
            let mut cfg = config(&flags, b);
            if !flags.contains_key("conc") {
                // The paper's headline experiment is a 200-way simultaneous
                // wave; --smoke shrinks it so CI can afford the run.
                cfg.concurrency = if smoke { 8 } else { 200 };
            }
            let (host, engine) = match cfg.build() {
                Ok(built) => built,
                Err(e) => return fail(&e),
            };
            // Must happen before the wave: spans are only recorded while
            // the tracer is enabled, and it starts disabled so untraced
            // runs pay a single atomic load per would-be span.
            host.tracer.enable();
            let outcome = engine.launch_concurrent(cfg.concurrency);
            for pod in outcome.pods.iter().flatten() {
                let _ = engine.teardown_pod(pod);
            }
            if let Some(pool) = engine.pool() {
                pool.wait_idle();
            }
            let out = flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| "trace.json".to_string());
            let json = host.tracer.chrome_trace_json();
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("fastiovctl: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            let spans = host.tracer.spans();
            println!(
                "{} at conc {}: {}\n{} spans -> {} (load in chrome://tracing or ui.perfetto.dev)",
                b.label(),
                cfg.concurrency,
                outcome.summary,
                spans.len(),
                out,
            );
            // Per-stage percentiles over simulated time, with the tracer's
            // independent view of the same stages alongside. Traced stages
            // share their exact clock readings with the stage log, so the
            // two means must agree; any divergence means spans are being
            // attributed to the wrong VM or dropped.
            let mut t = Table::new(vec![
                "stage",
                "n",
                "sim mean (s)",
                "p50 (s)",
                "p90 (s)",
                "p99 (s)",
                "trace mean (s)",
                "wall mean (ms)",
            ]);
            let mut worst: f64 = 0.0;
            for (stage, s) in &outcome.summary.stage_percentiles {
                let mut per_vm: HashMap<u64, (std::time::Duration, std::time::Duration)> =
                    HashMap::new();
                for sp in spans.iter().filter(|sp| sp.vm != 0 && sp.name == *stage) {
                    let e = per_vm.entry(sp.vm).or_default();
                    e.0 += sp.sim_duration();
                    e.1 += sp.wall_duration();
                }
                let n = per_vm.len().max(1) as f64;
                let trace_mean = per_vm
                    .values()
                    .map(|(sim, _)| sim.as_secs_f64())
                    .sum::<f64>()
                    / n;
                let wall_mean_ms =
                    per_vm.values().map(|(_, w)| w.as_secs_f64()).sum::<f64>() / n * 1e3;
                let sim_mean = s.mean.as_secs_f64();
                let rel = if sim_mean > 0.0 {
                    (trace_mean - sim_mean).abs() / sim_mean
                } else if trace_mean > 0.0 {
                    1.0
                } else {
                    0.0
                };
                worst = worst.max(rel);
                t.row(vec![
                    stage.clone(),
                    s.n.to_string(),
                    format!("{:.3}", sim_mean),
                    format!("{:.3}", s.p50.as_secs_f64()),
                    format!("{:.3}", s.p90.as_secs_f64()),
                    format!("{:.3}", s.p99.as_secs_f64()),
                    format!("{:.3}", trace_mean),
                    format!("{:.2}", wall_mean_ms),
                ]);
            }
            println!("{}", t.render());
            println!(
                "trace/summary reconciliation: max divergence {:.4}% over {} stages",
                worst * 100.0,
                outcome.summary.stage_percentiles.len(),
            );
            if worst > 0.01 {
                eprintln!("fastiovctl: trace disagrees with stage summary by more than 1%");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "lockdep" => {
            use fastiov::simtime::lockdep;
            let smoke = flags.contains_key("smoke");
            // Without --baseline, cover both lock disciplines: vanilla
            // drives LockPolicy::Coarse, fastiov LockPolicy::Hierarchical.
            let baselines: Vec<Baseline> = match flags.get("baseline") {
                Some(name) => match baseline_from(name) {
                    Some(b) => vec![b],
                    None => {
                        eprintln!("unknown baseline {name} (see `fastiovctl baselines`)");
                        return ExitCode::FAILURE;
                    }
                },
                None => vec![Baseline::Vanilla, Baseline::FastIov],
            };
            lockdep::enable();
            lockdep::reset();
            for b in &baselines {
                let mut cfg = config(&flags, *b);
                if !flags.contains_key("conc") {
                    // The paper's headline wave; --smoke shrinks it so the
                    // CI lint lane can afford the run.
                    cfg.concurrency = if smoke { 8 } else { 200 };
                }
                let (_host, engine) = match cfg.build() {
                    Ok(built) => built,
                    Err(e) => return fail(&e),
                };
                let outcome = engine.launch_concurrent(cfg.concurrency);
                for pod in outcome.pods.iter().flatten() {
                    let _ = engine.teardown_pod(pod);
                }
                if let Some(pool) = engine.pool() {
                    pool.wait_idle();
                }
                println!(
                    "{} at conc {}: {}",
                    b.label(),
                    cfg.concurrency,
                    outcome.summary
                );
            }
            let out = flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| "lockgraph.dot".to_string());
            if let Err(e) = std::fs::write(&out, lockdep::graph_dot()) {
                eprintln!("fastiovctl: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(json) = flags.get("json") {
                if let Err(e) = std::fs::write(json, lockdep::graph_json()) {
                    eprintln!("fastiovctl: cannot write {json}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("lock graph -> {out} (DOT), {json} (JSON)");
            } else {
                println!("lock graph -> {out} (render with `dot -Tsvg`)");
            }
            let reports = lockdep::reports();
            if reports.is_empty() {
                println!(
                    "lockdep: no potential deadlocks or hierarchy violations \
                     across {} wave(s)",
                    baselines.len()
                );
                ExitCode::SUCCESS
            } else {
                for r in &reports {
                    eprintln!("lockdep: {r}");
                }
                eprintln!("fastiovctl: {} lock-discipline report(s)", reports.len());
                ExitCode::FAILURE
            }
        }
        "memperf" => {
            let base = config(&flags, Baseline::Vanilla);
            let sweep = mib(32);
            for b in [Baseline::Vanilla, Baseline::FastIov] {
                let r = match run_memperf(b, &base, sweep, 3, 5_000) {
                    Ok(r) => r,
                    Err(e) => return fail(&e),
                };
                println!(
                    "{:<8} cold {:>7.2}ms steady {:>7.2}ms random {:>6.3}ms (faults {}, lazily zeroed {})",
                    r.baseline.label(),
                    r.cold_sweep.as_secs_f64() * 1e3,
                    r.steady_sweep.as_secs_f64() * 1e3,
                    r.random_reads.as_secs_f64() * 1e3,
                    r.ept_faults,
                    r.lazily_zeroed,
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
