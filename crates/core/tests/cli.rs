//! `fastiovctl` as a process: a missing or extra argument, an unknown
//! flag and a flag without its value are usage errors (exit 1 with the
//! usage), never panics; an unknown row id is named; `run` prints a
//! row's metrics; two `observe` runs of a fault-free row write the same
//! bytes and take no fault-plane lock; and `observe` on a fault row
//! reconciles the pods that started.

use std::path::PathBuf;
use std::process::Command;

/// Exit code, stdout and stderr of one `fastiovctl` run.
fn fastiovctl(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fastiovctl"))
        .args(args)
        .output()
        .expect("spawn fastiovctl");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

fn assert_usage_error(args: &[&str], names: &str) {
    let (code, _, stderr) = fastiovctl(args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(names), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn a_missing_or_extra_argument_is_a_usage_error() {
    for args in [
        &[][..],
        &["run"],
        &["run", "ablation_frag.2m/none", "extra"],
        &["observe"],
        &["reproduce", "fig11"],
    ] {
        assert_usage_error(args, "fastiovctl: ");
    }
    assert_usage_error(&["startup"], "unknown subcommand \"startup\"");
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    assert_usage_error(
        &["observe", "calibrate.fastiov@200", "--out"],
        "--out: missing value",
    );
    assert_usage_error(&["reproduce", "--only"], "--only: missing value");
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_a_usage_error() {
    // Removed flags, a misspelt one, and one of another subcommand.
    for flag in ["--scale", "--conc", "--concurency", "--only"] {
        let args = ["run", "ablation_frag.2m/none", flag, "8"];
        assert_usage_error(&args, &format!("{flag}: unknown flag"));
    }
}

#[test]
fn run_prints_the_rows_metrics() {
    let (code, stdout, stderr) = fastiovctl(&["run", "ablation_frag.2m/none"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, "batches 1\n");
}

#[test]
fn an_id_prefix_lists_the_rows_it_prefixes() {
    let (code, _, stderr) = fastiovctl(&["run", "ablation_frag."]);
    assert_eq!(code, Some(1), "{stderr}");
    for page in ["2m", "4k"] {
        for frag in ["none", "25pct", "50pct"] {
            let id = format!("ablation_frag.{page}/{frag}");
            assert!(stderr.contains(&id), "{id}: {stderr}");
        }
    }
}

#[test]
fn an_unknown_row_is_named() {
    for cmd in ["run", "observe"] {
        let (code, _, stderr) = fastiovctl(&[cmd, "nosuch"]);
        assert_eq!(code, Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains("no row \"nosuch\""), "{cmd}: {stderr}");
    }
}

#[test]
fn observe_on_a_serverless_row_is_a_usage_error() {
    assert_usage_error(&["observe", "fig15.image.vanilla@200"], "not a launch-wave");
}

#[test]
fn two_observe_runs_of_a_row_write_the_same_bytes() {
    let observe = |run: &str| -> (PathBuf, String) {
        let dir =
            std::env::temp_dir().join(format!("fastiovctl-observe-{}-{run}", std::process::id()));
        let out = dir.to_str().expect("utf-8 temp dir");
        let (code, stdout, stderr) =
            fastiovctl(&["observe", "calibrate.vanilla@200", "--out", out]);
        assert_eq!(code, Some(0), "{stderr}");
        // Masks the output directory, which one line names.
        (dir.clone(), stdout.replace(out, "DIR"))
    };
    let (a, a_stdout) = observe("a");
    let (b, b_stdout) = observe("b");
    assert_eq!(a_stdout, b_stdout);
    assert!(a_stdout.contains("200/200 pods started"), "{a_stdout}");
    // Components hold their fault plane from construction, and a disabled
    // plane takes no lock.
    let locks = a_stdout.split("lock class").nth(1).expect("lock table");
    for serializer in ["devset-parent", "cgroup", "virtiofsd", "rtnl"] {
        assert!(locks.contains(&format!("\n{serializer} ")), "{a_stdout}");
    }
    for gone in ["fault-plane", "devset-state", "cgroup-registry"] {
        assert!(!locks.contains(&format!("\n{gone} ")), "{a_stdout}");
    }
    for name in ["trace.json", "lockgraph.dot", "lockgraph.json"] {
        let body = std::fs::read_to_string(a.join(name)).expect(name);
        assert!(!body.is_empty(), "{name} is empty");
        assert_eq!(
            body,
            std::fs::read_to_string(b.join(name)).expect(name),
            "{name}"
        );
    }
    let trace = std::fs::read_to_string(a.join("trace.json")).expect("trace.json");
    assert!(trace.starts_with(r#"{"traceEvents":["#), "{trace:.40}");
    for dir in [a, b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn observe_on_a_fault_row_reconciles_only_the_pods_that_started() {
    let out =
        std::env::temp_dir().join(format!("fastiovctl-observe-{}-faults", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let (code, stdout, stderr) =
        fastiovctl(&["observe", "ext_faults.fastiov@200/5pct", "--out", out]);
    let _ = std::fs::remove_dir_all(out);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("max divergence 0 ns"), "{stdout}");
}
