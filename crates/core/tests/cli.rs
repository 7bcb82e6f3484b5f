//! `fastiovctl` as a process: malformed or unknown flags and unknown
//! baselines are usage errors (exit 1 naming the flag or the name), never
//! panics, and `observe` writes its three run files.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fastiovctl"))
        .args(args)
        .output()
        .expect("spawn fastiovctl");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unparsable_rate_is_a_usage_error() {
    let (code, stderr) = run(&["faults", "--rate", "abc"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--rate"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_a_usage_error() {
    // A removed flag and a misspelt one.
    for (name, value) in [("scale", "0.02"), ("concurency", "8")] {
        let flag = format!("--{name}");
        let (code, stderr) = run(&["startup", "--baseline", "fastiov", &flag, value]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        let named = stderr.contains(&format!("{flag}: unknown flag"));
        assert!(named, "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn unknown_baseline_is_named() {
    for args in [
        &["startup", "--baseline", "nosuch"][..],
        &["app", "--app", "image", "--baseline", "nosuch"],
        &["observe", "--baseline", "nosuch"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown baseline nosuch"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn observe_smoke_writes_trace_and_lock_graph() {
    let dir = std::env::temp_dir().join(format!("fastiovctl-observe-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp dir");
    let (code, stderr) = run(&["observe", "--smoke", "--out", out]);
    assert_eq!(code, Some(0), "{stderr}");
    for name in ["trace.json", "lockgraph.dot", "lockgraph.json"] {
        let body = std::fs::read_to_string(dir.join(name)).expect(name);
        assert!(!body.is_empty(), "{name} is empty");
    }
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    assert!(trace.starts_with(r#"{"traceEvents":["#), "{trace:.40}");
    let _ = std::fs::remove_dir_all(&dir);
}
