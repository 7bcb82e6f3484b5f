//! Malformed `fastiovctl` flags are usage errors (exit 1 naming the
//! flag), never panics.

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
fn zero_scale_is_a_usage_error() {
    let (code, stderr) = run(&["startup", "--baseline", "fastiov", "--scale", "0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--scale"), "{stderr}");
}
