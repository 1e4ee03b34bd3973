//! The `fastgr` binary rejects malformed command lines instead of running
//! with defaults.

use std::process::{Command, Output};

fn fastgr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastgr"))
        .args(args)
        .output()
        .expect("the fastgr binary runs")
}

#[test]
fn non_numeric_seed_is_rejected() {
    let out = fastgr(&["generate", "tiny", "--seed", "abc"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no design is written");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed expects a number"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected_with_usage() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let design = format!("{dir}/cli_tiny.txt");
    assert!(fastgr(&["generate", "tiny", "--out", &design])
        .status
        .success());
    let out = fastgr(&["route", &design, "--presett", "fastgr-h"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing is routed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument \"--presett\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    // The correctly spelt flag routes.
    let ok = fastgr(&[
        "route",
        &design,
        "--preset",
        "fastgr-h",
        "--iterations",
        "1",
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}
