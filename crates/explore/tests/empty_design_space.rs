//! A design space with no valid point is an error, not an empty sweep:
//! `plaid-dse` must exit non-zero with a message naming the flags that
//! emptied the grid, write no frontier file, and never panic. An empty
//! shard of a non-empty plan is still a valid run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Scratch directory private to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plaid-empty-space-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `plaid-dse` with `args` in `dir`.
fn plaid_dse(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plaid-dse"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("plaid-dse runs")
}

#[test]
fn a_stride_no_array_fits_is_rejected() {
    for (tag, extra) in [
        ("sweep", &[][..]),
        ("frontier", &["--frontier", "frontier.json"][..]),
        ("list", &["--list"][..]),
        ("full", &["--grid", "full"][..]),
    ] {
        let dir = scratch(tag);
        let mut args = vec!["--topology", "express:99", "--passes", "1", "--quiet"];
        args.extend_from_slice(extra);
        let out = plaid_dse(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{tag}: an empty space exited 0");
        assert!(!stderr.contains("panicked"), "{tag}: panicked: {stderr}");
        assert!(
            stderr.contains("selects no valid architecture point")
                && stderr.contains("--topology express:99"),
            "{tag}: unexpected error message: {stderr}"
        );
        assert!(
            !stderr.contains("sweeping"),
            "{tag}: an empty space started a sweep: {stderr}"
        );
        for file in ["dse_frontier.json", "frontier.json"] {
            assert!(!dir.join(file).exists(), "{tag}: wrote {file}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn dims_that_no_stride_fits_are_rejected() {
    let dir = scratch("dims");
    let out = plaid_dse(
        &dir,
        &["--topology", "express:3", "--dims", "2x2,3x3", "--quiet"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(
        stderr.contains("--topology express:3 --dims 2x2,3x3"),
        "the error does not name the flags: {stderr}"
    );
    assert!(!dir.join("dse_frontier.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_empty_shard_of_a_non_empty_plan_still_runs() {
    // The smoke grid of one workload has 6 points, so at least ten of 16
    // shards are empty; every shard must still exit 0.
    let dir = scratch("shard");
    let mut empty = 0;
    for shard in 0..16 {
        let spec = format!("{shard}/16");
        let out = plaid_dse(
            &dir,
            &[
                "--grid",
                "smoke",
                "--workloads",
                "dwconv",
                "--shard",
                &spec,
                "--passes",
                "1",
                "--no-frontier-file",
                "--quiet",
            ],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "shard {spec} failed: {stderr}");
        empty += usize::from(stderr.contains("— 0 of 6 plan points"));
    }
    assert!(empty > 0, "no shard was empty");
    std::fs::remove_dir_all(&dir).unwrap();
}
