//! Integration tests for the `slsvr` CLI binary.

use std::process::Command;

fn slsvr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slsvr"))
}

#[test]
fn info_lists_datasets_and_methods() {
    let out = slsvr().arg("info").output().expect("run slsvr info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["Engine_low", "Engine_high", "Head", "Cube"] {
        assert!(stdout.contains(name), "missing dataset {name}");
    }
    for method in ["BS", "BSBR", "BSLC", "BSBRC", "BTREE"] {
        assert!(stdout.contains(method), "missing method {method}");
    }
}

#[test]
fn help_prints_usage() {
    let out = slsvr().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = slsvr().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn render_writes_a_pgm() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("render_test.pgm");
    let out = slsvr()
        .args([
            "render",
            "--dataset",
            "cube",
            "--dims",
            "24,24,12",
            "--size",
            "64",
            "--procs",
            "4",
            "--method",
            "bsbrc",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"P5\n64 64\n255\n"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("T_comp"));
    assert!(stdout.contains("M_max"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn render_rejects_bad_dataset() {
    let out = slsvr()
        .args(["render", "--dataset", "teapot"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

#[test]
fn render_rejects_bad_dims() {
    let out = slsvr().args(["render", "--dims", "1,2"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("dims"));
}

#[test]
fn render_rejects_zero_procs() {
    let out = slsvr()
        .args([
            "render", "--procs", "0", "--dims", "16,16,8", "--size", "32",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn render_rejects_distributed_balanced() {
    let out = slsvr()
        .args([
            "render",
            "--distributed",
            "--balanced",
            "--dims",
            "16,16,8",
            "--size",
            "32",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--balanced is incompatible with --distributed"),
        "{stderr}"
    );
}

#[test]
fn compare_runs_all_methods() {
    let out = slsvr()
        .args([
            "compare",
            "--dataset",
            "head",
            "--dims",
            "24,24,12",
            "--size",
            "48",
            "--procs",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for method in ["BS", "BSBRC", "PIPE", "DSEND"] {
        assert!(stdout.contains(method));
    }
    // Every row verified against the reference.
    assert!(stdout.contains('✓'));
    assert!(!stdout.contains('✗'));
}

#[test]
fn distributed_render_with_ghost() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dist_test.pgm");
    let out = slsvr()
        .args([
            "render",
            "--distributed",
            "--ghost",
            "2",
            "--dims",
            "24,24,12",
            "--size",
            "48",
            "--procs",
            "4",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read(&path)
        .unwrap()
        .starts_with(b"P5\n48 48\n255\n"));
    let _ = std::fs::remove_file(&path);
}
