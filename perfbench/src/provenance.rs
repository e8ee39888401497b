//! Where and on what a result was measured.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the CPU's cache at `level` (e.g. "2"), as the kernel prints it.
fn cache_size(level: &str) -> String {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            (read(&format!("{dir}/level"))? == level
                && read(&format!("{dir}/type"))? != "Instruction")
                .then(|| read(&format!("{dir}/size")))
                .flatten()
        })
        .next()
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, when the benchmark runs at the root of a git
/// work tree (git is not asked to search parent directories).
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the program's and the
/// benchmark's sources, so a result names its code without git.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if matches!(
                path.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

pub fn collect(workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("commit", Json::str(commit())),
        ("source_digest", Json::str(source_digest())),
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_model", Json::str(cpu_model())),
        ("l2", Json::str(cache_size("2"))),
        ("l3", Json::str(cache_size("3"))),
        (
            "note",
            Json::str("wall-clock measurements only; no modeled SP2 time is reported"),
        ),
    ])
}
