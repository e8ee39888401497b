//! Persisted compositing-performance trajectory.
//!
//! Runs three bench families on synthetic sparse workloads and records
//! the results as JSON, so the repository carries its compositing-phase
//! performance history and CI can gate regressions:
//!
//! * `over_op` — the bulk `over` compositing kernel, ns per pixel;
//! * `encoding` — run-length mask encode + decode, ns per pixel;
//! * `compositing` — end-to-end binary-swap runs per method × P:
//!   measured `T_comp` (max-rank thread-CPU seconds, min over reps —
//!   every rank is multiplexed onto the host cores, so scheduling noise
//!   is strictly one-sided), wall time, total bytes moved and the peak
//!   resident pixel-buffer bytes per rank.
//!
//! Usage:
//!
//! ```text
//! bench_compositing [--quick] [--reps N] [--out FILE]
//!                   [--merge FILE --label before|after]
//!                   [--check FILE]
//! ```
//!
//! `--merge` inserts this run into the long-lived `BENCH_compositing.json`
//! (replacing any prior run with the same label + grid). `--check` loads
//! that file and fails (exit 1) when the current run regresses >25%
//! against the checked-in `after` baseline for the same grid, after
//! normalizing timing by the machine-speed ratio of the `over_op` anchor.
//! Deterministic byte metrics are compared exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use slsvr_core::Method;
use vr_bench::gate::{self, min_sample, BenchArgs};
use vr_bench::json::{obj, Json};
use vr_image::{Image, MaskRle, Pixel, Rect};
use vr_system::{CompTiming, Experiment, ExperimentConfig, StreamExperiment};
use vr_volume::{Dataset, DatasetKind, DepthOrder};

/// Timing-gate slack: the relative regression CI tolerates.
const REGRESSION_SLACK: f64 = 1.25;
/// Ignore timing entries faster than this (too noisy to gate).
const TIMING_FLOOR_NS: f64 = 50_000.0;

struct Grid {
    name: &'static str,
    image_size: u16,
    procs: &'static [usize],
    reps: usize,
}

const QUICK: Grid = Grid {
    name: "quick",
    image_size: 128,
    procs: &[4, 8],
    reps: 9,
};

const FULL: Grid = Grid {
    name: "full",
    image_size: 768,
    procs: &[4, 8, 16],
    reps: 9,
};

fn main() {
    let args = BenchArgs::from_env();
    let grid = if args.flag("--quick") { QUICK } else { FULL };
    let reps = args.num("--reps").unwrap_or(grid.reps);

    let entries = run_benches(&grid, reps);
    print_table(&entries);
    gate::persist_and_gate(SCHEMA, grid.name, &entries, &args, check_against);
}

const SCHEMA: &str = "slsvr-bench-compositing/v1";

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// Synthetic sparse subimages: a solid per-rank diagonal stripe (~12%
/// coverage) with smoothly varying shading — the coherent, long-run
/// footprint a sort-last-sparse rank's rendered subimage actually has
/// (volume projections are piecewise-solid, not per-pixel noise).
fn subimages(p: usize, size: u16) -> Vec<Image> {
    (0..p)
        .map(|r| {
            Image::from_fn(size, size, |x, y| {
                let cx = ((r * 2 + 1) * size as usize / (2 * p) + y as usize / 3) % size as usize;
                let dx = (x as i32 - cx as i32).abs();
                if dx < size as i32 / 16 {
                    let v = (x as usize * 7 + y as usize * 13 + r * 31) % 97;
                    Pixel::gray(0.2 + v as f32 / 160.0, 0.6)
                } else {
                    Pixel::BLANK
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Benches
// ---------------------------------------------------------------------------

fn run_benches(grid: &Grid, reps: usize) -> Vec<Json> {
    let mut entries = Vec::new();
    entries.push(bench_over_op(grid, reps));
    entries.push(bench_encoding(grid, reps));
    for &p in grid.procs {
        let imgs = subimages(p, grid.image_size);
        let config = ExperimentConfig {
            dataset: DatasetKind::Cube,
            image_size: grid.image_size,
            processors: p,
            volume_dims: Some([16, 16, 16]),
            comp_timing: CompTiming::Measured { slowdown: 1.0 },
            ..Default::default()
        };
        let exp = Experiment::from_subimages(config, imgs, DepthOrder::identity(p));
        for method in Method::paper_methods() {
            entries.push(bench_method(&exp, method, p, reps));
        }
    }
    entries.push(bench_overlap(grid, reps));
    entries
}

/// The render/composite overlap trajectory: the fused tile-stream
/// runner versus the two-phase render-then-composite pipeline on the
/// same dataset, view and thread budget. Both sides include identical
/// partition + accelerator setup, so the difference is purely the
/// overlap. Gated on multi-core hosts: the fused frame must beat the
/// synchronous `t_render + t_composite` sum and the first streamed tile
/// must land before the fused full frame; a 1-core host cannot overlap
/// anything, so the entry records `"gate": "skipped-narrow-host"`.
fn bench_overlap(grid: &Grid, reps: usize) -> Json {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let p = 4;
    // Rendering a real dataset dominates this entry; cap the frame so
    // the full grid stays minutes-not-hours while still giving each of
    // the 4 ranks dozens of 32-px tiles to stream.
    let size = grid.image_size.min(256);
    let config = ExperimentConfig {
        dataset: DatasetKind::EngineLow,
        image_size: size,
        processors: p,
        method: Method::TileStream,
        comp_timing: CompTiming::Measured { slowdown: 1.0 },
        ..Default::default()
    };
    let dataset = Arc::new(Dataset::with_dims(config.dataset, config.resolved_dims()));
    let reps = reps.clamp(1, 5);
    let mut sync_ns = Vec::with_capacity(reps);
    let mut fused_ns = Vec::with_capacity(reps);
    let mut first_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let exp = Experiment::prepare_with_dataset_pool(&config, Arc::clone(&dataset), None);
        let out = exp.run(Method::TileStream);
        sync_ns.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(out.image.area());

        let t = Instant::now();
        let sexp = StreamExperiment::prepare_with_dataset(&config, Arc::clone(&dataset));
        let sout = sexp.run();
        fused_ns.push(t.elapsed().as_nanos() as f64);
        if let Some(ft) = sout.first_tile_seconds {
            first_ns.push(ft * 1e9);
        }
        std::hint::black_box(sout.outcome.image.area());
    }
    let sync = min_sample(sync_ns);
    let fused = min_sample(fused_ns);
    let first = if first_ns.is_empty() {
        0.0
    } else {
        min_sample(first_ns)
    };
    let gate = if host_cores < 2 {
        "skipped-narrow-host"
    } else if fused < sync && first > 0.0 && first < fused {
        "pass"
    } else {
        "fail"
    };
    obj([
        ("bench", Json::Str("overlap".into())),
        ("method", Json::Str("tstream".into())),
        ("procs", Json::Num(p as f64)),
        ("image_size", Json::Num(size as f64)),
        ("host_cores", Json::Num(host_cores as f64)),
        ("sync_ns", Json::Num(sync)),
        ("fused_ns", Json::Num(fused)),
        ("first_tile_ns", Json::Num(first)),
        ("gate", Json::Str(gate.into())),
    ])
}

/// Bulk `over` kernel over a full image rect.
fn bench_over_op(grid: &Grid, reps: usize) -> Json {
    let size = grid.image_size;
    let rect = Rect::of_size(size, size);
    let imgs = subimages(2, size);
    let front = imgs[0].extract_rect(&rect);
    let pristine = imgs[1].clone();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut back = pristine.clone();
        let t = Instant::now();
        let ops = back.composite_rect_over(&rect, &front);
        let dt = t.elapsed();
        std::hint::black_box(ops);
        std::hint::black_box(&back);
        samples.push(dt.as_nanos() as f64 / rect.area() as f64);
    }
    obj([
        ("bench", Json::Str("over_op".into())),
        ("pixels", Json::Num(rect.area() as f64)),
        ("ns_per_px", Json::Num(min_sample(samples))),
    ])
}

/// Run-length mask encode + decode of a sparse image.
fn bench_encoding(grid: &Grid, reps: usize) -> Json {
    let size = grid.image_size;
    let img = &subimages(4, size)[1];
    let n = img.area();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let rle = MaskRle::encode_mask(img.pixels().iter().map(|p| !p.is_blank()));
        let mask = rle.decode_mask(n);
        let dt = t.elapsed();
        std::hint::black_box(mask.len());
        samples.push(dt.as_nanos() as f64 / n as f64);
    }
    obj([
        ("bench", Json::Str("encoding".into())),
        ("pixels", Json::Num(n as f64)),
        ("ns_per_px", Json::Num(min_sample(samples))),
    ])
}

/// End-to-end compositing for one method × P.
fn bench_method(exp: &Experiment, method: Method, p: usize, reps: usize) -> Json {
    let mut t_comp = Vec::with_capacity(reps);
    let mut wall = Vec::with_capacity(reps);
    let mut bytes_moved = 0u64;
    let mut peak_buf = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let out = exp.run(method);
        wall.push(t.elapsed().as_nanos() as f64);
        let comp = out
            .per_rank
            .iter()
            .map(|s| s.comp_seconds)
            .fold(0.0, f64::max);
        t_comp.push(comp * 1e9);
        bytes_moved = out.traffic.iter().map(|t| t.sent_bytes).sum();
        peak_buf = out
            .traffic
            .iter()
            .map(|t| t.peak_pixel_buffer_bytes)
            .max()
            .unwrap_or(0);
        std::hint::black_box(out.image.area());
    }
    obj([
        ("bench", Json::Str("compositing".into())),
        ("method", Json::Str(method.name().to_lowercase())),
        ("procs", Json::Num(p as f64)),
        ("t_comp_ns", Json::Num(min_sample(t_comp))),
        ("wall_ns", Json::Num(min_sample(wall))),
        ("bytes_moved", Json::Num(bytes_moved as f64)),
        ("peak_pixel_buffer_bytes", Json::Num(peak_buf as f64)),
    ])
}

fn print_table(entries: &[Json]) {
    println!(
        "{:<14} {:>6} {:>5} {:>14} {:>14} {:>14} {:>14}",
        "bench", "method", "P", "t_comp_ms", "wall_ms", "MB moved", "peak buf KB"
    );
    for e in entries {
        let bench = e.get("bench").and_then(Json::as_str).unwrap_or("?");
        match bench {
            "compositing" => {
                println!(
                    "{:<14} {:>6} {:>5} {:>14.3} {:>14.3} {:>14.3} {:>14.1}",
                    bench,
                    e.get("method").and_then(Json::as_str).unwrap_or("?"),
                    e.get("procs").and_then(Json::as_u64).unwrap_or(0),
                    e.get("t_comp_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("wall_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("bytes_moved").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("peak_pixel_buffer_bytes")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                        / 1e3,
                );
            }
            "overlap" => {
                println!(
                    "{:<14} {:>6} {:>5} sync {:.1} ms · fused {:.1} ms · first tile {:.1} ms · \
                     {} host core(s) · gate {}",
                    bench,
                    e.get("method").and_then(Json::as_str).unwrap_or("?"),
                    e.get("procs").and_then(Json::as_u64).unwrap_or(0),
                    e.get("sync_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("fused_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("first_tile_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("host_cores").and_then(Json::as_u64).unwrap_or(0),
                    e.get("gate").and_then(Json::as_str).unwrap_or("?"),
                );
            }
            _ => {
                println!(
                    "{:<14} {:>6} {:>5} {:>11.3} ns/px",
                    bench,
                    "-",
                    "-",
                    e.get("ns_per_px").and_then(Json::as_f64).unwrap_or(0.0),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence and the regression gate
// ---------------------------------------------------------------------------

/// Inserts `run` into the trajectory file, replacing a prior run with the
/// same `(label, grid)`.
/// Key identifying one bench entry within a run.
fn entry_key(e: &Json) -> (String, String, u64) {
    (
        e.get("bench").and_then(Json::as_str).unwrap_or("").into(),
        e.get("method").and_then(Json::as_str).unwrap_or("").into(),
        e.get("procs").and_then(Json::as_u64).unwrap_or(0),
    )
}

/// Compares `current` against the checked-in `after` baseline.
///
/// Timing is normalized by the `over_op` anchor (pure-CPU machine speed)
/// so a slower CI machine does not trip the gate; deterministic byte
/// counters must not grow at all.
fn check_against(path: &str, grid: &str, current: &[Json]) -> Result<Vec<String>, Vec<String>> {
    let baseline = gate::load_after_baseline(path, SCHEMA, grid);
    let base: BTreeMap<_, _> = baseline.iter().map(|e| (entry_key(e), e)).collect();
    let anchor = |entries: &[Json]| -> f64 {
        entries
            .iter()
            .find(|e| e.get("bench").and_then(Json::as_str) == Some("over_op"))
            .and_then(|e| e.get("ns_per_px"))
            .and_then(Json::as_f64)
            .unwrap_or(1.0)
    };
    // Machine-speed ratio: >1 means this machine is slower than the one
    // that recorded the baseline.
    let calib = (anchor(current) / anchor(&baseline)).max(0.25);

    let mut passes = Vec::new();
    let mut failures = Vec::new();
    // The overlap gate is self-contained (fused-vs-sync on *this* host),
    // so it is checked directly rather than against the baseline.
    for e in current {
        if e.get("bench").and_then(Json::as_str) == Some("overlap") {
            match e.get("gate").and_then(Json::as_str) {
                Some("fail") => failures.push(format!(
                    "overlap: fused run did not beat the synchronous pipeline \
                     (sync {:.1} ms, fused {:.1} ms, first tile {:.1} ms)",
                    e.get("sync_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("fused_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                    e.get("first_tile_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6,
                )),
                Some(gate) => passes.push(format!("overlap: gate {gate}")),
                None => {}
            }
        }
    }
    for e in current {
        let key = entry_key(e);
        let Some(b) = base.get(&key) else {
            continue; // new entry; nothing to compare
        };
        let label = format!("{}/{}/P={}", key.0, key.1, key.2);
        for metric in ["bytes_moved", "peak_pixel_buffer_bytes"] {
            let (cur, old) = (
                e.get(metric).and_then(Json::as_f64),
                b.get(metric).and_then(Json::as_f64),
            );
            if let (Some(cur), Some(old)) = (cur, old) {
                if cur > old {
                    failures.push(format!("{label}: {metric} grew {old} -> {cur}"));
                } else {
                    passes.push(format!("{label}: {metric} {cur} <= {old}"));
                }
            }
        }
        for metric in ["t_comp_ns", "ns_per_px"] {
            let (cur, old) = (
                e.get(metric).and_then(Json::as_f64),
                b.get(metric).and_then(Json::as_f64),
            );
            if let (Some(cur), Some(old)) = (cur, old) {
                let limit = (old * calib * REGRESSION_SLACK).max(TIMING_FLOOR_NS.min(old * 10.0));
                if cur > limit {
                    failures.push(format!(
                        "{label}: {metric} {cur:.0} > limit {limit:.0} (baseline {old:.0}, calib {calib:.2})"
                    ));
                } else {
                    passes.push(format!("{label}: {metric} {cur:.0} <= {limit:.0}"));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(passes)
    } else {
        Err(failures)
    }
}
