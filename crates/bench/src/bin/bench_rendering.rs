//! Persisted rendering-performance trajectory.
//!
//! Benchmarks the rendering phase — the macrocell empty-space-skipping +
//! tile-culling fast path against the naive ray integrator — on every
//! sample dataset, and records the results as JSON so the repository
//! carries its rendering-phase performance history and CI can gate
//! regressions:
//!
//! * `anchor` — a small fixed naive render, ns per pixel. Pure CPU work,
//!   used to normalize timing between machines of different speed;
//! * `rendering` — per dataset: naive ns, accelerated ns (grid built
//!   once, excluded and reported separately as `build_ns` — the
//!   structure is reused across frames), speedup, and a bit-identity
//!   flag that must always hold;
//! * `rendering_threaded` — per dataset: the 1-thread accelerated path
//!   against the pooled tile-threaded + lane-batched path (persistent
//!   `RenderPool`, reused across frames like a serve worker's), the
//!   threads-over-1-thread speedup, and the same bit-identity flag.
//!
//! The single-thread phases use thread-CPU clocks, min over reps
//! (scheduling noise is strictly one-sided). The threaded phase uses
//! wall-clock time: the pool spreads the same CPU work across workers,
//! so a thread-CPU clock that sums across threads would read ~1× no
//! matter how well it scales. Usage mirrors `bench_compositing`:
//!
//! ```text
//! bench_rendering [--quick] [--reps N] [--cell N] [--tile N]
//!                 [--threads N] [--lanes N]
//!                 [--out FILE] [--merge FILE --label before|after]
//!                 [--check FILE]
//! ```
//!
//! `--cell` / `--tile` override the macrocell and screen-tile sizes;
//! `--cell 0` disables acceleration entirely, which is how the `before`
//! (seed renderer) runs of the trajectory file were recorded.
//!
//! `--merge` inserts this run into the long-lived `BENCH_rendering.json`
//! (replacing any prior run with the same label + grid). `--check` loads
//! that file and fails (exit 1) when any dataset loses bit-identity,
//! when a sparse dataset's speedup drops below the floor, when the
//! speedup falls more than `SPEEDUP_SLACK` below the checked-in `after`
//! baseline, or when the accelerated timing grossly regresses in
//! anchor-normalized absolute terms (`ABS_SLACK`).

use std::collections::BTreeMap;
use std::sync::Arc;

use slsvr_core::Stopwatch;
use vr_bench::gate::{self, min_sample, BenchArgs};
use vr_bench::json::{obj, Json};
use vr_image::checksum::fnv1a;
use vr_image::Image;
use vr_render::{render, Camera, RenderAccel, RenderJob, RenderParams, RenderPool};
use vr_volume::{
    random_blobs, Dataset, DatasetKind, MacrocellGrid, Subvolume, TransferFunction, Volume,
    DEFAULT_CELL_SIZE,
};

/// Speedup-gate slack: the current run's naive/accel speedup may fall to
/// `baseline_speedup / SPEEDUP_SLACK` before CI fails. Speedups come from
/// interleaved reps of the same run, so they stay stable even when the
/// host's absolute throughput swings between runs.
const SPEEDUP_SLACK: f64 = 1.5;
/// Catastrophic-regression slack for anchor-calibrated absolute timing.
/// Shared CI hosts throttle by 1.5×+ between runs, so only a gross
/// slowdown is treated as a code regression.
const ABS_SLACK: f64 = 2.0;
/// Ignore absolute timings faster than this (too noisy to gate).
const TIMING_FLOOR_NS: f64 = 50_000.0;
/// Sparse (high-transparency) datasets must keep at least this speedup.
const MIN_SPARSE_SPEEDUP: f64 = 2.0;
/// Threaded-over-1-thread floor on hosts with at least as many cores as
/// the pool has threads. Both sides come from interleaved reps of the
/// same run, so the ratio is host-invariant; the floor sits below the
/// recorded ≥2× so CI scheduling noise cannot flake it.
const MIN_THREAD_SPEEDUP: f64 = 1.5;
/// On narrower hosts (e.g. a 2-core pinned CI job) a 4-thread pool
/// cannot pay, but oversubscription must never collapse throughput.
const THREAD_NO_SLOWDOWN: f64 = 0.7;

struct Grid {
    name: &'static str,
    image_size: u16,
    dims: [usize; 3],
    reps: usize,
}

// Quick dims must stay large enough relative to the default macrocell
// size for skipping to be meaningful: at 64³ the interpolation margins
// swallow most of a sparse volume's empty cells.
const QUICK: Grid = Grid {
    name: "quick",
    image_size: 192,
    dims: [96, 96, 48],
    reps: 3,
};

const FULL: Grid = Grid {
    name: "full",
    image_size: 384,
    dims: [128, 128, 64],
    reps: 3,
};

/// Datasets with a `sparse` tag: volumetrically sparse classifications
/// (most ray chords classify to zero opacity) are where empty-space
/// skipping must pay off, and they carry the speedup floor. The rest are
/// controls that only have to stay within the regression slack — note
/// that `Engine_high` is *image-space* sparse (the paper's sense, which
/// drives the compositing methods) but not chord-sparse: its visible
/// material is cylinder bores aligned with the view direction, so rays
/// that hit anything stay inside active cells for most of their chord.
const DATASETS: [(DatasetKind, bool); 4] = [
    (DatasetKind::EngineLow, false),
    (DatasetKind::EngineHigh, false),
    (DatasetKind::Head, false),
    (DatasetKind::Cube, true),
];

fn main() {
    let args = BenchArgs::from_env();
    let grid = if args.flag("--quick") { QUICK } else { FULL };
    let reps = args.num("--reps").unwrap_or(grid.reps);
    let cell = args.num("--cell").unwrap_or(DEFAULT_CELL_SIZE);
    let tile = args.num("--tile").unwrap_or(vr_render::DEFAULT_TILE_SIZE);
    let threads = args.num("--threads").unwrap_or(4);
    let lanes = args.num("--lanes").unwrap_or(4);

    let entries = run_benches(&grid, reps, cell, tile, threads, lanes);
    print_table(&entries);
    gate::persist_and_gate(SCHEMA, grid.name, &entries, &args, check_against);
}

const SCHEMA: &str = "slsvr-bench-rendering/v1";

// ---------------------------------------------------------------------------
// Benches
// ---------------------------------------------------------------------------

/// Renders `job` into a fresh full-size image, fanned across `pool`
/// when one is given.
fn render_image(job: &RenderJob, pool: Option<&RenderPool>) -> Image {
    let mut image = Image::blank(job.camera.width, job.camera.height);
    render(job, pool, &mut image);
    image
}

fn whole(dims: [usize; 3]) -> Subvolume {
    Subvolume {
        rank: 0,
        origin: [0, 0, 0],
        dims,
    }
}

/// One named render workload: a volume plus its classification.
struct Workload {
    name: &'static str,
    sparse: bool,
    volume: Volume,
    transfer: TransferFunction,
}

fn run_benches(
    grid: &Grid,
    reps: usize,
    cell: usize,
    tile: usize,
    threads: usize,
    lanes: usize,
) -> Vec<Json> {
    // One persistent pool across every dataset and rep, matching how the
    // system uses it (spawned once, reused frame after frame).
    let pool = RenderPool::new(threads);
    let mut entries = Vec::new();
    entries.push(bench_anchor(reps));
    let mut workloads: Vec<Workload> = DATASETS
        .into_iter()
        .map(|(kind, sparse)| {
            let ds = Dataset::with_dims(kind, grid.dims);
            Workload {
                name: kind.name(),
                sparse,
                volume: ds.volume,
                transfer: ds.transfer,
            }
        })
        .collect();
    // A volumetrically sparse workload: a few isolated blobs whose window
    // classifies most of every ray chord to zero opacity. This is the
    // regime empty-space skipping targets, and it carries the speedup
    // floor together with Cube.
    workloads.push(Workload {
        name: "Blobs_sparse",
        sparse: true,
        volume: random_blobs(grid.dims, 3, 0.12, 0x5EED),
        transfer: TransferFunction::window(60.0, 255.0, 0.9),
    });
    for w in &workloads {
        entries.push(bench_dataset(grid, w, reps, cell, tile));
        entries.push(bench_threaded(grid, w, reps, cell, tile, &pool, lanes));
    }
    entries
}

/// Machine-speed anchor: a fixed small naive render, independent of the
/// grid's workload sizes. Identical work on every machine, so the ratio
/// current/baseline measures host speed, not code changes.
fn bench_anchor(reps: usize) -> Json {
    let dims = [32, 32, 16];
    let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
    let cam = Camera::orbit(dims, 64, 64, 20.0, 30.0);
    let params = RenderParams::default();
    let mut samples = Vec::with_capacity(reps.max(3));
    for _ in 0..reps.max(3) {
        let mut sw = Stopwatch::new();
        let job = RenderJob::new(&ds.volume, whole(dims), &ds.transfer, &cam, params);
        let img = sw.time(|| render_image(&job, None));
        std::hint::black_box(img.non_blank_count());
        samples.push(sw.seconds() * 1e9 / (64.0 * 64.0));
    }
    obj([
        ("bench", Json::Str("anchor".into())),
        ("pixels", Json::Num(64.0 * 64.0)),
        ("ns_per_px", Json::Num(min_sample(samples))),
    ])
}

/// Naive vs accelerated whole-volume render of one workload.
fn bench_dataset(grid: &Grid, w: &Workload, reps: usize, cell: usize, tile: usize) -> Json {
    let cam = Camera::orbit(grid.dims, grid.image_size, grid.image_size, 20.0, 30.0);
    let params = RenderParams::default();
    let block = whole(grid.dims);

    // The macrocell grid is built once per subvolume and reused across
    // frames, so its cost is reported separately, not folded into the
    // per-frame render time. `--cell 0` disables acceleration entirely
    // (both timing sets then measure the naive renderer — the "before"
    // state of the trajectory file).
    let mut build_sw = Stopwatch::new();
    let accel = (cell >= 1).then(|| {
        build_sw.time(|| {
            RenderAccel::new(
                Arc::new(MacrocellGrid::build(&w.volume, cell)),
                &w.transfer,
                &params,
            )
        })
    });

    // Naive and accelerated reps are interleaved so slow drift in host
    // speed (frequency scaling, noisy neighbours) hits both measurement
    // sets alike instead of biasing whichever ran second.
    let mut naive_ns = Vec::with_capacity(reps);
    let mut accel_ns = Vec::with_capacity(reps);
    let mut naive_hash = 0u64;
    let mut accel_hash = 0u64;
    let naive = RenderJob::new(&w.volume, block, &w.transfer, &cam, params);
    let fast = RenderJob {
        accel: accel.as_ref(),
        tile,
        ..naive
    };
    for _ in 0..reps {
        let mut sw = Stopwatch::new();
        let img = sw.time(|| render_image(&naive, None));
        naive_hash = fnv1a(&img);
        std::hint::black_box(img.non_blank_count());
        naive_ns.push(sw.seconds() * 1e9);

        let mut sw = Stopwatch::new();
        let img = sw.time(|| render_image(&fast, None));
        accel_hash = fnv1a(&img);
        std::hint::black_box(img.non_blank_count());
        accel_ns.push(sw.seconds() * 1e9);
    }

    let naive = min_sample(naive_ns);
    let fast = min_sample(accel_ns);
    obj([
        ("bench", Json::Str("rendering".into())),
        ("dataset", Json::Str(w.name.into())),
        ("sparse", Json::Bool(w.sparse)),
        (
            "pixels",
            Json::Num(grid.image_size as f64 * grid.image_size as f64),
        ),
        ("naive_ns", Json::Num(naive)),
        ("accel_ns", Json::Num(fast)),
        ("build_ns", Json::Num(build_sw.seconds() * 1e9)),
        ("speedup", Json::Num(naive / fast.max(1.0))),
        (
            "active_fraction",
            Json::Num(accel.as_ref().map_or(1.0, |a| a.active_fraction())),
        ),
        ("identical", Json::Bool(naive_hash == accel_hash)),
    ])
}

/// The pooled tile-threaded + lane-batched render against the 1-thread
/// accelerated path. Both sides are timed with wall-clock `Instant`
/// (not `Stopwatch`: thread-CPU time sums across pool workers and would
/// read ~1× regardless of scaling) and interleaved, so the speedup
/// ratio is invariant to host speed.
fn bench_threaded(
    grid: &Grid,
    w: &Workload,
    reps: usize,
    cell: usize,
    tile: usize,
    pool: &RenderPool,
    lanes: usize,
) -> Json {
    let cam = Camera::orbit(grid.dims, grid.image_size, grid.image_size, 20.0, 30.0);
    let block = whole(grid.dims);
    let scalar_params = RenderParams::default();
    let lane_params = RenderParams {
        simd_lanes: lanes,
        ..RenderParams::default()
    };
    let accel = (cell >= 1).then(|| {
        RenderAccel::new(
            Arc::new(MacrocellGrid::build(&w.volume, cell)),
            &w.transfer,
            &scalar_params,
        )
    });

    let mut accel1_ns = Vec::with_capacity(reps);
    let mut threaded_ns = Vec::with_capacity(reps);
    let mut accel1_hash = 0u64;
    let mut threaded_hash = 0u64;
    let scalar = RenderJob {
        accel: accel.as_ref(),
        tile,
        ..RenderJob::new(&w.volume, block, &w.transfer, &cam, scalar_params)
    };
    let laned = RenderJob {
        params: lane_params,
        ..scalar
    };
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let img = render_image(&scalar, None);
        accel1_hash = fnv1a(&img);
        std::hint::black_box(img.non_blank_count());
        accel1_ns.push(t0.elapsed().as_secs_f64() * 1e9);

        let t0 = std::time::Instant::now();
        let img = render_image(&laned, Some(pool));
        threaded_hash = fnv1a(&img);
        std::hint::black_box(img.non_blank_count());
        threaded_ns.push(t0.elapsed().as_secs_f64() * 1e9);
    }

    let accel1 = min_sample(accel1_ns);
    let pooled = min_sample(threaded_ns);
    obj([
        ("bench", Json::Str("rendering_threaded".into())),
        ("dataset", Json::Str(w.name.into())),
        ("sparse", Json::Bool(w.sparse)),
        (
            "pixels",
            Json::Num(grid.image_size as f64 * grid.image_size as f64),
        ),
        ("threads", Json::Num(pool.threads() as f64)),
        ("lanes", Json::Num(lanes as f64)),
        ("cores", Json::Num(host_cores() as f64)),
        ("accel1_ns", Json::Num(accel1)),
        ("threaded_ns", Json::Num(pooled)),
        ("threads_speedup", Json::Num(accel1 / pooled.max(1.0))),
        ("identical", Json::Bool(accel1_hash == threaded_hash)),
        // Whether this host can actually judge the threading speedup: a
        // host with fewer cores than pool threads cannot, and the
        // recorded entry says so instead of logging a misleading ~1×.
        (
            "gate",
            Json::Str(if host_cores() >= pool.threads() {
                "gated".into()
            } else {
                "skipped-narrow-host".into()
            }),
        ),
    ])
}

/// Cores visible to this process (respects pinning, e.g. `taskset`).
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_table(entries: &[Json]) {
    println!(
        "host: {} core(s) visible to this process (threaded speedup gates \
         are skipped when the pool has more threads than cores)",
        host_cores()
    );
    println!(
        "{:<10} {:<12} {:>6} {:>12} {:>12} {:>10} {:>8} {:>7} {:>9}",
        "bench",
        "dataset",
        "sparse",
        "naive_ms",
        "accel_ms",
        "build_ms",
        "speedup",
        "active",
        "identical"
    );
    for e in entries {
        let bench = e.get("bench").and_then(Json::as_str).unwrap_or("?");
        match bench {
            "rendering" => {
                let f = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "{:<10} {:<12} {:>6} {:>12.3} {:>12.3} {:>10.3} {:>8.2} {:>6.1}% {:>9}",
                    bench,
                    e.get("dataset").and_then(Json::as_str).unwrap_or("?"),
                    if e.get("sparse") == Some(&Json::Bool(true)) {
                        "yes"
                    } else {
                        "no"
                    },
                    f("naive_ns") / 1e6,
                    f("accel_ns") / 1e6,
                    f("build_ns") / 1e6,
                    f("speedup"),
                    f("active_fraction") * 100.0,
                    if e.get("identical") == Some(&Json::Bool(true)) {
                        "yes"
                    } else {
                        "NO"
                    },
                );
            }
            "rendering_threaded" => {
                let f = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "{:<10} {:<12} {:>6} {:>12.3} {:>12.3} {:>10} {:>8.2} {:>7} {:>9}",
                    "threaded",
                    e.get("dataset").and_then(Json::as_str).unwrap_or("?"),
                    if e.get("sparse") == Some(&Json::Bool(true)) {
                        "yes"
                    } else {
                        "no"
                    },
                    f("accel1_ns") / 1e6,
                    f("threaded_ns") / 1e6,
                    format!("t{}·l{}", f("threads"), f("lanes")),
                    f("threads_speedup"),
                    "-",
                    if e.get("identical") == Some(&Json::Bool(true)) {
                        "yes"
                    } else {
                        "NO"
                    },
                );
            }
            _ => {
                println!(
                    "{:<10} {:<12} {:>6} {:>9.3} ns/px",
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

/// Key identifying one bench entry within a run.
fn entry_key(e: &Json) -> (String, String) {
    (
        e.get("bench").and_then(Json::as_str).unwrap_or("").into(),
        e.get("dataset").and_then(Json::as_str).unwrap_or("").into(),
    )
}

/// Compares `current` against the checked-in `after` baseline.
///
/// The primary gate is the naive/accel *speedup*: both sides of the
/// ratio come from interleaved reps of the same run, so it is invariant
/// to host speed and to the between-run throttle swings that make
/// absolute thread-CPU time untrustworthy on shared CI machines. A
/// secondary absolute check (anchor-calibrated, with wide slack) only
/// catches gross slowdowns. Bit-identity and the sparse speedup floor
/// are properties of the current run alone and are enforced
/// unconditionally.
fn check_against(path: &str, grid: &str, current: &[Json]) -> Result<Vec<String>, Vec<String>> {
    let baseline = gate::load_after_baseline(path, SCHEMA, grid);
    let base: BTreeMap<_, _> = baseline.iter().map(|e| (entry_key(e), e)).collect();
    let anchor = |entries: &[Json]| -> f64 {
        entries
            .iter()
            .find(|e| e.get("bench").and_then(Json::as_str) == Some("anchor"))
            .and_then(|e| e.get("ns_per_px"))
            .and_then(Json::as_f64)
            .unwrap_or(1.0)
    };
    // Machine-speed ratio: >1 means this machine is slower than the one
    // that recorded the baseline and the limits scale up accordingly.
    // Floored at 1 — the anchor is a small render whose ns/px can read
    // fast while the big renders read slow (cache footprint, throttle
    // phase), so a quick anchor must never *shrink* the limits.
    let calib = (anchor(current) / anchor(&baseline)).max(1.0);

    let mut passes = Vec::new();
    let mut failures = Vec::new();
    for e in current {
        if e.get("bench").and_then(Json::as_str) == Some("rendering_threaded") {
            check_threaded(e, &base, &mut passes, &mut failures);
            continue;
        }
        if e.get("bench").and_then(Json::as_str) != Some("rendering") {
            continue;
        }
        let key = entry_key(e);
        let label = format!("{}/{}", key.0, key.1);

        if e.get("identical") != Some(&Json::Bool(true)) {
            failures.push(format!(
                "{label}: accelerated image is NOT bit-identical to naive"
            ));
        } else {
            passes.push(format!("{label}: bit-identical"));
        }

        let speedup = e.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
        if e.get("sparse") == Some(&Json::Bool(true)) {
            if speedup < MIN_SPARSE_SPEEDUP {
                failures.push(format!(
                    "{label}: sparse speedup {speedup:.2} < floor {MIN_SPARSE_SPEEDUP}"
                ));
            } else {
                passes.push(format!(
                    "{label}: sparse speedup {speedup:.2} >= {MIN_SPARSE_SPEEDUP}"
                ));
            }
        }

        let Some(b) = base.get(&key) else {
            continue; // new entry; nothing to compare
        };

        // Primary gate: the speedup ratio must not collapse.
        if let Some(base_speedup) = b.get("speedup").and_then(Json::as_f64) {
            let need = base_speedup / SPEEDUP_SLACK;
            if speedup < need {
                failures.push(format!(
                    "{label}: speedup {speedup:.2} < {need:.2} (baseline {base_speedup:.2} / slack {SPEEDUP_SLACK})"
                ));
            } else {
                passes.push(format!(
                    "{label}: speedup {speedup:.2} >= {need:.2} (baseline {base_speedup:.2})"
                ));
            }
        }

        // Secondary gate: gross absolute regression, anchor-calibrated.
        let (cur, old) = (
            e.get("accel_ns").and_then(Json::as_f64),
            b.get("accel_ns").and_then(Json::as_f64),
        );
        if let (Some(cur), Some(old)) = (cur, old) {
            if old >= TIMING_FLOOR_NS {
                let limit = old * calib * ABS_SLACK;
                if cur > limit {
                    failures.push(format!(
                        "{label}: accel_ns {cur:.0} > limit {limit:.0} (baseline {old:.0}, calib {calib:.2})"
                    ));
                } else {
                    passes.push(format!("{label}: accel_ns {cur:.0} <= {limit:.0}"));
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

/// Gate for one `rendering_threaded` entry. Bit-identity is
/// unconditional. The speedup gate is host-aware: on a host with at
/// least as many cores as the pool has threads, the threaded path must
/// beat the 1-thread path by `MIN_THREAD_SPEEDUP` (and stay within
/// `SPEEDUP_SLACK` of the recorded baseline ratio); on a narrower host
/// — the 2-core pinned CI job — threading cannot pay, so only the
/// oversubscription no-slowdown floor applies. The ratio itself comes
/// from interleaved same-run reps, so no anchor calibration is needed.
fn check_threaded(
    e: &Json,
    base: &BTreeMap<(String, String), &Json>,
    passes: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let key = entry_key(e);
    let label = format!("{}/{}", key.0, key.1);
    let f = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);

    if e.get("identical") != Some(&Json::Bool(true)) {
        failures.push(format!(
            "{label}: threaded image is NOT bit-identical to 1-thread accel"
        ));
    } else {
        passes.push(format!("{label}: bit-identical"));
    }

    let speedup = f("threads_speedup");
    let threads = f("threads") as usize;
    if f("accel1_ns") < TIMING_FLOOR_NS {
        passes.push(format!("{label}: below timing floor, speedup not gated"));
        return;
    }
    if host_cores() >= threads {
        let mut need = MIN_THREAD_SPEEDUP;
        if let Some(b) = base.get(&key) {
            if let Some(base_speedup) = b.get("threads_speedup").and_then(Json::as_f64) {
                need = need.max(base_speedup / SPEEDUP_SLACK);
            }
        }
        if speedup < need {
            failures.push(format!(
                "{label}: threads_speedup {speedup:.2} < {need:.2} at {threads} threads"
            ));
        } else {
            passes.push(format!(
                "{label}: threads_speedup {speedup:.2} >= {need:.2} at {threads} threads"
            ));
        }
    } else if speedup < THREAD_NO_SLOWDOWN {
        failures.push(format!(
            "{label}: oversubscribed host ({} cores < {threads} threads) slowed down: \
             {speedup:.2} < {THREAD_NO_SLOWDOWN}",
            host_cores()
        ));
    } else {
        passes.push(format!(
            "{label}: skipped-narrow-host ({} cores < {threads} threads; \
             no slowdown: {speedup:.2} >= {THREAD_NO_SLOWDOWN})",
            host_cores()
        ));
    }
}
