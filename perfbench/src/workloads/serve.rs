//! `serve`: the request path through the daemon. An in-process daemon
//! (1 shard, 2 workers) is driven over loopback by the open-loop
//! generator at a fixed rate. Frames are small (Engine_high at
//! 64×64×32, 128², P=4) so wire, queue, cache and per-frame overhead
//! are a large share of each request.
//!
//! Two sessions share the connection, told apart by their volume dims:
//! the hot session revisits four poses, so the frame cache answers; the
//! cold session sweeps fresh poses past the cache's capacity, so every
//! request renders, inserts and evicts.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use slsvr_core::Method;
use vr_serve::DaemonConfig;
use vr_system::{Experiment, ExperimentConfig, Outcome};
use vr_volume::{Dataset, DatasetKind};

use super::{setup, Args, Rng};
use crate::layers;
use crate::loadgen::{self, Request};
use crate::oracle;
use crate::probe::{self, FrameTime};
use crate::report::{Op, Report, Shape};
use crate::trace::{SpanId, Tracer, PROBE_OP};

const SIZE: u16 = 128;
const P: usize = 4;
const COLD_DIMS: [usize; 3] = [64, 64, 32];
const HOT_DIMS: [usize; 3] = [64, 64, 31];
const HOT_POSES: usize = 4;
/// Every third request belongs to the hot session.
const HOT_EVERY: usize = 3;
/// Offered load, requests per second: about half of what two workers
/// render fresh on a 2-core host, counting that hot requests are cache
/// hits.
pub const RATE_PER_S: f64 = 36.0;
/// Views checked against the scalar renderer before timing.
const SCALAR_VIEWS: usize = 2;
/// Cold views the per-layer probes run on.
const PROBE_VIEWS: usize = 4;
pub const SHAPE: Shape = Shape {
    tail_pct: 90.0,
    limit_ms: 100.0,
};

fn config(dims: [usize; 3], rot_x_deg: f32, rot_y_deg: f32) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetKind::EngineHigh,
        image_size: SIZE,
        processors: P,
        method: Method::Bsbrc,
        volume_dims: Some(dims),
        rot_x_deg,
        rot_y_deg,
        ..Default::default()
    }
}

/// The hot poses and `cold` distinct cold poses for `seed`.
pub fn poses(seed: u64, cold: usize) -> (Vec<ExperimentConfig>, Vec<ExperimentConfig>) {
    let mut rng = Rng::new(seed);
    let offset = rng.range(0.0, 90.0);
    let hot = (0..HOT_POSES)
        .map(|k| config(HOT_DIMS, rng.range(0.0, 40.0), offset + 90.0 * k as f32))
        .collect();
    let mut seen = HashSet::new();
    let mut cold_poses = Vec::with_capacity(cold);
    let tilt = rng.range(0.0, 1.0);
    let mut c = 0u32;
    while cold_poses.len() < cold {
        let x = 5.0 + 35.0 * (tilt + c as f32 * 0.618_034).fract();
        let y = (offset + c as f32 * 137.507_76) % 360.0;
        c += 1;
        let cfg = config(COLD_DIMS, x, y);
        if seen.insert(vr_serve::frame_key(&cfg)) {
            cold_poses.push(cfg);
        }
    }
    (hot, cold_poses)
}

/// A frame rendered for its expected digest.
struct Expected {
    hash: u64,
    time: FrameTime,
    verdict: Result<(), oracle::Violation>,
    kept: Option<(Experiment, Outcome)>,
}

fn expected_frame(tr: &Tracer, cfg: &ExperimentConfig, ds: &Arc<Dataset>, keep: bool) -> Expected {
    let single = ExperimentConfig {
        render_threads: 1,
        ..*cfg
    };
    let root = tr.begin("frame", PROBE_OP, SpanId::NONE);
    let (exp, out, time) = probe::frame(tr, PROBE_OP, root, &single, ds);
    tr.end(root);
    Expected {
        hash: layers::image_hash(&out.image),
        time,
        verdict: oracle::check_composite(&out, &exp.reference()),
        kept: keep.then_some((exp, out)),
    }
}

pub fn run(args: Args, tr: &Tracer) -> Report {
    let mut report = Report::default();
    let n = (args.seconds * RATE_PER_S).round().max(1.0) as usize;
    let n_cold = (0..n).filter(|i| i % HOT_EVERY != 0).count();
    // One more cold pose than the run uses warms the cold session.
    let (hot, cold) = poses(args.seed, n_cold + 1);

    // Expected digests, through `Experiment`, before anything is timed:
    // two single-threaded renders at a time, as the daemon's two workers
    // render. Render threads never change a frame's bits.
    let build = |dims: [usize; 3]| {
        let c = config(dims, 0.0, 0.0);
        tr.span("volume.build", PROBE_OP, SpanId::NONE, || {
            layers::volume_build(c.dataset, dims, c.macrocell)
        })
    };
    let (hot_ds, cold_ds) = (build(HOT_DIMS), build(COLD_DIMS));
    let all: Vec<(usize, ExperimentConfig)> =
        hot.iter().chain(&cold).copied().enumerate().collect();
    let expected: Vec<Expected> = thread::scope(|scope| {
        let workers: Vec<_> = all
            .chunks(all.len().div_ceil(2))
            .map(|chunk| {
                let (hot_ds, cold_ds) = (&hot_ds, &cold_ds);
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(i, cfg)| {
                            let ds = if cfg.volume_dims == Some(HOT_DIMS) {
                                hot_ds
                            } else {
                                cold_ds
                            };
                            let keep = (HOT_POSES..HOT_POSES + PROBE_VIEWS).contains(&i);
                            expected_frame(tr, &cfg, ds, keep)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("precompute thread"))
            .collect()
    });
    let mut frames: Vec<FrameTime> = Vec::new();
    let mut kept = Vec::new();
    let mut hashes = Vec::new();
    for e in expected {
        report.check("expected frame", e.verdict);
        frames.push(e.time);
        hashes.push(e.hash);
        kept.extend(e.kept);
    }
    let (hot_hash, cold_hash) = hashes.split_at(HOT_POSES);
    for (k, c) in cold.iter().take(SCALAR_VIEWS).enumerate() {
        let fast = layers::render_prepare(c, &cold_ds);
        let scalar = layers::render_scalar(c, &cold_ds);
        report.check(
            &format!("scalar view {k}"),
            oracle::check_render_identity(fast.subimages(), scalar.subimages()),
        );
    }

    // Set-up: start the daemon, then one request per hot pose and one
    // cold request so datasets are resident and hot frames cached.
    let (daemon, setup_s) = setup(|| {
        let daemon = layers::serve_start(DaemonConfig::default());
        let (mut tx, mut rx) = layers::serve_connect(daemon.local_addr()).expect("connect");
        let warm = hot
            .iter()
            .zip(hot_hash)
            .chain([(&cold[n_cold], &cold_hash[n_cold])]);
        for (cfg, &hash) in warm {
            layers::serve_submit(&mut tx, cfg).expect("submit warm-up");
            let (_, reply) = layers::serve_recv(&mut rx).expect("warm-up reply");
            report.check("warm-up", oracle::check_reply(&reply, hash, |_| false));
        }
        daemon
    });

    let mut cold_iter = cold.iter().zip(cold_hash);
    let plan: Vec<Request> = (0..n)
        .map(|i| {
            if i % HOT_EVERY == 0 {
                let k = (i / HOT_EVERY) % HOT_POSES;
                Request {
                    config: hot[k],
                    hot: true,
                    expected: hot_hash[k],
                }
            } else {
                let (cfg, &hash) = cold_iter.next().expect("enough cold poses");
                Request {
                    config: *cfg,
                    hot: false,
                    expected: hash,
                }
            }
        })
        .collect();

    let (tx, rx) = layers::serve_connect(daemon.local_addr()).expect("connect");
    let before = layers::serve_stats(&daemon);
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let run = loadgen::run(tx, rx, &plan, interval, tr, 0);
    let after = layers::serve_stats(&daemon);
    let ops: Vec<Op> = run
        .answers
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if let Err(v) = &a.verdict {
                report.violation(&format!("request {i}"), v);
            }
            Op {
                ms: a.latency_ms,
                ok: a.verdict.is_ok(),
                traced: tr.traces(i as u64),
            }
        })
        .collect();
    report.end_to_end(&ops, run.wall_s, setup_s, SHAPE);
    report.label("rate_per_s", crate::json::Json::Num(RATE_PER_S));

    if args.trace {
        probe::serve_latency(&mut report, &run);
        probe::serve_counters(&mut report, &before, &after);
        probe::frame_layer(&mut report, &frames);
        let exps: Vec<_> = kept.iter().map(|(e, _)| e).collect();
        probe::nonblank_layer(&mut report, &exps);
        probe::methods(tr, &mut report, &exps);
        probe::kernels(tr, &mut report, &exps);
        probe::comm(tr, P);
        let configs: Vec<_> = plan.iter().take(60).map(|r| r.config).collect();
        probe::wire(tr, &configs, &kept[0].1);
        probe::span_layer(&mut report, &tr.spans(), "serve.request");
    }
    daemon.shutdown();
    report
}
