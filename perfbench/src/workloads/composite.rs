//! `composite`: the paper's compositing phase. Engine_high at paper
//! resolution, 384², P=16. Distinct views are rendered during set-up;
//! each operation composites one view with BS, BSBR, BSLC and BSBRC.

use std::time::{Duration, Instant};

use slsvr_core::Method;
use vr_system::ExperimentConfig;
use vr_volume::DatasetKind;

use super::{setup, Args, Rng};
use crate::layers;
use crate::oracle;
use crate::probe::{self, FrameTime};
use crate::report::{Op, Report, Shape, METHODS};
use crate::stats::median;
use crate::trace::{SpanId, Tracer, PROBE_OP};

const SIZE: u16 = 384;
const P: usize = 16;
/// Views rendered during set-up, evenly spaced around the y axis, each
/// jittered by up to [`JITTER_DEG`] by the seed so that seeds differ in
/// their views but not in how much work the views hold; operations cycle
/// through them.
const VIEWS: usize = 4;
const JITTER_DEG: f32 = 2.0;
/// Views the per-layer frame and serve probes run on.
const PROBE_VIEWS: usize = 2;
pub const SHAPE: Shape = Shape {
    tail_pct: 90.0,
    limit_ms: 150.0,
};

pub fn views(seed: u64) -> Vec<ExperimentConfig> {
    let mut rng = Rng::new(seed);
    let mut jitter = || rng.range(-JITTER_DEG, JITTER_DEG);
    (0..VIEWS)
        .map(|k| ExperimentConfig {
            dataset: DatasetKind::EngineHigh,
            image_size: SIZE,
            processors: P,
            method: Method::Bsbrc,
            rot_x_deg: 20.0 + jitter(),
            rot_y_deg: 30.0 + k as f32 * 360.0 / VIEWS as f32 + jitter(),
            ..Default::default()
        })
        .collect()
}

pub fn run(args: Args, tr: &Tracer) -> Report {
    let mut report = Report::default();
    let views = views(args.seed);
    let base = views[0];
    let ((dataset, exps), setup_s) = setup(|| {
        let dataset = tr.span("volume.build", PROBE_OP, SpanId::NONE, || {
            layers::volume_build(base.dataset, base.resolved_dims(), base.macrocell)
        });
        let exps: Vec<_> = views
            .iter()
            .map(|v| {
                tr.span("render.prepare", PROBE_OP, SpanId::NONE, || {
                    layers::render_prepare(v, &dataset)
                })
            })
            .collect();
        (dataset, exps)
    });
    let references: Vec<_> = exps.iter().map(|e| e.reference()).collect();
    let scalar = layers::render_scalar(&views[0], &dataset);
    report.check(
        "scalar view 0",
        oracle::check_render_identity(exps[0].subimages(), scalar.subimages()),
    );
    drop(scalar);

    let mut ops = Vec::new();
    let start = Instant::now();
    let mut timed_s = 0.0;
    while start.elapsed() < args.budget() {
        let i = ops.len();
        let op = i as u64;
        let v = i % VIEWS;
        let t0 = Instant::now();
        let root = tr.begin("view", op, SpanId::NONE);
        let outs: Vec<_> = METHODS
            .iter()
            .map(|&(m, _, span)| tr.span(span, op, root, || layers::composite_run(&exps[v], m)))
            .collect();
        tr.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        timed_s += ms / 1e3;
        let mut ok = true;
        for (out, (_, stem, _)) in outs.iter().zip(METHODS) {
            if let Err(e) = oracle::check_composite(out, &references[v]) {
                report.violation(&format!("view {v} op {i} {stem}"), &e);
                ok = false;
            }
        }
        ops.push(Op {
            ms,
            ok,
            traced: tr.traces(op),
        });
    }
    report.end_to_end(&ops, timed_s, setup_s, SHAPE);

    if args.trace {
        let refs: Vec<_> = exps.iter().collect();
        probe::nonblank_layer(&mut report, &refs);
        let hashes = probe::methods(tr, &mut report, &refs[..PROBE_VIEWS]);
        probe::kernels(tr, &mut report, &refs[..1]);
        probe::comm(tr, P);
        let configs = &views[..PROBE_VIEWS];
        let out = layers::composite_run(refs[0], Method::Bsbrc);
        probe::wire(tr, configs, &out);
        let frames: Vec<FrameTime> = configs
            .iter()
            .map(|c| {
                let root = tr.begin("frame", PROBE_OP, SpanId::NONE);
                let (_, _, time) = probe::frame(tr, PROBE_OP, root, c, &dataset);
                tr.end(root);
                time
            })
            .collect();
        probe::frame_layer(&mut report, &frames);
        let frame_ms: Vec<f64> = frames.iter().map(|f| f.frame_ms).collect();
        let interval = Duration::from_secs_f64(1.5e-3 * median(&frame_ms));
        probe::serve(tr, &mut report, configs, &hashes, interval);
        probe::span_layer(&mut report, &tr.spans(), "view");
    }
    report
}
