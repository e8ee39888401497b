//! `orbit`: the render-bound interactive frame. Head at paper
//! resolution, 256², P=8, BSBRC; every frame is a distinct view of one
//! orbit, rendered and composited.

use std::time::Instant;

use slsvr_core::Method;
use vr_system::{Animation, ExperimentConfig};
use vr_volume::DatasetKind;

use super::{setup, Args, Rng};
use crate::layers;
use crate::oracle;
use crate::probe::{self, FrameTime};
use crate::report::{Op, Report, Shape};
use crate::stats::median;
use crate::trace::{SpanId, Tracer, PROBE_OP};

const SIZE: u16 = 256;
const P: usize = 8;
/// Views on the orbit; they are visited in a stride order so that any
/// prefix of the run spreads evenly around it.
const VIEWS: usize = 360;
const STRIDE: usize = 139;
/// Views checked against the scalar renderer before timing.
const SCALAR_VIEWS: usize = 2;
/// Views the per-layer probes run on.
const PROBE_VIEWS: usize = 3;
pub const SHAPE: Shape = Shape {
    tail_pct: 90.0,
    limit_ms: 500.0,
};

pub fn views(seed: u64) -> Vec<ExperimentConfig> {
    let mut rng = Rng::new(seed);
    let base = ExperimentConfig {
        dataset: DatasetKind::Head,
        image_size: SIZE,
        processors: P,
        method: Method::Bsbrc,
        rot_x_deg: 20.0 + rng.range(-1.0, 1.0),
        rot_y_deg: rng.range(0.0, 360.0 / VIEWS as f32),
        ..Default::default()
    };
    let orbit = Animation {
        base,
        frames: VIEWS,
        sweep_y_deg: 360.0 * (VIEWS - 1) as f32 / VIEWS as f32,
        sweep_x_deg: 10.0,
    }
    .frame_configs(Method::Bsbrc);
    (0..VIEWS).map(|i| orbit[i * STRIDE % VIEWS]).collect()
}

pub fn run(args: Args, tr: &Tracer) -> Report {
    let mut report = Report::default();
    let views = views(args.seed);
    let base = views[0];
    let (dataset, setup_s) = setup(|| {
        tr.span("volume.build", PROBE_OP, SpanId::NONE, || {
            layers::volume_build(base.dataset, base.resolved_dims(), base.macrocell)
        })
    });

    for (k, view) in views.iter().take(SCALAR_VIEWS).enumerate() {
        let fast = layers::render_prepare(view, &dataset);
        let scalar = layers::render_scalar(view, &dataset);
        report.check(
            &format!("scalar view {k}"),
            oracle::check_render_identity(fast.subimages(), scalar.subimages()),
        );
    }

    let mut ops = Vec::new();
    let mut frames: Vec<FrameTime> = Vec::new();
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut timed_s = 0.0;
    while start.elapsed() < args.budget() {
        let i = ops.len();
        let op = i as u64;
        let config = &views[i % VIEWS];
        let root = tr.begin("frame", op, SpanId::NONE);
        let (exp, out, time) = probe::frame(tr, op, root, config, &dataset);
        tr.end(root);
        timed_s += time.frame_ms / 1e3;
        let verdict = oracle::check_composite(&out, &exp.reference());
        if let Err(v) = &verdict {
            report.violation(&format!("frame {i}"), v);
        }
        ops.push(Op {
            ms: time.frame_ms,
            ok: verdict.is_ok(),
            traced: tr.traces(op),
        });
        if tr.traces(op) {
            frames.push(time);
        }
        if kept.len() < PROBE_VIEWS {
            kept.push((*config, exp));
        }
    }
    report.end_to_end(&ops, timed_s, setup_s, SHAPE);

    if args.trace {
        let exps: Vec<_> = kept.iter().map(|(_, e)| e).collect();
        let configs: Vec<_> = kept.iter().map(|(c, _)| *c).collect();
        probe::frame_layer(&mut report, &frames);
        probe::nonblank_layer(&mut report, &exps);
        let hashes = probe::methods(tr, &mut report, &exps);
        probe::kernels(tr, &mut report, &exps);
        probe::comm(tr, P);
        let out = layers::composite_run(exps[0], Method::Bsbrc);
        probe::wire(tr, &configs, &out);
        let frame_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
        let interval = std::time::Duration::from_secs_f64(1.5e-3 * median(&frame_ms));
        probe::serve(tr, &mut report, &configs, &hashes, interval);
        probe::span_layer(&mut report, &tr.spans(), "frame");
    }
    report
}
