//! Per-layer measurements every workload makes on its own inputs:
//! frame timing, the four methods, the image kernels, the rank group,
//! the wire codec and a short serve run, plus the span summaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use slsvr_core::Method;
use vr_image::RunSet;
use vr_serve::{DaemonConfig, ServeSource, ServiceStats};
use vr_system::{Experiment, ExperimentConfig, Outcome};
use vr_volume::Dataset;

use crate::json::Json;
use crate::layers;
use crate::loadgen::{self, LoadRun, Request};
use crate::oracle;
use crate::report::{Report, METHODS};
use crate::stats::median;
use crate::trace::{self, Span, SpanId, Tracer, PROBE_OP};

/// Wall time of one frame and of the render inside it, ms.
#[derive(Clone, Copy, Debug)]
pub struct FrameTime {
    pub frame_ms: f64,
    pub render_ms: f64,
}

/// Renders and composites one frame with the config's method, spans
/// under `parent`.
pub fn frame(
    tr: &Tracer,
    op: u64,
    parent: SpanId,
    config: &ExperimentConfig,
    dataset: &Arc<Dataset>,
) -> (Experiment, Outcome, FrameTime) {
    let t0 = Instant::now();
    let exp = tr.span("render.prepare", op, parent, || {
        layers::render_prepare(config, dataset)
    });
    let t1 = Instant::now();
    let name = span_name(config.method);
    let out = tr.span(name, op, parent, || {
        layers::composite_run(&exp, config.method)
    });
    let t2 = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let time = FrameTime {
        frame_ms: ms(t2 - t0),
        render_ms: ms(t1 - t0),
    };
    (exp, out, time)
}

/// The span name of a method's composite call.
pub fn span_name(method: Method) -> &'static str {
    METHODS
        .iter()
        .find(|m| m.0 == method)
        .map(|m| m.2)
        .expect("one of the four paper methods")
}

/// `render.share` and `composite.overhead_ms` from frames that render
/// then composite.
pub fn frame_layer(report: &mut Report, frames: &[FrameTime]) {
    let share: Vec<f64> = frames.iter().map(|f| f.render_ms / f.frame_ms).collect();
    let overhead: Vec<f64> = frames.iter().map(|f| f.frame_ms - f.render_ms).collect();
    report.layer("render.share", median(&share));
    report.layer("composite.overhead_ms", median(&overhead));
}

/// Non-blank share of the subimages of `exps`: an exact count.
pub fn nonblank_layer(report: &mut Report, exps: &[&Experiment]) {
    let (mut nb, mut px) = (0usize, 0usize);
    for img in exps.iter().flat_map(|e| e.subimages()) {
        nb += img.non_blank_count();
        px += img.area();
    }
    report.layer("render.nonblank_frac", nb as f64 / px as f64);
}

/// Runs the four methods on each probe view, checks every composite and
/// records the exact traffic and buffer counts. Returns the BSBRC
/// frame digest of each view.
pub fn methods(tr: &Tracer, report: &mut Report, exps: &[&Experiment]) -> Vec<u64> {
    let mut hashes = Vec::new();
    let references: Vec<_> = exps.iter().map(|e| e.reference()).collect();
    for (method, stem, span) in METHODS {
        let (mut bytes, mut msgs, mut m_max, mut peak) = (0u64, 0u64, 0u64, 0u64);
        for (k, exp) in exps.iter().enumerate() {
            let out = tr.span(span, PROBE_OP, SpanId::NONE, || {
                layers::composite_run(exp, method)
            });
            report.check(
                &format!("probe view {k} {stem}"),
                oracle::check_composite(&out, &references[k]),
            );
            bytes += out.traffic.iter().map(|t| t.sent_bytes).sum::<u64>();
            msgs += out.traffic.iter().map(|t| t.sent_messages).sum::<u64>();
            m_max = m_max.max(out.aggregate.m_max);
            peak = peak.max(out.peak_pixel_buffer_bytes());
            if method == Method::Bsbrc {
                hashes.push(layers::image_hash(&out.image));
            }
        }
        report.layer(format!("comm.{stem}_bytes_total"), bytes as f64);
        report.layer(format!("comm.{stem}_msgs_total"), msgs as f64);
        report.layer(format!("comm.{stem}_m_max_bytes"), m_max as f64);
        report.layer(format!("composite.{stem}_peak_buffer_bytes"), peak as f64);
    }
    hashes
}

/// Passes over the probe views for each kernel measurement.
const KERNEL_PASSES: usize = 5;

/// `over`, run-scan and RLE-encode cost per pixel on the workload's own
/// subimages, with the bytes each moves per pixel (computed, not
/// measured) and the array sizes next to them.
pub fn kernels(tr: &Tracer, report: &mut Report, exps: &[&Experiment]) {
    let (mut blend, mut scan, mut rle) = (Vec::new(), Vec::new(), Vec::new());
    let (mut px, mut runs, mut codes_len) = (0usize, 0usize, 0usize);
    let mut table = RunSet::new();
    let mut codes = Vec::new();
    for pass in 0..KERNEL_PASSES {
        let (mut tb, mut ts, mut te) = (0.0, 0.0, 0.0);
        for exp in exps {
            let subs = exp.subimages();
            for (r, front) in subs.iter().enumerate() {
                let mut back = subs[(r + 1) % subs.len()].pixels().to_vec();
                let t0 = Instant::now();
                tr.span("image.blend", PROBE_OP, SpanId::NONE, || {
                    layers::image_blend(front.pixels(), &mut back)
                });
                let t1 = Instant::now();
                tr.span("image.scan", PROBE_OP, SpanId::NONE, || {
                    layers::image_scan(front.pixels(), &mut table)
                });
                let t2 = Instant::now();
                tr.span("image.rle", PROBE_OP, SpanId::NONE, || {
                    layers::image_rle(&table, front.area(), &mut codes)
                });
                let t3 = Instant::now();
                tb += (t1 - t0).as_secs_f64();
                ts += (t2 - t1).as_secs_f64();
                te += (t3 - t2).as_secs_f64();
                if pass == 0 {
                    px += front.area();
                    runs += table.runs().len();
                    codes_len += codes.len();
                }
            }
        }
        blend.push(tb);
        scan.push(ts);
        rle.push(te);
    }
    let ns = |v: &[f64]| median(v) * 1e9 / px as f64;
    report.layer("image.blend_ns_per_px", ns(&blend));
    report.layer("image.scan_ns_per_px", ns(&scan));
    report.layer("image.rle_ns_per_px", ns(&rle));
    let px_bytes = vr_image::BYTES_PER_PIXEL as f64;
    let subimage_bytes = exps[0].subimages()[0].area() as f64 * px_bytes;
    report.label(
        "image.computed_bytes_per_px",
        Json::obj([
            ("blend", Json::Num(3.0 * px_bytes)),
            ("scan", Json::Num(px_bytes)),
            (
                "rle",
                Json::Num((runs * 16 + codes_len * 2) as f64 / px as f64),
            ),
        ]),
    );
    report.label(
        "image.array_bytes",
        Json::obj([
            ("subimage", Json::Num(subimage_bytes)),
            (
                "per_view",
                Json::Num(subimage_bytes * exps[0].subimages().len() as f64),
            ),
        ]),
    );
}

/// Starting and joining an empty rank group at the workload's P.
pub fn comm(tr: &Tracer, p: usize) {
    for _ in 0..100 {
        tr.span("comm.group", PROBE_OP, SpanId::NONE, || {
            layers::comm_group(p)
        });
    }
}

/// The wire codec on the workload's own requests and one reply.
pub fn wire(tr: &Tracer, configs: &[ExperimentConfig], reply: &Outcome) {
    for (i, c) in configs.iter().cycle().take(200).enumerate() {
        tr.span("wire.request_codec", PROBE_OP, SpanId::NONE, || {
            layers::wire_request_codec(i as u64, c)
        });
    }
    let resp = layers::frame_reply(&configs[0], reply);
    for i in 0..20 {
        tr.span("wire.response_codec", PROBE_OP, SpanId::NONE, || {
            layers::wire_response_codec(i, &resp)
        });
    }
}

/// Service counters of the timed part of a serve run.
pub fn serve_counters(report: &mut Report, before: &ServiceStats, after: &ServiceStats) {
    let d = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    let hits = d(|s| s.cache.hits);
    let misses = d(|s| s.cache.misses);
    report.layer("serve.hit_rate", hits / (hits + misses).max(1.0));
    report.layer("serve.rendered", d(|s| s.rendered_frames));
    report.layer("serve.coalesced", d(|s| s.completed_coalesced));
    report.layer("serve.overloaded", d(|s| s.rejected_overload));
    report.layer("serve.shed", d(|s| s.shed_deadline));
    report.layer(
        "serve.rejected",
        d(|s| s.rejected_failed + s.rejected_circuit + s.rejected_shutdown),
    );
    report.layer("serve.peak_queue", after.peak_queue_depth as f64);
}

/// Client-side split of a serve run's latency.
pub fn serve_latency(report: &mut Report, run: &LoadRun) {
    let ok = || run.answers.iter().filter(|a| a.verdict.is_ok());
    let server: Vec<f64> = ok().filter_map(|a| a.server_ms).collect();
    let edge: Vec<f64> = ok()
        .filter_map(|a| a.server_ms.map(|s| a.latency_ms - s))
        .collect();
    let hot: Vec<f64> = ok().filter(|a| a.hot).map(|a| a.latency_ms).collect();
    let cold: Vec<f64> = ok().filter(|a| !a.hot).map(|a| a.latency_ms).collect();
    let p50 = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    report.layer("serve.server_ms_p50", p50(&server));
    report.layer("serve.edge_ms_p50", p50(&edge));
    report.layer("serve.hot_ms_p50", p50(&hot));
    report.layer("serve.cold_ms_p50", p50(&cold));
    report.layer("serve.generator_lag_ms_max", run.lag_ms_max);
    let sources = |want: ServeSource| {
        run.answers
            .iter()
            .filter(|a| a.source == Some(want))
            .count() as i64
    };
    report.label(
        "serve.sources",
        Json::obj([
            ("fresh", Json::Int(sources(ServeSource::Fresh))),
            ("cache", Json::Int(sources(ServeSource::Cache))),
            ("coalesced", Json::Int(sources(ServeSource::Coalesced))),
        ]),
    );
}

/// Operation ids of the short serve run the render workloads make.
const SERVE_PROBE_OP: u64 = 1 << 41;

/// A short open-loop serve run of the workload's own frames: one warm
/// request for view 0, then each further view cold with a revisit of
/// view 0 (a cache hit) after it, one every `interval`.
pub fn serve(
    tr: &Tracer,
    report: &mut Report,
    configs: &[ExperimentConfig],
    hashes: &[u64],
    interval: Duration,
) {
    let daemon = layers::serve_start(DaemonConfig::default());
    let (mut tx, mut rx) = layers::serve_connect(daemon.local_addr()).expect("connect");
    layers::serve_submit(&mut tx, &configs[0]).expect("submit warm-up");
    let (_, warm) = layers::serve_recv(&mut rx).expect("warm-up reply");
    report.check(
        "serve probe warm-up",
        oracle::check_reply(&warm, hashes[0], |_| false),
    );
    let (tx, rx) = {
        // A fresh connection so request ids start at 1.
        drop((tx, rx));
        layers::serve_connect(daemon.local_addr()).expect("connect")
    };
    let before = layers::serve_stats(&daemon);
    let mut plan = Vec::new();
    for k in 1..configs.len() {
        for (i, hot) in [(k, false), (0, true)] {
            plan.push(Request {
                config: configs[i],
                hot,
                expected: hashes[i],
            });
        }
    }
    let run = loadgen::run(tx, rx, &plan, interval, tr, SERVE_PROBE_OP);
    let after = layers::serve_stats(&daemon);
    for a in &run.answers {
        report.check("serve probe reply", a.verdict.clone());
    }
    serve_latency(report, &run);
    serve_counters(report, &before, &after);
    daemon.shutdown();
}

/// Per-layer medians read off the spans.
pub fn span_layer(report: &mut Report, spans: &[Span], op_root: &str) {
    let p50 = |name: &str| {
        let v = trace::durations_ms(spans, name);
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    report.layer("volume.build_ms", p50("volume.build"));
    report.layer("render.prepare_ms_p50", p50("render.prepare"));
    report.layer("comm.group_ms_p50", p50("comm.group"));
    report.layer("wire.request_codec_us", p50("wire.request_codec") * 1e3);
    report.layer("wire.response_codec_us", p50("wire.response_codec") * 1e3);
    for (_, stem, span) in METHODS {
        report.layer(format!("composite.{stem}_ms_p50"), p50(span));
    }
    let coverage = trace::child_coverage(spans, op_root);
    report.layer(
        "trace.coverage_min",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let self_ms = trace::self_time_ms(spans);
    report.label(
        "self_time_ms",
        Json::obj(self_ms.into_iter().map(|(k, v)| (k, Json::Num(v)))),
    );
}
