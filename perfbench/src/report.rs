//! What one workload run reports, and the metric names every workload
//! must fill.

use crate::json::Json;
use crate::oracle::Violation;
use crate::stats;

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("correct_frac", "frac"),
    ("within_limit_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The four paper methods, their metric-name stems and span names.
pub const METHODS: [(slsvr_core::Method, &str, &str); 4] = [
    (slsvr_core::Method::Bs, "bs", "composite.bs"),
    (slsvr_core::Method::Bsbr, "bsbr", "composite.bsbr"),
    (slsvr_core::Method::Bslc, "bslc", "composite.bslc"),
    (slsvr_core::Method::Bsbrc, "bsbrc", "composite.bsbrc"),
];

/// Per-layer metrics, reported by traced runs of every workload.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("volume.build_ms", "ms"),
        ("render.prepare_ms_p50", "ms"),
        ("render.share", "frac"),
        ("render.nonblank_frac", "frac"),
        ("composite.overhead_ms", "ms"),
        ("comm.group_ms_p50", "ms"),
        ("image.blend_ns_per_px", "ns/px"),
        ("image.scan_ns_per_px", "ns/px"),
        ("image.rle_ns_per_px", "ns/px"),
        ("serve.server_ms_p50", "ms"),
        ("serve.edge_ms_p50", "ms"),
        ("serve.hot_ms_p50", "ms"),
        ("serve.cold_ms_p50", "ms"),
        ("serve.hit_rate", "frac"),
        ("serve.rendered", "count"),
        ("serve.coalesced", "count"),
        ("serve.overloaded", "count"),
        ("serve.shed", "count"),
        ("serve.rejected", "count"),
        ("serve.peak_queue", "count"),
        ("serve.generator_lag_ms_max", "ms"),
        ("wire.request_codec_us", "us"),
        ("wire.response_codec_us", "us"),
        ("trace.overhead_ms", "ms"),
        ("trace.coverage_min", "frac"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (_, m, _) in METHODS {
        names.push((format!("composite.{m}_ms_p50"), "ms"));
        names.push((format!("composite.{m}_peak_buffer_bytes"), "bytes"));
        names.push((format!("comm.{m}_bytes_total"), "bytes"));
        names.push((format!("comm.{m}_msgs_total"), "count"));
        names.push((format!("comm.{m}_m_max_bytes"), "bytes"));
    }
    names
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub ms: f64,
    pub ok: bool,
    pub traced: bool,
}

/// A workload's fixed reporting parameters.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The tail percentile reported as `latency_ms_tail`.
    pub tail_pct: f64,
    /// The latency limit behind `within_limit_frac`, ms.
    pub limit_ms: f64,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<(String, f64)>,
    pub labels: Vec<(String, Json)>,
}

impl Report {
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.per_layer.push((name.into(), value));
    }

    pub fn label(&mut self, name: impl Into<String>, value: Json) {
        self.labels.push((name.into(), value));
    }

    /// Records a wrong output (at most a few are kept for the log).
    pub fn violation(&mut self, what: &str, v: &Violation) {
        if self.violations.len() < 8 {
            self.violations.push(format!("{what}: {v}"));
        }
    }

    /// A check outside the timed operations; a failure makes the run
    /// incorrect without counting as a failed operation.
    pub fn check(&mut self, what: &str, r: Result<(), Violation>) {
        if let Err(v) = r {
            self.violation(what, &v);
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Fills the end-to-end metrics from the timed operations.
    /// `timed_s` is the wall time the operations ran for.
    pub fn end_to_end(&mut self, ops: &[Op], timed_s: f64, setup_s: f64, shape: Shape) {
        self.attempted = ops.len() as u64;
        self.failed = ops.iter().filter(|o| !o.ok).count() as u64;
        let ok: Vec<f64> = ops.iter().filter(|o| o.ok).map(|o| o.ms).collect();
        let (p50, tail, pct) = if ok.is_empty() {
            (f64::NAN, f64::NAN, shape.tail_pct)
        } else {
            let (tail, pct) = stats::tail(&ok, shape.tail_pct);
            (stats::median(&ok), tail, pct)
        };
        let within = ok.iter().filter(|&&ms| ms <= shape.limit_ms).count();
        let n = ops.len().max(1) as f64;
        self.end_to_end = vec![
            ("latency_ms_p50".into(), p50),
            ("latency_ms_tail".into(), tail),
            ("throughput_per_s".into(), ok.len() as f64 / timed_s),
            ("correct_frac".into(), ok.len() as f64 / n),
            ("within_limit_frac".into(), within as f64 / n),
            ("setup_s".into(), setup_s),
            ("peak_rss_mb".into(), peak_rss_mb()),
        ];
        self.label("samples", Json::Int(ops.len() as i64));
        self.label("latency_ms_tail_percentile", Json::Num(pct));
        self.label("latency_limit_ms", Json::Num(shape.limit_ms));
        // Tracing overhead: traced minus untraced median of one run.
        let half = |traced: bool| -> Vec<f64> {
            ops.iter()
                .filter(|o| o.ok && o.traced == traced)
                .map(|o| o.ms)
                .collect()
        };
        let (on, off) = (half(true), half(false));
        if !on.is_empty() && !off.is_empty() {
            self.layer(
                "trace.overhead_ms",
                stats::median(&on) - stats::median(&off),
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics the runs report.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str, unit: &str| {
            text.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            ))
        };
        let per_layer = per_layer_names();
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer.clone())
        {
            assert!(
                declared(&name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let workloads = ["orbit", "composite", "serve"];
        assert_eq!(
            text.matches("\"name\":").count(),
            workloads.len() + END_TO_END.len() + per_layer.len()
        );
    }
}
