//! The experiment runner: render once, composite with any method.

use std::sync::Arc;

use slsvr_core::{
    composite, gather_image_tolerant, reference_composite, virtual_completion, CompositeError,
    CompositeResult, GatheredImage, Method, MethodStats,
};
use vr_comm::{run_group_with, Endpoint, TrafficStats};
use vr_image::Image;
use vr_render::{Camera, RenderPool};
use vr_volume::{Dataset, DepthOrder};

use crate::config::{CompTiming, ExperimentConfig};
use crate::view::{self, Scene};

/// A prepared workload: dataset built, volume partitioned, camera fixed
/// and all subimages rendered. Rendering happens **once**; each
/// compositing method then runs on clones of the same subimages —
/// exactly how the paper isolates the compositing phase.
pub struct Experiment {
    config: ExperimentConfig,
    camera: Camera,
    depth: DepthOrder,
    subimages: Vec<Image>,
    /// Per-rank rendering wall time, seconds (informational; the paper's
    /// tables cover only the compositing phase).
    pub render_seconds: Vec<f64>,
}

/// Group-level aggregates of a compositing run.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Max measured computation time over ranks, seconds (paper `T_comp`).
    pub t_comp: f64,
    /// Max modeled communication time over ranks, seconds (paper `T_comm`).
    pub t_comm: f64,
    /// Mean computation time over ranks, seconds.
    pub t_comp_mean: f64,
    /// Mean communication time over ranks, seconds.
    pub t_comm_mean: f64,
    /// Maximum received bytes over ranks (the paper's `M_max`).
    pub m_max: u64,
    /// Total bytes sent by all ranks.
    pub total_bytes: u64,
    /// Critical-path completion time (seconds) from the virtual-time
    /// schedule, including waits on partners — `None` for schedules
    /// with multi-peer stages (direct send, pipeline) or measured
    /// timing. Always ≥ the per-rank sums behind `t_comp`/`t_comm`.
    pub t_critical_path: Option<f64>,
}

impl Aggregate {
    /// `T_total = T_comp + T_comm` in milliseconds, the paper's table
    /// quantity.
    pub fn t_total_ms(&self) -> f64 {
        (self.t_comp + self.t_comm) * 1e3
    }

    /// `T_comp` in milliseconds.
    pub fn t_comp_ms(&self) -> f64 {
        self.t_comp * 1e3
    }

    /// `T_comm` in milliseconds.
    pub fn t_comm_ms(&self) -> f64 {
        self.t_comm * 1e3
    }
}

/// The outcome of one compositing run over a prepared experiment.
pub struct Outcome {
    /// Group aggregates (the numbers the paper tabulates).
    pub aggregate: Aggregate,
    /// Per-rank method statistics (default-empty for killed ranks).
    pub per_rank: Vec<MethodStats>,
    /// Per-rank transport counters.
    pub traffic: Vec<TrafficStats>,
    /// The assembled final image (gathered at rank 0). Blank where dead
    /// ranks left holes; fully blank if fault injection killed rank 0.
    pub image: Image,
    /// Ranks killed by fault injection (empty on a healthy run).
    pub dead_ranks: Vec<usize>,
    /// Ranks whose owned piece never reached the gather root.
    pub missing_ranks: Vec<usize>,
    /// Fraction of image pixels covered by gathered pieces, in `[0, 1]`
    /// (1.0 on a healthy run).
    pub coverage: f64,
}

impl Outcome {
    /// True when fault injection degraded this run (dead ranks or
    /// image holes).
    pub fn is_degraded(&self) -> bool {
        !self.dead_ranks.is_empty() || !self.missing_ranks.is_empty() || self.coverage < 1.0
    }

    /// Peak signal-to-noise ratio of the final image against a
    /// reference (infinite when identical) — the degraded-quality
    /// metric reported alongside coverage.
    pub fn psnr_vs(&self, reference: &Image) -> f64 {
        vr_image::stats::psnr(&self.image, reference)
    }

    /// Peak resident pixel-buffer bytes over ranks — the worst rank's
    /// scratch staging watermark from the transport counters.
    pub fn peak_pixel_buffer_bytes(&self) -> u64 {
        self.traffic
            .iter()
            .map(|t| t.peak_pixel_buffer_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// One rank's share of a compositing run: its stats (`None` when fault
/// injection killed it) and, at the gather root, the assembled frame.
pub(crate) type RankResult = (Option<MethodStats>, Option<GatheredImage>);

/// Ends one rank's compositing pass: gathers the owned piece of `image`
/// at rank 0. A killed rank yields empty results; any other error panics
/// with the *typed* error as the payload, so a supervising caller (the
/// frame service worker) can `catch_unwind`, downcast to
/// `CompositeError` and classify the failure as transient or structural.
pub(crate) fn gather_rank(
    ep: &mut Endpoint,
    composited: Result<CompositeResult, CompositeError>,
    image: &Image,
) -> RankResult {
    let result = match composited {
        Ok(result) => result,
        Err(CompositeError::Killed { .. }) => return (None, None),
        Err(e) => std::panic::panic_any(e),
    };
    match gather_image_tolerant(ep, image, &result.piece, 0) {
        Ok(gathered) => (Some(result.stats), gathered),
        Err(CompositeError::Killed { .. }) => (Some(result.stats), None),
        Err(e) => std::panic::panic_any(e),
    }
}

/// Folds a compositing group's per-rank results into an [`Outcome`]:
/// resolves each rank's `T_comp` per `config.comp_timing`, aggregates
/// the paper's quantities and takes the gathered frame, or a blank one
/// when the root died.
pub(crate) fn fold_outcome(
    config: &ExperimentConfig,
    results: Vec<RankResult>,
    traffic: Vec<TrafficStats>,
    dead_ranks: Vec<usize>,
) -> Outcome {
    let p = results.len();
    let size = config.image_size;
    let mut per_rank = Vec::with_capacity(p);
    let mut image = None;
    let mut missing_ranks = Vec::new();
    let mut coverage = 1.0;
    for (stats, gathered) in results {
        // A killed rank reports default (all-zero) stats.
        let mut stats = stats.unwrap_or_default();
        config.comp_timing.apply(&mut stats);
        per_rank.push(stats);
        if let Some(g) = gathered {
            coverage = g.coverage();
            missing_ranks = g.missing_ranks.clone();
            image = Some(g.image);
        }
    }
    // A dead root gathers nothing: report a fully blank frame.
    let image = image.unwrap_or_else(|| {
        coverage = 0.0;
        Image::blank(size, size)
    });

    let t_comp = per_rank.iter().map(|s| s.comp_seconds).fold(0.0, f64::max);
    let t_comm = per_rank.iter().map(|s| s.comm_seconds).fold(0.0, f64::max);
    let t_comp_mean = per_rank.iter().map(|s| s.comp_seconds).sum::<f64>() / p as f64;
    let t_comm_mean = per_rank.iter().map(|s| s.comm_seconds).sum::<f64>() / p as f64;
    // M_max over the *compositing* stages only (gather excluded), as
    // in Section 4.
    let m_max = per_rank.iter().map(|s| s.recv_bytes()).max().unwrap_or(0);
    let total_bytes = per_rank.iter().map(|s| s.sent_bytes()).sum();
    let t_critical_path = match config.comp_timing {
        CompTiming::Modeled(cost) => virtual_completion(&per_rank, &config.cost, &cost)
            .map(|vt| vt.into_iter().fold(0.0, f64::max)),
        CompTiming::Measured { .. } => None,
    };

    Outcome {
        aggregate: Aggregate {
            t_comp,
            t_comm,
            t_comp_mean,
            t_comm_mean,
            m_max,
            total_bytes,
            t_critical_path,
        },
        per_rank,
        traffic,
        image,
        dead_ranks,
        missing_ranks,
        coverage,
    }
}

impl Experiment {
    /// Builds the dataset, partitions the volume, renders every rank's
    /// subimage (in parallel, one thread per rank) and fixes the depth
    /// order.
    pub fn prepare(config: &ExperimentConfig) -> Experiment {
        let dims = config.resolved_dims();
        let dataset = Arc::new(Dataset::with_dims(config.dataset, dims));
        Experiment::prepare_with_dataset(config, dataset)
    }

    /// Like [`Experiment::prepare`] but reuses an already built dataset
    /// — animation sweeps re-render the same volume from many views and
    /// must not pay the procedural build per frame.
    pub fn prepare_with_dataset(config: &ExperimentConfig, dataset: Arc<Dataset>) -> Experiment {
        Experiment::prepare_with_dataset_pool(config, dataset, None)
    }

    /// Like [`Experiment::prepare_with_dataset`] but also reuses a
    /// persistent [`RenderPool`] for the banded intra-rank render —
    /// callers that render many frames (the serve workers) spawn the
    /// pool threads once and amortize them across every frame. Without
    /// a pool, one is spun up for this prepare when the config resolves
    /// to more than one render thread.
    pub fn prepare_with_dataset_pool(
        config: &ExperimentConfig,
        dataset: Arc<Dataset>,
        pool: Option<&RenderPool>,
    ) -> Experiment {
        let scene = Scene::new(config, dataset);
        let threads = pool
            .map(|p| p.threads())
            .unwrap_or_else(|| config.resolved_render_threads());
        let timed = |rank: usize, pool: Option<&RenderPool>| {
            let start = std::time::Instant::now();
            let img = scene.render(rank, pool);
            (img, start.elapsed().as_secs_f64())
        };

        // Rendering phase. With intra-rank threading, ranks render one
        // after another with each rank's live tiles fanned across the
        // pool — a frame uses exactly `threads` threads regardless of P
        // (the serve layer multiplies this by its worker count). The
        // pool threads are spawned once per prepare (or inherited from
        // the caller) and reused by every rank. Otherwise the original
        // one-scope-thread-per-rank fan-out is kept. Both paths are
        // bit-identical; per-rank render wall time is informational
        // (reported `T_comp` comes from `CompTiming`, modeled by
        // default).
        let (subimages, render_seconds): (Vec<Image>, Vec<f64>) = if threads > 1 {
            let owned;
            let pool = match pool {
                Some(p) => p,
                None => {
                    owned = RenderPool::new(threads);
                    &owned
                }
            };
            (0..config.processors)
                .map(|rank| timed(rank, Some(pool)))
                .unzip()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..config.processors)
                    .map(|rank| scope.spawn(move || timed(rank, None)))
                    .collect();
                // A render panic keeps its payload across the join.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .unzip()
            })
        };

        Experiment {
            config: *config,
            camera: scene.view.camera,
            depth: scene.view.depth,
            subimages,
            render_seconds,
        }
    }

    /// Builds a prepared experiment directly from explicit subimages
    /// (used by tests and ablation benches that bypass rendering).
    pub fn from_subimages(
        config: ExperimentConfig,
        subimages: Vec<Image>,
        depth: DepthOrder,
    ) -> Experiment {
        assert_eq!(subimages.len(), config.processors);
        let render_seconds = vec![0.0; subimages.len()];
        Experiment {
            config,
            camera: view::camera(&config),
            depth,
            subimages,
            render_seconds,
        }
    }

    /// The rendered (pre-compositing) subimages, indexed by rank.
    pub fn subimages(&self) -> &[Image] {
        &self.subimages
    }

    /// The fixed depth order for this view.
    pub fn depth(&self) -> &DepthOrder {
        &self.depth
    }

    /// The experiment's camera.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Runs the compositing phase with `method` on clones of the
    /// prepared subimages and gathers the final image at rank 0.
    ///
    /// With faults configured, a killed rank contributes empty stats
    /// and its image region stays blank; the outcome reports the dead
    /// rank set, the gather holes and the residual coverage.
    pub fn run(&self, method: Method) -> Outcome {
        let run = run_group_with(self.config.processors, self.config.group_options(), |ep| {
            let mut img = self.subimages[ep.rank()].clone();
            let composited = composite(method, ep, &mut img, &self.depth);
            gather_rank(ep, composited, &img)
        });
        fold_outcome(&self.config, run.results, run.stats, run.dead_ranks)
    }

    /// The sequential reference composite over the *surviving* ranks
    /// only — what a degraded run should converge to for pair-exchange
    /// methods (dead contributions become transparent).
    pub fn survivor_reference(&self, dead_ranks: &[usize]) -> Image {
        let masked: Vec<Image> = self
            .subimages
            .iter()
            .enumerate()
            .map(|(rank, img)| {
                if dead_ranks.contains(&rank) {
                    Image::blank(img.width(), img.height())
                } else {
                    img.clone()
                }
            })
            .collect();
        reference_composite(&masked, &self.depth)
    }

    /// The sequential reference composite of the prepared subimages.
    pub fn reference(&self) -> Image {
        reference_composite(&self.subimages, &self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_volume::DatasetKind;

    fn prep(p: usize) -> Experiment {
        let config = ExperimentConfig::small_test(DatasetKind::EngineLow, p, Method::Bsbrc);
        Experiment::prepare(&config)
    }

    #[test]
    fn full_pipeline_all_methods_match_reference() {
        let exp = prep(4);
        let expect = exp.reference();
        for method in Method::all() {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} differs from reference by {diff}");
        }
    }

    #[test]
    fn full_pipeline_non_pow2() {
        let exp = prep(6);
        let expect = exp.reference();
        for method in [
            Method::Bs,
            Method::Bsbrc,
            Method::DirectSend,
            Method::Pipeline,
        ] {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} P=6 differs by {diff}");
        }
    }

    #[test]
    fn rendered_subimages_are_sparse() {
        let exp = prep(8);
        for img in exp.subimages() {
            // Each of 8 blocks must cover well under the full frame.
            assert!(img.non_blank_count() * 2 < img.area());
        }
    }

    #[test]
    fn aggregates_are_populated() {
        let exp = prep(4);
        let out = exp.run(Method::Bsbrc);
        assert!(
            out.aggregate.t_comm > 0.0,
            "modeled comm time must be positive"
        );
        assert!(out.aggregate.m_max > 0);
        assert!(out.aggregate.total_bytes > 0);
        assert_eq!(out.per_rank.len(), 4);
        assert!(out.aggregate.t_total_ms() > 0.0);
    }

    #[test]
    fn critical_path_reported_for_swap_methods() {
        let exp = prep(8);
        let swap = exp.run(Method::Bsbrc);
        let t = swap
            .aggregate
            .t_critical_path
            .expect("BSBRC is stage-paired");
        // Waiting can only add to the busiest rank's own time.
        assert!(t * 1e3 >= swap.aggregate.t_comp_ms().max(swap.aggregate.t_comm_ms()) / 1e3);
        assert!(t > 0.0);
        let dsend = exp.run(Method::DirectSend);
        assert!(dsend.aggregate.t_critical_path.is_none());
    }

    #[test]
    fn bs_m_max_dominates_sparse_methods() {
        // Equation (9): M_max(BS) ≥ M_max(BSBR) ≥ M_max(BSBRC) ≥ M_max(BSLC).
        let exp = prep(8);
        let m = |method: Method| exp.run(method).aggregate.m_max;
        let bs = m(Method::Bs);
        let bsbr = m(Method::Bsbr);
        let bsbrc = m(Method::Bsbrc);
        let bslc = m(Method::Bslc);
        assert!(bs >= bsbr, "BS {bs} < BSBR {bsbr}");
        assert!(bsbr >= bsbrc, "BSBR {bsbr} < BSBRC {bsbrc}");
        assert!(bsbrc >= bslc, "BSBRC {bsbrc} < BSLC {bslc}");
    }

    #[test]
    fn perspective_projection_stays_correct() {
        // The eye-based BSP depth order must keep every method exact
        // against the sequential reference.
        for distance in [0.8, 1.5, 10.0] {
            let mut config = ExperimentConfig::small_test(DatasetKind::EngineLow, 8, Method::Bsbrc);
            config.perspective_distance = Some(distance);
            let exp = Experiment::prepare(&config);
            let expect = exp.reference();
            for method in [Method::Bs, Method::Bsbrc, Method::BinaryTree] {
                let out = exp.run(method);
                let diff = out.image.max_abs_diff(&expect);
                assert!(
                    diff < 2e-4,
                    "{method:?} at distance {distance} differs by {diff}"
                );
            }
        }
    }

    #[test]
    fn perspective_image_resembles_orthographic_at_distance() {
        let base = ExperimentConfig::small_test(DatasetKind::Head, 4, Method::Bsbrc);
        let ortho = Experiment::prepare(&base).run(Method::Bsbrc).image;
        let mut far = base;
        far.perspective_distance = Some(300.0);
        let persp = Experiment::prepare(&far).run(Method::Bsbrc).image;
        // Same object coverage within a small band.
        let a = ortho.non_blank_count() as f64;
        let b = persp.non_blank_count() as f64;
        assert!((a - b).abs() / a.max(1.0) < 0.1, "coverage {a} vs {b}");
    }

    #[test]
    fn balanced_partition_stays_correct() {
        // The weighted partitioner changes block shapes and hence the
        // depth order; every method must still match the reference.
        let mut config = ExperimentConfig::small_test(DatasetKind::EngineHigh, 8, Method::Bsbrc);
        config.balanced_partition = true;
        let exp = Experiment::prepare(&config);
        let expect = exp.reference();
        for method in [Method::Bs, Method::Bsbrc, Method::Bslc, Method::Pipeline] {
            let out = exp.run(method);
            let diff = out.image.max_abs_diff(&expect);
            assert!(diff < 2e-4, "{method:?} balanced differs by {diff}");
        }
    }

    #[test]
    fn balanced_partition_evens_rendered_workload() {
        // Visible content off-center: compare the per-rank non-blank
        // pixel spread with and without balancing.
        let spread = |balanced: bool| {
            let mut config =
                ExperimentConfig::small_test(DatasetKind::EngineHigh, 8, Method::Bsbrc);
            config.balanced_partition = balanced;
            config.rot_x_deg = 0.0;
            config.rot_y_deg = 0.0;
            let exp = Experiment::prepare(&config);
            let counts: Vec<usize> = exp
                .subimages()
                .iter()
                .map(|img| img.non_blank_count())
                .collect();
            let max = *counts.iter().max().unwrap() as f64;
            let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            max / mean.max(1.0)
        };
        let plain = spread(false);
        let balanced = spread(true);
        assert!(
            balanced <= plain * 1.1,
            "balancing should not worsen workload spread: {balanced:.2} vs {plain:.2}"
        );
    }

    #[test]
    fn acceleration_knobs_do_not_change_subimages() {
        // The accelerated render path must be bit-identical to the naive
        // one at the system level, for every knob combination.
        let mut base = ExperimentConfig::small_test(DatasetKind::Cube, 4, Method::Bsbrc);
        base.macrocell = 0;
        base.tile = 0;
        let naive = Experiment::prepare(&base);
        for (macrocell, tile) in [(4, 0), (8, 8), (8, 32), (16, 16)] {
            let mut cfg = base;
            cfg.macrocell = macrocell;
            cfg.tile = tile;
            let accel = Experiment::prepare(&cfg);
            for (rank, (a, b)) in naive.subimages().iter().zip(accel.subimages()).enumerate() {
                assert_eq!(
                    vr_image::checksum::fnv1a(a),
                    vr_image::checksum::fnv1a(b),
                    "rank {rank} subimage changed under macrocell={macrocell} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn degenerate_ray_steps_panic_instead_of_hanging() {
        // A zero, vanishing or NaN step would loop forever inside a ray;
        // the render entry must refuse it on both render branches. Each
        // prepare runs on its own thread so a regression fails the test
        // instead of hanging it.
        for render_threads in [1, 2] {
            for step in [0.0, 1e-30, f32::NAN] {
                let mut config = ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bs);
                config.step = step;
                config.render_threads = render_threads;
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let prepare = || Experiment::prepare(&config);
                    let _ = tx.send(std::panic::catch_unwind(prepare).is_ok());
                });
                let prepared = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("step {step} hung the render"));
                assert!(!prepared, "step {step} rendered a frame");
            }
        }
    }

    #[test]
    fn from_subimages_skips_rendering() {
        let config = ExperimentConfig::small_test(DatasetKind::Cube, 2, Method::Bs);
        let imgs = vec![Image::blank(64, 64), Image::blank(64, 64)];
        let exp = Experiment::from_subimages(config, imgs, DepthOrder::identity(2));
        let out = exp.run(Method::Bs);
        assert_eq!(out.image.non_blank_count(), 0);
    }
}
