//! The fully distributed three-phase pipeline (Figure 1 of the paper):
//! **partitioning** (the input rank scatters subvolume blocks over the
//! network), **rendering** (each rank ray-casts only its locally held
//! block) and **compositing** (any of the implemented methods), ending
//! with the gather that assembles the display image.
//!
//! This differs from [`Experiment`](crate::experiment::Experiment),
//! which shares the volume in memory and pre-renders once so that the
//! compositing phase can be isolated and re-run per method (the paper's
//! measurement methodology). Here everything — including the
//! partitioning traffic the paper treats as a separate phase — flows
//! through the communication substrate.

use bytes::Bytes;

use slsvr_core::{composite, gather_image, MethodStats};
use vr_comm::{run_group, scatter, TrafficStats};
use vr_image::Image;
use vr_render::{render, RenderAccel, RenderJob, RenderParams};
use vr_volume::io::{decode_block, encode_block};
use vr_volume::{Dataset, MacrocellGrid};

use crate::config::ExperimentConfig;
use crate::view::View;

/// Tag of the partitioning-phase scatter (distinct from compositing tags).
const TAG_SCATTER: u32 = 0x5CA7;

/// Outcome of one fully distributed pipeline run.
pub struct DistributedOutcome {
    /// The final image (gathered at rank 0).
    pub image: Image,
    /// Bytes of volume data scattered during the partitioning phase.
    pub partition_bytes: u64,
    /// Per-rank rendering wall time, seconds.
    pub render_seconds: Vec<f64>,
    /// Per-rank compositing statistics.
    pub per_rank: Vec<MethodStats>,
    /// Per-rank total transport counters (all phases).
    pub traffic: Vec<TrafficStats>,
}

/// Runs the full three-phase system for `config`, with rank 0 acting as
/// the data source.
///
/// # Panics
///
/// If `config.balanced_partition` is set: ranks other than the source
/// recompute their block from the plain kd partition of the dims, and
/// cannot reproduce one weighted by voxels they do not hold.
pub fn run_distributed(config: &ExperimentConfig) -> DistributedOutcome {
    assert!(
        !config.balanced_partition,
        "the distributed pipeline cannot use a balanced partition: \
         non-source ranks recompute the unweighted kd partition"
    );
    let dims = config.resolved_dims();
    // The view depends on the config alone, so every rank derives the
    // same camera, blocks and depth order without holding any voxels.
    let view = View::new(config, None);
    // Each rank renders with its own transient banded-render pool
    // (`render_threads` here, honored inside the renderer) and
    // lane-batched sampling — both bit-identical to the scalar path, so
    // the distributed pipeline's outputs are unchanged by them.
    let params = RenderParams {
        render_threads: config.resolved_render_threads(),
        ..view.params
    };
    let p = config.processors;
    let method = config.method;
    let transfer = config.dataset.transfer();

    let out = run_group(p, config.cost, |ep| {
        // ---- Phase 1: partitioning --------------------------------
        // Rank 0 builds the dataset and scatters the encoded blocks;
        // everyone receives theirs.
        let blocks = (ep.rank() == 0).then(|| {
            let dataset = Dataset::with_dims(config.dataset, dims);
            view.blocks
                .iter()
                .map(|b| {
                    // Ship the ghost-expanded block; the receiver
                    // recovers the exclusive interior from the view.
                    let padded = b.expanded(config.ghost_voxels, dims);
                    Bytes::from(encode_block(&dataset.volume, &padded))
                })
                .collect()
        });
        let my_block = scatter(ep, 0, TAG_SCATTER, blocks).expect("block scatter");
        let partition_bytes = my_block.len() as u64;

        // ---- Phase 2: rendering (local data only) ------------------
        // The received placement is the ghost-expanded box; rays
        // integrate only the rank's exclusive interior, so no ray
        // integrates ghost-owned space twice.
        let (placement, local) = decode_block(&my_block).expect("valid block message");
        // Each rank builds its own macrocell grid over the block it
        // holds — the per-subvolume acceleration structure of the
        // distributed-memory setting, built from local data only. The
        // build is part of the rendering phase and is timed with it.
        let start = std::time::Instant::now();
        let accel = (config.macrocell >= 1).then(|| {
            RenderAccel::new(
                std::sync::Arc::new(MacrocellGrid::build(&local, config.macrocell)),
                &transfer,
                &params,
            )
        });
        let job = RenderJob {
            placement,
            accel: accel.as_ref(),
            tile: config.tile,
            ..RenderJob::new(
                &local,
                view.blocks[ep.rank()],
                &transfer,
                &view.camera,
                params,
            )
        };
        let mut image = Image::blank(config.image_size, config.image_size);
        render(&job, None, &mut image);
        let render_seconds = start.elapsed().as_secs_f64();

        // ---- Phase 3: compositing + gather --------------------------
        // The distributed pipeline runs on the perfect-network path
        // (no fault injection), so compositing errors are fatal here.
        let result = composite(method, ep, &mut image, &view.depth).expect("compositing failed");
        let gathered = gather_image(ep, &image, &result.piece, 0);
        (gathered, render_seconds, result.stats, partition_bytes)
    });

    let mut image = None;
    let mut render_seconds = Vec::with_capacity(p);
    let mut per_rank = Vec::with_capacity(p);
    let mut partition_bytes = 0u64;
    for (gathered, rs, mut stats, pb) in out.results {
        if let Some(img) = gathered {
            image = Some(img);
        }
        config.comp_timing.apply(&mut stats);
        render_seconds.push(rs);
        per_rank.push(stats);
        partition_bytes += pb;
    }

    DistributedOutcome {
        image: image.expect("rank 0 gathers the final image"),
        partition_bytes,
        render_seconds,
        per_rank,
        traffic: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsvr_core::Method;
    use vr_volume::DatasetKind;

    fn config(p: usize, method: Method) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetKind::EngineLow,
            image_size: 64,
            processors: p,
            method,
            volume_dims: Some([32, 32, 16]),
            step: 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn distributed_pipeline_produces_a_plausible_image() {
        let out = run_distributed(&config(4, Method::Bsbrc));
        assert!(out.image.non_blank_count() > 0);
        assert_eq!(out.render_seconds.len(), 4);
        // Partition phase shipped every non-root block (3 of 4 blocks of
        // a 32·32·16 volume plus headers).
        assert!(out.partition_bytes as usize >= 32 * 32 * 16);
    }

    #[test]
    fn distributed_methods_agree_with_each_other() {
        // All methods consume identical locally rendered subimages, so
        // their outputs must agree to float tolerance.
        let a = run_distributed(&config(4, Method::Bsbrc)).image;
        for method in [
            Method::Bs,
            Method::Bslc,
            Method::BinaryTree,
            Method::Pipeline,
            Method::TileStream,
        ] {
            let b = run_distributed(&config(4, method)).image;
            let diff = a.max_abs_diff(&b);
            assert!(diff < 2e-4, "{method:?} differs by {diff}");
        }
    }

    #[test]
    fn distributed_image_close_to_shared_memory_pipeline() {
        // Seams aside, the distributed image must broadly match the
        // shared-volume experiment image.
        let cfg = config(4, Method::Bsbrc);
        let dist = run_distributed(&cfg).image;
        let shared = crate::experiment::Experiment::prepare(&cfg)
            .run(Method::Bsbrc)
            .image;
        let mut differing = 0usize;
        for (a, b) in dist.pixels().iter().zip(shared.pixels()) {
            if a.max_abs_diff(b) > 0.08 {
                differing += 1;
            }
        }
        assert!(
            differing < dist.area() / 20,
            "{differing}/{} pixels differ beyond seam tolerance",
            dist.area()
        );
    }

    #[test]
    fn ghost_layers_make_distributed_match_shared_exactly() {
        let mut cfg = config(4, Method::Bsbrc);
        cfg.ghost_voxels = 2;
        let dist = run_distributed(&cfg).image;
        let shared = crate::experiment::Experiment::prepare(&cfg)
            .run(Method::Bsbrc)
            .image;
        let diff = dist.max_abs_diff(&shared);
        assert!(diff < 1e-6, "ghosted distributed render differs by {diff}");
    }

    #[test]
    fn non_pow2_distributed_run() {
        let out = run_distributed(&config(5, Method::Bsbrc));
        assert!(out.image.non_blank_count() > 0);
        assert_eq!(out.per_rank.len(), 5);
    }

    #[test]
    fn acceleration_does_not_change_distributed_output() {
        // Per-rank macrocell grids are built from local data only; the
        // image and the wire traffic must both be bit-identical to the
        // naive render (acceleration never touches the network).
        let mut accel = config(4, Method::Bsbrc);
        accel.ghost_voxels = 2;
        let mut naive = accel;
        naive.macrocell = 0;
        naive.tile = 0;
        let a = run_distributed(&accel);
        let b = run_distributed(&naive);
        assert_eq!(
            vr_image::checksum::fnv1a(&a.image),
            vr_image::checksum::fnv1a(&b.image),
            "accelerated distributed image diverged from naive"
        );
        assert_eq!(a.partition_bytes, b.partition_bytes);
    }

    #[test]
    fn traffic_includes_partition_phase() {
        let out = run_distributed(&config(4, Method::Bs));
        // Rank 0 must have sent at least the three scattered blocks.
        assert!(out.traffic[0].sent_bytes > 3 * (32 * 32 * 16 / 4) as u64);
    }
}
