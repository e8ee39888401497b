//! The frame setup every runner shares: camera, partition, depth order,
//! render parameters and, over a shared in-memory dataset, the macrocell
//! accelerator. Each decision is made here once, so the batch, streamed
//! and distributed runners cannot drift apart.

use std::sync::Arc;

use vr_image::Image;
use vr_render::{render, Camera, Projection, RenderAccel, RenderJob, RenderParams, RenderPool};
use vr_volume::{kd_partition, kd_partition_weighted, Dataset, DepthOrder, Subvolume};

use crate::config::ExperimentConfig;

/// The camera `config` describes: orthographic, or perspective from
/// `perspective_distance`.
pub(crate) fn camera(config: &ExperimentConfig) -> Camera {
    let dims = config.resolved_dims();
    let size = config.image_size;
    match config.perspective_distance {
        None => Camera::orbit(dims, size, size, config.rot_x_deg, config.rot_y_deg),
        Some(distance) => Camera::orbit_perspective(
            dims,
            size,
            size,
            config.rot_x_deg,
            config.rot_y_deg,
            distance,
        ),
    }
}

/// A frame's view: the camera, every rank's block and their depth order,
/// plus the render parameters all ranks share.
pub(crate) struct View {
    pub camera: Camera,
    pub blocks: Vec<Subvolume>,
    pub depth: DepthOrder,
    pub params: RenderParams,
}

impl View {
    /// The view of `config`. A balanced partition is weighted by the
    /// visible voxels of `dataset`, so it needs one; the plain kd
    /// partition depends on the dims alone.
    ///
    /// # Panics
    ///
    /// If `config.balanced_partition` is set and `dataset` is `None`.
    pub fn new(config: &ExperimentConfig, dataset: Option<&Dataset>) -> View {
        let camera = camera(config);
        let partition = if config.balanced_partition {
            let dataset = dataset.expect("a balanced partition is weighted by the dataset");
            let tf = &dataset.transfer;
            kd_partition_weighted(
                &dataset.volume,
                |s| if tf.opacity(s as f32) > 0.0 { 1.0 } else { 0.0 },
                config.processors,
            )
        } else {
            kd_partition(config.resolved_dims(), config.processors)
        };
        let depth = match camera.projection {
            Projection::Orthographic => partition.depth_order(camera.view_dir),
            Projection::Perspective { eye } => partition.depth_order_from_eye(eye),
        };
        View {
            camera,
            blocks: partition.subvolumes().to_vec(),
            depth,
            params: RenderParams {
                step: config.step,
                early_termination_alpha: config.early_termination_alpha,
                simd_lanes: config.simd_lanes,
                ..Default::default()
            },
        }
    }
}

/// A [`View`] over the shared in-memory dataset, with one macrocell
/// accelerator for the whole volume (its grid is cached on the dataset,
/// so animation frames reuse it) shared read-only by every rank.
pub(crate) struct Scene {
    pub view: View,
    dataset: Arc<Dataset>,
    accel: Option<RenderAccel>,
    tile: usize,
}

impl Scene {
    /// # Panics
    ///
    /// If the dataset's dims differ from the ones `config` resolves to.
    pub fn new(config: &ExperimentConfig, dataset: Arc<Dataset>) -> Scene {
        assert_eq!(
            dataset.volume.dims(),
            config.resolved_dims(),
            "dataset dims must match the config"
        );
        let view = View::new(config, Some(&dataset));
        let accel = (config.macrocell >= 1).then(|| {
            RenderAccel::new(
                dataset.macrocell_grid(config.macrocell),
                &dataset.transfer,
                &view.params,
            )
        });
        Scene {
            view,
            dataset,
            accel,
            tile: config.tile,
        }
    }

    /// The render job for `rank`'s block.
    pub fn job(&self, rank: usize) -> RenderJob<'_> {
        RenderJob {
            accel: self.accel.as_ref(),
            tile: self.tile,
            ..RenderJob::new(
                &self.dataset.volume,
                self.view.blocks[rank],
                &self.dataset.transfer,
                &self.view.camera,
                self.view.params,
            )
        }
    }

    /// Renders `rank`'s full-size subimage, fanned across `pool` when
    /// one is given.
    pub fn render(&self, rank: usize, pool: Option<&RenderPool>) -> Image {
        let camera = &self.view.camera;
        let mut image = Image::blank(camera.width, camera.height);
        render(&self.job(rank), pool, &mut image);
        image
    }
}
