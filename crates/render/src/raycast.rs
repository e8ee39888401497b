//! Front-to-back ray casting of one subvolume block — the single render
//! entry point of the rendering phase.
//!
//! A [`RenderJob`] names everything one block's render depends on: the
//! sampled voxels and where they sit in the global grid, the box rays
//! integrate over, the transfer function, camera, parameters and the
//! optional macrocell accelerator. [`render`] turns a job into a
//! full-size sparse subimage; [`render_tile`] renders one screen rect of
//! the same job into a rect-sized buffer for the streamed runner. Both
//! share one ray setup, so a tile is bit-identical to the corresponding
//! region of the full render.
//!
//! The same job covers both of the paper's memory models:
//!
//! * **Shared volume** ([`RenderJob::new`]): `volume` is the whole
//!   dataset and `clip` is the rank's block. Only samples inside the
//!   block's half-open voxel box contribute, so rendering all blocks and
//!   compositing them front-to-back reproduces a monolithic render.
//! * **Locally held block**: `volume` holds only the rank's voxels and
//!   `placement` records where they sit. Sampling clamps at the local
//!   data's faces, so without ghost voxels the image differs from a
//!   monolithic render in a thin film at block seams; with `placement`
//!   a ghost-expanded box ([`Subvolume::expanded`]) and `clip` the
//!   unexpanded interior, samples near the clip faces interpolate into
//!   the ghost shell and the seams vanish.
//!
//! Rays are cast only inside the clip box's screen footprint, so
//! subimage cost scales with the block, not the frame, and everything
//! else stays exactly blank — the sparsity the compositing methods
//! exploit.

use std::sync::Mutex;

use vr_image::{Image, Pixel, Rect};
use vr_volume::{Subvolume, TransferFunction, Vec3, Volume};

use crate::accel::{RenderAccel, TileMask, DEFAULT_TILE_SIZE};
use crate::camera::Camera;
use crate::params::{RenderParams, MAX_SIMD_LANES};
use crate::pool::RenderPool;

/// Smallest ray-sample step [`render`] and [`render_tile`] accept, in
/// voxels. A ray advances by `t += step` until it leaves its box, so a
/// zero, tiny or non-finite step would never finish; 1/64 voxel is far
/// below any step the system uses.
pub const MIN_STEP: f32 = 1.0 / 64.0;

/// Everything one block's render depends on.
#[derive(Clone, Copy)]
pub struct RenderJob<'a> {
    /// The sampled voxels: the whole dataset, or only a rank's locally
    /// held (possibly ghost-expanded) block.
    pub volume: &'a Volume,
    /// Where `volume` sits in the global voxel grid; its dims must equal
    /// `volume.dims()` (its `rank` field is ignored).
    pub placement: Subvolume,
    /// The box rays integrate over, in global voxel coordinates; must
    /// lie inside `placement`.
    pub clip: Subvolume,
    /// Classification of density samples.
    pub transfer: &'a TransferFunction,
    /// The view.
    pub camera: &'a Camera,
    /// Sampling and shading knobs.
    pub params: RenderParams,
    /// Macrocell empty-space skipping, built over `volume`; `None` is the
    /// naive reference integrator.
    pub accel: Option<&'a RenderAccel>,
    /// Screen-tile edge for tile culling (`0` casts every footprint
    /// pixel); only effective with `accel`.
    pub tile: usize,
}

impl<'a> RenderJob<'a> {
    /// The naive shared-volume render of `clip`: `volume` is the whole
    /// dataset at the grid origin, with no acceleration. Set `accel`,
    /// `tile` or `placement` with struct-update syntax.
    pub fn new(
        volume: &'a Volume,
        clip: Subvolume,
        transfer: &'a TransferFunction,
        camera: &'a Camera,
        params: RenderParams,
    ) -> RenderJob<'a> {
        RenderJob {
            volume,
            placement: Subvolume {
                rank: clip.rank,
                origin: [0, 0, 0],
                dims: volume.dims(),
            },
            clip,
            transfer,
            camera,
            params,
            accel: None,
            tile: 0,
        }
    }
}

/// Renders `job` into the full-size `image`, writing only non-blank
/// pixels. `accel = None` is the naive reference, `Some(accel)` enables
/// macrocell skipping, and `tile >= 1` additionally culls whole screen
/// tiles after a macrocell prescan.
///
/// With more than one render thread — from `pool`, or from
/// `params.render_threads` when no pool is given (a transient pool is
/// spun up) — the live screen tiles (or row bands, when tile culling is
/// off) are fanned across the threads, each item writing only its own
/// disjoint pixel rows. Every configuration is **bit-identical** to the
/// single-threaded naive render.
///
/// # Panics
///
/// If `params.step` is not finite or is below [`MIN_STEP`], if the
/// placement dims differ from the volume's, if the clip box leaves the
/// placement box, or if the accelerator was built for another volume.
pub fn render(job: &RenderJob, pool: Option<&RenderPool>, image: &mut Image) {
    let rays = Rays::new(job);

    // Work decomposition: the pixel rect of every live tile in tiled
    // mode, fixed-height row bands otherwise. Threaded or not, the same
    // items are traversed in the same per-item pixel order; threading
    // only changes which thread runs which item, and no two items share
    // a pixel.
    let items = match job.accel {
        Some(acc) if job.tile >= 1 => {
            // Tiles larger than the image index space degenerate to one
            // tile.
            let tile = job.tile.min(u16::MAX as usize);
            let mask = acc.tile_mask(job.camera, job.placement.origin, &job.clip, tile);
            if !mask.any() {
                return;
            }
            tile_items(&rays.footprint, &mask)
        }
        _ => row_bands(&rays.footprint, DEFAULT_TILE_SIZE as u16),
    };

    let transient;
    let pool = match pool {
        Some(p) => Some(p),
        None if job.params.render_threads > 1 => {
            transient = RenderPool::new(job.params.render_threads);
            Some(&transient)
        }
        None => None,
    };
    match pool {
        Some(pool) if pool.threads() > 1 && items.len() > 1 => {
            render_items_pooled(image, &items, pool, &|x, y| rays.cast(x, y));
        }
        _ => {
            for r in &items {
                for y in r.y0..r.y1 {
                    for x in r.x0..r.x1 {
                        if let Some(p) = rays.cast(x, y) {
                            image.set(x, y, p);
                        }
                    }
                }
            }
        }
    }
}

/// Renders the screen pixels of `rect` into the rect-sized image `out`
/// (screen pixel `(x, y)` lands at `(x - rect.x0, y - rect.y0)`),
/// casting exactly the rays [`render`] casts for that region, so the
/// output is bit-identical to the corresponding region of the full
/// render. This is the streamed-compositing hook: the fused
/// render+composite runner renders each screen tile into its own buffer
/// and ships it the moment it completes.
///
/// # Panics
///
/// As [`render`], and if `out` is smaller than `rect`.
pub fn render_tile(job: &RenderJob, rect: &Rect, out: &mut Image) {
    assert!(
        out.width() >= rect.width() && out.height() >= rect.height(),
        "output buffer smaller than the tile rect"
    );
    let rays = Rays::new(job);
    // Only the block's screen footprint can contribute; the rest of the
    // tile stays blank exactly as in the full render.
    let region = rays.footprint.intersect(rect);
    for y in region.y0..region.y1 {
        for x in region.x0..region.x1 {
            if let Some(p) = rays.cast(x, y) {
                out.set(x - rect.x0, y - rect.y0, p);
            }
        }
    }
}

/// The validated ray setup [`render`] and [`render_tile`] share: the
/// job, the volume's frame origin, the clip box bounds and its screen
/// footprint.
struct Rays<'j, 'a> {
    job: &'j RenderJob<'a>,
    frame: Vec3,
    lo: Vec3,
    hi: Vec3,
    footprint: Rect,
}

impl<'j, 'a> Rays<'j, 'a> {
    fn new(job: &'j RenderJob<'a>) -> Self {
        let step = job.params.step;
        assert!(
            step.is_finite() && step >= MIN_STEP,
            "ray step {step} must be finite and at least {MIN_STEP} voxels"
        );
        let (placement, clip) = (&job.placement, &job.clip);
        assert_eq!(
            job.volume.dims(),
            placement.dims,
            "local volume must match the placement dims"
        );
        for axis in 0..3 {
            assert!(
                clip.origin[axis] >= placement.origin[axis]
                    && clip.origin[axis] + clip.dims[axis]
                        <= placement.origin[axis] + placement.dims[axis],
                "clip box must lie inside the placement box"
            );
        }
        if let Some(acc) = job.accel {
            assert_eq!(
                acc.grid().dims(),
                job.volume.dims(),
                "acceleration grid was built for a different volume"
            );
        }
        let corner = |v: [usize; 3]| Vec3::new(v[0] as f32, v[1] as f32, v[2] as f32);
        let lo = corner(clip.origin);
        Rays {
            job,
            frame: corner(placement.origin),
            lo,
            hi: lo + corner(clip.dims),
            footprint: job.camera.footprint(clip.origin, clip.dims),
        }
    }

    /// The pixel the ray through `(x, y)` produces, `None` when it misses
    /// the clip box or stays blank.
    #[inline]
    fn cast(&self, x: u16, y: u16) -> Option<Pixel> {
        let job = self.job;
        let (t0, t1) = job.camera.ray_box(x, y, self.lo, self.hi)?;
        let p = integrate(
            job.volume,
            self.frame,
            job.transfer,
            job.camera,
            &job.params,
            job.accel,
            x,
            y,
            t0,
            t1,
        );
        (!p.is_blank()).then_some(p)
    }
}

/// Collects the pixel rectangle of every *live* screen tile: marked in
/// `mask` and overlapping `footprint`. Every live tile is emitted
/// exactly once, dead tiles are never emitted, and edge tiles are
/// clamped to the footprint (whose width and height need not divide the
/// tile size). The rectangles are pairwise disjoint — the basis of the
/// threaded renderer's lock-free disjoint-write guarantee.
fn tile_items(footprint: &Rect, mask: &TileMask) -> Vec<Rect> {
    let mut items = Vec::new();
    if footprint.is_empty() {
        return items;
    }
    let ts = mask.tile_size() as u16;
    let ty0 = footprint.y0 / ts;
    let tx0 = footprint.x0 / ts;
    for tyi in ty0..=(footprint.y1.saturating_sub(1) / ts) {
        for txi in tx0..=(footprint.x1.saturating_sub(1) / ts) {
            if !mask.tile_marked(txi as usize, tyi as usize) {
                continue;
            }
            let r = footprint.intersect(&Rect::new(
                txi * ts,
                tyi * ts,
                (txi + 1).saturating_mul(ts).min(footprint.x1),
                (tyi + 1).saturating_mul(ts).min(footprint.y1),
            ));
            if !r.is_empty() {
                items.push(r);
            }
        }
    }
    items
}

/// Splits `footprint` into horizontal bands of at most `rows` pixel rows
/// — the work decomposition when tile culling is off. Bands partition
/// the footprint: disjoint, covering, in top-to-bottom order.
fn row_bands(footprint: &Rect, rows: u16) -> Vec<Rect> {
    let mut bands = Vec::new();
    if footprint.is_empty() {
        return bands;
    }
    let rows = rows.max(1);
    let mut y = footprint.y0;
    while y < footprint.y1 {
        let y1 = footprint.y1.min(y.saturating_add(rows));
        bands.push(Rect::new(footprint.x0, y, footprint.x1, y1));
        y = y1;
    }
    bands
}

/// Raw shared view of an image's pixel buffer for the disjoint-rect
/// writers of the threaded render.
struct SharedPixels {
    ptr: *mut Pixel,
    width: usize,
}

// SAFETY: every write targets a pixel owned by exactly one work item
// (the item rects are pairwise disjoint), so concurrent use never
// aliases a pixel.
unsafe impl Sync for SharedPixels {}

impl SharedPixels {
    /// # Safety
    /// `(x, y)` must lie inside the calling work item's own rect.
    unsafe fn write(&self, x: u16, y: u16, p: Pixel) {
        unsafe { *self.ptr.add(y as usize * self.width + x as usize) = p };
    }
}

/// Fans disjoint-rect work items across the pool. Each item writes only
/// its own pixels, so the framebuffer needs no locking: items write
/// through a shared raw pointer, and each records the tight bounds of
/// its non-blank writes. The merged bounds re-arm the image's O(1)
/// bounding-rect hint with exactly the rectangle the sequential render
/// would have grown through `Image::set` (only non-blank pixels are ever
/// written, so bounds only grow and the merge order is immaterial).
fn render_items_pooled(
    image: &mut Image,
    items: &[Rect],
    pool: &RenderPool,
    cast: &(dyn Fn(u16, u16) -> Option<Pixel> + Sync),
) {
    // Tight bounds of any pre-existing content, captured before raw
    // buffer access drops the image's hint.
    let prior = image.bounding_rect();
    let width = image.width() as usize;
    let shared = SharedPixels {
        ptr: image.pixels_mut().as_mut_ptr(),
        width,
    };
    let item_bounds: Vec<Mutex<Rect>> = items.iter().map(|_| Mutex::new(Rect::EMPTY)).collect();
    pool.run(items.len(), &|i| {
        let r = items[i];
        let mut bounds = Rect::EMPTY;
        for y in r.y0..r.y1 {
            for x in r.x0..r.x1 {
                if let Some(p) = cast(x, y) {
                    // SAFETY: (x, y) lies inside item i's rect, and the
                    // item rects are pairwise disjoint, so no other
                    // thread ever touches this pixel.
                    unsafe { shared.write(x, y, p) };
                    bounds.include(x, y);
                }
            }
        }
        *item_bounds[i].lock().unwrap() = bounds;
    });
    let merged = item_bounds
        .into_iter()
        .fold(prior, |acc, b| acc.union(&b.into_inner().unwrap()));
    image.assert_bounds(merged);
}

/// One ray-sample step: classify, shade, accumulate. Returns `true` when
/// early ray termination fires. Shared verbatim by the naive and the
/// accelerated loops so their contributing samples run identical code.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sample_step(
    volume: &Volume,
    pos: Vec3,
    classify: (f32, f32),
    params: &RenderParams,
    color: &mut [f32; 3],
    alpha: &mut f32,
) -> bool {
    let (intensity, alpha_unit) = classify;
    let a = params.step_opacity(alpha_unit);
    if a > params.opacity_cutoff {
        let shaded = shade(volume, pos, intensity, params);
        let w = (1.0 - *alpha) * a;
        color[0] += w * shaded * params.tint[0];
        color[1] += w * shaded * params.tint[1];
        color[2] += w * shaded * params.tint[2];
        *alpha += w;
        if *alpha >= params.early_termination_alpha {
            return true;
        }
    }
    false
}

/// Integrates one ray over `[t0, t1]` front-to-back, optionally walking
/// macrocells to skip provably transparent stretches.
#[allow(clippy::too_many_arguments)]
fn integrate(
    volume: &Volume,
    frame: Vec3,
    transfer: &TransferFunction,
    camera: &Camera,
    params: &RenderParams,
    accel: Option<&RenderAccel>,
    x: u16,
    y: u16,
    t0: f32,
    t1: f32,
) -> Pixel {
    let (ray_o, dir) = camera.ray(x, y);
    let mut color = [0.0f32; 3];
    let mut alpha = 0.0f32;
    // Start half a step in so samples sit inside the slab.
    let mut t = t0 + params.step * 0.5;
    match accel {
        None => {
            while t < t1 {
                let pos = ray_o + dir * t - frame;
                let c = transfer.classify(volume.sample(pos));
                if sample_step(volume, pos, c, params, &mut color, &mut alpha) {
                    break;
                }
                t += params.step;
            }
        }
        Some(acc) => {
            let grid = acc.grid();
            let lut = acc.lut();
            // Amanatides–Woo DDA over the macrocell grid. The walk is
            // incremental — one add and a three-way min per crossing —
            // instead of re-deriving the cell and its slab exit from
            // scratch each time. Cell attribution therefore comes from
            // the parametric crossing values, whose ulp-level deviation
            // from the geometric cell is covered by the macrocell
            // margins; sample positions are untouched.
            let admit_zero = params.opacity_cutoff < 0.0;
            let lanes = params.simd_lanes.clamp(1, MAX_SIMD_LANES);
            let o = [ray_o.x - frame.x, ray_o.y - frame.y, ray_o.z - frame.z];
            let d = [dir.x, dir.y, dir.z];
            let cs = grid.cell_size() as f32;
            let inv_cs = 1.0 / cs;
            let cells = grid.cells();
            let mut c = [
                cell_at(o[0] + d[0] * t, inv_cs, cells[0]),
                cell_at(o[1] + d[1] * t, inv_cs, cells[1]),
                cell_at(o[2] + d[2] * t, inv_cs, cells[2]),
            ];
            // Per-axis crossing parameter and its per-cell increment.
            let mut t_max = [f32::INFINITY; 3];
            let mut t_delta = [f32::INFINITY; 3];
            let mut c_step = [0isize; 3];
            for axis in 0..3 {
                let dv = d[axis];
                if dv.abs() < 1e-12 {
                    continue;
                }
                let inv = 1.0 / dv;
                c_step[axis] = if dv > 0.0 { 1 } else { -1 };
                t_delta[axis] = cs * inv.abs();
                let bound = if dv > 0.0 {
                    (c[axis] + 1) as f32 * cs
                } else {
                    c[axis] as f32 * cs
                };
                t_max[axis] = (bound - o[axis]) * inv;
            }
            'ray: while t < t1 {
                let t_seg = t_max[0].min(t_max[1]).min(t_max[2]).min(t1);
                if t < t_seg {
                    if acc.is_active(c[0], c[1], c[2]) {
                        if lanes > 1 {
                            // Lane-batched sampling: gather up to `lanes`
                            // sample parameters through the *exact* scalar
                            // `t += step` chain, evaluate density and unit
                            // opacity in fixed-width array lanes the
                            // autovectorizer can lift, then classify and
                            // accumulate strictly in scalar order. Early
                            // termination merely discards the precomputed
                            // (side-effect-free) later lanes, so the
                            // front-to-back `over` chain replays the
                            // scalar chain bit-for-bit.
                            loop {
                                let mut tv = [0.0f32; MAX_SIMD_LANES];
                                let mut n = 0;
                                loop {
                                    tv[n] = t;
                                    n += 1;
                                    t += params.step;
                                    if n == lanes || t >= t_seg {
                                        break;
                                    }
                                }
                                let mut density = [0.0f32; MAX_SIMD_LANES];
                                for (dst, &tl) in density[..n].iter_mut().zip(&tv[..n]) {
                                    *dst = volume.sample(ray_o + dir * tl - frame);
                                }
                                let mut unit = [0.0f32; MAX_SIMD_LANES];
                                for (dst, &dl) in unit[..n].iter_mut().zip(&density[..n]) {
                                    *dst = lut.opacity(dl).clamp(0.0, 1.0);
                                }
                                for i in 0..n {
                                    if unit[i] > 0.0 || admit_zero {
                                        let pos = ray_o + dir * tv[i] - frame;
                                        let cl = (lut.intensity(density[i]), unit[i]);
                                        if sample_step(
                                            volume, pos, cl, params, &mut color, &mut alpha,
                                        ) {
                                            break 'ray;
                                        }
                                    }
                                }
                                if t >= t_seg {
                                    break;
                                }
                            }
                        } else {
                            // Scalar reference: sample through the cell
                            // with the naive body, except that samples
                            // whose unit opacity is exactly zero skip it:
                            // they would compute a per-sample opacity of
                            // `1 − 1^step = 0`, which never passes a
                            // non-negative cutoff, so the naive body is a
                            // no-op for them (negative cutoffs disable the
                            // shortcut via `admit_zero`).
                            loop {
                                let pos = ray_o + dir * t - frame;
                                let density = volume.sample(pos);
                                let alpha_unit = lut.opacity(density).clamp(0.0, 1.0);
                                if alpha_unit > 0.0 || admit_zero {
                                    let cl = (lut.intensity(density), alpha_unit);
                                    if sample_step(volume, pos, cl, params, &mut color, &mut alpha)
                                    {
                                        break 'ray;
                                    }
                                }
                                t += params.step;
                                if t >= t_seg {
                                    break;
                                }
                            }
                        }
                    } else if t_seg >= t1 {
                        // Fast exit: the ray leaves through provably
                        // empty space — no later sample exists, so `t`
                        // need not be replayed to the end.
                        break 'ray;
                    } else {
                        // Replay the naive `t += step` sequence without
                        // sampling, keeping later samples bit-equal.
                        loop {
                            t += params.step;
                            if t >= t_seg {
                                break;
                            }
                        }
                    }
                }
                // Step across the nearest cell boundary (clamped at the
                // grid border; `t_max` still advances, so the walk always
                // terminates).
                let axis = if t_max[0] <= t_max[1] {
                    if t_max[0] <= t_max[2] {
                        0
                    } else {
                        2
                    }
                } else if t_max[1] <= t_max[2] {
                    1
                } else {
                    2
                };
                let nc = c[axis] as isize + c_step[axis];
                c[axis] = nc.clamp(0, cells[axis] as isize - 1) as usize;
                t_max[axis] += t_delta[axis];
            }
        }
    }
    Pixel::new(
        color[0].clamp(0.0, 1.0),
        color[1].clamp(0.0, 1.0),
        color[2].clamp(0.0, 1.0),
        alpha.clamp(0.0, 1.0),
    )
}

/// Maps a grid-local coordinate to a cell index, clamped into the grid.
/// Multiplies by the precomputed reciprocal cell size; any ulp-level
/// divergence from an exact division lands within the macrocell margins.
#[inline]
fn cell_at(coord: f32, inv_cs: f32, n: usize) -> usize {
    let c = (coord * inv_cs).floor();
    if c <= 0.0 {
        0
    } else {
        (c as usize).min(n - 1)
    }
}

/// Gray-level gradient shading: ambient + Lambertian diffuse.
#[inline]
fn shade(volume: &Volume, pos: Vec3, intensity: f32, params: &RenderParams) -> f32 {
    let g = volume.gradient(pos);
    let len = g.length();
    let lambert = if len > 1e-6 {
        // Surfaces face opposite the density gradient; take the absolute
        // cosine so both orientations light up (common for CT data).
        (g.dot(params.light_dir) / len).abs()
    } else {
        0.0
    };
    (intensity * (params.ambient + params.diffuse * lambert)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_image::checksum::fnv1a;
    use vr_volume::{kd_partition, Dataset, DatasetKind};

    fn solid_ball(dims: [usize; 3]) -> Volume {
        Volume::from_fn(dims, |x, y, z| {
            let dx = x as f32 - dims[0] as f32 / 2.0;
            let dy = y as f32 - dims[1] as f32 / 2.0;
            let dz = z as f32 - dims[2] as f32 / 2.0;
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            if r < dims[0] as f32 * 0.35 {
                200
            } else {
                0
            }
        })
    }

    fn whole(dims: [usize; 3]) -> Subvolume {
        Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        }
    }

    /// Renders `job` single-threaded into a fresh full-size image.
    fn image_of(job: &RenderJob) -> Image {
        let mut image = Image::blank(job.camera.width, job.camera.height);
        render(job, None, &mut image);
        image
    }

    /// The naive shared-volume render of `block`.
    fn shared(
        v: &Volume,
        block: &Subvolume,
        tf: &TransferFunction,
        cam: &Camera,
        params: &RenderParams,
    ) -> Image {
        image_of(&RenderJob::new(v, *block, tf, cam, *params))
    }

    /// The naive render of a locally held block placed at `placement`,
    /// integrating only inside `clip`.
    fn local(
        v: &Volume,
        placement: &Subvolume,
        clip: &Subvolume,
        tf: &TransferFunction,
        cam: &Camera,
    ) -> Image {
        image_of(&RenderJob {
            placement: *placement,
            ..RenderJob::new(v, *clip, tf, cam, RenderParams::fast())
        })
    }

    #[test]
    fn empty_volume_renders_blank() {
        let dims = [16, 16, 16];
        let v = Volume::zeros(dims);
        let cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
        let tf = TransferFunction::window(50.0, 100.0, 0.9);
        let img = shared(&v, &whole(dims), &tf, &cam, &RenderParams::fast());
        assert_eq!(img.non_blank_count(), 0);
    }

    #[test]
    fn ball_renders_roughly_circular_coverage() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 0.0, 0.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let img = shared(&v, &whole(dims), &tf, &cam, &RenderParams::default());
        let n = img.non_blank_count();
        assert!(n > 0, "ball must be visible");
        // Coverage should be around π r² in image space; sanity band.
        let bounds = img.bounding_rect();
        let density = n as f64 / bounds.area() as f64;
        assert!(
            density > 0.5,
            "ball interior should be mostly covered: {density}"
        );
        // Center pixel must be strongly opaque (long chord + early term).
        assert!(img.get(32, 32).a > 0.9);
    }

    #[test]
    fn block_render_stays_inside_footprint() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 20.0, 35.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let part = kd_partition(dims, 4);
        for block in part.subvolumes() {
            let img = shared(&v, block, &tf, &cam, &RenderParams::fast());
            let fp = cam.footprint(block.origin, block.dims);
            let bounds = img.bounding_rect();
            assert!(
                fp.contains_rect(&bounds),
                "bounds {bounds:?} escaped footprint {fp:?} for block {block:?}"
            );
        }
    }

    #[test]
    fn blocks_cover_less_than_whole() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 15.0, 25.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.8);
        let whole_img = shared(&v, &whole(dims), &tf, &cam, &RenderParams::fast());
        let part = kd_partition(dims, 8);
        for block in part.subvolumes() {
            let img = shared(&v, block, &tf, &cam, &RenderParams::fast());
            assert!(img.non_blank_count() <= whole_img.non_blank_count());
        }
    }

    #[test]
    fn deterministic_rendering() {
        let ds = Dataset::with_dims(DatasetKind::Cube, [24, 24, 12]);
        let cam = Camera::orbit([24, 24, 12], 48, 48, 10.0, 20.0);
        let render = || {
            shared(
                &ds.volume,
                &whole([24, 24, 12]),
                &ds.transfer,
                &cam,
                &RenderParams::fast(),
            )
        };
        assert_eq!(fnv1a(&render()), fnv1a(&render()));
    }

    #[test]
    fn cube_dataset_is_sparse_in_bounds() {
        // The Cube sample's signature: large bounding rectangle, low
        // non-blank density inside it.
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let img = shared(
            &ds.volume,
            &whole(dims),
            &ds.transfer,
            &cam,
            &RenderParams::default(),
        );
        let bounds = img.bounding_rect();
        assert!(bounds.area() > 0);
        let density = img.non_blank_count() as f64 / bounds.area() as f64;
        assert!(
            density < 0.75,
            "cube should be sparse in its bounds, got {density}"
        );
    }

    #[test]
    fn opacities_clamped_to_unit() {
        let dims = [16, 16, 16];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
        let tf = TransferFunction::window(50.0, 150.0, 1.0);
        let img = shared(&v, &whole(dims), &tf, &cam, &RenderParams::default());
        for p in img.pixels() {
            assert!(p.a >= 0.0 && p.a <= 1.0);
            assert!(p.r >= 0.0 && p.r <= 1.0);
        }
    }

    #[test]
    fn interior_local_block_matches_shared_volume_mostly() {
        // Without ghost voxels, sampling clamps at the local block's
        // faces: only a thin seam film may differ from the shared render.
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 18.0, 27.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.7);
        let part = kd_partition(dims, 4);
        for block in part.subvolumes() {
            let reference = shared(&v, block, &tf, &cam, &RenderParams::fast());
            let data = v.extract_block(block.origin, block.dims);
            let seams = local(&data, block, block, &tf, &cam);
            let differing = reference
                .pixels()
                .iter()
                .zip(seams.pixels())
                .filter(|(a, b)| a.max_abs_diff(b) > 0.05)
                .count();
            let frac = differing as f64 / reference.area() as f64;
            assert!(frac < 0.05, "block {block:?}: {frac:.3} of pixels disagree");
        }
    }

    #[test]
    fn local_render_of_whole_volume_is_exact() {
        // With a single block covering everything, local == shared.
        let dims = [24, 24, 24];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 48, 48, 10.0, 20.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.7);
        let block = whole(dims);
        let reference = shared(&v, &block, &tf, &cam, &RenderParams::fast());
        assert_eq!(reference, local(&v, &block, &block, &tf, &cam));
    }

    #[test]
    fn ghost_layers_remove_seams() {
        let dims = [32, 32, 32];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 64, 64, 18.0, 27.0);
        let tf = TransferFunction::window(100.0, 200.0, 0.7);
        let part = kd_partition(dims, 8);
        for block in part.subvolumes() {
            let reference = shared(&v, block, &tf, &cam, &RenderParams::fast());
            // Ghost = 2 covers trilinear (1) + gradient stencil (1).
            let padded = block.expanded(2, dims);
            let data = v.extract_block(padded.origin, padded.dims);
            let ghosted = local(&data, &padded, block, &tf, &cam);
            let diff = reference.max_abs_diff(&ghosted);
            assert!(diff < 1e-6, "block {block:?} still has seams: {diff}");
        }
    }

    #[test]
    #[should_panic(expected = "clip box")]
    fn clip_outside_placement_rejected() {
        let v = solid_ball([8, 8, 8]);
        let cam = Camera::orbit([8, 8, 8], 16, 16, 0.0, 0.0);
        let clip = Subvolume {
            rank: 0,
            origin: [4, 0, 0],
            dims: [8, 8, 8],
        };
        let _ = local(
            &v,
            &whole([8, 8, 8]),
            &clip,
            &TransferFunction::cube(),
            &cam,
        );
    }

    #[test]
    #[should_panic(expected = "placement dims")]
    fn dims_mismatch_rejected() {
        let v = solid_ball([8, 8, 8]);
        let cam = Camera::orbit([8, 8, 8], 16, 16, 0.0, 0.0);
        let block = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: [4, 8, 8],
        };
        let _ = local(&v, &block, &block, &TransferFunction::cube(), &cam);
    }

    #[test]
    fn degenerate_steps_are_rejected_before_any_ray_is_cast() {
        let dims = [8, 8, 8];
        let v = solid_ball(dims);
        let cam = Camera::orbit(dims, 16, 16, 0.0, 0.0);
        let tf = TransferFunction::cube();
        for step in [0.0, 1e-30, MIN_STEP / 2.0, -1.0, f32::NAN, f32::INFINITY] {
            let params = RenderParams {
                step,
                ..Default::default()
            };
            let job = RenderJob::new(&v, whole(dims), &tf, &cam, params);
            let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| image_of(&job)));
            assert!(full.is_err(), "render accepted step {step}");
            let tile = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let rect = Rect::new(0, 0, 8, 8);
                render_tile(&job, &rect, &mut Image::blank(8, 8));
            }));
            assert!(tile.is_err(), "render_tile accepted step {step}");
        }
        let params = RenderParams {
            step: MIN_STEP,
            ..Default::default()
        };
        let _ = image_of(&RenderJob::new(&v, whole(dims), &tf, &cam, params));
    }

    #[test]
    fn tile_render_matches_full_render_per_region() {
        // Rendering each 16-px screen tile into its own buffer must
        // reproduce the corresponding region of the full clipped render
        // bit-for-bit, with and without the accelerator, for clips that
        // cover only part of the screen.
        let dims = [32, 32, 16];
        let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
        let cam = Camera::orbit(dims, 64, 64, 20.0, 30.0);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let clips = [
            whole(dims),
            Subvolume {
                rank: 1,
                origin: [8, 0, 4],
                dims: [16, 32, 8],
            },
        ];
        for clip in &clips {
            for accel in [None, Some(&acc)] {
                let job = RenderJob {
                    accel,
                    ..RenderJob::new(&ds.volume, *clip, &ds.transfer, &cam, params)
                };
                let full = image_of(&job);
                let ts = 16u16;
                let mut y = 0u16;
                while y < 64 {
                    let mut x = 0u16;
                    while x < 64 {
                        let rect = Rect::new(x, y, (x + ts).min(64), (y + ts).min(64));
                        let mut tile = Image::blank(rect.width(), rect.height());
                        render_tile(&job, &rect, &mut tile);
                        let bits =
                            |p: Pixel| (p.r.to_bits(), p.g.to_bits(), p.b.to_bits(), p.a.to_bits());
                        for ty in 0..rect.height() {
                            for tx in 0..rect.width() {
                                let a = tile.get(tx, ty);
                                let b = full.get(rect.x0 + tx, rect.y0 + ty);
                                assert_eq!(
                                    bits(a),
                                    bits(b),
                                    "pixel ({}, {}) diverged (accel {})",
                                    rect.x0 + tx,
                                    rect.y0 + ty,
                                    accel.is_some(),
                                );
                            }
                        }
                        x += ts;
                    }
                    y += ts;
                }
            }
        }
    }

    #[test]
    fn accelerated_render_is_bit_identical_on_datasets() {
        let dims = [32, 32, 16];
        for kind in DatasetKind::all() {
            let ds = Dataset::with_dims(kind, dims);
            let cam = Camera::orbit(dims, 64, 64, 20.0, 30.0);
            let params = RenderParams::default();
            let naive = shared(&ds.volume, &whole(dims), &ds.transfer, &cam, &params);
            for cell in [4, 8, 16] {
                let acc = RenderAccel::new(ds.macrocell_grid(cell), &ds.transfer, &params);
                for tile in [0, 8, 32] {
                    let fast = image_of(&RenderJob {
                        accel: Some(&acc),
                        tile,
                        ..RenderJob::new(&ds.volume, whole(dims), &ds.transfer, &cam, params)
                    });
                    assert_eq!(
                        fnv1a(&naive),
                        fnv1a(&fast),
                        "{kind:?} cell={cell} tile={tile} diverged"
                    );
                    assert_eq!(naive.bounding_rect(), fast.bounding_rect());
                }
            }
        }
    }

    /// The live-tile work plan for a standard scene: every live tile
    /// scheduled exactly once, dead tiles never scheduled, and the
    /// scheduled rects exactly tile the live part of the footprint.
    #[test]
    fn tile_items_schedules_live_tiles_exactly_once_and_dead_tiles_never() {
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 16);
        // The Cube is sparse: the plan must really have dead tiles to skip.
        assert!(mask.marked_count() < mask.len());
        let footprint = cam.footprint([0, 0, 0], dims);
        let ts = mask.tile_size() as u16;
        let items = tile_items(&footprint, &mask);

        let mut seen = std::collections::HashSet::new();
        for r in &items {
            assert!(!r.is_empty());
            assert!(footprint.contains_rect(r), "item {r:?} leaks the footprint");
            // Each item lies inside exactly one tile…
            let (txi, tyi) = (r.x0 / ts, r.y0 / ts);
            assert_eq!((txi, tyi), ((r.x1 - 1) / ts, (r.y1 - 1) / ts));
            // …that tile is live…
            assert!(
                mask.tile_marked(txi as usize, tyi as usize),
                "dead tile ({txi},{tyi}) was scheduled"
            );
            // …and is scheduled at most once.
            assert!(
                seen.insert((txi, tyi)),
                "tile ({txi},{tyi}) scheduled twice"
            );
        }
        // Exactly once: every live footprint pixel is covered by exactly
        // one item (disjointness follows from the per-tile uniqueness
        // above), and dead-tile pixels by none.
        for y in footprint.y0..footprint.y1 {
            for x in footprint.x0..footprint.x1 {
                let n = items.iter().filter(|r| r.contains(x, y)).count();
                assert_eq!(n, usize::from(mask.covers(x, y)), "pixel ({x},{y})");
            }
        }
    }

    /// Edge tiles of a footprint whose width/height is not a multiple of
    /// the tile size must come out clamped, not skipped or overflowing.
    #[test]
    fn tile_items_clamps_edge_tiles_on_non_multiple_footprints() {
        let dims = [40, 40, 20];
        let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
        // 70×54 image: neither side is divisible by the 32-px tile.
        let cam = Camera::orbit(dims, 70, 54, 15.0, 25.0);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 32);
        let footprint = cam.footprint([0, 0, 0], dims);
        // The fitted orbit footprint must straddle a 32-px tile boundary
        // and end off-boundary on both axes, or this test would not
        // exercise clamping.
        assert!(
            footprint.x0 < 32 && footprint.x1 > 32 && !footprint.x1.is_multiple_of(32),
            "footprint {footprint:?}"
        );
        assert!(
            footprint.y0 < 32 && footprint.y1 > 32 && !footprint.y1.is_multiple_of(32),
            "footprint {footprint:?}"
        );
        let items = tile_items(&footprint, &mask);
        assert!(!items.is_empty());
        for r in &items {
            assert!(footprint.contains_rect(r), "item {r:?} leaks the footprint");
        }
        // The clamped edge tiles are present (partial width and height).
        assert!(items.iter().any(|r| r.x1 == footprint.x1 && r.width() < 32));
        assert!(items
            .iter()
            .any(|r| r.y1 == footprint.y1 && r.height() < 32));
        // And the plan still covers every live pixel exactly once.
        for y in footprint.y0..footprint.y1 {
            for x in footprint.x0..footprint.x1 {
                let n = items.iter().filter(|r| r.contains(x, y)).count();
                assert_eq!(n, usize::from(mask.covers(x, y)), "pixel ({x},{y})");
            }
        }
    }

    /// The untiled decomposition partitions the footprint into bands with
    /// no gap or overlap at band seams (the `scan_runs` chunk-seam idiom
    /// from `vr_image::kernel`, applied to rows).
    #[test]
    fn row_bands_partition_without_seam_gaps_or_overlaps() {
        for (w, h) in [(1u16, 1u16), (7, 31), (64, 32), (13, 33), (70, 54), (5, 65)] {
            let footprint = Rect::new(3.min(w - 1), 0, w, h);
            let bands = row_bands(&footprint, 32);
            // Bands are in order, disjoint, and exactly cover the rows.
            let mut y = footprint.y0;
            for b in &bands {
                assert_eq!((b.x0, b.x1), (footprint.x0, footprint.x1));
                assert_eq!(b.y0, y, "gap or overlap at band seam y={y}");
                assert!(b.height() >= 1 && b.height() <= 32);
                y = b.y1;
            }
            assert_eq!(y, footprint.y1, "{w}x{h} rows not fully covered");
        }
        assert!(row_bands(&Rect::EMPTY, 32).is_empty());
    }

    /// Threaded rendering at sizes that straddle tile boundaries by one
    /// row/column must not drop or duplicate the seam rows: the banded
    /// image is bit-identical to the sequential one, including the
    /// recorded bounding rectangle.
    #[test]
    fn threaded_render_has_no_seam_rows_at_clamped_edges() {
        let dims = [32, 32, 16];
        let ds = Dataset::with_dims(DatasetKind::EngineLow, dims);
        for (w, h) in [(70u16, 54u16), (33, 33), (64, 65)] {
            let cam = Camera::orbit(dims, w, h, 20.0, 30.0);
            let params = RenderParams::default();
            let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
            for tile in [0usize, 32] {
                let job = RenderJob {
                    accel: Some(&acc),
                    tile,
                    ..RenderJob::new(&ds.volume, whole(dims), &ds.transfer, &cam, params)
                };
                let sequential = image_of(&job);
                let threaded = image_of(&RenderJob {
                    params: RenderParams {
                        render_threads: 3,
                        ..params
                    },
                    ..job
                });
                assert_eq!(
                    fnv1a(&sequential),
                    fnv1a(&threaded),
                    "{w}x{h} tile={tile} diverged"
                );
                assert_eq!(sequential.bounding_rect(), threaded.bounding_rect());
            }
        }
    }
}
