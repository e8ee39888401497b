//! Rendering-phase acceleration: macrocell empty-space skipping, an exact
//! transfer-function LUT, and tiled footprint traversal.
//!
//! The accelerated path through [`render`](crate::render) (the walk
//! itself lives in `raycast`) is **bit-identical** to the naive ray
//! caster by construction, not by tolerance:
//!
//! * The sample parameter `t` advances through the *same* sequence of
//!   `t += step` additions as the naive loop, even across skipped cells
//!   (floating-point addition is not associative, so a closed-form jump
//!   would shift later sample positions). A skipped region costs one
//!   `fadd` + `fcmp` per step instead of a trilinear fetch, a transfer
//!   classification and a `powf`.
//! * A macrocell is skipped only when the transfer function's *exact*
//!   maximum over the cell's margin-expanded density range is `<= 0`
//!   (and the opacity cutoff is non-negative). Zero opacity gives
//!   per-sample opacity `1 − 1^step = 0` — `powf(1, s) == 1` exactly in
//!   IEEE 754 — which never passes the `a > cutoff` contribution test, so
//!   no skipped sample could have contributed.
//! * The LUT bins either reproduce the original piecewise-linear formula
//!   with the original operands (`Flat`/`Seg`) or fall back to the
//!   original evaluation (`Dirty`); there is no resampled approximation.
//! * Samples inside active cells whose unit opacity is exactly zero skip
//!   the rest of the sample body (`powf`, intensity, shading test): their
//!   per-sample opacity is `1 − 1^step = 0` exactly, which cannot pass a
//!   non-negative cutoff, so the skipped body is a no-op. Negative
//!   cutoffs disable this shortcut along with cell skipping.
//! * Tiles are culled only when no active macrocell intersecting the clip
//!   box projects into them; rays through culled tiles could only have
//!   produced blank pixels, which the naive path never writes either.
//!
//! The differential proptests in `tests/proptests.rs` enforce the
//! bit-identity end to end.

use std::sync::Arc;

use vr_image::Rect;
use vr_volume::{MacrocellGrid, Subvolume, TransferFunction};

use crate::camera::Camera;
use crate::params::RenderParams;

/// Default screen-tile edge length, in pixels.
pub const DEFAULT_TILE_SIZE: usize = 32;

// ---------------------------------------------------------------------------
// Transfer-function LUT
// ---------------------------------------------------------------------------

/// One density bin `[b, b+1)` of the LUT.
#[derive(Clone, Copy, Debug)]
enum Bin {
    /// Opacity is constant over the bin (a clamp region).
    Flat(f32),
    /// A single transfer-function segment covers the bin; evaluating it
    /// with these operands is the exact computation the original
    /// interpolation performs.
    Seg { d0: f32, o0: f32, d1: f32, o1: f32 },
    /// A control point lies strictly inside the bin — fall back to the
    /// original evaluation.
    Dirty,
}

/// A 256-bin opacity lookup table that is *bit-identical* to
/// [`TransferFunction::opacity`] for every density a `u8` volume can
/// produce (trilinear interpolation stays within `[0, 255]`).
///
/// Rebuild it whenever the transfer function changes; construction is a
/// few hundred comparisons.
#[derive(Clone, Debug)]
pub struct TfLut {
    bins: Vec<Bin>,
    scale: f32,
    transfer: TransferFunction,
}

impl TfLut {
    /// Precomputes the LUT for `transfer`.
    pub fn new(transfer: &TransferFunction) -> Self {
        let pts = transfer.points();
        let first = pts[0];
        let last = pts[pts.len() - 1];
        let scale = transfer.opacity_scale;
        let bins = (0..256usize)
            .map(|b| {
                let b0 = b as f32;
                let b1 = (b + 1) as f32;
                if b0 >= last.0 {
                    // Every d in [b0, b1) takes the clamp-high branch.
                    Bin::Flat(last.1 * scale)
                } else if b1 <= first.0 {
                    // Every d < b1 <= first density takes clamp-low.
                    Bin::Flat(first.1 * scale)
                } else if b0 > first.0 && b1 <= last.0 && !pts.iter().any(|p| p.0 > b0 && p.0 < b1)
                {
                    // The interior branch runs with the same segment for
                    // the whole bin: partition_point(p.0 <= d) is constant
                    // because no control point lies in (b0, b1).
                    let i = pts.partition_point(|p| p.0 <= b0);
                    Bin::Seg {
                        d0: pts[i - 1].0,
                        o0: pts[i - 1].1,
                        d1: pts[i].0,
                        o1: pts[i].1,
                    }
                } else {
                    Bin::Dirty
                }
            })
            .collect();
        TfLut {
            bins,
            scale,
            transfer: transfer.clone(),
        }
    }

    /// Opacity for a density sample; bit-identical to
    /// [`TransferFunction::opacity`].
    #[inline]
    pub fn opacity(&self, density: f32) -> f32 {
        if !(0.0..256.0).contains(&density) {
            return self.transfer.opacity(density);
        }
        match self.bins[(density as usize).min(255)] {
            Bin::Flat(o) => o,
            Bin::Seg { d0, o0, d1, o1 } => {
                let t = if d1 > d0 {
                    (density - d0) / (d1 - d0)
                } else {
                    0.0
                };
                (o0 + (o1 - o0) * t) * self.scale
            }
            Bin::Dirty => self.transfer.opacity(density),
        }
    }

    /// Classifies a sample into `(intensity, opacity)`; bit-identical to
    /// [`TransferFunction::classify`].
    #[inline]
    pub fn classify(&self, density: f32) -> (f32, f32) {
        (
            self.transfer.intensity(density),
            self.opacity(density).clamp(0.0, 1.0),
        )
    }

    /// Intensity for a density sample; identical to
    /// [`TransferFunction::intensity`].
    #[inline]
    pub fn intensity(&self, density: f32) -> f32 {
        self.transfer.intensity(density)
    }
}

// ---------------------------------------------------------------------------
// Per-cell classification
// ---------------------------------------------------------------------------

/// A reusable acceleration context: a macrocell grid (per volume, built
/// once), its per-cell transparency classification (per transfer function
/// and params — cheap, recompute on TF change) and the TF LUT.
#[derive(Clone, Debug)]
pub struct RenderAccel {
    grid: Arc<MacrocellGrid>,
    lut: TfLut,
    active: Vec<bool>,
    n_active: usize,
}

impl RenderAccel {
    /// Classifies every cell of `grid` under `transfer` and `params`.
    ///
    /// A cell is *inactive* (skippable) only when the exact interval
    /// maximum of the transfer function over the cell's density range is
    /// `<= 0` and `params.opacity_cutoff >= 0` — the conditions under
    /// which no sample attributed to the cell can pass the `a > cutoff`
    /// contribution test, independent of `powf` rounding.
    pub fn new(
        grid: Arc<MacrocellGrid>,
        transfer: &TransferFunction,
        params: &RenderParams,
    ) -> Self {
        let lut = TfLut::new(transfer);
        // A negative cutoff admits zero-opacity samples, so nothing is
        // provably skippable.
        let all_active = params.opacity_cutoff < 0.0;
        let active: Vec<bool> = (0..grid.len())
            .map(|i| {
                if all_active {
                    return true;
                }
                let (mn, mx) = grid.range(i);
                transfer.max_opacity_in(mn as f32, mx as f32) > 0.0
            })
            .collect();
        let n_active = active.iter().filter(|&&a| a).count();
        RenderAccel {
            grid,
            lut,
            active,
            n_active,
        }
    }

    /// The underlying macrocell grid.
    pub fn grid(&self) -> &MacrocellGrid {
        &self.grid
    }

    /// The transfer-function LUT.
    pub fn lut(&self) -> &TfLut {
        &self.lut
    }

    /// Fraction of cells that may contribute (1.0 = nothing skippable).
    pub fn active_fraction(&self) -> f64 {
        if self.active.is_empty() {
            return 0.0;
        }
        self.n_active as f64 / self.active.len() as f64
    }

    #[inline]
    pub(crate) fn is_active(&self, cx: usize, cy: usize, cz: usize) -> bool {
        self.active[self.grid.cell_index(cx, cy, cz)]
    }

    /// Marks every screen tile that an active cell intersecting `clip`
    /// projects into. `grid_origin` is where the grid's volume sits in
    /// global voxel space (non-zero for locally held blocks).
    pub fn tile_mask(
        &self,
        camera: &Camera,
        grid_origin: [usize; 3],
        clip: &Subvolume,
        tile: usize,
    ) -> TileMask {
        let mut mask = TileMask::new(camera.width, camera.height, tile);
        let cs = self.grid.cell_size();
        let cells = self.grid.cells();
        let vdims = self.grid.dims();
        let mut c_lo = [0usize; 3];
        let mut c_hi = [0usize; 3];
        for a in 0..3 {
            let lo_local = clip.origin[a].saturating_sub(grid_origin[a]);
            let hi_local = (clip.origin[a] + clip.dims[a]).saturating_sub(grid_origin[a]);
            c_lo[a] = (lo_local / cs).min(cells[a]);
            c_hi[a] = hi_local.div_ceil(cs).min(cells[a]);
        }
        for cz in c_lo[2]..c_hi[2] {
            for cy in c_lo[1]..c_hi[1] {
                for cx in c_lo[0]..c_hi[0] {
                    if !self.is_active(cx, cy, cz) {
                        continue;
                    }
                    // Global box of (cell ∩ volume) ∩ clip, expanded by one
                    // voxel against sample-attribution slack.
                    let c = [cx, cy, cz];
                    let mut origin = [0usize; 3];
                    let mut dims = [0usize; 3];
                    let mut empty = false;
                    for a in 0..3 {
                        let g0 = (grid_origin[a] + c[a] * cs).max(clip.origin[a]);
                        let g1 = (grid_origin[a] + ((c[a] + 1) * cs).min(vdims[a]))
                            .min(clip.origin[a] + clip.dims[a]);
                        if g0 >= g1 {
                            empty = true;
                            break;
                        }
                        origin[a] = g0.saturating_sub(1);
                        dims[a] = g1 + 1 - origin[a];
                    }
                    if !empty {
                        mask.mark(camera.footprint(origin, dims));
                    }
                }
            }
        }
        mask
    }
}

// ---------------------------------------------------------------------------
// Tile mask
// ---------------------------------------------------------------------------

/// A boolean grid of `tile × tile` pixel tiles over the image.
#[derive(Clone, Debug)]
pub struct TileMask {
    tile: usize,
    tx: usize,
    ty: usize,
    bits: Vec<bool>,
    marked: usize,
}

impl TileMask {
    fn new(width: u16, height: u16, tile: usize) -> Self {
        assert!(tile >= 1, "tile size must be at least 1 pixel");
        let tx = (width as usize).div_ceil(tile).max(1);
        let ty = (height as usize).div_ceil(tile).max(1);
        TileMask {
            tile,
            tx,
            ty,
            bits: vec![false; tx * ty],
            marked: 0,
        }
    }

    /// Marks every tile overlapping `rect`.
    fn mark(&mut self, rect: Rect) {
        if rect.is_empty() {
            return;
        }
        let tx0 = rect.x0 as usize / self.tile;
        let ty0 = rect.y0 as usize / self.tile;
        let tx1 = ((rect.x1 as usize - 1) / self.tile).min(self.tx - 1);
        let ty1 = ((rect.y1 as usize - 1) / self.tile).min(self.ty - 1);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let i = ty * self.tx + tx;
                if !self.bits[i] {
                    self.bits[i] = true;
                    self.marked += 1;
                }
            }
        }
    }

    /// Tile edge length in pixels.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Whether any tile is marked.
    pub fn any(&self) -> bool {
        self.marked > 0
    }

    /// Number of marked tiles (of [`TileMask::len`]).
    pub fn marked_count(&self) -> usize {
        self.marked
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask has no tiles (images are never zero-sized).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether the tile containing pixel `(x, y)` is marked.
    #[inline]
    pub fn covers(&self, x: u16, y: u16) -> bool {
        let tx = (x as usize / self.tile).min(self.tx - 1);
        let ty = (y as usize / self.tile).min(self.ty - 1);
        self.bits[ty * self.tx + tx]
    }

    #[inline]
    pub(crate) fn tile_marked(&self, tx: usize, ty: usize) -> bool {
        self.bits[ty * self.tx + tx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raycast::{render, RenderJob};
    use vr_image::Image;
    use vr_volume::{Dataset, DatasetKind, Volume};

    fn whole(dims: [usize; 3]) -> Subvolume {
        Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims,
        }
    }

    #[test]
    fn lut_is_bit_identical_to_transfer() {
        let tfs = vec![
            TransferFunction::engine_low(),
            TransferFunction::engine_high(),
            TransferFunction::head(),
            TransferFunction::cube(),
            // Non-integer control points, interior maxima, duplicates.
            TransferFunction::new(
                vec![
                    (10.7, 0.2),
                    (10.7, 0.5),
                    (55.3, 0.9),
                    (55.9, 0.1),
                    (254.5, 0.8),
                ],
                1.0,
                0.7,
            ),
            TransferFunction::new(vec![(128.0, 0.5)], 1.0, 1.3),
            TransferFunction::window(-3.0, 300.0, 0.4),
        ];
        for tf in &tfs {
            let lut = TfLut::new(tf);
            for k in 0..=255 * 16 {
                let d = k as f32 / 16.0;
                assert_eq!(
                    lut.opacity(d).to_bits(),
                    tf.opacity(d).to_bits(),
                    "lut mismatch at density {d}"
                );
                let (li, lo) = lut.classify(d);
                let (ti, to) = tf.classify(d);
                assert_eq!((li.to_bits(), lo.to_bits()), (ti.to_bits(), to.to_bits()));
            }
        }
    }

    #[test]
    fn inactive_cells_reflect_transfer_window() {
        // The hollow Cube only carries density on its edge frame: with
        // cells fine enough to resolve the interior, most cells must be
        // provably transparent — and a raised window deactivates at least
        // as many cells as a low one.
        let dims = [64, 64, 64];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let params = RenderParams::default();
        let acc = RenderAccel::new(ds.macrocell_grid(4), &ds.transfer, &params);
        assert!(acc.active_fraction() > 0.0);
        assert!(
            acc.active_fraction() < 0.6,
            "hollow cube should skip most cells, active fraction {}",
            acc.active_fraction()
        );
        let looser = RenderAccel::new(
            ds.macrocell_grid(4),
            &TransferFunction::window(10.0, 200.0, 0.9),
            &params,
        );
        assert!(looser.active_fraction() >= acc.active_fraction());
    }

    #[test]
    fn negative_cutoff_disables_skipping() {
        let dims = [16, 16, 16];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let params = RenderParams {
            opacity_cutoff: -1.0,
            ..Default::default()
        };
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        assert_eq!(acc.active_fraction(), 1.0);
    }

    #[test]
    fn tile_mask_covers_every_non_blank_pixel() {
        let dims = [48, 48, 24];
        let ds = Dataset::with_dims(DatasetKind::Cube, dims);
        let cam = Camera::orbit(dims, 96, 96, 25.0, 40.0);
        let params = RenderParams::default();
        let mut naive = Image::blank(96, 96);
        let job = RenderJob::new(&ds.volume, whole(dims), &ds.transfer, &cam, params);
        render(&job, None, &mut naive);
        let acc = RenderAccel::new(ds.macrocell_grid(8), &ds.transfer, &params);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 16);
        for y in 0..96u16 {
            for x in 0..96u16 {
                if !naive.get(x, y).is_blank() {
                    assert!(
                        mask.covers(x, y),
                        "non-blank pixel ({x},{y}) in culled tile"
                    );
                }
            }
        }
        // The Cube sample is sparse: culling must actually drop tiles.
        assert!(mask.marked_count() < mask.len());
    }

    #[test]
    fn fully_transparent_volume_casts_no_tiles() {
        let dims = [16, 16, 16];
        let v = Volume::from_fn(dims, |_, _, _| 10);
        let tf = TransferFunction::window(100.0, 200.0, 0.9);
        let params = RenderParams::default();
        let grid = Arc::new(MacrocellGrid::build(&v, 8));
        let acc = RenderAccel::new(grid, &tf, &params);
        assert_eq!(acc.active_fraction(), 0.0);
        let cam = Camera::orbit(dims, 32, 32, 0.0, 0.0);
        let mask = acc.tile_mask(&cam, [0, 0, 0], &whole(dims), 8);
        assert!(!mask.any());
    }
}
