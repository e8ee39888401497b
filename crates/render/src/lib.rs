//! The rendering phase: each processor turns its subvolume block into a
//! sparse full-size subimage.
//!
//! [`render`] is the one entry point: an orthographic or perspective
//! front-to-back ray caster matching the paper, with transfer-function
//! classification, central-difference gradient shading and early ray
//! termination (Levoy-style). A [`RenderJob`] names the block, the
//! voxels it samples and the optional macrocell accelerator; rays are
//! only cast inside the block's screen-space footprint, so subimage cost
//! scales with the block, not the frame. [`render_tile`] renders one
//! screen rect of the same job for the streamed compositing runner.

pub mod accel;
pub mod camera;
pub mod params;
pub mod pool;
pub mod raycast;

pub use accel::{RenderAccel, TfLut, TileMask, DEFAULT_TILE_SIZE};
pub use camera::{Camera, Projection};
pub use params::{RenderParams, MAX_SIMD_LANES};
pub use pool::RenderPool;
pub use raycast::{render, render_tile, RenderJob, MIN_STEP};
