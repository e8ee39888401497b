//! The complete sort-last-sparse parallel volume rendering system:
//! partitioning → rendering → compositing → gather, plus the experiment
//! runner that reproduces the paper's evaluation.
//!
//! ```no_run
//! use vr_system::{Experiment, ExperimentConfig};
//! use vr_volume::DatasetKind;
//! use slsvr_core::Method;
//!
//! let config = ExperimentConfig {
//!     dataset: DatasetKind::EngineLow,
//!     image_size: 384,
//!     processors: 8,
//!     method: Method::Bsbrc,
//!     ..Default::default()
//! };
//! let outcome = Experiment::prepare(&config).run(config.method);
//! println!("T_total = {:.2} ms", outcome.aggregate.t_total_ms());
//! ```

pub mod animation;
pub mod config;
pub mod distribute;
pub mod experiment;
pub mod report;
pub mod stream;
pub mod sweep;
mod view;

pub use animation::{Animation, FrameStats};
pub use config::{CompTiming, ExperimentConfig};
pub use distribute::{run_distributed, DistributedOutcome};
pub use experiment::{Aggregate, Experiment, Outcome};
pub use report::{
    format_figure_series, format_paper_table, format_stage_timeline, FrameRecord, TableRow,
};
pub use stream::{StreamExperiment, StreamOutcome};
pub use sweep::{to_csv, SweepBuilder, SweepRecord};
pub use vr_render::RenderPool;
