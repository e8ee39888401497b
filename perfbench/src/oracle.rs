//! The correctness oracle: what counts as a correct output.
//!
//! * A composite must be within [`MAX_ABS`] of the sequential
//!   `reference_composite` of the same subimages, with full coverage and
//!   no dead or missing ranks. Methods associate `over` differently, so
//!   composites are compared with a tolerance, never by hash.
//! * Rendered subimages must be bit-identical to the scalar renderer.
//! * A served reply must carry an image whose digest matches the digest
//!   it was sent with, and that digest must equal the one precomputed
//!   for its request through `Experiment` — or, for a coalesced reply,
//!   the one of a later request of the same session.

use std::fmt;

use vr_image::Image;
use vr_serve::{ServeSource, WireResponse};
use vr_system::Outcome;

use crate::layers;

/// Largest accepted per-component difference from the reference.
pub const MAX_ABS: f32 = 2e-4;

/// Why an output was judged wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    Degraded {
        dead: usize,
        missing: usize,
        coverage: f64,
    },
    Size {
        got: (u16, u16),
        want: (u16, u16),
    },
    Pixel {
        index: usize,
        diff: f32,
    },
    Render {
        rank: usize,
    },
    WireHash,
    WrongFrame {
        got: u64,
    },
    NotServed(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Degraded {
                dead,
                missing,
                coverage,
            } => write!(
                f,
                "degraded frame: {dead} dead, {missing} missing ranks, coverage {coverage}"
            ),
            Violation::Size { got, want } => write!(f, "image size {got:?}, want {want:?}"),
            Violation::Pixel { index, diff } => {
                write!(f, "pixel {index} differs from the reference by {diff}")
            }
            Violation::Render { rank } => {
                write!(f, "rank {rank} subimage differs from the scalar renderer")
            }
            Violation::WireHash => write!(f, "reply image does not match its digest"),
            Violation::WrongFrame { got } => {
                write!(f, "reply digest {got:#018x} is not this request's")
            }
            Violation::NotServed(what) => write!(f, "request not served: {what}"),
        }
    }
}

/// `image` within [`MAX_ABS`] of `reference`, component by component.
pub fn check_image(image: &Image, reference: &Image) -> Result<(), Violation> {
    let (got, want) = (
        (image.width(), image.height()),
        (reference.width(), reference.height()),
    );
    if got != want {
        return Err(Violation::Size { got, want });
    }
    for (index, (a, b)) in image.pixels().iter().zip(reference.pixels()).enumerate() {
        let diffs = [a.r - b.r, a.g - b.g, a.b - b.b, a.a - b.a];
        // NaN is rejected explicitly: `f32::max` would drop it.
        if let Some(d) = diffs.iter().find(|d| d.is_nan() || d.abs() > MAX_ABS) {
            return Err(Violation::Pixel {
                index,
                diff: d.abs(),
            });
        }
    }
    Ok(())
}

/// A healthy composite that matches the reference.
pub fn check_composite(out: &Outcome, reference: &Image) -> Result<(), Violation> {
    if out.is_degraded() {
        return Err(Violation::Degraded {
            dead: out.dead_ranks.len(),
            missing: out.missing_ranks.len(),
            coverage: out.coverage,
        });
    }
    check_image(&out.image, reference)
}

/// Accelerated subimages bit-identical to the scalar renderer's.
pub fn check_render_identity(fast: &[Image], scalar: &[Image]) -> Result<(), Violation> {
    for (rank, (a, b)) in fast.iter().zip(scalar).enumerate() {
        if a != b {
            return Err(Violation::Render { rank });
        }
    }
    if fast.len() != scalar.len() {
        return Err(Violation::Render {
            rank: fast.len().min(scalar.len()),
        });
    }
    Ok(())
}

/// A served reply for a request whose precomputed digest is `own`;
/// `later(h)` says whether a later request of the same session has
/// digest `h` (the only other frame a coalesced reply may carry).
pub fn check_reply(
    resp: &WireResponse,
    own: u64,
    later: impl Fn(u64) -> bool,
) -> Result<(), Violation> {
    let frame = match resp {
        WireResponse::Frame(frame) => frame,
        WireResponse::Overloaded { .. } => return Err(Violation::NotServed("overloaded".into())),
        WireResponse::Shed { .. } => return Err(Violation::NotServed("shed".into())),
        WireResponse::Rejected { reason, .. } => {
            return Err(Violation::NotServed(format!("rejected: {reason:?}")))
        }
    };
    if let ServeSource::Degraded { coverage, .. } = frame.source {
        return Err(Violation::Degraded {
            dead: 0,
            missing: 0,
            coverage,
        });
    }
    if layers::image_hash(&frame.image) != frame.image_hash {
        return Err(Violation::WireHash);
    }
    let got = frame.image_hash;
    let ok = got == own || (frame.source == ServeSource::Coalesced && later(got));
    if ok {
        Ok(())
    } else {
        Err(Violation::WrongFrame { got })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use slsvr_core::Method;
    use vr_system::{Experiment, ExperimentConfig};
    use vr_volume::{DatasetKind, DepthOrder};

    use super::*;
    use crate::layers::{self, composite_run, render_prepare, render_scalar, volume_build};

    const METHODS: [Method; 4] = [Method::Bs, Method::Bsbr, Method::Bslc, Method::Bsbrc];

    fn small() -> (ExperimentConfig, Arc<vr_volume::Dataset>) {
        let config = ExperimentConfig {
            image_size: 64,
            ..ExperimentConfig::small_test(DatasetKind::EngineHigh, 4, Method::Bsbrc)
        };
        let dataset = volume_build(config.dataset, config.resolved_dims(), config.macrocell);
        (config, dataset)
    }

    #[test]
    fn every_method_passes_despite_float_differences() {
        let (config, dataset) = small();
        let exp = render_prepare(&config, &dataset);
        let reference = exp.reference();
        let hashes: Vec<u64> = METHODS
            .iter()
            .map(|&m| {
                let out = composite_run(&exp, m);
                check_composite(&out, &reference).unwrap();
                layers::image_hash(&out.image)
            })
            .collect();
        assert!(!hashes.is_empty());
    }

    #[test]
    fn distributed_run_passes_against_the_in_process_reference() {
        let (config, dataset) = small();
        // Two ghost voxels make the scattered blocks render exactly what
        // the shared volume renders; what remains is gather float order.
        let config = ExperimentConfig {
            ghost_voxels: 2,
            ..config
        };
        let reference = render_prepare(&config, &dataset).reference();
        let dist = vr_system::run_distributed(&config);
        check_image(&dist.image, &reference).unwrap();
    }

    #[test]
    fn a_wrong_pixel_fails() {
        let (config, dataset) = small();
        let exp = render_prepare(&config, &dataset);
        let reference = exp.reference();
        let mut out = composite_run(&exp, Method::Bsbrc);
        let i = out
            .image
            .pixels()
            .iter()
            .position(|p| !p.is_blank())
            .unwrap();
        out.image.pixels_mut()[i].g += 1e-3;
        assert!(matches!(
            check_composite(&out, &reference),
            Err(Violation::Pixel { index, .. }) if index == i
        ));
        out.image.pixels_mut()[i].g = f32::NAN;
        assert!(check_composite(&out, &reference).is_err());
    }

    #[test]
    fn a_wrong_depth_order_fails() {
        let (config, dataset) = small();
        let exp = render_prepare(&config, &dataset);
        let reference = exp.reference();
        let mut reversed = exp.depth().front_to_back().to_vec();
        reversed.reverse();
        let wrong = Experiment::from_subimages(
            config,
            exp.subimages().to_vec(),
            DepthOrder::from_sequence(reversed),
        );
        for m in METHODS {
            assert!(
                check_composite(&composite_run(&wrong, m), &reference).is_err(),
                "{m:?} with reversed depth order passed"
            );
        }
    }

    #[test]
    fn a_degraded_frame_fails() {
        let (config, dataset) = small();
        let exp = render_prepare(&config, &dataset);
        let reference = exp.reference();
        let mut out = composite_run(&exp, Method::Bsbrc);
        out.dead_ranks = vec![1];
        assert!(matches!(
            check_composite(&out, &reference),
            Err(Violation::Degraded { dead: 1, .. })
        ));
    }

    #[test]
    fn render_identity_holds_and_catches_a_changed_pixel() {
        let (config, dataset) = small();
        let fast = render_prepare(&config, &dataset);
        let scalar = render_scalar(&config, &dataset);
        check_render_identity(fast.subimages(), scalar.subimages()).unwrap();
        let mut bad = fast.subimages().to_vec();
        let i = bad[2].pixels().iter().position(|p| !p.is_blank()).unwrap();
        bad[2].pixels_mut()[i].a = f32::from_bits(bad[2].pixels()[i].a.to_bits() ^ 1);
        assert_eq!(
            check_render_identity(&bad, scalar.subimages()),
            Err(Violation::Render { rank: 2 })
        );
    }

    #[test]
    fn served_replies_are_checked_by_digest() {
        let (config, dataset) = small();
        let exp = render_prepare(&config, &dataset);
        let out = composite_run(&exp, config.method);
        let own = layers::image_hash(&out.image);
        let reply = layers::wire_response_codec(7, &layers::frame_reply(&config, &out));
        let never = |_| false;
        check_reply(&reply, own, never).unwrap();
        assert_eq!(
            check_reply(&reply, own ^ 1, never),
            Err(Violation::WrongFrame { got: own })
        );

        // A coalesced reply may carry a later request's frame, but
        // only a later one.
        let WireResponse::Frame(mut frame) = reply.clone() else {
            unreachable!()
        };
        frame.source = ServeSource::Coalesced;
        let coalesced = WireResponse::Frame(frame.clone());
        check_reply(&coalesced, own ^ 1, |h| h == own).unwrap();
        assert!(check_reply(&coalesced, own ^ 1, never).is_err());

        // An image that no longer matches its digest fails.
        let i = frame
            .image
            .pixels()
            .iter()
            .position(|p| !p.is_blank())
            .unwrap();
        frame.image.pixels_mut()[i].r += 0.5;
        assert_eq!(
            check_reply(&WireResponse::Frame(frame), own, never),
            Err(Violation::WireHash)
        );

        assert!(check_reply(&WireResponse::Overloaded { queue_depth: 3 }, own, never).is_err());
        assert!(check_reply(
            &WireResponse::Shed {
                waited_seconds: 1.0
            },
            own,
            never
        )
        .is_err());
    }
}
