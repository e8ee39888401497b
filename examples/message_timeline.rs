//! Traces every message of a compositing run and prints the per-stage
//! communication timeline — which pairs exchanged, how many bytes, and
//! how the volume shrinks stage by stage (the `A/2^k` halving at the
//! heart of binary swap).
//!
//! ```text
//! cargo run --release --example message_timeline
//! ```

use slsvr::comm::trace::EventKind;
use slsvr::comm::{run_group_traced, CostModel};
use slsvr::compositing::{composite, Method};
use slsvr::system::{Experiment, ExperimentConfig};
use slsvr::volume::DatasetKind;

fn main() {
    let p = 8;
    let config = ExperimentConfig {
        dataset: DatasetKind::EngineHigh,
        image_size: 192,
        processors: p,
        volume_dims: Some([64, 64, 32]),
        ..Default::default()
    };
    let exp = Experiment::prepare(&config);
    let (images, depth) = (exp.subimages(), exp.depth());

    for method in [Method::Bs, Method::Bsbrc] {
        let (_, trace) = run_group_traced(p, CostModel::sp2(), |ep| {
            let mut img = images[ep.rank()].clone();
            composite(method, ep, &mut img, depth).unwrap()
        });

        println!("== {} ==", method.name());
        // Group sends by stage tag (STAGE_BASE = 0x1000).
        let mut per_stage: Vec<(u32, usize, usize)> = Vec::new(); // (stage, msgs, bytes)
        for e in trace.events() {
            if e.kind != EventKind::Send || e.tag < 0x1000 || e.tag >= 0x1000 + 16 {
                continue;
            }
            let stage = e.tag - 0x1000;
            match per_stage.iter_mut().find(|(s, _, _)| *s == stage) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += e.bytes;
                }
                None => per_stage.push((stage, 1, e.bytes)),
            }
        }
        per_stage.sort_by_key(|&(s, _, _)| s);
        println!(
            "{:>6} {:>6} {:>12} {:>14}",
            "stage", "msgs", "bytes", "bytes/msg"
        );
        for (stage, msgs, bytes) in &per_stage {
            println!(
                "{:>6} {:>6} {:>12} {:>14.0}",
                stage + 1,
                msgs,
                bytes,
                *bytes as f64 / *msgs as f64
            );
        }
        let counts = trace.message_counts(p);
        let total_msgs: usize = counts.iter().map(|&(s, _)| s).sum();
        println!("total messages: {total_msgs}\n");
    }
    println!(
        "BS halves dense frames each stage (the 16·A/2^k law); BSBRC's\n\
         per-stage bytes track the object's bounding rectangle instead."
    );
}
