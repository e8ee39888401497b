//! Open-loop load generator over one connection.
//!
//! Request `i` is due at `t0 + i · interval` whether or not earlier
//! replies have arrived. Its latency runs from that due time until its
//! reply has arrived and been verified, so a stall also charges the
//! requests queued behind it. The generator uses two threads (this one
//! sends, one receives) and one connection, and reports how late it
//! submitted.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use vr_serve::{ClientReceiver, ClientSender, ServeSource, WireResponse};
use vr_system::ExperimentConfig;

use crate::layers;
use crate::oracle::{self, Violation};
use crate::trace::{SpanId, Tracer};

/// One scheduled request and the digest the oracle expects for it.
#[derive(Clone, Debug)]
pub struct Request {
    pub config: ExperimentConfig,
    /// Which session the request belongs to (hot revisits, cold sweeps).
    pub hot: bool,
    pub expected: u64,
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Answer {
    pub hot: bool,
    /// Due time to verified reply, ms.
    pub latency_ms: f64,
    /// The server's own submission-to-reply time, ms (frames only).
    pub server_ms: Option<f64>,
    pub source: Option<ServeSource>,
    pub verdict: Result<(), Violation>,
}

/// The result of one open-loop run.
pub struct LoadRun {
    pub answers: Vec<Answer>,
    /// Worst lateness of a submission behind its due time, ms.
    pub lag_ms_max: f64,
    /// First due time to last verified reply, seconds.
    pub wall_s: f64,
}

/// For request `i`, whether digest `h` belongs to a later request of
/// the same session.
fn later_index(requests: &[Request]) -> HashMap<(bool, u64), usize> {
    let mut last = HashMap::new();
    for (i, r) in requests.iter().enumerate() {
        last.insert((r.hot, r.expected), i);
    }
    last
}

struct Received {
    index: usize,
    arrived: Instant,
    verified: Instant,
    server_ms: Option<f64>,
    source: Option<ServeSource>,
    verdict: Result<(), Violation>,
}

/// Sends `requests` on `tx` every `interval`, receives on `rx`, and
/// checks every reply. Spans go to `tracer` under operation ids
/// `op_base + i`.
pub fn run(
    mut tx: ClientSender,
    mut rx: ClientReceiver,
    requests: &[Request],
    interval: Duration,
    tracer: &Tracer,
    op_base: u64,
) -> LoadRun {
    let n = requests.len();
    let last = later_index(requests);
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + interval.mul_f64(i as f64);

    let (submits, received) = thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                let (id, resp) = match layers::serve_recv(&mut rx) {
                    Ok(reply) => reply,
                    Err(e) => {
                        eprintln!(
                            "perfbench: connection lost after {} replies: {e}",
                            got.len()
                        );
                        break;
                    }
                };
                let arrived = Instant::now();
                // Ids run 1, 2, … in submission order on a fresh client.
                let index = id as usize - 1;
                let req = &requests[index];
                let verdict = oracle::check_reply(&resp, req.expected, |h| {
                    last.get(&(req.hot, h)).is_some_and(|&j| j > index)
                });
                let (server_ms, source) = match &resp {
                    WireResponse::Frame(f) => (Some(f.wait_seconds * 1e3), Some(f.source)),
                    _ => (None, None),
                };
                got.push(Received {
                    index,
                    arrived,
                    verified: Instant::now(),
                    server_ms,
                    source,
                    verdict,
                });
            }
            got
        });

        let mut submits = Vec::with_capacity(n);
        for (i, req) in requests.iter().enumerate() {
            let due_at = due(i);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let start = Instant::now();
            let id = layers::serve_submit(&mut tx, &req.config).expect("submit request");
            assert_eq!(id, i as u64 + 1, "client ids must follow submission order");
            submits.push((start, Instant::now()));
        }
        (submits, receiver.join().expect("receiver thread"))
    });

    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut end = t0;
    for r in &received {
        let (i, req) = (r.index, &requests[r.index]);
        let op = op_base + i as u64;
        let root = tracer.begin_at("serve.request", op, SpanId::NONE, due(i));
        let (s0, s1) = submits[i];
        tracer.record("serve.submit", op, root, s0, s1);
        tracer.record("serve.await", op, root, s1, r.arrived);
        tracer.record("serve.verify", op, root, r.arrived, r.verified);
        tracer.end_at(root, r.verified);
        end = end.max(r.verified);
        answers[i] = Some(Answer {
            hot: req.hot,
            latency_ms: r.verified.duration_since(due(i)).as_secs_f64() * 1e3,
            server_ms: r.server_ms,
            source: r.source,
            verdict: r.verdict.clone(),
        });
    }
    let lag_ms_max = submits
        .iter()
        .enumerate()
        .map(|(i, (s, _))| s.saturating_duration_since(due(i)).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    let answers = answers
        .into_iter()
        .zip(requests)
        .map(|(a, req)| {
            a.unwrap_or(Answer {
                hot: req.hot,
                latency_ms: f64::INFINITY,
                server_ms: None,
                source: None,
                verdict: Err(Violation::NotServed("no reply".into())),
            })
        })
        .collect();
    LoadRun {
        answers,
        lag_ms_max,
        wall_s: end.saturating_duration_since(t0).as_secs_f64(),
    }
}
