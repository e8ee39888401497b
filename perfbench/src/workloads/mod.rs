//! The three workloads. Each builds its inputs from the seed, sets up
//! several times, checks the renderer against the scalar reference,
//! runs its timed operations for the requested time and fills a
//! [`Report`](crate::report::Report).

pub mod composite;
pub mod orbit;
pub mod serve;

use std::time::{Duration, Instant};

use crate::stats::median;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Arguments every workload gets.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// splitmix64: the seeded source of views and jitter.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F0B_B519_99A5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + u * (hi - lo)
    }
}

/// Runs `build` `SETUP_REPS` times, keeping the last result; returns it
/// with the median wall time in seconds.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first so peak memory holds one.
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}
