//! Host-speed calibration: a fixed loop, timed now and then during a run,
//! that scales the run's wall time to a reference host speed.
//!
//! On a shared host the CPU runs the same code up to half again slower for
//! minutes at a time, and the simulator's wall time moves with it. The loop
//! here chases a random cycle through a 256 KiB table, which stays in the
//! core's L2 cache, so what it measures is the core's speed and not the
//! cache state the simulator left behind. The loop is the benchmark's own
//! code: a change to the repository's crates cannot make it faster or
//! slower.

use std::time::Instant;

/// The loop's time on an unloaded host of the kind the benchmark was
/// written on. A run's scaled time is its wall time × `REF_S` ÷ the mean
/// time of the loop during the run.
pub const REF_S: f64 = 0.0075;

/// Take a point at most this often between cells.
const EVERY_S: f64 = 0.5;

const TABLE_LEN: usize = 1 << 16;
const STEPS: u64 = 1_500_000;
/// Each point is the median of this many timings of the loop.
const REPS: usize = 3;

pub struct Calibration {
    next: Vec<u32>,
    points: Vec<f64>,
    last: Instant,
    /// Wall seconds spent taking points.
    pub spent_s: f64,
}

impl Calibration {
    /// Builds the table: a single cycle through every slot (Sattolo's
    /// shuffle), from a fixed seed.
    pub fn new() -> Calibration {
        let mut next: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calibration {
            next,
            points: Vec::new(),
            last: Instant::now(),
            spent_s: 0.0,
        }
    }

    fn time_loop(&self) -> f64 {
        let t = Instant::now();
        let (mut p, mut h) = (0u32, 0u64);
        for k in 0..STEPS {
            p = self.next[p as usize];
            h = (h ^ p as u64 ^ k).wrapping_mul(0x100_0000_01b3);
            if h & 7 == 3 {
                h = h.rotate_left(5);
            }
        }
        std::hint::black_box((p, h));
        t.elapsed().as_secs_f64()
    }

    /// Takes one point.
    pub fn point(&mut self) {
        let t = Instant::now();
        let mut ts: Vec<f64> = (0..REPS).map(|_| self.time_loop()).collect();
        ts.sort_by(f64::total_cmp);
        self.points.push(ts[REPS / 2]);
        self.last = Instant::now();
        self.spent_s += t.elapsed().as_secs_f64();
    }

    /// Takes a point if the last one is `EVERY_S` old.
    pub fn point_if_due(&mut self) {
        if self.last.elapsed().as_secs_f64() >= EVERY_S {
            self.point();
        }
    }

    /// Mean time of the loop over the points taken, seconds.
    pub fn mean_s(&self) -> f64 {
        self.points.iter().sum::<f64>() / self.points.len() as f64
    }

    /// `REF_S` ÷ the mean loop time: how much faster than now the
    /// reference host would run.
    pub fn scale(&self) -> f64 {
        REF_S / self.mean_s()
    }
}
