//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared. Interference from
//! other tenants comes and goes in episodes of seconds to minutes and
//! slows the same code by 15 to 50 %, far more than the bound on any
//! metric, and a median over passes does not remove it because whole
//! runs fall inside one episode. So every timed operation is bracketed
//! by two short slices of fixed single-thread work, and its time is
//! scaled by how much slower than on a quiet reference host those two
//! slices ran. What is cancelled is the host's state around the
//! operation; what remains is left to the median over passes.

use std::time::{Duration, Instant};

/// Words in the slice's table: 256 KiB, resident in L2.
const TABLE: usize = 1 << 15;
const ROUNDS: usize = 1_500_000;

/// Seconds one slice takes on the reference host (this repo's 2-core
/// sandbox when nothing else is running). Only ratios of times matter
/// to any comparison; the constant just keeps reported seconds close
/// to wall seconds.
const REFERENCE_SLICE_S: f64 = 0.0082;

/// A slice no older than this still describes the host: operations
/// that follow each other share the slice between them.
const FRESH: Duration = Duration::from_millis(50);

pub struct Calibrator {
    table: Vec<u64>,
    slices: Vec<f64>,
    last_end: Option<Instant>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self { table: vec![0; TABLE], slices: Vec::new(), last_end: None }
    }

    /// Run one slice and return how long it took. Four independent
    /// chains of shifts, adds and table loads keep several execution
    /// ports busy, as the simulator's inner loops do: a single
    /// dependent chain was measured to slow down only half as much as
    /// the workloads when a neighbour shares the core.
    pub fn slice(&mut self) -> f64 {
        let start = Instant::now();
        let mask = TABLE - 1;
        let mut x: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xD1B5_4A32_D192_ED03,
            0x8CB9_2BA7_2F3D_8DD7,
            0xABCD_EF01_2345_6789,
        ];
        let mut acc = [0u64; 4];
        for _ in 0..ROUNDS {
            for (x, acc) in x.iter_mut().zip(&mut acc) {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                *acc = acc.wrapping_add(self.table[(*x as usize) & mask]).rotate_left(5) ^ *x;
            }
            self.table[(acc[0] as usize) & mask] = acc[1] ^ acc[2] ^ acc[3];
        }
        std::hint::black_box(acc);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.slices.push(secs);
        self.last_end = Some(end);
        secs
    }

    /// The latest slice if it has only just ended, else a new one.
    pub fn recent(&mut self) -> f64 {
        match (self.last_end, self.slices.last()) {
            (Some(end), Some(&secs)) if end.elapsed() < FRESH => secs,
            _ => self.slice(),
        }
    }

    pub fn slices(&self) -> &[f64] {
        &self.slices
    }

    /// Seconds spent in slices so far, for callers whose clock runs
    /// across them.
    pub fn spent_s(&self) -> f64 {
        self.slices.iter().sum()
    }

    /// The factor that scales a time measured in this run to the
    /// reference host, from the median slice of the whole run.
    pub fn scale(&self) -> f64 {
        scale(crate::stats::median(&self.slices))
    }
}

/// The factor that scales a time measured while a slice took
/// `slice_s` to the reference host: below 1 when this host ran slower.
pub fn scale(slice_s: f64) -> f64 {
    REFERENCE_SLICE_S / slice_s
}
