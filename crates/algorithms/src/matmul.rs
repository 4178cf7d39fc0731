//! Dense matrix multiplication (row-block distribution).
//!
//! The locality showcase: QSM's `g` parameter is there precisely to
//! make algorithms like this one think about data movement. With
//! `C = A·B` on `n×n` matrices row-block distributed over `p`
//! processors, each processor already owns its rows of `A` and `C`
//! but needs *all* of `B`: it fetches `B`'s row blocks from the other
//! processors round-robin (one get per round, latin-square order so
//! no owner is hot), multiplying as blocks arrive. Communication is
//! `Θ(g·n²·(p-1)/p)` words per processor against `Θ(n³/p)` local
//! work, so the comm/compute ratio falls as `1/n` — the crossover
//! sits at `n ≈ g_eff·(p-1)` (large under this 1998 library's
//! word-granular effective gap, small on machines with cheap bulk
//! transfers). Phases: `p` rounds (one get + sync each).

use qsm_core::{Ctx, Layout, Machine, RunResult};

use crate::analysis::{EffectiveParams, Prediction};

/// Setup phases before the measured rounds.
pub const SETUP_PHASES: usize = 2;

/// Column-tile width of the multiply kernel: a `C`-row tile and the
/// matching `B`-row tiles stay cache-resident across the whole `k`
/// sweep of a block. Per output element the `k` accumulation order is
/// unchanged (ascending), so results are bitwise identical to the
/// untiled loop.
const J_TILE: usize = 512;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Dimension (square).
    pub n: usize,
    /// Row-major data, `n * n` entries.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Create from row-major data.
    pub fn new(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        Self { n, data }
    }

    /// Entry (r, c).
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Deterministic pseudo-random test matrix.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data = (0..n * n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 1000) as f64 / 100.0 - 5.0
            })
            .collect();
        Self { n, data }
    }
}

/// Sequential oracle: naive `O(n³)` multiply.
pub fn matmul_seq(a: &Matrix, b: &Matrix) -> Matrix {
    let n = a.n;
    assert_eq!(b.n, n);
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a.at(i, k);
            for j in 0..n {
                c[i * n + j] += aik * b.at(k, j);
            }
        }
    }
    Matrix::new(n, c)
}

/// Rows owned by `proc` (padded row space: `rows_pp` each).
fn row_span(n: usize, p: usize, proc: usize) -> (usize, usize) {
    let rows_pp = n.div_ceil(p);
    let r0 = (proc * rows_pp).min(n);
    let r1 = ((proc + 1) * rows_pp).min(n);
    (r0, r1)
}

fn program(ctx: &mut Ctx, a: &Matrix, b: &Matrix) -> Vec<f64> {
    let n = a.n;
    let p = ctx.nprocs();
    let me = ctx.proc_id();

    // Pad the row space so block ownership is row-aligned: the
    // shared arrays hold `rows_pp · p` rows, the trailing ones zero.
    let rows_pp = n.div_ceil(p);
    let padded = rows_pp * p * n;

    // --- Setup (uncounted): distribute A and B by row blocks. ---
    let a_arr = ctx.register::<f64>("mm.a", padded, Layout::Block);
    let b_arr = ctx.register::<f64>("mm.b", padded, Layout::Block);
    ctx.sync();
    let (r0, r1) = row_span(n, p, me);
    if r0 < r1 {
        ctx.local_write(&a_arr, r0 * n, &a.data[r0 * n..r1 * n]);
        ctx.local_write(&b_arr, r0 * n, &b.data[r0 * n..r1 * n]);
    }
    ctx.sync();

    let my_rows = r1 - r0;
    let a_local =
        if my_rows > 0 { ctx.local_read(&a_arr, r0 * n, my_rows * n) } else { Vec::new() };
    let mut c_local = vec![0.0f64; my_rows * n];

    // --- p rounds: fetch B's row block from owner (me + r) mod p
    //     (latin-square order: no hot owner), multiply as it lands. ---
    for r in 0..p {
        let owner = (me + r) % p;
        let (k0, k1) = row_span(n, p, owner);
        let block: Vec<f64> = if owner == me {
            let blk =
                if k0 < k1 { ctx.local_read(&b_arr, k0 * n, (k1 - k0) * n) } else { Vec::new() };
            ctx.sync(); // keep the phase structure collective
            blk
        } else {
            let t = if k0 < k1 { Some(ctx.get(&b_arr, k0 * n, (k1 - k0) * n)) } else { None };
            ctx.sync();
            t.map(|t| ctx.take(t)).unwrap_or_default()
        };
        // C[i][j] += A[i][k] · B[k][j] for the k-rows in this block,
        // column-tiled so the C tile survives in cache across the k
        // sweep (k stays innermost and ascending per element).
        let mut flops = 0u64;
        for i in 0..my_rows {
            let arow = &a_local[i * n..(i + 1) * n];
            let crow = &mut c_local[i * n..(i + 1) * n];
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + J_TILE).min(n);
                for k in k0..k1 {
                    let aik = arow[k];
                    let btile = &block[(k - k0) * n + j0..(k - k0) * n + j1];
                    for (cj, bj) in crow[j0..j1].iter_mut().zip(btile) {
                        *cj += aik * bj;
                    }
                }
                j0 = j1;
            }
            flops += ((k1 - k0) * n) as u64;
        }
        ctx.charge(2 * flops);
    }
    c_local
}

/// Result of a matmul run.
#[derive(Debug)]
pub struct MatMulRun {
    /// The product matrix.
    pub c: Matrix,
    /// The raw run.
    pub run: RunResult<Vec<f64>>,
}

impl MatMulRun {
    /// Measured communication cycles over the algorithm's rounds.
    pub fn comm(&self) -> f64 {
        self.run.phases[SETUP_PHASES..].iter().map(|r| r.timing.comm.get()).sum()
    }

    /// Measured compute cycles over the algorithm's rounds.
    pub fn compute(&self) -> f64 {
        self.run.phases[SETUP_PHASES..].iter().map(|r| r.timing.compute.get()).sum()
    }
}

/// Run on any [`Machine`] backend. Panics if `a` and `b` differ in
/// dimension.
pub fn run_on<M: Machine>(machine: &M, a: &Matrix, b: &Matrix) -> MatMulRun {
    let n = a.n;
    assert!(b.n == n, "matmul: a is {n}×{n} but b is {0}×{0}", b.n);
    let run = machine.run(|ctx| program(ctx, a, b));
    let data = run.outputs.concat();
    MatMulRun { c: Matrix::new(n, data), run }
}

/// QSM prediction: each processor fetches `n²·(p-1)/p` f64 elements
/// (2 accounting words each) over `p` single-get phases.
pub fn predict(n: usize, params: &EffectiveParams) -> Prediction {
    let p = params.p as f64;
    let words = 2.0 * (n * n) as f64 * (p - 1.0) / p;
    Prediction::from_qsm(params.g_get * words, params.p, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_core::{SimMachine, ThreadMachine};
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.n, b.n);
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn matches_sequential_oracle() {
        for (n, p) in [(8, 2), (16, 4), (12, 3), (16, 1)] {
            let a = Matrix::random(n, 1);
            let b = Matrix::random(n, 2);
            let run = run_on(&machine(p), &a, &b);
            assert_close(&run.c, &matmul_seq(&a, &b));
        }
    }

    #[test]
    fn identity_is_neutral() {
        let n = 12;
        let a = Matrix::random(n, 3);
        let mut id = vec![0.0; n * n];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        let run = run_on(&machine(4), &a, &Matrix::new(n, id));
        assert_close(&run.c, &a);
    }

    #[test]
    fn rows_not_divisible_by_p() {
        let n = 10; // 100 elements over 3 procs: ragged blocks
        let a = Matrix::random(n, 4);
        let b = Matrix::random(n, 5);
        let run = run_on(&machine(3), &a, &b);
        assert_close(&run.c, &matmul_seq(&a, &b));
    }

    #[test]
    fn comm_to_compute_ratio_falls_with_n() {
        // The locality story: compute Θ(n³/p) vs comm Θ(n²), so the
        // communication share shrinks like 1/n as matrices grow.
        let ratio = |n: usize| {
            let a = Matrix::random(n, 6);
            let b = Matrix::random(n, 7);
            let run = run_on(&machine(4), &a, &b);
            run.comm() / run.compute()
        };
        let small = ratio(16);
        let large = ratio(64);
        assert!(
            large < small / 2.0,
            "comm/compute should fall ~4x over a 4x n: {small} -> {large}"
        );
    }

    #[test]
    fn prediction_tracks_measured_comm() {
        let n = 48;
        let a = Matrix::random(n, 8);
        let b = Matrix::random(n, 9);
        let m = machine(4);
        let run = run_on(&m, &a, &b);
        let params = EffectiveParams::measure(*m.config());
        let pred = predict(n, &params);
        let err = (run.comm() - pred.bsp).abs() / run.comm();
        assert!(err < 0.35, "BSP prediction error {err}");
    }

    #[test]
    fn native_threads_agree() {
        let n = 16;
        let a = Matrix::random(n, 10);
        let b = Matrix::random(n, 11);
        let run = run_on(&ThreadMachine::new(4), &a, &b);
        assert_close(&run.c, &matmul_seq(&a, &b));
    }
}
