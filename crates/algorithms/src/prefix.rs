//! Parallel prefix sums (Appendix: `parallelprefix`).
//!
//! The p-processor QSM algorithm with a single communication
//! synchronization: each processor computes prefix sums of its local
//! block, broadcasts its block total to every other processor, and —
//! after the barrier — adds the offset contributed by its
//! predecessors to each of its local values. Runs in `O(n/p + g·p)`
//! time; its QSM communication prediction is `g(p-1)` per-processor
//! words (the paper's Figure 1 lines).

use qsm_core::{Ctx, Layout, Machine, RunResult};

use crate::analysis::{EffectiveParams, Prediction};
use crate::collectives::Gather;

/// Number of setup phases (array registration + input distribution)
/// that precede the measured phases.
pub const SETUP_PHASES: usize = 2;

/// Phase count the paper's analysis charges to this algorithm (one
/// synchronization).
pub const PAPER_PHASES: usize = 1;

/// The QSM program: leaves this processor's final local block in `out`.
fn program(ctx: &mut Ctx, input: &[u64], out: &Gather<'_, u64>) {
    let n = input.len();
    let p = ctx.nprocs();
    let me = ctx.proc_id();

    // Setup (uncounted): registration, then input distribution.
    let a = ctx.register::<u64>("prefix.data", n, Layout::Block);
    let sums = ctx.register::<u64>("prefix.sums", p * p, Layout::Block);
    ctx.sync();
    let r = ctx.local_range(&a);
    ctx.local_write(&a, r.start, &input[r.clone()]);
    ctx.sync();

    // Step 1+2 (measured): local prefix sums, accumulated in place in
    // the local window, then broadcast the block total.
    let mut acc = 0u64;
    for v in ctx.local_mut(&a) {
        acc += *v;
        *v = acc;
    }
    // Load + add + store + loop ≈ 4 machine operations per element on
    // the Table 2 node (memory-bound streaming loop).
    ctx.charge(4 * r.len() as u64);
    for j in 0..p {
        if j != me {
            ctx.put(&sums, j * p + me, &[acc]);
        }
    }
    ctx.local_write(&sums, me * p + me, &[acc]);
    ctx.sync();

    // Step 3 (measured): add the offset from preceding processors,
    // again in place.
    let row = ctx.local(&sums);
    debug_assert_eq!(row.len(), p);
    let offset: u64 = row[..me].iter().sum();
    ctx.charge(p as u64);
    for v in ctx.local_mut(&a) {
        *v += offset;
    }
    ctx.charge(3 * r.len() as u64);
    ctx.sync();

    out.write(me, ctx.local(&a));
}

/// Result of a prefix-sums run on any backend.
#[derive(Debug)]
pub struct PrefixRun {
    /// The complete prefix-sums output.
    pub output: Vec<u64>,
    /// The raw run (phases `SETUP_PHASES..` are the measured ones).
    pub run: RunResult<()>,
}

impl PrefixRun {
    /// Measured communication cycles over the algorithm's phases.
    pub fn comm(&self) -> f64 {
        self.run.phases[SETUP_PHASES..].iter().map(|r| r.timing.comm.get()).sum()
    }

    /// Measured total cycles over the algorithm's phases.
    pub fn total(&self) -> f64 {
        self.run.phases[SETUP_PHASES..].iter().map(|r| r.timing.elapsed.get()).sum()
    }
}

/// Run on any [`Machine`] backend.
pub fn run_on<M: Machine>(machine: &M, input: &[u64]) -> PrefixRun {
    let mut output = vec![0; input.len()]; // untouched pages: the workers fault them in
    let out = Gather::new(&mut output, machine.nprocs());
    let run = machine.run(|ctx| program(ctx, input, &out));
    PrefixRun { output, run }
}

/// The paper's prediction for communication time: QSM charges
/// `g(p-1)` per-processor remote words (×2 because our sums are
/// 8-byte values), BSP adds one `L`.
pub fn predict(params: &EffectiveParams) -> Prediction {
    let words = 2.0; // one u64 block total
    let qsm = params.g_put * (params.p as f64 - 1.0) * words;
    Prediction::from_qsm(qsm, PAPER_PHASES, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_u64s;
    use crate::seq;
    use qsm_core::{SimMachine, ThreadMachine};
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    #[test]
    fn matches_sequential_oracle() {
        let input = random_u64s(1000, 42);
        let run = run_on(&machine(4), &input);
        assert_eq!(run.output, seq::prefix_sums(&input));
    }

    #[test]
    fn works_when_n_smaller_than_p() {
        let input = random_u64s(3, 1);
        let run = run_on(&machine(8), &input);
        assert_eq!(run.output, seq::prefix_sums(&input));
    }

    #[test]
    fn works_on_single_processor() {
        let input = random_u64s(64, 2);
        let run = run_on(&machine(1), &input);
        assert_eq!(run.output, seq::prefix_sums(&input));
    }

    #[test]
    fn phase_count_is_setup_plus_two() {
        let input = random_u64s(256, 3);
        let run = run_on(&machine(4), &input);
        assert_eq!(run.run.num_phases(), SETUP_PHASES + 2);
    }

    #[test]
    fn communication_is_flat_in_n() {
        // The paper's Figure 1: prefix communication does not grow
        // with problem size (only p-1 words per processor move).
        let m = machine(8);
        let small = run_on(&m, &random_u64s(1 << 10, 4)).comm();
        let large = run_on(&m, &random_u64s(1 << 16, 4)).comm();
        let ratio = large / small;
        assert!((0.8..1.2).contains(&ratio), "comm should be flat in n: {small} -> {large}");
    }

    #[test]
    fn models_underestimate_prefix_comm() {
        // Figure 1's finding: both QSM and BSP underestimate because
        // o and l dominate this tiny communication; QSM (no L term)
        // sits lowest.
        let m = machine(16);
        let run = run_on(&m, &random_u64s(1 << 14, 5));
        let params = EffectiveParams::measure(*m.config());
        let pred = predict(&params);
        assert!(pred.qsm < pred.bsp);
        assert!(pred.bsp < run.comm(), "BSP {} !< measured {}", pred.bsp, run.comm());
    }

    #[test]
    fn native_threads_agree_with_simulator() {
        let input = random_u64s(2048, 6);
        let r = run_on(&ThreadMachine::new(4), &input);
        assert_eq!(r.output, seq::prefix_sums(&input));
        assert_eq!(r.run.phases.len(), SETUP_PHASES + 2);
    }

    #[test]
    fn profile_records_broadcast_volume() {
        let m = machine(4);
        let run = run_on(&m, &random_u64s(512, 7));
        // The broadcast phase moves (p-1) u64s = 6 words per proc.
        let bcast = &run.run.phases[SETUP_PHASES].profile;
        assert_eq!(bcast.m_rw, 6);
        assert_eq!(bcast.kappa, 1);
    }
}
