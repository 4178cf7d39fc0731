//! Parallel prefix sums (Appendix: `parallelprefix`).
//!
//! The p-processor QSM algorithm with a single communication
//! synchronization: each processor computes prefix sums of its local
//! block, broadcasts its block total to every other processor, and —
//! after the barrier — adds the offset contributed by its
//! predecessors to each of its local values. Runs in `O(n/p + g·p)`
//! time; its QSM communication prediction is `g(p-1)` per-processor
//! words (the paper's Figure 1 lines). No peer reads a block, so it
//! is read in place and scanned into its part of the output (`Gather`).

use qsm_core::{addr::block_range, Ctx, EffectiveCosts, Layout, Machine, RunResult};

use crate::analysis::Prediction;
use crate::collectives::{store, Gather};

/// Number of setup phases (array registration + input distribution)
/// that precede the measured phases.
pub const SETUP_PHASES: usize = 2;

/// Phase count the paper's analysis charges to this algorithm (one
/// synchronization).
pub const PAPER_PHASES: usize = 1;

/// The QSM program: leaves this processor's final block in its part of `out`.
fn program(ctx: &mut Ctx, input: &[u64], out: &Gather<'_, u64>) {
    let (p, me) = (ctx.nprocs(), ctx.proc_id());
    let block = &input[block_range(input.len(), p, me)];

    // Setup (uncounted): registration, then an input distribution that
    // moves nothing (the block is read in place).
    let sums = ctx.register::<u64>("prefix.sums", p * p, Layout::Block);
    ctx.sync();
    ctx.sync();

    // Step 1+2 (measured): local prefix sums, then broadcast the
    // block total.
    let mut acc = 0u64;
    for (o, &v) in out.part(me).iter_mut().zip(block) {
        acc += v;
        *o = acc;
    }
    // Load + add + store + loop ≈ 4 machine operations per element on
    // the Table 2 node (memory-bound streaming loop).
    ctx.charge(4 * block.len() as u64);
    for j in 0..p {
        store(ctx, &sums, j * p + me, &[acc]);
    }
    ctx.sync();

    // Step 3 (measured): add the offset from preceding processors.
    let row = ctx.local(&sums);
    debug_assert_eq!(row.len(), p);
    let offset: u64 = row[..me].iter().sum();
    ctx.charge(p as u64);
    for v in out.part(me).iter_mut() {
        *v += offset;
    }
    ctx.charge(3 * block.len() as u64);
    ctx.sync();
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
        crate::measured(&self.run, SETUP_PHASES, |t| t.comm)
    }

    /// Measured total cycles over the algorithm's phases.
    pub fn total(&self) -> f64 {
        crate::measured(&self.run, SETUP_PHASES, |t| t.elapsed)
    }
}

/// Run on any [`Machine`] backend.
pub fn run_on<M: Machine>(machine: &M, input: &[u64]) -> PrefixRun {
    let mut output = qsm_core::zeroed_output(input.len()); // from 32 MiB up, untouched pages the workers fault in
    let out = Gather::new(&mut output, machine.nprocs());
    let run = machine.run(|ctx| program(ctx, input, &out));
    PrefixRun { output, run }
}

/// The paper's prediction for communication time: QSM charges
/// `g(p-1)` per-processor remote words (×2 because our sums are
/// 8-byte values), BSP adds one `L`.
pub fn predict(params: &EffectiveCosts) -> Prediction {
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
        let params = EffectiveCosts::measure(MachineConfig::paper_default(16));
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
        assert_eq!((bcast.m_rw, bcast.m_put, bcast.m_get), (6, 6, 0));
        assert_eq!(bcast.kappa, 1);
    }

    /// Prefix realizes its analytic line on any input: the measured
    /// phases' metered words, priced, are `predict`'s QSM term to the
    /// bit.
    #[test]
    fn predict_is_the_metered_estimate() {
        for p in [4, 16] {
            let costs = EffectiveCosts::measure(MachineConfig::paper_default(p));
            let run = run_on(&machine(p), &random_u64s(1 << 10, 8));
            let est = crate::analysis::estimate(&run.run.phases[SETUP_PHASES..], &costs);
            assert_eq!(est.qsm.to_bits(), predict(&costs).qsm.to_bits(), "p={p}");
        }
    }
}
