//! Parallel histogram (owner-computes reduction).
//!
//! Not one of the paper's three benchmarks, but the canonical
//! "combining" workload a QSM library user writes next: count key
//! occurrences across a distributed input. Because QSM has no atomic
//! remote addition, concurrent increments to a shared counter would
//! either violate the phase contract or queue at one location (the
//! κ term) — so the idiomatic QSM solution is *owner-computes*: each
//! processor builds a local partial histogram, ships each bucket
//! range's partial counts to that range's owner, and owners combine.
//! Two communication phases, `κ = 1` throughout, communication
//! `O(g·buckets)` per processor independent of `n` — a textbook
//! example of the contract's "minimize κ by restructuring" advice.

use qsm_core::{Ctx, Layout, Machine, RunResult};

use crate::analysis::{EffectiveParams, Prediction};

/// Setup phases before the measured ones.
pub const SETUP_PHASES: usize = 2;

/// Measured phases: register temporaries / exchange partials /
/// combine.
pub const PHASES: usize = 3;

fn program(ctx: &mut Ctx, input: &[u32], buckets: usize) -> Vec<u64> {
    let n = input.len();
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    // Pad the bucket space so every processor owns an equal range.
    let bpp = buckets.div_ceil(p);
    let padded = bpp * p;

    // --- Setup (uncounted): input distribution. ---
    let data = ctx.register::<u32>("hist.data", n, Layout::Block);
    ctx.sync();
    let my_range = ctx.local_range(&data);
    ctx.local_write(&data, my_range.start, &input[my_range.clone()]);
    ctx.sync();

    // --- Phase 1: register the partial-exchange board. ---
    // Owner j's block holds p sub-rows of its bucket range:
    // parts[j·bpp·p + i·bpp ..][..bpp] = processor i's counts for
    // range j.
    let parts = ctx.register::<u64>("hist.parts", padded * p, Layout::Block);
    ctx.sync();

    // --- Phase 2: local histogram + scatter partials to owners. ---
    let local = ctx.local_vec(&data);
    let mut partial = vec![0u64; padded];
    for &k in &local {
        partial[k as usize % buckets] += 1;
    }
    ctx.charge(3 * local.len() as u64);
    for j in 0..p {
        let slice = &partial[j * bpp..(j + 1) * bpp];
        let slot = j * bpp * p + me * bpp;
        if j == me {
            ctx.local_write(&parts, slot, slice);
        } else if slice.iter().any(|&c| c != 0) {
            ctx.put(&parts, slot, slice);
        }
    }
    ctx.sync();

    // --- Phase 3: owners combine their sub-rows. ---
    let block = ctx.local_vec(&parts); // p sub-rows of bpp each
    let mut combined = vec![0u64; bpp];
    for i in 0..p {
        for b in 0..bpp {
            combined[b] += block[i * bpp + b];
        }
    }
    ctx.charge(2 * (p * bpp) as u64);
    ctx.sync();

    // Return this owner's bucket range (trimmed of padding).
    let start = me * bpp;
    let end = ((me + 1) * bpp).min(buckets);
    if start < buckets {
        combined[..end - start].to_vec()
    } else {
        Vec::new()
    }
}

/// Result of a histogram run.
#[derive(Debug)]
pub struct HistogramRun {
    /// Global counts, indexed by bucket.
    pub counts: Vec<u64>,
    /// The raw run.
    pub run: RunResult<Vec<u64>>,
}

impl HistogramRun {
    /// Measured communication cycles over the algorithm's phases.
    pub fn comm(&self) -> f64 {
        self.run.phases[SETUP_PHASES..].iter().map(|r| r.timing.comm.get()).sum()
    }
}

/// Sequential oracle. Panics if `buckets` is 0.
pub fn histogram_seq(input: &[u32], buckets: usize) -> Vec<u64> {
    assert!(buckets > 0, "histogram_seq: {} keys need at least one bucket, got 0", input.len());
    let mut counts = vec![0u64; buckets];
    for &k in input {
        counts[k as usize % buckets] += 1;
    }
    counts
}

/// Run on any [`Machine`] backend. Panics if `buckets` is 0.
pub fn run_on<M: Machine>(machine: &M, input: &[u32], buckets: usize) -> HistogramRun {
    assert!(buckets > 0, "histogram: {} keys need at least one bucket, got 0", input.len());
    let run = machine.run(|ctx| program(ctx, input, buckets));
    let counts = run.outputs.concat();
    HistogramRun { counts, run }
}

/// QSM communication prediction: each processor ships ~`buckets`
/// double-word counts (its partials, minus the range it owns) and
/// the phase constants — independent of `n`.
pub fn predict(buckets: usize, params: &EffectiveParams) -> Prediction {
    let p = params.p as f64;
    let bpp = (buckets as f64 / p).ceil();
    let words = 2.0 * bpp * (p - 1.0); // u64 counts to p-1 owners
    Prediction::from_qsm(params.g_put * words, PHASES, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_u32s;
    use qsm_core::{SimMachine, ThreadMachine};
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    #[test]
    fn matches_sequential_oracle() {
        let input = random_u32s(5000, 21);
        for (p, buckets) in [(4, 64), (8, 100), (3, 7), (1, 16)] {
            let run = run_on(&machine(p), &input, buckets);
            assert_eq!(run.counts, histogram_seq(&input, buckets), "p={p} buckets={buckets}");
        }
    }

    #[test]
    fn buckets_fewer_than_processors() {
        let input = random_u32s(1000, 22);
        let run = run_on(&machine(8), &input, 3);
        assert_eq!(run.counts, histogram_seq(&input, 3));
    }

    #[test]
    fn counts_conserve_input_size() {
        let input = random_u32s(3000, 23);
        let run = run_on(&machine(4), &input, 50);
        assert_eq!(run.counts.iter().sum::<u64>(), 3000);
    }

    #[test]
    fn communication_independent_of_n() {
        let m = machine(8);
        let small = run_on(&m, &random_u32s(1 << 10, 24), 128).comm();
        let large = run_on(&m, &random_u32s(1 << 16, 24), 128).comm();
        assert!((large / small - 1.0).abs() < 0.2, "comm should be ~flat in n: {small} -> {large}");
    }

    #[test]
    fn kappa_stays_one() {
        // The whole point of owner-computes: no location is touched
        // twice in a phase.
        let run = run_on(&machine(4), &random_u32s(2000, 25), 64);
        for ph in &run.run.profile.phases {
            assert!(ph.kappa <= 1, "kappa = {}", ph.kappa);
        }
    }

    #[test]
    fn skewed_keys_still_correct() {
        // All keys identical: one bucket holds everything; the
        // exchange still routes partial counts, never raw elements.
        let input = vec![13u32; 4000];
        let run = run_on(&machine(8), &input, 64);
        assert_eq!(run.counts, histogram_seq(&input, 64));
        // And the traffic stays tiny despite extreme skew.
        let pred = predict(64, &EffectiveParams::fixed(8, 140.0, 25_500.0));
        assert!(pred.qsm < 1e6);
    }

    #[test]
    fn native_threads_agree() {
        let input = random_u32s(2000, 26);
        let run = run_on(&ThreadMachine::new(4), &input, 32);
        assert_eq!(run.counts, histogram_seq(&input, 32));
    }
}
