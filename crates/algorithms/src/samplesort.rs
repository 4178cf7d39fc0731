//! Sample sort (Appendix: `samplesort`).
//!
//! The 5-phase randomized QSM algorithm with oversampling: every
//! processor broadcasts `c·log n` random samples (`c` is
//! [`OVERSAMPLING`]), all processors sort the combined sample
//! redundantly and agree on `p-1` pivots, local elements are staged
//! into contiguous per-bucket runs, bucket owners fetch their runs
//! from every contributor, sort locally, and write the result back.
//! Runs in `O(g·p·log n + g·n/p)` time and exactly five phases (whp)
//! for `p ≤ sqrt(n / log n)`.
//!
//! The run reports the two load-balance quantities of the paper's
//! analysis: `B` (largest bucket) and `r` (largest fraction of a
//! bucket fetched from remote contributors). No peer reads a key before
//! it is staged, so keys are sampled and staged from the input in place;
//! the sorted buckets go back into `ssort.staged`, which phase 4 has read.

use qsm_core::{addr::block_range, Ctx, EffectiveCosts, Layout, Machine, RunResult};
use qsm_models::chernoff::sample_sort_bucket_bound;
use rand::Rng;

use crate::analysis::{log2n, Prediction, WHP_DELTA};
use crate::collectives::Gather;

/// Number of setup phases (registration + input distribution)
/// preceding the five measured phases.
pub const SETUP_PHASES: usize = 2;

/// The paper's phase count for this algorithm.
pub const PAPER_PHASES: usize = 5;

/// The oversampling constant `c` in `c·log n` samples/processor.
pub const OVERSAMPLING: f64 = 2.0;

/// Per-processor outcome: the skew measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcOutcome {
    /// Size of the bucket this processor sorted.
    pub bucket_size: u64,
    /// How many bucket elements were already local (its own
    /// contribution).
    pub own_contribution: u64,
}

/// Samples per processor for problem size `n`.
pub fn samples_per_proc(n: usize) -> usize {
    ((OVERSAMPLING * log2n(n)).ceil() as usize).max(1)
}

/// Below this many keys [`radix_sort`] is `sort_unstable`: its passes
/// over 4 × 256 counters cost more than the comparisons they save. From
/// it up to [`SPLIT_MIN`] a bucket and its scratch fit a core's 2 MiB
/// L2, and the LSD passes run over the whole bucket.
const RADIX_MIN: usize = 4096;

/// From this many keys on, [`radix_sort`] splits the bucket before its
/// passes ([`split_sort`]): the bucket and its scratch hold 4 MiB, more
/// than L2, so each pass over it misses there. Measured on a two-core
/// x86-64 host (2 MiB L2), random keys, split time over plain LSD: 1.3–7
/// at 2¹²–2¹⁷ keys (the pieces are too small to repay the extra
/// scatter), 1.0–1.2 at 2¹⁸, 0.9–1.1 at 2¹⁹, 0.7–0.9 at 2²⁰ and 0.5–0.8
/// at 2²¹–2²². A `samplesort` bucket at n = 2²² is 2²⁰ keys at p = 4
/// (split) and 2¹⁸ at p = 16 (not).
const SPLIT_MIN: usize = 1 << 19;

/// Sort `keys` ascending. Compute is charged (`4·B·log B`), never
/// timed, so the host sorts however is fastest: LSD radix sort on
/// bytes ([`lsd`]), first split into cache-sized pieces
/// ([`split_sort`]) when the bucket and its scratch overflow L2.
fn radix_sort(keys: &mut Vec<u32>) {
    let n = keys.len();
    if n < RADIX_MIN {
        return keys.sort_unstable();
    }
    let mut scratch = vec![0u32; n];
    if n >= SPLIT_MIN {
        split_sort(keys, &mut scratch);
    } else if lsd(keys, &mut scratch) {
        std::mem::swap(keys, &mut scratch);
    }
}

/// LSD radix passes on bytes between `keys` and `scratch` (as long),
/// all four histograms filled in one pass, and no pass for a byte
/// every key shares (a bucket's keys often share their top one).
/// Returns whether the sorted keys ended in `scratch`.
fn lsd(keys: &mut [u32], scratch: &mut [u32]) -> bool {
    let n = keys.len();
    let mut counts = [[0usize; 256]; 4];
    for &k in keys.iter() {
        for (byte, count) in k.to_le_bytes().into_iter().zip(&mut counts) {
            count[byte as usize] += 1;
        }
    }
    let (mut from, mut to, mut moved) = (keys, scratch, false);
    for (shift, count) in (0..32).step_by(8).zip(&mut counts) {
        if count.contains(&n) {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            at += std::mem::replace(c, at);
        }
        for &k in from.iter() {
            let slot = &mut count[(k >> shift) as usize & 0xff];
            to[*slot] = k;
            *slot += 1;
        }
        (from, to, moved) = (to, from, !moved);
    }
    moved
}

/// Sort `keys` with `scratch` (as long) in up to 256 pieces: one
/// scatter of `key − min` into `scratch` by the top 8 bits in which
/// that varies, then [`lsd`] over each piece and its copy back, `min`
/// added, while the piece is in cache.
fn split_sort(keys: &mut [u32], scratch: &mut [u32]) {
    let (min, max) = keys.iter().fold((u32::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let shift = (32 - max.saturating_sub(min).leading_zeros()).saturating_sub(8);
    let piece_of = |k: u32| ((k - min) >> shift) as usize;
    let mut ends = [0usize; 256];
    for &k in keys.iter() {
        ends[piece_of(k)] += 1;
    }
    let mut at = 0;
    for end in &mut ends {
        at += std::mem::replace(end, at);
    }
    for &k in keys.iter() {
        let slot = &mut ends[piece_of(k)];
        scratch[*slot] = k - min;
        *slot += 1;
    }
    let mut start = 0;
    for end in ends {
        let (piece, spare) = (&mut scratch[start..end], &mut keys[start..end]);
        if !lsd(piece, spare) {
            spare.copy_from_slice(piece);
        }
        spare.iter_mut().for_each(|k| *k += min);
        start = end;
    }
}

fn program(ctx: &mut Ctx, input: &[u32], out: &Gather<'_, u32>) -> ProcOutcome {
    let n = input.len();
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    let spp = samples_per_proc(n);
    let sample_total = p * spp;
    let my_range = block_range(n, p, me);
    let local = &input[my_range.clone()];

    // --- Setup (uncounted): nothing to register or distribute. ---
    ctx.sync();
    ctx.sync();

    // --- Phase 1 (measured): register temporaries, barrier. ---
    let staged = ctx.register::<u32>("ssort.staged", n, Layout::Block);
    let samples = ctx.register::<u32>("ssort.samples", p * sample_total, Layout::Block);
    // counts row of bucket owner i: for each source j, [count, start].
    let counts = ctx.register::<u64>("ssort.counts", p * 2 * p, Layout::Block);
    let btotals = ctx.register::<u64>("ssort.btotals", p * p, Layout::Block);
    ctx.sync();

    // --- Phase 2: sampling with replacement + broadcast. ---
    let mut my_samples = Vec::with_capacity(spp);
    for _ in 0..spp {
        let v = if local.is_empty() {
            0
        } else {
            let k = ctx.rng().gen_range(0..local.len());
            local[k]
        };
        my_samples.push(v);
    }
    ctx.charge(10 * spp as u64); // rng + load per sample
    for j in 0..p {
        let slot = j * sample_total + me * spp;
        if j == me {
            ctx.local_write(&samples, slot, &my_samples);
        } else {
            ctx.put(&samples, slot, &my_samples);
        }
    }
    ctx.sync();

    // --- Phase 3: redundant sample sort, pivot selection, staging,
    //     per-bucket counts to the bucket owners. ---
    let mut all_samples = ctx.local_vec(&samples);
    all_samples.sort_unstable();
    ctx.charge((4.0 * sample_total as f64 * log2n(sample_total)) as u64); // comparison sort
    let pivots: Vec<u32> = (1..p).map(|k| all_samples[k * spp]).collect();

    // Assign each local element to a bucket (elements equal to a
    // pivot all land in the same bucket, keeping the output sorted):
    // one binary search per element, ids saved for the scatter below
    // so no element is searched twice.
    let bucket_of = |v: u32| pivots.partition_point(|&pv| pv < v);
    let ids: Vec<u32> = local.iter().map(|&v| bucket_of(v) as u32).collect();
    let mut bucket_len = vec![0usize; p];
    for &b in &ids {
        bucket_len[b as usize] += 1;
    }
    ctx.charge((3.0 * local.len() as f64 * log2n(p)) as u64); // binary search per element

    // Stage: bucket runs contiguous within my block of `staged`,
    // built by a single cursor scatter straight into its window
    // (source order within each bucket is preserved).
    let mut run_start = Vec::with_capacity(p);
    let mut cursor = Vec::with_capacity(p);
    let mut at = 0usize;
    for &len in &bucket_len {
        run_start.push(my_range.start + at);
        cursor.push(at);
        at += len;
    }
    let window = ctx.local_mut(&staged);
    for (&v, &b) in local.iter().zip(&ids) {
        window[cursor[b as usize]] = v;
        cursor[b as usize] += 1;
    }
    ctx.charge(2 * local.len() as u64);
    // A block-sized temporary; the bucket takes its place.
    drop(ids);

    // Tell bucket owner i where my contribution lives.
    for i in 0..p {
        let entry = [bucket_len[i] as u64, run_start[i] as u64];
        let slot = i * 2 * p + 2 * me;
        if i == me {
            ctx.local_write(&counts, slot, &entry);
        } else {
            ctx.put(&counts, slot, &entry);
        }
    }
    ctx.sync();

    // --- Phase 4: fetch my bucket, broadcast its total. ---
    let my_counts = ctx.local_vec(&counts); // 2p entries
    let bucket_size: u64 = my_counts.iter().step_by(2).sum();
    let mut tickets = Vec::with_capacity(p);
    let mut bucket: Vec<u32> = Vec::with_capacity(bucket_size as usize);
    for j in 0..p {
        let cnt = my_counts[2 * j] as usize;
        let start = my_counts[2 * j + 1] as usize;
        if j == me {
            bucket.extend_from_slice(&ctx.local(&staged)[start - my_range.start..][..cnt]);
        } else {
            tickets.push(ctx.get(&staged, start, cnt));
        }
    }
    let own_contribution = bucket.len() as u64;
    for j in 0..p {
        if j == me {
            ctx.local_write(&btotals, me * p + me, &[bucket_size]);
        } else {
            ctx.put(&btotals, j * p + me, &[bucket_size]);
        }
    }
    ctx.sync();

    // --- Phase 5: sort the bucket, write it back into `staged`. ---
    for t in tickets {
        ctx.take_into(t, &mut bucket);
    }
    debug_assert_eq!(bucket.len() as u64, bucket_size);
    radix_sort(&mut bucket);
    ctx.charge((4.0 * bucket.len() as f64 * log2n(bucket.len().max(2))) as u64);
    let offset: usize = ctx.local(&btotals)[..me].iter().map(|&b| b as usize).sum();
    ctx.charge(p as u64);
    if !bucket.is_empty() {
        ctx.put(&staged, offset, &bucket);
    }
    ctx.charge(bucket.len() as u64);
    drop(bucket); // queued by value
    ctx.sync();

    out.write(me, ctx.local(&staged));
    ProcOutcome { bucket_size, own_contribution }
}

/// Result of a sample-sort run on any backend.
#[derive(Debug)]
pub struct SampleSortRun {
    /// The sorted output.
    pub output: Vec<u32>,
    /// The raw run (phases `SETUP_PHASES..` are the measured five).
    pub run: RunResult<ProcOutcome>,
}

impl SampleSortRun {
    /// Measured communication cycles over the five algorithm phases.
    pub fn comm(&self) -> f64 {
        crate::measured(&self.run, SETUP_PHASES, |t| t.comm)
    }

    /// Measured total cycles over the five algorithm phases.
    pub fn total(&self) -> f64 {
        crate::measured(&self.run, SETUP_PHASES, |t| t.elapsed)
    }

    /// Largest bucket size `B`.
    pub fn b_max(&self) -> u64 {
        self.run.outputs.iter().map(|o| o.bucket_size).max().unwrap_or(0)
    }

    /// Largest remote fraction `r` of any bucket.
    pub fn r_max(&self) -> f64 {
        self.run
            .outputs
            .iter()
            .filter(|o| o.bucket_size > 0)
            .map(|o| (o.bucket_size - o.own_contribution) as f64 / o.bucket_size as f64)
            .fold(0.0f64, f64::max)
    }
}

/// Run on any [`Machine`] backend.
pub fn run_on<M: Machine>(machine: &M, input: &[u32]) -> SampleSortRun {
    let mut output = qsm_core::zeroed_output(input.len()); // untouched pages: the workers fault them in
    let out = Gather::new(&mut output, machine.nprocs());
    let run = machine.run(|ctx| program(ctx, input, &out));
    SampleSortRun { output, run }
}

/// The QSM communication formula with explicit load-balance inputs
/// `B` and `r` (the paper's `4(p-1)g log n + 3(p-1)g + gBr + gB`,
/// with each term priced by its primitive's effective gap).
pub fn qsm_comm(n: usize, b: f64, r: f64, params: &EffectiveCosts) -> f64 {
    let p = params.p as f64;
    let spp = samples_per_proc(n) as f64;
    let broadcasts =
        (p - 1.0) * (spp /* samples (u32) */ + 4.0 /* counts (2 u64) */ + 2.0/* btotal */);
    params.g_put * (broadcasts + b) + params.g_get * (b * r)
}

/// Best-case prediction: perfect balance (`B = n/p`,
/// `r = (p-1)/p`).
pub fn predict_best(n: usize, params: &EffectiveCosts) -> Prediction {
    let p = params.p as f64;
    let qsm = qsm_comm(n, n as f64 / p, (p - 1.0) / p, params);
    Prediction::from_qsm(qsm, PAPER_PHASES, params)
}

/// WHP-bound prediction: oversampling-aware Chernoff bound on `B`
/// (the variance of pivot-cut buckets is governed by the sample
/// count, not by multinomial balance; failure budget [`WHP_DELTA`]
/// split over the `p` buckets) and the fully conservative `r = 1`.
pub fn predict_whp(n: usize, params: &EffectiveCosts) -> Prediction {
    let p = params.p;
    let spp = samples_per_proc(n);
    let b = sample_sort_bucket_bound(
        n as u64,
        (p * spp) as u64,
        spp as u64,
        WHP_DELTA / (2.0 * p as f64),
    );
    let qsm = qsm_comm(n, b, 1.0, params);
    Prediction::from_qsm(qsm, PAPER_PHASES, params)
}

/// Estimate using the skews actually measured in a run.
pub fn predict_estimate(n: usize, run: &SampleSortRun, params: &EffectiveCosts) -> Prediction {
    let qsm = qsm_comm(n, run.b_max() as f64, run.r_max(), params);
    Prediction::from_qsm(qsm, PAPER_PHASES, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{nearly_sorted_u32s, random_u32s};
    use crate::seq;
    use proptest::prelude::*;
    use qsm_core::{SimMachine, ThreadMachine};
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    #[test]
    fn sorts_random_input() {
        let input = random_u32s(4000, 17);
        let run = run_on(&machine(4), &input);
        assert_eq!(run.output, seq::sorted(&input));
    }

    // Each at a size whose buckets stay under `RADIX_MIN`, and at one
    // whose buckets take the radix passes.

    #[test]
    fn sorts_input_with_heavy_duplicates() {
        for n in [3000, 1 << 16] {
            let input: Vec<u32> = (0..n).map(|i| (i % 7) as u32).collect();
            let run = run_on(&machine(4), &input);
            assert!(n < RADIX_MIN || run.b_max() >= RADIX_MIN as u64);
            assert_eq!(run.output, seq::sorted(&input), "n={n}");
        }
    }

    #[test]
    fn sorts_nearly_sorted_input() {
        for n in [2000, 1 << 16] {
            let input = nearly_sorted_u32s(n, 3);
            let run = run_on(&machine(8), &input);
            assert!(n < RADIX_MIN || run.b_max() >= RADIX_MIN as u64);
            assert_eq!(run.output, seq::sorted(&input), "n={n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Against the comparison sort, over lengths on both sides of
        /// `RADIX_MIN` and keys that differ in a chosen 1–4 of their
        /// bytes and share `base` in the others, so that every pattern
        /// of skipped passes runs.
        #[test]
        fn radix_sort_matches_sort_unstable(
            len in 0usize..20_000,
            varying in 1u32..16,
            base in any::<u32>(),
            order in 0u8..4,
            extremes in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mask = (0..4).filter(|b| varying >> b & 1 == 1).fold(0u32, |m, b| m | 0xff << (8 * b));
            let mut keys: Vec<u32> =
                random_u32s(len, seed).iter().map(|&k| base & !mask | k & mask).collect();
            if extremes {
                keys.extend([0, u32::MAX]);
            }
            match order {
                0 => {}
                1 => keys.sort_unstable(),
                2 => keys.sort_unstable_by(|a, b| b.cmp(a)),
                _ => keys.fill(base),
            }
            let mut want = keys.clone();
            want.sort_unstable();
            radix_sort(&mut keys);
            prop_assert!(keys == want, "len {} mask {:#010x} order {}", keys.len(), mask, order);
        }

        /// `split_sort` alone, whose pieces do not depend on how many
        /// keys there are, so short inputs reach every shape: keys
        /// `min + r` for `r` below `2^width`, every width 0–32 (0 is
        /// one repeated key, under 8 a piece per value), or `r` one of
        /// five values (heavy duplicates), with `0` and `u32::MAX` at
        /// times added.
        #[test]
        fn split_sort_matches_sort_unstable(
            len in 0usize..3000,
            width in 0u32..=32,
            min in any::<u32>(),
            few in any::<bool>(),
            extremes in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let below = ((1u64 << width) - 1) as u32;
            let r = |k: u32| (if few { k % 5 } else { k }) & below;
            let mut keys: Vec<u32> =
                random_u32s(len, seed).iter().map(|&k| min.saturating_add(r(k))).collect();
            if extremes {
                keys.extend([0, u32::MAX]);
            }
            let mut want = keys.clone();
            want.sort_unstable();
            split_sort(&mut keys, &mut vec![0; want.len()]);
            prop_assert!(keys == want, "len {} width {} min {} few {}", keys.len(), width, min, few);
        }
    }

    /// At `SPLIT_MIN` and a key either side: random keys, a 3-bit
    /// span of heavy duplicates, the full 32 bits, and one key.
    #[test]
    fn radix_sort_splits_at_its_threshold() {
        for n in [SPLIT_MIN - 1, SPLIT_MIN, SPLIT_MIN + 1] {
            let random = random_u32s(n, n as u64);
            let duplicates = (0..n).map(|i| (i % 7) as u32).collect();
            let mut extremes = random_u32s(n - 2, 3);
            extremes.extend([u32::MAX, 0]);
            for mut keys in [random, duplicates, extremes, vec![9; n]] {
                let want = seq::sorted(&keys);
                radix_sort(&mut keys);
                assert!(keys == want, "n={n}");
            }
        }
    }

    #[test]
    fn sorts_on_single_processor() {
        let input = random_u32s(500, 23);
        let run = run_on(&machine(1), &input);
        assert_eq!(run.output, seq::sorted(&input));
    }

    #[test]
    fn exactly_five_measured_phases() {
        let input = random_u32s(2048, 5);
        let run = run_on(&machine(4), &input);
        assert_eq!(run.run.num_phases() - SETUP_PHASES, PAPER_PHASES);
    }

    #[test]
    fn skews_are_sane() {
        let input = random_u32s(8192, 11);
        let run = run_on(&machine(8), &input);
        // B at least the average, at most all of n.
        assert!(run.b_max() >= (8192 / 8) as u64);
        assert!(run.b_max() < 8192);
        assert!((0.0..=1.0).contains(&run.r_max()));
        // With random data almost everything is remote.
        assert!(run.r_max() > 0.5);
    }

    #[test]
    fn best_case_below_whp_bound() {
        let params = crate::analysis::fixed(16, 140.0, 25_500.0);
        for n in [1 << 12, 1 << 16, 1 << 20] {
            let best = predict_best(n, &params);
            let whp = predict_whp(n, &params);
            assert!(best.qsm < whp.qsm, "n={n}");
            assert!(best.bsp < whp.bsp, "n={n}");
        }
    }

    #[test]
    fn whp_band_width_is_bounded() {
        // The WHP/Best ratio is governed by the oversampling rate
        // (c·log n samples per pivot gap): it stays a small constant
        // factor across the whole sweep rather than blowing up.
        let params = crate::analysis::fixed(16, 140.0, 25_500.0);
        for n in [1 << 12, 1 << 16, 1 << 20] {
            let ratio = predict_whp(n, &params).qsm / predict_best(n, &params).qsm;
            assert!((1.0..3.0).contains(&ratio), "n={n}: band ratio {ratio}");
        }
    }

    #[test]
    fn measured_falls_between_best_and_whp_for_large_n() {
        // The headline Figure 2 claim, as an executable test.
        let m = machine(8);
        let n = 1 << 15;
        let input = random_u32s(n, 29);
        let run = run_on(&m, &input);
        let params = EffectiveCosts::measure(MachineConfig::paper_default(8));
        let best = predict_best(n, &params);
        let whp = predict_whp(n, &params);
        let measured = run.comm();
        assert!(
            measured > best.qsm,
            "measured {measured} should exceed best-case QSM {}",
            best.qsm
        );
        assert!(
            measured < whp.bsp * 1.5,
            "measured {measured} should sit near the WHP band (whp bsp = {})",
            whp.bsp
        );
    }

    #[test]
    fn estimate_uses_measured_skews() {
        let m = machine(4);
        let input = random_u32s(4096, 31);
        let run = run_on(&m, &input);
        let params = crate::analysis::fixed(4, 140.0, 25_500.0);
        let est = predict_estimate(4096, &run, &params);
        let best = predict_best(4096, &params);
        // Real skew can't beat perfect balance by definition of B.
        assert!(est.qsm >= best.qsm * 0.99);
    }

    #[test]
    fn native_threads_sort_correctly() {
        let input = random_u32s(3000, 41);
        let r = run_on(&ThreadMachine::new(4), &input);
        assert_eq!(r.output, seq::sorted(&input));
        assert_eq!(r.run.phases.len() - SETUP_PHASES, PAPER_PHASES);
    }
}
