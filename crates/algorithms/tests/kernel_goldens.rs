//! The three paper kernels, pinned in the model.
//!
//! How a kernel moves data on the *host* (copying a local window out,
//! or borrowing it) is never charged, so it must not show in anything
//! the simulated machine reports. The values below were recorded from
//! the commit before the kernels were ported to borrowed windows
//! (`Ctx::local` / `local_mut` / `take_into`): every `PhaseRecord`
//! (charged ops, κ, messages, `payload_bytes`, priced cycles) and every
//! per-processor output, as FNV-1a digests of their `Debug` text, which
//! prints floats shortest-round-trip and so distinguishes any two
//! values that differ in a bit.
//!
//! A kernel's result has since stopped travelling through the
//! per-processor outputs (the workers write it into the caller's
//! vector), so each test rebuilds the recorded shape: the gathered
//! output split at `block_range`, inside a `ProcOutcome` of the old
//! field names. The constants are the recorded ones.

use qsm_algorithms::{gen, listrank, prefix, samplesort};
use qsm_core::addr::block_range;
use qsm_core::{PhaseRecord, SimMachine};
use qsm_simnet::MachineConfig;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn machine(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

/// What one run is held to: phase count, payload bytes over all
/// phases (legible on failure), then the two digests.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    phases: usize,
    payload_bytes: u64,
    phases_digest: u64,
    outputs_digest: u64,
}

const fn g(phases: usize, payload_bytes: u64, phases_digest: u64, outputs_digest: u64) -> Golden {
    Golden { phases, payload_bytes, phases_digest, outputs_digest }
}

fn golden<R: std::fmt::Debug>(phases: &[PhaseRecord], outputs: &[R]) -> Golden {
    Golden {
        phases: phases.len(),
        payload_bytes: phases.iter().map(|r| r.payload_bytes).sum(),
        phases_digest: fnv1a(&format!("{phases:?}")),
        outputs_digest: fnv1a(&format!("{outputs:?}")),
    }
}

const SIZES: [usize; 2] = [1000, 1 << 14];
const PROCS: [usize; 2] = [4, 16];

/// The blocks `out` was gathered from, in processor order.
fn blocks<T>(out: &[T], p: usize) -> impl Iterator<Item = &[T]> {
    (0..p).map(move |i| &out[block_range(out.len(), p, i)])
}

/// Runs `kernel` over `SIZES` × `PROCS` in that order.
fn sweep(kernel: impl Fn(usize, &SimMachine) -> Golden) -> Vec<Golden> {
    SIZES.iter().flat_map(|&n| PROCS.map(|p| kernel(n, &machine(p)))).collect()
}

#[test]
fn prefix_is_unchanged_in_the_model() {
    let got = sweep(|n, m| {
        let r = prefix::run_on(m, &gen::random_u64s(n, 11));
        let outputs: Vec<&[u64]> = blocks(&r.output, r.run.outputs.len()).collect();
        golden(&r.run.phases, &outputs)
    });
    let want = PREFIX;
    assert_eq!(got, want);
}

#[test]
fn samplesort_is_unchanged_in_the_model() {
    let got = sweep(|n, m| {
        #[derive(Debug)]
        #[allow(dead_code)] // read by `Debug` only
        struct ProcOutcome<'a> {
            local_sorted: &'a [u32],
            bucket_size: u64,
            own_contribution: u64,
        }
        let r = samplesort::run_on(m, &gen::random_u32s(n, 12));
        let outputs: Vec<ProcOutcome> = blocks(&r.output, r.run.outputs.len())
            .zip(&r.run.outputs)
            .map(|(local_sorted, o)| ProcOutcome {
                local_sorted,
                bucket_size: o.bucket_size,
                own_contribution: o.own_contribution,
            })
            .collect();
        golden(&r.run.phases, &outputs)
    });
    let want = SAMPLESORT;
    assert_eq!(got, want);
}

/// The pivots are the order statistics of samples drawn through
/// `ctx.rng()`, one call per sample; they alone decide the bucket
/// sizes. A kernel that drew its samples in another order, or drew one
/// more or fewer, would cut other buckets.
#[test]
fn samplesort_draws_the_same_samples() {
    let r = samplesort::run_on(&machine(4), &gen::random_u32s(1 << 14, 12));
    let buckets: Vec<(u64, u64)> =
        r.run.outputs.iter().map(|o| (o.bucket_size, o.own_contribution)).collect();
    assert_eq!(buckets, SAMPLESORT_BUCKETS);
}

#[test]
fn listrank_is_unchanged_in_the_model() {
    let got = sweep(|n, m| {
        let (succ, pred, _head) = gen::random_list(n, 13);
        #[derive(Debug)]
        #[allow(dead_code)] // read by `Debug` only
        struct ProcOutcome<'a> {
            local_ranks: &'a [u64],
            iters: &'a [listrank::IterStats],
            survivors: u64,
            finish_words: u64,
        }
        let r = listrank::run_on(m, &succ, &pred);
        let outputs: Vec<ProcOutcome> = blocks(&r.ranks, r.run.outputs.len())
            .zip(&r.run.outputs)
            .map(|(local_ranks, o)| ProcOutcome {
                local_ranks,
                iters: &o.iters,
                survivors: o.survivors,
                finish_words: o.finish_words,
            })
            .collect();
        golden(&r.run.phases, &outputs)
    });
    let want = LISTRANK;
    assert_eq!(got, want);
}

// In `sweep` order: (n, p) = (1000, 4), (1000, 16), (16384, 4), (16384, 16).
const PREFIX: [Golden; 4] = [
    g(4, 96, 0xd7da_8a20_49f6_86e6, 0xb6b1_e1d5_bc39_3d24),
    g(4, 1920, 0x2b9d_ac50_7b28_3b2d, 0x222a_73d0_8ddc_b038),
    g(4, 96, 0x8322_6a35_7a7c_4b3b, 0x7007_d2c6_7552_b9cf),
    g(4, 1920, 0x32a3_8450_2e6f_182c, 0xbbc9_0248_24ea_c117),
];
const SAMPLESORT: [Golden; 4] = [
    g(7, 8236, 0x0842_e832_6b7f_e012, 0x3317_3e44_4f27_789f),
    g(7, 32772, 0x68ca_900f_75cd_ba27, 0x375d_7c05_66a1_032c),
    g(7, 116104, 0x98ba_0113_8f3d_2894, 0x0ccd_f32b_0f79_c6dd),
    g(7, 159544, 0x18d5_a071_a0ed_dec3, 0x4454_9542_ee8f_c5cb),
];
/// `(bucket_size, own_contribution)` per processor at n = 16384, p = 4.
const SAMPLESORT_BUCKETS: [(u64, u64); 4] = [(3712, 914), (4890, 1265), (4304, 1095), (3478, 876)];
const LISTRANK: [Golden; 4] = [
    g(47, 35036, 0x9186_1b88_631e_9aea, 0xbc5e_293a_1596_59a2),
    g(87, 46688, 0x4380_1896_e4ad_effb, 0x2ddb_8564_2004_8a05),
    g(47, 569064, 0xe064_71b4_b0c3_25f1, 0x01c4_1ae6_c3cb_9337),
    g(87, 737772, 0x4bff_0e88_1d20_2f56, 0x13cc_d90b_1b77_8559),
];
