//! Property-based tests through the public API.
//!
//! Each property runs the full stack (program → runtime → simulated
//! exchange → accounting) on randomized inputs, shapes, and machine
//! configurations.

use proptest::prelude::*;
use qsm::algorithms::{gen, listrank, prefix, samplesort, seq};
use qsm::core::{Layout, SimMachine};
use qsm::simnet::MachineConfig;

fn sim(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefix sums equal the sequential scan for arbitrary inputs and
    /// processor counts.
    #[test]
    fn prefix_is_a_scan(
        input in proptest::collection::vec(0u64..1_000_000, 1..400),
        p in 1usize..9,
    ) {
        let run = prefix::run_on(&sim(p), &input);
        prop_assert_eq!(run.output, seq::prefix_sums(&input));
    }

    /// Sample sort produces a sorted permutation of its input for
    /// arbitrary value distributions.
    #[test]
    fn samplesort_sorts_permutation(
        input in proptest::collection::vec(0u32..1000, 1..500),
        p in 1usize..9,
    ) {
        let run = samplesort::run_on(&sim(p), &input);
        prop_assert_eq!(run.output, seq::sorted(&input));
    }

    /// List ranking matches pointer chasing on arbitrary random
    /// permutation lists.
    #[test]
    fn listrank_matches_pointer_chase(n in 1usize..300, seed in 0u64..1000, p in 1usize..9) {
        let (succ, pred, head) = gen::random_list(n, seed);
        let run = listrank::run_on(&sim(p), &succ, &pred);
        prop_assert_eq!(run.ranks, seq::list_ranks(&succ, head));
    }

    /// Puts to disjoint ranges always land exactly where addressed,
    /// regardless of layout and block boundaries.
    #[test]
    fn puts_land_exactly(
        len in 1usize..200,
        p in 1usize..7,
        hashed in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let layout = if hashed { Layout::Hashed } else { Layout::Block };
        let run = sim(p).with_seed(seed).run(move |ctx| {
            let arr = ctx.register::<u64>("t", len, layout);
            ctx.sync();
            // Processor i writes value i+1 to indices i, i+p, i+2p...
            let me = ctx.proc_id();
            let mut idx = me;
            while idx < len {
                ctx.put(&arr, idx, &[(me + 1) as u64]);
                idx += ctx.nprocs();
            }
            ctx.sync();
            // Read the whole array back.
            let t = ctx.get(&arr, 0, len);
            ctx.sync();
            ctx.take(t)
        });
        for out in &run.outputs {
            for (idx, &v) in out.iter().enumerate() {
                prop_assert_eq!(v, (idx % p + 1) as u64, "index {}", idx);
            }
        }
    }

    /// Conservation: the traffic the cost accounting records matches
    /// what the program issued (m_rw equals issued words for a pure
    /// put program).
    #[test]
    fn accounting_conserves_words(words in 1usize..100, p in 2usize..8) {
        let run = sim(p).run(move |ctx| {
            let arr = ctx.register::<u32>("t", p * words, Layout::Block);
            ctx.sync();
            let dst = (ctx.proc_id() + 1) % ctx.nprocs();
            let r = qsm::core::addr::block_range(p * words, p, dst);
            let data = vec![1u32; words.min(r.len())];
            ctx.put(&arr, r.start, &data);
            ctx.sync();
        });
        let phase = &run.phases[1].profile;
        prop_assert_eq!(phase.m_rw, words as u64);
        prop_assert_eq!(phase.h_out, words as u64);
        prop_assert_eq!(phase.h_in, words as u64);
    }

    /// Monotonicity of the machine: making the network strictly worse
    /// (higher l and o) never speeds a program up.
    #[test]
    fn worse_network_never_faster(
        l_extra in 0.0f64..50_000.0,
        o_extra in 0.0f64..5_000.0,
    ) {
        let input = gen::random_u32s(2048, 1);
        let base_cfg = MachineConfig::paper_default(4);
        let worse_cfg = base_cfg
            .with_latency(base_cfg.net.latency + l_extra)
            .with_overhead(base_cfg.net.send_overhead + o_extra);
        let base = samplesort::run_on(&SimMachine::new(base_cfg), &input).comm();
        let worse = samplesort::run_on(&SimMachine::new(worse_cfg), &input).comm();
        prop_assert!(worse >= base * 0.999, "{} < {}", worse, base);
    }
}
