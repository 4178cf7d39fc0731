//! Fine-grained semantics of the shared-memory runtime, exercised
//! through the public facade — on both backends. The simulated and
//! native machines share one engine, so every semantic guarantee
//! (ordering, zero-init, ticket lifetimes, κ accounting, RNG
//! determinism) must hold identically on each; the tests iterate
//! over [`machines`] and assert the same expectations either way.

use qsm::core::{AnyMachine, Layout, Machine, SimMachine, ThreadMachine};
use qsm::simnet::MachineConfig;

fn machine(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

/// Both backends at `p` processors, behind the same [`Machine`] API.
fn machines(p: usize) -> [AnyMachine; 2] {
    [AnyMachine::from(machine(p)), AnyMachine::from(ThreadMachine::new(p))]
}

#[test]
fn gets_spanning_block_boundaries_assemble_in_order() {
    let p = 4;
    let n = 10; // ragged blocks: 3,3,2,2
    for m in machines(p) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("a", n, Layout::Block);
            ctx.sync();
            let r = ctx.local_range(&arr);
            let vals: Vec<u64> = r.clone().map(|i| (i * i) as u64).collect();
            ctx.local_write(&arr, r.start, &vals);
            ctx.sync();
            let t = ctx.get(&arr, 1, 8); // crosses three blocks
            ctx.sync();
            ctx.take(t)
        });
        for out in run.outputs {
            assert_eq!(out, (1..9).map(|i| (i * i) as u64).collect::<Vec<_>>());
        }
    }
}

#[test]
fn unregister_frees_and_ids_never_recycle_content() {
    for m in machines(2) {
        let run = m.run(|ctx| {
            let a = ctx.register::<u64>("first", 8, Layout::Block);
            ctx.sync();
            if ctx.proc_id() == 0 {
                ctx.put(&a, 7, &[111]);
            }
            ctx.sync();
            ctx.unregister(a);
            let b = ctx.register::<u64>("second", 8, Layout::Block);
            ctx.sync();
            // The new array must be zero-initialized, not inherit the
            // old one's contents.
            let t = ctx.get(&b, 7, 1);
            ctx.sync();
            ctx.take(t)[0]
        });
        assert_eq!(run.outputs, vec![0, 0]);
    }
}

#[test]
fn many_arrays_with_mixed_types_coexist() {
    for m in machines(3) {
        let run = m.run(|ctx| {
            let a = ctx.register::<u32>("u32s", 9, Layout::Block);
            let b = ctx.register::<u64>("u64s", 9, Layout::Block);
            let c = ctx.register::<i64>("i64s", 9, Layout::Block);
            let d = ctx.register::<f64>("f64s", 9, Layout::Block);
            ctx.sync();
            let me = ctx.proc_id();
            ctx.put(&a, me, &[me as u32 + 1]);
            ctx.put(&b, me, &[u64::MAX - me as u64]);
            ctx.put(&c, me, &[-(me as i64) - 1]);
            ctx.put(&d, me, &[me as f64 * 0.5]);
            ctx.sync();
            let ta = ctx.get(&a, 0, 3);
            let tb = ctx.get(&b, 0, 3);
            let tc = ctx.get(&c, 0, 3);
            let td = ctx.get(&d, 0, 3);
            ctx.sync();
            (ctx.take(ta), ctx.take(tb), ctx.take(tc), ctx.take(td))
        });
        for (a, b, c, d) in run.outputs {
            assert_eq!(a, vec![1, 2, 3]);
            assert_eq!(b, vec![u64::MAX, u64::MAX - 1, u64::MAX - 2]);
            assert_eq!(c, vec![-1, -2, -3]);
            assert_eq!(d, vec![0.0, 0.5, 1.0]);
        }
    }
}

#[test]
fn zero_length_gets_resolve_immediately() {
    for m in machines(2) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("a", 4, Layout::Block);
            ctx.sync();
            let t = ctx.get(&arr, 2, 0);
            // Zero-length tickets are redeemable without a sync
            // (nothing was read).
            let v = ctx.take(t);
            ctx.sync();
            v
        });
        assert_eq!(run.outputs, vec![Vec::<u64>::new(), Vec::new()]);
    }
}

#[test]
fn tickets_survive_multiple_syncs_until_taken() {
    for m in machines(2) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("a", 4, Layout::Block);
            ctx.sync();
            ctx.put(&arr, ctx.proc_id(), &[5 + ctx.proc_id() as u64]);
            ctx.sync();
            let t = ctx.get(&arr, 0, 2);
            ctx.sync();
            ctx.sync(); // extra phases in between
            ctx.sync();
            ctx.take(t)
        });
        assert_eq!(run.outputs, vec![vec![5, 6]; 2]);
    }
}

#[test]
fn hashed_arrays_round_trip_all_values() {
    let n = 257; // prime: exercises every hash residue
    for m in machines(4) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("h", n, Layout::Hashed);
            ctx.sync();
            // Processor 0 writes everything; everyone reads everything.
            if ctx.proc_id() == 0 {
                let vals: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
                ctx.put(&arr, 0, &vals);
            }
            ctx.sync();
            let t = ctx.get(&arr, 0, n);
            ctx.sync();
            ctx.take(t)
        });
        for out in run.outputs {
            assert_eq!(out, (0..n as u64).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
    }
}

#[test]
fn hashed_traffic_spreads_across_owners() {
    // The point of the hashed layout: a range write is charged across
    // all memory modules, not one. Metering comes from the same
    // CommMatrix on both backends.
    let p = 8;
    let words = 4096;
    for m in machines(p) {
        let comm_of = |layout: Layout| {
            m.run(move |ctx| {
                let arr = ctx.register::<u32>("t", p * words, layout);
                ctx.sync();
                if ctx.proc_id() == 0 {
                    // Write someone else's region (under Block, all of
                    // it lands on processor 1).
                    let data = vec![9u32; words];
                    ctx.put(&arr, words, &data);
                }
                ctx.sync();
            })
            .phases[1]
                .profile
                .msgs
        };
        let block_msgs = comm_of(Layout::Block);
        let hashed_msgs = comm_of(Layout::Hashed);
        assert_eq!(block_msgs, 1, "block layout: one destination");
        assert!(
            hashed_msgs >= (p - 2) as u64,
            "hashed layout should touch most owners: {hashed_msgs}"
        );
    }
}

#[test]
fn concurrent_puts_to_one_location_apply_in_processor_order() {
    // QSM queues concurrent writes; our documented resolution is
    // deterministic processor-then-issue order (last writer: highest
    // processor id).
    for m in machines(4) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("w", 1, Layout::Block);
            ctx.sync();
            ctx.put(&arr, 0, &[ctx.proc_id() as u64 + 10]);
            ctx.sync();
            let t = ctx.get(&arr, 0, 1);
            ctx.sync();
            ctx.take(t)[0]
        });
        assert_eq!(run.outputs, vec![13; 4]);
    }
}

#[test]
fn concurrent_puts_record_kappa() {
    for m in machines(4) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("w", 1, Layout::Block);
            ctx.sync();
            ctx.put(&arr, 0, &[1]);
            ctx.sync();
        });
        assert_eq!(run.phases[1].profile.kappa, 4);
    }
}

#[test]
fn per_processor_rngs_differ_and_reproduce() {
    use rand::Rng;
    let machines: [AnyMachine; 2] =
        [machine(4).with_seed(42).into(), ThreadMachine::new(4).with_seed(42).into()];
    for seeded in machines {
        let draw = || seeded.run(|ctx| ctx.rng().gen::<u64>()).outputs;
        let a = draw();
        let b = draw();
        assert_eq!(a, b, "same seed must reproduce");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "processors must draw independent streams");
    }
}

#[test]
fn rng_streams_identical_across_backends() {
    // The per-processor RNG derives from (machine seed, proc id)
    // only, so the two backends hand programs identical randomness.
    use rand::Rng;
    let draw = |m: AnyMachine| m.run(|ctx| ctx.rng().gen::<u64>()).outputs;
    let (s, t) = (machine(4).with_seed(7), ThreadMachine::new(4).with_seed(7));
    assert_eq!(draw(s.into()), draw(t.into()));
}

#[test]
fn empty_program_runs_and_costs_nothing() {
    for m in machines(4) {
        let run = m.run(|_ctx| 7usize);
        assert_eq!(run.outputs, vec![7; 4]);
        assert_eq!(run.num_phases(), 0);
        assert_eq!(run.total().get(), 0.0);
    }
}

#[test]
fn local_window_sees_own_writes_within_phase() {
    for m in machines(2) {
        let run = m.run(|ctx| {
            let arr = ctx.register::<u64>("a", 4, Layout::Block);
            ctx.sync();
            let r = ctx.local_range(&arr);
            ctx.local_write(&arr, r.start, &[77, 78]);
            // Same phase: local reads see local writes immediately.
            ctx.local_read(&arr, r.start, 2)
        });
        assert_eq!(run.outputs, vec![vec![77, 78]; 2]);
    }
}
