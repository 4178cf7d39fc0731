//! Failure injection: the runtime must *detect* misuse of the
//! bulk-synchronous contract, not silently mis-execute.

use qsm::core::{Layout, SimMachine};
use qsm::simnet::MachineConfig;

fn machine(p: usize) -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(p))
}

#[test]
#[should_panic(expected = "bulk-synchrony violation")]
fn taking_a_get_before_sync_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.sync();
        let t = ctx.get(&arr, 0, 1);
        let _ = ctx.take(t); // same phase: forbidden
        ctx.sync();
    });
}

#[test]
#[should_panic(expected = "bulk-synchrony violation")]
fn read_write_overlap_in_one_phase_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.sync();
        if ctx.proc_id() == 0 {
            ctx.put(&arr, 5, &[1]);
        } else {
            let _t = ctx.get(&arr, 5, 1); // same location, same phase
        }
        ctx.sync();
    });
}

#[test]
fn read_write_overlap_allowed_when_check_disabled() {
    // With the check off, the phase still executes deterministically
    // (gets are served from the pre-put state).
    let m = machine(2).with_conflict_check(false);
    let run = m.run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.sync();
        if ctx.proc_id() == 0 {
            ctx.local_write(&arr, 3, &[7]);
            ctx.sync();
            ctx.put(&arr, 3, &[100]);
            ctx.sync();
            0
        } else {
            ctx.sync();
            let t = ctx.get(&arr, 3, 1);
            ctx.sync();
            ctx.take(t)[0]
        }
    });
    assert_eq!(run.outputs[1], 7, "get must see the pre-put value");
}

#[test]
#[should_panic(expected = "collective violation")]
fn mismatched_registration_panics() {
    machine(2).run(|ctx| {
        if ctx.proc_id() == 0 {
            let _ = ctx.register::<u64>("a", 8, Layout::Block);
        } else {
            let _ = ctx.register::<u64>("b", 16, Layout::Block);
        }
        ctx.sync();
    });
}

#[test]
#[should_panic(expected = "collective violation")]
fn returning_while_others_sync_panics() {
    machine(2).run(|ctx| {
        if ctx.proc_id() == 0 {
            ctx.sync(); // processor 1 returns instead: not collective
        }
    });
}

#[test]
#[should_panic(expected = "not live")]
fn using_an_array_before_registration_sync_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.put(&arr, 0, &[1]); // registration completes only at sync()
        ctx.sync();
    });
}

#[test]
#[should_panic(expected = "not live")]
fn using_an_array_after_unregister_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.sync();
        ctx.unregister(arr);
        ctx.sync();
        ctx.put(&arr, 0, &[1]);
        ctx.sync();
    });
}

#[test]
#[should_panic(expected = "exceeds array")]
fn out_of_bounds_put_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.sync();
        ctx.put(&arr, 6, &[1, 2, 3]);
        ctx.sync();
    });
}

#[test]
#[should_panic(expected = "no local window")]
fn local_access_to_hashed_array_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("h", 64, Layout::Hashed);
        ctx.sync();
        let _ = ctx.local_read(&arr, 0, 1);
    });
}

#[test]
#[should_panic(expected = "outside local window")]
fn local_write_outside_block_panics() {
    machine(2).run(|ctx| {
        let arr = ctx.register::<u64>("a", 8, Layout::Block);
        ctx.sync();
        // Both processors try to write index 0; it is local only to
        // processor 0.
        ctx.local_write(&arr, 0, &[1]);
        ctx.sync();
    });
}

// Argument errors of the kernels: reported by name on the caller's
// thread, before any worker runs.

#[test]
#[should_panic(expected = "listrank: succ has 2 elements but pred has 1")]
fn listrank_rejects_lists_of_different_lengths() {
    use qsm::algorithms::gen::NIL;
    qsm::algorithms::listrank::run_on(&machine(2), &[1, NIL], &[NIL]);
}

#[test]
#[should_panic(expected = "histogram: 3 keys need at least one bucket, got 0")]
fn histogram_rejects_zero_buckets() {
    qsm::algorithms::histogram::run_on(&machine(2), &[1, 2, 3], 0);
}

#[test]
#[should_panic(expected = "histogram_seq: 3 keys need at least one bucket, got 0")]
fn histogram_seq_rejects_zero_buckets() {
    qsm::algorithms::histogram::histogram_seq(&[1, 2, 3], 0);
}

#[test]
#[should_panic(expected = "matmul: a is 2×2 but b is 3×3")]
fn matmul_rejects_matrices_of_different_dimensions() {
    use qsm::algorithms::matmul::{run_on, Matrix};
    run_on(&machine(2), &Matrix::random(2, 1), &Matrix::random(3, 2));
}
