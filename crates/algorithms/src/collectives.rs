//! Small reusable QSM collectives.
//!
//! The paper's algorithms hand-roll their communication to keep phase
//! counts explicit; these helpers package the recurring idioms for
//! examples and applications built on the library. Each collective is
//! split into an *issue* half (queue the traffic) and a *read* half
//! (extract the result after the caller's `sync()`), so the caller
//! stays in control of phase structure.

use std::sync::{Mutex, PoisonError};

use qsm_core::addr::block_range;
use qsm_core::{Ctx, Layout, SharedArray, Word};

/// A block-distributed result on its way out of the machine: the
/// caller's output vector, split at `block_range`. Each worker copies
/// its window into its own part after its last `sync()`, so the copy
/// and the first touch of the output's pages run on every core, and no
/// per-block `Vec` exists in between.
pub(crate) struct Gather<'a, T>(Vec<Mutex<&'a mut [T]>>);

impl<'a, T: Copy> Gather<'a, T> {
    /// Split `out` into the `p` parts `block_range(out.len(), p, i)`.
    pub(crate) fn new(mut out: &'a mut [T], p: usize) -> Self {
        let n = out.len();
        let part = |i| {
            let (part, rest) = std::mem::take(&mut out).split_at_mut(block_range(n, p, i).len());
            out = rest;
            Mutex::new(part)
        };
        Self((0..p).map(part).collect())
    }

    /// Processor `proc` writes its whole block, under a lock only it
    /// takes. A poisoned lock is recovered: the panic that poisoned it
    /// stays the one the run reports.
    pub(crate) fn write(&self, proc: usize, block: &[T]) {
        let mut part = self.0[proc].lock().unwrap_or_else(PoisonError::into_inner);
        let (got, want) = (block.len(), part.len());
        assert!(
            got == want,
            "processor {proc} gathers a block of {got} elements into a part of {want}"
        );
        part.copy_from_slice(block);
    }
}

/// Register the `p × p` exchange board used by the gather/all-gather
/// collectives. Must be completed by a `sync()` before first use.
pub fn register_board<T: Word>(ctx: &mut Ctx, name: &str) -> SharedArray<T> {
    let p = ctx.nprocs();
    ctx.register::<T>(name, p * p, Layout::Block)
}

/// Issue half of an all-gather: contribute `value` so that, after the
/// next `sync()`, every processor can read all `p` contributions from
/// its own row of `board`.
pub fn all_gather_issue<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, value: T) {
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    for j in 0..p {
        if j == me {
            ctx.local_write(board, me * p + me, &[value]);
        } else {
            ctx.put(board, j * p + me, &[value]);
        }
    }
}

/// Read half of an all-gather: all `p` contributions, in processor
/// order. Call after the `sync()` that followed
/// [`all_gather_issue`].
pub fn all_gather_read<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>) -> Vec<T> {
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    ctx.local_read(board, me * p, p)
}

/// Issue half of a broadcast from `root`: only the root contributes.
pub fn broadcast_issue<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize, value: T) {
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    if me != root {
        return;
    }
    for j in 0..p {
        if j == me {
            ctx.local_write(board, me * p + root, &[value]);
        } else {
            ctx.put(board, j * p + root, &[value]);
        }
    }
}

/// Read half of a broadcast from `root`.
pub fn broadcast_read<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize) -> T {
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    ctx.local_read(board, me * p + root, 1)[0]
}

/// Exclusive prefix over all-gathered `u64` contributions: the sum of
/// the values contributed by processors `0..me`. Call after the
/// `sync()` following [`all_gather_issue`].
pub fn exclusive_prefix(ctx: &mut Ctx, board: &SharedArray<u64>) -> u64 {
    let me = ctx.proc_id();
    let row = all_gather_read(ctx, board);
    row[..me].iter().sum()
}

/// Read half of an all-reduce: fold every processor's contribution
/// with `f`. Call after the `sync()` following [`all_gather_issue`];
/// every processor obtains the same result (one phase, `p-1` remote
/// words per processor — the QSM flat-tree reduction, optimal for
/// `p ≤ sqrt(n)`).
pub fn all_reduce_read<T: Word>(
    ctx: &mut Ctx,
    board: &SharedArray<T>,
    init: T,
    f: impl Fn(T, T) -> T,
) -> T {
    all_gather_read(ctx, board).into_iter().fold(init, f)
}

/// Issue half of a gather to `root`: contribute `value`; only the
/// root will read it.
pub fn gather_issue<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize, value: T) {
    let p = ctx.nprocs();
    let me = ctx.proc_id();
    if me == root {
        ctx.local_write(board, root * p + me, &[value]);
    } else {
        ctx.put(board, root * p + me, &[value]);
    }
}

/// Read half of a gather: the root obtains all `p` contributions in
/// processor order; other processors get `None`.
pub fn gather_read<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize) -> Option<Vec<T>> {
    if ctx.proc_id() == root {
        Some(all_gather_read(ctx, board))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_core::SimMachine;
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    #[test]
    fn gathered_blocks_are_their_concatenation() {
        // Covers n < p, n % p != 0 and empty parts.
        for n in 0..40usize {
            for p in 1..9 {
                let blocks: Vec<Vec<u32>> =
                    (0..p).map(|i| block_range(n, p, i).map(|k| k as u32 + 1).collect()).collect();
                let mut out = vec![0u32; n];
                let gather = Gather::new(&mut out, p);
                // Any order: a worker's part is its own.
                for (i, block) in blocks.iter().enumerate().rev() {
                    gather.write(i, block);
                }
                assert_eq!(out, blocks.concat(), "n={n} p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "processor 1 gathers a block of 2 elements into a part of 3")]
    fn gathering_a_block_of_the_wrong_length_names_it() {
        let mut out = vec![0u64; 10];
        Gather::new(&mut out, 4).write(1, &[7, 7]);
    }

    #[test]
    fn a_poisoned_part_still_takes_its_block() {
        let mut out = vec![0u64; 4];
        let gather = Gather::new(&mut out, 2);
        let wrong = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gather.write(0, &[1]);
        }));
        assert!(wrong.is_err() && gather.0[0].is_poisoned());
        gather.write(0, &[1, 2]);
        gather.write(1, &[3, 4]);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn all_gather_collects_every_contribution() {
        let run = machine(4).run(|ctx| {
            let board = register_board::<u64>(ctx, "board");
            ctx.sync();
            all_gather_issue(ctx, &board, 100 + ctx.proc_id() as u64);
            ctx.sync();
            all_gather_read(ctx, &board)
        });
        for out in run.outputs {
            assert_eq!(out, vec![100, 101, 102, 103]);
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let run = machine(5).run(|ctx| {
            let board = register_board::<u32>(ctx, "bc");
            ctx.sync();
            broadcast_issue(ctx, &board, 2, 777);
            ctx.sync();
            broadcast_read(ctx, &board, 2)
        });
        assert_eq!(run.outputs, vec![777; 5]);
    }

    #[test]
    fn exclusive_prefix_sums_predecessors() {
        let run = machine(4).run(|ctx| {
            let board = register_board::<u64>(ctx, "px");
            ctx.sync();
            all_gather_issue(ctx, &board, 10);
            ctx.sync();
            exclusive_prefix(ctx, &board)
        });
        assert_eq!(run.outputs, vec![0, 10, 20, 30]);
    }

    #[test]
    fn all_reduce_folds_all_contributions() {
        let run = machine(6).run(|ctx| {
            let board = register_board::<u64>(ctx, "ar");
            ctx.sync();
            all_gather_issue(ctx, &board, (ctx.proc_id() + 1) as u64);
            ctx.sync();
            (
                all_reduce_read(ctx, &board, 0u64, |a, b| a + b),
                all_reduce_read(ctx, &board, u64::MIN, |a, b| a.max(b)),
            )
        });
        for out in run.outputs {
            assert_eq!(out, (21, 6)); // 1+..+6, max
        }
    }

    #[test]
    fn gather_delivers_only_to_root() {
        let run = machine(4).run(|ctx| {
            let board = register_board::<u32>(ctx, "g");
            ctx.sync();
            gather_issue(ctx, &board, 2, ctx.proc_id() as u32 * 11);
            ctx.sync();
            gather_read(ctx, &board, 2)
        });
        assert_eq!(run.outputs[2], Some(vec![0, 11, 22, 33]));
        for (i, out) in run.outputs.iter().enumerate() {
            if i != 2 {
                assert_eq!(*out, None);
            }
        }
    }

    #[test]
    fn collectives_work_on_one_processor() {
        let run = machine(1).run(|ctx| {
            let board = register_board::<u64>(ctx, "solo");
            ctx.sync();
            all_gather_issue(ctx, &board, 9);
            ctx.sync();
            (all_gather_read(ctx, &board), exclusive_prefix(ctx, &board))
        });
        assert_eq!(run.outputs[0], (vec![9], 0));
    }
}
