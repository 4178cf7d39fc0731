//! Collectives. The paper's algorithms hand-roll their communication
//! to keep phase counts explicit, so what is shared is the last step
//! of every kernel: `Gather`, which takes a block-distributed result
//! out of the machine. The tests keep board-based all-gather,
//! broadcast, gather and reduce helpers that exercise the same
//! issue-then-`sync()`-then-read idiom.
//!
//! Returning each block through `RunResult::outputs` and concatenating
//! them on the calling thread would copy the result twice, keep a
//! second `n` elements live, and leave the first touch of the fresh
//! output to one thread: at n = 2²³ the 64 MiB vector is 16 385 page
//! faults taken one at a time while every worker is parked, 45 of a
//! `prefix` run's 58 ms on a two-core host. So `run_on` allocates the
//! output with [`qsm_core::zeroed_output`] (mapped, untouched, and
//! from 32 MiB up advised onto 2 MiB pages, so the 64 MiB take 544
//! faults instead of 16 385), `Gather` splits it into
//! `p` disjoint parts, each behind its own `Mutex` so that `&Gather` is
//! `Sync` in safe code, and a program's last act is one
//! `copy_from_slice` per worker under a lock nobody else takes
//! (`prefix` scans straight into its part). The faults run on every
//! core, and the run's outcome carries only statistics
//! (`tests/result_memory.rs` bounds the peak heap of a run, and what
//! outlives it). `histogram` returns a few KiB of computed pieces and
//! keeps `outputs.concat()`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use qsm_core::addr::block_range;

/// A block-distributed result on its way out of the machine: the
/// caller's output vector, split at `block_range`. Each worker fills
/// its own part (`write` after its last `sync()`, or computes in it), so
/// the first touch of the output's pages runs on every core, and no
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

    /// Lend processor `proc` its part, under a lock only it takes. A
    /// poisoned lock is recovered: the panic that poisoned it stays the
    /// one the run reports.
    pub(crate) fn part(&self, proc: usize) -> MutexGuard<'_, &'a mut [T]> {
        self.0[proc].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Processor `proc` writes its whole block into its part.
    pub(crate) fn write(&self, proc: usize, block: &[T]) {
        let mut part = self.part(proc);
        let (got, want) = (block.len(), part.len());
        assert!(
            got == want,
            "processor {proc} gathers a block of {got} elements into a part of {want}"
        );
        part.copy_from_slice(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_core::{Ctx, Layout, SharedArray, SimMachine, Word};
    use qsm_simnet::MachineConfig;

    fn machine(p: usize) -> SimMachine {
        SimMachine::new(MachineConfig::paper_default(p))
    }

    /// Register the `p × p` exchange board used by the gather/all-gather
    /// collectives. Must be completed by a `sync()` before first use.
    fn register_board<T: Word>(ctx: &mut Ctx, name: &str) -> SharedArray<T> {
        let p = ctx.nprocs();
        ctx.register::<T>(name, p * p, Layout::Block)
    }

    /// Issue half of an all-gather: contribute `value` so that, after the
    /// next `sync()`, every processor can read all `p` contributions from
    /// its own row of `board`.
    fn all_gather_issue<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, value: T) {
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
    fn all_gather_read<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>) -> Vec<T> {
        let p = ctx.nprocs();
        let me = ctx.proc_id();
        ctx.local_read(board, me * p, p)
    }

    /// Issue half of a broadcast from `root`: only the root contributes.
    fn broadcast_issue<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize, value: T) {
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
    fn broadcast_read<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize) -> T {
        let p = ctx.nprocs();
        let me = ctx.proc_id();
        ctx.local_read(board, me * p + root, 1)[0]
    }

    /// Exclusive prefix over all-gathered `u64` contributions: the sum of
    /// the values contributed by processors `0..me`. Call after the
    /// `sync()` following [`all_gather_issue`].
    fn exclusive_prefix(ctx: &mut Ctx, board: &SharedArray<u64>) -> u64 {
        let me = ctx.proc_id();
        let row = all_gather_read(ctx, board);
        row[..me].iter().sum()
    }

    /// Read half of an all-reduce: fold every processor's contribution
    /// with `f`. Call after the `sync()` following [`all_gather_issue`];
    /// every processor obtains the same result (one phase, `p-1` remote
    /// words per processor — the QSM flat-tree reduction, optimal for
    /// `p ≤ sqrt(n)`).
    fn all_reduce_read<T: Word>(
        ctx: &mut Ctx,
        board: &SharedArray<T>,
        init: T,
        f: impl Fn(T, T) -> T,
    ) -> T {
        all_gather_read(ctx, board).into_iter().fold(init, f)
    }

    /// Issue half of a gather to `root`: contribute `value`; only the
    /// root will read it.
    fn gather_issue<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize, value: T) {
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
    fn gather_read<T: Word>(ctx: &mut Ctx, board: &SharedArray<T>, root: usize) -> Option<Vec<T>> {
        if ctx.proc_id() == root {
            Some(all_gather_read(ctx, board))
        } else {
            None
        }
    }

    #[test]
    fn gathered_blocks_are_their_concatenation() {
        // Covers n < p, n % p != 0 and empty parts. Odd processors fill
        // the part they are lent, even ones write their block: both
        // land at exactly `block_range`.
        for n in 0..40usize {
            for p in 1..9 {
                let blocks: Vec<Vec<u32>> =
                    (0..p).map(|i| block_range(n, p, i).map(|k| k as u32 + 1).collect()).collect();
                let mut out = vec![0u32; n];
                let gather = Gather::new(&mut out, p);
                // Any order: a worker's part is its own.
                for (i, block) in blocks.iter().enumerate().rev() {
                    if i % 2 == 1 {
                        gather.part(i).copy_from_slice(block);
                    } else {
                        gather.write(i, block);
                    }
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
        let lent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _part = gather.part(1);
            panic!("a worker panics while it holds its part");
        }));
        assert!(lent.is_err() && gather.0[1].is_poisoned());
        gather.write(0, &[1, 2]);
        gather.part(1).copy_from_slice(&[3, 4]);
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
