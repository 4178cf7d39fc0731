//! Collectives, and the access rule every kernel shares. The paper's
//! algorithms hand-roll their communication to keep phase counts
//! explicit, so what is shared is the rule that prices one access and
//! the last step of every kernel. `Fetch` (a read of one element),
//! `fetch_into` (a read of a range) and `store` (a write) touch the
//! data in place, free, when the caller's block holds it, and otherwise
//! issue a `get` or a `put`, whose words the runtime meters.
//! `Gather` takes a block-distributed result out of the machine.
//! The tests keep board-based all-gather, broadcast, gather and reduce
//! helpers that exercise the same issue-then-`sync()`-then-read idiom.
//!
//! Returning each block through `RunResult::outputs` and concatenating
//! them on the calling thread would copy the result twice, keep a
//! second `n` elements live, and leave the first touch of the fresh
//! output to one thread: at n = 2²³ the 64 MiB vector is 16 385 page
//! faults taken one at a time while every worker is parked, 45 of a
//! `prefix` run's 58 ms on a two-core host. So `run_on` allocates the
//! output with [`qsm_core::zeroed_output`] (from 32 MiB up a fresh
//! mapping nothing has touched, advised onto 2 MiB pages, so the
//! 64 MiB take 544 faults instead of 16 385), `Gather` splits it into
//! `p` disjoint parts, each behind its own `Mutex` so that `&Gather` is
//! `Sync` in safe code, and a program's last act is one
//! `copy_from_slice` per worker under a lock nobody else takes
//! (`prefix` scans straight into its part). From 32 MiB up the faults
//! run on every core; a smaller output may be a reused heap chunk
//! that `calloc` zeroes on the calling thread first, as `samplesort`'s
//! 16 MiB one at the benchmark's size is (0–119 of its 4 096 pages
//! fault a run). The run's outcome carries only statistics
//! (`tests/result_memory.rs` bounds the peak heap of a run, and what
//! outlives it). `histogram` returns a few KiB of computed pieces and
//! keeps `outputs.concat()`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use qsm_core::addr::block_range;
use qsm_core::{Ctx, GetTicket, SharedArray, Word};

/// One element of a shared array on its way to the reader: read in
/// place when the reader's block holds it, else a get in flight.
pub(crate) enum Fetch<T: Word> {
    Local(T),
    Remote(GetTicket<T>),
}

impl<T: Word> Fetch<T> {
    /// Element `idx` of `arr`: read now when this processor owns it,
    /// else requested with a one-element `get` (served by the next
    /// `sync()`).
    pub(crate) fn of(ctx: &mut Ctx, arr: &SharedArray<T>, idx: usize) -> Self {
        match in_block(ctx, arr, idx, 1) {
            Some(at) => Self::Local(ctx.local(arr)[at]),
            None => Self::Remote(ctx.get(arr, idx, 1)),
        }
    }

    /// The element, redeeming a get's ticket through `scratch` (which
    /// keeps its allocation from one ticket to the next).
    pub(crate) fn value(self, ctx: &mut Ctx, scratch: &mut Vec<T>) -> T {
        match self {
            Self::Local(v) => v,
            Self::Remote(ticket) => {
                scratch.clear();
                ctx.take_into(ticket, scratch);
                scratch[0]
            }
        }
    }
}

/// Where `start..start + len` of `arr` begins in this processor's
/// block, when the block holds the whole range.
fn in_block<T: Word>(ctx: &Ctx, arr: &SharedArray<T>, start: usize, len: usize) -> Option<usize> {
    let mine = ctx.local_range(arr);
    (mine.start <= start && start + len <= mine.end).then(|| start - mine.start)
}

/// Read `start..start + len` of `arr`: appended to `out` now when this
/// processor's block holds the whole range, else requested with a
/// `get` (which splits at the owners' boundaries) whose ticket the next
/// `sync()` serves.
pub(crate) fn fetch_into<T: Word>(
    ctx: &mut Ctx,
    arr: &SharedArray<T>,
    start: usize,
    len: usize,
    out: &mut Vec<T>,
) -> Option<GetTicket<T>> {
    match in_block(ctx, arr, start, len) {
        Some(at) => {
            out.extend_from_slice(&ctx.local(arr)[at..][..len]);
            None
        }
        None => Some(ctx.get(arr, start, len)),
    }
}

/// Store `data` at `start..start + data.len()` of `arr`: a local write
/// when this processor's block holds the whole range, else a `put`
/// (which splits at the owners' boundaries).
pub(crate) fn store<T: Word>(ctx: &mut Ctx, arr: &SharedArray<T>, start: usize, data: &[T]) {
    if in_block(ctx, arr, start, data.len()).is_some() {
        ctx.local_write(arr, start, data);
    } else {
        ctx.put(arr, start, data);
    }
}

/// A block-distributed result on its way out of the machine: the
/// caller's output vector, split at `block_range`. Each worker fills
/// its own part (`write` after its last `sync()`, or computes in it), so
/// the first touch of an untouched output's pages runs on every core,
/// and no per-block `Vec` exists in between.
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
    use qsm_core::{Layout, Machine, SimMachine, ThreadMachine};
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
            store(ctx, board, j * p + me, &[value]);
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
            store(ctx, board, j * p + root, &[value]);
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
        store(ctx, board, root * p + me, &[value]);
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

    /// Processor 0 runs `access`, everyone syncs: one phase, whose
    /// metered words are `access`'s alone.
    fn on_0<R>(ctx: &mut Ctx, access: impl FnOnce(&mut Ctx) -> R) -> Option<R> {
        let r = (ctx.proc_id() == 0).then(|| access(ctx));
        ctx.sync();
        r
    }

    /// On p = 3 over 10 elements (blocks 0..4, 4..7, 7..10), processor
    /// 0 stores and reads at its last element and at the next block's
    /// first, and sends one range across the 4 | 7 boundary, one
    /// access a phase; after the syncs every value is where it was
    /// stored.
    fn access_rule_on<M: Machine>(machine: &M) {
        let run = machine.run(|ctx| {
            let a32 = ctx.register::<u32>("a32", 10, Layout::Block);
            let a64 = ctx.register::<u64>("a64", 10, Layout::Block);
            let af = ctx.register::<f64>("af", 10, Layout::Block);
            ctx.sync();
            on_0(ctx, |ctx| store(ctx, &a32, 3, &[30]));
            on_0(ctx, |ctx| store(ctx, &a32, 4, &[40]));
            on_0(ctx, |ctx| store(ctx, &a64, 3, &[300]));
            on_0(ctx, |ctx| store(ctx, &a64, 4, &[400]));
            on_0(ctx, |ctx| store(ctx, &a64, 6, &[600, 700]));
            on_0(ctx, |ctx| store(ctx, &af, 0, &[0.5; 4]));
            on_0(ctx, |ctx| store(ctx, &af, 4, &[4.5]));
            let (mut got32, mut got64, mut scratch32, mut scratch64) =
                (vec![], vec![], vec![], vec![]);
            for idx in [3, 4] {
                let read = on_0(ctx, |ctx| Fetch::of(ctx, &a32, idx));
                got32.extend(read.map(|f| f.value(ctx, &mut scratch32)));
            }
            for idx in [3, 4] {
                let read = on_0(ctx, |ctx| Fetch::of(ctx, &a64, idx));
                got64.extend(read.map(|f| f.value(ctx, &mut scratch64)));
            }
            let mine = ctx.local_range(&a64);
            (got32, got64, mine.start, ctx.local_vec(&a64), ctx.local_vec(&af))
        });
        // Each access's words, read off its phase's meter: local at 3
        // and remote at 4; a u32 is one word, a u64 or an f64 two;
        // 6..8 straddles blocks 1 and 2 and goes out as a put.
        let words: Vec<_> =
            run.phases[1..12].iter().map(|r| (r.profile.m_put, r.profile.m_get)).collect();
        let puts = [(0, 0), (1, 0), (0, 0), (2, 0), (4, 0), (0, 0), (2, 0)];
        assert_eq!(words[..7], puts);
        assert_eq!(words[7..], [(0, 0), (0, 1), (0, 0), (0, 2)]);
        let (got32, got64, ..) = &run.outputs[0];
        assert_eq!(*got32, [30, 40]);
        assert_eq!(*got64, [300, 400]);
        let mut a64 = vec![0; 10];
        let mut af = vec![0.0; 10];
        for (_, _, start, w64, wf) in &run.outputs {
            a64[*start..][..w64.len()].copy_from_slice(w64);
            af[*start..][..wf.len()].copy_from_slice(wf);
        }
        assert_eq!(a64, [0, 0, 0, 300, 400, 0, 600, 700, 0, 0]);
        assert_eq!(af, [0.5, 0.5, 0.5, 0.5, 4.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn the_access_rule_goes_remote_exactly_past_the_block() {
        access_rule_on(&machine(3));
        access_rule_on(&ThreadMachine::new(3));
    }

    /// On p = 3 over 10 elements (blocks 0..4, 4..7, 7..10), a range
    /// read inside the caller's block extends the bucket at once; one
    /// that crosses a boundary or lies past it is a get, served by the
    /// next sync.
    #[test]
    fn a_range_read_is_local_exactly_inside_the_block() {
        let run = machine(3).run(|ctx| {
            let a = ctx.register::<u32>("a", 10, Layout::Block);
            ctx.sync();
            let mine = ctx.local_range(&a);
            let values: Vec<u32> = mine.clone().map(|i| 10 * i as u32).collect();
            ctx.local_write(&a, mine.start, &values);
            ctx.sync();
            let mut bucket = vec![];
            let tickets: Vec<_> = if ctx.proc_id() == 0 {
                [(1, 3), (0, 0), (3, 2), (4, 3)]
                    .into_iter()
                    .filter_map(|(start, len)| fetch_into(ctx, &a, start, len, &mut bucket))
                    .collect()
            } else {
                vec![]
            };
            let (local, remote) = (bucket.clone(), tickets.len());
            ctx.sync();
            tickets.into_iter().for_each(|t| ctx.take_into(t, &mut bucket));
            (local, remote, bucket)
        });
        let (local, remote, bucket) = &run.outputs[0];
        assert_eq!((local.as_slice(), *remote), ([10, 20, 30].as_slice(), 2));
        assert_eq!(*bucket, [10, 20, 30, 30, 40, 40, 50, 60]);
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
