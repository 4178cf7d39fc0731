//! Global addressing and data layout.
//!
//! A shared array is a dense range of global indices `0..len`. A
//! [`Layout`] maps each index to its *cost owner* — the processor
//! whose memory module is charged for serving accesses to it:
//!
//! * [`Layout::Block`] — index `i` belongs to the processor holding
//!   the `i`-th slot of an even block partition. Local accesses to
//!   one's own block are free; this is the layout of the paper's
//!   algorithm inputs ("distributed uniformly across the processors").
//! * [`Layout::Hashed`] — index `i` belongs to
//!   `hash(array, i) mod p`. This is the QSM implementation
//!   contract's *randomized layout*: it destroys locality but spreads
//!   contention evenly across memory modules.
//!
//! Physical storage is always block-partitioned; the layout is a cost
//! attribute only (see DESIGN.md §2 for why this substitution is
//! behaviour-preserving).

/// Identifier of a registered shared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// How an array's indices map to cost owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Even contiguous blocks, one per processor.
    Block,
    /// Pseudo-random placement by multiplicative hashing.
    Hashed,
}

/// The even block partition of `len` elements over `p` processors (the
/// first `len mod p` blocks hold one element more), divided once and
/// kept with the array's metadata: bounds multiply, an owner divides once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockGeom {
    len: usize,
    /// Elements in each of the last `p - rem` blocks.
    base: usize,
    /// Leading blocks of `base + 1` elements.
    rem: usize,
    /// `rem * (base + 1)`: first index of the blocks of `base`.
    boundary: usize,
}

impl BlockGeom {
    pub(crate) fn new(len: usize, p: usize) -> Self {
        let (base, rem) = (len / p, len % p);
        Self { len, base, rem, boundary: rem * (base + 1) }
    }

    /// First global index of `proc`'s block; `len` for `proc == p`.
    pub(crate) fn start(&self, proc: usize) -> usize {
        proc * self.base + proc.min(self.rem)
    }

    /// The global index range of `proc`'s block.
    pub(crate) fn range(&self, proc: usize) -> std::ops::Range<usize> {
        self.start(proc)..self.start(proc + 1)
    }

    /// Which processor's block holds global index `idx`.
    pub(crate) fn owner(&self, idx: usize) -> usize {
        assert!(idx < self.len, "index {idx} out of bounds {}", self.len);
        if idx < self.boundary {
            idx / (self.base + 1)
        } else {
            // `base > 0` here: with `base == 0` the boundary is `len`.
            self.rem + (idx - self.boundary) / self.base
        }
    }

    /// Visit the maximal single-block runs of `start..start + len` in
    /// ascending order, as `(owner, run_start, run_len)` calls.
    pub(crate) fn for_each_run(
        &self,
        start: usize,
        len: usize,
        mut visit: impl FnMut(usize, usize, usize),
    ) {
        let end = start + len;
        assert!(end <= self.len, "range {start}+{len} exceeds array {}", self.len);
        let (mut owner, mut i) = (if len > 0 { self.owner(start) } else { 0 }, start);
        while i < end {
            let run_end = end.min(self.start(owner + 1));
            visit(owner, i, run_end - i);
            (owner, i) = (owner + 1, run_end);
        }
    }
}

/// Block partition: the global index range owned by `proc` in an
/// array of `len` elements across `p` processors. The first
/// `len mod p` processors receive one extra element.
pub fn block_range(len: usize, p: usize, proc: usize) -> std::ops::Range<usize> {
    assert!(proc < p);
    BlockGeom::new(len, p).range(proc)
}

/// Inverse of [`block_range`]: which processor's block contains
/// global index `idx`.
pub fn block_owner(len: usize, p: usize, idx: usize) -> usize {
    BlockGeom::new(len, p).owner(idx)
}

/// Deterministic 64-bit mix (splitmix64 finalizer) used for hashed
/// layout; good avalanche, trivially reproducible.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Cost owner of `idx` in array `id` under `layout`.
pub fn owner(layout: Layout, id: ArrayId, len: usize, p: usize, idx: usize) -> usize {
    match layout {
        Layout::Block => block_owner(len, p, idx),
        Layout::Hashed => (mix64((id.0 as u64) << 40 | idx as u64) % p as u64) as usize,
    }
}

/// Destination memory bank of `idx` in array `id` under `layout`,
/// for a machine with `banks` banks per node.
///
/// * [`Layout::Block`] interleaves consecutive global indices across
///   banks (`idx mod banks`), the classic word-interleaved layout —
///   a unit-stride scan of one owner's block cycles through all of
///   its banks, while a stride-`banks` scan hammers a single bank
///   (the Section 4 *Conflict* pattern).
/// * [`Layout::Hashed`] draws the bank from the high bits of the same
///   per-index hash that picks the owner, so bank placement is
///   pseudo-random but deterministic and uncorrelated with the
///   owner's low-bits draw.
pub fn bank_of(layout: Layout, id: ArrayId, banks: usize, idx: usize) -> usize {
    debug_assert!(banks >= 1);
    match layout {
        Layout::Block => idx % banks,
        Layout::Hashed => ((mix64((id.0 as u64) << 40 | idx as u64) >> 32) % banks as u64) as usize,
    }
}

/// Visit the per-bank element counts of the global range
/// `start..start+len` as `(bank, count)` calls, in deterministic
/// order. Block layouts need at most `min(banks, len)` visits
/// (arithmetic on the interleave); hashed layouts walk per element.
///
/// Like [`for_each_owner_run`] this is allocation-free: `put` / `get`
/// call it once per owner run they meter when a bank model is
/// enabled.
pub fn for_each_bank_run(
    layout: Layout,
    id: ArrayId,
    banks: usize,
    start: usize,
    len: usize,
    mut visit: impl FnMut(usize, usize),
) {
    match layout {
        Layout::Block => {
            // Offsets r, r+banks, r+2·banks, … of the range share
            // bank (start + r) mod banks.
            for r in 0..banks.min(len) {
                visit((start + r) % banks, (len - r).div_ceil(banks));
            }
        }
        Layout::Hashed => {
            for idx in start..start + len {
                visit(bank_of(layout, id, banks, idx), 1);
            }
        }
    }
}

/// Visit the maximal single-cost-owner runs of the global range
/// `start..start+len` in ascending index order, as
/// `(owner, run_start, run_len)` calls. Block layouts yield at most
/// `p` runs; hashed layouts typically yield per-element runs.
///
/// Allocation-free: `put` / `get` meter a `Hashed` array through it
/// once per queued operation. (Storage is bucketed through the array's
/// own `BlockGeom`, which the `Block` arm builds afresh.)
pub fn for_each_owner_run(
    layout: Layout,
    id: ArrayId,
    array_len: usize,
    p: usize,
    start: usize,
    len: usize,
    mut visit: impl FnMut(usize, usize, usize),
) {
    match layout {
        Layout::Block => BlockGeom::new(array_len, p).for_each_run(start, len, visit),
        Layout::Hashed => {
            // One hash an element: the owner that ends a run starts the
            // next (`usize::MAX` ends the last).
            assert!(start + len <= array_len, "range {start}+{len} exceeds array {array_len}");
            let owner_at = |i| owner(layout, id, array_len, p, i);
            let end = start + len;
            let (mut run_start, mut run_owner) = (start, owner_at(start));
            for i in start + 1..=end {
                let o = if i < end { owner_at(i) } else { usize::MAX };
                if o != run_owner {
                    visit(run_owner, run_start, i - run_start);
                    (run_start, run_owner) = (i, o);
                }
            }
        }
    }
}

/// [`for_each_owner_run`] collected into a `Vec`.
#[cfg(test)]
fn split_by_owner(
    layout: Layout,
    id: ArrayId,
    array_len: usize,
    p: usize,
    start: usize,
    len: usize,
) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    for_each_owner_run(layout, id, array_len, p, start, len, |o, s, l| runs.push((o, s, l)));
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_tile_the_array() {
        for (len, p) in [(16, 4), (17, 4), (3, 8), (100, 7), (0, 3), (1, 1)] {
            let mut covered = 0;
            for proc in 0..p {
                let r = block_range(len, p, proc);
                assert_eq!(r.start, covered, "gap before proc {proc} (len={len}, p={p})");
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn remainder_goes_to_leading_procs() {
        assert_eq!(block_range(10, 4, 0), 0..3);
        assert_eq!(block_range(10, 4, 1), 3..6);
        assert_eq!(block_range(10, 4, 2), 6..8);
        assert_eq!(block_range(10, 4, 3), 8..10);
    }

    #[test]
    fn block_owner_inverts_block_range() {
        for (len, p) in [(16usize, 4usize), (17, 4), (100, 7), (5, 8), (1, 1)] {
            for idx in 0..len {
                let o = block_owner(len, p, idx);
                assert!(block_range(len, p, o).contains(&idx), "len={len} p={p} idx={idx}");
            }
        }
    }

    #[test]
    fn hashed_owner_is_deterministic_and_spread() {
        let id = ArrayId(3);
        let p = 8;
        let len = 8000;
        let mut counts = vec![0usize; p];
        for idx in 0..len {
            let a = owner(Layout::Hashed, id, len, p, idx);
            let b = owner(Layout::Hashed, id, len, p, idx);
            assert_eq!(a, b);
            counts[a] += 1;
        }
        let expect = len / p;
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (*c as f64) > 0.8 * expect as f64 && (*c as f64) < 1.2 * expect as f64,
                "owner {i} got {c} of ~{expect}"
            );
        }
    }

    #[test]
    fn different_arrays_hash_differently() {
        let p = 16;
        let same = (0..1000)
            .filter(|&i| {
                owner(Layout::Hashed, ArrayId(0), 1000, p, i)
                    == owner(Layout::Hashed, ArrayId(1), 1000, p, i)
            })
            .count();
        // Two independent placements agree ~1/p of the time.
        assert!(same < 200, "placements too correlated: {same}/1000");
    }

    #[test]
    fn split_block_produces_contiguous_owner_runs() {
        let runs = split_by_owner(Layout::Block, ArrayId(0), 100, 7, 10, 50);
        let total: usize = runs.iter().map(|r| r.2).sum();
        assert_eq!(total, 50);
        assert!(runs.len() <= 7);
        let mut pos = 10;
        for (o, s, l) in &runs {
            assert_eq!(*s, pos);
            for i in *s..*s + *l {
                assert_eq!(block_owner(100, 7, i), *o);
            }
            pos += l;
        }
    }

    #[test]
    fn split_hashed_covers_range_exactly() {
        let runs = split_by_owner(Layout::Hashed, ArrayId(9), 64, 4, 5, 20);
        let total: usize = runs.iter().map(|r| r.2).sum();
        assert_eq!(total, 20);
        let mut pos = 5;
        for (o, s, l) in &runs {
            assert_eq!(*s, pos);
            for i in *s..*s + *l {
                assert_eq!(owner(Layout::Hashed, ArrayId(9), 64, 4, i), *o);
            }
            pos += l;
        }
    }

    #[test]
    fn empty_split_is_empty() {
        assert!(split_by_owner(Layout::Block, ArrayId(0), 10, 2, 4, 0).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_split_rejected() {
        let _ = split_by_owner(Layout::Block, ArrayId(0), 10, 2, 8, 5);
    }

    #[test]
    fn block_banks_interleave() {
        for idx in 0..64 {
            assert_eq!(bank_of(Layout::Block, ArrayId(0), 8, idx), idx % 8);
        }
    }

    #[test]
    fn bank_runs_count_every_element() {
        for (layout, banks, start, len) in [
            (Layout::Block, 8, 3, 100),
            (Layout::Block, 16, 0, 5),
            (Layout::Hashed, 8, 7, 64),
            (Layout::Block, 4, 2, 0),
        ] {
            let mut counts = vec![0usize; banks];
            for_each_bank_run(layout, ArrayId(5), banks, start, len, |b, c| counts[b] += c);
            let mut expect = vec![0usize; banks];
            for idx in start..start + len {
                expect[bank_of(layout, ArrayId(5), banks, idx)] += 1;
            }
            assert_eq!(counts, expect, "{layout:?} banks={banks} start={start} len={len}");
        }
    }

    #[test]
    fn hashed_banks_uncorrelated_with_owner() {
        // A single owner's hashed indices should still spread across
        // banks (the two draws use different hash bits).
        let id = ArrayId(2);
        let (p, banks, len) = (8, 8, 8000);
        let mut counts = vec![0usize; banks];
        let mut n = 0;
        for idx in 0..len {
            if owner(Layout::Hashed, id, len, p, idx) == 0 {
                counts[bank_of(Layout::Hashed, id, banks, idx)] += 1;
                n += 1;
            }
        }
        let expect = n / banks;
        for (b, c) in counts.iter().enumerate() {
            assert!(
                (*c as f64) > 0.5 * expect as f64 && (*c as f64) < 1.5 * expect as f64,
                "bank {b} got {c} of ~{expect}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The partition dealt out element by element, with no arithmetic
    /// shared with [`BlockGeom`]: the owner of every index, in order.
    fn owners_dealt_one_by_one(len: usize, p: usize) -> Vec<usize> {
        let mut sizes = vec![0usize; p];
        (0..len).for_each(|i| sizes[i % p] += 1);
        sizes.iter().enumerate().flat_map(|(proc, &n)| std::iter::repeat_n(proc, n)).collect()
    }

    proptest! {
        /// `BlockGeom` against the per-element reference at the edges
        /// the divided forms special-cased: `len < p`, `len == 0`,
        /// `p == 1`, a run ending on a block boundary, the last block.
        #[test]
        fn block_geom_matches_the_per_element_partition(
            len in 0usize..200,
            p in 1usize..20,
            a in 0usize..200,
            b in 0usize..200,
        ) {
            let geom = BlockGeom::new(len, p);
            let owners = owners_dealt_one_by_one(len, p);
            for (idx, &o) in owners.iter().enumerate() {
                prop_assert_eq!(geom.owner(idx), o, "owner of {}", idx);
                prop_assert_eq!(block_owner(len, p, idx), o);
            }
            for proc in 0..p {
                let want: Vec<usize> = (0..len).filter(|&i| owners[i] == proc).collect();
                let range = geom.range(proc);
                prop_assert_eq!(range.clone().collect::<Vec<_>>(), want, "block of {}", proc);
                prop_assert_eq!(geom.start(proc), range.start);
                prop_assert_eq!(block_range(len, p, proc), range);
            }
            prop_assert_eq!(geom.start(p), len);
            // Any run, and the ones that end exactly where a block does.
            let start = a % (len + 1);
            let mut ends = vec![start + b % (len - start + 1)];
            if let Some(&o) = owners.get(start) {
                ends.extend([geom.start(o + 1), geom.start((o + 2).min(p)), len]);
            }
            for end in ends {
                let mut want: Vec<(usize, usize, usize)> = Vec::new();
                for (i, &o) in owners.iter().enumerate().take(end).skip(start) {
                    match want.last_mut() {
                        Some(run) if run.0 == o => run.2 += 1,
                        _ => want.push((o, i, 1)),
                    }
                }
                let mut got = Vec::new();
                geom.for_each_run(start, end - start, |o, s, l| got.push((o, s, l)));
                prop_assert_eq!(got, want, "runs of {}..{}", start, end);
            }
        }

        #[test]
        fn block_owner_total(len in 1usize..10_000, p in 1usize..64, seed in 0usize..10_000) {
            let idx = seed % len;
            let o = block_owner(len, p, idx);
            prop_assert!(o < p);
            prop_assert!(block_range(len, p, o).contains(&idx));
        }

        /// `block_owner` is the exact inverse of `block_range`:
        /// every index of every processor's range maps back to that
        /// processor, and every index's owner range contains it. The
        /// generator forces `len % p != 0` so the uneven split (first
        /// `len mod p` processors one element larger) and both sides
        /// of the remainder boundary are always exercised.
        #[test]
        fn block_owner_inverts_block_range_with_remainder(
            len in 2usize..10_000,
            praw in 2usize..64,
        ) {
            let p = praw.min(len);
            // Force an uneven split (p >= 2, so len+1 never divides).
            let len = if len % p == 0 { len + 1 } else { len };
            let rem = len % p;
            let boundary = rem * (len / p + 1);
            // Exact inverse in both directions across the remainder
            // boundary and the array's edges.
            for idx in [0, boundary - 1, boundary, (boundary + 1).min(len - 1), len - 1] {
                let o = block_owner(len, p, idx);
                prop_assert!(block_range(len, p, o).contains(&idx));
            }
            for proc in 0..p {
                let r = block_range(len, p, proc);
                prop_assert_eq!(r.len(), len / p + usize::from(proc < rem));
                for idx in [r.start, r.start + r.len() / 2, r.end - 1] {
                    prop_assert_eq!(block_owner(len, p, idx), proc,
                        "len={} p={} idx={}", len, p, idx);
                }
            }
        }

        /// `Layout::Hashed` spreads any contiguous index range across
        /// owners within a pinned imbalance bound: no owner receives
        /// more than twice its fair share plus a small-sample
        /// allowance.
        #[test]
        fn hashed_layout_spreads_contiguous_ranges(
            id in 0u32..1000,
            p in 2usize..32,
            start in 0usize..100_000,
            len in 256usize..4096,
        ) {
            let array_len = start + len;
            let mut counts = vec![0usize; p];
            for idx in start..start + len {
                counts[owner(Layout::Hashed, ArrayId(id), array_len, p, idx)] += 1;
            }
            let fair = len as f64 / p as f64;
            let bound = 2.0 * fair + 8.0;
            for (o, c) in counts.iter().enumerate() {
                prop_assert!((*c as f64) <= bound,
                    "owner {} got {} of fair {:.1} (bound {:.1})", o, c, fair, bound);
            }
        }

        /// Every layout's runs are the naive element-by-element grouping.
        #[test]
        fn owner_runs_match_a_per_element_walk(
            len in 1usize..600,
            p in 1usize..20,
            a in 0usize..600,
            b in 0usize..600,
            hashed in proptest::bool::ANY,
        ) {
            let start = a % len;
            let l = b % (len - start + 1);
            let layout = if hashed { Layout::Hashed } else { Layout::Block };
            let mut want: Vec<(usize, usize, usize)> = Vec::new();
            for i in start..start + l {
                let o = owner(layout, ArrayId(7), len, p, i);
                match want.last_mut() {
                    Some(run) if run.0 == o => run.2 += 1,
                    _ => want.push((o, i, 1)),
                }
            }
            prop_assert_eq!(split_by_owner(layout, ArrayId(7), len, p, start, l), want);
        }

        #[test]
        fn splits_partition_any_range(
            len in 1usize..5_000,
            p in 1usize..32,
            a in 0usize..5_000,
            b in 0usize..5_000,
            hashed in proptest::bool::ANY,
        ) {
            let start = a % len;
            let l = b % (len - start + 1);
            let layout = if hashed { Layout::Hashed } else { Layout::Block };
            let runs = split_by_owner(layout, ArrayId(7), len, p, start, l);
            let total: usize = runs.iter().map(|r| r.2).sum();
            prop_assert_eq!(total, l);
            let mut pos = start;
            for (o, s, rl) in runs {
                prop_assert_eq!(s, pos);
                prop_assert!(o < p);
                prop_assert!(rl > 0);
                pos += rl;
            }
        }
    }
}
