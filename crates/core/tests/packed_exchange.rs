//! Packed storage against a sequential model.
//!
//! Shared arrays are stored at their element width and moved as byte
//! ranges, so a 4-byte range may start in the middle of a storage word
//! and end in the middle of another, on another owner. Random
//! `put` / `get` / `local_mut` programs over every element type run on
//! both machines and must leave exactly what a plain `Vec<T>` holds
//! under the documented phase semantics: local writes first, gets
//! served from that state, then puts in processor-then-issue order.
//! Values are compared by bit pattern (NaN payloads, `-1i32`). The
//! same programs run over a `Hashed` array, which is stored in the same
//! blocks and only charged elsewhere (it has no local window, so its
//! scripts skip the local writes): a range is cut where storage is.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qsm_core::addr::block_range;
use qsm_core::{Layout, Machine, SimMachine, ThreadMachine, Word};
use qsm_simnet::MachineConfig;

/// A `Word` the test can build from, and reduce to, a bit pattern.
trait Elem: Word {
    fn from_bits(bits: u64) -> Self;
    fn bits(self) -> u64;
}

macro_rules! impl_elem {
    ($($t:ty => $from:expr, $to:expr;)*) => {$(
        impl Elem for $t {
            fn from_bits(bits: u64) -> Self { $from(bits) }
            fn bits(self) -> u64 { $to(self) }
        }
    )*};
}
impl_elem! {
    u32 => |b| b as u32, |v| v as u64;
    i32 => |b| b as u32 as i32, |v: i32| v as u32 as u64;
    u64 => |b| b, |v| v;
    i64 => |b| b as i64, |v: i64| v as u64;
    f64 => f64::from_bits, f64::to_bits;
}

/// A value that is often all ones (`-1`, a NaN with a full payload) or
/// some other NaN, and otherwise any bit pattern.
fn value<T: Elem>(rng: &mut SmallRng) -> T {
    T::from_bits(match rng.gen_range(0..4) {
        0 => u64::MAX,
        1 => rng.gen::<u64>() | 0x7ff0_0000_0000_0000,
        _ => rng.gen(),
    })
}

/// One processor's operations for one phase.
struct Script<T> {
    /// `(offset into the own window, data)`; the window is clipped to.
    local: Vec<(usize, Vec<T>)>,
    puts: Vec<(usize, Vec<T>)>,
    gets: Vec<(usize, usize)>,
}

/// Processor `proc`'s script for `phase`. Every processor draws the
/// same split `s`: puts land in `[0, s)` and gets read `[s, len)`, so
/// no location is both read and written in a phase. Ranges are up to
/// `len` long and start anywhere: most cross an owner boundary.
fn script<T: Elem>(seed: u64, phase: usize, proc: usize, len: usize) -> Script<T> {
    let mut shared = SmallRng::seed_from_u64(seed ^ (phase as u64) << 16);
    let s = shared.gen_range(1..len);
    let rng = &mut SmallRng::seed_from_u64(seed ^ (phase as u64) << 16 ^ (proc as u64 + 1) << 40);
    let data = |rng: &mut SmallRng, n: usize| (0..n).map(|_| value(rng)).collect::<Vec<T>>();
    let mut local = Vec::new();
    for _ in 0..rng.gen_range(0..3) {
        local.push((rng.gen_range(0..len), data(rng, 3)));
    }
    let mut puts = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        let start = rng.gen_range(0..s);
        let n = rng.gen_range(0..=s - start);
        puts.push((start, data(rng, n)));
    }
    let mut gets = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        let start = rng.gen_range(s..len);
        gets.push((start, rng.gen_range(0..=len - start)));
    }
    Script { local, puts, gets }
}

/// Where a scripted local write lands in a window of `window` elements.
fn clip<T>(window: usize, at: usize, data: &[T]) -> (usize, &[T]) {
    let at = at.min(window);
    (at, &data[..data.len().min(window - at)])
}

/// `(every get result in issue order, the final array)`, as bits.
type Outcome = (Vec<Vec<u64>>, Vec<u64>);

fn bits<T: Elem>(values: &[T]) -> Vec<u64> {
    values.iter().map(|v| v.bits()).collect()
}

fn model<T: Elem>(seed: u64, phases: usize, p: usize, len: usize, windows: bool) -> Vec<Outcome> {
    let mut mem = vec![T::default(); len];
    let mut got: Vec<Vec<Vec<u64>>> = vec![Vec::new(); p];
    for phase in 0..phases {
        let scripts: Vec<Script<T>> = (0..p).map(|i| script(seed, phase, i, len)).collect();
        for (proc, sc) in scripts.iter().enumerate().filter(|_| windows) {
            let mine = block_range(len, p, proc);
            for (at, data) in &sc.local {
                let (at, data) = clip(mine.len(), *at, data);
                mem[mine.start + at..][..data.len()].copy_from_slice(data);
            }
        }
        for (proc, sc) in scripts.iter().enumerate() {
            got[proc].extend(sc.gets.iter().map(|&(start, n)| bits(&mem[start..start + n])));
        }
        for sc in &scripts {
            for (start, data) in &sc.puts {
                mem[*start..][..data.len()].copy_from_slice(data);
            }
        }
    }
    got.into_iter().map(|g| (g, bits(&mem))).collect()
}

fn run<T: Elem, M: Machine>(
    machine: &M,
    seed: u64,
    phases: usize,
    len: usize,
    layout: Layout,
) -> Vec<Outcome> {
    let run = machine.run(|ctx| {
        let (p, me) = (ctx.nprocs(), ctx.proc_id());
        let arr = ctx.register::<T>("packed", len, layout);
        ctx.sync();
        let mut got = Vec::new();
        for phase in 0..phases {
            let sc = script::<T>(seed, phase, me, len);
            if layout == Layout::Block {
                let window = ctx.local_mut(&arr);
                for (at, data) in &sc.local {
                    let (at, data) = clip(window.len(), *at, data);
                    window[at..][..data.len()].copy_from_slice(data);
                }
            }
            for (start, data) in &sc.puts {
                ctx.put(&arr, *start, data);
            }
            let tickets: Vec<_> = sc.gets.iter().map(|&(s, n)| ctx.get(&arr, s, n)).collect();
            ctx.sync();
            for t in tickets {
                got.push(bits(&ctx.take(t)));
            }
        }
        // The whole array, through one get that spans every owner.
        let all = ctx.get(&arr, 0, len);
        ctx.sync();
        let all = ctx.take(all);
        if layout == Layout::Block {
            assert_eq!(bits(&all[block_range(len, p, me)]), bits(ctx.local(&arr)));
        }
        (got, bits(&all))
    });
    run.outputs
}

fn check<T: Elem>(seed: u64, phases: usize, p: usize, len: usize) -> Result<(), TestCaseError> {
    for layout in [Layout::Block, Layout::Hashed] {
        let want = model::<T>(seed, phases, p, len, layout == Layout::Block);
        let at = format!(
            "{}, {layout:?}, p = {p}, len = {len}, seed = {seed}",
            std::any::type_name::<T>()
        );
        let sim = SimMachine::new(MachineConfig::paper_default(p));
        prop_assert!(run::<T, _>(&sim, seed, phases, len, layout) == want, "sim: {at}");
        let threads = ThreadMachine::new(p);
        prop_assert!(run::<T, _>(&threads, seed, phases, len, layout) == want, "threads: {at}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_programs_match_a_flat_model(
        seed in any::<u64>(),
        p_idx in 0usize..4,
        len in 2usize..70,
        phases in 1usize..6,
    ) {
        let p = [1, 3, 4, 7][p_idx];
        check::<u32>(seed, phases, p, len)?;
        check::<i32>(seed, phases, p, len)?;
        check::<u64>(seed, phases, p, len)?;
        check::<i64>(seed, phases, p, len)?;
        check::<f64>(seed, phases, p, len)?;
    }
}

/// The values the old widened storage had to round-trip, placed so
/// that 4-byte ones straddle storage words and one put spans all three
/// owners (p = 3, n = 7: blocks of 3, 2, 2), block- and hash-charged.
#[test]
fn edge_values_cross_owners_bit_exact() {
    fn through<T: Elem>(values: [T; 5]) {
        for (machine_is_sim, layout) in [
            (true, Layout::Block),
            (false, Layout::Block),
            (true, Layout::Hashed),
            (false, Layout::Hashed),
        ] {
            let program = |ctx: &mut qsm_core::Ctx| {
                let arr = ctx.register::<T>("edge", 7, layout);
                ctx.sync();
                if ctx.proc_id() == 2 {
                    ctx.put(&arr, 1, &values);
                }
                ctx.sync();
                let t = ctx.get(&arr, 0, 7);
                ctx.sync();
                bits(&ctx.take(t))
            };
            let outputs = if machine_is_sim {
                SimMachine::new(MachineConfig::paper_default(3)).run(program).outputs
            } else {
                ThreadMachine::new(3).run(program).outputs
            };
            let mut want = vec![T::default().bits(); 7];
            want[1..6].copy_from_slice(&bits(&values));
            assert_eq!(outputs, vec![want; 3], "{}, {layout:?}", std::any::type_name::<T>());
        }
    }
    through([-1i32, i32::MIN, 0, i32::MAX, -2]);
    through([u32::MAX, 0, 1 << 31, 1, u32::MAX - 1]);
    through([-1i64, i64::MIN, 0, i64::MAX, -2]);
    through([u64::MAX, 0, 1 << 63, 1, 0xdead_beef_0bad_f00d]);
    let nan = f64::from_bits(0x7ff8_dead_beef_0001);
    through([nan, -0.0, f64::NEG_INFINITY, 1.5e300, f64::from_bits(0xfff0_0000_0000_0001)]);
}
