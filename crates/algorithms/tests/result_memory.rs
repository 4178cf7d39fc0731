//! A kernel's result is held once: the shared-array segments the
//! program computed it in and the caller's output vector, never a
//! per-processor copy in between (`collectives::Gather`), and nothing
//! of the run stays behind on the workers.
//!
//! An integration test so that it owns its process: the counting
//! allocator below is process-global. The tests take `SERIAL` so that
//! they do not count each other's bytes.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

use qsm_algorithms::{gen, prefix, samplesort, seq};
use qsm_core::SimMachine;
use qsm_simnet::MachineConfig;

/// Forwards to the system allocator, keeping live bytes and their peak.
struct Counting;

// Relaxed: both are statistics and publish no other data.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn grow(by: i64) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const P: usize = 16;
const N: usize = 1 << 20;
const MIB: i64 = 1 << 20;

fn machine() -> SimMachine {
    SimMachine::new(MachineConfig::paper_default(P))
}

/// Beyond the bytes live when `run` starts: the most live at once
/// during it, and those still live when it has returned; its result.
fn heap_of<R>(run: impl FnOnce() -> R) -> (i64, i64, R) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let result = run();
    let left = LIVE_BYTES.load(Ordering::Relaxed) - before;
    (PEAK_BYTES.load(Ordering::Relaxed) - before, left, result)
}

/// Phase records, the per-processor outcomes, the harness's own.
const SLACK: i64 = 64 << 10;

#[test]
fn a_prefix_run_holds_its_segments_and_its_output() {
    let _serial = serial();
    let m = machine();
    let input = gen::random_u64s(N, 5);
    let want = seq::prefix_sums(&input);
    // The pool's workers and their first-use buffers, once.
    drop(prefix::run_on(&m, &input[..P]));

    let (peak, left, run) = heap_of(|| prefix::run_on(&m, &input));
    assert_eq!(run.output, want);
    // `prefix.data`, and the vector it is gathered into.
    let (segments, output) = (8 * N as i64, 8 * N as i64);
    assert!(
        peak <= segments + output + MIB,
        "a prefix run over {N} elements peaked at {peak} live bytes: more than its segments \
         ({segments}), its output ({output}) and 1 MiB"
    );
    assert!(
        left <= output + SLACK,
        "{left} bytes outlive the run, more than its {output} of output"
    );
}

#[test]
fn a_samplesort_run_holds_its_segments_its_buckets_and_its_output() {
    let _serial = serial();
    let m = machine();
    let input = gen::random_u32s(N, 6);
    let want = seq::sorted(&input);
    drop(samplesort::run_on(&m, &input[..P]));

    let (peak, left, run) = heap_of(|| samplesort::run_on(&m, &input));
    assert_eq!(run.output, want);
    // `ssort.data` and `ssort.staged`; then, over all workers, the
    // fetched runs in their result arenas, the buckets they were taken
    // into, and one more bucket each for the sort's scratch or, after
    // it, the queued put.
    let (segments, buckets, output) = (2 * 4 * N as i64, 3 * 4 * N as i64, 4 * N as i64);
    assert!(
        peak <= segments + buckets + output + MIB,
        "a sample sort of {N} keys peaked at {peak} live bytes: more than its segments \
         ({segments}), its buckets ({buckets}), its output ({output}) and 1 MiB"
    );
    assert!(
        left <= output + SLACK,
        "{left} bytes outlive the run, more than its {output} of output"
    );
}
