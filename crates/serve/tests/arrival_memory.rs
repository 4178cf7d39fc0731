//! What the arrival stream costs the heap. Ordering `N` offered
//! transactions peaks at 8 bytes each, a bucket count and a stream
//! slot, and keeps the stream's 4; once the counts are freed, a run
//! holds nothing else of that size. (Packed `u128` keys held 16 bytes
//! each for the whole run.)
//!
//! An integration test so that it owns its process: the counting
//! allocator below is process-global. The tests take `SERIAL` so that
//! they do not count each other's bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

use qsm_obs::Recorder;
use qsm_serve::{arrival, predict, ServiceConfig};
use qsm_simnet::{BankModel, MachineConfig};

/// Forwards to the system allocator, keeping live bytes and their
/// peak, and their peak after a marked free (see `MARK_AT`).
struct Counting;

// Relaxed: all are statistics and publish no other data.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
/// When positive, the first free of at least this many bytes is the
/// mark: it zeroes this and starts `PEAK_AFTER` and `ALLOCS_AFTER`.
static MARK_AT: AtomicI64 = AtomicI64::new(0);
static MARKED: AtomicBool = AtomicBool::new(false);
static PEAK_AFTER: AtomicI64 = AtomicI64::new(0);
static ALLOCS_AFTER: AtomicI64 = AtomicI64::new(0);

fn grow(by: i64) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    if MARKED.load(Ordering::Relaxed) {
        PEAK_AFTER.fetch_max(live, Ordering::Relaxed);
        ALLOCS_AFTER.fetch_add(1, Ordering::Relaxed);
    }
}

fn shrink(by: i64) {
    let live = LIVE_BYTES.fetch_sub(by, Ordering::Relaxed) - by;
    let mark = MARK_AT.load(Ordering::Relaxed);
    if mark > 0 && by >= mark && MARK_AT.swap(0, Ordering::Relaxed) > 0 {
        PEAK_AFTER.store(live, Ordering::Relaxed);
        ALLOCS_AFTER.store(0, Ordering::Relaxed);
        MARKED.store(true, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as i64);
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

/// Beyond the bytes live when `run` starts: the most live at once
/// during it, and those still live when it has returned; its result.
fn heap_of<R>(run: impl FnOnce() -> R) -> (i64, i64, R) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let result = run();
    let left = LIVE_BYTES.load(Ordering::Relaxed) - before;
    (PEAK_BYTES.load(Ordering::Relaxed) - before, left, result)
}

/// The harness's own, and a run's network, histogram and in-flight
/// sends at low load.
const SLACK: i64 = 64 << 10;

/// `serve_reads`' scenario at p = 16 (7/8 gets), over a 2²⁶-cycle
/// window.
fn reads(offered: usize) -> ServiceConfig {
    let banks = BankModel { banks_per_node: 4, service_fixed: 0.0, service_per_byte: 12.0 };
    let machine = MachineConfig::paper_default(16).with_banks(banks);
    ServiceConfig::new(machine).with_window((1u64 << 26) as f64).with_offered(offered)
}

#[test]
fn ordering_peaks_at_eight_bytes_a_transaction_and_keeps_four() {
    let _serial = serial();
    for n in [1usize, 1_000, 200_000] {
        let (peak, left, order) = heap_of(|| arrival::order(&reads(n)));
        assert_eq!(order.len(), n);
        let n = n as i64;
        assert!(peak <= 8 * n + SLACK, "ordering {n} arrivals peaked at {peak} live bytes");
        assert!(left <= 4 * n + SLACK, "the stream of {n} arrivals keeps {left} bytes");
    }
}

#[test]
fn a_low_load_run_peaks_at_its_ordering_and_then_holds_four_bytes() {
    let _serial = serial();
    const N: usize = 100_000;
    let cfg = reads(N);
    let load = N as f64 / (predict(&cfg).capacity * cfg.window);
    assert!(load < 0.25, "a light load: {load}");
    let n = N as i64;
    // The ordering's bucket counts, a `u32` a transaction, are the
    // first block of that size the run frees.
    MARK_AT.store(4 * n, Ordering::Relaxed);
    MARKED.store(false, Ordering::Relaxed);
    let (peak, left, out) = heap_of(|| qsm_serve::run(&cfg, &Recorder::disabled()));
    MARK_AT.store(0, Ordering::Relaxed);
    let marked = MARKED.swap(false, Ordering::Relaxed);
    let before = LIVE_BYTES.load(Ordering::Relaxed) - left;
    let after = PEAK_AFTER.load(Ordering::Relaxed) - before;
    assert_eq!(out.completed, N as u64);
    assert!(
        peak <= 8 * n + SLACK,
        "a run offered {N} transactions at {:.0} % load peaked at {peak} live bytes: more than \
         ordering its arrivals ({}) and {SLACK}",
        load * 100.0,
        8 * n
    );
    // The run's network, histogram and sends are allocated after the
    // counts are freed, not with them at the end.
    assert!(
        marked && ALLOCS_AFTER.load(Ordering::Relaxed) > 0,
        "the ordering's counts are freed before the run allocates"
    );
    assert!(
        after <= 4 * n + SLACK,
        "after ordering, a run offered {N} transactions held {after} live bytes: more than its \
         stream ({}) and {SLACK}",
        4 * n
    );
    assert!(left <= SLACK, "{left} bytes outlive the run");
}
