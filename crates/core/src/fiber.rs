//! Processors as fibers: a stack per hosted processor and a user-space
//! switch between them, so that a run's `p` processors ride on `k ≤ p`
//! **carrier** threads (`crate::engine`). A carrier that hosts one
//! processor calls its job on its own stack and nothing here runs; one
//! that hosts more resumes the unfinished ones round-robin, and a
//! processor that waits for a carrier-mate ([`pause`], from the barrier
//! in `crate::spmd`) switches back to the carrier's loop: some twenty
//! nanoseconds, no system call. A fiber is pinned to its carrier, so
//! what a program keeps across `sync()` need not be `Send`.
//!
//! Stacks are 1 MiB `MAP_NORESERVE` mappings above a `PROT_NONE` guard
//! page, kept per thread between runs: a warm run maps, and allocates,
//! nothing. **A
//! fiber that recurses past its stack dies on the guard page by
//! `SIGSEGV`**, and the process with it, without a thread's "has
//! overflowed its stack" banner: the standard library's handler knows
//! thread stacks only, and returns into the fault.
//!
//! Only x86-64 Linux has the switch: elsewhere, and under Miri,
//! [`HOSTS`] is `false` and the engine takes `k = p`.
//!
//! The same C library calls serve one more host-memory need: a kernel's
//! fresh output is advised onto 2 MiB pages ([`zeroed_output`]), on the
//! same targets, and elsewhere left as allocated.
//!
//! Hosting is static: a fiber never changes thread, so thread-locals
//! keep their meaning, and there is no stealing and no run queue. The
//! price is that a processor must not block on anything but `sync()`:
//! a spin on a flag that a carrier-mate sets never ends. What it buys:
//! on two cores a simulated p = 16 exchange phase took 45–86
//! involuntary context switches with a thread a processor, and none
//! hosted (`examples/phase_cost.rs`); p = 1024 finishes in seconds
//! (`crates/algorithms/tests/large_p.rs`) where 1025 threads did not.

use std::ops::Range;

/// Whether a thread of this target can host more than one processor.
pub(crate) const HOSTS: bool = cfg!(all(target_arch = "x86_64", target_os = "linux", not(miri)));

/// Run `job(proc)` for every `proc` in `procs` on the calling thread
/// and return once all returned: one as a plain call, several each on
/// a stack of its own, resumed in turn whenever the one before
/// [`pause`]s or returns. A job that panics aborts the process (the
/// engine's jobs catch their program's panics themselves).
pub(crate) fn host(procs: Range<usize>, job: &(dyn Fn(usize) + Sync)) {
    if procs.len() == 1 {
        job(procs.start);
    } else {
        imp::host(procs, job);
    }
}

/// From a job that [`host`] runs on a stack of its own: let the
/// carrier's other jobs run, and return when it is this one's turn
/// again. Panics anywhere else.
pub(crate) use imp::pause;

/// The smallest output [`zeroed_output`] advises, in bytes: glibc's
/// largest mmap threshold. From it up, every allocation is a mapping of
/// its own, fresh, and unmapped whole when freed, so the advice leaves
/// with the buffer. Below it a buffer may be a reused heap chunk that
/// `calloc` has already zeroed, so touched: the advice would save no
/// fault, and would stay on heap pages that later allocations reuse,
/// where one touched word can make 2 MiB resident.
pub(crate) const HUGE_OUTPUT_MIN: usize = 32 << 20;

/// A kernel's result buffer: `n` zeros from the allocator's zeroed
/// memory (`vec![0; n]`), which the workers fill (`qsm-algorithms`'
/// `Gather`). From 32 MiB (`HUGE_OUTPUT_MIN`) up that is a fresh
/// mapping nothing has touched, so the workers fault it in, and the
/// whole 2 MiB pages inside it are advised `MADV_HUGEPAGE`, so that a
/// first touch there maps 2 MiB at once. Below it the allocator may
/// hand out a reused heap chunk, which `calloc` zeroes on the calling
/// thread while the workers wait: `samplesort`'s 16 MiB output at the
/// benchmark's size takes 0–119 faults a run for its 4 096 pages.
///
/// A 4 KiB first-touch fault costs ≈ 2.5 µs on a two-core x86-64
/// host, and `prefix`'s 64 MiB output took 16 385 of them a run;
/// advised, it takes 544: 31 huge ones, and the small ones of its
/// unaligned head and tail.
///
/// Advice only: where it is refused (transparent huge pages `never`, a
/// kernel without them, another OS, Miri) the buffer is the same and
/// nothing is reported. Not for a shared array's segment, which may be
/// sparse: a huge page there makes 2 MiB resident for one touched word.
pub fn zeroed_output<T: crate::Word>(n: usize) -> Vec<T> {
    let mut out = vec![T::default(); n];
    if std::mem::size_of_val(out.as_slice()) >= HUGE_OUTPUT_MIN {
        imp::advise_huge_pages(&mut out);
    }
    out
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
mod imp {
    pub(crate) fn advise_huge_pages<T>(_: &mut [T]) -> bool {
        false
    }
    pub(crate) fn host(_: std::ops::Range<usize>, _: &(dyn Fn(usize) + Sync)) {
        unreachable!("no stack switch on this target: a carrier hosts one processor");
    }
    pub(crate) fn pause() {
        unreachable!("no stack switch on this target: nothing hosted to pause");
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod imp {
    use std::cell::{Cell, RefCell};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::ptr;

    use crate::pool::die;

    /// The guard page (one page of x86-64 Linux), then the stack.
    const GUARD_BYTES: usize = 4096;
    const MAP_BYTES: usize = GUARD_BYTES + (1 << 20);

    // From the C library std links (the workspace vendors no `libc`).
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// Ask for 2 MiB pages behind the whole 2 MiB pages of `buf`; true
    /// if there was one and the kernel took the advice.
    pub(crate) fn advise_huge_pages<T>(buf: &mut [T]) -> bool {
        const HUGE_PAGE: usize = 2 << 20;
        const MADV_HUGEPAGE: i32 = 14;
        let start = buf.as_mut_ptr().cast::<u8>();
        let skip = start.align_offset(HUGE_PAGE);
        let len = std::mem::size_of_val(buf).saturating_sub(skip) / HUGE_PAGE * HUGE_PAGE;
        // SAFETY: the range lies inside `buf`, and `MADV_HUGEPAGE`
        // changes no byte of it: it only marks the mapping that holds
        // it, so a later fault there may take a whole 2 MiB page.
        len > 0 && unsafe { madvise(start.add(skip), len, MADV_HUGEPAGE) } == 0
    }

    type Job = dyn Fn(usize) + Sync;

    /// A stack and the job `host` last ran on it. Kept by its thread
    /// between runs, and never moved while one is on.
    struct Fiber {
        /// The mapping; the stack grows down from its end to the guard.
        base: *mut u8,
        /// Borrowed by `host` for its own duration; dangles afterwards.
        job: *const Job,
        proc: usize,
        /// Where it stopped, and where `host`'s loop stopped to resume
        /// it: stack pointers `switch` saved, with six callee-saved
        /// registers and a return address above each.
        sp: Cell<*mut u8>,
        home: Cell<*mut u8>,
        done: Cell<bool>,
    }

    impl Fiber {
        fn map(job: *const Job) -> Self {
            const PROT_READ_WRITE: i32 = 1 | 2;
            const PRIVATE_ANONYMOUS_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
            // SAFETY: an anonymous mapping at an address the kernel
            // picks touches no memory anyone holds; the page then
            // protected (`PROT_NONE` = 0) is its first, which nothing
            // has a pointer into yet.
            let base = unsafe {
                let flags = PRIVATE_ANONYMOUS_NORESERVE;
                let base = mmap(ptr::null_mut(), MAP_BYTES, PROT_READ_WRITE, flags, -1, 0);
                if base as isize == -1 || mprotect(base, GUARD_BYTES, 0) != 0 {
                    // The run's other carriers already wait for this
                    // one's processors: there is no unwinding from here.
                    die("cannot map a processor stack");
                }
                base
            };
            #[cfg(test)]
            super::MAPPED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let null = Cell::new(ptr::null_mut());
            Self { base, job, proc: 0, sp: null.clone(), home: null, done: Cell::new(true) }
        }

        /// Lay the frame that starts `job(proc)` at the next switch.
        fn start(&mut self, job: *const Job, proc: usize) {
            // SAFETY: `top` is one past the mapping, page- and so
            // 16-byte aligned; the eight words below it are writable,
            // and no frame lives there (`done`). `switch` pops six
            // registers (zeros: `rbp` = 0 ends a frame-pointer walk)
            // and returns into `fiber_main` with `rsp = top - 8`: the
            // System V state right after a `call`, `rsp + 8` a
            // multiple of 16. The word there is `fiber_main`'s return
            // address; it never returns, and an unwinder or debugger
            // that finds no function at 0 stops walking.
            let sp = unsafe {
                let top = self.base.add(MAP_BYTES).cast::<usize>();
                top.sub(8).write_bytes(0, 8);
                top.sub(2).write(fiber_main as extern "C" fn() -> ! as usize);
                top.sub(8).cast()
            };
            (self.job, self.proc) = (job, proc);
            self.sp.set(sp);
            self.done.set(false);
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            // SAFETY: exactly the mapping `map` made. Fibers drop with
            // their thread's list only, where no frame lives on them.
            unsafe { munmap(self.base, MAP_BYTES) };
            #[cfg(test)]
            super::UNMAPPED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    thread_local! {
        /// The fiber that runs on this thread; null while none does.
        static CURRENT: Cell<*const Fiber> = const { Cell::new(ptr::null()) };
        /// This thread's fibers while no `host` call uses them.
        static IDLE: RefCell<Vec<Fiber>> = const { RefCell::new(Vec::new()) };
    }

    /// Save the caller's callee-saved registers and stack pointer at
    /// `*save`, and continue whoever stopped at `to`. MXCSR and the x87
    /// control word, the ABI's other callee-saved state, are not
    /// switched: nothing in this process sets them, and carrier-mates
    /// share them as they would with any function they call.
    ///
    /// # Safety
    ///
    /// `to` was saved by this function or laid by `Fiber::start`, its
    /// stack is alive, nothing runs on it, and only this thread ever
    /// resumes it; `save` is writable and resumed at most once.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        std::arch::naked_asm!(
            "push rbp; push rbx; push r12; push r13; push r14; push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
            "ret",
        )
    }

    /// Where a started fiber begins: `host` announced it in `CURRENT`.
    extern "C" fn fiber_main() -> ! {
        // SAFETY: only `host` switches here, with `CURRENT` pointing at
        // the fiber it resumes, in a vector it keeps still, and with
        // that fiber's `job` borrowed until every fiber is done.
        let (fiber, job) = unsafe {
            let fiber = &*CURRENT.get();
            (fiber, &*fiber.job)
        };
        // Nothing unwinds out of the first frame of a stack: there is
        // no caller to unwind into.
        if catch_unwind(AssertUnwindSafe(|| job(fiber.proc))).is_err() {
            die("a hosted processor's job panicked");
        }
        fiber.done.set(true);
        // SAFETY: `home` is where the loop stopped to resume this very
        // fiber, on its thread's own stack.
        unsafe { switch(fiber.sp.as_ptr(), fiber.home.get()) };
        die("a finished fiber was resumed")
    }

    pub(crate) fn host(procs: std::ops::Range<usize>, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the same fat pointer less its lifetime, for storage
        // in fibers that outlive the call: a raw one, which may dangle
        // once this returns (`fiber_main` is where it is followed).
        let job: *const Job = unsafe { std::mem::transmute(job) };
        let mut fibers = IDLE.take();
        fibers.resize_with(fibers.len().max(procs.len()), || Fiber::map(job));
        let hosted = &mut fibers[..procs.len()];
        hosted.iter_mut().zip(procs).for_each(|(fiber, proc)| fiber.start(job, proc));
        let mut unfinished = hosted.len();
        while unfinished > 0 {
            for fiber in hosted.iter().filter(|f| !f.done.get()) {
                // Null, unless this call is itself a hosted job.
                let outer = CURRENT.replace(fiber);
                // SAFETY: `fiber.sp` is where this fiber last stopped
                // (or its first frame), on its own live stack, and it
                // is not running: this thread alone resumes it, and is
                // here. It comes back through `pause` or the end of
                // `fiber_main`, each of which continues `home` once.
                unsafe { switch(fiber.home.as_ptr(), fiber.sp.get()) };
                CURRENT.set(outer);
                unfinished -= usize::from(fiber.done.get());
            }
        }
        // Every fiber switched away for good: no frame is left on any
        // stack. (A hosted job that hosts left fibers of its own here.)
        IDLE.with_borrow_mut(|idle| {
            fibers.append(idle);
            *idle = fibers;
        });
    }

    pub(crate) fn pause() {
        let fiber = CURRENT.get();
        assert!(!fiber.is_null(), "pause() outside a hosted job");
        // SAFETY: non-null is the fiber this call runs on (set before
        // every switch into one, reset after), alive in `host`'s
        // vector until it is done; `sp` is its slot to stop at and
        // `home` that call's loop, waiting for exactly this.
        unsafe { switch((*fiber).sp.as_ptr(), (*fiber).home.get()) };
    }
}

#[cfg(test)]
static MAPPED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[cfg(test)]
static UNMAPPED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Stacks this process ever mapped.
#[cfg(test)]
pub(crate) fn mapped_stacks() -> usize {
    MAPPED.load(std::sync::atomic::Ordering::SeqCst)
}

#[cfg(test)]
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn hosted_jobs_take_turns_and_all_finish() {
        let order = Mutex::new(Vec::new());
        let job = |proc: usize| {
            for round in 0..3 {
                order.lock().unwrap().push((round, proc));
                pause();
            }
        };
        host(4..7, &job);
        let want: Vec<_> = (0..3).flat_map(|round| (4..7).map(move |proc| (round, proc))).collect();
        assert_eq!(*order.lock().unwrap(), want, "round-robin, in processor order");
    }

    #[test]
    fn a_single_job_runs_on_the_callers_stack() {
        let here = 0u8;
        let job = |_proc: usize| {
            let there = 0u8;
            let gap = (&raw const here as usize).abs_diff(&raw const there as usize);
            assert!(gap < 64 << 10, "a lone job got a stack of its own: {gap} bytes away");
        };
        host(3..4, &job);
    }

    #[test]
    fn locals_and_floats_survive_a_thousand_switches() {
        let job = |proc: usize| {
            let mut acc = proc as f64;
            let mut trail = Vec::new();
            for step in 0..1000 {
                acc = acc * 1.000_1 + step as f64;
                trail.push(acc);
                pause();
            }
            let mut want = proc as f64;
            for (step, got) in trail.iter().enumerate() {
                want = want * 1.000_1 + step as f64;
                assert_eq!(want.to_bits(), got.to_bits());
            }
        };
        host(0..8, &job);
    }

    #[test]
    fn a_warm_thread_reuses_its_stacks() {
        // A thread of its own: the free list is per thread.
        std::thread::spawn(|| {
            let seen = Mutex::new(Vec::new());
            let job = |_proc: usize| {
                let local = 0u8;
                seen.lock().unwrap().push(&raw const local as usize >> 20);
            };
            host(0..4, &job);
            host(0..4, &job);
            let seen = seen.into_inner().unwrap();
            let (mut cold, mut warm) = (seen[..4].to_vec(), seen[4..].to_vec());
            cold.sort_unstable();
            warm.sort_unstable();
            assert_eq!(cold, warm, "the second call mapped new stacks");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_thread_that_exits_unmaps_its_stacks() {
        // A resident carrier never exits, so this is the one way to
        // `Fiber::drop`: the stacks go with their thread's list.
        use std::sync::atomic::Ordering::SeqCst;
        let before = UNMAPPED.load(SeqCst);
        std::thread::spawn(|| host(0..4, &|_proc| pause())).join().unwrap();
        // Other tests' threads may exit meanwhile: a lower bound.
        assert!(UNMAPPED.load(SeqCst) >= before + 4, "an exited thread kept its stacks");
    }

    #[test]
    #[should_panic(expected = "outside a hosted job")]
    fn pause_outside_a_hosted_job_panics() {
        pause();
    }
}

#[cfg(test)]
mod output_tests {
    use super::*;

    #[test]
    fn an_output_is_zeroed_at_every_size() {
        // Empty; under one 2 MiB page; just under the advice floor; and
        // over it, sixteen 2 MiB pages from an address that is not
        // 2 MiB-aligned (the allocator's header opens each mapping).
        for n in [0, 1000, (HUGE_OUTPUT_MIN - 1) / 8, (HUGE_OUTPUT_MIN + 40) / 8] {
            let out = zeroed_output::<u64>(n);
            assert_eq!(out.len(), n);
            assert!(out.iter().all(|&w| w == 0), "n={n}");
        }
    }

    #[test]
    fn advice_needs_a_whole_huge_page_and_a_refusal_is_silent() {
        // No 2 MiB-aligned 2 MiB range fits in fewer bytes.
        assert!(!imp::advise_huge_pages(&mut vec![0u8; (2 << 20) - 1]));
        // Taken exactly where the kernel has transparent huge pages,
        // whatever their mode; refused (false, and nothing else) on
        // other targets and under Miri.
        let thp = HOSTS && std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists();
        let mut out = zeroed_output::<u32>(HUGE_OUTPUT_MIN / 4 + 1);
        assert_eq!(imp::advise_huge_pages(&mut out), thp);
        assert!(out.iter().all(|&w| w == 0));
    }
}
