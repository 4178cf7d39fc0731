//! Self-calibration microbenchmarks: the Table 3 "observed
//! performance" measurements.
//!
//! The paper distinguishes raw *hardware* network parameters (g = 3
//! cycles/byte, o = 400, l = 1600) from the *observed* performance of
//! the shared-memory library built on them: ~35 cycles/byte for
//! scattered word `put`s, ~287 cycles/byte for `get`s, and a
//! ~25 500-cycle empty `sync()` at p = 16. [`EffectiveCosts::measure`]
//! reproduces those numbers on any [`MachineConfig`] by running the
//! same microbenchmarks on the simulated machine, and is what the
//! algorithm prediction lines use as their effective gap.
//!
//! The measurement is a pure function of `(MachineConfig, words)`, so
//! it is taken once per key per process (`MEMO`: a `Mutex<Vec<_>>`
//! scanned with `==`, since the config has `f64` fields and a process
//! calibrates a handful of machines; never evicted, and not held
//! across a measurement). The runs behind it are unobserved — a
//! disabled recorder — so whether a call hit the memo or measured
//! leaves no trace in any artifact, which keeps `QSM_METRICS` dumps
//! independent of `QSM_JOBS` when sweep workers race to calibrate.

use std::sync::Mutex;

use qsm_obs::Recorder;
use qsm_simnet::MachineConfig;

use crate::addr::Layout;
use crate::ctx::Ctx;
use crate::machine::RunResult;
use crate::sim_runtime::SimMachine;

/// Every calibration this process has made. `MachineConfig` has `f64`
/// fields (so `==`, not a hash) and a process calibrates a handful of
/// distinct machines: a linear scan, and nothing is ever evicted.
static MEMO: Mutex<Vec<(MachineConfig, usize, EffectiveCosts)>> = Mutex::new(Vec::new());

/// Software-inclusive network costs observed on a machine: the
/// effective model parameters every algorithm's prediction lines use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveCosts {
    /// Processors.
    pub p: usize,
    /// Marginal cycles per 4-byte word for scattered single-word puts.
    pub g_put: f64,
    /// Marginal cycles per 4-byte word for scattered single-word gets.
    pub g_get: f64,
    /// Cost of an empty `sync()` (plan + barrier): the effective
    /// per-phase synchronization cost `L`.
    pub l_sync: f64,
}

impl EffectiveCosts {
    /// Cycles per byte for puts (Table 3 units).
    pub fn put_cycles_per_byte(&self) -> f64 {
        self.g_put / 4.0
    }

    /// Cycles per byte for gets (Table 3 units).
    pub fn get_cycles_per_byte(&self) -> f64 {
        self.g_get / 4.0
    }

    /// Measure with the default stream length (8192 words/processor).
    pub fn measure(cfg: MachineConfig) -> Self {
        Self::measure_with(cfg, 8192)
    }

    /// Measure using `words` scattered single-word accesses per
    /// processor.
    ///
    /// Every processor issues `words` one-word operations spread
    /// round-robin over the other processors (into per-source
    /// disjoint slots, so κ = 1); the marginal per-word cost is the
    /// phase communication time minus the empty-sync constant,
    /// divided by the stream length.
    ///
    /// The microbenchmark runs once per `(cfg, words)` per process;
    /// later calls return the remembered costs.
    pub fn measure_with(cfg: MachineConfig, words: usize) -> Self {
        // A push cannot leave the table half-updated, so a poisoned
        // lock is recovered.
        let memo = || MEMO.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&(_, _, costs)) = memo().iter().find(|(c, w, _)| *c == cfg && *w == words) {
            return costs;
        }
        // The lock is not held across the measurement: threads racing
        // on one key each measure it, unobserved, and get equal costs.
        let costs = Self::measure_uncached(cfg, words);
        memo().push((cfg, words, costs));
        costs
    }

    /// The microbenchmark behind [`EffectiveCosts::measure_with`],
    /// run every call.
    fn measure_uncached(cfg: MachineConfig, words: usize) -> Self {
        assert!(words > 0);
        let machine = SimMachine::new(cfg);
        let l_sync = crate::sim_timer::empty_sync_cost(cfg).get();
        // A one-processor machine's traffic is all library self-path:
        // no synchronization cost to take off.
        let l = if cfg.p == 1 { 0.0 } else { l_sync };
        let put_comm = Self::put_phase_comm(&machine, words);
        let get_comm = Self::get_phase_comm(&machine, words);
        Self {
            p: cfg.p,
            g_put: ((put_comm - l) / words as f64).max(0.0),
            g_get: ((get_comm - l) / words as f64).max(0.0),
            l_sync,
        }
    }

    /// Communication time of one phase of scattered single-word puts.
    fn put_phase_comm(machine: &SimMachine, words: usize) -> f64 {
        let run = unobserved(machine, |ctx| {
            let p = ctx.nprocs();
            let arr = ctx.register::<u32>("putbench", Self::slots(p, words), Layout::Block);
            ctx.sync(); // phase 0: registration
            for k in 0..words {
                let idx = Self::slot(ctx.proc_id(), p, words, k);
                ctx.put(&arr, idx, &[k as u32]);
            }
            ctx.sync(); // phase 1: the measured stream
        });
        run.phases[1].timing.comm.get()
    }

    /// Communication time of one phase of scattered single-word gets.
    fn get_phase_comm(machine: &SimMachine, words: usize) -> f64 {
        let run = unobserved(machine, |ctx| {
            let p = ctx.nprocs();
            let arr = ctx.register::<u32>("getbench", Self::slots(p, words), Layout::Block);
            ctx.sync();
            let tickets: Vec<_> = (0..words)
                .map(|k| ctx.get(&arr, Self::slot(ctx.proc_id(), p, words, k), 1))
                .collect();
            ctx.sync();
            for t in tickets {
                let _ = ctx.take(t);
            }
        });
        run.phases[1].timing.comm.get()
    }

    /// Total slots: each of the p block segments holds one private
    /// region per source processor.
    fn slots(p: usize, words: usize) -> usize {
        p * p * words.div_ceil(p.max(2) - 1).max(1)
    }

    /// The k-th slot touched by `src`: round-robin over the other
    /// processors, each slot private to `src` (disjoint across
    /// sources, so κ stays 1).
    fn slot(src: usize, p: usize, words: usize, k: usize) -> usize {
        let region = words.div_ceil(p.max(2) - 1).max(1);
        let block = p * region; // one block per destination processor
        if p == 1 {
            return k % block;
        }
        let dst = (src + 1 + k % (p - 1)) % p;
        let within = k / (p - 1);
        dst * block + src * region + within % region
    }
}

/// A calibration run: on a disabled recorder, whatever the harness
/// installed.
fn unobserved(machine: &SimMachine, program: impl Fn(&mut Ctx) + Send + Sync) -> RunResult<()> {
    crate::engine::run_with(machine, program, Recorder::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn a_remembered_entry_is_the_measurement_of_its_key() {
        let bits = |c: EffectiveCosts| [c.g_put, c.g_get, c.l_sync].map(f64::to_bits);
        let base = MachineConfig::paper_default(3);
        let mut sw = qsm_simnet::SoftwareConfig::calibrated();
        sw.put_marshal *= 2.0;
        for (cfg, words) in [(base, 96), (base.with_software(sw), 96), (base, 192)] {
            let fresh = bits(EffectiveCosts::measure_uncached(cfg, words));
            assert_eq!(bits(EffectiveCosts::measure_with(cfg, words)), fresh);
            assert_eq!(bits(EffectiveCosts::measure_with(cfg, words)), fresh, "a hit");
        }
    }

    #[test]
    fn slots_are_disjoint_across_sources() {
        let (p, words) = (4, 64);
        let mut seen = std::collections::HashSet::new();
        for src in 0..p {
            for k in 0..words {
                let s = EffectiveCosts::slot(src, p, words, k);
                assert!(s < EffectiveCosts::slots(p, words), "slot {s} out of range");
                assert!(seen.insert((src, s)), "source {src} reused slot {s}");
            }
        }
        // Cross-source disjointness: no slot owned by two sources.
        let mut owner = std::collections::HashMap::new();
        for (src, s) in seen {
            if let Some(prev) = owner.insert(s, src) {
                assert_eq!(prev, src, "slot {s} shared by {prev} and {src}");
            }
        }
    }

    #[test]
    fn slot_never_targets_self() {
        let (p, words) = (5, 40);
        for src in 0..p {
            for k in 0..words {
                let s = EffectiveCosts::slot(src, p, words, k);
                let region = words.div_ceil(p - 1);
                let dst = s / (p * region);
                assert_ne!(dst, src, "src {src} hit its own block at k={k}");
            }
        }
    }

    #[test]
    fn observed_costs_reproduce_table3_shape() {
        // On the default machine: put in the tens of cycles/byte,
        // get several times put, both far above the 3 c/B hardware
        // gap — the paper's Table 3 observation.
        let costs = EffectiveCosts::measure_with(MachineConfig::paper_default(16), 2048);
        let put = costs.put_cycles_per_byte();
        let get = costs.get_cycles_per_byte();
        assert!(put > 3.0, "put {put} should exceed the hardware gap");
        assert!(get > 2.0 * put, "get {get} should be well above put {put}");
        assert!((10.0..120.0).contains(&put), "put {put} c/B, paper: 35");
        assert!((60.0..900.0).contains(&get), "get {get} c/B, paper: 287");
    }

    #[test]
    fn empty_sync_matches_machine_measure() {
        let cfg = MachineConfig::paper_default(8);
        let costs = EffectiveCosts::measure_with(cfg, 512);
        let report = SimMachine::new(cfg).make_report(&[]);
        assert_eq!(costs.l_sync, report.models.bsp.l_barrier);
    }

    #[test]
    fn single_processor_machine_measures_self_path() {
        // Everything is local library traffic: positive, with the
        // get path (request + serve + apply, all on one CPU) still
        // costlier than the put path.
        let costs = EffectiveCosts::measure_with(MachineConfig::paper_default(1), 256);
        assert!(costs.g_put > 0.0);
        assert!(costs.g_get > costs.g_put);
    }

    #[test]
    fn costs_scale_with_software_config() {
        use qsm_simnet::SoftwareConfig;
        let heavy = MachineConfig::paper_default(4);
        let mut sw = SoftwareConfig::calibrated();
        sw.put_marshal /= 4.0;
        sw.put_apply /= 4.0;
        let light = heavy.with_software(sw);
        let a = EffectiveCosts::measure_with(heavy, 1024);
        let b = EffectiveCosts::measure_with(light, 1024);
        assert!(b.g_put < a.g_put);
        // Get path untouched: within a few percent.
        let rel = (a.g_get - b.g_get).abs() / a.g_get;
        assert!(rel < 0.1, "get path should be unaffected: {rel}");
    }
}
