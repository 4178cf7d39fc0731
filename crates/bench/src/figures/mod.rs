//! One module per table/figure of the paper's evaluation.
//!
//! | Module   | Paper artifact | Content |
//! |----------|----------------|---------|
//! | [`fig1`] | Figure 1 | prefix sums: measured vs QSM/BSP predictions |
//! | [`fig2`] | Figure 2 | sample sort: measured vs Best/WHP/QSM-est/BSP-est |
//! | [`fig3`] | Figure 3 | list ranking: measured vs Best/WHP/QSM-est/BSP-est |
//! | [`fig4`] | Figure 4 | sample sort comm vs n as latency l varies |
//! | [`fig5`] | Figure 5 | crossover problem size vs latency l |
//! | [`fig6`] | Figure 6 | crossover problem size vs overhead o |
//! | [`fig7`] | Figure 7 | memory-bank contention on four platforms |
//! | [`table3`] | Table 3 | hardware vs observed network performance |
//! | [`table4`] | Table 4 | n_min extrapolation across architectures |
//! | [`ablations`] | (ours) | runtime design-choice ablations |
//! | [`ext_fabric`] | (ours) | shared-fabric network-contention extension |
//! | [`ext_straggler`] | (ours) | heterogeneous-processors extension |
//! | [`ext_hotspot`] | (ours) | hot-spot contention: QSM κ vs s-QSM g·κ |
//! | [`ext_faults`] | (ours) | message loss + retry protocol vs reliable-network assumption |
//! | [`ext_banks`] | (ours) | bank contention through the full get/put/sync pipeline |
//! | [`ext_topology`] | (ours) | routed multi-hop fabrics vs the flat wire |
//! | [`ext_service`] | (ours) | open-loop serving: throughput knee vs utilization model |

pub mod ablations;
pub mod ext_banks;
pub mod ext_fabric;
pub mod ext_faults;
pub mod ext_hotspot;
pub mod ext_service;
pub mod ext_straggler;
pub mod ext_topology;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table3;
pub mod table4;

use std::sync::{Mutex, MutexGuard};

use qsm_algorithms::analysis::relative_error;
use qsm_algorithms::{gen, listrank, prefix, samplesort, Prediction};
use qsm_core::{AnyMachine, EffectiveCosts, Machine, PhaseRecord, SimMachine};
use qsm_models::nmin::{linear_fit, r_squared};
use qsm_simnet::MachineConfig;

use crate::backend::Backend;
use crate::output::us_at_400mhz;
use crate::stats::{cross_interpolate, mean};
use crate::{Report, RunCfg};

/// The seed every figure draws a kernel's input from, given the
/// run's machine seed.
pub(crate) fn input_seed(seed: u64) -> u64 {
    seed ^ 0xDA7A
}

/// Run one of the paper's three kernels, by name, on `machine`: `n`
/// elements (list nodes for `listrank`) drawn from `input_seed(seed)`.
/// Returns the run's phases, or `None` for a name other than
/// `prefix`, `samplesort` and `listrank`.
pub fn run_kernel<M: Machine>(
    algo: &str,
    machine: &M,
    n: usize,
    seed: u64,
) -> Option<Vec<PhaseRecord>> {
    let seed = input_seed(seed);
    Some(match algo {
        "prefix" => prefix::run_on(machine, &gen::random_u64s(n, seed)).run.phases,
        "samplesort" => samplesort::run_on(machine, &gen::random_u32s(n, seed)).run.phases,
        "listrank" => {
            let (succ, pred, _) = gen::random_list(n, seed);
            listrank::run_on(machine, &succ, &pred).run.phases
        }
        _ => return None,
    })
}

/// The sweep behind Figures 2 and 3: at every size, `reps` runs of a
/// kernel on `backend` with (point, rep)-keyed seeds, their mean
/// measured total and communication time beside the analysis lines.
/// `kernel(machine, n, input seed, costs)` runs once and returns its
/// measured total, its communication and the estimate priced from its
/// own measured traffic; `bounds(n, costs)` gives the Best and WHP
/// lines. Measured columns are in the backend's time (converted to
/// µs); the analysis lines are always in the paper machine's
/// simulated µs.
pub(crate) fn estimate_sweep(
    id: &'static str,
    title: &'static str,
    cfg: &RunCfg,
    backend: Backend,
    kernel: impl Fn(&AnyMachine, usize, u64, &EffectiveCosts) -> (f64, f64, Prediction) + Sync,
    bounds: impl Fn(usize, &EffectiveCosts) -> (Prediction, Prediction) + Sync,
) -> Report {
    let machine_cfg = MachineConfig::paper_default(cfg.p);
    let params = EffectiveCosts::measure(machine_cfg);

    // Independent per size — fanned across the sweep pool; rows return
    // in size order.
    let rows = crate::sweep::map(cfg.p, cfg.sizes(), |point, n| {
        let mut totals = Vec::new();
        let mut comms = Vec::new();
        let mut est_qsm = Vec::new();
        let mut est_bsp = Vec::new();
        for rep in 0..cfg.reps {
            let seed = cfg.seed(point, rep);
            let machine = backend.machine(machine_cfg, seed);
            let (total, comm, est) = kernel(&machine, n, input_seed(seed), &params);
            totals.push(total);
            comms.push(comm);
            est_qsm.push(est.qsm);
            est_bsp.push(est.bsp);
        }
        let (best, whp) = bounds(n, &params);
        let comm = mean(&comms);
        let qsm_est = mean(&est_qsm);
        vec![
            n.to_string(),
            format!("{:.1}", backend.us(mean(&totals))),
            format!("{:.1}", backend.us(comm)),
            format!("{:.1}", us_at_400mhz(best.qsm)),
            format!("{:.1}", us_at_400mhz(whp.qsm)),
            format!("{:.1}", us_at_400mhz(qsm_est)),
            format!("{:.1}", us_at_400mhz(mean(&est_bsp))),
            format!("{:.1}", 100.0 * relative_error(comm, qsm_est)),
        ]
    });

    let headers = [
        "n",
        "total_us",
        "comm_us",
        "best_qsm_us",
        "whp_qsm_us",
        "qsm_est_us",
        "bsp_est_us",
        "qsm_est_err_pct",
    ];
    Report::table(id, title, &headers, &rows)
}

/// The points of a crossover sweep: `(swept value, n_cross)`, `None`
/// where the crossover lies beyond the sweep.
pub(crate) type Crossovers = Vec<(f64, Option<f64>)>;

/// The points a line through a crossover sweep rests on, for the
/// figure's printed fit and `table4`'s slopes alike, and how many of
/// them are resolved. A crossover at the sweep's smallest size is a
/// floor, not a measurement ([`samplesort_crossover`] returns that size
/// when communication is already under the WHP line there), and would
/// bias a slope toward zero: floors are left out while two resolved
/// points remain, and kept otherwise, so that a fast sweep still fits.
pub(crate) fn fit_points(points: &Crossovers, cfg: &RunCfg) -> (Vec<(f64, f64)>, usize) {
    let floor = cfg.sizes()[0] as f64;
    let found: Vec<(f64, f64)> = points.iter().filter_map(|&(x, n)| Some((x, n?))).collect();
    let resolved: Vec<(f64, f64)> = found.iter().copied().filter(|&(_, n)| n > floor).collect();
    let count = resolved.len();
    (if count >= 2 { resolved } else { found }, count)
}

/// A crossover figure (Figures 5 and 6): for each value of one
/// machine parameter, the problem size at which measured sample-sort
/// communication enters the [Best, WHP] band, with a linear fit of
/// n_cross against the parameter. The prediction band comes from the
/// default machine and is the same for every value; each value's
/// doubling scan ([`samplesort_crossover`]) is an independent sweep
/// point.
pub(crate) struct CrossoverFigure {
    id: &'static str,
    title: &'static str,
    /// The swept values, fast or full.
    values: fn(bool) -> Vec<f64>,
    /// The paper machine with one swept value installed.
    vary: fn(MachineConfig, f64) -> MachineConfig,
    /// The swept column's CSV header.
    header: &'static str,
    /// The parameter's symbol in the fit line.
    symbol: char,
    /// What this figure swept so far in this process, for `table4`,
    /// which fits its model to the same points. The points are a pure
    /// function of the [`RunCfg`] (the machines are `paper_default`
    /// variants and every seed derives from the config), and a process
    /// sweeps a handful of configs: a linear scan, nothing evicted, in
    /// the manner of `qsm_core::calibrate`'s memo.
    swept: Mutex<Vec<(RunCfg, Crossovers)>>,
}

impl CrossoverFigure {
    /// The crossover points for every value: those [`Self::run`] swept
    /// earlier in this process (`all` reaches `table4` after both
    /// figures), or of a sweep made now.
    pub(crate) fn crossovers(&self, cfg: &RunCfg) -> Crossovers {
        let remembered = self.swept().iter().find(|(c, _)| c == cfg).map(|(_, pts)| pts.clone());
        remembered.unwrap_or_else(|| self.sweep(cfg))
    }

    /// Sweep, and leave the points for later readers. [`Self::run`]
    /// calls this and never reads the memo: a figure that is run does
    /// its work, so its timing is that of a sweep whatever the process
    /// ran before. The lock is not held across the sweep.
    fn sweep(&self, cfg: &RunCfg) -> Crossovers {
        let params = EffectiveCosts::measure(MachineConfig::paper_default(cfg.p));
        let points = crate::sweep::map(cfg.p, (self.values)(cfg.fast), |_, x| {
            let machine_cfg = (self.vary)(MachineConfig::paper_default(cfg.p), x);
            (x, samplesort_crossover(machine_cfg, cfg, &params))
        });
        let mut swept = self.swept();
        if !swept.iter().any(|(c, _)| c == cfg) {
            swept.push((cfg.clone(), points.clone()));
        }
        points
    }

    /// A push cannot tear the memo, so a poisoned lock is recovered.
    fn swept(&self) -> MutexGuard<'_, Vec<(RunCfg, Crossovers)>> {
        self.swept.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run the experiment.
    pub(crate) fn run(&self, cfg: &RunCfg) -> Report {
        crate::backend::warn_sim_only(self.id);
        let points = self.sweep(cfg);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|(x, cross)| match cross {
                Some(n) => {
                    vec![format!("{x:.0}"), format!("{n:.0}"), format!("{:.0}", n / cfg.p as f64)]
                }
                None => vec![format!("{x:.0}"), "beyond sweep".into(), "-".into()],
            })
            .collect();
        let (fit_pts, resolved) = fit_points(&points, cfg);
        let headers = [self.header, "n_cross", "n_cross_per_proc"];
        let mut report = Report::table(self.id, self.title, &headers, &rows);
        if fit_pts.len() >= 2 {
            let (slope, intercept) = linear_fit(&fit_pts);
            let r2 = r_squared(&fit_pts, slope, intercept);
            let sign = if intercept < 0.0 { '−' } else { '+' };
            report.text.push_str(&format!(
                "\nlinear fit: n_cross = {slope:.2}·{} {sign} {:.0}   (R² = {r2:.3}; over {} points, \
                 {resolved} of them resolved)\n",
                self.symbol,
                intercept.abs(),
                fit_pts.len()
            ));
        }
        report
    }
}

/// Mean measured communication time of sample sort at size `n` over
/// `reps` repetitions on `machine_cfg`.
pub(crate) fn samplesort_comm(
    machine_cfg: MachineConfig,
    n: usize,
    cfg: &RunCfg,
    point: usize,
) -> f64 {
    let comms: Vec<f64> = (0..cfg.reps)
        .map(|rep| {
            let seed = cfg.seed(point, rep);
            let machine = SimMachine::new(machine_cfg).with_seed(seed);
            let input = gen::random_u32s(n, input_seed(seed));
            samplesort::run_on(&machine, &input).comm()
        })
        .collect();
    mean(&comms)
}

/// Find the problem size at which measured sample-sort communication
/// first falls to (or below) the QSM WHP-bound line — the paper's
/// Figure 5/6 crossover — by scanning the doubling grid and
/// interpolating between the bracketing sizes. Returns `None` when
/// the crossover lies beyond the sweep.
pub(crate) fn samplesort_crossover(
    machine_cfg: MachineConfig,
    cfg: &RunCfg,
    params: &EffectiveCosts,
) -> Option<f64> {
    // Scan the sweep grid, then keep doubling past it (bounded) so
    // slow networks still resolve a crossover instead of reporting
    // "beyond sweep".
    let mut sizes = cfg.sizes();
    let hard_cap = 1usize << 23;
    while *sizes.last().unwrap() < hard_cap {
        let next = sizes.last().unwrap() * 2;
        sizes.push(next);
    }
    let mut prev: Option<(f64, f64)> = None; // (n, measured - whp)
    for (point, n) in sizes.into_iter().enumerate() {
        let measured = samplesort_comm(machine_cfg, n, cfg, point);
        let whp = samplesort::predict_whp(n, params).qsm;
        let diff = measured - whp;
        if diff <= 0.0 {
            return Some(match prev {
                Some((pn, pd)) => cross_interpolate(pn, pd, n as f64, diff),
                None => n as f64,
            });
        }
        prev = Some((n as f64, diff));
    }
    None
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    #[test]
    fn a_fit_leaves_out_floors_while_two_resolved_points_remain() {
        // Figure 5's points as EXPERIMENTS.md lists them: three at the
        // sweep's smallest size, 4 096, and one beyond the sweep.
        let cfg = RunCfg::fast();
        let (floor, a, b) = (Some(4096.0), Some(12_961.0), Some(51_911.0));
        let pts = vec![(400.0, floor), (1600.0, floor), (6400.0, floor), (25_600.0, a)];
        let with = |tail: Crossovers| [pts.clone(), tail].concat();
        let (fit, resolved) = fit_points(&with(vec![(102_400.0, b), (409_600.0, None)]), &cfg);
        assert_eq!((fit, resolved), (vec![(25_600.0, 12_961.0), (102_400.0, 51_911.0)], 2));
        // One resolved point: the floors stay, so that the line exists.
        let (fit, resolved) = fit_points(&with(vec![(102_400.0, None)]), &cfg);
        assert_eq!((fit.len(), resolved), (4, 1));
    }

    #[test]
    fn memo_serves_readers_but_never_the_figure_itself() {
        // Counts the sweeps: each asks for the values once, and gets
        // none, so that it runs nothing.
        static SWEEPS: AtomicUsize = AtomicUsize::new(0);
        let figure = CrossoverFigure {
            id: "memo",
            title: "memo",
            values: |_| {
                SWEEPS.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            vary: |machine, _| machine,
            header: "x",
            symbol: 'x',
            swept: Mutex::new(Vec::new()),
        };
        let sweeps = || SWEEPS.load(Ordering::Relaxed);
        let cfg = RunCfg::fast();
        // A reader with nothing remembered sweeps; the next one does not.
        figure.crossovers(&cfg);
        figure.crossovers(&cfg);
        assert_eq!(sweeps(), 1);
        // The figure's own run sweeps regardless, and readers keep the
        // remembered points.
        figure.run(&cfg);
        assert_eq!(sweeps(), 2);
        figure.crossovers(&cfg);
        assert_eq!(sweeps(), 2);
        // Every field of the config is in the key.
        figure.crossovers(&RunCfg { reps: cfg.reps + 1, ..cfg.clone() });
        assert_eq!(sweeps(), 3);
    }
}
