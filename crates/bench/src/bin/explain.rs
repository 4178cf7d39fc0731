//! `explain` — instrumented breakdown of one algorithm run.
//!
//! Runs a single algorithm configuration on the `QSM_BACKEND`-selected
//! machine with the Full-level recorder active and prints a
//! phase-by-phase table: measured elapsed/compute/comm times next to
//! each model's per-phase communication prediction (QSM, s-QSM, BSP,
//! LogP, all on hardware parameters — the same inputs as
//! [`qsm_core::CostReport`]), the phase's contention κ, the observed
//! bank-κ and bank queuing time when a destination-bank model is
//! active (`QSM_BANKS`; both columns read 0 without one, and on the
//! threads backend, which does not simulate banks), which processor
//! reached the barrier last, the phase's worker compute imbalance
//! (`imb_pct`: spread `(max − min)/max` of per-processor compute
//! time), and the share of total processor-time spent waiting on
//! barriers (`bwait_pct`). The [`qsm_core::CostReport`] summary
//! follows.
//!
//! `QSM_ALGO=service` switches to the open-loop serving scenario
//! instead: one run of the `ext_service` workload at the top of its
//! sweep (200% of predicted capacity), printing each node's
//! observed NIC/bank busy fraction next to the utilization model's
//! prediction, the latency percentiles, and the predicted bottleneck.
//!
//! Knobs: `QSM_ALGO=prefix|samplesort|listrank|service` (default
//! `prefix`), `QSM_P` (default 8), `QSM_N` (default 65536),
//! `QSM_BACKEND=sim|threads` (default `sim`; measured columns switch
//! from simulated cycles to host nanoseconds, model columns stay in
//! cycles), plus the usual `QSM_TRACE=path.json` /
//! `QSM_METRICS=path.json` outputs. The header prints the knobs that
//! decide a result (backend, `QSM_BANKS`, `QSM_TOPOLOGY`), resolved.

use qsm_bench::figures::ext_service::MAX_LOAD_PCT;
use qsm_bench::figures::run_kernel;
use qsm_bench::obs::ObsSink;
use qsm_bench::output::table;
use qsm_bench::{knobs, RunCfg};
use qsm_core::{Machine, PhaseRecord};
use qsm_obs::{ObsData, SpanKind};
use qsm_simnet::{Cycles, MachineConfig};

/// `QSM_ALGO=service`: one open-loop serving run at
/// [`MAX_LOAD_PCT`]% of the utilization model's predicted capacity
/// (the same scenario the `ext_service` figure sweeps), with the
/// measured per-node busy fractions printed beside the model's
/// per-resource ρ so a disagreement is visible node by node.
fn explain_service() {
    let sink = ObsSink::from_env();
    let p = knobs().p;
    let cfg = RunCfg { p, reps: 1, ..RunCfg::from_env() };
    let base = qsm_bench::figures::ext_service::base_config(&cfg);

    let offered = qsm_bench::figures::ext_service::offered_at(&base, MAX_LOAD_PCT);
    let svc = base.with_offered(offered);
    let pred = qsm_serve::predict(&svc);
    let out = qsm_serve::run(&svc, sink.recorder());

    let pct = |v: f64| format!("{:.1}", v * 100.0);
    let max = |u: &[f64]| u.iter().fold(0.0f64, |m, &v| m.max(v));
    let mean = qsm_serve::ServiceOutcome::mean_util;
    println!("== explain — service, p = {p}, backend = sim ==");
    println!(
        "(offered = {offered} txns at {MAX_LOAD_PCT}% of predicted capacity over a {:.0}-cycle \
         window; utilization = busy cycles / elapsed; predictions are the open-loop model's \
         per-resource ρ, capped at 100%)",
        svc.window
    );
    let summary = [
        ("send", &out.send_util, pred.rho_send),
        ("recv", &out.recv_util, pred.rho_recv),
        ("bank", &out.bank_util, pred.rho_bank),
    ];
    let rows: Vec<Vec<String>> = summary
        .iter()
        .map(|(name, util, rho)| {
            vec![name.to_string(), pct(mean(util)), pct(max(util)), pct(rho.min(1.0))]
        })
        .collect();
    println!("{}", table(&["resource", "mean_pct", "max_pct", "pred_pct"], &rows));

    let node_rows: Vec<Vec<String>> = (0..p)
        .map(|i| {
            vec![
                format!("n{i}"),
                pct(out.send_util[i]),
                pct(out.recv_util[i]),
                pct(out.bank_util[i]),
            ]
        })
        .collect();
    println!("{}", table(&["node", "send_pct", "recv_pct", "bank_pct"], &node_rows));

    let tput = out.throughput() * 1e6;
    println!(
        "throughput = {tput:.1}/Mcyc (model predicts {:.1}/Mcyc, bottleneck: {}); \
         completed = {}, rejected = {}, retries = {}, timeouts = {}",
        pred.throughput * 1e6,
        pred.bottleneck(),
        out.completed,
        out.rejected,
        out.retries,
        out.timed_out,
    );
    println!(
        "latency p50 = {:.1}us  p99 = {:.1}us  p999 = {:.1}us (at 400 MHz)",
        qsm_bench::output::us_at_400mhz(out.latency_percentile(0.5)),
        qsm_bench::output::us_at_400mhz(out.latency_percentile(0.99)),
        qsm_bench::output::us_at_400mhz(out.latency_percentile(0.999)),
    );
    sink.finalize();
}

/// For each phase, the processor that entered the barrier last — the
/// one the whole machine waited on.
fn slowest_by_phase(data: &ObsData, nphases: usize) -> Vec<Option<u32>> {
    let mut last: Vec<Option<(Cycles, u32)>> = vec![None; nphases];
    for s in &data.spans {
        if s.kind != SpanKind::BarrierWait {
            continue;
        }
        let Some(slot) = last.get_mut(s.phase as usize) else { continue };
        if slot.is_none_or(|(t, _)| s.start > t) {
            *slot = Some((s.start, s.lane));
        }
    }
    last.into_iter().map(|o| o.map(|(_, lane)| lane)).collect()
}

/// Per-phase load-balance columns from the per-lane spans:
/// `(imb_pct, bwait_pct)` — compute imbalance `(max − min) / max`
/// over the per-lane summed compute time, and total barrier-wait
/// time as a share of the phase's processor-time `p · elapsed`.
/// Works on either backend's span stream; on the threads backend each
/// worker emits two barrier legs per phase, and summing counts both.
fn balance_by_phase(data: &ObsData, phases: &[PhaseRecord], p: usize) -> Vec<(f64, f64)> {
    let nphases = phases.len();
    let mut compute = vec![vec![0.0f64; p]; nphases];
    let mut bwait = vec![0.0f64; nphases];
    for s in &data.spans {
        let k = s.phase as usize;
        if k >= nphases {
            continue; // epilogue / non-phase spans
        }
        match s.kind {
            SpanKind::Compute => {
                if let Some(c) = compute[k].get_mut(s.lane as usize) {
                    *c += s.dur.get();
                }
            }
            SpanKind::BarrierWait => bwait[k] += s.dur.get(),
            _ => {}
        }
    }
    phases
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let (max, min) = compute[k]
                .iter()
                .fold((0.0f64, f64::INFINITY), |(mx, mn), &c| (mx.max(c), mn.min(c)));
            let imb = if max > 0.0 { (max - min) / max * 100.0 } else { 0.0 };
            let ptime = r.timing.elapsed.get() * p as f64;
            let bw = if ptime > 0.0 { bwait[k] / ptime * 100.0 } else { 0.0 };
            (imb, bw)
        })
        .collect()
}

fn main() {
    let algo = knobs().algo.as_str();
    if algo == "service" {
        // The serving engine is counter-based, not span-based; it
        // neither needs nor uses the Full-level recorder.
        explain_service();
        return;
    }
    // Full level regardless of QSM_TRACE: the table itself needs the
    // per-processor spans.
    let sink = ObsSink::full();
    let (p, n) = (knobs().p, knobs().n);
    let machine = knobs().result.backend.machine(MachineConfig::paper_default(p), 0x1998_0021);
    let unit = machine.time_unit();

    let Some(phases) = run_kernel(algo, &machine, n, 0x1998_0021) else {
        eprintln!("unknown QSM_ALGO '{algo}' (want prefix, samplesort, or listrank)");
        std::process::exit(2);
    };
    let report = machine.make_report(&phases);
    let data = sink.recorder().take().unwrap_or_else(|| {
        eprintln!("explain requires the observability recorder; another one is installed");
        std::process::exit(1);
    });

    let slowest = slowest_by_phase(&data, phases.len());
    let balance = balance_by_phase(&data, &phases, p);
    let m = &report.models;
    let rows: Vec<Vec<String>> = phases
        .iter()
        .enumerate()
        .map(|(k, r)| {
            vec![
                k.to_string(),
                format!("{:.0}", r.timing.elapsed.get()),
                format!("{:.0}", r.timing.compute.get()),
                format!("{:.0}", r.timing.comm.get()),
                format!("{:.0}", m.qsm.phase_comm_cost(&r.profile)),
                format!("{:.0}", m.sqsm.phase_comm_cost(&r.profile)),
                format!("{:.0}", m.bsp.phase_comm_cost(&r.profile)),
                format!("{:.0}", m.logp.phase_comm_cost(&r.profile)),
                r.profile.kappa.to_string(),
                r.bank_kappa.to_string(),
                format!("{:.0}", r.bank_wait.get()),
                format!("{:.0}", r.link_wait.get()),
                format!("{:.1}", r.link_util * 100.0),
                slowest[k].map_or_else(|| "-".into(), |l| format!("p{l}")),
                format!("{:.1}", balance[k].0),
                format!("{:.1}", balance[k].1),
            ]
        })
        .collect();
    let headers = [
        "phase",
        "elapsed",
        "compute",
        "comm",
        "qsm",
        "sqsm",
        "bsp",
        "logp",
        "kappa",
        "bank_kappa",
        "bank_wait",
        "link_wait",
        "lutil_pct",
        "slowest",
        "imb_pct",
        "bwait_pct",
    ];

    println!("== explain — {algo}, p = {p}, n = {n}, backend = {} ==", machine.backend_name());
    println!("({:?})", knobs().result);
    println!(
        "(measured columns incl. bank_wait/link_wait in {unit}; model columns are per-phase \
         predicted communication in cycles; bank_kappa in 4-byte words; lutil_pct = hottest \
         fabric link busy share; imb_pct = per-processor compute spread (max-min)/max; \
         bwait_pct = barrier wait share of p*elapsed)"
    );
    println!("{}", table(&headers, &rows));
    print!("{report}");

    sink.write(&data);
}
