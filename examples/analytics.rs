//! Domain scenario: a small analytics job combining three QSM
//! kernels — histogram, prefix sums, and sample sort — into one
//! pipeline, with a per-stage cost breakdown.
//!
//! ```text
//! cargo run --release --example analytics
//! ```
//!
//! The job: given a day of request-latency samples sharded over 16
//! nodes, (1) bucket them into a latency histogram, (2) turn the
//! histogram into a CDF with prefix sums, and (3) sort the raw
//! samples to extract exact percentiles — then compare what each
//! stage cost on the simulated machine.

use qsm::algorithms::{gen, histogram, prefix, samplesort, seq};
use qsm::core::SimMachine;
use qsm::simnet::MachineConfig;

fn main() {
    let p = 16;
    let n = 1 << 17; // 131k latency samples
    let buckets = 128;
    let cfg = MachineConfig::paper_default(p);
    let machine = SimMachine::new(cfg);
    let us = |cycles: f64| cycles / (cfg.cpu.clock_hz / 1e6);

    // Latency samples in microseconds (uniform noise in [0, 100ms)
    // stands in for a production distribution).
    let samples: Vec<u32> = gen::random_u32s(n, 0xA11A).into_iter().map(|v| v % 100_000).collect();

    // Stage 1: histogram (owner-computes; comm independent of n).
    let hist = histogram::run_on(&machine, &samples, buckets);
    assert_eq!(hist.counts, histogram::histogram_seq(&samples, buckets));

    // Stage 2: CDF via prefix sums over the bucket counts.
    let cdf_run = prefix::run_on(&machine, &hist.counts);
    assert_eq!(cdf_run.output, seq::prefix_sums(&hist.counts));
    let cdf = &cdf_run.output;
    assert_eq!(*cdf.last().unwrap(), n as u64);

    // Stage 3: exact percentiles via a full distributed sort.
    let sorted = samplesort::run_on(&machine, &samples);
    assert_eq!(sorted.output, seq::sorted(&samples));
    let pct = |q: f64| sorted.output[((n as f64 - 1.0) * q) as usize];

    println!("analytics pipeline over {n} samples, {p} simulated nodes\n");
    println!("{:<28} {:>12} {:>12} {:>8}", "stage", "comm (us)", "total (us)", "phases");
    let rows = [
        ("histogram (128 buckets)", hist.comm(), &hist.run.phases[histogram::SETUP_PHASES..]),
        ("prefix sums (CDF)", cdf_run.comm(), &cdf_run.run.phases[prefix::SETUP_PHASES..]),
        (
            "sample sort (percentiles)",
            sorted.comm(),
            &sorted.run.phases[samplesort::SETUP_PHASES..],
        ),
    ];
    for (name, comm, phases) in rows {
        let total: f64 = phases.iter().map(|r| r.timing.elapsed.get()).sum();
        println!("{:<28} {:>12.1} {:>12.1} {:>8}", name, us(comm), us(total), phases.len());
    }

    println!(
        "\npercentiles: p50 = {} us, p99 = {} us, p99.9 = {} us",
        pct(0.5),
        pct(0.99),
        pct(0.999)
    );
    println!(
        "\nnote the shape: histogram & CDF communication is O(buckets + p), so the\n\
         full sort dominates — on a QSM machine you buy exact percentiles with\n\
         ~{}x the communication of the approximate histogram path.",
        (sorted.comm() / (hist.comm() + cdf_run.comm())).round()
    );
}
