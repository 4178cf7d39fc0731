//! Golden outcomes of the serving engine.
//!
//! The engine's host-side structure (how events are ordered, how
//! messages reach the network) may change freely; the simulated
//! numbers may not. These three outcomes were generated at the commit
//! before the engine streamed its arrivals and sent through
//! `Network::send_one`, and pin everything a run reports: every
//! counter, `elapsed` to the bit, and the latency histogram's moments
//! and percentiles.

use qsm_obs::Recorder;
use qsm_serve::{predict, ServiceConfig, ServiceOutcome};
use qsm_simnet::{BankModel, FaultConfig, MachineConfig, TopologyKind};

/// The `ext_service` machine: 4 banks per node at 12 cycles per byte.
fn machine(p: usize) -> MachineConfig {
    MachineConfig::paper_default(p).with_banks(BankModel {
        banks_per_node: 4,
        service_fixed: 0.0,
        service_per_byte: 12.0,
    })
}

/// `base` offered `load` times its predicted capacity.
fn at_load(base: ServiceConfig, load: f64) -> ServiceConfig {
    let offered = (load * predict(&base).capacity * base.window).round() as usize;
    base.with_offered(offered)
}

/// Everything a run reports, one field per line, floats as bits.
fn render(o: &ServiceOutcome) -> String {
    let l = &o.latency;
    let bits = |x: f64| format!("{:#018x}", x.to_bits());
    let util = |v: &[f64]| bits(v.iter().sum());
    [
        format!("offered {} admitted {} completed {}", o.offered, o.admitted, o.completed),
        format!("rejected {} drops {} retries {}", o.rejected, o.drops, o.retries),
        format!("timed_out {} elapsed {}", o.timed_out, bits(o.elapsed.get())),
        format!("latency count {} sum {} min {} max {}", l.count, l.sum, l.min, l.max),
        format!(
            "p50 {} p99 {} p999 {}",
            bits(l.percentile(0.5)),
            bits(l.percentile(0.99)),
            bits(l.percentile(0.999))
        ),
        format!(
            "util send {} recv {} bank {}",
            util(&o.send_util),
            util(&o.recv_util),
            util(&o.bank_util)
        ),
    ]
    .join("\n")
}

fn check(cfg: &ServiceConfig, golden: &str) {
    let got = render(&qsm_serve::run(cfg, &Recorder::disabled()));
    assert_eq!(got, golden.trim(), "outcome drifted; got:\n{got}\n");
}

#[test]
fn flat_p16_past_the_knee() {
    let base = ServiceConfig::new(machine(16)).with_window((1u64 << 20) as f64);
    check(
        &at_load(base, 1.5),
        "
offered 13603 admitted 13603 completed 13603
rejected 0 drops 0 retries 0
timed_out 0 elapsed 0x4139bc96dd298386
latency count 13603 sum 5468059060 min 11124 max 678365
p50 0x411a09228de7cb11 p99 0x4124932658443a88 p999 0x4124b07808d39f74
util send 0x402dd740e5be63b6 recv 0x402dd740e5be63b6 bank 0x40195a7706f52523
",
    );
}

#[test]
fn flat_p256_below_the_knee() {
    let base = ServiceConfig::new(machine(256)).with_window((1u64 << 17) as f64);
    check(
        &at_load(base, 0.9),
        "
offered 16324 admitted 16324 completed 16324
rejected 0 drops 0 retries 0
timed_out 0 elapsed 0x4104e278c4c003f7
latency count 16324 sum 439460500 min 8806 max 58574
p50 0x40d983d18c2cdee5 p99 0x40ec07e4ef1c707d p999 0x40ec8b2a17e93e72
util send 0x4066106c621313c2 recv 0x4066106c621313c9 bank 0x4052bff8b3c88082
",
    );
}

#[test]
fn torus_p64_with_drops_under_admission() {
    let m = machine(64)
        .with_topology(TopologyKind::torus(64))
        .with_faults(FaultConfig::drops(0xD20B, 0.05));
    let mut base = ServiceConfig::new(m).with_window((1u64 << 19) as f64);
    base.get_fraction = 0.125;
    check(
        &at_load(base, 1.5).with_admission(200_000.0),
        "
offered 27746 admitted 10805 completed 10805
rejected 16941 drops 1196 retries 1196
timed_out 0 elapsed 0x4128de396e2d1650
latency count 10805 sum 3735474376 min 22915 max 511164
p50 0x41167b6699740711 p99 0x411f064e8830668a p999 0x411f2e797404d70e
util send 0x40396331b41c440a recv 0x40380cfbaffb10c3 bank 0x4027b8e8d256aec6
",
    );
}
