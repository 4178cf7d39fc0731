//! The per-process calibration memo (`qsm_core::calibrate`): equal
//! configurations are measured once, the key is the whole
//! `(MachineConfig, words)`, and neither a hit nor a miss is visible
//! to an installed recorder.
//!
//! An integration test so that it owns its process: it installs the
//! ambient recorder, and it needs keys no other test has warmed. Each
//! test below measures machines of its own (`p` differs).

use std::sync::Barrier;
use std::time::Instant;

use qsm_core::obs::{self, ObsLevel, Recorder};
use qsm_core::{EffectiveCosts, SimMachine};
use qsm_simnet::{MachineConfig, SoftwareConfig};

const WORDS: usize = 256;

fn bits(c: EffectiveCosts) -> [u64; 3] {
    [c.g_put, c.g_get, c.l_sync].map(f64::to_bits)
}

#[test]
fn an_equal_config_is_measured_once_and_never_observed() {
    let rec = Recorder::new(ObsLevel::Metrics, 400e6);
    assert!(obs::install(rec.clone()), "this file is the only installer in its process");
    let phases = || rec.take().expect("enabled").metrics.counter("phases");

    let cfg = MachineConfig::paper_default(4);
    let t = Instant::now();
    let miss = EffectiveCosts::measure_with(cfg, WORDS);
    let miss_time = t.elapsed();
    assert_eq!(phases(), 0, "the calibration runs of a miss reached the recorder");

    // Equal by value, not the same binding; best of five so that one
    // descheduling cannot make a table scan look like four sim runs.
    let hit_time = (0..5)
        .map(|_| {
            let t = Instant::now();
            let hit = EffectiveCosts::measure_with(MachineConfig::paper_default(4), WORDS);
            assert_eq!(bits(hit), bits(miss));
            t.elapsed()
        })
        .min()
        .unwrap();
    assert_eq!(phases(), 0);
    assert!(hit_time * 4 < miss_time, "a hit took {hit_time:?}, the measurement {miss_time:?}");
    // `measure` is `measure_with` at the default stream length.
    assert_eq!(
        bits(EffectiveCosts::measure(MachineConfig::paper_default(2))),
        bits(EffectiveCosts::measure_with(MachineConfig::paper_default(2), 8192))
    );
    assert_eq!(phases(), 0);

    // The recorder was live all along: an ordinary run does count.
    SimMachine::new(cfg).run(|ctx| ctx.sync());
    assert_eq!(phases(), 1);
}

#[test]
fn one_software_field_or_the_stream_length_is_a_different_key() {
    let base = MachineConfig::paper_default(3);
    let mut sw = SoftwareConfig::calibrated();
    sw.put_marshal *= 2.0;
    let heavy = base.with_software(sw);

    let a = EffectiveCosts::measure_with(base, WORDS);
    let b = EffectiveCosts::measure_with(heavy, WORDS);
    assert!(b.g_put > a.g_put, "{b:?} was served {a:?}'s entry");
    assert_eq!(bits(b), bits(EffectiveCosts::measure_uncached(heavy, WORDS)));

    let longer = EffectiveCosts::measure_with(base, 2 * WORDS);
    assert_ne!(bits(longer), bits(a), "the stream length is not in the key");
    assert_eq!(bits(longer), bits(EffectiveCosts::measure_uncached(base, 2 * WORDS)));
    // Neither insertion displaced the first entry.
    assert_eq!(bits(EffectiveCosts::measure_with(base, WORDS)), bits(a));
}

#[test]
fn racing_first_calls_agree() {
    let cfg = MachineConfig::paper_default(5);
    let start = Barrier::new(4);
    let got: Vec<EffectiveCosts> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    EffectiveCosts::measure_with(cfg, WORDS)
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("a caller panicked")).collect()
    });
    let want = bits(EffectiveCosts::measure_uncached(cfg, WORDS));
    for c in got {
        assert_eq!(bits(c), want);
    }
    assert_eq!(bits(EffectiveCosts::measure_with(cfg, WORDS)), want);
}
