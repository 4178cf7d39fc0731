//! The open-loop transaction engine.
//!
//! Where every earlier experiment drives the network from a *phase
//! plan* (transmit a batch, barrier, repeat), this engine drives the
//! same staged delivery pipeline from a seeded **event timeline**:
//! arrivals, sends, and retries pop in global time order, and each
//! message is injected the moment it is ready
//! ([`Network::send_one`]). The network's per-node FIFO timelines
//! persist across events, so back-to-back transactions queue at NICs
//! and banks exactly as a batch would — the pipeline arithmetic is
//! shared, not re-derived.
//!
//! The timeline (`Events`) is ordered by integer keys
//! ([`event_key`]), each computed once. The offered arrivals are known
//! up front and sorted once, as plain `u128`s, into a stream. The
//! sends in flight live in an [`EventQueue`]: a first request send is
//! due a constant after its arrival, so it rides one of two FIFO lanes
//! (puts, gets) and never enters the heap; replies and retries do — a
//! heap as deep as the machine is loaded, not as the run is long, of
//! 32-byte entries. A transaction is derived ([`arrival::txn`]) once,
//! when it arrives: its sends carry what their legs read.
//!
//! A transaction's life:
//!
//! ```text
//! get:  arrive ── marshal ──> request (headers) ──wire──> shard node
//!         └ admission check       │ drop? retry w/ backoff
//!                                 v
//!                         visible + get_serve ──> bank reads value
//!                                 │                (bank_service)
//!                                 v
//!               reply (headers + value) ──wire──> origin
//!                                 │ drop? retry
//!                                 v
//!                         visible + get_apply  =  COMPLETE
//!
//! put:  arrive ── marshal ──> request (headers + value, bank-tagged)
//!                                 │   the pipeline prices the bank
//!                                 v   write during ingestion
//!                         visible + put_apply ──> ack (headers)
//!                                 │ drop? retry
//!                                 v
//!                         ack visible           =  COMPLETE
//! ```
//!
//! Losses use the machine's [`FaultConfig`] through the same keyed
//! path as the closed-loop retry protocol: leg `l` of transaction `i`
//! draws fault key [`FaultConfig::retry_key`]`(2i + l, attempt)`, so
//! the drop schedule is independent of event interleaving and of how
//! many retries any other transaction needed.

use std::iter::Peekable;
use std::vec::IntoIter;

use qsm_obs::{Histogram, Recorder};
use qsm_simnet::event::{event_key, split_key, EventQueue};
use qsm_simnet::time::Cycles;
use qsm_simnet::{FaultConfig, Injection, MsgKind, Network};

use crate::arrival::{self, Txn};
use crate::config::ServiceConfig;

/// Which wire leg of a transaction an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Origin → shard node (get request, or put data).
    Request,
    /// Shard node → origin (get reply, or put ack).
    Reply,
}

/// Attempt `attempt` (1 up to [`FaultConfig::max_attempts`]) at a leg
/// of transaction `i`, marshalled and ready for its NIC, with what its
/// legs read of the transaction: 16 bytes, as [`ServiceConfig::validate`]
/// bounds `offered`, `p` and the banks per node to these widths.
#[derive(Debug, Clone, Copy)]
struct Send {
    i: u32,
    attempt: u32,
    origin: u16,
    node: u16,
    bank: u8,
    is_get: bool,
    leg: Leg,
}

impl Send {
    /// The first request send of transaction `i`, derived as `t`.
    fn first(i: u64, t: &Txn) -> Self {
        let (origin, node, bank) = (t.origin as u16, t.node as u16, t.bank as u8);
        Self { i: i as u32, attempt: 1, origin, node, bank, is_get: t.is_get, leg: Leg::Request }
    }
}

/// One engine event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Transaction `i` arrives at its origin (admission happens here).
    Arrive(u64),
    Send(Send),
}

/// The engine's event timeline: the sorted arrival stream merged with
/// the in-flight sends.
struct Events {
    /// `event_key(arrival, i)` of every offered transaction not yet
    /// popped, ascending.
    arrivals: Peekable<IntoIter<u128>>,
    /// Lane 0 the first sends of puts, lane 1 of gets.
    sends: EventQueue<Send>,
    /// First sends their lane did not take.
    #[cfg(test)]
    lane_misses: u64,
    /// Popped sends whose carried fields differ from `arrival::txn`'s.
    #[cfg(test)]
    txn_mismatches: u64,
}

impl Events {
    fn new(cfg: &ServiceConfig) -> Self {
        let mut arrivals: Vec<u128> =
            (0..cfg.offered as u64).map(|i| event_key(arrival::arrival_time(cfg, i), i)).collect();
        arrivals.sort_unstable();
        Self {
            arrivals: arrivals.into_iter().peekable(),
            sends: EventQueue::with_lanes(2),
            #[cfg(test)]
            lane_misses: 0,
            #[cfg(test)]
            txn_mismatches: 0,
        }
    }

    /// Schedule the first request send of an admitted transaction. The
    /// arrivals pop in time order and `ready` is one constant per kind
    /// after them, so each kind's lane sees non-decreasing times.
    fn push_first(&mut self, is_get: bool, ready: Cycles, send: Send) {
        let _rode = self.sends.push_lane(is_get as usize, ready, send);
        #[cfg(test)]
        {
            self.lane_misses += u64::from(!_rode);
        }
    }

    /// The earliest event. An arrival wins a tie with a send: the
    /// arrivals are the older events (all known before any send was
    /// scheduled), and ties break oldest first.
    fn pop(&mut self) -> Option<(Cycles, Ev)> {
        let send = self.sends.peek_time();
        let due = |&a: &u128| send.is_none_or(|t| split_key(a).0 <= t);
        match self.arrivals.next_if(due).map(split_key) {
            Some((at, i)) => Some((at, Ev::Arrive(i))),
            None => self.sends.pop().map(|(t, send)| (t, Ev::Send(send))),
        }
    }
}

/// Everything a serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Transactions offered (arrivals generated).
    pub offered: u64,
    /// Transactions past admission control.
    pub admitted: u64,
    /// Transactions that completed (reply visible at the origin).
    pub completed: u64,
    /// Transactions rejected at arrival by admission control.
    pub rejected: u64,
    /// Individual wire transmissions lost to fault injection.
    pub drops: u64,
    /// Resends scheduled (every drop below the attempt cap).
    pub retries: u64,
    /// Transactions abandoned after `max_attempts` on one leg.
    pub timed_out: u64,
    /// Run length: the arrival window or the last completion,
    /// whichever is later (open-loop runs drain their queues).
    pub elapsed: Cycles,
    /// Per-transaction completion latency (arrival → reply visible),
    /// in cycles.
    pub latency: Histogram,
    /// Per-node NIC egress utilization over `elapsed`.
    pub send_util: Vec<f64>,
    /// Per-node NIC ingress utilization over `elapsed`.
    pub recv_util: Vec<f64>,
    /// Per-node memory-bank utilization over `elapsed` (averaged
    /// across the node's banks; all zero without a bank model).
    pub bank_util: Vec<f64>,
}

impl ServiceOutcome {
    /// Completed transactions per cycle.
    pub fn throughput(&self) -> f64 {
        if self.elapsed == Cycles::ZERO {
            return 0.0;
        }
        self.completed as f64 / self.elapsed.get()
    }

    /// Latency percentile in cycles (`q` in `[0, 1]`).
    pub fn latency_percentile(&self, q: f64) -> f64 {
        self.latency.percentile(q)
    }

    /// Mean of a per-node utilization vector.
    pub fn mean_util(v: &[f64]) -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Wire bytes of each leg under `cfg` (request, reply), per op kind.
fn leg_bytes(cfg: &ServiceConfig, is_get: bool) -> (u64, u64) {
    let sw = &cfg.machine.sw;
    let hdr = sw.msg_header_bytes + sw.item_header_bytes;
    if is_get {
        // Header-only request; the value rides the reply.
        (hdr, hdr + cfg.value_bytes)
    } else {
        // The value rides the request; header-only ack.
        (hdr + cfg.value_bytes, sw.msg_header_bytes)
    }
}

/// Run the open-loop scenario to completion (every admitted
/// transaction completes or times out) and report what happened.
/// Deterministic: the outcome is a pure function of `cfg`.
///
/// `obs` receives the `service_latency_cycles` histogram plus
/// `service_*` counters; pass [`Recorder::disabled`] to opt out.
pub fn run(cfg: &ServiceConfig, obs: &Recorder) -> ServiceOutcome {
    cfg.validate();
    run_events(cfg, obs, &mut Events::new(cfg))
}

/// [`run`] on a given timeline.
fn run_events(cfg: &ServiceConfig, obs: &Recorder, events: &mut Events) -> ServiceOutcome {
    let p = cfg.machine.p;
    let sw = cfg.machine.sw;
    let faults: Option<FaultConfig> = cfg.machine.net.faults;
    let mut net = Network::new(p, cfg.machine.net);

    let mut out = ServiceOutcome {
        offered: cfg.offered as u64,
        admitted: 0,
        completed: 0,
        rejected: 0,
        drops: 0,
        retries: 0,
        timed_out: 0,
        elapsed: Cycles::new(cfg.window),
        latency: Histogram::default(),
        send_util: vec![0.0; p],
        recv_util: vec![0.0; p],
        bank_util: vec![0.0; p],
    };
    let mut last_completion = Cycles::ZERO;

    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::Arrive(i) => {
                // `now` is `arrival_time(cfg, i)`, decoded bit for bit.
                let t = arrival::txn_at(cfg, i, now);
                if let Some(limit) = cfg.admission_backlog {
                    // Reject when the queues this transaction would
                    // join are already deeper than the limit: its
                    // origin NIC, or its shard's bank.
                    let nic = net.send_backlog(t.origin, now).get();
                    let bank = net.bank_backlog(t.node, t.bank, now).get();
                    if nic > limit || bank > limit {
                        out.rejected += 1;
                        continue;
                    }
                }
                out.admitted += 1;
                let marshal = if t.is_get { sw.get_request } else { sw.put_marshal };
                events.push_first(t.is_get, now + Cycles::new(marshal), Send::first(i, &t));
            }
            Ev::Send(send) => {
                #[cfg(test)]
                tests::check_carried(cfg, events, &send);
                let Send { i, attempt, is_get, leg, .. } = send;
                let (origin, node) = (usize::from(send.origin), usize::from(send.node));
                let (req_bytes, rep_bytes) = leg_bytes(cfg, is_get);
                let msg = match (leg, is_get) {
                    (Leg::Request, true) => {
                        Injection::new(origin, node, req_bytes, now, MsgKind::GetRequest)
                    }
                    // A put's value is written into its bank during
                    // ingestion — the pipeline's bank stage prices it.
                    (Leg::Request, false) => {
                        Injection::new(origin, node, req_bytes, now, MsgKind::PutData)
                            .with_bank(send.bank.into())
                    }
                    (Leg::Reply, true) => {
                        Injection::new(node, origin, rep_bytes, now, MsgKind::GetReply)
                    }
                    (Leg::Reply, false) => {
                        Injection::new(node, origin, rep_bytes, now, MsgKind::Other)
                    }
                };
                let leg_ix = 2 * u64::from(i) + (leg == Leg::Reply) as u64;
                let key = FaultConfig::retry_key(leg_ix, attempt);
                let (d, dropped) = net.send_one(&msg, Some(key));
                if dropped {
                    out.drops += 1;
                    // The fault config exists, else nothing drops.
                    let f = faults.expect("drops require a fault config");
                    match f.resend_ready(d.depart, attempt) {
                        None => out.timed_out += 1,
                        Some(ready) => {
                            out.retries += 1;
                            events.sends.push(ready, Send { attempt: attempt + 1, ..send });
                        }
                    }
                    continue;
                }
                let reply = Send { leg: Leg::Reply, attempt: 1, ..send };
                match (leg, is_get) {
                    (Leg::Request, true) => {
                        // Shard node looks the item up, then its bank
                        // streams the value out.
                        let served = d.visible + Cycles::new(sw.get_serve);
                        let read =
                            net.bank_service(node, send.bank.into(), served, cfg.value_bytes);
                        events.sends.push(read.done, reply);
                    }
                    (Leg::Request, false) => {
                        events.sends.push(d.visible + Cycles::new(sw.put_apply), reply);
                    }
                    (Leg::Reply, is_get) => {
                        let done =
                            if is_get { d.visible + Cycles::new(sw.get_apply) } else { d.visible };
                        out.completed += 1;
                        last_completion = last_completion.max(done);
                        let arrival = arrival::arrival_time(cfg, u64::from(i));
                        out.latency.observe((done - arrival).get() as u64);
                    }
                }
            }
        }
    }

    out.elapsed = Cycles::new(cfg.window).max(last_completion);
    let elapsed = out.elapsed.get();
    let banks = cfg.machine.net.banks.map_or(1, |b| b.banks_per_node) as f64;
    for node in 0..p {
        out.send_util[node] = net.send_busy_total(node).get() / elapsed;
        out.recv_util[node] = net.recv_busy_total(node).get() / elapsed;
        out.bank_util[node] = net.bank_busy_total(node).get() / (elapsed * banks);
    }

    obs.merge_histogram("service_latency_cycles", &out.latency);
    obs.add("service_offered", out.offered);
    obs.add("service_admitted", out.admitted);
    obs.add("service_completed", out.completed);
    obs.add("service_rejected", out.rejected);
    obs.add("service_drops", out.drops);
    obs.add("service_retries", out.retries);
    obs.add("service_timeouts", out.timed_out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_simnet::{BankModel, MachineConfig};

    pub(super) fn machine(p: usize) -> MachineConfig {
        let mut m = MachineConfig::paper_default(p);
        m.net.banks =
            Some(BankModel { banks_per_node: 4, service_fixed: 0.0, service_per_byte: 12.0 });
        m
    }

    fn run_quiet(cfg: &ServiceConfig) -> ServiceOutcome {
        run(cfg, &Recorder::disabled())
    }

    /// The oracle of `run_events`: count `send` in `events` if its
    /// carried fields are not what `arrival::txn` derives.
    pub(super) fn check_carried(cfg: &ServiceConfig, events: &mut Events, send: &Send) {
        let t = arrival::txn(cfg, u64::from(send.i));
        let carried = (send.origin.into(), send.node.into(), send.bank.into(), send.is_get);
        events.txn_mismatches += u64::from(carried != (t.origin, t.node, t.bank, t.is_get));
    }

    /// The timeline of `cfg` with every send through the heap.
    pub(super) fn without_lanes(cfg: &ServiceConfig) -> Events {
        Events { sends: EventQueue::new(), ..Events::new(cfg) }
    }

    #[test]
    fn an_arrival_pops_before_a_send_at_the_same_instant() {
        let cfg = ServiceConfig::new(machine(4)).with_offered(3);
        let mut events = Events::new(&cfg);
        let due: Vec<(Cycles, u64)> = events.arrivals.clone().map(split_key).collect();
        assert!(due.windows(2).all(|w| w[0] < w[1]), "the stream is sorted: {due:?}");
        // Three sends tied with the second arrival — heap, lane, heap,
        // in that order of scheduling — and one after the last arrival.
        let send = |i| Send { i, ..Send::first(0, &arrival::txn(&cfg, 0)) };
        events.sends.push(due[1].0, send(10));
        events.push_first(true, due[1].0, send(11));
        events.sends.push(due[1].0, send(12));
        events.sends.push(due[2].0 + Cycles::new(1.0), send(13));
        assert_eq!(events.lane_misses, 0);
        let popped: Vec<(Cycles, String)> = std::iter::from_fn(|| events.pop())
            .map(|(at, ev)| match ev {
                Ev::Arrive(i) => (at, format!("arrive {i}")),
                Ev::Send(s) => (at, format!("send {}", s.i)),
            })
            .collect();
        let expected = vec![
            (due[0].0, format!("arrive {}", due[0].1)),
            (due[1].0, format!("arrive {}", due[1].1)),
            (due[1].0, "send 10".to_string()),
            (due[1].0, "send 11".to_string()),
            (due[1].0, "send 12".to_string()),
            (due[2].0, format!("arrive {}", due[2].1)),
            (due[2].0 + Cycles::new(1.0), "send 13".to_string()),
        ];
        assert_eq!(popped, expected);
    }

    #[test]
    fn a_heap_entry_is_32_bytes() {
        // The queue's entry is its `u128` key and the payload (simnet's
        // `an_entry_is_its_key_and_its_payload`).
        assert_eq!(std::mem::size_of::<(u128, Send)>(), 32);
    }

    /// A run of `cfg`, and how many of its first sends missed their
    /// lane.
    fn run_counting(cfg: &ServiceConfig) -> (ServiceOutcome, u64) {
        let mut events = Events::new(cfg);
        let out = run_events(cfg, &Recorder::disabled(), &mut events);
        assert_eq!(out, run_quiet(cfg));
        assert_eq!(events.txn_mismatches, 0, "a send carried another transaction");
        (out, events.lane_misses)
    }

    #[test]
    fn every_first_send_rides_its_lane() {
        // Fault-free and overloaded: a deep backlog, admission on.
        let calm = ServiceConfig::new(machine(4)).with_window(100_000.0).with_offered(6_000);
        for cfg in [calm.clone(), calm.with_admission(20_000.0)] {
            let (out, misses) = run_counting(&cfg);
            assert_eq!(out.completed, out.admitted);
            assert_eq!(misses, 0, "a first send fell back to the heap");
        }
        // With drops the heap takes the retries beside the replies
        // (`Events::sends.push`); the first sends still all ride.
        let mut m = machine(4);
        m.net.faults = Some(FaultConfig::drops(17, 0.05));
        let (out, misses) = run_counting(&ServiceConfig::new(m).with_offered(3_000));
        assert!(out.retries > 0);
        assert_eq!(misses, 0, "a first send fell back to the heap");
    }

    #[test]
    fn zero_offered_is_an_empty_run() {
        let out = run_quiet(&ServiceConfig::new(machine(4)));
        assert_eq!(out.completed, 0);
        assert_eq!(out.latency.count, 0);
        assert_eq!(out.elapsed, Cycles::new((1u64 << 21) as f64));
        assert!(out.send_util.iter().all(|&u| u == 0.0));
    }

    #[test]
    fn light_load_completes_everything_deterministically() {
        let cfg = ServiceConfig::new(machine(4)).with_offered(200);
        let a = run_quiet(&cfg);
        let b = run_quiet(&cfg);
        assert_eq!(a, b, "the outcome must be a pure function of the config");
        assert_eq!(a.completed, 200);
        assert_eq!(a.admitted, 200);
        assert_eq!(a.rejected, 0);
        assert_eq!(a.latency.count, 200);
        // An uncontended get costs at least two one-way wire trips.
        assert!(a.latency.min as f64 >= 2.0 * cfg.machine.net.latency);
        assert!(a.send_util.iter().all(|&u| (0.0..1.0).contains(&u)));
        assert!(a.bank_util.iter().any(|&u| u > 0.0), "banks must see work");
    }

    #[test]
    fn p99_latency_is_monotone_in_offered_load() {
        let base = ServiceConfig::new(machine(4)).with_window(200_000.0);
        let mut last = 0.0;
        for offered in [100usize, 400, 1600] {
            let out = run_quiet(&base.clone().with_offered(offered));
            let p99 = out.latency_percentile(0.99);
            assert!(p99 >= last, "p99 fell from {last} to {p99} when load rose to {offered}");
            last = p99;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn overload_saturates_a_resource_and_throughput_plateaus() {
        let base = ServiceConfig::new(machine(2)).with_window(100_000.0);
        let sat = run_quiet(&base.clone().with_offered(4_000));
        let more = run_quiet(&base.clone().with_offered(8_000));
        // Elapsed stretches past the window: the queue drains after
        // arrivals stop.
        assert!(sat.elapsed.get() > 100_000.0);
        let peak = |o: &ServiceOutcome| {
            o.send_util
                .iter()
                .chain(&o.recv_util)
                .chain(&o.bank_util)
                .fold(0.0f64, |a, &b| a.max(b))
        };
        assert!(peak(&sat) > 0.9, "some engine must saturate: {}", peak(&sat));
        // Open loop at 2x the load: throughput (per cycle) cannot rise
        // materially — the bottleneck is already pinned.
        assert!(more.throughput() < sat.throughput() * 1.05);
    }

    #[test]
    fn admission_control_rejects_under_pressure_and_caps_latency() {
        let base = ServiceConfig::new(machine(2)).with_window(100_000.0).with_offered(6_000);
        let open = run_quiet(&base);
        let gated = run_quiet(&base.clone().with_admission(20_000.0));
        assert_eq!(gated.rejected + gated.admitted, gated.offered);
        assert!(gated.rejected > 0, "overload must trip admission control");
        assert!(
            gated.latency_percentile(0.99) < open.latency_percentile(0.99),
            "shedding load must cut tail latency"
        );
    }

    #[test]
    fn faults_retry_until_delivered_and_are_deterministic() {
        let mut m = machine(4);
        m.net.faults = Some(FaultConfig::drops(17, 0.2));
        let cfg = ServiceConfig::new(m).with_offered(300);
        let a = run_quiet(&cfg);
        let b = run_quiet(&cfg);
        assert_eq!(a, b);
        assert!(a.drops > 0, "a 20% drop rate must lose messages");
        assert_eq!(a.retries, a.drops - a.timed_out);
        assert_eq!(a.completed + a.timed_out, a.admitted);
        assert_eq!(a.timed_out, 0, "64 attempts at p=0.2 never all fail");
    }

    #[test]
    fn a_leg_counts_its_attempts_past_a_byte() {
        // At 99.9 % drops a leg needs ~1000 attempts: a third of the
        // legs deliver within 400, the rest give up exactly there (an
        // attempt count that wrapped would never reach 400).
        let mut m = machine(2);
        let f = FaultConfig { max_attempts: 400, ..FaultConfig::drops(5, 0.999) };
        m.net.faults = Some(f.with_retry_timeout(1.0));
        let out = run_counting(&ServiceConfig::new(m).with_offered(40)).0;
        assert!(out.completed > 0 && out.timed_out > 0, "{out:?}");
        assert_eq!(out.retries, out.drops - out.timed_out);
        assert_eq!(out.completed + out.timed_out, out.admitted);
    }

    #[test]
    fn recorder_sees_the_latency_histogram_and_counters() {
        let obs = Recorder::new(qsm_obs::ObsLevel::Metrics, 400e6);
        let cfg = ServiceConfig::new(machine(2)).with_offered(50);
        let out = run(&cfg, &obs);
        let json = obs.take_metrics_json().expect("metrics enabled");
        assert!(json.contains("service_latency_cycles"));
        assert!(json.contains("\"service_completed\": 50"));
        assert_eq!(out.completed, 50);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qsm_simnet::{MachineConfig, TopologyKind};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A lane is a hint: the run is the same with none.
        #[test]
        fn lanes_change_nothing_but_speed(
            shape in (0usize..3, proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            gets in 0usize..4,
            offered in 0usize..2_000,
            seed in any::<u64>(),
        ) {
            let (p, torus, drops, admission) = shape;
            let p = [2, 4, 16][p];
            let mut m = super::tests::machine(p);
            if torus {
                m = m.with_topology(TopologyKind::torus(p));
            }
            if drops {
                m.net.faults = Some(FaultConfig::drops(seed ^ 17, 0.2));
            }
            let mut cfg = ServiceConfig::new(m)
                .with_seed(seed)
                .with_window(150_000.0)
                .with_offered(offered);
            cfg.get_fraction = [0.0, 0.125, 0.875, 1.0][gets];
            if admission {
                cfg = cfg.with_admission(20_000.0);
            }
            cfg.validate();
            let obs = Recorder::disabled();
            let mut with_lanes = Events::new(&cfg);
            let laned = run_events(&cfg, &obs, &mut with_lanes);
            let mut heap_only = super::tests::without_lanes(&cfg);
            let plain = run_events(&cfg, &obs, &mut heap_only);
            prop_assert_eq!(heap_only.lane_misses, plain.admitted, "no lane, so none may ride");
            // Every send carried its transaction as `arrival::txn` derives it.
            prop_assert_eq!((with_lanes.txn_mismatches, heap_only.txn_mismatches), (0, 0));
            prop_assert_eq!(laned, plain);
        }

        /// No validated configuration reaches `event_key`'s panics (a
        /// negative or NaN time), and every run conserves transactions.
        #[test]
        fn every_validated_config_runs_and_conserves(
            shape in (0usize..3, proptest::bool::ANY, proptest::bool::ANY),
            window_log2 in 0.0f64..40.0,
            draws in (0usize..3, 0usize..3, 0usize..3, 0.0f64..1.0, 0.0f64..1e6),
            offered in 0usize..400,
            seed in any::<u64>(),
        ) {
            let (p, torus, drops) = shape;
            let (gets, value, admission, fraction, backlog) = draws;
            let p = [2, 4, 16][p];
            let mut m = super::tests::machine(p);
            if torus {
                m = m.with_topology(TopologyKind::torus(p));
            }
            if drops {
                m.net.faults = Some(FaultConfig::drops(seed, 0.5));
            }
            let mut cfg = ServiceConfig::new(m)
                .with_seed(seed)
                .with_window(window_log2.exp2())
                .with_offered(offered);
            cfg.get_fraction = [0.0, 1.0, fraction][gets];
            cfg.value_bytes = [0, 1, 1 << 20][value];
            cfg.admission_backlog = [None, Some(0.0), Some(backlog)][admission];
            let out = run(&cfg, &Recorder::disabled());
            prop_assert_eq!(out.admitted + out.rejected, out.offered);
            prop_assert_eq!(out.completed + out.timed_out, out.admitted);
            prop_assert_eq!(out.retries, out.drops - out.timed_out);
            prop_assert_eq!(out.latency.count, out.completed);
        }

        /// Sorting the packed keys is sorting the `(arrival, i)` pairs.
        #[test]
        fn the_key_sorted_stream_is_the_tuple_sorted_stream(
            seed in any::<u64>(),
            window in 1.0f64..1e9,
            offered in 0usize..3_000,
        ) {
            let cfg = ServiceConfig::new(MachineConfig::paper_default(4))
                .with_seed(seed)
                .with_window(window)
                .with_offered(offered);
            let mut pairs: Vec<(Cycles, u64)> =
                (0..offered as u64).map(|i| (arrival::arrival_time(&cfg, i), i)).collect();
            pairs.sort_unstable();
            let stream: Vec<(Cycles, u64)> = Events::new(&cfg).arrivals.map(split_key).collect();
            prop_assert_eq!(stream, pairs);
        }
    }
}
