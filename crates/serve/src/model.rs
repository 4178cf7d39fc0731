//! Utilization-model predictions for a serving scenario.
//!
//! The open-loop engine measures; this module predicts, with the same
//! style of back-of-envelope arithmetic the QSM cost model applies to
//! phases. Under uniform hashing each node originates and serves
//! `λ/p` transactions per cycle (`λ = offered / window`), so each
//! per-node resource's utilization is its per-transaction busy time
//! times that rate:
//!
//! ```text
//! ρ_send = λ/p · E[send_busy(request) + send_busy(reply)]
//! ρ_recv = λ/p · E[recv_busy(request) + recv_busy(reply)]
//! ρ_bank = λ/p · E[bank work per txn] / banks_per_node
//! ```
//!
//! (expectations over the get/put mix). The knee prediction is then
//! the M/D/1-flavored capacity bound: throughput tracks the offered
//! load while `ρ_max < 1` and plateaus at `λ / ρ_max` beyond it —
//! an open-loop system cannot complete work faster than its busiest
//! FIFO drains. The `ext_service` figure plots these columns next to
//! the engine's measurements; where they part ways (deep tails near
//! the knee) is exactly the contention the QSM model abstracts away.

use crate::config::ServiceConfig;

/// Model-predicted utilizations and throughput at one offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Offered transaction rate, transactions per cycle.
    pub lambda: f64,
    /// Predicted per-node NIC egress utilization (uncapped: values
    /// above 1 mean the send engine is the saturating resource).
    pub rho_send: f64,
    /// Predicted per-node NIC ingress utilization (uncapped).
    pub rho_recv: f64,
    /// Predicted per-bank utilization (uncapped; 0 without banks).
    pub rho_bank: f64,
    /// Sustainable transaction rate (per cycle): the load at which
    /// the busiest resource reaches `ρ = 1`.
    pub capacity: f64,
    /// Predicted completed-transaction rate: `min(λ, capacity)`.
    pub throughput: f64,
}

impl Prediction {
    /// The largest of the three resource utilizations.
    pub fn rho_max(&self) -> f64 {
        self.rho_send.max(self.rho_recv).max(self.rho_bank)
    }

    /// The saturating resource's name (ties broken send, recv, bank).
    pub fn bottleneck(&self) -> &'static str {
        let m = self.rho_max();
        if self.rho_send >= m {
            "send"
        } else if self.rho_recv >= m {
            "recv"
        } else {
            "bank"
        }
    }
}

/// Predict utilizations and throughput for `cfg` at its configured
/// offered load.
pub fn predict(cfg: &ServiceConfig) -> Prediction {
    let net = &cfg.machine.net;
    let sw = &cfg.machine.sw;
    let p = cfg.machine.p as f64;
    let lambda = cfg.offered as f64 / cfg.window;
    let per_node = lambda / p;

    let gf = cfg.get_fraction;
    let pf = 1.0 - gf;
    let hdr = sw.msg_header_bytes + sw.item_header_bytes;
    let get_req = hdr;
    let get_rep = hdr + cfg.value_bytes;
    let put_req = hdr + cfg.value_bytes;
    let put_ack = sw.msg_header_bytes;

    // Each transaction's two legs touch one send engine and one
    // receive engine apiece; under uniform hashing both land on a
    // given node at rate λ/p regardless of which side it plays.
    let send_per_txn = gf * (net.send_busy(get_req) + net.send_busy(get_rep)).get()
        + pf * (net.send_busy(put_req) + net.send_busy(put_ack)).get();
    let recv_per_txn = gf * (net.recv_busy(get_req) + net.recv_busy(get_rep)).get()
        + pf * (net.recv_busy(put_req) + net.recv_busy(put_ack)).get();

    // Bank work: a get streams the value out (`bank_service`); a put's
    // bank-tagged request is serviced at its full wire size.
    let (bank_per_txn, banks) = match net.banks {
        Some(bk) => (
            gf * bk.service(cfg.value_bytes).get() + pf * bk.service(put_req).get(),
            bk.banks_per_node as f64,
        ),
        None => (0.0, 1.0),
    };

    let rho_send = per_node * send_per_txn;
    let rho_recv = per_node * recv_per_txn;
    let rho_bank = per_node * bank_per_txn / banks;

    let busiest = (send_per_txn.max(recv_per_txn).max(bank_per_txn / banks)) / p;
    let capacity = if busiest > 0.0 { 1.0 / busiest } else { f64::INFINITY };
    Prediction { lambda, rho_send, rho_recv, rho_bank, capacity, throughput: lambda.min(capacity) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, ServiceOutcome};
    use qsm_obs::Recorder;
    use qsm_simnet::{BankModel, MachineConfig};

    fn machine(p: usize) -> MachineConfig {
        let mut m = MachineConfig::paper_default(p);
        m.net.banks =
            Some(BankModel { banks_per_node: 4, service_fixed: 0.0, service_per_byte: 12.0 });
        m
    }

    #[test]
    fn rho_scales_linearly_with_load() {
        let base = ServiceConfig::new(machine(8));
        let a = predict(&base.clone().with_offered(1_000));
        let b = predict(&base.with_offered(2_000));
        assert!((b.rho_send - 2.0 * a.rho_send).abs() < 1e-12);
        assert!((b.rho_recv - 2.0 * a.rho_recv).abs() < 1e-12);
        assert!((b.rho_bank - 2.0 * a.rho_bank).abs() < 1e-12);
        assert_eq!(a.capacity, b.capacity, "capacity is load-independent");
    }

    #[test]
    fn throughput_caps_at_capacity() {
        let base = ServiceConfig::new(machine(4)).with_window(100_000.0);
        let under = predict(&base.clone().with_offered(10));
        assert_eq!(under.throughput, under.lambda);
        // Far past capacity the prediction pins to it.
        let over = predict(&base.with_offered(1_000_000));
        assert!(over.lambda > over.capacity);
        assert_eq!(over.throughput, over.capacity);
        assert!(over.rho_max() > 1.0);
    }

    #[test]
    fn predictions_track_measured_utilization_below_saturation() {
        // At modest load the engine's measured utilizations should sit
        // near the model's — same busy accounting, same rates.
        let cfg = ServiceConfig::new(machine(4)).with_window(2_000_000.0).with_offered(2_000);
        let pred = predict(&cfg);
        assert!(pred.rho_max() < 0.8, "pick a load below the knee: {pred:?}");
        let out = engine::run(&cfg, &Recorder::disabled());
        let send = ServiceOutcome::mean_util(&out.send_util);
        let recv = ServiceOutcome::mean_util(&out.recv_util);
        let bank = ServiceOutcome::mean_util(&out.bank_util);
        assert!((send - pred.rho_send).abs() < 0.05, "send {send} vs {}", pred.rho_send);
        assert!((recv - pred.rho_recv).abs() < 0.05, "recv {recv} vs {}", pred.rho_recv);
        assert!((bank - pred.rho_bank).abs() < 0.05, "bank {bank} vs {}", pred.rho_bank);
        let measured = out.throughput();
        assert!(measured > 0.0, "work completed");
        let err = (pred.throughput - measured).abs() / measured;
        assert!(err < 0.05, "throughput prediction off by {err}");
    }

    #[test]
    fn bottleneck_names_the_busiest_resource() {
        let cfg = ServiceConfig::new(machine(4)).with_offered(1_000);
        let pred = predict(&cfg);
        let name = pred.bottleneck();
        assert!(["send", "recv", "bank"].contains(&name));
        let named = match name {
            "send" => pred.rho_send,
            "recv" => pred.rho_recv,
            _ => pred.rho_bank,
        };
        assert_eq!(named, pred.rho_max());
    }
}
