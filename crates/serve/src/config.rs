//! Configuration of one open-loop serving run.

use qsm_simnet::MachineConfig;

/// One serving scenario: a population of logical clients issuing
/// get/put transactions against values hash-sharded across the
/// machine's nodes, at a fixed offered load over a fixed arrival
/// window.
///
/// The arrival process is *open-loop*: transaction `i`'s arrival time
/// is a pure function of `(seed, i)`, uniform over `[0, window)`, so
/// arrivals never slow down when the system congests — exactly the
/// regime where queues grow and the QSM model's contention-freeness
/// stops holding. Because each transaction is keyed by its index, a
/// run at a *lower* offered load (fewer transactions, same seed and
/// window) sees a strict subset of a higher-load run's transactions,
/// with identical arrival times: added load can only add queueing.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The machine the transactions run against. Its bank model
    /// prices value reads/writes; its fault model (if any) drops
    /// request/reply legs, which the engine retries with the bounded
    /// exponential backoff of
    /// [`qsm_simnet::FaultConfig::retry_timeout`].
    pub machine: MachineConfig,
    /// Logical client population; clients are hashed onto origin
    /// nodes. Millions of clients map onto `p` nodes — the client id
    /// only seeds the hash, so the population costs nothing.
    pub clients: u64,
    /// Hash shards the key space is partitioned into; shard `s` lives
    /// on node `s % p`. Must be at least `p` so every node serves.
    pub shards: usize,
    /// Stored value size in bytes (the payload a get returns and a
    /// put carries).
    pub value_bytes: u64,
    /// Fraction of transactions that are gets (the rest are puts).
    pub get_fraction: f64,
    /// Arrival window in cycles: all transactions arrive within
    /// `[0, window)`.
    pub window: f64,
    /// Number of transactions arriving within the window. Offered
    /// load (transactions per cycle) is `offered / window`.
    pub offered: usize,
    /// Admission control: reject a newly arriving transaction when
    /// its origin NIC's or its destination bank's backlog already
    /// extends more than this many cycles past the arrival (`None` =
    /// admit everything; queues then grow without bound above
    /// saturation).
    pub admission_backlog: Option<f64>,
    /// Seed every per-transaction draw derives from.
    pub seed: u64,
}

impl ServiceConfig {
    /// A serving scenario over `machine` with the defaults the
    /// `ext_service` experiment sweeps: a million clients, 64 shards
    /// per node, 256-byte values, 7/8 gets, no admission control.
    pub fn new(machine: MachineConfig) -> Self {
        let shards = machine.p * 64;
        Self {
            machine,
            clients: 1_000_000,
            shards,
            value_bytes: 256,
            get_fraction: 0.875,
            window: (1u64 << 21) as f64,
            offered: 0,
            admission_backlog: None,
            seed: 0x5E1_F00D,
        }
        .validated()
    }

    /// Builder: set the offered load (transactions in the window).
    pub fn with_offered(mut self, offered: usize) -> Self {
        self.offered = offered;
        self
    }

    /// Builder: set the arrival window (cycles).
    pub fn with_window(mut self, window: f64) -> Self {
        self.window = window;
        self.validated()
    }

    /// Builder: enable admission control at `backlog` cycles.
    pub fn with_admission(mut self, backlog: f64) -> Self {
        self.admission_backlog = Some(backlog);
        self.validated()
    }

    /// Builder: set the arrival-process seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validated(self) -> Self {
        self.validate();
        self
    }

    /// Check invariants; panics on an unusable configuration. (The
    /// engine carries an index in 32 bits, a node in 16, a bank in 8.)
    pub fn validate(&self) {
        assert!(self.clients >= 1, "need at least one client");
        let (p, offered) = (self.machine.p, self.offered);
        assert!(p <= 1 << 16, "p must be at most 65 536: {p}");
        let banks = self.machine.net.banks.map_or(1, |b| b.banks_per_node);
        assert!(banks <= 1 << 8, "banks_per_node must be at most 256: {banks}");
        assert!(offered <= u32::MAX as usize, "offered must be at most u32::MAX: {offered}");
        assert!(
            self.shards >= self.machine.p,
            "shards ({}) must cover every node (p = {})",
            self.shards,
            self.machine.p
        );
        assert!(
            (0.0..=1.0).contains(&self.get_fraction),
            "get_fraction must be a fraction: {}",
            self.get_fraction
        );
        assert!(
            self.window.is_finite() && self.window > 0.0,
            "window must be a positive cycle count: {}",
            self.window
        );
        if let Some(b) = self.admission_backlog {
            assert!(b.is_finite() && b >= 0.0, "admission backlog must be non-negative: {b}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsm_simnet::BankModel;

    #[test]
    fn defaults_are_valid_and_scale_shards_with_p() {
        let c = ServiceConfig::new(MachineConfig::paper_default(16));
        assert_eq!(c.shards, 16 * 64);
        assert!(c.admission_backlog.is_none());
        c.validate();
    }

    #[test]
    #[should_panic]
    fn too_few_shards_rejected() {
        let mut c = ServiceConfig::new(MachineConfig::paper_default(8));
        c.shards = 4;
        c.validate();
    }

    #[test]
    #[should_panic]
    fn non_finite_window_rejected() {
        let _ = ServiceConfig::new(MachineConfig::paper_default(2)).with_window(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "need at least one client")]
    fn zero_clients_rejected() {
        let mut c = ServiceConfig::new(MachineConfig::paper_default(2));
        c.clients = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "get_fraction must be a fraction: 1.5")]
    fn get_fraction_above_one_rejected() {
        let mut c = ServiceConfig::new(MachineConfig::paper_default(2));
        c.get_fraction = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "admission backlog must be non-negative: -1")]
    fn negative_admission_backlog_rejected() {
        let _ = ServiceConfig::new(MachineConfig::paper_default(2)).with_admission(-1.0);
    }

    #[test]
    fn the_widest_machine_and_bank_count_are_accepted() {
        let m = MachineConfig::paper_default(1 << 16).with_banks(BankModel::per_message(256, 0.0));
        let c = ServiceConfig::new(m).with_offered(u32::MAX as usize);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "p must be at most 65 536: 65537")]
    fn p_past_a_u16_node_rejected() {
        let _ = ServiceConfig::new(MachineConfig::paper_default((1 << 16) + 1));
    }

    #[test]
    #[should_panic(expected = "banks_per_node must be at most 256: 257")]
    fn banks_past_a_u8_bank_rejected() {
        let m = MachineConfig::paper_default(2).with_banks(BankModel::per_message(257, 0.0));
        let _ = ServiceConfig::new(m);
    }

    #[test]
    #[should_panic(expected = "offered must be at most u32::MAX: 4294967296")]
    fn offered_past_a_u32_index_rejected() {
        let c = ServiceConfig::new(MachineConfig::paper_default(2));
        c.with_offered(u32::MAX as usize + 1).validate();
    }
}
