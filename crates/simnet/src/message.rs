//! Message descriptors handed to the network.

use crate::time::Cycles;

/// What a message carries — used for statistics and tracing only;
/// the network model treats all kinds identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Bulk `put` payload (data pushed to its destination).
    PutData = 0,
    /// `get` request (addresses only).
    GetRequest = 1,
    /// `get` reply (requested data).
    GetReply = 2,
    /// Communication-plan exchange.
    Plan = 3,
    /// Barrier round token.
    Barrier = 4,
    /// Anything else (microbenchmarks, tests).
    Other = 5,
}

impl MsgKind {
    /// Number of kinds — the length of a per-kind table.
    pub const COUNT: usize = 6;

    /// All kinds, in discriminant order.
    pub const ALL: [MsgKind; MsgKind::COUNT] = [
        MsgKind::PutData,
        MsgKind::GetRequest,
        MsgKind::GetReply,
        MsgKind::Plan,
        MsgKind::Barrier,
        MsgKind::Other,
    ];

    /// Dense index of this kind (its discriminant), for indexing
    /// per-kind tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One message to transmit: `bytes` from `src` to `dst`, becoming
/// available for injection at `ready` (typically the moment the
/// sending node's software finished marshalling it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Total wire size in bytes (payload + headers).
    pub bytes: u64,
    /// Earliest injection time.
    pub ready: Cycles,
    /// Payload classification.
    pub kind: MsgKind,
    /// Destination memory bank, when the network's opt-in
    /// [`crate::config::BankModel`] stage should queue this message
    /// at a bank after ingestion. `None` (control traffic) bypasses
    /// the bank stage even when the model is installed.
    pub bank: Option<u32>,
}

impl Injection {
    /// Convenience constructor (no destination bank).
    pub fn new(src: usize, dst: usize, bytes: u64, ready: Cycles, kind: MsgKind) -> Self {
        Self { src, dst, bytes, ready, kind, bank: None }
    }

    /// Builder: route this message through destination bank `bank`
    /// (meaningful only when the network config installs a
    /// [`crate::config::BankModel`]).
    pub fn with_bank(mut self, bank: u32) -> Self {
        self.bank = Some(bank);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_ordered() {
        for (i, k) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(MsgKind::ALL.len(), MsgKind::COUNT);
    }

    #[test]
    fn construction_round_trips() {
        let m = Injection::new(1, 2, 64, Cycles::new(10.0), MsgKind::PutData);
        assert_eq!(m.src, 1);
        assert_eq!(m.dst, 2);
        assert_eq!(m.bytes, 64);
        assert_eq!(m.ready.get(), 10.0);
        assert_eq!(m.kind, MsgKind::PutData);
        assert_eq!(m.bank, None);
        assert_eq!(m.with_bank(3).bank, Some(3));
    }
}
