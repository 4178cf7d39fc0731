//! Aggregate network statistics.

use crate::message::MsgKind;

/// Counters accumulated by a [`crate::network::Network`] across all
/// transmissions since the last reset.
///
/// Per-kind counts live in a fixed array indexed by the [`MsgKind`]
/// discriminant — no hashing on the per-message hot path, and
/// iteration order ([`NetStats::by_kind`]) is the declaration order,
/// so dumps are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Transmissions lost to fault injection: never delivered, so in
    /// no per-kind count. Always 0 on a fault-free network.
    pub dropped: u64,
    /// Messages forwarded over the links of the topology stage, a
    /// message once per hop (0 on the flat contention-free wire).
    pub link_msgs: u64,
    /// Wire bytes forwarded over the links, a message's once per hop.
    pub link_bytes: u64,
    /// Per-kind message counts, indexed by [`MsgKind::index`].
    by_kind: [u64; MsgKind::COUNT],
    /// Per-kind wire bytes, indexed by [`MsgKind::index`].
    bytes_by_kind: [u64; MsgKind::COUNT],
}

impl NetStats {
    /// Record one delivered message.
    #[inline]
    pub fn record(&mut self, kind: MsgKind, bytes: u64) {
        self.by_kind[kind.index()] += 1;
        self.bytes_by_kind[kind.index()] += bytes;
    }

    /// Messages of a given kind.
    #[inline]
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.by_kind[kind.index()]
    }

    /// Wire bytes of a given kind.
    #[inline]
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes_by_kind[kind.index()]
    }

    /// Per-kind `(kind, messages, bytes)` rows in discriminant order,
    /// skipping kinds with no traffic.
    pub fn by_kind(&self) -> impl Iterator<Item = (MsgKind, u64, u64)> + '_ {
        MsgKind::ALL
            .iter()
            .map(|&k| (k, self.by_kind[k.index()], self.bytes_by_kind[k.index()]))
            .filter(|&(_, n, _)| n > 0)
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = NetStats::default();
        s.record(MsgKind::PutData, 100);
        s.record(MsgKind::PutData, 50);
        s.record(MsgKind::Barrier, 8);
        assert_eq!(s.count(MsgKind::PutData), 2);
        assert_eq!(s.count(MsgKind::Barrier), 1);
        assert_eq!(s.count(MsgKind::GetReply), 0);
        assert_eq!(s.bytes_of(MsgKind::PutData), 150);
        assert_eq!(s.bytes_of(MsgKind::Barrier), 8);
    }

    #[test]
    fn by_kind_iterates_in_declaration_order_skipping_empty() {
        let mut s = NetStats::default();
        s.record(MsgKind::Barrier, 8);
        s.record(MsgKind::PutData, 100);
        let rows: Vec<_> = s.by_kind().collect();
        assert_eq!(rows, vec![(MsgKind::PutData, 1, 100), (MsgKind::Barrier, 1, 8)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = NetStats::default();
        s.record(MsgKind::Other, 1);
        s.clear();
        assert_eq!(s, NetStats::default());
    }
}
