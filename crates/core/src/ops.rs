//! Queued shared-memory operations and get tickets.
//!
//! As in the paper's library, `get()` and `put()` merely enqueue
//! requests on the local node; all communication happens inside
//! `sync()`. A [`GetTicket`] is the capability to read a get's result
//! — it only becomes redeemable after the next `sync()`, which is how
//! the bulk-synchrony rule "values returned by reads issued in a
//! phase cannot be used in the same phase" is enforced at runtime.

use std::marker::PhantomData;

use crate::addr::ArrayId;
use crate::word::Word;

/// A queued remote write of a contiguous global range.
#[derive(Debug, Clone, PartialEq)]
pub struct PutOp {
    /// Target array.
    pub array: ArrayId,
    /// First global index written.
    pub start: usize,
    /// Number of elements written from `start`.
    pub len: usize,
    /// The `len` elements, packed at the array's element width.
    pub data: Vec<u64>,
}

/// A queued remote read of a contiguous global range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOp {
    /// Source array.
    pub array: ArrayId,
    /// First global index read.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
    /// Ticket this read fulfills.
    pub ticket: u64,
}

/// All operations a processor queued during one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueuedOps {
    /// Remote writes, in issue order.
    pub puts: Vec<PutOp>,
    /// Remote reads, in issue order.
    pub gets: Vec<GetOp>,
}

impl QueuedOps {
    /// True when nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.puts.is_empty() && self.gets.is_empty()
    }

    /// Total elements written.
    pub fn put_elems(&self) -> u64 {
        self.puts.iter().map(|p| p.len as u64).sum()
    }

    /// Total elements read.
    pub fn get_elems(&self) -> u64 {
        self.gets.iter().map(|g| g.len as u64).sum()
    }

    /// Drain into a fresh value, leaving this one empty.
    pub fn take(&mut self) -> QueuedOps {
        std::mem::take(self)
    }
}

/// Capability to read the result of a [`GetOp`] after the next
/// `sync()`.
///
/// The ticket is intentionally **not** `Copy`/`Clone`: redeeming it
/// consumes it, so a result can be taken exactly once.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a get() that is never take()n moves data for nothing"]
pub struct GetTicket<T: Word> {
    pub(crate) id: u64,
    pub(crate) len: usize,
    pub(crate) issued_phase: u64,
    pub(crate) _elem: PhantomData<fn() -> T>,
}

impl<T: Word> GetTicket<T> {
    /// Number of elements the redeemed result will contain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the get was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_ops_counts() {
        let mut q = QueuedOps::default();
        assert!(q.is_empty());
        // Three 4-byte elements in two storage words.
        q.puts.push(PutOp { array: ArrayId(0), start: 0, len: 3, data: vec![1, 2] });
        q.gets.push(GetOp { array: ArrayId(0), start: 5, len: 7, ticket: 0 });
        assert!(!q.is_empty());
        assert_eq!(q.put_elems(), 3);
        assert_eq!(q.get_elems(), 7);
    }

    #[test]
    fn take_leaves_empty() {
        let mut q = QueuedOps::default();
        q.puts.push(PutOp { array: ArrayId(0), start: 0, len: 1, data: vec![9] });
        let t = q.take();
        assert_eq!(t.put_elems(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ticket_reports_len() {
        let t = GetTicket::<u32> { id: 1, len: 4, issued_phase: 0, _elem: PhantomData };
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }
}
