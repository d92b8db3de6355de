#![warn(missing_docs)]
//! SMC — the small-message multicast ring buffer (paper §2.3).
//!
//! SMC is a ring-buffer multicast implemented *on* the SST: each sender in a
//! subgroup owns `w` (window size) slots in its SST row. To send, a node
//! writes the message into the next slot of its own row, publishes the
//! slot's generation counter, and pushes the slot to the other members with
//! one-sided RDMA writes. A receiver detects the new message by polling the
//! slot's generation counter in its local replica. Slots are reused in ring
//! order once the message they hold has been delivered by **every** member
//! (otherwise an undelivered message could be overwritten).
//!
//! This crate contains the pure ring arithmetic and the scan/push helpers
//! shared by the baseline and Spindle-optimized engines:
//!
//! * [`Ring`] — index ↔ (slot, generation) mapping and wraparound-aware
//!   contiguous range computation (a batched send is 1 or 2 RDMA writes,
//!   §3.2's send predicate);
//! * [`scan_new`] — the receive-side slot scan ("stopping at the first
//!   empty slot", §3.2's receive predicate).
//!
//! The slot-reuse rule itself has one copy, where the runtimes run it:
//! `spindle_core`'s `SubgroupProto::try_queue_app`, which reads the round
//! the slot's previous message occupied (null rounds make it differ from
//! the message's index).

use std::ops::Range;

use spindle_sst::{SlotsCol, Sst};

/// Ring arithmetic for one sender's slot block.
///
/// Message index `k` (the `k`-th message this sender sends in the subgroup)
/// lives in slot `k % w` and carries generation `k / w + 1`; generation 0
/// means "never written". An observed header `(gen, len)` at slot `s`
/// matches index `k` iff `gen == expected_gen(k)`.
///
/// # Examples
///
/// ```
/// use spindle_smc::Ring;
///
/// let ring = Ring::new(4);
/// assert_eq!(ring.slot_of(0), 0);
/// assert_eq!(ring.slot_of(5), 1);
/// assert_eq!(ring.gen_of(0), 1);
/// assert_eq!(ring.gen_of(5), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    window: usize,
}

impl Ring {
    /// Creates ring arithmetic for a window of `w` slots.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "ring needs at least one slot");
        Ring { window }
    }

    /// The window size `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Slot holding message index `k`.
    pub fn slot_of(&self, k: u64) -> usize {
        (k % self.window as u64) as usize
    }

    /// Generation that message index `k` publishes.
    pub fn gen_of(&self, k: u64) -> u32 {
        (k / self.window as u64 + 1) as u32
    }

    /// Splits the message-index range `lo..hi` into at most two contiguous
    /// *slot* ranges (the wraparound case needs two RDMA writes, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or spans more than one window (the
    /// send predicate can never have more than `w` undelivered queued
    /// messages).
    pub fn contiguous_slot_ranges(&self, lo: u64, hi: u64) -> Vec<Range<usize>> {
        assert!(lo < hi, "empty send range");
        assert!(
            hi - lo <= self.window as u64,
            "batch {}..{} exceeds window {}",
            lo,
            hi,
            self.window
        );
        let s_lo = self.slot_of(lo);
        let count = (hi - lo) as usize;
        #[allow(clippy::single_range_in_vec_init)]
        if s_lo + count <= self.window {
            vec![s_lo..s_lo + count]
        } else {
            let first = self.window - s_lo;
            vec![s_lo..self.window, 0..count - first]
        }
    }
}

/// Receive-side slot scan: counts how many new messages from `sender_row`
/// are visible in the local replica, starting at message index
/// `next_index`, stopping at the first slot whose generation does not match
/// (the paper's "stopping at the first empty slot") or after `max_batch`
/// messages.
///
/// The baseline receive predicate calls this with `max_batch = 1`; the
/// opportunistically batched version passes `w`.
pub fn scan_new(
    sst: &Sst,
    col: SlotsCol,
    ring: Ring,
    sender_row: usize,
    next_index: u64,
    max_batch: usize,
) -> u64 {
    let mut found = 0u64;
    while (found as usize) < max_batch {
        let k = next_index + found;
        let header = sst.slot_header(col, sender_row, ring.slot_of(k));
        if header.gen != ring.gen_of(k) {
            break;
        }
        found += 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spindle_fabric::Region;
    use spindle_sst::LayoutBuilder;
    use std::sync::Arc;

    #[test]
    fn ring_slot_and_gen() {
        let r = Ring::new(3);
        let expect = [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2), (0, 3)];
        for (k, (slot, gen)) in expect.iter().enumerate() {
            assert_eq!(r.slot_of(k as u64), *slot);
            assert_eq!(r.gen_of(k as u64), *gen);
        }
    }

    #[test]
    fn contiguous_no_wrap() {
        let r = Ring::new(8);
        assert_eq!(r.contiguous_slot_ranges(2, 6), vec![2..6]);
        assert_eq!(r.contiguous_slot_ranges(0, 8), vec![0..8]);
    }

    #[test]
    fn contiguous_wraps_into_two() {
        let r = Ring::new(4);
        // Indices 6,7,8,9 -> slots 2,3,0,1.
        assert_eq!(r.contiguous_slot_ranges(6, 10), vec![2..4, 0..2]);
    }

    #[test]
    #[should_panic]
    fn batch_larger_than_window_rejected() {
        Ring::new(2).contiguous_slot_ranges(0, 3);
    }

    fn test_sst(window: usize, max_msg: usize, rows: usize) -> (Sst, SlotsCol) {
        let mut b = LayoutBuilder::new();
        let col = b.add_slots("smc", window, max_msg);
        let layout = Arc::new(b.finish(rows));
        let region = Arc::new(Region::new(layout.region_words()));
        let sst = Sst::new(layout, region, 0);
        sst.init();
        (sst, col)
    }

    #[test]
    fn scan_finds_consecutive_messages() {
        let (sst, col) = test_sst(4, 16, 1);
        let ring = Ring::new(4);
        // Own row doubles as the "sender row" in this single-node test.
        sst.write_slot(col, 0, 1, 0, b"a");
        sst.write_slot(col, 1, 1, 0, b"b");
        sst.write_slot(col, 2, 1, 0, b"c");
        assert_eq!(scan_new(&sst, col, ring, 0, 0, 100), 3);
        assert_eq!(scan_new(&sst, col, ring, 0, 1, 100), 2);
        assert_eq!(scan_new(&sst, col, ring, 0, 3, 100), 0);
    }

    #[test]
    fn scan_respects_max_batch() {
        let (sst, col) = test_sst(4, 16, 1);
        let ring = Ring::new(4);
        for i in 0..4 {
            sst.write_slot(col, i, 1, 0, b"x");
        }
        assert_eq!(scan_new(&sst, col, ring, 0, 0, 1), 1);
        assert_eq!(scan_new(&sst, col, ring, 0, 0, 2), 2);
    }

    #[test]
    fn scan_stops_at_stale_generation() {
        let (sst, col) = test_sst(2, 16, 1);
        let ring = Ring::new(2);
        // Write indices 0 and 1 (gen 1), then index 2 (slot 0, gen 2).
        sst.write_slot(col, 0, 1, 0, b"m0");
        sst.write_slot(col, 1, 1, 0, b"m1");
        sst.write_slot(col, 0, 2, 0, b"m2");
        // From index 2: slot 0 has gen 2 (match), slot 1 has gen 1 (stale).
        assert_eq!(scan_new(&sst, col, ring, 0, 2, 100), 1);
    }

    #[test]
    fn scan_sees_nulls_like_messages() {
        let (sst, col) = test_sst(4, 16, 1);
        let ring = Ring::new(4);
        sst.write_slot(col, 0, 1, 0, &[]); // null
        sst.write_slot(col, 1, 1, 0, b"app");
        assert_eq!(scan_new(&sst, col, ring, 0, 0, 100), 2);
    }

    proptest! {
        /// `(slot, gen)` is a bijection on message indices: the pair
        /// reconstructs `k` exactly, across arbitrary wraparound depth.
        /// This is the property that lets a receiver identify "message k is
        /// present" from a slot header alone.
        #[test]
        fn slot_gen_roundtrip_across_wraparound(w in 1usize..32, k in 0u64..100_000) {
            let ring = Ring::new(w);
            let (slot, gen) = (ring.slot_of(k), ring.gen_of(k));
            prop_assert!(slot < w);
            prop_assert!(gen >= 1);
            prop_assert_eq!((gen as u64 - 1) * w as u64 + slot as u64, k);
            // The previous occupant of the same slot carries a strictly
            // smaller generation, so a stale slot can never masquerade as k.
            if k >= w as u64 {
                prop_assert_eq!(ring.slot_of(k - w as u64), slot);
                prop_assert!(ring.gen_of(k - w as u64) < gen);
            }
        }

        /// `scan_new` counts exactly the consecutive visible messages from
        /// `next_index` and stops at the first slot whose generation does
        /// not match ("the first empty slot"), for arbitrary interleavings
        /// of write progress, scan origin and batch cap — including origins
        /// the sender has already lapped.
        #[test]
        fn scan_stops_at_first_stale_slot(
            w in 1usize..8,
            sent in 0u64..24,
            np_raw in 0u64..24,
            max_batch in 0usize..30,
        ) {
            let (sst, col) = test_sst(w, 16, 1);
            let ring = Ring::new(w);
            let np = np_raw.min(sent);
            // The sender writes indices 0..sent in order; each slot ends up
            // holding the last index written to it.
            let mut last = vec![None::<u64>; w];
            for k in 0..sent {
                sst.write_slot(col, ring.slot_of(k), ring.gen_of(k), k, b"m");
                last[ring.slot_of(k)] = Some(k);
            }
            // Brute-force model: count consecutive k from np whose slot
            // still holds exactly k.
            let mut expected = 0u64;
            while (expected as usize) < max_batch {
                let k = np + expected;
                if last[ring.slot_of(k)] != Some(k) {
                    break;
                }
                expected += 1;
            }
            prop_assert_eq!(scan_new(&sst, col, ring, 0, np, max_batch), expected);
        }

        /// Slot ranges from contiguous_slot_ranges cover exactly the slots
        /// of the index range, in order.
        #[test]
        fn ranges_cover_exact_slots(w in 1usize..20, lo in 0u64..100, len_raw in 1u64..20) {
            let ring = Ring::new(w);
            let len = len_raw.min(w as u64);
            let hi = lo + len;
            let ranges = ring.contiguous_slot_ranges(lo, hi);
            let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            let expected: Vec<usize> = (lo..hi).map(|k| ring.slot_of(k)).collect();
            prop_assert_eq!(covered, expected);
            prop_assert!(ranges.len() <= 2);
        }
    }
}
