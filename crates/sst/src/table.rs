//! A node's SST replica with typed, discipline-enforcing accessors.

use std::ops::Range;
use std::sync::Arc;

use spindle_fabric::Region;

use crate::layout::{CounterCol, SlotsCol, SstLayout};

/// An SMC slot header: the per-slot generation counter and the payload
/// length, packed into one atomic word so they become visible together.
///
/// `gen == 0` means the slot has never been written; the `k`-th use of a
/// slot carries `gen == k+1`, which is how a receiver detects a fresh
/// message in ring-buffer order (paper §2.3). `len == 0` with `gen > 0` is
/// a *null* message (§3.3).
///
/// # Examples
///
/// ```
/// use spindle_sst::SlotHeader;
///
/// let h = SlotHeader { gen: 3, len: 100 };
/// assert_eq!(SlotHeader::unpack(h.pack()), h);
/// assert!(!h.is_null());
/// assert!(SlotHeader { gen: 1, len: 0 }.is_null());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHeader {
    /// Ring-buffer generation (0 = empty, k-th reuse carries k+1).
    pub gen: u32,
    /// Payload length in bytes (0 = null message).
    pub len: u32,
}

impl SlotHeader {
    /// Packs into the single header word.
    pub fn pack(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.len)
    }

    /// Unpacks from the header word.
    pub fn unpack(w: u64) -> Self {
        SlotHeader {
            gen: (w >> 32) as u32,
            len: w as u32,
        }
    }

    /// Returns `true` for a null (zero-length) message.
    pub fn is_null(self) -> bool {
        self.len == 0
    }
}

/// One node's replica of the Shared State Table.
///
/// The accessors enforce the SST discipline mechanically:
///
/// * mutating methods (`set_counter`, `write_slot`, ...) only touch the
///   node's **own row** — there is no API for writing another row;
/// * counter updates assert monotonicity in debug builds (§2.2's model:
///   counters steadily increase);
/// * every mutating method returns the **absolute word range** that a push
///   must cover, so callers cannot forget what to send.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use spindle_fabric::Region;
/// use spindle_sst::{LayoutBuilder, Sst};
///
/// let mut b = LayoutBuilder::new();
/// let recv = b.add_counter("received_num", -1);
/// let layout = Arc::new(b.finish(2));
/// let region = Arc::new(Region::new(layout.region_words()));
/// let sst = Sst::new(Arc::clone(&layout), region, 0);
/// sst.init();
/// assert_eq!(sst.counter(recv, 0), -1);
/// let push = sst.set_counter(recv, 5);
/// assert_eq!(sst.counter(recv, 0), 5);
/// assert_eq!(push, layout.abs_range(0, 0..1));
/// ```
#[derive(Debug, Clone)]
pub struct Sst {
    layout: Arc<SstLayout>,
    region: Arc<Region>,
    own_row: usize,
}

impl Sst {
    /// Wraps a region as node `own_row`'s replica.
    ///
    /// # Panics
    ///
    /// Panics if the region is smaller than the layout requires or
    /// `own_row` is out of range.
    pub fn new(layout: Arc<SstLayout>, region: Arc<Region>, own_row: usize) -> Self {
        assert!(
            region.len() >= layout.region_words(),
            "region too small for layout"
        );
        assert!(own_row < layout.num_rows(), "own_row out of range");
        Sst {
            layout,
            region,
            own_row,
        }
    }

    /// The layout this replica follows.
    pub fn layout(&self) -> &Arc<SstLayout> {
        &self.layout
    }

    /// The underlying region.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// This node's row index.
    pub fn own_row(&self) -> usize {
        self.own_row
    }

    /// Initializes the local replica: every counter column in every row is
    /// set to its declared initial value (slot headers and lists stay 0).
    ///
    /// Each node runs this locally at view start; no pushes are needed
    /// because every replica initializes identically.
    pub fn init(&self) {
        for (_, col, initial) in self.layout.counters() {
            for row in 0..self.layout.num_rows() {
                self.region
                    .store(self.layout.abs_word(row, col.word), initial as u64);
            }
        }
    }

    // ---- counters ----

    /// Reads counter `col` of `row` from the local replica.
    pub fn counter(&self, col: CounterCol, row: usize) -> i64 {
        self.region.load(self.layout.abs_word(row, col.word)) as i64
    }

    /// Sets this node's own value of counter `col`; returns the absolute
    /// word range a push must cover.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` is less than the current value
    /// (counters are monotonic).
    pub fn set_counter(&self, col: CounterCol, value: i64) -> Range<usize> {
        debug_assert!(
            value >= self.counter(col, self.own_row),
            "monotonicity violated: {} -> {}",
            self.counter(col, self.own_row),
            value
        );
        let abs = self.layout.abs_word(self.own_row, col.word);
        self.region.store(abs, value as u64);
        abs..abs + 1
    }

    /// Minimum of counter `col` over the given rows (e.g. the stability
    /// frontier `min(received_num)` of the delivery predicate).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn min_counter(&self, col: CounterCol, rows: impl IntoIterator<Item = usize>) -> i64 {
        rows.into_iter()
            .map(|r| self.counter(col, r))
            .min()
            .expect("min_counter needs at least one row")
    }

    // ---- slots ----

    /// Reads the header of slot `i` in `row`'s block.
    pub fn slot_header(&self, col: SlotsCol, row: usize, i: usize) -> SlotHeader {
        SlotHeader::unpack(
            self.region
                .load(self.layout.abs_word(row, col.header_word(i))),
        )
    }

    /// Writes `payload` into own slot `i` and publishes its control words:
    /// the auxiliary word `aux` (the engine stores the message's round index
    /// there) and the header with generation `gen`. Payload and aux are
    /// written before the header, and they precede it in the slot
    /// ([`SlotsCol`]), so both locally and under the fabric's
    /// increasing-word-order placement a reader that sees the header also
    /// sees the rest. Returns the absolute word range of the full slot.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the slot's `max_msg`, or if the block
    /// is not materialized and `payload` is non-empty.
    pub fn write_slot(
        &self,
        col: SlotsCol,
        i: usize,
        gen: u32,
        aux: u64,
        payload: &[u8],
    ) -> Range<usize> {
        assert!(
            payload.len() <= col.max_msg(),
            "payload {} exceeds slot capacity {}",
            payload.len(),
            col.max_msg()
        );
        assert!(
            col.is_materialized() || payload.is_empty(),
            "cannot store payload bytes in a metadata-only slot block"
        );
        let start = col.payload_words(i).start;
        self.region
            .write_bytes(self.layout.abs_word(self.own_row, start), payload);
        self.write_slot_meta(col, i, gen, payload.len() as u32, aux)
    }

    /// Publishes only the control words of own slot `i`: aux first, then the
    /// header `(gen, len)`. The simulated runtime uses this to model sends
    /// of `len` logical bytes without materializing them.
    pub fn write_slot_meta(
        &self,
        col: SlotsCol,
        i: usize,
        gen: u32,
        len: u32,
        aux: u64,
    ) -> Range<usize> {
        self.region
            .store(self.layout.abs_word(self.own_row, col.aux_word(i)), aux);
        let header = SlotHeader { gen, len };
        let habs = self.layout.abs_word(self.own_row, col.header_word(i));
        self.region.store(habs, header.pack());
        self.layout
            .abs_range(self.own_row, col.slots_range(i, i + 1))
    }

    /// Reads the auxiliary word of slot `i` in `row`'s block.
    pub fn slot_aux(&self, col: SlotsCol, row: usize, i: usize) -> u64 {
        self.region.load(self.layout.abs_word(row, col.aux_word(i)))
    }

    /// Reads the payload of slot `i` in `row`'s block, using the length from
    /// its current header.
    pub fn read_slot(&self, col: SlotsCol, row: usize, i: usize) -> Vec<u8> {
        let header = self.slot_header(col, row, i);
        self.read_slot_with_len(col, row, i, header.len as usize)
    }

    /// Reads `len` payload bytes of slot `i` in `row`'s block.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the slot capacity.
    pub fn read_slot_with_len(&self, col: SlotsCol, row: usize, i: usize, len: usize) -> Vec<u8> {
        assert!(len <= col.max_msg(), "len exceeds slot capacity");
        assert!(
            col.is_materialized() || len == 0,
            "metadata-only slot blocks hold no payload bytes"
        );
        let start = col.payload_words(i).start;
        let mut out = vec![0u8; len];
        self.region
            .read_bytes(self.layout.abs_word(row, start), &mut out);
        out
    }

    /// Absolute word range covering own slots `lo..hi` of `col` (one
    /// batched push).
    pub fn own_slots_range(&self, col: SlotsCol, lo: usize, hi: usize) -> Range<usize> {
        self.layout.abs_range(self.own_row, col.slots_range(lo, hi))
    }

    /// Absolute one-word range of own counter `col` (for a push).
    pub fn own_counter_range(&self, col: CounterCol) -> Range<usize> {
        self.layout.abs_range(self.own_row, col.word_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;
    use proptest::prelude::*;
    use spindle_fabric::{MemFabric, NodeId, WriteOp};

    fn make_sst(rows: usize, own: usize) -> (Sst, CounterCol, SlotsCol) {
        let mut b = LayoutBuilder::new();
        let c = b.add_counter("received_num", -1);
        let s = b.add_slots("smc", 4, 30);
        let layout = Arc::new(b.finish(rows));
        let region = Arc::new(Region::new(layout.region_words()));
        let sst = Sst::new(layout, region, own);
        sst.init();
        (sst, c, s)
    }

    #[test]
    fn init_sets_counters_everywhere() {
        let (sst, c, _) = make_sst(3, 1);
        for row in 0..3 {
            assert_eq!(sst.counter(c, row), -1);
        }
    }

    #[test]
    fn set_counter_returns_push_range() {
        let (sst, c, _) = make_sst(3, 2);
        let r = sst.set_counter(c, 10);
        assert_eq!(sst.counter(c, 2), 10);
        // Row 2's counter is at abs word 2 * row_words.
        assert_eq!(r.start, 2 * sst.layout().row_words());
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn counter_regression_panics_in_debug() {
        let (sst, c, _) = make_sst(1, 0);
        sst.set_counter(c, 5);
        sst.set_counter(c, 4);
    }

    #[test]
    fn min_counter_over_rows() {
        let mut b = LayoutBuilder::new();
        let c = b.add_counter("x", 0);
        let layout = Arc::new(b.finish(3));
        let region = Arc::new(Region::new(layout.region_words()));
        // Simulate three nodes' values landing in the replica.
        region.store(layout.abs_word(0, 0), 5);
        region.store(layout.abs_word(1, 0), 3);
        region.store(layout.abs_word(2, 0), 9);
        let sst = Sst::new(layout, region, 0);
        assert_eq!(sst.min_counter(c, 0..3), 3);
        assert_eq!(sst.min_counter(c, [0, 2]), 5);
    }

    #[test]
    fn slot_write_read_roundtrip() {
        let (sst, _, s) = make_sst(2, 0);
        let payload = b"hello spindle world";
        let range = sst.write_slot(s, 2, 1, 0, payload);
        let h = sst.slot_header(s, 0, 2);
        assert_eq!(h.gen, 1);
        assert_eq!(h.len as usize, payload.len());
        assert_eq!(sst.read_slot(s, 0, 2), payload);
        // Push range covers the full slot (header + payload words).
        assert_eq!(range.len(), s.slot_words());
    }

    #[test]
    fn empty_payload_is_null() {
        let (sst, _, s) = make_sst(1, 0);
        sst.write_slot(s, 0, 7, 0, &[]);
        let h = sst.slot_header(s, 0, 0);
        assert!(h.is_null());
        assert_eq!(h.gen, 7);
        assert_eq!(sst.read_slot(s, 0, 0), Vec::<u8>::new());
    }

    #[test]
    #[should_panic]
    fn oversized_payload_rejected() {
        let (sst, _, s) = make_sst(1, 0);
        sst.write_slot(s, 0, 1, 0, &[0u8; 31]);
    }

    #[test]
    fn header_pack_unpack_extremes() {
        for h in [
            SlotHeader { gen: 0, len: 0 },
            SlotHeader {
                gen: u32::MAX,
                len: u32::MAX,
            },
            SlotHeader { gen: 1, len: 0 },
        ] {
            assert_eq!(SlotHeader::unpack(h.pack()), h);
        }
    }

    #[test]
    fn own_ranges_are_row_relative_to_owner() {
        let (sst, c, s) = make_sst(4, 3);
        let row_words = sst.layout().row_words();
        assert_eq!(sst.own_counter_range(c), 3 * row_words..3 * row_words + 1);
        let r = sst.own_slots_range(s, 1, 3);
        assert_eq!(r.len(), 2 * s.slot_words());
        assert!(r.start >= 3 * row_words);
    }

    /// Two rows over a `MemFabric`: row 0's replica writes and posts, row
    /// 1's reads its mirror of row 0.
    fn mirrored_pair(count: usize, max_msg: usize) -> (MemFabric, Sst, Sst, SlotsCol) {
        let mut b = LayoutBuilder::new();
        let slots = b.add_slots("smc", count, max_msg);
        let layout = Arc::new(b.finish(2));
        let fabric = MemFabric::new(2, layout.region_words());
        let writer = Sst::new(Arc::clone(&layout), fabric.region_arc(NodeId(0)), 0);
        let reader = Sst::new(layout, fabric.region_arc(NodeId(1)), 1);
        (fabric, writer, reader, slots)
    }

    /// The writer rewrites one slot `generations` times — generation `g`
    /// carries `patterns[g % patterns.len()]` and round word `g` — and posts
    /// it; the reader polls the header in its mirror and, on the new
    /// generation, checks the round word and every payload byte. The writer
    /// reuses the slot only after the reader's ack (the ring's reuse rule;
    /// without it a payload read races the next generation's write and no
    /// header could vouch for it), so the only race left is the order in
    /// which one post's words land. Returns the first violation.
    fn hammer_one_slot(generations: u32, patterns: &[Vec<u8>]) -> Option<String> {
        use std::sync::atomic::{AtomicU32, Ordering};

        let len = patterns[0].len();
        let pattern_of = |gen: u32| &patterns[gen as usize % patterns.len()];
        let (fabric, writer, reader, slots) = mirrored_pair(1, len);
        // The last generation the reader checked; `ABORT` releases the
        // writer after a violation so a failure reports instead of hanging.
        const ABORT: u32 = u32::MAX;
        let acked = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for gen in 1..=generations {
                    let range = writer.write_slot(slots, 0, gen, u64::from(gen), pattern_of(gen));
                    fabric.post(NodeId(0), &WriteOp::new(NodeId(1), range));
                    loop {
                        match acked.load(Ordering::Acquire) {
                            ABORT => return,
                            a if a == gen => break,
                            _ => std::hint::spin_loop(),
                        }
                    }
                }
            });
            for gen in 1..=generations {
                while reader.slot_header(slots, 0, 0).gen != gen {
                    std::hint::spin_loop();
                }
                let round = reader.slot_aux(slots, 0, 0);
                let data = reader.read_slot_with_len(slots, 0, 0, len);
                let stale = (data.iter().zip(pattern_of(gen)))
                    .filter(|(got, want)| got != want)
                    .count();
                if round != u64::from(gen) || stale != 0 {
                    acked.store(ABORT, Ordering::Release);
                    return Some(format!(
                        "header of generation {gen} visible with round {round} and {stale} \
                         payload bytes that are not its own"
                    ));
                }
                acked.store(gen, Ordering::Release);
            }
            None
        })
    }

    /// A receiver that sees a slot's header sees the whole message: 2 000
    /// generations of one 10 KiB slot, each filled with its generation's
    /// low byte.
    #[test]
    fn header_is_placed_after_the_round_and_payload_it_announces() {
        let fills: Vec<Vec<u8>> = (0..=u8::MAX).map(|b| vec![b; 10 * 1024]).collect();
        assert_eq!(hammer_one_slot(2_000, &fills), None);
    }

    /// The bulk-copy form of the fabric's
    /// `release_acquire_fencing_under_contention`: the writer alternates two
    /// distinct 10 KiB patterns through `write_slot` + `post`, and whatever
    /// generation the reader's mirror shows in the header, the payload under
    /// it is wholly that generation's pattern — `write_bytes`, the post and
    /// `read_bytes` all move words in increasing address order, header last.
    #[test]
    fn bulk_copied_slot_is_never_torn_under_its_header() {
        let pattern = |seed: u8| -> Vec<u8> {
            (0..10 * 1024usize)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect()
        };
        // Debug builds keep the tier-1 run short; CI's stress step runs the
        // full count with --release.
        let rounds = if cfg!(debug_assertions) {
            5_000
        } else {
            50_000
        };
        assert_eq!(hammer_one_slot(rounds, &[pattern(1), pattern(128)]), None);
    }

    /// `write_slot` → `post` → `read_slot_with_len` at the lengths where the
    /// word packing changes shape, on the first and the last slot of the
    /// block, with the neighbouring slot left alone.
    #[test]
    fn slot_roundtrip_through_a_post_at_word_boundaries() {
        const MAX_MSG: usize = 100;
        let (fabric, writer, reader, slots) = mirrored_pair(4, MAX_MSG);
        let bytes: Vec<u8> = (1..=MAX_MSG as u8).collect();
        let mut gen = 0;
        for slot in [0, 3] {
            for len in [0, 1, 7, 8, 9, MAX_MSG - 1, MAX_MSG] {
                gen += 1;
                let range = writer.write_slot(slots, slot, gen, 7, &bytes[..len]);
                fabric.post(NodeId(0), &WriteOp::new(NodeId(1), range));
                let h = reader.slot_header(slots, 0, slot);
                assert_eq!(
                    h,
                    SlotHeader {
                        gen,
                        len: len as u32
                    }
                );
                assert_eq!(
                    reader.read_slot_with_len(slots, 0, slot, len),
                    &bytes[..len]
                );
                assert_eq!(writer.read_slot(slots, 0, slot), &bytes[..len]);
            }
        }
        for untouched in [1, 2] {
            assert_eq!(reader.slot_header(slots, 0, untouched).gen, 0);
            assert_eq!(
                reader.read_slot_with_len(slots, 0, untouched, MAX_MSG),
                [0; MAX_MSG]
            );
        }
    }

    proptest! {
        /// Any payload survives the word packing roundtrip.
        #[test]
        fn payload_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..30), slot in 0usize..4) {
            let (sst, _, s) = make_sst(1, 0);
            sst.write_slot(s, slot, 1, 0, &payload);
            prop_assert_eq!(sst.read_slot(s, 0, slot), payload);
        }

        /// Writing one slot never disturbs its neighbors.
        #[test]
        fn slot_isolation(a in prop::collection::vec(any::<u8>(), 1..30),
                          b2 in prop::collection::vec(any::<u8>(), 1..30)) {
            let (sst, _, s) = make_sst(1, 0);
            sst.write_slot(s, 1, 1, 0, &a);
            sst.write_slot(s, 2, 1, 0, &b2);
            prop_assert_eq!(sst.read_slot(s, 0, 1), a);
            prop_assert_eq!(sst.read_slot(s, 0, 2), b2);
            prop_assert_eq!(sst.slot_header(s, 0, 0).gen, 0);
            prop_assert_eq!(sst.slot_header(s, 0, 3).gen, 0);
        }
    }
}
