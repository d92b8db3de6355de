//! Per-row word layout of the SST.
//!
//! The layout is computed once per view (the paper notes the memory layout
//! is fixed within a view so regions can be registered with the NIC up
//! front, §2.3). All protocol components address the table through the
//! typed column handles this module produces.

use std::ops::Range;

/// Handle to a one-word monotonic counter column (e.g. `received_num`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterCol {
    pub(crate) word: usize,
    pub(crate) id: usize,
}

/// Handle to a block of SMC slots for one subgroup.
///
/// Each slot is its payload area followed by two control words: an
/// auxiliary word (the multicast engine stores the message's round index
/// there) and, last, a header packing `(generation: u32, len: u32)`. The
/// header is what announces the message to a receiver, and a fabric places a
/// write in increasing word order, so a receiver that sees a slot's header
/// also sees the round and the bytes it announces.
///
/// A *non-materialized* block (see [`LayoutBuilder::add_slots_meta`])
/// allocates no payload words at all: the discrete-event backend uses this
/// to model large rings without touching gigabytes of memory, while wire
/// sizes are still accounted from the logical `max_msg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotsCol {
    pub(crate) base: usize,
    pub(crate) count: usize,
    pub(crate) slot_words: usize,
    pub(crate) max_msg: usize,
    pub(crate) materialized: bool,
    pub(crate) id: usize,
}

impl SlotsCol {
    /// Number of slots (the window size `w`).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Maximum payload bytes per slot (logical, even when not materialized).
    pub fn max_msg(&self) -> usize {
        self.max_msg
    }

    /// Words per slot including the two control words.
    pub fn slot_words(&self) -> usize {
        self.slot_words
    }

    /// Returns `true` if payload words are physically allocated.
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// Wire size of one full-slot push in bytes: both control words plus the
    /// (logical) payload area, as the paper's send predicate pushes whole
    /// slots including leftover space (§3.2).
    pub fn wire_slot_bytes(&self) -> usize {
        16 + self.max_msg.div_ceil(8) * 8
    }

    /// Row-relative word offset of slot `i`'s header.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    pub fn header_word(&self, i: usize) -> usize {
        assert!(i < self.count, "slot index out of range");
        self.base + (i + 1) * self.slot_words - 1
    }

    /// Row-relative word offset of slot `i`'s auxiliary (round) word.
    pub fn aux_word(&self, i: usize) -> usize {
        self.header_word(i) - 1
    }

    /// Row-relative word range of slot `i`'s payload area (empty when the
    /// block is not materialized).
    pub fn payload_words(&self, i: usize) -> Range<usize> {
        let h = self.header_word(i);
        h + 1 - self.slot_words..h - 1
    }

    /// Row-relative word range covering slots `lo..hi` in full — the range
    /// one batched RDMA write pushes.
    ///
    /// # Panics
    ///
    /// Panics if the slot range is empty or out of bounds.
    pub fn slots_range(&self, lo: usize, hi: usize) -> Range<usize> {
        assert!(lo < hi && hi <= self.count, "bad slot range {lo}..{hi}");
        self.base + lo * self.slot_words..self.base + hi * self.slot_words
    }
}

/// Handle to a guarded list column: a version word, a length word, and a
/// fixed-capacity array of `i64` items, all control words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListCol {
    pub(crate) base: usize,
    pub(crate) capacity: usize,
    pub(crate) id: usize,
}

impl ListCol {
    /// Maximum number of items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Row-relative word of the guard (version) counter.
    pub fn guard_word(&self) -> usize {
        self.base
    }

    /// Row-relative word of the length field.
    pub fn len_word(&self) -> usize {
        self.base + 1
    }

    /// Row-relative word range of the items array.
    pub fn items_words(&self) -> Range<usize> {
        self.base + 2..self.base + 2 + self.capacity
    }
}

#[derive(Debug, Clone)]
pub(crate) struct CounterInfo {
    pub label: String,
    pub col: CounterCol,
    pub initial: i64,
}

#[derive(Debug, Clone)]
pub(crate) struct SlotsInfo {
    pub label: String,
    pub col: SlotsCol,
}

#[derive(Debug, Clone)]
pub(crate) struct ListInfo {
    pub label: String,
    pub col: ListCol,
}

/// The complete, immutable word layout of one SST row.
///
/// # Examples
///
/// ```
/// use spindle_sst::LayoutBuilder;
///
/// let mut b = LayoutBuilder::new();
/// let recv = b.add_counter("received_num", -1);
/// let slots = b.add_slots("smc", 4, 24);
/// let layout = b.finish(3);
/// assert_eq!(layout.num_rows(), 3);
/// // 1 counter word + 4 slots of (3 payload + 2 control words).
/// assert_eq!(layout.row_words(), 1 + 4 * 5);
/// assert_eq!(layout.abs_word(2, recv.word_range().start), 2 * 21);
/// # let _ = slots;
/// ```
#[derive(Debug, Clone)]
pub struct SstLayout {
    row_words: usize,
    num_rows: usize,
    counters: Vec<CounterInfo>,
    slots: Vec<SlotsInfo>,
    lists: Vec<ListInfo>,
}

impl SstLayout {
    /// Words per row.
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Total region size in words (`rows * row_words`).
    pub fn region_words(&self) -> usize {
        self.row_words * self.num_rows
    }

    /// Converts a row-relative word offset to an absolute region offset.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `rel` is out of range.
    pub fn abs_word(&self, row: usize, rel: usize) -> usize {
        assert!(row < self.num_rows, "row out of range");
        assert!(rel < self.row_words, "word out of row range");
        row * self.row_words + rel
    }

    /// Converts a row-relative word range to an absolute region range.
    pub fn abs_range(&self, row: usize, rel: Range<usize>) -> Range<usize> {
        assert!(rel.end <= self.row_words, "range out of row bounds");
        let base = row * self.row_words;
        base + rel.start..base + rel.end
    }

    /// Registered counters as `(label, col, initial)`.
    pub fn counters(&self) -> impl Iterator<Item = (&str, CounterCol, i64)> + '_ {
        self.counters
            .iter()
            .map(|c| (c.label.as_str(), c.col, c.initial))
    }

    /// Registered slot blocks as `(label, col)`.
    pub fn slot_blocks(&self) -> impl Iterator<Item = (&str, SlotsCol)> + '_ {
        self.slots.iter().map(|s| (s.label.as_str(), s.col))
    }

    /// Registered guarded lists as `(label, col)`.
    pub fn lists(&self) -> impl Iterator<Item = (&str, ListCol)> + '_ {
        self.lists.iter().map(|l| (l.label.as_str(), l.col))
    }
}

impl CounterCol {
    /// Row-relative one-word range of this counter (what a push covers).
    pub fn word_range(&self) -> Range<usize> {
        self.word..self.word + 1
    }
}

/// Builder for [`SstLayout`]. Columns are laid out in registration order.
#[derive(Debug, Default)]
pub struct LayoutBuilder {
    next_word: usize,
    counters: Vec<CounterInfo>,
    slots: Vec<SlotsInfo>,
    lists: Vec<ListInfo>,
}

impl LayoutBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        LayoutBuilder::default()
    }

    /// Registers a one-word monotonic counter initialized to `initial`.
    pub fn add_counter(&mut self, label: impl Into<String>, initial: i64) -> CounterCol {
        let col = CounterCol {
            word: self.next_word,
            id: self.counters.len(),
        };
        self.next_word += 1;
        self.counters.push(CounterInfo {
            label: label.into(),
            col,
            initial,
        });
        col
    }

    /// Registers a block of `count` SMC slots with `max_msg` payload bytes
    /// each, with payload words physically allocated.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `max_msg == 0`.
    pub fn add_slots(
        &mut self,
        label: impl Into<String>,
        count: usize,
        max_msg: usize,
    ) -> SlotsCol {
        self.add_slots_inner(label.into(), count, max_msg, true)
    }

    /// Registers a *metadata-only* slot block: control words are allocated,
    /// payload words are not. Wire accounting still uses `max_msg`. Used by
    /// the simulated runtime, where message contents are never inspected.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `max_msg == 0`.
    pub fn add_slots_meta(
        &mut self,
        label: impl Into<String>,
        count: usize,
        max_msg: usize,
    ) -> SlotsCol {
        self.add_slots_inner(label.into(), count, max_msg, false)
    }

    fn add_slots_inner(
        &mut self,
        label: String,
        count: usize,
        max_msg: usize,
        materialized: bool,
    ) -> SlotsCol {
        assert!(count > 0 && max_msg > 0, "slots need positive dimensions");
        let payload_words = if materialized { max_msg.div_ceil(8) } else { 0 };
        let slot_words = 2 + payload_words;
        let col = SlotsCol {
            base: self.next_word,
            count,
            slot_words,
            max_msg,
            materialized,
            id: self.slots.len(),
        };
        self.next_word += count * slot_words;
        self.slots.push(SlotsInfo { label, col });
        col
    }

    /// Registers a guarded list of up to `capacity` `i64` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn add_list(&mut self, label: impl Into<String>, capacity: usize) -> ListCol {
        assert!(capacity > 0, "list needs positive capacity");
        let col = ListCol {
            base: self.next_word,
            capacity,
            id: self.lists.len(),
        };
        self.next_word += 2 + capacity;
        self.lists.push(ListInfo {
            label: label.into(),
            col,
        });
        col
    }

    /// Finalizes the layout for `num_rows` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_rows == 0` or no columns were registered.
    pub fn finish(self, num_rows: usize) -> SstLayout {
        assert!(num_rows > 0, "layout needs at least one row");
        assert!(self.next_word > 0, "layout needs at least one column");
        SstLayout {
            row_words: self.next_word,
            num_rows,
            counters: self.counters,
            slots: self.slots,
            lists: self.lists,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_pack_one_word_each() {
        let mut b = LayoutBuilder::new();
        let a = b.add_counter("a", -1);
        let c = b.add_counter("b", 0);
        let l = b.finish(2);
        assert_eq!(a.word, 0);
        assert_eq!(c.word, 1);
        assert_eq!(l.row_words(), 2);
        assert_eq!(l.region_words(), 4);
    }

    #[test]
    fn slot_geometry() {
        let mut b = LayoutBuilder::new();
        let s = b.add_slots("smc", 3, 20); // 20B payload -> 3 words
        let l = b.finish(1);
        assert_eq!(s.slot_words(), 5);
        assert_eq!(s.payload_words(0), 0..3);
        assert_eq!(s.aux_word(0), 3);
        assert_eq!(s.header_word(0), 4);
        assert_eq!(s.header_word(2), 14);
        assert_eq!(s.payload_words(1), 5..8);
        assert_eq!(s.slots_range(0, 3), 0..15);
        assert_eq!(l.row_words(), 15);
        // Wire size: 16B control + 24B payload area (rounded to words).
        assert_eq!(s.wire_slot_bytes(), 40);
        assert!(s.is_materialized());
    }

    #[test]
    fn meta_slots_have_no_payload_words() {
        let mut b = LayoutBuilder::new();
        let s = b.add_slots_meta("smc", 100, 10 * 1024);
        let l = b.finish(16);
        assert_eq!(s.slot_words(), 2);
        assert!(s.payload_words(0).is_empty());
        assert!(!s.is_materialized());
        // Memory is tiny even for a 10KB x 100 window...
        assert_eq!(l.row_words(), 200);
        // ...but wire accounting still reflects the logical slot size.
        assert_eq!(s.wire_slot_bytes(), 16 + 10 * 1024);
    }

    #[test]
    fn abs_range_offsets_by_row() {
        let mut b = LayoutBuilder::new();
        b.add_counter("x", 0);
        b.add_counter("y", 0);
        let l = b.finish(4);
        assert_eq!(l.abs_range(3, 0..2), 6..8);
    }

    #[test]
    fn list_layout() {
        let mut b = LayoutBuilder::new();
        let lst = b.add_list("trim", 5);
        let l = b.finish(1);
        assert_eq!(lst.guard_word(), 0);
        assert_eq!(lst.len_word(), 1);
        assert_eq!(lst.items_words(), 2..7);
        assert_eq!(l.row_words(), 7);
    }

    #[test]
    #[should_panic]
    fn zero_rows_rejected() {
        let mut b = LayoutBuilder::new();
        b.add_counter("a", 0);
        b.finish(0);
    }

    #[test]
    #[should_panic]
    fn empty_layout_rejected() {
        LayoutBuilder::new().finish(1);
    }

    #[test]
    fn metadata_iterators() {
        let mut b = LayoutBuilder::new();
        b.add_counter("recv", -1);
        b.add_slots("smc0", 2, 8);
        b.add_list("trim", 3);
        let l = b.finish(1);
        assert_eq!(l.counters().count(), 1);
        assert_eq!(l.slot_blocks().count(), 1);
        assert_eq!(l.lists().count(), 1);
        let (label, _, init) = l.counters().next().unwrap();
        assert_eq!(label, "recv");
        assert_eq!(init, -1);
    }
}
