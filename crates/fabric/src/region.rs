//! Registered memory regions with RDMA placement semantics.
//!
//! Words move one at a time through [`Region::load`] / [`Region::store`]
//! (counters, slot headers) or in bulk: [`Region::apply_write`],
//! [`Region::snapshot`] and [`Region::copy_range_from`] move word ranges
//! (a posted write), [`Region::write_bytes`] and [`Region::read_bytes`] move
//! a message's payload bytes into and out of a slot. Every one of them obeys
//! the memory model on [`Region`]: each word is stored `Release` and loaded
//! `Acquire`, in increasing address order. The bulk forms slice the range
//! once — one bounds check for the whole transfer, not one per word.

use std::sync::atomic::{AtomicU64, Ordering};

/// A registered memory region: a fixed array of 8-byte words.
///
/// Each node's full replica of the SST is one `Region`. The region is
/// allocated once per view (the paper notes the memory layout is fixed for
/// the lifetime of a view, §2.3) and never grows.
///
/// # Memory model
///
/// The region reproduces the RDMA guarantees Derecho's SST relies on
/// (paper §2.2):
///
/// * **Word atomicity** — all words are `AtomicU64`; readers never observe a
///   torn 8-byte value (the paper relies on cache-line atomicity; every SST
///   scalar fits in one word here).
/// * **Fencing / in-order placement** — [`Region::apply_write`] stores words
///   in increasing address order, using `Release` ordering on every store,
///   and reads are `Acquire`. A reader that observes a later word of a write
///   therefore also observes all earlier words of that write and of every
///   previously applied write — the "if you see the second update you also
///   see the first" guarantee used by the guarded-data protocol.
///   [`Region::write_bytes`] and [`Region::read_bytes`] place and read a
///   payload under the same rule, so a slot header stored after a
///   `write_bytes` guards every byte of it.
///
/// # Examples
///
/// ```
/// use spindle_fabric::Region;
///
/// let r = Region::new(8);
/// r.store(3, 42);
/// assert_eq!(r.load(3), 42);
/// r.apply_write(4, &[1, 2]);
/// assert_eq!(r.load(5), 2);
/// r.write_bytes(6, b"ten bytes!");
/// let mut back = [0u8; 10];
/// r.read_bytes(6, &mut back);
/// assert_eq!(&back, b"ten bytes!");
/// ```
#[derive(Debug)]
pub struct Region {
    words: Box<[AtomicU64]>,
}

impl Region {
    /// Allocates a zeroed region of `words` 8-byte words.
    pub fn new(words: usize) -> Self {
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Region {
            words: v.into_boxed_slice(),
        }
    }

    /// Region size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` for a zero-sized region.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads word `idx` with `Acquire` ordering.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn load(&self, idx: usize) -> u64 {
        self.words[idx].load(Ordering::Acquire)
    }

    /// Writes word `idx` with `Release` ordering.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn store(&self, idx: usize, value: u64) {
        self.words[idx].store(value, Ordering::Release)
    }

    /// Applies an incoming RDMA write: places `data` starting at word
    /// `offset`, in increasing address order with `Release` stores.
    ///
    /// # Panics
    ///
    /// Panics if the write extends past the end of the region.
    pub fn apply_write(&self, offset: usize, data: &[u64]) {
        assert!(
            offset + data.len() <= self.words.len(),
            "RDMA write out of region bounds: {}..{} > {}",
            offset,
            offset + data.len(),
            self.words.len()
        );
        for (i, &w) in data.iter().enumerate() {
            self.words[offset + i].store(w, Ordering::Release);
        }
    }

    /// Places `bytes` starting at word `offset`, eight little-endian bytes
    /// to a word, in increasing address order with `Release` stores. A last
    /// partial word is zero-padded; words past it are left alone.
    ///
    /// # Panics
    ///
    /// Panics if the bytes extend past the end of the region.
    pub fn write_bytes(&self, offset: usize, bytes: &[u8]) {
        let words = self.byte_range(offset, bytes.len());
        let chunks = bytes.chunks_exact(8);
        let rest = chunks.remainder();
        for (word, chunk) in words.iter().zip(chunks) {
            let chunk = chunk.try_into().expect("chunks_exact(8) yields 8 bytes");
            word.store(u64::from_le_bytes(chunk), Ordering::Release);
        }
        if let Some(last) = words.get(bytes.len() / 8) {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            last.store(u64::from_le_bytes(buf), Ordering::Release);
        }
    }

    /// Fills `out` from the words starting at `offset` — the inverse of
    /// [`Region::write_bytes`]: `Acquire` loads in increasing address order,
    /// the last word truncated to what `out` still needs.
    ///
    /// # Panics
    ///
    /// Panics if the bytes extend past the end of the region.
    pub fn read_bytes(&self, offset: usize, out: &mut [u8]) {
        let words = self.byte_range(offset, out.len());
        let whole = out.len() / 8;
        let mut chunks = out.chunks_exact_mut(8);
        for (word, chunk) in words.iter().zip(&mut chunks) {
            chunk.copy_from_slice(&word.load(Ordering::Acquire).to_le_bytes());
        }
        if let Some(last) = words.get(whole) {
            let rest = chunks.into_remainder();
            rest.copy_from_slice(&last.load(Ordering::Acquire).to_le_bytes()[..rest.len()]);
        }
    }

    /// The words holding `len` bytes from word `offset` on: the one slicing
    /// (and the one panic site) of a bulk byte transfer.
    fn byte_range(&self, offset: usize, len: usize) -> &[AtomicU64] {
        let end = offset + len.div_ceil(8);
        self.words.get(offset..end).unwrap_or_else(|| {
            panic!(
                "byte transfer out of region bounds: words {offset}..{end} > {}",
                self.words.len()
            )
        })
    }

    /// Copies `len` words starting at `offset` out of the region (DMA-style
    /// snapshot taken when a write is posted).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn snapshot(&self, offset: usize, len: usize) -> Vec<u64> {
        assert!(offset + len <= self.words.len(), "snapshot out of bounds");
        (0..len).map(|i| self.load(offset + i)).collect()
    }

    /// Copies a word range from `src` into `self` at the same offsets, in
    /// increasing address order (used by the threaded fabric to emulate the
    /// NIC's placement of a posted write).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds for either region.
    pub fn copy_range_from(&self, src: &Region, offset: usize, len: usize) {
        assert!(offset + len <= self.words.len(), "copy out of dst bounds");
        assert!(offset + len <= src.words.len(), "copy out of src bounds");
        for i in offset..offset + len {
            self.words[i].store(src.words[i].load(Ordering::Acquire), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_region_is_zeroed() {
        let r = Region::new(16);
        assert_eq!(r.len(), 16);
        assert!((0..16).all(|i| r.load(i) == 0));
    }

    #[test]
    fn store_load_roundtrip() {
        let r = Region::new(4);
        r.store(0, u64::MAX);
        r.store(3, 7);
        assert_eq!(r.load(0), u64::MAX);
        assert_eq!(r.load(3), 7);
    }

    #[test]
    fn apply_write_places_all_words() {
        let r = Region::new(10);
        r.apply_write(2, &[5, 6, 7]);
        assert_eq!(r.snapshot(2, 3), vec![5, 6, 7]);
        assert_eq!(r.load(1), 0);
        assert_eq!(r.load(5), 0);
    }

    #[test]
    #[should_panic]
    fn apply_write_bounds_checked() {
        let r = Region::new(4);
        r.apply_write(3, &[1, 2]);
    }

    #[test]
    fn copy_range_from_mirrors_source() {
        let a = Region::new(8);
        let b = Region::new(8);
        a.store(5, 99);
        a.store(6, 100);
        b.copy_range_from(&a, 5, 2);
        assert_eq!(b.load(5), 99);
        assert_eq!(b.load(6), 100);
        assert_eq!(b.load(4), 0);
    }

    /// Deterministic test bytes (an xorshift stream, no dev-dependency).
    fn test_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Never 0 and never the canary's byte: a skipped or spilt
                // byte cannot pass for padding or an untouched neighbour.
                (x % 253) as u8 + 1
            })
            .collect()
    }

    /// What `write_bytes` replaced in `Sst::write_slot`: one zero-padded
    /// `store` per 8-byte chunk. Kept as the reference.
    fn write_bytes_per_word(r: &Region, offset: usize, bytes: &[u8]) {
        for (w, chunk) in bytes.chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            r.store(offset + w, u64::from_le_bytes(buf));
        }
    }

    /// What `read_bytes` replaced in `Sst::read_slot_with_len`: one `load`
    /// and one `extend_from_slice` per word. Kept as the reference.
    fn read_bytes_per_word(r: &Region, offset: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut w = 0;
        while out.len() < len {
            let bytes = r.load(offset + w).to_le_bytes();
            out.extend_from_slice(&bytes[..(len - out.len()).min(8)]);
            w += 1;
        }
        out
    }

    const CANARY: u64 = 0xFEFE_FEFE_FEFE_FEFE;

    fn canary_region(words: usize) -> Region {
        let r = Region::new(words);
        (0..words).for_each(|i| r.store(i, CANARY));
        r
    }

    #[test]
    fn write_bytes_matches_the_per_word_reference() {
        const WORDS: usize = 32;
        for len in 0..=200usize {
            for offset in 0..4 {
                let bytes = test_bytes((len * 4 + offset) as u64, len);
                let (bulk, reference) = (canary_region(WORDS), canary_region(WORDS));
                bulk.write_bytes(offset, &bytes);
                write_bytes_per_word(&reference, offset, &bytes);
                // Every word: the payload words, a zero-padded tail, and
                // the canaries on both sides.
                assert_eq!(
                    bulk.snapshot(0, WORDS),
                    reference.snapshot(0, WORDS),
                    "len {len} at word {offset}"
                );
                let end = offset + len.div_ceil(8);
                assert!((0..offset)
                    .chain(end..WORDS)
                    .all(|i| bulk.load(i) == CANARY));
            }
        }
    }

    #[test]
    fn read_bytes_returns_every_prefix() {
        const WORDS: usize = 32;
        for offset in 0..4 {
            let bytes = test_bytes(offset as u64 + 99, 200);
            let r = canary_region(WORDS);
            r.write_bytes(offset, &bytes);
            for len in 0..=200usize {
                // One byte past `len` on each side of `out` must survive.
                let mut out = vec![0xAB; len + 2];
                r.read_bytes(offset, &mut out[1..=len]);
                assert_eq!(&out[1..=len], &bytes[..len], "len {len} at word {offset}");
                assert_eq!((out[0], out[len + 1]), (0xAB, 0xAB));
                assert_eq!(read_bytes_per_word(&r, offset, len), &bytes[..len]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "byte transfer out of region bounds: words 3..5 > 4")]
    fn write_bytes_bounds_checked() {
        let r = Region::new(4);
        r.write_bytes(3, &[1u8; 8]); // fits
        r.write_bytes(3, &[1u8; 9]); // one word past the end
    }

    #[test]
    #[should_panic(expected = "byte transfer out of region bounds: words 3..5 > 4")]
    fn read_bytes_bounds_checked() {
        let r = Region::new(4);
        r.read_bytes(3, &mut [0u8; 8]);
        r.read_bytes(3, &mut [0u8; 9]);
    }

    /// The fencing property the SST guard protocol relies on: if a reader
    /// observes the guard (written second), it must observe the data
    /// (written first). We hammer this with a writer thread doing
    /// data-then-guard writes and a reader asserting the invariant.
    #[test]
    fn release_acquire_fencing_under_contention() {
        let r = Arc::new(Region::new(2));
        const ROUNDS: u64 = 50_000;
        let w = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 1..=ROUNDS {
                    r.apply_write(0, &[i * 10]); // data
                    r.apply_write(1, &[i]); // guard
                }
            })
        };
        let mut last_guard = 0;
        while last_guard < ROUNDS {
            let guard = r.load(1);
            let data = r.load(0);
            if guard > 0 {
                // Data must be at least as new as the guard we saw *before*
                // reading it.
                assert!(
                    data >= guard * 10,
                    "fence violated: guard={guard} data={data}"
                );
            }
            last_guard = guard;
        }
        w.join().unwrap();
    }
}
