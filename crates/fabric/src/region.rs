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
//!
//! A region also carries the §2.4 **doorbell** of the one thread that reads
//! it: [`Region::arm`] / [`Region::wait`] on the reader's side,
//! [`Region::ring`] on the side of whatever wrote words into it.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

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
/// * **Doorbell** — a replica has exactly one reader, its node's predicate
///   thread, which may sleep when a pass over the replica finds no work
///   (§2.4) and must then be woken by the write that gives it some. Both
///   sides run one half of a store-buffering handshake over the `asleep`
///   flag, with a `SeqCst` fence in the middle of each:
///
///   | writer ([`Region::ring`] after placing) | waiter ([`Region::arm`], a pass, [`Region::wait`]) |
///   |---|---|
///   | store the words | store `asleep = true` |
///   | `fence(SeqCst)` | `fence(SeqCst)` |
///   | load `asleep`; if set, clear it and unpark | look at the words once more; park only if still nothing |
///
///   The two fences are totally ordered, so either the waiter's last look
///   sees the words or the writer's load sees the flag: a write can not
///   fall between a waiter's last look and its park. The writer's load is
///   `Relaxed` and reads a line nobody writes while the reader is awake, so
///   a post to an awake replica costs one fence and one shared-line load,
///   never a read-modify-write; only a writer that reads `true` swaps the
///   flag, and only the swap's winner unparks. Writes that do not ring
///   (`store`, `apply_write` on their own) are seen at the waiter's
///   timeout.
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
/// // Nobody is armed: ringing is a no-op.
/// r.ring();
/// ```
pub struct Region {
    words: Box<[AtomicU64]>,
    /// Set by the reader between [`Region::arm`] and the end of its
    /// [`Region::wait`]; cleared by whichever of the two sides ends the wait.
    asleep: AtomicBool,
    /// The reader, as last registered by [`Region::arm`]: what a ring
    /// unparks. Locked by the reader when it arms and by the one writer that
    /// won the `asleep` swap — never on a post to an awake replica.
    waiter: Mutex<Option<Thread>>,
}

/// `len` and the doorbell flag only: a region's words are its owner's to
/// print, and a [`Thread`] per region in an assertion message helps nobody.
impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.words.len())
            .field("asleep", &self.asleep.load(Ordering::Relaxed))
            .finish()
    }
}

impl Region {
    /// Allocates a zeroed region of `words` 8-byte words.
    pub fn new(words: usize) -> Self {
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Region {
            words: v.into_boxed_slice(),
            asleep: AtomicBool::new(false),
            waiter: Mutex::new(None),
        }
    }

    /// The reader's first half of the doorbell handshake (see *Memory
    /// model*): registers the calling thread as the one [`Region::ring`]
    /// wakes, raises `asleep` and fences. The caller then looks at the
    /// region **once more** and calls [`Region::wait`] only if that look
    /// finds nothing; a write placed (and rung) after this returns ends
    /// that wait at once. A caller whose look does find work need not wait:
    /// the flag then stays up until its next `wait` or the next ring, and
    /// that one ring pays the swap.
    ///
    /// A region has one waiter. Arming is idempotent for that thread;
    /// another thread may take the role over only once the first has left
    /// its wait (checked in debug builds).
    pub fn arm(&self) {
        let me = thread::current();
        {
            let mut waiter = self.waiter.lock().expect("doorbell holders do not panic");
            if waiter.as_ref().map(Thread::id) != Some(me.id()) {
                debug_assert!(
                    !self.asleep.load(Ordering::Relaxed),
                    "region armed by {:?} while {:?} is still armed on it",
                    me.id(),
                    waiter.as_ref().map(Thread::id),
                );
                *waiter = Some(me);
            }
        }
        self.asleep.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// The reader's second half: parks the calling thread — which must be
    /// the one that armed — until a [`Region::ring`] or for `timeout`,
    /// whichever is first, and disarms. Returns at once if a ring already
    /// came since [`Region::arm`] (or the region was never armed). `true`
    /// when a ring ended the wait, `false` when the timeout did.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut left = timeout;
        // `park_timeout` may return early, or at once on a token left by a
        // ring that lost the race with an earlier timeout: only the flag
        // says whether the bell was rung.
        while self.asleep.load(Ordering::Acquire) && !left.is_zero() {
            thread::park_timeout(left);
            left = deadline.saturating_duration_since(Instant::now());
        }
        !self.asleep.swap(false, Ordering::AcqRel)
    }

    /// The writer's half: call after placing words the reader may be
    /// waiting for. Fences, then reads `asleep` — and only when the reader
    /// is armed clears the flag and unparks it. Ringing a region nobody is
    /// armed on is a fence and a load.
    #[inline]
    pub fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.asleep.load(Ordering::Relaxed) {
            self.wake();
        }
    }

    #[cold]
    fn wake(&self) {
        if self.asleep.swap(false, Ordering::AcqRel) {
            let waiter = self.waiter.lock().expect("doorbell holders do not panic");
            if let Some(t) = waiter.as_ref() {
                t.unpark();
            }
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
        let end = offset + data.len();
        let words = self.words.get(offset..end).unwrap_or_else(|| {
            panic!(
                "RDMA write out of region bounds: {offset}..{end} > {}",
                self.words.len()
            )
        });
        for (word, &w) in words.iter().zip(data) {
            word.store(w, Ordering::Release);
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
        // Zipped by value: a zip with a `&mut` iterator is not random-access.
        let (whole, rest) = out.split_at_mut(out.len() / 8 * 8);
        for (word, chunk) in words.iter().zip(whole.chunks_exact_mut(8)) {
            chunk.copy_from_slice(&word.load(Ordering::Acquire).to_le_bytes());
        }
        if let Some(last) = words.get(whole.len() / 8) {
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
        let words = &self.words[offset..offset + len];
        words.iter().map(|w| w.load(Ordering::Acquire)).collect()
    }

    /// Copies a word range from `src` into `self` at the same offsets, in
    /// increasing address order (used by the threaded fabric to emulate the
    /// NIC's placement of a posted write).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds for either region.
    pub fn copy_range_from(&self, src: &Region, offset: usize, len: usize) {
        let range = offset..offset + len;
        let dst = self
            .words
            .get(range.clone())
            .expect("copy out of dst bounds");
        let src = src.words.get(range).expect("copy out of src bounds");
        for (d, s) in dst.iter().zip(src) {
            d.store(s.load(Ordering::Acquire), Ordering::Release);
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

    #[test]
    fn snapshot_matches_per_word_loads() {
        const WORDS: usize = 32;
        let r = Region::new(WORDS);
        (0..WORDS).for_each(|i| r.store(i, 0x1000 + i as u64 * 7));
        for offset in [0, 1, 5, 31, WORDS] {
            for len in [0, 1, 2, 8, 31, 32] {
                if offset + len > WORDS {
                    continue;
                }
                let loads: Vec<u64> = (offset..offset + len).map(|i| r.load(i)).collect();
                assert_eq!(r.snapshot(offset, len), loads, "{len} words at {offset}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "snapshot out of bounds")]
    fn snapshot_bounds_checked() {
        let r = Region::new(4);
        assert_eq!(r.snapshot(4, 0), Vec::<u64>::new()); // empty, at the end
        r.snapshot(3, 1); // fits
        r.snapshot(3, 2); // one word past the end
    }

    #[test]
    fn ring_with_nobody_armed_is_a_noop_and_wait_returns_at_its_timeout() {
        let r = Region::new(1);
        r.ring();
        // Never armed: nothing to wait for.
        let t0 = Instant::now();
        assert!(r.wait(Duration::from_secs(5)), "an unarmed wait parked");
        assert!(t0.elapsed() < Duration::from_secs(1));
        // Armed and never rung: the timeout ends the wait, and disarms.
        r.arm();
        let t0 = Instant::now();
        assert!(!r.wait(Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(format!("{r:?}").contains("asleep: false"), "{r:?}");
        // A ring between arm and wait is not lost: the wait does not park.
        r.arm();
        r.ring();
        let t0 = Instant::now();
        assert!(r.wait(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    /// The lost-wake-up hammer: a waiter that arms, looks once more and
    /// parks against a writer that stores and rings, with nothing else
    /// keeping them in step. A write that fell between the waiter's last
    /// look and its park would leave it parked for the full five seconds.
    #[test]
    fn doorbell_never_loses_a_wake_up() {
        const ROUNDS: u64 = 50_000;
        // Word 0: the writer's round. Word 1: the waiter's acknowledgement.
        let r = Arc::new(Region::new(2));
        let ringer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 1..=ROUNDS {
                    while r.load(1) < i - 1 {
                        std::hint::spin_loop();
                    }
                    r.store(0, i);
                    r.ring();
                }
            })
        };
        for i in 1..=ROUNDS {
            // A late ring for round i - 1 may end a wait of round i early;
            // that is a spurious wake, not a lost one.
            while r.load(0) < i {
                r.arm();
                if r.load(0) >= i {
                    break;
                }
                assert!(
                    r.wait(Duration::from_secs(5)),
                    "round {i}: the wait ran to its timeout"
                );
            }
            r.store(1, i);
        }
        ringer.join().unwrap();
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
