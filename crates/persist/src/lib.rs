#![warn(missing_docs)]
//! Durable message log for Spindle's persistent atomic multicast.
//!
//! The Spindle paper's substrate, Derecho, offers a *persistent* atomic
//! multicast that is "equivalent to the classical durable Paxos" (paper
//! footnote 2): every delivered message is appended to a per-subgroup log
//! on stable storage, each replica advertises its *persistence frontier*
//! through an SST counter, and a message is globally durable once every
//! member's frontier has passed it. This crate supplies the storage half:
//! a checksummed, append-only, segmented, crash-recoverable log.
//!
//! Format: each record is `[magic][body_len][crc32][body]`, little-endian,
//! where the body carries `(epoch, subgroup, seq, sender_rank, app_index,
//! payload)`. A log is a sequence of segment files
//! (`<name>.seg000000.log`, `<name>.seg000001.log`, ...) that roll over at
//! [`PersistOptions::segment_cap`] bytes. [`DurableLog::open_with`]
//! replays the segments in order, validates every checksum, and truncates
//! a torn tail (a partial record from a crash mid-append), so the log is
//! always a clean prefix of what was appended.
//!
//! Policy knobs — fsync cadence ([`SyncPolicy`] / [`SyncScheduler`]),
//! segment capacity, and disk fault injection ([`PersistFaults`]) — ride
//! in through [`PersistOptions`].
//!
//! # Examples
//!
//! ```
//! use spindle_persist::{read_log, DurableLog, LogRecord, PersistOptions};
//!
//! let dir = std::env::temp_dir().join(format!("spindle-doc-{}", std::process::id()));
//! let opts = PersistOptions::new(&dir);
//!
//! let (mut log, recovered) = DurableLog::open_with(&opts, "node0-g0")?;
//! assert!(recovered.is_empty());
//! log.append(&LogRecord {
//!     epoch: 0,
//!     subgroup: 0,
//!     seq: 0,
//!     sender_rank: 0,
//!     app_index: 0,
//!     data: b"hello".to_vec(),
//! })?;
//! log.sync()?;
//! drop(log);
//!
//! let records = read_log(&dir, "node0-g0")?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].data, b"hello");
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

mod policy;

pub use policy::{PersistFaults, PersistOptions, SyncPolicy, SyncScheduler, DEFAULT_SEGMENT_CAP};

/// Record magic: "SPIN" little-endian.
const MAGIC: u32 = 0x4E49_5053;
/// Fixed body bytes before the payload: epoch(8) + subgroup(4) + seq(8) +
/// sender_rank(4) + app_index(8) + data_len(4).
const BODY_HEADER: usize = 8 + 4 + 8 + 4 + 8 + 4;
/// Frame bytes before the body: magic(4) + body_len(4) + crc(4).
const FRAME_HEADER: usize = 12;

/// One durably logged multicast delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Epoch (view id) the message was delivered in.
    pub epoch: u64,
    /// Subgroup id.
    pub subgroup: u32,
    /// Sequence number in the subgroup's per-epoch total order.
    pub seq: i64,
    /// Sender rank within the epoch's sender list.
    pub sender_rank: u32,
    /// The sender's per-epoch FIFO index.
    pub app_index: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
}

impl LogRecord {
    /// Encodes the record body for transport (the joiner state-transfer
    /// snapshot ships log tails over the wire in exactly the on-disk
    /// body layout, without the per-frame magic/CRC that
    /// [`DurableLog::append`] adds).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_body()
    }

    /// Decodes a record body produced by [`LogRecord::encode`]; `None`
    /// for anything malformed.
    pub fn decode(body: &[u8]) -> Option<LogRecord> {
        LogRecord::decode_body(body)
    }

    /// Byte size of [`LogRecord::encode`]'s output (the on-disk body,
    /// without the per-frame magic/length/CRC header).
    pub fn encoded_len(&self) -> usize {
        BODY_HEADER + self.data.len()
    }

    /// The record with its payload borrowed — what
    /// [`DurableLog::append_borrowed`] takes.
    pub fn borrowed(&self) -> LogRecordRef<'_> {
        LogRecordRef {
            epoch: self.epoch,
            subgroup: self.subgroup,
            seq: self.seq,
            sender_rank: self.sender_rank,
            app_index: self.app_index,
            data: &self.data,
        }
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(BODY_HEADER + self.data.len());
        b.extend_from_slice(&self.borrowed().body_header());
        b.extend_from_slice(&self.data);
        b
    }

    fn decode_body(body: &[u8]) -> Option<LogRecord> {
        if body.len() < BODY_HEADER {
            return None;
        }
        let take = |range: std::ops::Range<usize>| body.get(range);
        let epoch = u64::from_le_bytes(take(0..8)?.try_into().ok()?);
        let subgroup = u32::from_le_bytes(take(8..12)?.try_into().ok()?);
        let seq = i64::from_le_bytes(take(12..20)?.try_into().ok()?);
        let sender_rank = u32::from_le_bytes(take(20..24)?.try_into().ok()?);
        let app_index = u64::from_le_bytes(take(24..32)?.try_into().ok()?);
        let data_len = u32::from_le_bytes(take(32..36)?.try_into().ok()?) as usize;
        if body.len() != BODY_HEADER.checked_add(data_len)? {
            return None;
        }
        Some(LogRecord {
            epoch,
            subgroup,
            seq,
            sender_rank,
            app_index,
            data: body[BODY_HEADER..].to_vec(),
        })
    }
}

/// A [`LogRecord`] whose payload is borrowed: a delivery can be logged
/// straight from the buffer that holds it, without an owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecordRef<'a> {
    /// Epoch (view id) the message was delivered in.
    pub epoch: u64,
    /// Subgroup id.
    pub subgroup: u32,
    /// Sequence number in the subgroup's per-epoch total order.
    pub seq: i64,
    /// Sender rank within the epoch's sender list.
    pub sender_rank: u32,
    /// The sender's per-epoch FIFO index.
    pub app_index: u64,
    /// Payload bytes.
    pub data: &'a [u8],
}

impl LogRecordRef<'_> {
    /// The fixed part of the body, everything before the payload.
    fn body_header(&self) -> [u8; BODY_HEADER] {
        let mut b = [0u8; BODY_HEADER];
        b[0..8].copy_from_slice(&self.epoch.to_le_bytes());
        b[8..12].copy_from_slice(&self.subgroup.to_le_bytes());
        b[12..20].copy_from_slice(&self.seq.to_le_bytes());
        b[20..24].copy_from_slice(&self.sender_rank.to_le_bytes());
        b[24..32].copy_from_slice(&self.app_index.to_le_bytes());
        b[32..36].copy_from_slice(&(self.data.len() as u32).to_le_bytes());
        b
    }
}

/// The longest suffix of `records` whose encoded bodies fit `max_bytes`
/// — the byte budget of a joiner's state-transfer snapshot (the newest
/// records matter most; older history is reachable by replaying a
/// survivor's full log offline).
pub fn tail_within(records: &[LogRecord], max_bytes: usize) -> &[LogRecord] {
    let mut budget = max_bytes;
    let mut start = records.len();
    for (i, r) in records.iter().enumerate().rev() {
        let bytes = BODY_HEADER + r.data.len();
        if bytes > budget {
            break;
        }
        budget -= bytes;
        start = i;
    }
    &records[start..]
}

/// Slice-by-8 lookup tables for the reflected IEEE 802.3 polynomial:
/// `CRC_TABLES[0]` is the classic one-byte table, `CRC_TABLES[k][b]` the
/// CRC state after byte `b` and `k` zero bytes. Built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Feeds `data` into the raw (pre-inversion) CRC state `c`, eight bytes
/// per step: `crc32(a ++ b) == !crc32_update(crc32_update(!0, a), b)`.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let chunks = data.chunks_exact(8);
    let rest = chunks.remainder();
    for ch in chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3, reflected), table-driven, eight bytes per step.
///
/// # Examples
///
/// ```
/// // The classic check value for "123456789".
/// assert_eq!(spindle_persist::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// An append-only, checksummed, crash-recoverable message log.
///
/// The log is *segmented*: appends roll over to a fresh
/// `<name>.seg<NNNNNN>.log` file once the active segment passes
/// [`PersistOptions::segment_cap`] bytes, so a long-lived node never owns
/// one unbounded file.
pub struct DurableLog {
    writer: BufWriter<File>,
    path: PathBuf,
    records: u64,
    /// Valid bytes across all segments.
    bytes: u64,
    /// Valid bytes in the active segment.
    seg_bytes: u64,
    seg_index: u32,
    /// Where the next segment goes: `<dir>/<name>.seg<NNNNNN>.log`.
    dir: PathBuf,
    name: String,
    /// Segment capacity in bytes.
    cap: u64,
    faults: PersistFaults,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("path", &self.path)
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .field("segment", &self.seg_index)
            .finish()
    }
}

/// `<dir>/<name>.seg<idx:06>.log`.
fn segment_path(dir: &Path, name: &str, idx: u32) -> PathBuf {
    dir.join(format!("{name}.seg{idx:06}.log"))
}

/// Parses `file_name` as a segment of some log, yielding
/// `(log name, segment index)`.
fn parse_segment_name(file_name: &str) -> Option<(&str, u32)> {
    let stem = file_name.strip_suffix(".log")?;
    let (name, idx) = stem.rsplit_once(".seg")?;
    if idx.len() != 6 || !idx.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((name, idx.parse().ok()?))
}

/// Sorted segment indices present for `name` under `dir`.
fn segment_indices(dir: &Path, name: &str) -> io::Result<Vec<u32>> {
    let mut indices = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(indices),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some((n, idx)) = entry.file_name().to_str().and_then(parse_segment_name) {
            if n == name {
                indices.push(idx);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Reads the full record stream of log `name` under `dir` **read-only**,
/// concatenating its segments in order. Corruption inside a segment cuts
/// the stream there (later segments are unreachable past a hole, exactly
/// as [`DurableLog::open_with`] would recover).
///
/// # Errors
///
/// Propagates I/O errors; a missing log reads as empty.
pub fn read_log(dir: impl AsRef<Path>, name: &str) -> io::Result<Vec<LogRecord>> {
    let dir = dir.as_ref();
    let mut records = Vec::new();
    for idx in segment_indices(dir, name)? {
        let raw = std::fs::read(segment_path(dir, name, idx))?;
        let (mut recs, good) = parse_prefix(&raw);
        records.append(&mut recs);
        if good < raw.len() {
            break; // the stream ends at the first hole
        }
    }
    Ok(records)
}

/// Reads every log under `dir` **read-only**: `(name, records)` pairs
/// sorted by name. A missing directory reads as empty.
fn scan_dir(dir: impl AsRef<Path>) -> io::Result<Vec<(String, Vec<LogRecord>)>> {
    let dir = dir.as_ref();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut names = std::collections::BTreeSet::new();
    for entry in entries {
        let entry = entry?;
        if let Some((name, _)) = entry.file_name().to_str().and_then(parse_segment_name) {
            names.insert(name.to_string());
        }
    }
    names
        .into_iter()
        .map(|name| read_log(dir, &name).map(|records| (name, records)))
        .collect()
}

/// Every record under `dir`, flattened across logs and sorted into
/// delivery order: by `(subgroup, epoch, seq)`. This is the restart
/// replay stream of a node's data directory.
///
/// # Errors
///
/// Propagates I/O errors; a missing directory reads as empty.
pub fn all_records_sorted(dir: impl AsRef<Path>) -> io::Result<Vec<LogRecord>> {
    let mut all: Vec<LogRecord> = scan_dir(dir)?
        .into_iter()
        .flat_map(|(_, records)| records)
        .collect();
    all.sort_by_key(|r| (r.subgroup, r.epoch, r.seq));
    Ok(all)
}

/// Parses the longest valid record prefix; returns the records and the
/// byte length of that prefix.
fn parse_prefix(raw: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut good = 0usize;
    let mut off = 0usize;
    while off + FRAME_HEADER <= raw.len() {
        let magic = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap());
        if magic != MAGIC {
            break;
        }
        let body_len = u32::from_le_bytes(raw[off + 4..off + 8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(raw[off + 8..off + 12].try_into().unwrap());
        let body_start = off + FRAME_HEADER;
        // Checked: an adversarial body_len near usize::MAX must read as a
        // torn tail, not wrap around and panic the open.
        let Some(body_end) = body_start.checked_add(body_len) else {
            break;
        };
        let Some(body) = raw.get(body_start..body_end) else {
            break; // partial tail
        };
        if crc32(body) != crc {
            break; // corrupt tail
        }
        let Some(rec) = LogRecord::decode_body(body) else {
            break;
        };
        records.push(rec);
        off = body_end;
        good = off;
    }
    (records, good)
}

impl DurableLog {
    /// Opens (or creates) the segmented log `name` under `opts.dir`,
    /// replaying and validating every record across segments. A torn or
    /// corrupt tail — from a crash mid-append — is truncated away, and
    /// any segments past a mid-history hole are discarded (they are
    /// unreachable once the order has a gap); everything before is
    /// returned. Appends resume at the recovered end and roll over to a
    /// new segment at `opts.segment_cap` bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including directory creation); corruption
    /// is *not* an error — the valid prefix is recovered.
    pub fn open_with(
        opts: &PersistOptions,
        name: &str,
    ) -> io::Result<(DurableLog, Vec<LogRecord>)> {
        std::fs::create_dir_all(&opts.dir)?;
        let mut indices = segment_indices(&opts.dir, name)?;
        if indices.is_empty() {
            indices.push(0);
        }
        let mut records = Vec::new();
        let mut bytes = 0u64;
        let mut active: Option<(File, u32, u64)> = None;
        let mut drop_after: Option<usize> = None;
        for (i, &idx) in indices.iter().enumerate() {
            let path = segment_path(&opts.dir, name, idx);
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(&path)?;
            let mut raw = Vec::new();
            file.read_to_end(&mut raw)?;
            let (mut recs, good) = parse_prefix(&raw);
            records.append(&mut recs);
            bytes += good as u64;
            let corrupt = good < raw.len();
            if corrupt {
                file.set_len(good as u64)?;
            }
            if corrupt || i + 1 == indices.len() {
                file.seek(SeekFrom::Start(good as u64))?;
                active = Some((file, idx, good as u64));
                drop_after = Some(i);
                break;
            }
        }
        // Segments past a recovered hole hold unreachable suffix state.
        if let Some(last) = drop_after {
            for &idx in &indices[last + 1..] {
                std::fs::remove_file(segment_path(&opts.dir, name, idx))?;
            }
        }
        let (file, seg_index, seg_bytes) = active.expect("at least one segment is always opened");
        Ok((
            DurableLog {
                writer: BufWriter::new(file),
                path: segment_path(&opts.dir, name, seg_index),
                records: records.len() as u64,
                bytes,
                seg_bytes,
                seg_index,
                dir: opts.dir.clone(),
                name: name.to_string(),
                cap: opts.segment_cap.max(1),
                faults: opts.faults.clone(),
            },
            records,
        ))
    }

    /// Appends one record (buffered; call [`DurableLog::sync`] to make it
    /// durable). The log rolls over to a fresh segment first if this record
    /// would push the active segment past its capacity.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writes (and, on
    /// rollover, the sync of the finished segment).
    pub fn append(&mut self, rec: &LogRecord) -> io::Result<()> {
        self.append_borrowed(rec.borrowed())
    }

    /// [`DurableLog::append`] for a record whose payload lives elsewhere:
    /// the same frame bytes, written without building an owned record or
    /// an encoded body first.
    ///
    /// # Errors
    ///
    /// As [`DurableLog::append`].
    pub fn append_borrowed(&mut self, rec: LogRecordRef<'_>) -> io::Result<()> {
        let body_len = BODY_HEADER + rec.data.len();
        let frame = (FRAME_HEADER + body_len) as u64;
        if self.seg_bytes > 0 && self.seg_bytes + frame > self.cap {
            self.rotate()?;
        }
        let body_header = rec.body_header();
        let crc = !crc32_update(crc32_update(!0, &body_header), rec.data);
        let mut head = [0u8; FRAME_HEADER + BODY_HEADER];
        head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        head[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
        head[8..12].copy_from_slice(&crc.to_le_bytes());
        head[FRAME_HEADER..].copy_from_slice(&body_header);
        self.writer.write_all(&head)?;
        self.writer.write_all(rec.data)?;
        self.records += 1;
        self.bytes += frame;
        self.seg_bytes += frame;
        Ok(())
    }

    /// Seals the active segment (flush + fsync) and starts the next one.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.seg_index += 1;
        let path = segment_path(&self.dir, &self.name, self.seg_index);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        self.writer = BufWriter::new(file);
        self.path = path;
        self.seg_bytes = 0;
        Ok(())
    }

    /// Flushes buffers and fsyncs the active segment. Injected disk
    /// faults ([`PersistFaults`], `SPINDLE_PERSIST_FSYNC_DELAY_MS`)
    /// take effect here.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flush or fsync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.faults.apply();
        self.writer.get_ref().sync_data()
    }

    /// Number of records appended (including recovered ones).
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Returns `true` if no records have been appended or recovered.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Bytes occupied by valid records, across all segments.
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }

    /// The active segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Index of the active segment.
    pub fn segment_index(&self) -> u32 {
        self.seg_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spindle-persist-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Opens (recovering) the log `test` under `dir`.
    fn open(dir: &Path) -> (DurableLog, Vec<LogRecord>) {
        DurableLog::open_with(&PersistOptions::new(dir), "test").unwrap()
    }

    /// Segment 0 of the log `test` under `dir`: the file a crash tears.
    fn seg0(dir: &Path) -> PathBuf {
        segment_path(dir, "test", 0)
    }

    fn rec(seq: i64, data: &[u8]) -> LogRecord {
        LogRecord {
            epoch: 1,
            subgroup: 0,
            seq,
            sender_rank: (seq % 3) as u32,
            app_index: seq as u64 / 3,
            data: data.to_vec(),
        }
    }

    #[test]
    fn wire_codec_roundtrips_and_tail_respects_budget() {
        let r = rec(7, b"payload");
        assert_eq!(LogRecord::decode(&r.encode()), Some(r.clone()));
        assert_eq!(LogRecord::decode(&[]), None);
        assert_eq!(LogRecord::decode(&r.encode()[..10]), None);
        let records: Vec<LogRecord> = (0..5).map(|i| rec(i, b"xxxxxxxx")).collect();
        let each = BODY_HEADER + 8;
        assert_eq!(tail_within(&records, 5 * each).len(), 5);
        assert_eq!(tail_within(&records, 2 * each + 3).len(), 2);
        assert_eq!(tail_within(&records, 0).len(), 0);
        // The tail keeps the *newest* records.
        assert_eq!(tail_within(&records, each)[0].seq, 4);
    }

    #[test]
    fn roundtrip_many_records() {
        let dir = tmp_dir("roundtrip");
        let (mut log, _) = open(&dir);
        for i in 0..100 {
            log.append(&rec(i, format!("payload-{i}").as_bytes()))
                .unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (log, records) = open(&dir);
        assert_eq!(log.len(), 100);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as i64);
            assert_eq!(r.data, format!("payload-{i}").as_bytes());
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tmp_dir("empty");
        let (mut log, _) = open(&dir);
        log.append(&rec(0, b"")).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, records) = open(&dir);
        assert_eq!(records.len(), 1);
        assert!(records[0].data.is_empty());
    }

    #[test]
    fn torn_tail_truncated() {
        let dir = tmp_dir("torn");
        let (mut log, _) = open(&dir);
        for i in 0..10 {
            log.append(&rec(i, b"0123456789")).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        // Simulate a crash mid-append: write half a record's frame.
        let mut f = OpenOptions::new().append(true).open(seg0(&dir)).unwrap();
        f.write_all(&MAGIC.to_le_bytes()).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        drop(f);
        let (log, records) = open(&dir);
        assert_eq!(records.len(), 10, "torn tail must not hide valid prefix");
        // The segment was truncated back to the valid prefix.
        assert_eq!(std::fs::metadata(seg0(&dir)).unwrap().len(), log.byte_len());
    }

    /// The negative matrix: tear or corrupt *each field* of a trailing
    /// record and check the read-only path recovers the valid prefix
    /// rather than erroring the whole open.
    #[test]
    fn torn_final_record_each_field_truncates_to_valid_prefix() {
        let base = {
            let dir = tmp_dir("fields-base");
            let (mut log, _) = open(&dir);
            for i in 0..6 {
                log.append(&rec(i, b"stable-prefix")).unwrap();
            }
            log.sync().unwrap();
            drop(log);
            std::fs::read(seg0(&dir)).unwrap()
        };
        let frame = base.len() / 6;
        let last = 5 * frame;
        type Corruptor = Box<dyn Fn(&mut Vec<u8>)>;
        let cases: Vec<(&str, Corruptor)> = vec![
            ("magic", Box::new(move |raw| raw[last] ^= 0xFF)),
            (
                "body_len-oversized",
                Box::new(move |raw: &mut Vec<u8>| {
                    raw[last + 4..last + 8].copy_from_slice(&u32::MAX.to_le_bytes());
                }),
            ),
            ("crc", Box::new(move |raw| raw[last + 8] ^= 0x01)),
            (
                "body-data_len",
                Box::new(move |raw| raw[last + FRAME_HEADER + 32] ^= 0x01),
            ),
            (
                "payload-byte",
                Box::new(move |raw| raw[last + frame - 1] ^= 0x80),
            ),
            (
                "torn-mid-body",
                Box::new(move |raw: &mut Vec<u8>| raw.truncate(last + FRAME_HEADER + 3)),
            ),
            (
                "torn-mid-header",
                Box::new(move |raw: &mut Vec<u8>| raw.truncate(last + 5)),
            ),
        ];
        for (what, corrupt) in cases {
            let dir = tmp_dir(&format!("fields-{what}"));
            let mut raw = base.clone();
            corrupt(&mut raw);
            std::fs::write(seg0(&dir), &raw).unwrap();
            let records = read_log(&dir, "test")
                .unwrap_or_else(|e| panic!("{what}: read_log must not error: {e}"));
            assert_eq!(records.len(), 5, "{what}: the 5 intact records survive");
            assert_eq!(records.last().unwrap().seq, 4, "{what}");
            // And the recovery path agrees byte for byte.
            let (log, recovered) = open(&dir);
            assert_eq!(recovered, records, "{what}: open recovers the same prefix");
            assert_eq!(
                std::fs::metadata(seg0(&dir)).unwrap().len(),
                log.byte_len(),
                "{what}: segment truncated to the valid prefix"
            );
        }
    }

    #[test]
    fn corrupt_crc_truncates_from_there() {
        let dir = tmp_dir("crc");
        let (mut log, _) = open(&dir);
        for i in 0..5 {
            log.append(&rec(i, b"AAAA")).unwrap();
        }
        log.sync().unwrap();
        let record_bytes = log.byte_len() / 5;
        drop(log);
        // Flip a byte in record 3's body.
        let mut raw = std::fs::read(seg0(&dir)).unwrap();
        let victim = (3 * record_bytes + FRAME_HEADER as u64 + 2) as usize;
        raw[victim] ^= 0xFF;
        std::fs::write(seg0(&dir), &raw).unwrap();
        let (_, records) = open(&dir);
        assert_eq!(records.len(), 3, "corruption cuts the log at record 3");
        assert_eq!(records.last().unwrap().seq, 2);
    }

    #[test]
    fn append_after_recovery_continues_cleanly() {
        let dir = tmp_dir("continue");
        let (mut log, _) = open(&dir);
        for i in 0..4 {
            log.append(&rec(i, b"x")).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (mut log, recovered) = open(&dir);
        assert_eq!(recovered.len(), 4);
        for i in 4..8 {
            log.append(&rec(i, b"y")).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (_, all) = open(&dir);
        assert_eq!(all.len(), 8);
        assert_eq!(all[7].seq, 7);
    }

    #[test]
    fn open_on_missing_file_creates_empty() {
        let dir = tmp_dir("fresh").join("not-yet");
        let (log, records) = open(&dir);
        assert!(log.is_empty());
        assert!(records.is_empty());
        assert!(seg0(&dir).exists());
    }

    #[test]
    fn garbage_file_recovers_to_empty() {
        let dir = tmp_dir("garbage");
        std::fs::write(seg0(&dir), b"this is not a spindle log at all").unwrap();
        let (log, records) = open(&dir);
        assert!(records.is_empty());
        assert_eq!(log.byte_len(), 0);
        assert_eq!(std::fs::metadata(seg0(&dir)).unwrap().len(), 0);
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise CRC-32 this crate used before slice-by-8: one table
    /// look-up per byte. Kept as the reference the fast form must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        let mut c = !0u32;
        for &b in data {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..16 * 1024 + 8).map(|_| next() as u8).collect();
        // Every short length at every start alignment: the 8-byte steps, the
        // tail loop and their boundary.
        for align in 0..8 {
            for len in 0..=64 {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} at +{align}");
            }
        }
        for _ in 0..1_000 {
            let len = next() as usize % (16 * 1024 + 1);
            let align = next() as usize % 8;
            let data = &buf[align..align + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "len {len} at +{align}");
            // Fed in two parts, as `append_borrowed` feeds header and payload.
            let cut = next() as usize % (len + 1);
            let parts = !crc32_update(crc32_update(!0, &data[..cut]), &data[cut..]);
            assert_eq!(parts, crc32_bytewise(data), "len {len} cut at {cut}");
        }
    }

    /// Three records as the parent commit's `append` framed them (empty,
    /// 7-byte and 13-byte payloads): the on-disk format this crate must
    /// keep reading and keep writing.
    const GOLDEN_SEGMENT: [u8; 164] = [
        0x53, 0x50, 0x49, 0x4E, 0x24, 0x00, 0x00, 0x00, 0x40, 0x66, 0xC6, 0xFF, //
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x53, 0x50, 0x49, 0x4E, 0x2B, 0x00, 0x00, 0x00, 0xB7, 0xCA, 0x02, 0x21, //
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, //
        0x73, 0x70, 0x69, 0x6E, 0x64, 0x6C, 0x65, 0x53, 0x50, 0x49, 0x4E, 0x31, //
        0x00, 0x00, 0x00, 0xB0, 0xBC, 0xE2, 0x75, 0x02, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x0D, 0x00, 0x00, 0x00, 0xC8, 0xED, 0x12, 0x37, 0x5C, //
        0x81, 0xA6, 0xCB, 0xF0, 0x15, 0x3A, 0x5F, 0x84,
    ];

    fn golden_records() -> Vec<LogRecord> {
        let mk = |epoch, seq, sender_rank, app_index, data: Vec<u8>| LogRecord {
            epoch,
            subgroup: 0,
            seq,
            sender_rank,
            app_index,
            data,
        };
        let thirteen = (0u8..13).map(|i| i.wrapping_mul(37).wrapping_add(200));
        vec![
            mk(1, 0, 0, 0, vec![]),
            mk(1, 1, 1, 0, b"spindle".to_vec()),
            mk(2, 0, 2, 5, thirteen.collect()),
        ]
    }

    #[test]
    fn both_appends_write_the_golden_segment_and_replay_reads_it() {
        let dir = tmp_dir("golden");
        let records = golden_records();
        let owned = dir.join("owned");
        let (mut log, _) = open(&owned);
        records.iter().for_each(|r| log.append(r).unwrap());
        log.sync().unwrap();
        assert_eq!(log.byte_len(), GOLDEN_SEGMENT.len() as u64);
        assert_eq!(std::fs::read(seg0(&owned)).unwrap(), GOLDEN_SEGMENT);
        let borrowed = dir.join("borrowed");
        let (mut log, _) = open(&borrowed);
        for r in &records {
            let payload = r.data.clone(); // a buffer the record does not own
            let by_ref = LogRecordRef {
                data: &payload,
                ..r.borrowed()
            };
            log.append_borrowed(by_ref).unwrap();
        }
        log.sync().unwrap();
        assert_eq!(std::fs::read(seg0(&borrowed)).unwrap(), GOLDEN_SEGMENT);
        // And a directory holding the parent's bytes replays under this code.
        let replay = tmp_dir("golden-replay");
        std::fs::write(segment_path(&replay, "node0-g0", 0), GOLDEN_SEGMENT).unwrap();
        assert_eq!(all_records_sorted(&replay).unwrap(), records);
        let (log, recovered) =
            DurableLog::open_with(&PersistOptions::new(&replay), "node0-g0").unwrap();
        assert_eq!(recovered, records);
        assert_eq!(log.byte_len(), GOLDEN_SEGMENT.len() as u64);
    }

    #[test]
    fn record_fields_roundtrip_exactly() {
        let dir = tmp_dir("fields");
        let r = LogRecord {
            epoch: u64::MAX,
            subgroup: 7,
            seq: -1,
            sender_rank: 3,
            app_index: 42,
            data: vec![0u8, 255, 128],
        };
        let (mut log, _) = open(&dir);
        log.append(&r).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, records) = open(&dir);
        assert_eq!(records, vec![r]);
    }

    #[test]
    fn open_with_rolls_segments_at_cap_and_replays_across_them() {
        let dir = tmp_dir("segments");
        let opts = PersistOptions::new(&dir).segment_cap(128);
        let (mut log, recovered) = DurableLog::open_with(&opts, "node0-g0").unwrap();
        assert!(recovered.is_empty());
        for i in 0..20 {
            log.append(&rec(i, b"0123456789abcdef")).unwrap();
        }
        log.sync().unwrap();
        assert!(log.segment_index() >= 2, "128-byte cap must have rolled");
        let total = log.byte_len();
        drop(log);
        // Reopen: all records replay across segments, appends continue.
        let (mut log, recovered) = DurableLog::open_with(&opts, "node0-g0").unwrap();
        assert_eq!(recovered.len(), 20);
        assert_eq!(log.byte_len(), total);
        log.append(&rec(20, b"after-restart")).unwrap();
        log.sync().unwrap();
        drop(log);
        let records = read_log(&dir, "node0-g0").unwrap();
        assert_eq!(records.len(), 21);
        assert_eq!(records.last().unwrap().seq, 20);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as i64);
        }
    }

    #[test]
    fn mid_history_corruption_drops_later_segments() {
        let dir = tmp_dir("hole");
        let opts = PersistOptions::new(&dir).segment_cap(96);
        let (mut log, _) = DurableLog::open_with(&opts, "n").unwrap();
        for i in 0..12 {
            log.append(&rec(i, b"0123456789abcdef")).unwrap();
        }
        log.sync().unwrap();
        assert!(log.segment_index() >= 2);
        drop(log);
        // Corrupt segment 1's first record body.
        let seg1 = segment_path(&dir, "n", 1);
        let mut raw = std::fs::read(&seg1).unwrap();
        raw[FRAME_HEADER + 1] ^= 0xFF;
        std::fs::write(&seg1, &raw).unwrap();
        let seg0_records = parse_prefix(&std::fs::read(segment_path(&dir, "n", 0)).unwrap())
            .0
            .len();
        let (log, recovered) = DurableLog::open_with(&opts, "n").unwrap();
        assert_eq!(
            recovered.len(),
            seg0_records,
            "the hole in segment 1 cuts everything after segment 0"
        );
        assert_eq!(log.segment_index(), 1, "segment 1 becomes the active tail");
        assert!(
            !segment_path(&dir, "n", 2).exists(),
            "unreachable later segments are discarded"
        );
        // The read-only view agrees with recovery.
        assert_eq!(read_log(&dir, "n").unwrap().len(), seg0_records);
    }

    #[test]
    fn scan_dir_finds_segmented_and_plain_logs() {
        let dir = tmp_dir("scan");
        let opts = PersistOptions::new(&dir);
        for name in ["node1-g0", "node0-g0"] {
            let (mut log, _) = DurableLog::open_with(&opts, name).unwrap();
            log.append(&rec(0, b"seg")).unwrap();
            log.sync().unwrap();
        }
        let logs = scan_dir(&dir).unwrap();
        let names: Vec<&str> = logs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["node0-g0", "node1-g0"]);
        assert!(logs.iter().all(|(_, r)| r.len() == 1));
        // Missing directory reads as empty, like read_log.
        assert!(scan_dir(dir.join("nope")).unwrap().is_empty());
    }

    #[test]
    fn all_records_sorted_orders_by_subgroup_epoch_seq() {
        let dir = tmp_dir("sorted");
        let opts = PersistOptions::new(&dir);
        let mk = |epoch, subgroup, seq| LogRecord {
            epoch,
            subgroup,
            seq,
            sender_rank: 0,
            app_index: 0,
            data: vec![],
        };
        let (mut g1, _) = DurableLog::open_with(&opts, "node0-g1").unwrap();
        g1.append(&mk(0, 1, 0)).unwrap();
        g1.sync().unwrap();
        let (mut g0, _) = DurableLog::open_with(&opts, "node0-g0").unwrap();
        for r in [mk(0, 0, 0), mk(0, 0, 1), mk(1, 0, 0)] {
            g0.append(&r).unwrap();
        }
        g0.sync().unwrap();
        let all = all_records_sorted(&dir).unwrap();
        let keys: Vec<(u32, u64, i64)> = all.iter().map(|r| (r.subgroup, r.epoch, r.seq)).collect();
        assert_eq!(keys, vec![(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]);
    }
}
