//! The length-prefixed wire codec for fabric frames.
//!
//! Layout of one frame (all integers little-endian):
//!
//! ```text
//! len:u32  kind:u8  body...
//! ```
//!
//! `len` counts everything after the length field (kind byte + body).
//! Two fabric kinds exist, plus four control kinds for the distributed
//! join handshake (`JOIN` 0x03 / `JOIN_STATE` 0x04 / `JOIN_COMMIT` 0x05
//! / `JOIN_REDIRECT` 0x06 — see [`join`](crate::join)):
//!
//! * `HELLO` (`0x01`) — the bootstrap handshake, sent once as the first
//!   frame of every connection: `version:u16 src:u32 nodes:u32
//!   region_words:u64 epoch:u64`. The receiver verifies that both sides
//!   agree on the protocol version, cluster size, SST layout size and
//!   epoch before applying any writes.
//! * `WRITE` (`0x02`) — one one-sided write: `offset:u64 wire_bytes:u32
//!   nwords:u32` followed by `nwords` 8-byte words snapshotted from the
//!   poster's replica at post time. The receiver places the words into its
//!   local mirror region at `offset`, in increasing word order — because
//!   each peer pair is one ordered TCP byte stream, two writes posted in
//!   order arrive in order, which is exactly RDMA's per-QP fencing
//!   guarantee (§2.2).
//!
//! Decoding never panics: truncated, oversized and garbage inputs are all
//! rejected with a typed [`WireError`], and a [`WireError::Truncated`]
//! result doubles as the streaming decoder's "need more bytes" signal.

use std::collections::VecDeque;
use std::fmt;
use std::io::IoSlice;
use std::marker::PhantomData;
use std::ops::Range;

use spindle_fabric::{NodeId, WriteOp};

/// Protocol version spoken by this build (checked in `HELLO` and `JOIN`).
///
/// Version 2: the batched single-poller wire path (frames may arrive
/// coalesced into one TCP segment — already legal under v1 framing) and
/// `JoinEndpoint`-encoded join proposals on the guarded SST list, which
/// changed the proposal word layout every member must agree on. The
/// frame layouts themselves are unchanged; the bump is what keeps a v1
/// build from interpreting a v2 proposal's endpoint words as a packed
/// IPv4 join word.
pub const PROTO_VERSION: u16 = 2;

/// Frame kind byte of [`Frame::Hello`].
pub const KIND_HELLO: u8 = 0x01;
/// Frame kind byte of [`Frame::Write`].
pub const KIND_WRITE: u8 = 0x02;
/// Frame kind byte of [`Frame::Join`].
pub const KIND_JOIN: u8 = 0x03;
/// Frame kind byte of [`Frame::JoinState`].
pub const KIND_JOIN_STATE: u8 = 0x04;
/// Frame kind byte of [`Frame::JoinCommit`].
pub const KIND_JOIN_COMMIT: u8 = 0x05;
/// Frame kind byte of [`Frame::JoinRedirect`].
pub const KIND_JOIN_REDIRECT: u8 = 0x06;

/// Upper bound on any length-prefixed string in a join frame (addresses
/// are `host:port`; anything longer is garbage).
pub const MAX_JOIN_STR: usize = 256;

/// Upper bound on the words carried by one `WRITE` frame (16 MiB of
/// payload). SST regions are far smaller; anything above this is garbage
/// or an attack, not a legitimate frame.
pub const MAX_FRAME_WORDS: usize = 1 << 21;

/// Upper bound on `len` for any frame, implied by [`MAX_FRAME_WORDS`].
pub const MAX_FRAME_LEN: usize = 17 + MAX_FRAME_WORDS * 8;

/// Decode failure (see the [module docs](self) for the frame layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does. In streaming use this means
    /// "read more bytes"; at end-of-stream it means the peer died
    /// mid-frame.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs (length prefix included).
        need: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`] — garbage or an
    /// unframed stream.
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The declared length does not match the kind's body layout (e.g. a
    /// `WRITE` whose `nwords` disagrees with `len`).
    LengthMismatch {
        /// The offending kind byte.
        kind: u8,
        /// The declared length.
        len: usize,
    },
    /// A `HELLO` frame with a protocol version this build does not speak.
    BadVersion(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: len {len} > max {MAX_FRAME_LEN}")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::LengthMismatch { kind, len } => {
                write!(f, "frame length {len} inconsistent with kind 0x{kind:02x}")
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "peer speaks protocol version {v}, this build speaks {PROTO_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The bootstrap handshake payload (first frame of every connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version of the sender.
    pub version: u16,
    /// The sender's node id.
    pub src: u32,
    /// Cluster size the sender was configured with.
    pub nodes: u32,
    /// SST region size (in words) the sender computed from the view.
    pub region_words: u64,
    /// Epoch (view id) the sender is running.
    pub epoch: u64,
}

/// One one-sided write on the wire: the covered words of the poster's
/// replica, snapshotted at post time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteFrame {
    /// Destination word offset (equals the source offset; see
    /// [`WriteOp`]).
    pub offset: u64,
    /// Bytes accounted on the wire for the logical write (normally
    /// `words.len() * 8`).
    pub wire_bytes: u32,
    /// The snapshotted words.
    pub words: Vec<u64>,
}

impl WriteFrame {
    /// Builds the frame for `op`, snapshotting `words` (the caller reads
    /// them from its local replica at post time).
    ///
    /// # Panics
    ///
    /// Panics if `words` does not cover exactly `op`'s range.
    pub fn for_op(op: &WriteOp, words: Vec<u64>) -> WriteFrame {
        assert_eq!(words.len(), op.words(), "snapshot must cover the op range");
        WriteFrame {
            offset: op.range.start as u64,
            wire_bytes: op.wire_bytes as u32,
            words,
        }
    }

    /// The word range this write covers at the destination.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if `offset + words.len()` overflows;
    /// validate untrusted frames with checked arithmetic against the
    /// region size before calling (as the reader loop does).
    pub fn range(&self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + self.words.len()
    }

    /// Reconstructs the logical [`WriteOp`] (for tests and tracing).
    pub fn to_op(&self, dst: NodeId) -> WriteOp {
        WriteOp {
            dst,
            range: self.range(),
            wire_bytes: self.wire_bytes as usize,
        }
    }
}

/// A joiner's opening frame: the first (and only) frame a fresh process
/// sends when it dials a cluster member's listener to request admission.
/// The sponsor answers over the same stream with [`Frame::JoinState`]
/// and [`Frame::JoinCommit`] — or [`Frame::JoinRedirect`] when it does
/// not host the leader row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinFrame {
    /// Protocol version of the joiner.
    pub version: u16,
    /// Whether the joiner wants to multicast (join as a sender).
    pub as_sender: bool,
    /// The joiner's advertised listen address (`host:port`).
    pub addr: String,
}

/// The state-transfer snapshot the sponsor sends a joiner before the
/// epoch transition: the sponsor's current epoch, the frozen per-subgroup
/// receive frontiers (where the old epoch's total order stands), and the
/// tail of the sponsor's durable log (encoded `spindle_persist`
/// records; empty in non-persistent clusters). The joiner enters at the
/// *next* epoch and delivers nothing older — the snapshot is what brings
/// its application state up to the cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStateFrame {
    /// The sponsor's epoch at snapshot time.
    pub epoch: u64,
    /// The row id the joiner will occupy.
    pub new_row: u32,
    /// Per-subgroup receive frontiers at snapshot time.
    pub frontiers: Vec<i64>,
    /// Encoded durable-log records (the state-transfer payload).
    pub records: Vec<Vec<u8>>,
}

/// One subgroup's shape inside a [`JoinCommitFrame`] — enough for the
/// joiner to rebuild the installed view bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgroupShape {
    /// Member rows.
    pub members: Vec<u32>,
    /// Sender rows.
    pub senders: Vec<u32>,
    /// SMC ring window.
    pub window: u32,
    /// Maximum payload bytes.
    pub max_msg: u32,
}

/// The sponsor's commit: the cluster installed the epoch that admits the
/// joiner. Carries everything the joiner needs to bring up its endpoint
/// — the new view id, its row, every row's listen address, and the
/// installed subgroup shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCommitFrame {
    /// The installed view id (the joiner's first epoch).
    pub vid: u64,
    /// The joiner's row.
    pub new_row: u32,
    /// Listen address per row of the new view (the joiner's own address
    /// echoed back at index `new_row`).
    pub addrs: Vec<String>,
    /// The installed view's subgroups.
    pub subgroups: Vec<SubgroupShape>,
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake.
    Hello(Hello),
    /// One-sided write.
    Write(WriteFrame),
    /// A joiner's admission request.
    Join(JoinFrame),
    /// Sponsor → joiner: the state-transfer snapshot.
    JoinState(JoinStateFrame),
    /// Sponsor → joiner: the epoch admitting the joiner is installed.
    JoinCommit(JoinCommitFrame),
    /// Sponsor → joiner: re-dial the leader at this address.
    JoinRedirect(String),
}

/// Appends the encoding of `frame` to `out`; returns the encoded size.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> usize {
    match frame {
        Frame::Hello(h) => encode_hello(h, out),
        Frame::Write(w) => encode_write_frame(w, out),
        Frame::Join(j) => encode_join(j, out),
        Frame::JoinState(s) => encode_join_state(s, out),
        Frame::JoinCommit(c) => encode_join_commit(c, out),
        Frame::JoinRedirect(addr) => encode_join_redirect(addr, out),
    }
}

/// Encodes a frame with kind byte + body builder, fixing up the length
/// prefix afterwards. Shared with the relay codec ([`edge`](crate::edge)),
/// whose frames have the same envelope.
pub(crate) fn encode_with_body(
    kind: u8,
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = out.len();
    out.extend_from_slice(&0u32.to_le_bytes()); // patched below
    out.push(kind);
    body(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out.len() - start
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= MAX_JOIN_STR, "join string exceeds cap");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends the encoding of one `JOIN`; returns the encoded size.
pub fn encode_join(j: &JoinFrame, out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_JOIN, out, |b| {
        b.extend_from_slice(&j.version.to_le_bytes());
        b.push(j.as_sender as u8);
        put_str(b, &j.addr);
    })
}

/// Appends the encoding of one `JOIN_STATE`; returns the encoded size.
pub fn encode_join_state(s: &JoinStateFrame, out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_JOIN_STATE, out, |b| {
        b.extend_from_slice(&s.epoch.to_le_bytes());
        b.extend_from_slice(&s.new_row.to_le_bytes());
        b.extend_from_slice(&(s.frontiers.len() as u32).to_le_bytes());
        for f in &s.frontiers {
            b.extend_from_slice(&f.to_le_bytes());
        }
        b.extend_from_slice(&(s.records.len() as u32).to_le_bytes());
        for r in &s.records {
            b.extend_from_slice(&(r.len() as u32).to_le_bytes());
            b.extend_from_slice(r);
        }
    })
}

/// Appends the encoding of one `JOIN_COMMIT`; returns the encoded size.
pub fn encode_join_commit(c: &JoinCommitFrame, out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_JOIN_COMMIT, out, |b| {
        b.extend_from_slice(&c.vid.to_le_bytes());
        b.extend_from_slice(&c.new_row.to_le_bytes());
        b.extend_from_slice(&(c.addrs.len() as u32).to_le_bytes());
        for a in &c.addrs {
            put_str(b, a);
        }
        b.extend_from_slice(&(c.subgroups.len() as u32).to_le_bytes());
        for sg in &c.subgroups {
            b.extend_from_slice(&sg.window.to_le_bytes());
            b.extend_from_slice(&sg.max_msg.to_le_bytes());
            b.extend_from_slice(&(sg.members.len() as u32).to_le_bytes());
            for m in &sg.members {
                b.extend_from_slice(&m.to_le_bytes());
            }
            b.extend_from_slice(&(sg.senders.len() as u32).to_le_bytes());
            for s in &sg.senders {
                b.extend_from_slice(&s.to_le_bytes());
            }
        }
    })
}

/// Appends the encoding of one `JOIN_REDIRECT`; returns the encoded size.
pub fn encode_join_redirect(addr: &str, out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_JOIN_REDIRECT, out, |b| put_str(b, addr))
}

/// Appends the encoding of one `HELLO`; returns the encoded size.
pub fn encode_hello(h: &Hello, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&27u32.to_le_bytes());
    out.push(KIND_HELLO);
    out.extend_from_slice(&h.version.to_le_bytes());
    out.extend_from_slice(&h.src.to_le_bytes());
    out.extend_from_slice(&h.nodes.to_le_bytes());
    out.extend_from_slice(&h.region_words.to_le_bytes());
    out.extend_from_slice(&h.epoch.to_le_bytes());
    out.len() - start
}

/// Appends the encoding of one `WRITE`; returns the encoded size. Takes
/// the frame by reference so the per-post hot path never clones the word
/// snapshot.
pub fn encode_write_frame(w: &WriteFrame, out: &mut Vec<u8>) -> usize {
    assert!(w.words.len() <= MAX_FRAME_WORDS, "write exceeds frame cap");
    let start = out.len();
    let len = 17 + w.words.len() * 8;
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(KIND_WRITE);
    out.extend_from_slice(&w.offset.to_le_bytes());
    out.extend_from_slice(&w.wire_bytes.to_le_bytes());
    out.extend_from_slice(&(w.words.len() as u32).to_le_bytes());
    for word in &w.words {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.len() - start
}

/// A bounds-checked body cursor for the variable-length join frames:
/// every read returns `None` past the end, mapped to
/// [`WireError::LengthMismatch`] by the decoder.
struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Cursor<'a> {
        Cursor { b, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.b.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(self.u64()? as i64)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        if len > MAX_JOIN_STR {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.b.len()
    }
}

fn decode_join(body: &[u8]) -> Option<JoinFrame> {
    let mut c = Cursor::new(body);
    let version = c.u16()?;
    let as_sender = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let addr = c.str()?;
    (c.done() && version == PROTO_VERSION).then_some(JoinFrame {
        version,
        as_sender,
        addr,
    })
}

fn decode_join_state(body: &[u8]) -> Option<JoinStateFrame> {
    let mut c = Cursor::new(body);
    let epoch = c.u64()?;
    let new_row = c.u32()?;
    let nf = c.u32()? as usize;
    if nf > 1024 {
        return None;
    }
    let frontiers = (0..nf).map(|_| c.i64()).collect::<Option<Vec<_>>>()?;
    let nr = c.u32()? as usize;
    let mut records = Vec::new();
    for _ in 0..nr {
        let len = c.u32()? as usize;
        records.push(c.take(len)?.to_vec());
    }
    c.done().then_some(JoinStateFrame {
        epoch,
        new_row,
        frontiers,
        records,
    })
}

fn decode_join_commit(body: &[u8]) -> Option<JoinCommitFrame> {
    let mut c = Cursor::new(body);
    let vid = c.u64()?;
    let new_row = c.u32()?;
    let na = c.u32()? as usize;
    if na > 1024 {
        return None;
    }
    let addrs = (0..na).map(|_| c.str()).collect::<Option<Vec<_>>>()?;
    let ng = c.u32()? as usize;
    if ng > 1024 {
        return None;
    }
    let mut subgroups = Vec::with_capacity(ng);
    for _ in 0..ng {
        let window = c.u32()?;
        let max_msg = c.u32()?;
        let nm = c.u32()? as usize;
        if nm > 1024 {
            return None;
        }
        let members = (0..nm).map(|_| c.u32()).collect::<Option<Vec<_>>>()?;
        let ns = c.u32()? as usize;
        if ns > 1024 {
            return None;
        }
        let senders = (0..ns).map(|_| c.u32()).collect::<Option<Vec<_>>>()?;
        subgroups.push(SubgroupShape {
            members,
            senders,
            window,
            max_msg,
        });
    }
    c.done().then_some(JoinCommitFrame {
        vid,
        new_row,
        addrs,
        subgroups,
    })
}

pub(crate) fn rd_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(b[at..at + 2].try_into().expect("bounds checked"))
}

pub(crate) fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked"))
}

pub(crate) fn rd_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked"))
}

/// Splits the first `len:u32 kind:u8 body` envelope off `buf`, returning
/// the kind byte, the body and the total bytes the frame occupies. The
/// fabric and relay codecs share the envelope and differ only in the
/// `max_len` they tolerate and the kinds they know.
pub(crate) fn split_envelope(buf: &[u8], max_len: usize) -> Result<(u8, &[u8], usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            have: buf.len(),
            need: 4,
        });
    }
    let len = rd_u32(buf, 0) as usize;
    if len > max_len {
        return Err(WireError::Oversized { len });
    }
    // A frame always carries at least its kind byte.
    if len == 0 {
        return Err(WireError::LengthMismatch { kind: 0, len });
    }
    let total = 4 + len;
    if buf.len() < total {
        return Err(WireError::Truncated {
            have: buf.len(),
            need: total,
        });
    }
    Ok((buf[4], &buf[5..total], total))
}

/// Decodes the first frame in `buf`.
///
/// Returns the frame and the number of bytes consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] when `buf` holds a prefix of a valid frame
/// (read more and retry); any other [`WireError`] means the stream is
/// corrupt and must be dropped.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let (kind, body, total) = split_envelope(buf, MAX_FRAME_LEN)?;
    let len = total - 4;
    let frame = match kind {
        KIND_HELLO => {
            if body.len() != 26 {
                return Err(WireError::LengthMismatch { kind, len });
            }
            let version = rd_u16(body, 0);
            if version != PROTO_VERSION {
                return Err(WireError::BadVersion(version));
            }
            Frame::Hello(Hello {
                version,
                src: rd_u32(body, 2),
                nodes: rd_u32(body, 6),
                region_words: rd_u64(body, 10),
                epoch: rd_u64(body, 18),
            })
        }
        KIND_WRITE => {
            if body.len() < 16 {
                return Err(WireError::LengthMismatch { kind, len });
            }
            let offset = rd_u64(body, 0);
            let wire_bytes = rd_u32(body, 8);
            let nwords = rd_u32(body, 12) as usize;
            if nwords > MAX_FRAME_WORDS || body.len() != 16 + nwords * 8 {
                return Err(WireError::LengthMismatch { kind, len });
            }
            let words = (0..nwords).map(|i| rd_u64(body, 16 + i * 8)).collect();
            Frame::Write(WriteFrame {
                offset,
                wire_bytes,
                words,
            })
        }
        KIND_JOIN => {
            // JOIN carries its own version word (a joiner has no HELLO);
            // report a version skew as BadVersion, not a length error.
            if body.len() >= 2 {
                let version = rd_u16(body, 0);
                if version != PROTO_VERSION {
                    return Err(WireError::BadVersion(version));
                }
            }
            Frame::Join(decode_join(body).ok_or(WireError::LengthMismatch { kind, len })?)
        }
        KIND_JOIN_STATE => Frame::JoinState(
            decode_join_state(body).ok_or(WireError::LengthMismatch { kind, len })?,
        ),
        KIND_JOIN_COMMIT => Frame::JoinCommit(
            decode_join_commit(body).ok_or(WireError::LengthMismatch { kind, len })?,
        ),
        KIND_JOIN_REDIRECT => {
            let mut c = Cursor::new(body);
            let addr = c
                .str()
                .filter(|_| c.done())
                .ok_or(WireError::LengthMismatch { kind, len })?;
            Frame::JoinRedirect(addr)
        }
        other => return Err(WireError::BadKind(other)),
    };
    Ok((frame, total))
}

/// Linux caps one `writev` at 1024 iovecs; staying under it means a
/// drain call never splits for silly reasons.
const MAX_IOVECS: usize = 1024;

/// An outbound queue of encoded frames that drains as **one vectored
/// write** per readiness — the §3 batching insight applied at the wire
/// layer. Generic over the buffer `B` (the mesh owns pooled `Vec<u8>`s;
/// the relay shares one `Arc<[u8]>` encoding across a thousand
/// clients) and a per-frame stamp `T` (the mesh stamps the epoch the
/// words were snapshotted from; the relay the enqueue time).
///
/// Partial writes are first-class: [`FrameQueue::advance`] consumes what
/// the kernel accepted, keeping the head frame's unwritten tail at the
/// front so the byte stream stays framed. On a reconnect the caller
/// [`FrameQueue::rewind_head`]s so the fresh stream starts at a frame
/// boundary, and [`FrameQueue::drop_unwritten`] discards frames nobody
/// wants any more without ever tearing a half-sent one.
#[derive(Debug)]
pub struct FrameQueue<B, T> {
    frames: VecDeque<(T, B)>,
    /// Bytes of the head frame already written to the current stream.
    head_written: usize,
    /// Total unwritten bytes across the queue.
    pending_bytes: usize,
}

impl<B, T> Default for FrameQueue<B, T> {
    fn default() -> Self {
        FrameQueue {
            frames: VecDeque::new(),
            head_written: 0,
            pending_bytes: 0,
        }
    }
}

impl<B: AsRef<[u8]>, T> FrameQueue<B, T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued frames (including a partially written head).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unwritten bytes across all queued frames.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Queues one encoded frame.
    pub fn push(&mut self, stamp: T, buf: B) {
        self.pending_bytes += buf.as_ref().len();
        self.frames.push_back((stamp, buf));
    }

    /// Queues one encoded frame at the *front* (the `HELLO` of a fresh
    /// connection must precede any already-queued writes).
    ///
    /// # Panics
    ///
    /// Panics if the head frame is partially written — a caller must
    /// [`FrameQueue::rewind_head`] (fresh stream) first.
    pub fn push_front(&mut self, stamp: T, buf: B) {
        assert_eq!(self.head_written, 0, "cannot preempt a half-sent frame");
        self.pending_bytes += buf.as_ref().len();
        self.frames.push_front((stamp, buf));
    }

    /// The unwritten byte ranges, ready for `write_vectored` (capped at
    /// the kernel's iovec limit; a later drain picks up the rest).
    pub fn io_slices(&self) -> Vec<IoSlice<'_>> {
        let mut out = Vec::with_capacity(self.frames.len().min(MAX_IOVECS));
        for (i, (_, buf)) in self.frames.iter().take(MAX_IOVECS).enumerate() {
            let skip = if i == 0 { self.head_written } else { 0 };
            out.push(IoSlice::new(&buf.as_ref()[skip..]));
        }
        out
    }

    /// Consumes `n` written bytes from the front, handing every frame
    /// that fully left the socket to `flushed` (the mesh recycles the
    /// buffer, the relay records enqueue→flushed latency). Returns how
    /// many frames completed.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the queued bytes.
    pub fn advance(&mut self, mut n: usize, mut flushed: impl FnMut(T, B)) -> usize {
        assert!(n <= self.pending_bytes, "advanced past the queued bytes");
        self.pending_bytes -= n;
        let mut completed = 0;
        while n > 0 {
            let head_left = self.frames[0].1.as_ref().len() - self.head_written;
            if n >= head_left {
                n -= head_left;
                self.head_written = 0;
                let (stamp, buf) = self.frames.pop_front().expect("head exists");
                flushed(stamp, buf);
                completed += 1;
            } else {
                self.head_written += n;
                n = 0;
            }
        }
        completed
    }

    /// Forgets any partial progress on the head frame: the stream it was
    /// written to is gone, and the next connection must start at a frame
    /// boundary (the peer never applied the half-frame — its decoder
    /// needs the whole frame).
    pub fn rewind_head(&mut self) {
        self.pending_bytes += self.head_written;
        self.head_written = 0;
    }

    /// Drops, oldest first, every fully-unwritten frame `doomed` condemns;
    /// it sees the frame's stamp and the bytes still pending at that
    /// point (so "older than this epoch" and "until the backlog fits the
    /// cap" are both one closure). A partially written head is never
    /// dropped — that would tear the live stream's framing mid-frame.
    /// Returns `(frames_dropped, bytes_dropped)`.
    pub fn drop_unwritten(&mut self, mut doomed: impl FnMut(&T, usize) -> bool) -> (usize, usize) {
        let mut spare_head = self.head_written > 0;
        let mut pending = self.pending_bytes;
        let mut dropped = (0, 0);
        self.frames.retain(|(stamp, buf)| {
            if std::mem::take(&mut spare_head) || !doomed(stamp, pending) {
                return true;
            }
            let len = buf.as_ref().len();
            pending -= len;
            dropped = (dropped.0 + 1, dropped.1 + len);
            false
        });
        self.pending_bytes = pending;
        dropped
    }
}

/// A frame type that decodes itself off the front of a byte stream —
/// the one thing [`FrameAssembler`] needs to know about a codec.
pub trait StreamFrame: Sized {
    /// Decodes the first frame in `buf`; returns it with the bytes
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `buf` holds a prefix of a valid
    /// frame; any other [`WireError`] means the stream is corrupt.
    fn decode(buf: &[u8]) -> Result<(Self, usize), WireError>;
}

impl StreamFrame for Frame {
    fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        decode_frame(buf)
    }
}

/// Incremental frame reassembly, agnostic of where the bytes come from
/// and of which codec frames them: a poller [`FrameAssembler::feed`]s
/// whatever a nonblocking read returned and pulls complete frames out
/// one by one — exactly the "interleaved partial writes reassemble to
/// the identical frame stream" contract the codec property tests pin
/// down.
#[derive(Debug)]
pub struct FrameAssembler<F = Frame> {
    buf: Vec<u8>,
    pos: usize,
    codec: PhantomData<fn() -> F>,
}

impl<F> Default for FrameAssembler<F> {
    fn default() -> Self {
        FrameAssembler {
            buf: Vec::new(),
            pos: 0,
            codec: PhantomData,
        }
    }
}

impl<F: StreamFrame> FrameAssembler<F> {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, or `Ok(None)` until more bytes arrive.
    ///
    /// # Errors
    ///
    /// Any non-[`WireError::Truncated`] decode failure: the stream is
    /// corrupt and must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<F>, WireError> {
        match F::decode(&self.buf[self.pos..]) {
            Ok((frame, used)) => {
                self.pos += used;
                if self.pos >= 64 * 1024 {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some(frame))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{encode_edge_frame, EdgeFrame};
    use std::sync::Arc;

    fn roundtrip(f: &Frame) {
        let mut buf = Vec::new();
        let n = encode_frame(f, &mut buf);
        assert_eq!(n, buf.len());
        let (back, used) = decode_frame(&buf).expect("decode");
        assert_eq!(used, buf.len());
        assert_eq!(&back, f);
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(&Frame::Hello(Hello {
            version: PROTO_VERSION,
            src: 2,
            nodes: 5,
            region_words: 12_345,
            epoch: 7,
        }));
    }

    #[test]
    fn write_roundtrip_and_op_reconstruction() {
        let op = WriteOp::new(NodeId(1), 10..14);
        let frame = WriteFrame::for_op(&op, vec![1, 2, 3, 4]);
        roundtrip(&Frame::Write(frame.clone()));
        assert_eq!(frame.range(), 10..14);
        assert_eq!(frame.to_op(NodeId(1)), op);
    }

    #[test]
    fn join_frames_roundtrip() {
        roundtrip(&Frame::Join(JoinFrame {
            version: PROTO_VERSION,
            as_sender: true,
            addr: "127.0.0.1:7144".into(),
        }));
        roundtrip(&Frame::JoinState(JoinStateFrame {
            epoch: 3,
            new_row: 4,
            frontiers: vec![-1, 42],
            records: vec![vec![1, 2, 3], Vec::new(), vec![0xFF; 64]],
        }));
        roundtrip(&Frame::JoinCommit(JoinCommitFrame {
            vid: 4,
            new_row: 3,
            addrs: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            subgroups: vec![SubgroupShape {
                members: vec![0, 1, 2, 3],
                senders: vec![0, 3],
                window: 16,
                max_msg: 64,
            }],
        }));
        roundtrip(&Frame::JoinRedirect("10.0.0.1:7101".into()));
    }

    #[test]
    fn join_decode_rejects_garbage() {
        // A truncated JOIN body is a length mismatch, not a panic.
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Join(JoinFrame {
                version: PROTO_VERSION,
                as_sender: false,
                addr: "a:1".into(),
            }),
            &mut buf,
        );
        // Chop one byte off the body and fix the length prefix.
        buf.pop();
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) - 1;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::LengthMismatch {
                kind: KIND_JOIN,
                ..
            })
        ));
        // A version-skewed joiner is told so explicitly.
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Join(JoinFrame {
                version: PROTO_VERSION,
                as_sender: false,
                addr: "a:1".into(),
            }),
            &mut buf,
        );
        buf[5] = 0xEE;
        assert_eq!(decode_frame(&buf), Err(WireError::BadVersion(0x00EE)));
    }

    #[test]
    fn two_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        let a = Frame::Write(WriteFrame {
            offset: 0,
            wire_bytes: 8,
            words: vec![9],
        });
        let b = Frame::Write(WriteFrame {
            offset: 5,
            wire_bytes: 16,
            words: vec![1, 2],
        });
        encode_frame(&a, &mut buf);
        encode_frame(&b, &mut buf);
        let (f1, used1) = decode_frame(&buf).unwrap();
        let (f2, used2) = decode_frame(&buf[used1..]).unwrap();
        assert_eq!(f1, a);
        assert_eq!(f2, b);
        assert_eq!(used1 + used2, buf.len());
    }

    #[test]
    fn empty_and_tiny_buffers_are_truncated() {
        assert!(matches!(
            decode_frame(&[]),
            Err(WireError::Truncated { have: 0, need: 4 })
        ));
        assert!(matches!(
            decode_frame(&[1, 0]),
            Err(WireError::Truncated { have: 2, need: 4 })
        ));
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        assert_eq!(
            decode_frame(&[0, 0, 0, 0]),
            Err(WireError::LengthMismatch { kind: 0, len: 0 })
        );
    }

    #[test]
    fn bad_version_is_typed() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Hello(Hello {
                version: PROTO_VERSION,
                src: 0,
                nodes: 2,
                region_words: 8,
                epoch: 0,
            }),
            &mut buf,
        );
        buf[5] = 0xEE; // version low byte
        assert_eq!(decode_frame(&buf), Err(WireError::BadVersion(0x00EE)));
    }

    fn write_bytes(offset: u64, words: &[u64]) -> Vec<u8> {
        let mut b = Vec::new();
        encode_write_frame(
            &WriteFrame {
                offset,
                wire_bytes: (words.len() * 8) as u32,
                words: words.to_vec(),
            },
            &mut b,
        );
        b
    }

    /// One relay sample frame with a `len`-byte payload, as raw bytes.
    fn sample_bytes(index: u64, len: usize) -> Vec<u8> {
        let mut b = Vec::new();
        crate::edge::encode_sample(1, 0, index, 0, &vec![index as u8; len], &mut b);
        b
    }

    // The queue tests run once per buffer kind: the mesh's owned
    // `Vec<u8>` and the relay's shared `Arc<[u8]>`.

    fn coalesces_frames_into_one_slice_list<B: AsRef<[u8]>>(mk: impl Fn(Vec<u8>) -> B) {
        let mut q = FrameQueue::new();
        for i in 0..5u64 {
            q.push(i, mk(write_bytes(i, &[i])));
        }
        assert_eq!(q.len(), 5);
        let slices = q.io_slices();
        assert_eq!(slices.len(), 5, "every queued frame drains in one call");
        let total: usize = slices.iter().map(|s| s.len()).sum();
        assert_eq!(total, q.pending_bytes());
        // Full drain completes all frames, handing each back in order.
        let mut flushed = Vec::new();
        assert_eq!(q.advance(total, |stamp, buf| flushed.push((stamp, buf))), 5);
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
        for (i, (stamp, buf)) in flushed.iter().enumerate() {
            assert_eq!(*stamp, i as u64);
            assert_eq!(buf.as_ref(), write_bytes(i as u64, &[i as u64]));
        }
    }

    fn partial_write_keeps_framing<B: AsRef<[u8]>>(mk: impl Fn(Vec<u8>) -> B) {
        let mut q = FrameQueue::new();
        let a = write_bytes(0, &[1, 2]);
        let b = sample_bytes(1, 50);
        let (alen, blen) = (a.len(), b.len());
        q.push((), mk(a));
        q.push((), mk(b));
        // The kernel took frame A and 3 bytes of frame B.
        assert_eq!(q.advance(alen + 3, |(), _| ()), 1);
        assert_eq!(q.pending_bytes(), blen - 3);
        let slices = q.io_slices();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].len(), blen - 3, "resumes at the partial point");
        // The stream died: a fresh connection restarts frame B whole, and
        // only then may a HELLO go in front of it.
        q.rewind_head();
        assert_eq!(q.pending_bytes(), blen);
        assert_eq!(q.io_slices()[0].len(), blen);
        q.push_front((), mk(write_bytes(9, &[9])));
        assert_eq!(q.io_slices()[1].len(), blen);
    }

    fn drop_unwritten_spares_a_half_sent_head<B: AsRef<[u8]>>(mk: impl Fn(Vec<u8>) -> B) {
        // The mesh's predicate: frames stamped with a dead epoch.
        let mut q = FrameQueue::new();
        q.push(1u64, mk(write_bytes(0, &[1])));
        q.push(1, mk(write_bytes(1, &[2])));
        q.push(2, mk(write_bytes(2, &[3])));
        let each = q.io_slices()[1].len();
        // 2 bytes of the head are on the wire; dropping it would tear
        // the stream mid-frame.
        q.advance(2, |_, _| ());
        assert_eq!(
            q.drop_unwritten(|&e, _| e < 2),
            (1, each),
            "only the unsent stale frame"
        );
        assert_eq!(q.len(), 2);
        // Head finished (and dequeued): the rest is droppable.
        let head_left = q.io_slices()[0].len();
        q.advance(head_left, |_, _| ());
        assert_eq!(q.drop_unwritten(|&e, _| e < 3), (1, each));
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);

        // The relay's predicate: oldest first until the backlog fits.
        let mut q = FrameQueue::new();
        let lens: Vec<usize> = (0..4u64)
            .map(|i| {
                let f = sample_bytes(i, 50);
                let len = f.len();
                q.push(i, mk(f));
                len
            })
            .collect();
        // Untouched head: shedding to "three frames fit" drops exactly it.
        let cap = lens[1] + lens[2] + lens[3];
        assert_eq!(q.drop_unwritten(|_, pending| pending > cap), (1, lens[0]));
        assert_eq!(q.pending_bytes(), cap);
        // 10 bytes of the new head on the wire: shedding to zero must
        // keep it, and the remaining slice resumes at the partial point.
        assert_eq!(q.advance(10, |_, _| ()), 0);
        let rest = lens[2] + lens[3];
        assert_eq!(q.drop_unwritten(|_, pending| pending > 0), (2, rest));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pending_bytes(), lens[1] - 10);
        assert_eq!(q.io_slices()[0].len(), lens[1] - 10);
    }

    #[test]
    fn queue_contract_holds_for_owned_and_shared_buffers() {
        coalesces_frames_into_one_slice_list(|v| v);
        coalesces_frames_into_one_slice_list(Arc::<[u8]>::from);
        partial_write_keeps_framing(|v| v);
        partial_write_keeps_framing(Arc::<[u8]>::from);
        drop_unwritten_spares_a_half_sent_head(|v| v);
        drop_unwritten_spares_a_half_sent_head(Arc::<[u8]>::from);
    }

    #[test]
    fn queue_shares_one_encoding_across_clients() {
        let frame: Arc<[u8]> = sample_bytes(0, 1000).into();
        let mut queues: Vec<FrameQueue<Arc<[u8]>, ()>> =
            (0..100).map(|_| FrameQueue::new()).collect();
        for q in &mut queues {
            q.push((), Arc::clone(&frame));
        }
        // 100 queues, one buffer: encode-once fan-out.
        assert_eq!(Arc::strong_count(&frame), 101);
        for q in &mut queues {
            let total: usize = q.io_slices().iter().map(|s| s.len()).sum();
            assert_eq!(total, frame.len());
            assert_eq!(q.advance(total, |(), _| ()), 1);
            assert!(q.is_empty());
        }
        assert_eq!(Arc::strong_count(&frame), 1);
    }

    /// Feeds `frames`' encoding one byte at a time — the worst possible
    /// interleaving — and expects the identical frames back.
    fn reassembles_byte_at_a_time<F: StreamFrame + PartialEq + fmt::Debug>(
        frames: Vec<F>,
        encode: impl Fn(&F, &mut Vec<u8>) -> usize,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            encode(f, &mut stream);
        }
        let mut asm = FrameAssembler::<F>::new();
        let mut got = Vec::new();
        for byte in stream {
            asm.feed(&[byte]);
            while let Some(f) = asm.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_reassembles_either_codec_across_arbitrary_chunk_boundaries() {
        reassembles_byte_at_a_time(
            vec![
                Frame::Write(WriteFrame {
                    offset: 0,
                    wire_bytes: 8,
                    words: vec![11],
                }),
                Frame::Hello(Hello {
                    version: PROTO_VERSION,
                    src: 1,
                    nodes: 3,
                    region_words: 64,
                    epoch: 2,
                }),
                Frame::Write(WriteFrame {
                    offset: 9,
                    wire_bytes: 24,
                    words: vec![1, 2, 3],
                }),
            ],
            encode_frame,
        );
        reassembles_byte_at_a_time(
            vec![
                EdgeFrame::Subscribe { topic: 1 },
                EdgeFrame::Sample {
                    topic: 1,
                    publisher: 0,
                    index: 0,
                    epoch: 0,
                    data: vec![9; 33],
                },
                EdgeFrame::PubAck {
                    topic: 1,
                    status: 0,
                },
            ],
            encode_edge_frame,
        );
    }

    #[test]
    fn assembler_surfaces_corruption_as_an_error() {
        let garbage = [255, 255, 255, 255, 0, 0]; // absurd length prefix
        let mut asm = FrameAssembler::<Frame>::new();
        asm.feed(&garbage);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized { .. })));
        let mut asm = FrameAssembler::<EdgeFrame>::new();
        asm.feed(&garbage);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized { .. })));
    }
}
