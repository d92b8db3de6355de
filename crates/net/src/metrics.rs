//! Per-node wire counters for the TCP fabric.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Counters {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_posted: AtomicU64,
    frames_received: AtomicU64,
    frames_dropped: AtomicU64,
    reconnects: AtomicU64,
    flushes: AtomicU64,
}

/// Shared wire counters of one TCP endpoint. Clones share state; take a
/// consistent-enough copy with [`WireMetrics::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct WireMetrics {
    c: Arc<Counters>,
}

impl WireMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> WireMetrics {
        WireMetrics::default()
    }

    /// Accounts `writes` vectored socket writes that moved `bytes`.
    pub(crate) fn add_flushed(&self, writes: u64, bytes: u64) {
        self.c.flushes.fetch_add(writes, Ordering::Relaxed);
        self.c.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_received(&self, n: u64) {
        self.c.bytes_received.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_frame_posted(&self) {
        self.c.frames_posted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_frame_received(&self) {
        self.c.frames_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_frames_dropped(&self, n: u64) {
        self.c.frames_dropped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_reconnect(&self) {
        self.c.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> WireStats {
        WireStats {
            bytes_sent: self.c.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.c.bytes_received.load(Ordering::Relaxed),
            frames_posted: self.c.frames_posted.load(Ordering::Relaxed),
            frames_received: self.c.frames_received.load(Ordering::Relaxed),
            frames_dropped: self.c.frames_dropped.load(Ordering::Relaxed),
            reconnects: self.c.reconnects.load(Ordering::Relaxed),
            flushes: self.c.flushes.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time copy of an endpoint's wire counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Payload + framing bytes written to peer sockets.
    pub bytes_sent: u64,
    /// Bytes read from peer sockets.
    pub bytes_received: u64,
    /// `WRITE` frames posted by the local node (including loopback
    /// self-posts and frames later dropped by faults or dead links).
    pub frames_posted: u64,
    /// `WRITE` frames received and placed into the local mirror region.
    pub frames_received: u64,
    /// Frames discarded because the link was severed, the peer was
    /// unreachable, or the outbound queue overflowed.
    pub frames_dropped: u64,
    /// Successful outbound connection establishments (the first connect
    /// counts too).
    pub reconnects: u64,
    /// Vectored socket writes (`writev` batches). `frames_received /
    /// flushes` across the cluster is the wire's effective coalescing
    /// factor: 1.0 when latency-greedy (every frame flushed the moment it
    /// is posted), rising under load as the poller drains whole per-peer
    /// backlogs in single scatter writes.
    pub flushes: u64,
}

impl WireStats {
    /// Folds another endpoint's counters into this one (for cluster-wide
    /// totals).
    pub fn merge(&mut self, other: &WireStats) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.frames_posted += other.frames_posted;
        self.frames_received += other.frames_received;
        self.frames_dropped += other.frames_dropped;
        self.reconnects += other.reconnects;
        self.flushes += other.flushes;
    }
}
