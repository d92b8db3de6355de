//! Per-node wire counters for the TCP fabric.

use spindle_obs::{names, Counter, Gauge, ObsPlane};

/// Registry handles of one TCP endpoint's `spindle_wire_*` families,
/// resolved once against the endpoint's plane with the label
/// `node=<me>`: the registry is the only store, so what
/// [`WireMetrics::snapshot`] returns is what `/metrics` renders.
pub(crate) struct WireMetrics {
    pub(crate) bytes_sent: Counter,
    pub(crate) bytes_received: Counter,
    pub(crate) frames_posted: Counter,
    pub(crate) frames_received: Counter,
    pub(crate) frames_dropped: Counter,
    pub(crate) reconnects: Counter,
    pub(crate) flushes: Counter,
    /// Set from the kernel's thread list when the page is rendered.
    pub(crate) threads: Gauge,
}

impl WireMetrics {
    pub(crate) fn new(obs: &ObsPlane, me: usize) -> WireMetrics {
        let r = obs.registry();
        let node = me.to_string();
        let l = &[("node", node.as_str())];
        WireMetrics {
            bytes_sent: r.counter(
                names::WIRE_BYTES_SENT,
                "Payload + framing bytes written to peer sockets.",
                l,
            ),
            bytes_received: r.counter(
                names::WIRE_BYTES_RECEIVED,
                "Bytes read from peer sockets.",
                l,
            ),
            frames_posted: r.counter(
                names::WIRE_FRAMES_POSTED,
                "WRITE frames posted by the local node.",
                l,
            ),
            frames_received: r.counter(
                names::WIRE_FRAMES_RECEIVED,
                "WRITE frames received and placed into the local mirror.",
                l,
            ),
            frames_dropped: r.counter(
                names::WIRE_FRAMES_DROPPED,
                "Frames shed on severed links or full outbound queues.",
                l,
            ),
            flushes: r.counter(
                names::WIRE_FLUSHES,
                "Vectored socket writes (writev batches).",
                l,
            ),
            reconnects: r.counter(
                names::WIRE_RECONNECTS,
                "Successful outbound connection establishments.",
                l,
            ),
            threads: r.gauge(
                names::WIRE_THREADS,
                "Wire service threads in this process (single-poller contract).",
                l,
            ),
        }
    }

    /// Copies the current counter values.
    pub(crate) fn snapshot(&self) -> WireStats {
        WireStats {
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            frames_posted: self.frames_posted.get(),
            frames_received: self.frames_received.get(),
            frames_dropped: self.frames_dropped.get(),
            reconnects: self.reconnects.get(),
            flushes: self.flushes.get(),
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
    /// factor: a pass's frames to one peer leave in one inline write, so
    /// it is the mean frames per peer per pass when latency-greedy, rising
    /// under load as the poller drains whole per-peer backlogs in single
    /// scatter writes.
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
