#![warn(missing_docs)]
//! The Spindle live observability plane.
//!
//! One [`ObsPlane`] per process ties together the three instruments the
//! rest of the workspace publishes into:
//!
//! * a lock-light [`registry::Registry`] of atomic counters, gauges and
//!   log2 latency histograms (p50/p99/p999), snapshotable at any
//!   instant and rendered as Prometheus text for `GET /metrics`;
//! * a [`flightrec::FlightRecorder`] — the bounded ring of structured
//!   view-change/wire events dumped post-mortem or served at
//!   `/flightrec`;
//! * a stderr echo [`Level`] (`SPINDLE_LOG` / `--log-level`) gating the
//!   human-readable rendering of those same events.
//!
//! The plane is created by whoever owns the process boundary (the TCP
//! fabric config, or the threaded cluster for in-process runs) and
//! adopted by everything downstream through `Fabric::obs()`, so the
//! predicate threads, the wire poller and the view-change driver all
//! publish into the same registry and ring. Cloning is cheap (one
//! `Arc`).

pub mod flightrec;
pub mod registry;

pub use flightrec::{FlightEvent, FlightRecord, FlightRecorder, Level};
pub use registry::{
    Counter, FamilySnapshot, Gauge, HistogramSnapshot, LogHistogram, MetricKind, Registry,
    SeriesValue,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Canonical metric family names, shared by every publisher (core
/// predicate threads, the wire poller) and every consumer (the
/// `/metrics` responder, the per-epoch fold, the harness oracle).
pub mod names {
    /// Counter `{node, epoch}`: ordered messages delivered.
    pub const DELIVERED: &str = "spindle_delivered_total";
    /// Counter `{node, epoch}`: payload bytes delivered.
    pub const DELIVERED_BYTES: &str = "spindle_delivered_bytes_total";
    /// Histogram `{node, epoch}`: own-send send→delivery latency,
    /// recorded in nanoseconds, exposed in seconds.
    pub const DELIVERY_LATENCY: &str = "spindle_delivery_latency_seconds";
    /// Gauge `{node}`: currently installed epoch (view id).
    pub const EPOCH: &str = "spindle_epoch";
    /// Counter `{node}`: view changes installed by this node.
    pub const VIEW_CHANGES: &str = "spindle_view_changes_total";
    /// Histogram `{node, phase=agree|barrier}`: view-change phase
    /// durations, recorded in nanoseconds, exposed in seconds.
    pub const VIEW_CHANGE_PHASE: &str = "spindle_view_change_seconds";
    /// Counter `{node, kind=timer|rung|timeout}`: times a node's predicate
    /// thread blocked — a timed idle quantum, a doorbell park ended by a
    /// write's ring, or one that ran to its timeout.
    pub const PREDICATE_WAITS: &str = "spindle_predicate_waits_total";
    /// Gauge `{relay}`: external clients connected to an edge relay.
    pub const RELAY_CLIENTS: &str = "spindle_relay_clients";
    /// Counter `{relay}`: bytes enqueued for fan-out to external
    /// clients (encode-once: one sample to N subscribers counts N×).
    pub const RELAY_FANOUT_BYTES: &str = "spindle_relay_fanout_bytes_total";
    /// Counter `{relay}`: sample frames enqueued for fan-out.
    pub const RELAY_FANOUT_FRAMES: &str = "spindle_relay_fanout_frames_total";
    /// Counter `{relay, reason=slow-consumer|disconnect|admission}`:
    /// frames or clients shed by relay backpressure.
    pub const RELAY_SHED: &str = "spindle_relay_shed_total";
    /// Histogram `{relay}`: fan-out latency (enqueue → flushed to the
    /// client socket), recorded in nanoseconds, exposed in seconds.
    pub const RELAY_DELIVERY_LATENCY: &str = "spindle_relay_delivery_latency_seconds";
    /// Counter `{node}`: deliveries appended to the durable log.
    pub const PERSIST_APPENDED: &str = "spindle_persist_appended_total";
    /// Counter `{node}`: durable-log bytes appended (record frames
    /// included).
    pub const PERSIST_APPENDED_BYTES: &str = "spindle_persist_appended_bytes_total";
    /// Counter `{node}`: durable-log fsyncs performed.
    pub const PERSIST_FSYNCS: &str = "spindle_persist_fsyncs_total";
    /// Histogram `{node}`: durable-log fsync latency, recorded in
    /// nanoseconds, exposed in seconds.
    pub const PERSIST_FSYNC_LATENCY: &str = "spindle_persist_fsync_seconds";
    /// Counter `{node}`: records recovered from the durable log when a
    /// subgroup's log was (re)opened.
    pub const PERSIST_REPLAYED: &str = "spindle_persist_replayed_total";
    /// Gauge `{node}`: records replayed from the data directory before
    /// this process rejoined (restart replay progress).
    pub const PERSIST_REPLAY_RECORDS: &str = "spindle_persist_replay_records";
    /// Gauge `{node}`: bytes replayed from the data directory before
    /// this process rejoined.
    pub const PERSIST_REPLAY_BYTES: &str = "spindle_persist_replay_bytes";
    /// Counter `{node}`: Payload + framing bytes written to peer sockets.
    pub const WIRE_BYTES_SENT: &str = "spindle_wire_bytes_sent_total";
    /// Counter `{node}`: Bytes read from peer sockets.
    pub const WIRE_BYTES_RECEIVED: &str = "spindle_wire_bytes_received_total";
    /// Counter `{node}`: WRITE frames posted by the local node.
    pub const WIRE_FRAMES_POSTED: &str = "spindle_wire_frames_posted_total";
    /// Counter `{node}`: WRITE frames received and placed into the local mirror.
    pub const WIRE_FRAMES_RECEIVED: &str = "spindle_wire_frames_received_total";
    /// Counter `{node}`: Frames shed on severed links or full outbound queues.
    pub const WIRE_FRAMES_DROPPED: &str = "spindle_wire_frames_dropped_total";
    /// Counter `{node}`: Vectored socket writes (writev batches).
    pub const WIRE_FLUSHES: &str = "spindle_wire_flushes_total";
    /// Counter `{node}`: Successful outbound connection establishments.
    pub const WIRE_RECONNECTS: &str = "spindle_wire_reconnects_total";
    /// Gauge `{node}`: Wire service threads in this process (single-poller contract).
    pub const WIRE_THREADS: &str = "spindle_wire_threads";
}

struct PlaneInner {
    start: Instant,
    registry: Registry,
    recorder: FlightRecorder,
    level: AtomicU8,
}

/// The shared observability plane (see crate docs). Clone freely; all
/// clones publish into the same registry and ring.
#[derive(Clone)]
pub struct ObsPlane {
    inner: Arc<PlaneInner>,
}

impl std::fmt::Debug for ObsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsPlane")
            .field("level", &self.level())
            .field("events", &self.recorder().len())
            .finish()
    }
}

impl Default for ObsPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsPlane {
    /// A fresh plane. The stderr echo level comes from `SPINDLE_LOG`
    /// (`off|error|info|debug`), defaulting to `error`; override with
    /// [`ObsPlane::set_level`].
    pub fn new() -> Self {
        let level = std::env::var("SPINDLE_LOG")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(Level::Error);
        ObsPlane {
            inner: Arc::new(PlaneInner {
                start: Instant::now(),
                registry: Registry::new(),
                recorder: FlightRecorder::default(),
                level: AtomicU8::new(level as u8),
            }),
        }
    }

    /// The live metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The flight-recorder ring.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Current stderr echo level.
    pub fn level(&self) -> Level {
        match self.inner.level.load(Ordering::Relaxed) {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// Set the stderr echo level.
    pub fn set_level(&self, level: Level) {
        self.inner.level.store(level as u8, Ordering::Relaxed);
    }

    /// Microseconds of monotonic time since the plane was created —
    /// the timestamp base of every flight record.
    pub fn uptime_micros(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    /// Record a structured event for `node`: always lands in the ring;
    /// echoed to stderr when `level` is at or below the plane's level.
    pub fn event(&self, level: Level, node: usize, event: FlightEvent) {
        let rec = FlightRecord {
            t_micros: self.uptime_micros(),
            node: node as u32,
            level,
            event,
        };
        if level <= self.level() {
            eprintln!("spindle[{}] {rec}", level.as_str());
        }
        self.inner.recorder.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_event_lands_in_ring() {
        let plane = ObsPlane::new();
        plane.set_level(Level::Off);
        plane.event(Level::Info, 2, FlightEvent::Wedged { epoch: 1 });
        let (recs, dropped) = plane.recorder().dump();
        assert_eq!(dropped, 0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].node, 2);
        assert_eq!(recs[0].event, FlightEvent::Wedged { epoch: 1 });
    }

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
    }
}
