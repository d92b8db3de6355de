//! The view-change flight recorder: a bounded ring of structured,
//! monotonically-timestamped protocol events, rendered as text.
//!
//! Every event that used to be an ad-hoc `eprintln!` (or a
//! `SPINDLE_NET_DEBUG`-gated print) is one [`FlightEvent`] variant: the
//! §2.1 handoff timeline (suspicion → wedge → proposal tagged → ack →
//! takeover adoption → install → barrier confirm) plus the wire-level
//! handshake events. Records land in a per-process ring
//! ([`FlightRecorder`]) regardless of log level — the ring is the
//! post-mortem record, dumped by the harness when a scenario fails and
//! served live at `/flightrec` — while the [`Level`] only gates the
//! human-readable stderr echo.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Stderr verbosity for structured events (`SPINDLE_LOG` /
/// `--log-level`): events at or below the configured level are echoed
/// to stderr; the flight-recorder ring records regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No stderr echo at all.
    Off = 0,
    /// Only stall warnings and other genuinely alarming events.
    Error = 1,
    /// Membership and handshake milestones.
    Info = 2,
    /// Per-step protocol chatter (proposals, acks).
    Debug = 3,
}

impl Level {
    /// Parse `off|error|info|debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// Inverse of [`Level::parse`] for rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// View-change stall phases named by [`FlightEvent::Stalled`].
pub mod phase {
    /// Stuck in the wedge/propose/ack agreement loop.
    pub const AGREE: u8 = 0;
    /// Stuck at the install barrier of the new epoch.
    pub const BARRIER: u8 = 1;
}

/// One structured protocol event. Field meanings follow the §2.1
/// handoff: `epoch` is the view id the event concerns, node indices
/// are SST rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// A failure detector convicted `target` (heartbeat silence).
    Suspicion {
        /// Suspected row.
        target: u32,
        /// Epoch the suspicion was raised in.
        epoch: u64,
        /// True when the conviction happened mid-transition.
        mid_transition: bool,
    },
    /// This node wedged: frontiers frozen, wedge flag posted.
    Wedged {
        /// Target view id of the transition being entered.
        epoch: u64,
    },
    /// A proposal was tagged (published with its ballot) by `proposer`.
    Proposal {
        /// Proposing row.
        proposer: u32,
        /// Proposed view id.
        epoch: u64,
        /// Failed-row bitmap carried by the proposal.
        failed: u64,
    },
    /// This node published its ack for the adopted ballot.
    Ack {
        /// Proposer of the acked ballot.
        proposer: u32,
        /// Acked view id.
        epoch: u64,
    },
    /// Takeover adoption: the acked ballot was re-tagged to a
    /// successor proposer after the original died.
    Takeover {
        /// The new (surviving) proposer.
        proposer: u32,
        /// View id of the re-tagged ballot.
        epoch: u64,
    },
    /// The new view was installed locally.
    Install {
        /// Installed view id.
        epoch: u64,
        /// Member count of the installed view.
        members: u32,
    },
    /// The install barrier of the new epoch confirmed.
    BarrierConfirm {
        /// Confirmed view id.
        epoch: u64,
    },
    /// The install barrier dropped a party that never heartbeat in the
    /// new epoch.
    BarrierDrop {
        /// The dropped row.
        target: u32,
        /// View id whose barrier dropped it.
        epoch: u64,
    },
    /// A view change has been stuck in one phase past the warning
    /// threshold.
    Stalled {
        /// Target view id of the stuck transition.
        epoch: u64,
        /// [`phase::AGREE`] or [`phase::BARRIER`].
        phase: u8,
        /// How long the transition has been running, in milliseconds.
        millis: u64,
    },
    /// Fault injection: crash at an armed view-change boundary.
    CrashBoundary {
        /// View id at the moment of the injected crash.
        epoch: u64,
    },
    /// Wire: HELLO from `peer` accepted.
    HelloAccepted {
        /// Peer row.
        peer: u32,
        /// Epoch carried by the HELLO.
        epoch: u64,
    },
    /// Wire: HELLO from `peer` rejected (stale epoch or shape mismatch).
    HelloRejected {
        /// Peer row.
        peer: u32,
        /// Epoch carried by the HELLO.
        epoch: u64,
        /// This node's own epoch at the time.
        expected: u64,
    },
    /// Wire: outbound dial to `peer` completed and HELLO was queued.
    Dialed {
        /// Peer row.
        peer: u32,
        /// Epoch carried in our HELLO.
        epoch: u64,
    },
    /// A joiner was admitted into the view as `row`.
    JoinAdmitted {
        /// The joiner's new row.
        row: u32,
        /// The epoch it joins in.
        epoch: u64,
    },
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FlightEvent::Suspicion {
                target,
                epoch,
                mid_transition,
            } => write!(
                f,
                "suspicion target=n{target} epoch={epoch}{}",
                if mid_transition {
                    " mid-transition"
                } else {
                    ""
                }
            ),
            FlightEvent::Wedged { epoch } => write!(f, "wedged epoch={epoch}"),
            FlightEvent::Proposal {
                proposer,
                epoch,
                failed,
            } => write!(
                f,
                "proposal-tagged proposer=n{proposer} epoch={epoch} failed={failed:#x}"
            ),
            FlightEvent::Ack { proposer, epoch } => {
                write!(f, "ack proposer=n{proposer} epoch={epoch}")
            }
            FlightEvent::Takeover { proposer, epoch } => {
                write!(f, "takeover-adoption proposer=n{proposer} epoch={epoch}")
            }
            FlightEvent::Install { epoch, members } => {
                write!(f, "install epoch={epoch} members={members}")
            }
            FlightEvent::BarrierConfirm { epoch } => write!(f, "barrier-confirm epoch={epoch}"),
            FlightEvent::BarrierDrop { target, epoch } => {
                write!(f, "barrier-drop target=n{target} epoch={epoch}")
            }
            FlightEvent::Stalled {
                epoch,
                phase,
                millis,
            } => write!(
                f,
                "stalled epoch={epoch} phase={} for={millis}ms",
                if phase == phase::BARRIER {
                    "barrier"
                } else {
                    "agree"
                }
            ),
            FlightEvent::CrashBoundary { epoch } => write!(f, "crash-boundary epoch={epoch}"),
            FlightEvent::HelloAccepted { peer, epoch } => {
                write!(f, "hello-accepted peer=n{peer} epoch={epoch}")
            }
            FlightEvent::HelloRejected {
                peer,
                epoch,
                expected,
            } => write!(
                f,
                "hello-rejected peer=n{peer} epoch={epoch} own-epoch={expected}"
            ),
            FlightEvent::Dialed { peer, epoch } => write!(f, "dialed peer=n{peer} epoch={epoch}"),
            FlightEvent::JoinAdmitted { row, epoch } => {
                write!(f, "join-admitted row=n{row} epoch={epoch}")
            }
        }
    }
}

/// One timestamped record in the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Microseconds since the owning plane's start (monotonic).
    pub t_micros: u64,
    /// SST row of the node the event concerns.
    pub node: u32,
    /// Severity the event was recorded at.
    pub level: Level,
    /// The event itself.
    pub event: FlightEvent,
}

impl fmt::Display for FlightRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "+{:>10}us n{} {:<5} {}",
            self.t_micros,
            self.node,
            self.level.as_str(),
            self.event
        )
    }
}

struct Ring {
    buf: VecDeque<FlightRecord>,
    cap: usize,
    dropped: u64,
}

/// A bounded ring of [`FlightRecord`]s. Push is a short mutex hold off
/// the message hot path (events fire on membership transitions and
/// handshakes, not per message).
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` records.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap.min(1024)),
                cap: cap.max(1),
                dropped: 0,
            }),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&self, rec: FlightRecord) {
        let mut ring = self.ring.lock().unwrap();
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(rec);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted so far due to wraparound.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// The retained timeline in chronological order, plus the evicted
    /// count.
    pub fn dump(&self) -> (Vec<FlightRecord>, u64) {
        let ring = self.ring.lock().unwrap();
        (ring.buf.iter().cloned().collect(), ring.dropped)
    }

    /// Human-readable timeline (one record per line, oldest first).
    pub fn render(&self) -> String {
        let (recs, dropped) = self.dump();
        let mut out = String::new();
        if dropped > 0 {
            out.push_str(&format!("... {dropped} earlier records evicted ...\n"));
        }
        for r in &recs {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}
