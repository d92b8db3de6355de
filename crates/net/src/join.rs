//! The distributed join protocol: bootstrap state transfer for a fresh
//! process entering a live cluster.
//!
//! The paper's virtual-synchrony model (§2.1) treats joins and removals
//! symmetrically: a view change may *grow* the membership, with the
//! joiner brought up to date before the new view goes live. This module
//! implements both halves of that handshake over the [`wire`](crate::wire)
//! control frames:
//!
//! * **Joiner** ([`join_cluster`]) — binds its own listener, dials its
//!   seed members round-robin until one admits it (`JOIN` carries its
//!   advertised address and sender flag, redirects are followed to the
//!   leader, and a sponsor that dies mid-join only costs one attempt —
//!   the ring is retried with backoff), receives the state-transfer
//!   snapshot (`JOIN_STATE`: the sponsor's durable-log tail plus its
//!   per-subgroup receive frontiers), waits for the commit
//!   (`JOIN_COMMIT`: the installed view, every row's address), brings up
//!   its [`TcpFabric`] endpoint at the new epoch, hosts its row with
//!   [`Cluster::start_distributed`], and holds the catch-up barrier
//!   ([`Cluster::join_barrier`]) until every survivor confirms its links.
//! * **Sponsor** ([`serve_join`]) — the member whose listener received
//!   the `JOIN` ([`TcpFabric::join_requests`]). It answers with the
//!   snapshot, drives the resizable epoch transition through
//!   [`Cluster::admit`] (the join intent travels in the leader's
//!   SST proposal, so every survivor grows its mesh identically), and
//!   commits — or redirects the joiner to the leader's address when it
//!   does not host the leader row.
//!
//! The joiner delivers nothing older than its join epoch (virtual
//! synchrony); the snapshot is what brings its *application* state up to
//! the cut, and its byte size is reported as
//! [`Joined::catchup_bytes`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use spindle_core::threaded::{AdmitRequest, Cluster, ViewChangeError};
use spindle_core::{DetectorConfig, Plan, SpindleConfig};
use spindle_fabric::NodeId;
use spindle_membership::{Subgroup, View, ViewBuilder};
use spindle_persist::LogRecord;

use crate::tcp::{JoinRequest, TcpFabric, TcpFabricConfig};
use crate::wire::{
    encode_join, encode_join_commit, encode_join_redirect, encode_join_state, Frame,
    FrameAssembler, JoinCommitFrame, JoinFrame, JoinStateFrame, SubgroupShape, PROTO_VERSION,
};

/// How long one control-stream read may stall before the conversation is
/// considered dead.
const CONTROL_READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Redirect-hop bound: a sane cluster redirects at most once (to the
/// leader), anything deeper is a routing loop.
const MAX_REDIRECTS: usize = 4;

/// Why a join attempt failed.
#[derive(Debug)]
pub enum JoinError {
    /// Socket-level failure on the control conversation.
    Io(io::Error),
    /// The sponsor answered something the protocol does not allow.
    Protocol(String),
    /// The cluster did not admit the joiner within the deadline.
    Timeout(String),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Io(e) => write!(f, "join i/o: {e}"),
            JoinError::Protocol(m) => write!(f, "join protocol: {m}"),
            JoinError::Timeout(m) => write!(f, "join timed out: {m}"),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<io::Error> for JoinError {
    fn from(e: io::Error) -> JoinError {
        JoinError::Io(e)
    }
}

/// Everything the joiner side needs (see [`join_cluster`]).
pub struct JoinConfig {
    /// Member endpoints to dial, cycled round-robin with backoff until
    /// the deadline (redirects are followed; a sponsor dying mid-join
    /// only costs one attempt, not the seed).
    pub seeds: Vec<String>,
    /// The joiner's pre-bound listener — its address travels in the
    /// `JOIN` frame and the fabric endpoint reuses the socket.
    pub listener: TcpListener,
    /// The address peers dial back (must route to `listener`; usually
    /// its bound address).
    pub advertise: String,
    /// Join as a sender (multicast) or a quiet member.
    pub as_sender: bool,
    /// Engine configuration of the hosted row.
    pub config: SpindleConfig,
    /// SST heartbeat failure detection for the hosted row.
    pub detector: Option<DetectorConfig>,
    /// Overall deadline for the admission handshake and catch-up barrier.
    pub deadline: Duration,
    /// Durable-log persistence for the hosted row. A *re*joiner passes
    /// the directory of its previous incarnation so post-join
    /// deliveries continue appending after the replayed history.
    pub persist: Option<spindle_core::threaded::PersistConfig>,
}

/// A joined process: the hosted cluster row plus the state-transfer
/// facts (see [`join_cluster`]).
pub struct Joined {
    /// The cluster hosting the joiner's row (traffic may flow: the
    /// catch-up barrier already completed).
    pub cluster: Cluster<TcpFabric>,
    /// The underlying endpoint (wire counters, join requests).
    pub fabric: TcpFabric,
    /// The joiner's row id in the installed view.
    pub row: usize,
    /// The join epoch (the installed view id).
    pub epoch: u64,
    /// Listen address per row of the installed view (from the commit) —
    /// what the joiner needs to sponsor *future* joins itself.
    pub addrs: Vec<String>,
    /// Bytes of state transfer received (the `JOIN_STATE` snapshot).
    pub catchup_bytes: u64,
    /// The decoded snapshot: durable-log tail records and the sponsor's
    /// frozen receive frontiers at snapshot time.
    pub snapshot: JoinStateFrame,
}

/// Reads the next control frame from `stream`, buffering partial input.
fn read_control_frame(
    stream: &mut TcpStream,
    asm: &mut FrameAssembler,
    deadline: Instant,
) -> Result<Frame, JoinError> {
    stream
        .set_read_timeout(Some(CONTROL_READ_TIMEOUT))
        .map_err(JoinError::Io)?;
    loop {
        match asm.next_frame() {
            Ok(Some(frame)) => return Ok(frame),
            Ok(None) => {}
            Err(e) => return Err(JoinError::Protocol(e.to_string())),
        }
        if Instant::now() > deadline {
            return Err(JoinError::Timeout(
                "waiting for the sponsor's answer".into(),
            ));
        }
        let mut tmp = [0u8; 4096];
        match stream.read(&mut tmp) {
            Ok(0) => {
                return Err(JoinError::Protocol(
                    "sponsor closed the control stream".into(),
                ))
            }
            Ok(n) => asm.feed(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(JoinError::Io(e)),
        }
    }
}

/// Rebuilds the installed view a `JOIN_COMMIT` describes — bit-identical
/// to the one every survivor derived from the proposal.
fn view_from_commit(c: &JoinCommitFrame) -> Result<View, JoinError> {
    let members: Vec<NodeId> = (0..c.addrs.len()).map(NodeId).collect();
    let subgroups: Vec<Subgroup> = c
        .subgroups
        .iter()
        .map(|sg| Subgroup {
            members: sg.members.iter().map(|&m| NodeId(m as usize)).collect(),
            senders: sg.senders.iter().map(|&s| NodeId(s as usize)).collect(),
            window: sg.window as usize,
            max_msg_size: sg.max_msg as usize,
        })
        .collect();
    ViewBuilder::with_members(c.vid, members)
        .subgroups_from(subgroups)
        .build()
        .map_err(|e| JoinError::Protocol(format!("commit view invalid: {e}")))
}

/// Joins a live cluster (the joiner side; see the [module docs](self)).
///
/// # Errors
///
/// [`JoinError`] when no seed answers, the handshake is malformed, the
/// cluster does not admit the joiner within the deadline, or the
/// catch-up barrier cannot complete.
pub fn join_cluster(cfg: JoinConfig) -> Result<Joined, JoinError> {
    let deadline = Instant::now() + cfg.deadline;
    let mut join_frame = Vec::new();
    encode_join(
        &JoinFrame {
            version: PROTO_VERSION,
            as_sender: cfg.as_sender,
            addr: cfg.advertise.clone(),
        },
        &mut join_frame,
    );

    // Dial seeds round-robin (following redirects) until a sponsor
    // commits or the deadline passes. A failure — refused dial, a
    // sponsor that dies mid-conversation, a per-attempt timeout — moves
    // on to the next seed but does *not* disqualify this one: the
    // cluster may be reconfiguring around a dead sponsor right now, and
    // the surviving seeds answer once the transition settles. Each full
    // pass over the ring without progress backs off (doubling, capped)
    // so a down cluster is not hammered.
    if cfg.seeds.is_empty() {
        return Err(JoinError::Protocol("no seeds to dial".into()));
    }
    let mut redirect: Option<String> = None;
    let mut next_seed = 0usize;
    let mut backoff = Duration::from_millis(50);
    let mut redirects = 0usize;
    let mut last_err: Option<JoinError> = None;
    let mut snapshot: Option<JoinStateFrame> = None;
    let mut catchup_bytes = 0u64;
    let mut commit: Option<JoinCommitFrame> = None;
    'attempts: while Instant::now() <= deadline {
        // A redirect target is tried immediately (it names the leader's
        // host); otherwise take the next seed in the ring.
        let from_ring = redirect.is_none();
        let target = redirect.take().unwrap_or_else(|| {
            let t = cfg.seeds[next_seed % cfg.seeds.len()].clone();
            next_seed += 1;
            t
        });
        let mut fail = |e: JoinError, last_err: &mut Option<JoinError>| {
            *last_err = Some(e);
            // Completed a pass over every seed without progress: let the
            // cluster breathe before the next one.
            if from_ring && next_seed.is_multiple_of(cfg.seeds.len()) {
                let left = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(backoff.min(left));
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        };
        let mut stream = match TcpStream::connect(&target) {
            Ok(s) => s,
            Err(e) => {
                fail(JoinError::Io(e), &mut last_err);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        if let Err(e) = stream.write_all(&join_frame) {
            fail(JoinError::Io(e), &mut last_err);
            continue;
        }
        let mut asm = FrameAssembler::new();
        loop {
            match read_control_frame(&mut stream, &mut asm, deadline) {
                Ok(Frame::JoinState(s)) => {
                    // Frame sizes: what the wire carried for this frame.
                    let mut sz = Vec::new();
                    catchup_bytes = encode_join_state(&s, &mut sz) as u64;
                    snapshot = Some(s);
                }
                Ok(Frame::JoinCommit(c)) => {
                    commit = Some(c);
                    break 'attempts;
                }
                Ok(Frame::JoinRedirect(addr)) => {
                    redirects += 1;
                    if redirects > MAX_REDIRECTS {
                        return Err(JoinError::Protocol("redirect loop".into()));
                    }
                    redirect = Some(addr);
                    continue 'attempts;
                }
                Ok(other) => {
                    return Err(JoinError::Protocol(format!(
                        "unexpected frame {other:?} during admission"
                    )))
                }
                Err(e) => {
                    // The sponsor died (or refused) mid-join: any state
                    // snapshot it sent is void — the next sponsor sends
                    // its own, matched to the epoch it admits us at.
                    snapshot = None;
                    fail(e, &mut last_err);
                    continue 'attempts;
                }
            }
        }
    }
    let commit = commit.ok_or_else(|| {
        last_err.unwrap_or_else(|| JoinError::Timeout("no seed admitted us".into()))
    })?;
    let snapshot = snapshot
        .ok_or_else(|| JoinError::Protocol("commit arrived without a state snapshot".into()))?;
    let row = commit.new_row as usize;
    if row >= commit.addrs.len() {
        return Err(JoinError::Protocol("commit row out of range".into()));
    }

    // Bring up the endpoint at the join epoch. The survivors' install
    // barrier is already pushing at us; the catch-up barrier below
    // completes once the full mesh is confirmed in both directions.
    let view = view_from_commit(&commit)?;
    let plan = Plan::build(&view, true);
    let mut net = TcpFabricConfig::new(row, commit.addrs.clone(), plan.layout.region_words());
    net.epoch = commit.vid;
    let fabric = TcpFabric::bootstrap_on_listener(net, cfg.listener).map_err(JoinError::Io)?;
    let cluster = Cluster::start_distributed(
        view,
        cfg.config.clone(),
        cfg.detector.clone(),
        cfg.persist.clone(),
        &[row],
        fabric.clone(),
    );
    let left = deadline.saturating_duration_since(Instant::now());
    if !cluster.join_barrier(row, left) {
        return Err(JoinError::Timeout(
            "catch-up barrier did not complete (a survivor died mid-join?)".into(),
        ));
    }
    Ok(Joined {
        cluster,
        fabric,
        row,
        epoch: commit.vid,
        addrs: commit.addrs.clone(),
        catchup_bytes,
        snapshot,
    })
}

/// What [`serve_join`] did with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The transition installed; the joiner was committed into `epoch`
    /// as row `row`.
    Admitted {
        /// The joiner's row id.
        row: usize,
        /// The installed epoch.
        epoch: u64,
    },
    /// This process does not host the leader row; the joiner was
    /// redirected there.
    Redirected {
        /// The leader row the joiner was pointed at.
        leader: usize,
    },
    /// The cluster refused the join (the error was reported to the
    /// joiner by closing the stream).
    Refused(ViewChangeError),
}

/// Serves one joiner control conversation (the sponsor side; see the
/// [module docs](self)). `local_row` is the row this process hosts, and
/// `log_tail` the durable-log records to ship as state transfer (empty
/// in non-persistent clusters). Addresses come from the transport's
/// authoritative per-epoch list ([`TcpFabric::peer_addrs`]), which
/// every survivor grows identically from the installed proposals — so
/// commits stay correct even for joins sponsored by *other* processes
/// before leadership moved here.
///
/// # Errors
///
/// Propagates control-stream write failures; a cluster-level refusal is
/// reported in the returned [`ServeOutcome`], not as an error.
pub fn serve_join(
    req: JoinRequest,
    cluster: &mut Cluster<TcpFabric>,
    local_row: usize,
    log_tail: &[LogRecord],
) -> io::Result<ServeOutcome> {
    let mut stream = req.stream;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Leadership first: a non-leader redirects before shipping a state
    // snapshot the joiner would only throw away.
    let addrs = cluster.fabric().peer_addrs();
    match cluster.leader_row() {
        Some(leader) if cluster.local_rows().any(|r| r == leader) => {}
        Some(leader) => {
            let mut buf = Vec::new();
            let target = addrs
                .get(leader)
                .cloned()
                .unwrap_or_else(|| addrs[0].clone());
            encode_join_redirect(&target, &mut buf);
            stream.write_all(&buf)?;
            return Ok(ServeOutcome::Redirected { leader });
        }
        None => {
            drop(stream);
            return Ok(ServeOutcome::Refused(ViewChangeError::TooFewSurvivors));
        }
    }

    // State transfer next, so the joiner digests it while the epoch
    // transition runs: the durable-log tail plus this node's receive
    // frontiers (where the old epoch's total order stands right now).
    let state = JoinStateFrame {
        epoch: cluster.view().id(),
        new_row: cluster.view().members().len() as u32,
        frontiers: cluster.node(local_row).receive_frontiers(),
        records: log_tail.iter().map(LogRecord::encode).collect(),
    };
    let mut buf = Vec::new();
    encode_join_state(&state, &mut buf);
    stream.write_all(&buf)?;

    match cluster.admit(AdmitRequest::remote(&req.addr, req.as_sender)) {
        Ok((row, _report)) => {
            let view = cluster.view();
            // Post-install, the transport's list covers the joiner too.
            let commit = JoinCommitFrame {
                vid: view.id(),
                new_row: row as u32,
                addrs: cluster.fabric().peer_addrs(),
                subgroups: view
                    .subgroups()
                    .iter()
                    .map(|sg| SubgroupShape {
                        members: sg.members.iter().map(|m| m.0 as u32).collect(),
                        senders: sg.senders.iter().map(|s| s.0 as u32).collect(),
                        window: sg.window as u32,
                        max_msg: sg.max_msg_size as u32,
                    })
                    .collect(),
            };
            let mut buf = Vec::new();
            encode_join_commit(&commit, &mut buf);
            stream.write_all(&buf)?;
            cluster.obs().event(
                spindle_obs::Level::Info,
                local_row,
                spindle_obs::FlightEvent::JoinAdmitted {
                    row: row as u32,
                    epoch: view.id(),
                },
            );
            Ok(ServeOutcome::Admitted {
                row,
                epoch: view.id(),
            })
        }
        Err(ViewChangeError::NotLeader { leader }) => {
            // Leadership moved between the check above and the admit.
            let mut buf = Vec::new();
            let target = addrs
                .get(leader)
                .cloned()
                .unwrap_or_else(|| addrs[0].clone());
            encode_join_redirect(&target, &mut buf);
            stream.write_all(&buf)?;
            Ok(ServeOutcome::Redirected { leader })
        }
        Err(e) => {
            // Closing the stream tells the joiner to give up / retry.
            drop(stream);
            Ok(ServeOutcome::Refused(e))
        }
    }
}
