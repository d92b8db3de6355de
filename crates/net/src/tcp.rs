//! The TCP fabric endpoint: one node's view of the transport.
//!
//! Each process hosts one [`TcpFabric`] endpoint holding the node's full
//! SST mirror [`Region`], served by **one poller thread** — a
//! readiness-driven event loop (`poll(2)` over nonblocking sockets, see
//! the vendored [`netpoll`]) that owns the listener, every inbound
//! stream, dial completions and outbound backlog flushes. A predicate
//! pass hands its writes over at once ([`Fabric::post_all`]); for each
//! destination, the endpoint snapshots the covered words from the local
//! mirror (exactly when an RDMA NIC would DMA them), encodes that
//! destination's frames, in posting order, into **one** buffer queued as
//! one entry of its [`FrameQueue`], and — when the link is up — writes
//! it to the socket *inline* from the posting thread (latency-greedy: no
//! handoff, no wakeup). So the inline flush is one write per peer per
//! pass, not one per frame. When the kernel pushes back or the link is
//! down, entries accumulate in the queue and the poller drains the whole
//! backlog as **one vectored write** per readiness (batch-greedy: the
//! per-frame syscall cost amortizes away under load, the adaptive cadence
//! the paper applies to SST pushes). Because each `(src, dst)` pair is a
//! single ordered TCP byte stream fed from a single FIFO queue, two
//! writes posted in order are placed in order: RDMA's per-QP fencing
//! guarantee (§2.2) holds by construction.
//!
//! ## Faults at the wire layer
//!
//! Every post consults the shared [`FaultPlan`] *before* a frame is
//! created, so isolate and throttle behave byte-for-byte like
//! the in-process [`MemFabric`](spindle_fabric::MemFabric): dropped
//! writes simply never reach the wire (one-sided writes are never
//! retransmitted), and a throttle stalls the poster. Severed connections
//! ([`TcpFabric::sever_peer`]) model a dead link: frames posted while
//! the link is down queue up to a cap counted in frames, not entries
//! (then shed, like a NIC whose QP errored out) and flush once the
//! poller re-dials — gate re-dialing with [`FaultPlan::isolate`] to keep
//! the link down.
//!
//! ## Bootstrap handshake
//!
//! Every connection opens with a `HELLO` frame carrying the sender's node
//! id, cluster size, SST region size and epoch; the acceptor verifies all
//! of them against its own configuration before applying any write. A
//! peer at a *later* epoch is accepted (it has already installed the next
//! view and is re-dialing; during the install window it only posts
//! idempotent reconfiguration columns, which share their offsets across
//! the epochs of one membership change); a peer at an *earlier* epoch is
//! rejected, so a laggard's stale protocol writes can never land in a
//! fresh mirror. [`TcpFabric::wait_connected`] blocks until the full mesh
//! (outbound and inbound) is up.
//!
//! ## Epoch transitions
//!
//! Everything one epoch owns — its number, its mirror, the rows'
//! addresses and outbound links, the peers the connection barrier waits
//! for — is one immutable `Mesh`, and every reader takes one snapshot per
//! decision. [`Fabric::begin_epoch`] builds the next mesh for a view
//! change driven by `spindle_core`'s SST view-change engine and swaps it
//! in whole: the mirror is a fresh region (§2.3 — memory is registered
//! per view), outbound and *stale* inbound connections are severed, and
//! the poller re-dials with a `HELLO` stamped at the new epoch. An
//! inbound connection whose peer already handshook at the new epoch is
//! kept — its frames apply to the then-current mirror (gated per frame on
//! the connection's epoch), so the link a peer's install barrier and
//! first new-epoch writes ride on survives our own transition instead of
//! dropping them in a close window. The listener and its port are reused.
//! Queued outbound frames are stamped with the epoch they were
//! snapshotted from and purged once the endpoint moves on — on real RDMA
//! the per-view queue pairs die with the view, and a stale epoch's words
//! must never smear into a peer's fresh mirror.
//!
//! Transitions are **resizable**: an [`EpochTransition`] whose `joined`
//! list names fresh rows *grows* the endpoint in place — the mirror is
//! reallocated at the new layout's size (the new row appends at the end
//! of the row-major SST, so existing offsets are stable), the next mesh
//! keeps every outbound queue and adds an address and a queue per joiner
//! (no new threads: the poller's fd set simply grows), and the connection
//! barrier covers the grown mesh. A connection that opens with a `JOIN`
//! frame instead of a `HELLO` is a joiner's control conversation,
//! surfaced through [`TcpFabric::join_requests`] for the sponsor runtime
//! ([`join`](crate::join)).

use std::collections::BTreeSet;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use netpoll::{connect_nonblocking, poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use spindle_fabric::{Disposition, EpochTransition, Fabric, FaultPlan, NodeId, Region, WriteOp};
use spindle_obs::{FlightEvent, Level, ObsPlane};

use crate::metrics::{WireMetrics, WireStats};
use crate::sock::{accept_ready, drain_queue, read_available, DrainEnd, ReadEnd};
use crate::wire::{
    encode_hello, encode_write_frame, Frame, FrameAssembler, FrameQueue, Hello, WriteFrame,
    MAX_FRAME_WORDS, PROTO_VERSION,
};

/// Hard cap on the rows a hostile `HELLO` can make the endpoint track
/// (the protocol itself caps clusters at the suspicion bitmap's 62 rows).
const MAX_ROWS: usize = 62;

/// Default for [`TcpFabricConfig::outbound_queue_cap`].
const OUTBOUND_QUEUE_CAP: usize = 65_536;
/// Minimum gap between reconnect attempts on a dead link.
const REDIAL_BACKOFF: Duration = Duration::from_millis(40);
/// How long the poller keeps eagerly re-dialing the expected mesh after
/// bootstrap before falling back to dial-on-demand.
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);
/// Gap between eager (bootstrap-patience) dial attempts.
const EAGER_DIAL_GAP: Duration = Duration::from_millis(20);
/// How long a nonblocking dial may sit unresolved before it is abandoned.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);
/// The poller's maximum sleep (stop-flag latency bound).
const POLL: Duration = Duration::from_millis(50);
/// Zero-timeout re-polls after wire activity: while traffic flows the
/// poller stays hot (no sleep/wake futex round trip per frame), widening
/// batches under load yet going latency-greedy the moment it idles.
///
/// Measured, and kept: with the hot path deleted, the benchmark's `tcp_1k`
/// over 4 alternating 24 s parent/change pairs (seeds 901–904, no failed
/// operations, 2-core host) lost 20 % of its goodput (174 k → 139 k msg/s)
/// and paid 20 % more CPU per message (`cpu_us_per_msg` 9.38 → 11.23 µs);
/// `lat_p50_us` went 251 → 261 and `lat_p90_us` 287 → 306. Unlike the
/// predicate thread's idle spin, which cost more than it saved on that
/// host and is gone, the poller's greedy reads pay for themselves
/// (EXPERIMENTS.md, *Real-network mode*).
const HOT_SPINS: u32 = 32;

/// Configuration of one endpoint (see [`TcpFabric::bootstrap`]).
#[derive(Debug, Clone)]
pub struct TcpFabricConfig {
    /// This node's id (row).
    pub me: usize,
    /// One listen address per node, indexed by node id.
    pub addrs: Vec<String>,
    /// SST region size in words (from `Plan::build(view).layout`).
    pub region_words: usize,
    /// Epoch (view id); both sides of every connection must agree.
    pub epoch: u64,
    /// Shared fault switches, consulted on every post.
    pub faults: FaultPlan,
    /// Frames queued to one unreachable peer before posts start shedding.
    pub outbound_queue_cap: usize,
    /// The process's observability plane: the fabric publishes wire
    /// events into it, serves its registry and flight-recorder ring at
    /// `/metrics` / `/flightrec` ([`TcpFabric::serve_metrics`]), and
    /// hands it to the hosting runtime through [`Fabric::obs`] so the
    /// protocol layer publishes into the same plane.
    pub obs: ObsPlane,
}

impl TcpFabricConfig {
    /// A config for node `me` of the cluster at `addrs`, with the default
    /// queue cap and an inert fault plan.
    pub fn new(me: usize, addrs: Vec<String>, region_words: usize) -> TcpFabricConfig {
        TcpFabricConfig {
            me,
            addrs,
            region_words,
            epoch: 0,
            faults: FaultPlan::new(),
            outbound_queue_cap: OUTBOUND_QUEUE_CAP,
            obs: ObsPlane::new(),
        }
    }
}

/// What one outbound queue entry carries: the epoch its words were
/// snapshotted from, and how many frames its buffer holds.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    epoch: u64,
    frames: usize,
}

/// One peer's outbound half, owned jointly by posters (inline flush) and
/// the poller (dials, backlog drains) under the mutex.
struct PeerOut {
    /// Encoded frames awaiting the wire: one entry per
    /// [`Fabric::post_all`] (its frames to this peer, in one buffer) or
    /// `HELLO`.
    queue: FrameQueue<Vec<u8>, Stamp>,
    /// Frames in `queue`, summed over its entries: what
    /// [`TcpFabricConfig::outbound_queue_cap`] bounds.
    frames: usize,
    /// Recycled entry buffers: flushed entries return here and posts
    /// encode into them, so the steady-state hot path allocates nothing.
    pool: Vec<Vec<u8>>,
    /// The established stream (nonblocking).
    conn: Option<TcpStream>,
    /// A dial in flight (nonblocking connect awaiting `POLLOUT`).
    connecting: Option<TcpStream>,
    /// When `connecting` was started (abandoned after [`DIAL_TIMEOUT`]).
    dial_started: Instant,
    /// Last dial attempt (successful or not), for backoff gating.
    last_dial: Option<Instant>,
}

struct PeerState {
    out: Mutex<PeerOut>,
    connected: AtomicBool,
}

impl PeerOut {
    /// Drops the unwritten entries snapshotted before `epoch` (their queue
    /// pairs died with the view); returns how many frames they held.
    fn purge_before(&mut self, epoch: u64) -> usize {
        let mut purged = 0;
        self.queue.drop_unwritten(|stamp, _| {
            let stale = stamp.epoch < epoch;
            purged += if stale { stamp.frames } else { 0 };
            stale
        });
        self.frames -= purged;
        purged
    }
}

impl PeerState {
    fn new() -> Arc<PeerState> {
        Arc::new(PeerState {
            out: Mutex::new(PeerOut {
                queue: FrameQueue::new(),
                frames: 0,
                pool: Vec::new(),
                conn: None,
                connecting: None,
                dial_started: Instant::now(),
                last_dial: None,
            }),
            connected: AtomicBool::new(false),
        })
    }
}

/// A joiner's control conversation, surfaced by the accept path when a
/// fresh process dials the listener with a `JOIN` frame instead of a
/// fabric `HELLO`. The sponsor runtime answers over the same stream
/// (state snapshot, then commit — or a redirect to the leader).
#[derive(Debug)]
pub struct JoinRequest {
    /// The joiner's advertised listen address (`host:port`).
    pub addr: String,
    /// Whether the joiner wants to multicast (join as a sender).
    pub as_sender: bool,
    /// The joiner's control connection.
    pub stream: TcpStream,
}

/// One epoch's mesh, immutable: an epoch transition builds the next one
/// and swaps it in whole ([`Shared::mesh`]), so its fields never tear.
struct Mesh {
    epoch: u64,
    /// The epoch's mirror. Frames apply to the *current* mesh's region,
    /// gated per frame on `hello.epoch >= epoch`: a connection handshaken
    /// at a later epoch writes into our old mirror until we install (that
    /// is how a peer's install flag reaches a laggard), then seamlessly
    /// into the fresh one — it survives our transition, so its one-shot
    /// writes cannot die on a severed zombie link. A connection handshaken
    /// at an earlier epoch goes stale the moment we advance and is dropped
    /// before it can touch the fresh mirror.
    region: Arc<Region>,
    /// Listen address per row (a join appends the joiner's).
    addrs: Vec<SocketAddr>,
    /// Per-destination outbound state, carried over from the previous
    /// mesh (a join appends a fresh one).
    peers: Vec<Arc<PeerState>>,
    /// Peers expected in the epoch's mesh (rows removed by a view change
    /// drop out, so the connection barrier ignores them).
    expected: BTreeSet<usize>,
}

impl Mesh {
    /// The `HELLO` node `me` speaks in this mesh.
    fn hello(&self, me: usize) -> Hello {
        Hello {
            version: PROTO_VERSION,
            src: me as u32,
            nodes: self.addrs.len() as u32,
            region_words: self.region.len() as u64,
            epoch: self.epoch,
        }
    }

    /// Whether node `me` in this mesh accepts a connection opening with
    /// `hello`. A peer at a *later* epoch is legitimate: it installed the
    /// next view first and is re-dialing (its pre-barrier posts touch only
    /// the idempotent reconfiguration columns). Its cluster size and region
    /// size describe a layout we may not have installed yet — e.g. the
    /// *joiner* of the next epoch dialing a laggard — so those checks are
    /// enforced only against a same-epoch handshake. A peer at an
    /// *earlier* epoch is stale — rejecting it here is what keeps a
    /// laggard's old-epoch protocol writes out of the fresh mirror.
    fn admits(&self, me: usize, hello: &Hello) -> bool {
        let (src, nodes) = (hello.src as usize, self.addrs.len());
        src != me
            && src < MAX_ROWS
            && hello.epoch >= self.epoch
            && (hello.epoch > self.epoch
                || (src < nodes
                    && hello.nodes as usize == nodes
                    && hello.region_words as usize == self.region.len()))
    }
}

/// One source row's inbound side.
#[derive(Default)]
struct Inbound {
    /// A shutdown handle to the current inbound stream, tagged with the
    /// epoch its `HELLO` carried (epoch transitions keep inbound
    /// connections that are already at the new epoch).
    stream: Option<(TcpStream, u64)>,
    /// Whether a valid `HELLO` arrived for the current epoch (bootstrap
    /// barrier; cleared on epoch transitions).
    hello_seen: bool,
}

struct Shared {
    me: usize,
    /// The current epoch's mesh. The lock is held only to clone the `Arc`
    /// or to check-and-swap, never while taking another lock, so it may be
    /// read under a peer's `out` lock or the `inbound` lock.
    mesh: RwLock<Arc<Mesh>>,
    faults: FaultPlan,
    metrics: WireMetrics,
    obs: ObsPlane,
    /// An exposition listener handed over by [`TcpFabric::serve_metrics`],
    /// waiting for the poller to adopt it into its readiness set (no new
    /// thread: `/metrics` is served from the existing event loop).
    http_listener: Mutex<Option<TcpListener>>,
    stop: AtomicBool,
    queue_cap: usize,
    /// Interrupts a blocked poller (new backlog, shutdown, transitions).
    waker: Waker,
    /// Per source row; grows when a source ahead of us — e.g. the joiner
    /// of an epoch we have not installed yet — handshakes.
    inbound: Mutex<Vec<Inbound>>,
    /// Joiner control conversations (`JOIN` first frames) awaiting the
    /// sponsor runtime.
    join_tx: Sender<JoinRequest>,
    join_rx: Receiver<JoinRequest>,
}

impl Shared {
    /// A snapshot of the current epoch's mesh.
    fn mesh(&self) -> Arc<Mesh> {
        Arc::clone(&self.mesh.read().expect("mesh lock"))
    }

    fn link_allowed(&self, peer: usize) -> bool {
        !self.faults.is_isolated(NodeId(self.me)) && !self.faults.is_isolated(NodeId(peer))
    }
}

/// Tears down a peer's outbound streams (established and in-flight) and
/// rewinds the queue to a frame boundary, so the next connection's byte
/// stream starts clean. Queued frames survive for the redial.
fn kill_outbound(peer: &PeerState, out: &mut PeerOut) {
    if let Some(c) = out.conn.take() {
        let _ = c.shutdown(Shutdown::Both);
    }
    if let Some(c) = out.connecting.take() {
        let _ = c.shutdown(Shutdown::Both);
    }
    peer.connected.store(false, Ordering::Release);
    out.queue.rewind_head();
}

/// Drains the peer's queue into its live stream with vectored writes
/// until empty or the kernel pushes back. Caller holds the peer lock
/// (posters and the poller both flush through here, so the stream stays
/// a single ordered FIFO). Frames whose epoch died with the view are
/// purged first. On a write error the connection is torn down; the
/// queued frames survive for the redial.
fn drain_outbound(shared: &Shared, peer: &PeerState, out: &mut PeerOut) {
    // The epoch current *now*, read under the `out` lock: a post whose
    // snapshot went stale must not put an old-epoch frame on a link
    // dialed at the new epoch.
    let purged = out.purge_before(shared.mesh().epoch);
    shared.metrics.frames_dropped.add(purged as u64);
    let PeerOut {
        queue,
        frames,
        pool,
        conn,
        ..
    } = out;
    let Some(conn) = conn else {
        return;
    };
    let d = drain_queue(&*conn, queue, |stamp, mut buf| {
        *frames -= stamp.frames;
        if pool.len() < 64 {
            buf.clear();
            pool.push(buf);
        }
    });
    shared.metrics.flushes.add(d.writes as u64);
    shared.metrics.bytes_sent.add(d.bytes as u64);
    if d.end == DrainEnd::Dead {
        kill_outbound(peer, out);
    }
}

struct Inner {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    poller: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.waker.wake();
        // Unblock anything parked on half-open inbound sockets.
        for inb in self.shared.inbound.lock().expect("inbound lock").iter_mut() {
            if let Some((s, _)) = inb.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        if let Some(th) = self.poller.lock().expect("poller lock").take() {
            let _ = th.join();
        }
    }
}

/// One node's endpoint of the TCP transport fabric (see the
/// [module docs](self)). Cheap to clone; the last clone dropped shuts the
/// poller thread down.
#[derive(Clone)]
pub struct TcpFabric {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for TcpFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFabric")
            .field("me", &self.inner.shared.me)
            .field("nodes", &self.inner.shared.mesh().addrs.len())
            .field("local_addr", &self.inner.local_addr)
            .finish()
    }
}

impl TcpFabric {
    /// Brings the endpoint up: binds `cfg.addrs[cfg.me]`, starts the
    /// poller thread and begins dialing the full mesh. Use
    /// [`TcpFabric::wait_connected`] to barrier on the handshake.
    ///
    /// # Errors
    ///
    /// Propagates address-resolution and bind failures.
    pub fn bootstrap(cfg: TcpFabricConfig) -> io::Result<TcpFabric> {
        let addr = resolve(&cfg.addrs[cfg.me])?;
        let listener = TcpListener::bind(addr)?;
        TcpFabric::bootstrap_on_listener(cfg, listener)
    }

    /// Like [`TcpFabric::bootstrap`] with a pre-bound listener (used by
    /// the loopback group to allocate ephemeral ports first).
    ///
    /// # Errors
    ///
    /// Propagates address-resolution failures for peer addresses.
    pub fn bootstrap_on_listener(
        cfg: TcpFabricConfig,
        listener: TcpListener,
    ) -> io::Result<TcpFabric> {
        assert!(cfg.me < cfg.addrs.len(), "own node id out of range");
        assert!(cfg.addrs.len() >= 2, "a fabric connects at least two nodes");
        let n = cfg.addrs.len();
        let addrs: Vec<SocketAddr> = cfg
            .addrs
            .iter()
            .map(|a| resolve(a))
            .collect::<io::Result<_>>()?;
        let local_addr = listener.local_addr()?;
        let mesh = Mesh {
            epoch: cfg.epoch,
            region: Arc::new(Region::new(cfg.region_words)),
            addrs,
            peers: (0..n).map(|_| PeerState::new()).collect(),
            expected: (0..n).filter(|&p| p != cfg.me).collect(),
        };
        let (join_tx, join_rx) = unbounded();
        let shared = Arc::new(Shared {
            me: cfg.me,
            mesh: RwLock::new(Arc::new(mesh)),
            faults: cfg.faults,
            metrics: WireMetrics::new(&cfg.obs, cfg.me),
            obs: cfg.obs,
            http_listener: Mutex::new(None),
            stop: AtomicBool::new(false),
            queue_cap: cfg.outbound_queue_cap,
            waker: Waker::new()?,
            inbound: Mutex::new((0..n).map(|_| Inbound::default()).collect()),
            join_tx,
            join_rx,
        });
        listener.set_nonblocking(true)?;
        let poller = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("spindle-net-poll-{}", cfg.me))
                .spawn(move || poller_loop(listener, shared))
                .expect("spawn poller thread")
        };
        Ok(TcpFabric {
            inner: Arc::new(Inner {
                shared,
                local_addr,
                poller: Mutex::new(Some(poller)),
            }),
        })
    }

    /// The bound listen address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Blocks until the full mesh is up: every outbound link connected
    /// and a valid `HELLO` received from every peer.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] naming the missing peers.
    pub fn wait_connected(&self, timeout: Duration) -> io::Result<()> {
        let s = &self.inner.shared;
        let deadline = Instant::now() + timeout;
        loop {
            let mesh = s.mesh();
            let inb = s.inbound.lock().expect("inbound lock");
            let mut missing = Vec::new();
            for &p in &mesh.expected {
                if !mesh.peers[p].connected.load(Ordering::Acquire) {
                    missing.push(format!("out:n{p}"));
                }
                if !inb.get(p).is_some_and(|i| i.hello_seen) {
                    missing.push(format!("in:n{p}"));
                }
            }
            drop(inb);
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("bootstrap handshake incomplete: [{}]", missing.join(", ")),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Severs the live connections between this endpoint and `peer`, in
    /// both directions (a dead link). Frames posted while the link is
    /// down queue (shedding at the cap) and flush once the poller can
    /// re-dial — gate re-dialing with [`FaultPlan::isolate`] to keep the
    /// link down.
    pub fn sever_peer(&self, peer: NodeId) {
        let s = &self.inner.shared;
        if peer.0 == s.me {
            return;
        }
        if let Some(p) = s.mesh().peers.get(peer.0) {
            let mut out = p.out.lock().expect("peer out lock");
            kill_outbound(p, &mut out);
        }
        let mut inb = s.inbound.lock().expect("inbound lock");
        if let Some((c, _)) = inb.get_mut(peer.0).and_then(|i| i.stream.take()) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// Joiner control conversations: a fresh process that dialed this
    /// endpoint's listener with a `JOIN` frame. The hosting runtime
    /// (e.g. `spindle-node`) drains this and runs the sponsor side of
    /// the join protocol (`spindle_net::join::serve_join`).
    pub fn join_requests(&self) -> &Receiver<JoinRequest> {
        &self.inner.shared.join_rx
    }

    /// The listen address of every row this endpoint knows, indexed by
    /// row id. This is the *authoritative* per-epoch list — it grows
    /// with every join the cluster installs (each survivor's
    /// [`Fabric::begin_epoch`] appends the proposal's endpoint), so a
    /// sponsor building a join commit sees rows admitted by *other*
    /// sponsors too, not just its own.
    pub fn peer_addrs(&self) -> Vec<String> {
        let mesh = self.inner.shared.mesh();
        mesh.addrs.iter().map(|a| a.to_string()).collect()
    }

    /// Severs every live connection of this endpoint (full link failure).
    pub fn sever_all(&self) {
        for p in 0..self.inner.shared.mesh().addrs.len() {
            self.sever_peer(NodeId(p));
        }
    }

    /// The endpoint's wire counters.
    pub fn wire_stats(&self) -> WireStats {
        self.inner.shared.metrics.snapshot()
    }

    /// The endpoint's observability plane (same plane [`Fabric::obs`]
    /// hands to the hosting cluster).
    pub fn obs_plane(&self) -> ObsPlane {
        self.inner.shared.obs.clone()
    }

    /// Starts serving Prometheus-text exposition on `addr`: `GET
    /// /metrics` renders the live registry, this endpoint's wire
    /// counter families among it, `GET /flightrec` dumps the flight-recorder
    /// ring. The nonblocking listener is owned by the *existing* poller
    /// event loop — no additional thread is started (the O(1)-threads
    /// contract covers exposition too). Returns the bound address
    /// (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_metrics<A: ToSocketAddrs>(&self, addr: A) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        *self
            .inner
            .shared
            .http_listener
            .lock()
            .expect("http listener lock") = Some(listener);
        self.inner.shared.waker.wake();
        Ok(local)
    }
}

impl TcpFabric {
    /// Queues `dst`'s share of one [`Fabric::post_all`] as **one** entry —
    /// every frame encoded, in order, into one pooled buffer — and, when
    /// the link is up, flushes it from the posting thread (latency-greedy:
    /// no handoff, no wakeup). Under load the kernel pushes back
    /// (`WouldBlock`) and entries accumulate for the poller's next
    /// vectored drain: batching emerges adaptively.
    fn post_share<'a>(&self, mesh: &Mesh, dst: NodeId, share: impl Iterator<Item = &'a WriteOp>) {
        let s = &self.inner.shared;
        let peer = &mesh.peers[dst.0];
        let mut out = peer.out.lock().expect("peer out lock");
        let mut buf = out.pool.pop().unwrap_or_default();
        let mut frames = 0;
        for frame in share.flat_map(frames_of) {
            if out.frames + frames >= s.queue_cap {
                // The peer is unreachable and the backlog is saturated:
                // shed load like a NIC whose QP errored out.
                s.metrics.frames_dropped.inc();
                continue;
            }
            let words = mesh.region.snapshot(frame.range.start, frame.words());
            encode_write_frame(&WriteFrame::for_op(&frame, words), &mut buf);
            frames += 1;
        }
        if frames == 0 {
            out.pool.push(buf);
            return;
        }
        let was_idle = out.queue.is_empty();
        let stamp = Stamp {
            epoch: mesh.epoch,
            frames,
        };
        out.queue.push(stamp, buf);
        out.frames += frames;
        if out.conn.is_some() {
            drain_outbound(s, peer, &mut out);
            if !out.queue.is_empty() {
                s.waker.wake();
            }
        } else if was_idle && out.connecting.is_none() {
            // Link down and this is fresh backlog: have the poller dial.
            s.waker.wake();
        }
    }
}

/// The frames that carry `op`: itself, or — wider than one frame (a
/// batched send can cover a whole window) — consecutive pieces on the same
/// ordered stream, which apply in order, so payload -> round -> header
/// placement within the range is preserved.
fn frames_of(op: &WriteOp) -> impl Iterator<Item = WriteOp> + '_ {
    let split = op.words() > MAX_FRAME_WORDS;
    op.range.clone().step_by(MAX_FRAME_WORDS).map(move |start| {
        if split {
            WriteOp::new(op.dst, start..op.range.end.min(start + MAX_FRAME_WORDS))
        } else {
            op.clone()
        }
    })
}

impl Fabric for TcpFabric {
    fn nodes(&self) -> usize {
        self.inner.shared.mesh().addrs.len()
    }

    fn region_arc(&self, node: NodeId) -> Arc<Region> {
        let s = &self.inner.shared;
        assert_eq!(
            node.0, s.me,
            "TcpFabric only addresses the locally hosted mirror region \
             (node {node} is remote; this endpoint hosts n{})",
            s.me
        );
        Arc::clone(&s.mesh().region)
    }

    fn post(&self, src: NodeId, op: &WriteOp) {
        self.post_all(src, std::slice::from_ref(op));
    }

    /// One entry and one inline flush per destination, in order of first
    /// appearance; each destination's frames keep their slice order (the
    /// fence of the [`Fabric`] contract).
    fn post_all(&self, src: NodeId, ops: &[WriteOp]) {
        let s = &self.inner.shared;
        assert_eq!(src.0, s.me, "TcpFabric posts only from its local node");
        // One snapshot for the bounds, the peers, the words and the epoch
        // stamp: the frames are purged unsent once the endpoint moves on.
        let mesh = s.mesh();
        let mut frames = 0;
        for op in ops {
            assert!(op.dst.0 < mesh.addrs.len(), "destination out of range");
            assert!(
                op.range.start < op.range.end && op.range.end <= mesh.region.len(),
                "write range out of region bounds"
            );
            frames += op.words().div_ceil(MAX_FRAME_WORDS);
        }
        s.metrics.frames_posted.add(frames as u64);
        // Faults per op, before any lock: a dropped write never reaches the
        // wire, and a throttle stalls the poster, not the link. An inert
        // plan decides nothing and allocates nothing.
        let delivered: Vec<bool> = if s.faults.is_active() {
            let deliver = |op: &WriteOp| match s.faults.disposition(src, op.dst) {
                Disposition::Drop => false,
                Disposition::Deliver(delay) => {
                    std::thread::sleep(delay);
                    true
                }
            };
            ops.iter().map(|op| op.dst == src || deliver(op)).collect()
        } else {
            Vec::new()
        };
        for (i, op) in ops.iter().enumerate() {
            // Loopback never crosses the wire (the mirror is the source).
            if op.dst == src || ops[..i].iter().any(|o| o.dst == op.dst) {
                continue;
            }
            let share = ops.iter().enumerate().skip(i).filter_map(|(j, o)| {
                (o.dst == op.dst && delivered.get(j).copied().unwrap_or(true)).then_some(o)
            });
            self.post_share(&mesh, op.dst, share);
        }
    }

    fn faults(&self) -> &FaultPlan {
        &self.inner.shared.faults
    }

    /// The in-place epoch transition (see the [module docs](self)): swap
    /// in a fresh mirror of the new layout's size, re-stamp handshakes
    /// with the new epoch, narrow (or *grow* — a join appends rows to
    /// the peer set; the poller's fd set covers them with no new
    /// threads) the mesh to the transition's live set, and re-wire
    /// connections — every *outbound* link is severed (its stream
    /// carries the old epoch's handshake; the poller re-dials with the
    /// new one), but an inbound connection whose peer already handshook
    /// at the new epoch (or later) is **kept**: it is exactly the link
    /// the peer's install barrier and first new-epoch writes ride on,
    /// and killing it would drop those one-shot writes in the close
    /// window. Only stale inbound connections are severed. Idempotent
    /// once the epoch is installed. The successor is always this fabric.
    fn begin_epoch(&self, t: &EpochTransition) -> Option<TcpFabric> {
        let s = &self.inner.shared;
        let joined: Vec<SocketAddr> = t
            .joined
            .iter()
            .map(|(_, addr)| resolve(addr).expect("join proposals carry resolvable endpoints"))
            .collect();
        // Check-and-swap, taking no other lock while the mesh lock is held
        // (readers take it under a peer's `out` lock). A joined row is
        // dialable from the swap on, so the install barrier reaches it.
        let mut current = s.mesh.write().expect("mesh lock");
        if current.epoch >= t.epoch {
            return Some(self.clone());
        }
        let (mut addrs, mut peers) = (current.addrs.clone(), current.peers.clone());
        for ((row, _), addr) in t.joined.iter().zip(joined) {
            assert_eq!(*row, addrs.len(), "joined rows are appended in row order");
            addrs.push(addr);
            peers.push(PeerState::new());
        }
        let next = Arc::new(Mesh {
            epoch: t.epoch,
            region: Arc::new(Region::new(t.region_words)),
            addrs,
            peers,
            expected: t.live.iter().copied().filter(|&p| p != s.me).collect(),
        });
        *current = Arc::clone(&next);
        drop(current);
        // Sever and purge only after the swap, so a link re-dialed from
        // here on carries the new epoch's HELLO. Outbound: sever everything
        // and purge frames snapshotted from the dead epoch (their queue
        // pairs died with the view); the poller re-dials on demand.
        for (row, p) in next.peers.iter().enumerate() {
            if row == s.me {
                continue;
            }
            let mut out = p.out.lock().expect("peer out lock");
            kill_outbound(p, &mut out);
            let purged = out.purge_before(t.epoch);
            s.metrics.frames_dropped.add(purged as u64);
        }
        // Inbound: keep connections already at the new epoch (their
        // handshake stands — no fresh HELLO will come over them), sever
        // the stale ones.
        for inb in s.inbound.lock().expect("inbound lock").iter_mut() {
            if inb.stream.as_ref().is_some_and(|&(_, e)| e >= t.epoch) {
                continue;
            }
            if let Some((c, _)) = inb.stream.take() {
                let _ = c.shutdown(Shutdown::Both);
            }
            inb.hello_seen = false;
        }
        s.waker.wake();
        Some(self.clone())
    }

    fn obs(&self) -> Option<ObsPlane> {
        Some(self.inner.shared.obs.clone())
    }
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("address resolves to nothing: {addr}"),
        )
    })
}

/// One inbound connection owned by the poller: the socket, and
/// everything decoded off it so far.
struct InboundConn {
    stream: TcpStream,
    link: InboundLink,
}

#[derive(Default)]
struct InboundLink {
    asm: FrameAssembler,
    /// The validated handshake; `None` until the first frame arrives.
    hello: Option<Hello>,
    /// Kill the connection at the next compaction.
    dead: bool,
    /// Hand the stream to the sponsor runtime at the next compaction.
    handoff: Option<(String, bool)>,
}

/// Reads everything currently available on one inbound connection and
/// applies the complete frames (see [`process_inbound_frames`]).
/// Returns whether any bytes arrived.
fn service_inbound(shared: &Shared, ic: &mut InboundConn, scratch: &mut [u8]) -> bool {
    let InboundConn { stream, link } = ic;
    if link.dead || link.handoff.is_some() {
        return false;
    }
    let mut any = false;
    let end = read_available(&*stream, scratch, |chunk| {
        any = true;
        shared.metrics.bytes_received.add(chunk.len() as u64);
        link.asm.feed(chunk);
        process_inbound_frames(shared, stream, link);
        !link.dead && link.handoff.is_none()
    });
    if end != ReadEnd::Drained {
        link.dead = true;
    }
    any
}

/// Applies every complete frame buffered on `ic`: verify the `HELLO`,
/// then place writes into the local mirror until the stream ends or
/// turns garbage. A connection that opens with a `JOIN` frame instead is
/// not a fabric link at all — it is a joiner's control conversation,
/// marked for handoff to [`TcpFabric::join_requests`].
fn process_inbound_frames(shared: &Shared, stream: &TcpStream, ic: &mut InboundLink) {
    loop {
        let frame = match ic.asm.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(_) => {
                ic.dead = true;
                return;
            }
        };
        let Some(hello) = ic.hello.as_ref() else {
            match frame {
                Frame::Hello(h) => {
                    if !register_hello(shared, stream, &h) {
                        ic.dead = true;
                        return;
                    }
                    ic.hello = Some(h);
                    continue;
                }
                Frame::Join(j) => {
                    // The joiner writes nothing after its JOIN; the
                    // sponsor answers over the same stream.
                    ic.handoff = Some((j.addr, j.as_sender));
                    return;
                }
                _ => {
                    ic.dead = true;
                    return;
                }
            }
        };
        match frame {
            Frame::Write(w) => {
                // One snapshot for the bound and the epoch gate. Checked
                // arithmetic: a hostile offset near u64::MAX must fail
                // validation, not wrap and panic the poller. The bound is
                // the *connection's* declared region (>= ours for an
                // ahead-of-us peer).
                let mesh = shared.mesh();
                let bound = (mesh.region.len() as u64).max(hello.region_words);
                let end = w.offset.checked_add(w.words.len() as u64);
                if w.words.is_empty() || end.is_none_or(|e| e > bound) {
                    ic.dead = true; // corrupt frame: kill the connection
                    return;
                }
                // Apply to the *current* mirror, gated per frame (see
                // `Mesh::region`): if *we* advanced past the connection's
                // epoch, it is stale — drop it before it can write into
                // the fresh mirror.
                if hello.epoch < mesh.epoch {
                    ic.dead = true;
                    return;
                }
                let end = end.expect("bounds-checked above") as usize;
                if end <= mesh.region.len() {
                    mesh.region.apply_write(w.offset as usize, &w.words);
                    mesh.region.ring();
                    shared.metrics.frames_received.inc();
                } else {
                    // A write into rows of a later layout than ours —
                    // e.g. the joiner's install flag reaching a laggard
                    // that has not grown its mirror yet. Skip it (never
                    // kill the link): monotonic protocol columns are
                    // re-pushed, so it lands once we install.
                    debug_assert!(hello.epoch > mesh.epoch);
                }
            }
            // A second HELLO (or any control frame) is a protocol
            // violation; the connection ends (the peer re-dials).
            _ => {
                ic.dead = true;
                return;
            }
        }
    }
}

/// Validates a handshake against the current mesh ([`Mesh::admits`]) and
/// registers the connection. The mesh is read under the `inbound` lock, so
/// a transition either precedes the check or severs what it registered.
fn register_hello(shared: &Shared, stream: &TcpStream, hello: &Hello) -> bool {
    let (src, peer, epoch) = (hello.src as usize, hello.src, hello.epoch);
    let mut inb = shared.inbound.lock().expect("inbound lock");
    let mesh = shared.mesh();
    let admitted = mesh.admits(shared.me, hello);
    if admitted {
        if inb.len() <= src {
            inb.resize_with(src + 1, Inbound::default);
        }
        if let Ok(clone) = stream.try_clone() {
            if let Some((stale, _)) = inb[src].stream.replace((clone, epoch)) {
                let _ = stale.shutdown(Shutdown::Both);
            }
        }
        inb[src].hello_seen = true;
    }
    drop(inb);
    let event = if admitted {
        FlightEvent::HelloAccepted { peer, epoch }
    } else {
        FlightEvent::HelloRejected {
            peer,
            epoch,
            expected: mesh.epoch,
        }
    };
    shared.obs.event(Level::Info, shared.me, event);
    admitted
}

/// Compact the inbound set: drop dead connections, hand join
/// conversations to the sponsor runtime (back in blocking mode —
/// `serve_join` speaks a plain request/response protocol over the
/// stream).
fn compact_inbound(shared: &Shared, inbound: &mut Vec<InboundConn>) {
    let mut i = 0;
    while i < inbound.len() {
        if inbound[i].link.dead {
            inbound.swap_remove(i);
        } else if inbound[i].link.handoff.is_some() {
            let ic = inbound.swap_remove(i);
            let (addr, as_sender) = ic.link.handoff.expect("checked above");
            let _ = ic.stream.set_nonblocking(false);
            let _ = ic.stream.set_read_timeout(Some(POLL));
            let _ = shared.join_tx.send(JoinRequest {
                addr,
                as_sender,
                stream: ic.stream,
            });
        } else {
            i += 1;
        }
    }
}

/// One in-flight exposition request, owned by the poller alongside the
/// fabric connections. HTTP/1.0, `Connection: close`: read until the
/// header terminator, write one response, shut down.
struct HttpConn {
    stream: TcpStream,
    req: Vec<u8>,
    /// The rendered response (one frame, once the request is complete).
    out: FrameQueue<Vec<u8>, ()>,
    dead: bool,
}

/// A request header larger than this is hostile, not a scrape.
const HTTP_REQ_CAP: usize = 8 * 1024;

/// Advances one exposition connection as far as the socket allows:
/// accumulate the request until the blank line, render the response,
/// drain it, close. Everything is nonblocking; a `WouldBlock` leaves the
/// connection for the next readiness pass.
fn service_http(shared: &Shared, c: &mut HttpConn, scratch: &mut [u8]) {
    let HttpConn {
        stream,
        req,
        out,
        dead,
    } = c;
    if out.is_empty() {
        let end = read_available(&*stream, scratch, |chunk| {
            req.extend_from_slice(chunk);
            if req.len() > HTTP_REQ_CAP {
                *dead = true;
            } else if req.windows(4).any(|w| w == b"\r\n\r\n") {
                out.push((), http_response(shared, req));
            }
            !*dead && out.is_empty()
        });
        *dead |= end != ReadEnd::Drained;
        if *dead || out.is_empty() {
            return;
        }
    }
    if drain_queue(&*stream, out, |(), _| ()).end != DrainEnd::WouldBlock {
        let _ = stream.shutdown(Shutdown::Both);
        *dead = true;
    }
}

/// Routes one parsed request. `GET /metrics` → Prometheus text v0.0.4,
/// `GET /flightrec` → the rendered flight-recorder ring.
fn http_response(shared: &Shared, req: &[u8]) -> Vec<u8> {
    let line = req.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "GET only\n".to_string())
    } else {
        match path {
            "/metrics" => ("200 OK", render_metrics_page(shared)),
            "/flightrec" => ("200 OK", shared.obs.recorder().render()),
            _ => ("404 Not Found", "try /metrics or /flightrec\n".to_string()),
        }
    };
    let mut resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; \
         charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    resp.extend_from_slice(body.as_bytes());
    resp
}

/// The full `/metrics` page: the live registry — protocol families
/// published by the hosting cluster through the shared plane, this
/// endpoint's wire families, and the single-poller thread gauge, read
/// from the kernel as the page is rendered.
fn render_metrics_page(shared: &Shared) -> String {
    shared.metrics.threads.set(wire_thread_count() as u64);
    shared.obs.registry().render_prometheus()
}

/// How many wire service threads this *process* runs, counted from the
/// kernel's thread list (`/proc/self/task/*/comm`) rather than any
/// fabric-internal bookkeeping — the single-poller acceptance tests
/// assert the O(1) contract against this. `comm` truncates names to 15
/// bytes, so the match is on the `spindle-net` prefix.
pub fn wire_thread_count() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with("spindle-net"))
        })
        .count()
}

/// The single poller thread: one readiness loop owning the listener,
/// every inbound stream, dial completions, outbound backlog drains —
/// and, once [`TcpFabric::serve_metrics`] hands one over, the metrics
/// exposition listener and its request streams. This is the only wire
/// service thread an endpoint runs, whatever the cluster size.
fn poller_loop(listener: TcpListener, shared: Arc<Shared>) {
    let patience_deadline = Instant::now() + CONNECT_PATIENCE;
    let mut inbound: Vec<InboundConn> = Vec::new();
    // One read scratch for every socket this thread services.
    let mut rbuf = vec![0u8; 16 * 1024];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut out_rows: Vec<usize> = Vec::new();
    let mut hot: u32 = 0;
    // Exposition state: adopted from `serve_metrics` on the next slow
    // pass, then polled alongside the fabric fds. Scrapes ride the
    // existing loop — no thread is ever added for them.
    let mut http_listener: Option<TcpListener> = None;
    let mut http_conns: Vec<HttpConn> = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        // Hot fast path: while traffic is flowing, skip the fd rebuild
        // and the poll syscall entirely and greedily try nonblocking
        // reads on the inbound streams — one `read` per live stream is
        // the whole wake cost, which is what bounds post→placement
        // latency on an active link. The budget decrements every spin
        // (activity does NOT renew it here), so accepts, dials, waker
        // drains and POLLOUT backlog service are never starved longer
        // than `HOT_SPINS` spins: the slow pass below runs at least
        // once per window and re-arms the window if traffic continues.
        if hot > 0 {
            hot -= 1;
            let mut moved = false;
            for ic in inbound.iter_mut() {
                if service_inbound(&shared, ic, &mut rbuf) {
                    moved = true;
                }
            }
            compact_inbound(&shared, &mut inbound);
            if !moved {
                // Nothing pending: give the core to the posters that
                // feed this loop (single-core friendliness).
                std::thread::yield_now();
            }
            continue;
        }
        let now = Instant::now();
        let in_patience = now < patience_deadline;
        // One snapshot per slow pass (the hot path above needs none).
        let mesh = shared.mesh();
        // One pass over the peers, under one lock each: run dial policy
        // (eager toward the expected mesh during bootstrap patience, on
        // demand — queued backlog — afterwards; backoff-gated always)
        // and collect the POLLOUT set (dials in flight, backlog behind
        // a live stream) while the fd list is built below.
        fds.clear();
        fds.push(PollFd::new(shared.waker.fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        for ic in &inbound {
            fds.push(PollFd::new(ic.stream.as_raw_fd(), POLLIN));
        }
        let n_inb = inbound.len();
        out_rows.clear();
        let mut timed = false;
        for (row, p) in mesh.peers.iter().enumerate() {
            if row == shared.me {
                continue;
            }
            let mut out = p.out.lock().expect("peer out lock");
            if out.connecting.is_some() && now.duration_since(out.dial_started) > DIAL_TIMEOUT {
                if let Some(c) = out.connecting.take() {
                    let _ = c.shutdown(Shutdown::Both);
                }
            }
            if out.connecting.is_some() {
                timed = true;
            }
            let want = (in_patience && mesh.expected.contains(&row)) || !out.queue.is_empty();
            if want && out.conn.is_none() {
                timed = true;
                if out.connecting.is_none() {
                    let gap = if out.queue.is_empty() {
                        EAGER_DIAL_GAP
                    } else {
                        REDIAL_BACKOFF
                    };
                    let due = out.last_dial.is_none_or(|t| now.duration_since(t) >= gap);
                    if due && shared.link_allowed(row) {
                        out.last_dial = Some(now);
                        if let Ok(s) = connect_nonblocking(&mesh.addrs[row]) {
                            out.dial_started = now;
                            out.connecting = Some(s);
                        }
                    }
                }
            }
            let fd = if let Some(c) = &out.connecting {
                Some(c.as_raw_fd())
            } else {
                match &out.conn {
                    Some(c) if !out.queue.is_empty() => Some(c.as_raw_fd()),
                    _ => None,
                }
            };
            if let Some(fd) = fd {
                out_rows.push(row);
                fds.push(PollFd::new(fd, POLLOUT));
            }
        }
        // Exposition fds ride at the tail of the set so the fabric
        // indices above stay fixed.
        if http_listener.is_none() {
            http_listener = shared
                .http_listener
                .lock()
                .expect("http listener lock")
                .take();
        }
        let http_base = fds.len();
        if let Some(l) = &http_listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let n_http = http_conns.len();
        for c in &http_conns {
            let events = if c.out.is_empty() { POLLIN } else { POLLOUT };
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        // Adaptive cadence: the hot fast path above owns the traffic
        // case (this pass only runs with the window closed or spent),
        // so block at millisecond granularity while dials are pending
        // and for the full tick when idle — a pending readiness event
        // still returns immediately.
        let timeout = if timed { EAGER_DIAL_GAP } else { POLL };
        let n_ready = match poll_fds(&mut fds, Some(timeout)) {
            Ok(n) => n,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if n_ready == 0 {
            continue;
        }
        let mut activity = false;
        if fds[0].readable() {
            shared.waker.drain();
            activity = true;
        }
        if fds[1].readable() {
            accept_ready(&listener, |stream| {
                let _ = stream.set_nodelay(true);
                inbound.push(InboundConn {
                    stream,
                    link: InboundLink::default(),
                });
                activity = true;
            });
        }
        for i in 0..n_inb {
            if fds[2 + i].readable() && service_inbound(&shared, &mut inbound[i], &mut rbuf) {
                activity = true;
            }
        }
        compact_inbound(&shared, &mut inbound);
        // Outbound readiness: resolve dial completions (HELLO goes first
        // on the fresh stream), then drain backlogs as vectored writes.
        for (k, &row) in out_rows.iter().enumerate() {
            if !fds[2 + n_inb + k].writable() {
                continue;
            }
            let p = &mesh.peers[row];
            let mut out = p.out.lock().expect("peer out lock");
            if let Some(c) = out.connecting.take() {
                // A failed dial (refused / unreachable) falls through:
                // the backlog stays queued for the backoff-gated retry.
                if let Ok(None) = c.take_error() {
                    let _ = c.set_nodelay(true);
                    out.conn = Some(c);
                    p.connected.store(true, Ordering::Release);
                    shared.metrics.reconnects.inc();
                    out.queue.rewind_head(); // fresh stream, frame boundary
                                             // The current mesh, not the pass's snapshot: a link
                                             // dialed across a transition speaks the new epoch.
                    let hello = shared.mesh().hello(shared.me);
                    let mut buf = out.pool.pop().unwrap_or_default();
                    encode_hello(&hello, &mut buf);
                    let stamp = Stamp {
                        epoch: hello.epoch,
                        frames: 1,
                    };
                    out.queue.push_front(stamp, buf);
                    out.frames += 1;
                    shared.obs.event(
                        Level::Debug,
                        shared.me,
                        FlightEvent::Dialed {
                            peer: row as u32,
                            epoch: hello.epoch,
                        },
                    );
                }
            }
            drain_outbound(&shared, p, &mut out);
            activity = true;
        }
        // Exposition service: accept scrapers, advance their request /
        // response state machines. Scrapes never arm the hot window —
        // they are rare and must not perturb the wire path's cadence.
        let mut hi = http_base;
        if let Some(l) = &http_listener {
            if fds[hi].readable() {
                accept_ready(l, |stream| {
                    http_conns.push(HttpConn {
                        stream,
                        req: Vec::new(),
                        out: FrameQueue::new(),
                        dead: false,
                    });
                });
            }
            hi += 1;
        }
        for (k, c) in http_conns.iter_mut().enumerate() {
            // Conns past `n_http` were accepted this pass (no fd slot
            // yet): service them eagerly — the scrape request is often
            // already in the socket buffer, finishing the exchange in
            // one shot.
            if k >= n_http || fds[hi + k].readable() || fds[hi + k].writable() {
                service_http(&shared, c, &mut rbuf);
            }
        }
        http_conns.retain(|c| !c.dead);
        if activity {
            hot = HOT_SPINS;
        }
    }
    // Best-effort flush so a clean shutdown does not strand acks the
    // peers still need.
    let flush_deadline = Instant::now() + Duration::from_millis(500);
    loop {
        let mut pending = false;
        for (row, p) in shared.mesh().peers.iter().enumerate() {
            if row == shared.me {
                continue;
            }
            let mut out = p.out.lock().expect("peer out lock");
            drain_outbound(&shared, p, &mut out);
            if !out.queue.is_empty() && out.conn.is_some() {
                pending = true;
            }
        }
        if !pending || Instant::now() > flush_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_obs::names;
    use std::io::{Read, Write};

    fn loopback_pair(region_words: usize, faults: FaultPlan) -> (TcpFabric, TcpFabric) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let mk = |me: usize, listener: TcpListener, faults: FaultPlan| {
            let mut cfg = TcpFabricConfig::new(me, addrs.clone(), region_words);
            cfg.faults = faults;
            TcpFabric::bootstrap_on_listener(cfg, listener).unwrap()
        };
        let a = mk(0, l0, faults.clone());
        let b = mk(1, l1, faults);
        a.wait_connected(Duration::from_secs(10)).unwrap();
        b.wait_connected(Duration::from_secs(10)).unwrap();
        (a, b)
    }

    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        false
    }

    /// One blocking HTTP/1.0 GET against the exposition endpoint,
    /// returning the response body.
    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("header terminator");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "bad status: {head}");
        body.to_string()
    }

    #[test]
    fn metrics_and_flightrec_served_from_the_poller_thread() {
        let (a, b) = loopback_pair(8, FaultPlan::new());
        let addr = a.serve_metrics("127.0.0.1:0").unwrap();
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 0..1));
        assert!(eventually(|| b.wire_stats().frames_received == 1));
        // Exposition adds no thread to the one poller per endpoint:
        // tests/wire_thread_count.rs pins that in a process of its own,
        // where sibling tests' pollers cannot be counted in.
        let body = scrape(addr, "/metrics");
        for fam in [
            "spindle_wire_frames_posted_total{node=\"0\"} 1",
            "spindle_wire_bytes_sent_total",
            "spindle_wire_threads{node=\"0\"} ",
            "# TYPE spindle_wire_flushes_total counter",
        ] {
            assert!(body.contains(fam), "missing {fam:?} in:\n{body}");
        }
        // One exposition: every family is declared once on the page, and
        // the wire counters it shows are the ones `wire_stats` reads.
        let types: Vec<&str> = body.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let unique: BTreeSet<&str> = types.iter().copied().collect();
        assert_eq!(
            types.len(),
            unique.len(),
            "a family declared twice:\n{body}"
        );
        let plane = a.obs_plane();
        let read = |name| plane.registry().counter_value(name, &[("node", "0")]);
        let from_registry = || WireStats {
            bytes_sent: read(names::WIRE_BYTES_SENT).unwrap(),
            bytes_received: read(names::WIRE_BYTES_RECEIVED).unwrap(),
            frames_posted: read(names::WIRE_FRAMES_POSTED).unwrap(),
            frames_received: read(names::WIRE_FRAMES_RECEIVED).unwrap(),
            frames_dropped: read(names::WIRE_FRAMES_DROPPED).unwrap(),
            reconnects: read(names::WIRE_RECONNECTS).unwrap(),
            flushes: read(names::WIRE_FLUSHES).unwrap(),
        };
        assert!(eventually(|| a.wire_stats() == from_registry()));
        assert_eq!(from_registry().frames_posted, 1);
        // The handshake left structured events in the ring.
        let fr = scrape(addr, "/flightrec");
        assert!(fr.contains("hello-accepted peer=n1"), "flightrec:\n{fr}");
        // Unknown paths are a clean 404, not a poller hiccup.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 404"));
        // The wire path still works after scrapes.
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 0..1));
        assert!(eventually(|| b.wire_stats().frames_received == 2));
    }

    #[test]
    fn hello_events_replace_the_debug_env_path() {
        let (a, _b) = loopback_pair(8, FaultPlan::new());
        let (recs, _) = a.obs_plane().recorder().dump();
        assert!(recs
            .iter()
            .any(|r| matches!(r.event, FlightEvent::HelloAccepted { peer: 1, .. })));
        assert!(recs
            .iter()
            .any(|r| matches!(r.event, FlightEvent::Dialed { peer: 1, .. })));
    }

    #[test]
    fn posts_place_words_into_the_peer_mirror() {
        let (a, b) = loopback_pair(16, FaultPlan::new());
        let ra = a.region_arc(NodeId(0));
        ra.store(3, 111);
        ra.store(4, 222);
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 3..5));
        let rb = b.region_arc(NodeId(1));
        assert!(eventually(|| rb.load(3) == 111 && rb.load(4) == 222));
        assert!(eventually(|| b.wire_stats().frames_received == 1));
    }

    #[test]
    fn per_peer_streams_preserve_posting_order() {
        let (a, b) = loopback_pair(8, FaultPlan::new());
        let ra = a.region_arc(NodeId(0));
        let rb = b.region_arc(NodeId(1));
        for i in 1..=5_000u64 {
            ra.store(0, i * 10); // data
            ra.store(1, i); // guard
            a.post(NodeId(0), &WriteOp::new(NodeId(1), 0..2));
        }
        assert!(eventually(|| rb.load(1) == 5_000));
        // Fencing: any observed guard implies data at least as new.
        let guard = rb.load(1);
        let data = rb.load(0);
        assert!(data >= guard * 10, "fencing violated: {data} < {guard}*10");
    }

    #[test]
    fn self_post_is_counted_but_stays_local() {
        let (a, _b) = loopback_pair(8, FaultPlan::new());
        a.region_arc(NodeId(0)).store(0, 9);
        a.post(NodeId(0), &WriteOp::new(NodeId(0), 0..1));
        assert_eq!(a.wire_stats().frames_posted, 1);
        assert_eq!(a.wire_stats().bytes_sent, 31); // the one HELLO frame
    }

    #[test]
    fn fault_plan_drops_at_the_wire_layer() {
        let faults = FaultPlan::new();
        let (a, b) = loopback_pair(8, faults.clone());
        faults.isolate(NodeId(1));
        a.region_arc(NodeId(0)).store(2, 5);
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 2..3));
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(b.region_arc(NodeId(1)).load(2), 0, "isolated write leaked");
        assert_eq!(faults.writes_dropped(), 1);
        // Heal: the next post flows again.
        faults.heal(NodeId(1));
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 2..3));
        assert!(eventually(|| b.region_arc(NodeId(1)).load(2) == 5));
    }

    #[test]
    fn severed_link_reconnects_on_demand() {
        let (a, b) = loopback_pair(8, FaultPlan::new());
        a.sever_peer(NodeId(1));
        b.sever_peer(NodeId(0));
        // The link re-dials on the next posts; eventually a fresh write
        // lands even if the first few frames die with the old socket.
        let ra = a.region_arc(NodeId(0));
        let rb = b.region_arc(NodeId(1));
        assert!(eventually(|| {
            ra.store(1, 42);
            a.post(NodeId(0), &WriteOp::new(NodeId(1), 1..2));
            std::thread::sleep(Duration::from_millis(2));
            rb.load(1) == 42
        }));
        assert!(a.wire_stats().reconnects >= 2);
    }

    #[test]
    #[should_panic(expected = "locally hosted")]
    fn remote_region_is_not_addressable() {
        let (a, _b) = loopback_pair(8, FaultPlan::new());
        let _ = a.region_arc(NodeId(1));
    }

    #[test]
    fn begin_epoch_swaps_mirror_and_rewires_links() {
        let (a, b) = loopback_pair(16, FaultPlan::new());
        // Epoch-0 traffic lands.
        a.region_arc(NodeId(0)).store(2, 7);
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 2..3));
        let rb0 = b.region_arc(NodeId(1));
        assert!(eventually(|| rb0.load(2) == 7));

        // A installs epoch 1 first: fresh zeroed mirror, links severed.
        assert!(Fabric::begin_epoch(&a, &EpochTransition::shrink(1, vec![0, 1], 16)).is_some());
        assert_eq!(a.region_arc(NodeId(0)).load(2), 0, "mirror not fresh");
        // Idempotent for an installed epoch.
        assert!(Fabric::begin_epoch(&a, &EpochTransition::shrink(1, vec![0, 1], 16)).is_some());

        // The epoch-skew window: A (epoch 1) re-dials B (still epoch 0)
        // with a later-epoch HELLO — accepted, frames land in B's
        // still-current region.
        let ra = a.region_arc(NodeId(0));
        assert!(eventually(|| {
            ra.store(3, 9);
            a.post(NodeId(0), &WriteOp::new(NodeId(1), 3..4));
            std::thread::sleep(Duration::from_millis(2));
            b.region_arc(NodeId(1)).load(3) == 9
        }));

        // B installs too: its stale mirror (with word 3 = 9) is replaced,
        // and the mesh re-forms at epoch 1.
        assert!(Fabric::begin_epoch(&b, &EpochTransition::shrink(1, vec![0, 1], 16)).is_some());
        assert_eq!(b.region_arc(NodeId(1)).load(3), 0, "mirror not fresh");
        assert!(eventually(|| {
            ra.store(4, 11);
            a.post(NodeId(0), &WriteOp::new(NodeId(1), 4..5));
            std::thread::sleep(Duration::from_millis(2));
            b.region_arc(NodeId(1)).load(4) == 11
        }));
        // Re-dialing is on-demand: once B posts, the full epoch-1 mesh
        // (both directions) comes back up.
        assert!(eventually(|| {
            b.region_arc(NodeId(1)).store(5, 13);
            b.post(NodeId(1), &WriteOp::new(NodeId(0), 5..6));
            std::thread::sleep(Duration::from_millis(2));
            a.region_arc(NodeId(0)).load(5) == 13
        }));
        a.wait_connected(Duration::from_secs(10)).unwrap();
        b.wait_connected(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn earlier_epoch_peer_is_rejected() {
        // A laggard (epoch 0) must not get its writes applied by a node
        // already at epoch 1 — only the *later*-epoch direction of the
        // cross-check is relaxed.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let mut cfg0 = TcpFabricConfig::new(0, addrs.clone(), 16);
        cfg0.epoch = 1;
        let mut cfg1 = TcpFabricConfig::new(1, addrs, 16);
        cfg1.epoch = 0; // stale
        let a = TcpFabric::bootstrap_on_listener(cfg0, l0).unwrap();
        let b = TcpFabric::bootstrap_on_listener(cfg1, l1).unwrap();
        let err = a
            .wait_connected(Duration::from_millis(700))
            .expect_err("stale peer handshake must not complete");
        assert!(err.to_string().contains("in:n1"), "{err}");
        drop(b);
    }

    #[test]
    fn handshake_rule_table() {
        // This endpoint is n0 of a 3-row mesh at epoch 5 with 24 words.
        let mesh = Mesh {
            epoch: 5,
            region: Arc::new(Region::new(24)),
            addrs: vec![SocketAddr::from(([127, 0, 0, 1], 1)); 3],
            peers: Vec::new(),
            expected: BTreeSet::new(),
        };
        let hello = |src, nodes, region_words, epoch| Hello {
            version: PROTO_VERSION,
            src,
            nodes,
            region_words,
            epoch,
        };
        let beyond = MAX_ROWS as u32;
        for (case, h, admitted) in [
            ("same epoch, matching sizes", hello(1, 3, 24, 5), true),
            ("same epoch, wrong node count", hello(1, 4, 24, 5), false),
            ("same epoch, wrong region size", hello(1, 3, 32, 5), false),
            (
                "same epoch, src past the node count",
                hello(3, 3, 24, 5),
                false,
            ),
            (
                "later epoch, grown mesh (the joiner)",
                hello(3, 4, 32, 6),
                true,
            ),
            ("earlier epoch", hello(1, 3, 24, 4), false),
            ("src is me", hello(0, 3, 24, 5), false),
            ("src past MAX_ROWS", hello(beyond, beyond + 1, 24, 6), false),
        ] {
            assert_eq!(mesh.admits(0, &h), admitted, "{case}");
        }
        // What the mesh itself speaks passes its own rule.
        assert!(mesh.admits(0, &mesh.hello(2)));
    }

    #[test]
    fn hello_mismatch_is_rejected() {
        // A peer configured with a different region size must not get its
        // writes applied: the acceptor drops the connection at handshake.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let cfg0 = TcpFabricConfig::new(0, addrs.clone(), 16);
        let cfg1 = TcpFabricConfig::new(1, addrs, 32); // mismatch
        let a = TcpFabric::bootstrap_on_listener(cfg0, l0).unwrap();
        let b = TcpFabric::bootstrap_on_listener(cfg1, l1).unwrap();
        assert!(a.wait_connected(Duration::from_millis(700)).is_err());
        drop(b);
    }

    /// An endpoint whose single peer has no listener yet: every dial is
    /// refused, so posted frames accumulate in the outbound queue.
    fn undialable_single(region_words: usize, queue_cap: usize) -> (TcpFabric, SocketAddr) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = dead.local_addr().unwrap();
        drop(dead);
        let addrs = vec![l0.local_addr().unwrap().to_string(), peer_addr.to_string()];
        let mut cfg = TcpFabricConfig::new(0, addrs, region_words);
        cfg.outbound_queue_cap = queue_cap;
        let a = TcpFabric::bootstrap_on_listener(cfg, l0).unwrap();
        (a, peer_addr)
    }

    #[test]
    fn backlog_drains_as_one_vectored_write_after_redial() {
        let (a, peer_addr) = undialable_single(8, OUTBOUND_QUEUE_CAP);
        let ra = a.region_arc(NodeId(0));
        for i in 1..=32u64 {
            ra.store(0, i);
            a.post(NodeId(0), &WriteOp::new(NodeId(1), 0..1));
        }
        assert_eq!(
            a.wire_stats().flushes,
            0,
            "nothing can flush while the peer is undialable"
        );
        // The peer comes up on the promised port: the next backoff-gated
        // redial succeeds and the whole backlog (HELLO first) drains as
        // a single scatter write.
        let listener = TcpListener::bind(peer_addr).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = vec![0u8; 31 + 32 * 29]; // HELLO + 32 one-word WRITEs
        s.read_exact(&mut buf).unwrap();
        let mut asm = FrameAssembler::new();
        asm.feed(&buf);
        match asm.next_frame() {
            Ok(Some(Frame::Hello(h))) => assert_eq!(h.src, 0),
            other => panic!("expected HELLO first on the fresh stream: {other:?}"),
        }
        for i in 1..=32u64 {
            match asm.next_frame() {
                Ok(Some(Frame::Write(w))) => {
                    assert_eq!(w.offset, 0);
                    assert_eq!(w.words, vec![i], "frames reordered or torn");
                }
                other => panic!("expected WRITE {i}: {other:?}"),
            }
        }
        let stats = a.wire_stats();
        assert!(
            stats.flushes <= 3,
            "backlog flushed frame-at-a-time: {} vectored writes",
            stats.flushes
        );
        assert_eq!(stats.frames_dropped, 0);
    }

    #[test]
    fn queue_cap_sheds_posts_to_an_unreachable_peer() {
        let (a, _peer_addr) = undialable_single(8, 8);
        let ra = a.region_arc(NodeId(0));
        for i in 1..=40u64 {
            ra.store(0, i);
            a.post(NodeId(0), &WriteOp::new(NodeId(1), 0..1));
        }
        let stats = a.wire_stats();
        assert_eq!(stats.frames_posted, 40);
        assert_eq!(
            stats.frames_dropped, 32,
            "the cap admits 8 frames and sheds the rest"
        );
        // With the queue full, every frame of a batch is shed.
        a.post_all(NodeId(0), &batch(3));
        assert_eq!(a.wire_stats().frames_dropped, 35);

        // The cap counts frames, not queue entries: batches of 3 and 4
        // leave room for one frame of the next batch of 3.
        let (b, _peer_addr) = undialable_single(8, 8);
        for n in [3, 4, 3] {
            b.post_all(NodeId(0), &batch(n));
        }
        b.post(NodeId(0), &WriteOp::new(NodeId(1), 0..1));
        let stats = b.wire_stats();
        assert_eq!(stats.frames_posted, 11);
        assert_eq!(stats.frames_dropped, 3, "8 of 11 frames fit the cap");
    }

    /// `n` one-word writes to node 1.
    fn batch(n: usize) -> Vec<WriteOp> {
        vec![WriteOp::new(NodeId(1), 0..1); n]
    }

    #[test]
    fn a_stale_epoch_purge_drops_every_frame_of_an_entry() {
        let (a, _peer_addr) = undialable_single(8, 4);
        a.post_all(NodeId(0), &batch(3));
        a.post(NodeId(0), &WriteOp::new(NodeId(1), 1..2));
        assert_eq!(a.wire_stats().frames_dropped, 0);
        assert!(Fabric::begin_epoch(&a, &EpochTransition::shrink(1, vec![0, 1], 8)).is_some());
        assert_eq!(a.wire_stats().frames_dropped, 4, "two entries, four frames");
        // The purge freed the cap: four fresh frames fit again.
        a.post_all(NodeId(0), &batch(4));
        assert_eq!(a.wire_stats().frames_dropped, 4);
    }

    /// Node 0 of an `n`-row mesh whose other rows are plain listeners:
    /// the endpoint and one stream per peer, read past its `HELLO`, once
    /// the `HELLO`s' flushes are counted.
    fn raw_peers(n: usize, region_words: usize) -> (TcpFabric, Vec<TcpStream>) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let listeners: Vec<TcpListener> = (1..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs = std::iter::once(&l0)
            .chain(&listeners)
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let cfg = TcpFabricConfig::new(0, addrs, region_words);
        let a = TcpFabric::bootstrap_on_listener(cfg, l0).unwrap();
        let streams = listeners
            .iter()
            .map(|l| {
                let (mut s, _) = l.accept().unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut hello = [0u8; 31];
                s.read_exact(&mut hello).unwrap();
                s
            })
            .collect();
        assert!(eventually(|| a.wire_stats().flushes == (n - 1) as u64));
        (a, streams)
    }

    /// The next `count` frames on `s`, every one a `WRITE`.
    fn read_writes(s: &mut TcpStream, count: usize) -> Vec<WriteFrame> {
        let (mut asm, mut buf) = (FrameAssembler::new(), vec![0u8; 1 << 20]);
        let mut writes = Vec::new();
        while writes.len() < count {
            match asm.next_frame().unwrap() {
                Some(Frame::Write(w)) => writes.push(w),
                Some(other) => panic!("expected a WRITE: {other:?}"),
                None => {
                    let n = s.read(&mut buf).unwrap();
                    assert!(n > 0, "stream ended after {} frames", writes.len());
                    asm.feed(&buf[..n]);
                }
            }
        }
        writes
    }

    #[test]
    fn post_all_writes_once_per_destination_in_posting_order() {
        let (a, mut peers) = raw_peers(3, 16);
        let ra = a.region_arc(NodeId(0));
        for w in 0..16 {
            ra.store(w, 100 + w as u64);
        }
        let op = |dst, range| WriteOp::new(NodeId(dst), range);
        let before = a.wire_stats();
        // A->1, A->2, B->1, B->2, C->1: one pass's writes, interleaved.
        let ops = [
            op(1, 0..2),
            op(2, 0..2),
            op(1, 2..5),
            op(2, 5..7),
            op(1, 9..10),
        ];
        a.post_all(NodeId(0), &ops);
        let after = a.wire_stats();
        assert_eq!(after.frames_posted - before.frames_posted, 5);
        assert_eq!(
            after.flushes - before.flushes,
            2,
            "one vectored write per destination"
        );
        let ranges = |writes: Vec<WriteFrame>| -> Vec<std::ops::Range<u64>> {
            writes
                .into_iter()
                .map(|w| {
                    let range = w.offset..w.offset + w.words.len() as u64;
                    let want: Vec<u64> = range.clone().map(|x| 100 + x).collect();
                    assert_eq!(w.words, want, "words of {range:?}");
                    range
                })
                .collect()
        };
        assert_eq!(ranges(read_writes(&mut peers[0], 3)), [0..2, 2..5, 9..10]);
        assert_eq!(ranges(read_writes(&mut peers[1], 2)), [0..2, 5..7]);
    }

    #[test]
    fn a_wide_op_inside_a_batch_arrives_split_and_in_order() {
        let wide = MAX_FRAME_WORDS + 5;
        let (a, mut peers) = raw_peers(2, wide + 1);
        let ra = a.region_arc(NodeId(0));
        for w in [0, MAX_FRAME_WORDS - 1, MAX_FRAME_WORDS, wide] {
            ra.store(w, w as u64 + 1);
        }
        let before = a.wire_stats().frames_posted;
        let ops = [
            WriteOp::new(NodeId(1), wide..wide + 1),
            WriteOp::new(NodeId(1), 0..wide),
            WriteOp::new(NodeId(1), 0..1),
        ];
        a.post_all(NodeId(0), &ops);
        assert_eq!(
            a.wire_stats().frames_posted - before,
            4,
            "frames, not calls"
        );
        let writes = read_writes(&mut peers[0], 4);
        let shape: Vec<(u64, usize, u32)> = writes
            .iter()
            .map(|w| (w.offset, w.words.len(), w.wire_bytes))
            .collect();
        // Each piece is accounted as the write it is: its own words.
        let (max, max_bytes) = (MAX_FRAME_WORDS as u64, (MAX_FRAME_WORDS * 8) as u32);
        assert_eq!(
            shape,
            [
                (wide as u64, 1, 8),
                (0, MAX_FRAME_WORDS, max_bytes),
                (max, 5, 40),
                (0, 1, 8)
            ]
        );
        assert_eq!(writes[0].words, [wide as u64 + 1]);
        assert_eq!(writes[1].words[0], 1);
        assert_eq!(writes[1].words[MAX_FRAME_WORDS - 1], max);
        assert_eq!(writes[2].words, [max + 1, 0, 0, 0, 0]);
        assert_eq!(writes[3].words, [1]);
    }
}
