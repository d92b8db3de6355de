//! The scale-out edge relay tier: shared machinery for multiplexing
//! thousands of external clients onto **one** poller thread.
//!
//! The paper's §4.6 external-client mode needs a relay member to fan
//! delivered samples out to every subscribed TCP client. A
//! thread-per-connection relay caps out at a few hundred clients; this
//! module reuses the readiness-driven design of the fabric's single
//! poller ([`tcp`](crate::tcp)) for the edge:
//!
//! * **one poller owns everything** — the listener, the shutdown
//!   [`Waker`] and every client socket live in a single `poll(2)` set,
//!   so the thread count stays flat in the client count (the poller
//!   thread is named with the `spindle-net` prefix and shows up in
//!   [`wire_thread_count`](crate::wire_thread_count));
//! * **encode-once batched fan-out** — [`EdgeServer::fanout`] serializes
//!   a sample into one buffer and enqueues an [`Arc`] of it to every
//!   subscriber's [`FrameQueue`]; each client drains as one vectored
//!   write per readiness, coalescing however many samples accumulated;
//! * **QoS-aware backpressure** — per-client queue caps with a
//!   per-topic [`OverflowPolicy`] (shed the oldest queued frames for
//!   lossy topics, disconnect the laggard for ordered topics whose
//!   contract is "a prefix of the total order"), plus relay-level
//!   admission shedding once aggregate queued bytes cross the
//!   high-water mark.
//!
//! ## Relay wire protocol (little-endian, length-prefixed)
//!
//! Frames share the fabric codec's shape — `len:u32 kind:u8 body`, with
//! `len` counting the kind byte plus the body — but use a disjoint kind
//! range (`0x11..`), so a stream accidentally cross-wired between the
//! fabric and the relay fails fast with a typed error instead of being
//! misparsed:
//!
//! * `EDGE_PUBLISH` (`0x11`, client → relay): `topic:u8 data…`
//! * `EDGE_SUBSCRIBE` (`0x12`, client → relay): `topic:u8`
//! * `EDGE_SAMPLE` (`0x13`, relay → client): `topic:u8 publisher:u32
//!   index:u64 epoch:u64 data…`
//! * `EDGE_PUB_ACK` (`0x14`, relay → client): `topic:u8 status:u8`
//!
//! Decoding never panics: truncated, oversized and garbage inputs are
//! rejected with the same typed [`WireError`] the fabric codec uses, and
//! [`EdgeAssembler`] — the fabric's [`FrameAssembler`] over this codec —
//! reassembles frames across arbitrary read-chunk boundaries.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use netpoll::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use spindle_obs::{names, Counter, Gauge, LogHistogram, ObsPlane};

use crate::sock::{accept_ready, drain_queue, read_available, DrainEnd, ReadEnd};
use crate::wire::{
    encode_with_body, rd_u32, rd_u64, split_envelope, FrameAssembler, FrameQueue, StreamFrame,
    WireError,
};

/// Frame kind byte of [`EdgeFrame::Publish`].
pub const KIND_EDGE_PUBLISH: u8 = 0x11;
/// Frame kind byte of [`EdgeFrame::Subscribe`].
pub const KIND_EDGE_SUBSCRIBE: u8 = 0x12;
/// Frame kind byte of [`EdgeFrame::Sample`].
pub const KIND_EDGE_SAMPLE: u8 = 0x13;
/// Frame kind byte of [`EdgeFrame::PubAck`].
pub const KIND_EDGE_PUB_ACK: u8 = 0x14;

/// Upper bound on `len` for any edge frame (16 MiB — far above any DDS
/// sample; anything bigger is garbage or an unframed stream).
pub const MAX_EDGE_FRAME_LEN: usize = 16 * 1024 * 1024;

/// One decoded relay frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeFrame {
    /// Client → relay: publish `data` on `topic` (the relay re-publishes
    /// it into the topic's subgroup and answers with a [`EdgeFrame::PubAck`]).
    Publish {
        /// Topic to publish on.
        topic: u8,
        /// Sample payload.
        data: Vec<u8>,
    },
    /// Client → relay: forward every sample the relay delivers on
    /// `topic` from now on.
    Subscribe {
        /// Topic to subscribe to.
        topic: u8,
    },
    /// Relay → client: one delivered sample.
    Sample {
        /// Topic the sample was published on.
        topic: u8,
        /// Publisher rank within the topic.
        publisher: u32,
        /// Per-publisher sequence number.
        index: u64,
        /// Epoch (view id) the sample was delivered in.
        epoch: u64,
        /// Sample payload.
        data: Vec<u8>,
    },
    /// Relay → client: publish acknowledgment (`status` 0 = accepted,
    /// 1 = relay is not a publisher on the topic, 2 = send failed).
    PubAck {
        /// Topic the acknowledged publish targeted.
        topic: u8,
        /// Outcome byte.
        status: u8,
    },
}

/// Appends the encoding of one `EDGE_PUBLISH`; returns the encoded size.
/// Borrows `data` so the hot path never clones the payload.
pub fn encode_publish(topic: u8, data: &[u8], out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_EDGE_PUBLISH, out, |b| {
        b.push(topic);
        b.extend_from_slice(data);
    })
}

/// Appends the encoding of one `EDGE_SUBSCRIBE`; returns the encoded size.
pub fn encode_subscribe(topic: u8, out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_EDGE_SUBSCRIBE, out, |b| b.push(topic))
}

/// Appends the encoding of one `EDGE_SAMPLE`; returns the encoded size.
/// Borrows `data` — this is the encode-once half of the fan-out path.
pub fn encode_sample(
    topic: u8,
    publisher: u32,
    index: u64,
    epoch: u64,
    data: &[u8],
    out: &mut Vec<u8>,
) -> usize {
    encode_with_body(KIND_EDGE_SAMPLE, out, |b| {
        b.push(topic);
        b.extend_from_slice(&publisher.to_le_bytes());
        b.extend_from_slice(&index.to_le_bytes());
        b.extend_from_slice(&epoch.to_le_bytes());
        b.extend_from_slice(data);
    })
}

/// Appends the encoding of one `EDGE_PUB_ACK`; returns the encoded size.
pub fn encode_pub_ack(topic: u8, status: u8, out: &mut Vec<u8>) -> usize {
    encode_with_body(KIND_EDGE_PUB_ACK, out, |b| {
        b.push(topic);
        b.push(status);
    })
}

/// Appends the encoding of `frame` to `out`; returns the encoded size.
pub fn encode_edge_frame(frame: &EdgeFrame, out: &mut Vec<u8>) -> usize {
    match frame {
        EdgeFrame::Publish { topic, data } => encode_publish(*topic, data, out),
        EdgeFrame::Subscribe { topic } => encode_subscribe(*topic, out),
        EdgeFrame::Sample {
            topic,
            publisher,
            index,
            epoch,
            data,
        } => encode_sample(*topic, *publisher, *index, *epoch, data, out),
        EdgeFrame::PubAck { topic, status } => encode_pub_ack(*topic, *status, out),
    }
}

/// Decodes the first edge frame in `buf`; returns the frame and the
/// bytes consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] when `buf` holds a prefix of a valid frame
/// (read more and retry); any other [`WireError`] means the stream is
/// corrupt and the connection must be dropped.
pub fn decode_edge_frame(buf: &[u8]) -> Result<(EdgeFrame, usize), WireError> {
    let (kind, body, total) = split_envelope(buf, MAX_EDGE_FRAME_LEN)?;
    let len = total - 4;
    let frame = match kind {
        KIND_EDGE_PUBLISH => {
            if body.is_empty() {
                return Err(WireError::LengthMismatch { kind, len });
            }
            EdgeFrame::Publish {
                topic: body[0],
                data: body[1..].to_vec(),
            }
        }
        KIND_EDGE_SUBSCRIBE => {
            if body.len() != 1 {
                return Err(WireError::LengthMismatch { kind, len });
            }
            EdgeFrame::Subscribe { topic: body[0] }
        }
        KIND_EDGE_SAMPLE => {
            if body.len() < 21 {
                return Err(WireError::LengthMismatch { kind, len });
            }
            EdgeFrame::Sample {
                topic: body[0],
                publisher: rd_u32(body, 1),
                index: rd_u64(body, 5),
                epoch: rd_u64(body, 13),
                data: body[21..].to_vec(),
            }
        }
        KIND_EDGE_PUB_ACK => {
            if body.len() != 2 {
                return Err(WireError::LengthMismatch { kind, len });
            }
            EdgeFrame::PubAck {
                topic: body[0],
                status: body[1],
            }
        }
        other => return Err(WireError::BadKind(other)),
    };
    Ok((frame, total))
}

impl StreamFrame for EdgeFrame {
    fn decode(buf: &[u8]) -> Result<(EdgeFrame, usize), WireError> {
        decode_edge_frame(buf)
    }
}

/// Edge-frame reassembly across arbitrary read-chunk boundaries: the
/// crate's one [`FrameAssembler`] speaking the relay codec.
pub type EdgeAssembler = FrameAssembler<EdgeFrame>;

/// What to do when a client's outbound queue overflows its cap — chosen
/// per topic from the topic's QoS level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Drop the oldest fully-unwritten queued frames until the queue is
    /// back under its cap (lossy topics: freshest data wins).
    ShedOldest,
    /// Disconnect the client. Ordered topics promise every subscriber a
    /// prefix of the total order; silently dropping frames mid-stream
    /// would break that, so the laggard is cut instead.
    #[default]
    Disconnect,
}

/// A client's bounded outbound queue: each frame is a **shared**
/// encoding (one buffer enqueued to a thousand clients — owning buffers
/// would mean a thousand copies) stamped with its enqueue time (the
/// delivery-latency histogram measures enqueue → flushed).
type ClientQueue = FrameQueue<Arc<[u8]>, Instant>;

/// Maximum concurrent clients of one relay; further connections are closed
/// on accept (counted as admission sheds).
const MAX_CLIENTS: usize = 16_384;

/// Configuration of an [`EdgeServer`].
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Short label for thread names and the `relay` metric label.
    pub name: String,
    /// Per-client outbound queue cap in bytes; crossing it triggers the
    /// topic's [`OverflowPolicy`].
    pub client_queue_bytes: usize,
    /// Relay-level high-water mark: once aggregate queued bytes cross
    /// this, new fan-out work is admission-shed until clients drain.
    pub total_queue_bytes: usize,
    /// Per-topic overflow policy (default [`OverflowPolicy::Disconnect`]).
    policies: [OverflowPolicy; 256],
}

impl EdgeConfig {
    /// A config with production defaults: 1 MiB per-client cap and 64 MiB
    /// aggregate high-water mark.
    pub fn new(name: impl Into<String>) -> EdgeConfig {
        EdgeConfig {
            name: name.into(),
            client_queue_bytes: 1024 * 1024,
            total_queue_bytes: 64 * 1024 * 1024,
            policies: [OverflowPolicy::Disconnect; 256],
        }
    }

    /// Sets the overflow policy for `topic` (builder-style).
    pub fn topic_policy(mut self, topic: u8, policy: OverflowPolicy) -> EdgeConfig {
        self.policies[topic as usize] = policy;
        self
    }

    /// Sets the per-client queue cap (builder-style).
    pub fn client_queue(mut self, bytes: usize) -> EdgeConfig {
        self.client_queue_bytes = bytes;
        self
    }

    /// Sets the aggregate high-water mark (builder-style).
    pub fn total_queue(mut self, bytes: usize) -> EdgeConfig {
        self.total_queue_bytes = bytes;
        self
    }

    /// The overflow policy of `topic`.
    pub fn policy_of(&self, topic: u8) -> OverflowPolicy {
        self.policies[topic as usize]
    }
}

/// A publish request surfaced by the poller: the host (whoever owns the
/// cluster membership — the DDS relay driver or `spindle-node`) performs
/// the actual multicast and answers with [`EdgeServer::pub_ack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRequest {
    /// The requesting client (pass back to [`EdgeServer::pub_ack`]).
    pub client: u64,
    /// Topic to publish on.
    pub topic: u8,
    /// Sample payload.
    pub data: Vec<u8>,
}

/// Shared per-client state: the poller owns the socket; host threads
/// reach the queue and subscription set through the server's table.
struct ClientState {
    queue: ClientQueue,
    /// 256-bit topic subscription bitmap.
    subs: [u64; 4],
    /// Set (with a reason) to have the poller close and reap the client.
    dead: Option<&'static str>,
}

impl ClientState {
    fn subscribed(&self, topic: u8) -> bool {
        self.subs[(topic >> 6) as usize] & (1u64 << (topic & 63)) != 0
    }

    fn subscribe(&mut self, topic: u8) {
        self.subs[(topic >> 6) as usize] |= 1u64 << (topic & 63);
    }
}

/// The client table plus the aggregate pending-byte count it guards.
#[derive(Default)]
struct ClientTable {
    map: HashMap<u64, ClientState>,
    total_pending: usize,
}

struct EdgeMetrics {
    clients: Gauge,
    fanout_bytes: Counter,
    fanout_frames: Counter,
    shed_slow: Counter,
    shed_disconnect: Counter,
    shed_admission: Counter,
    latency: LogHistogram,
}

impl EdgeMetrics {
    fn new(obs: &ObsPlane, relay: &str) -> EdgeMetrics {
        let r = obs.registry();
        let l = &[("relay", relay)];
        EdgeMetrics {
            clients: r.gauge(names::RELAY_CLIENTS, "Connected external clients.", l),
            fanout_bytes: r.counter(
                names::RELAY_FANOUT_BYTES,
                "Bytes enqueued for fan-out to external clients.",
                l,
            ),
            fanout_frames: r.counter(
                names::RELAY_FANOUT_FRAMES,
                "Sample frames enqueued for fan-out to external clients.",
                l,
            ),
            shed_slow: r.counter(
                names::RELAY_SHED,
                "Frames or clients shed by relay backpressure.",
                &[("relay", relay), ("reason", "slow-consumer")],
            ),
            shed_disconnect: r.counter(
                names::RELAY_SHED,
                "Frames or clients shed by relay backpressure.",
                &[("relay", relay), ("reason", "disconnect")],
            ),
            shed_admission: r.counter(
                names::RELAY_SHED,
                "Frames or clients shed by relay backpressure.",
                &[("relay", relay), ("reason", "admission")],
            ),
            latency: r.histogram(
                names::RELAY_DELIVERY_LATENCY,
                "Relay fan-out latency, enqueue to flushed to the socket.",
                1e-9,
                l,
            ),
        }
    }
}

struct EdgeShared {
    cfg: EdgeConfig,
    stop: AtomicBool,
    waker: Waker,
    clients: Mutex<ClientTable>,
    metrics: EdgeMetrics,
}

/// A running edge relay endpoint: one poller thread multiplexing every
/// client socket, driven by the host through [`EdgeServer::requests`],
/// [`EdgeServer::pub_ack`] and [`EdgeServer::fanout`].
///
/// Dropping the server is a clean shutdown: the waker interrupts the
/// poller, every client socket closes, and the thread is joined.
pub struct EdgeServer {
    shared: Arc<EdgeShared>,
    addr: SocketAddr,
    requests: Receiver<EdgeRequest>,
    poller: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for EdgeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeServer")
            .field("addr", &self.addr)
            .field("clients", &self.client_count())
            .finish()
    }
}

impl EdgeServer {
    /// Binds `addr` and starts the poller thread (named
    /// `spindle-net-edge-{name}` so it counts toward
    /// [`wire_thread_count`](crate::wire_thread_count)).
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn bind(addr: SocketAddr, cfg: EdgeConfig, obs: &ObsPlane) -> io::Result<EdgeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = EdgeMetrics::new(obs, &cfg.name);
        let (req_tx, req_rx) = unbounded();
        let shared = Arc::new(EdgeShared {
            stop: AtomicBool::new(false),
            waker: Waker::new()?,
            clients: Mutex::new(ClientTable::default()),
            metrics,
            cfg,
        });
        let poller = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("spindle-net-edge-{}", shared.cfg.name))
                .spawn(move || poller_loop(&shared, listener, &req_tx))?
        };
        Ok(EdgeServer {
            shared,
            addr,
            requests: req_rx,
            poller: Some(poller),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publish requests from clients; the host multicasts each and
    /// answers with [`EdgeServer::pub_ack`]. The channel disconnects
    /// when the server shuts down.
    pub fn requests(&self) -> &Receiver<EdgeRequest> {
        &self.requests
    }

    /// Currently connected clients.
    pub fn client_count(&self) -> usize {
        self.shared.clients.lock().expect("table lock").map.len()
    }

    /// Connected clients subscribed to `topic`: the clients a
    /// [`EdgeServer::fanout`] on `topic` would enqueue to now. Counted under
    /// the client-table lock the poller applies each `Subscribe` under, so
    /// a subscription counts from the moment fan-outs see it.
    pub fn subscribers(&self, topic: u8) -> usize {
        let t = self.shared.clients.lock().expect("table lock");
        let live = t.map.values().filter(|c| c.dead.is_none());
        live.filter(|c| c.subscribed(topic)).count()
    }

    /// Aggregate unflushed outbound bytes across all clients — the value
    /// the admission high-water mark compares against.
    pub fn queued_bytes(&self) -> usize {
        self.shared
            .clients
            .lock()
            .expect("table lock")
            .total_pending
    }

    /// Acknowledges a client's publish (`status` 0 = accepted, 1 = not a
    /// publisher, 2 = send failed). A no-op if the client is gone.
    pub fn pub_ack(&self, client: u64, topic: u8, status: u8) {
        let mut buf = Vec::with_capacity(16);
        encode_pub_ack(topic, status, &mut buf);
        let frame: Arc<[u8]> = buf.into();
        let now = Instant::now();
        {
            let mut t = self.shared.clients.lock().expect("table lock");
            let t = &mut *t;
            if let Some(c) = t.map.get_mut(&client) {
                if c.dead.is_none() {
                    t.total_pending += frame.len();
                    c.queue.push(now, frame);
                }
            }
        }
        self.shared.waker.wake();
    }

    /// Fans one delivered sample out to every subscriber of `topic`:
    /// encodes it **once**, enqueues the shared buffer per client
    /// (applying each client's cap and the topic's [`OverflowPolicy`]),
    /// and wakes the poller, which drains each client with one vectored
    /// write per readiness. Returns how many clients the sample was
    /// enqueued to — 0 when nobody subscribes, or when the relay-level
    /// high-water mark admission-shed the sample.
    pub fn fanout(&self, topic: u8, publisher: u32, index: u64, epoch: u64, data: &[u8]) -> usize {
        let shared = &self.shared;
        let mut enqueued = 0;
        let mut any_dead = false;
        {
            let mut t = shared.clients.lock().expect("table lock");
            let t = &mut *t;
            // Relay-level admission: past the high-water mark the relay
            // sheds whole samples rather than queueing without bound.
            if t.total_pending >= shared.cfg.total_queue_bytes {
                shared.metrics.shed_admission.inc();
                return 0;
            }
            let mut buf = Vec::with_capacity(26 + data.len());
            encode_sample(topic, publisher, index, epoch, data, &mut buf);
            let frame: Arc<[u8]> = buf.into();
            let now = Instant::now();
            for c in t.map.values_mut() {
                if c.dead.is_some() || !c.subscribed(topic) {
                    continue;
                }
                t.total_pending += frame.len();
                c.queue.push(now, Arc::clone(&frame));
                enqueued += 1;
                if c.queue.pending_bytes() > shared.cfg.client_queue_bytes {
                    match shared.cfg.policy_of(topic) {
                        OverflowPolicy::ShedOldest => {
                            let cap = shared.cfg.client_queue_bytes;
                            let (nf, nb) = c.queue.drop_unwritten(|_, pending| pending > cap);
                            t.total_pending -= nb;
                            shared.metrics.shed_slow.add(nf as u64);
                        }
                        OverflowPolicy::Disconnect => {
                            // Queued bytes are released when the poller
                            // reaps the client.
                            c.dead = Some("overflow");
                            any_dead = true;
                            shared.metrics.shed_disconnect.inc();
                        }
                    }
                }
            }
            if enqueued > 0 {
                shared
                    .metrics
                    .fanout_bytes
                    .add((frame.len() * enqueued) as u64);
                shared.metrics.fanout_frames.add(enqueued as u64);
            }
        }
        if enqueued > 0 || any_dead {
            shared.waker.wake();
        }
        enqueued
    }

    /// Stops the poller, closes every client socket and joins the
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(th) = self.poller.take() {
            let _ = th.join();
        }
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The poller's socket-owning half of one client.
struct LocalConn {
    id: u64,
    stream: TcpStream,
    asm: EdgeAssembler,
}

fn poller_loop(shared: &EdgeShared, listener: TcpListener, req_tx: &Sender<EdgeRequest>) {
    let mut conns: Vec<LocalConn> = Vec::new();
    let mut next_id: u64 = 0;
    let mut rbuf = vec![0u8; 64 * 1024];
    while !shared.stop.load(Ordering::SeqCst) {
        // Reap clients marked dead (overflow disconnects, protocol
        // errors, EOFs): close the socket, free the queue, fix the
        // aggregate byte count.
        {
            let mut t = shared.clients.lock().expect("table lock");
            let t = &mut *t;
            conns.retain(|c| match t.map.get(&c.id) {
                Some(st) if st.dead.is_none() => true,
                _ => {
                    if let Some(st) = t.map.remove(&c.id) {
                        t.total_pending -= st.queue.pending_bytes();
                    }
                    false
                }
            });
            shared.metrics.clients.set(t.map.len() as u64);
        }

        // Poll set: waker, listener, then one row per client with
        // POLLOUT interest only where bytes are pending.
        let mut fds = Vec::with_capacity(2 + conns.len());
        fds.push(PollFd::new(shared.waker.fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        {
            let t = shared.clients.lock().expect("table lock");
            for c in &conns {
                let pending = t.map.get(&c.id).is_some_and(|st| !st.queue.is_empty());
                let ev = if pending { POLLIN | POLLOUT } else { POLLIN };
                fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
            }
        }
        if poll_fds(&mut fds, Some(Duration::from_millis(50))).is_err() {
            continue;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if fds[0].readable() {
            shared.waker.drain();
        }
        // Accept *after* snapshotting how many rows were polled: fresh
        // connections have no fds row yet and get serviced next round.
        let polled = fds.len() - 2;
        if fds[1].readable() {
            accept_clients(shared, &listener, &mut conns, &mut next_id);
        }
        for (i, c) in conns.iter_mut().take(polled).enumerate() {
            let row = &fds[2 + i];
            if row.readable() {
                service_inbound(shared, c, &mut rbuf, req_tx);
            }
            if row.writable() {
                drain_outbound(shared, c);
            }
        }
    }
    // Shutdown: dropping the local connections closes every client
    // socket (clients observe EOF), and dropping the listener frees the
    // port for a relay restart.
    drop(conns);
    drop(listener);
    let mut t = shared.clients.lock().expect("table lock");
    t.map.clear();
    t.total_pending = 0;
    shared.metrics.clients.set(0);
}

fn accept_clients(
    shared: &EdgeShared,
    listener: &TcpListener,
    conns: &mut Vec<LocalConn>,
    next_id: &mut u64,
) {
    accept_ready(listener, |stream| {
        let mut t = shared.clients.lock().expect("table lock");
        if t.map.len() >= MAX_CLIENTS {
            // Admission shed: over the client cap, the relay refuses
            // rather than degrading everyone.
            shared.metrics.shed_admission.inc();
            return;
        }
        if stream.set_nodelay(true).is_err() {
            return;
        }
        let id = *next_id;
        *next_id += 1;
        t.map.insert(
            id,
            ClientState {
                queue: ClientQueue::new(),
                subs: [0; 4],
                dead: None,
            },
        );
        shared.metrics.clients.set(t.map.len() as u64);
        drop(t);
        conns.push(LocalConn {
            id,
            stream,
            asm: EdgeAssembler::new(),
        });
    });
}

fn service_inbound(
    shared: &EdgeShared,
    c: &mut LocalConn,
    rbuf: &mut [u8],
    req_tx: &Sender<EdgeRequest>,
) {
    let LocalConn { id, stream, asm } = c;
    let mut protocol_error = false;
    let end = read_available(&*stream, rbuf, |chunk| {
        asm.feed(chunk);
        loop {
            match asm.next_frame() {
                Ok(Some(EdgeFrame::Publish { topic, data })) => {
                    let _ = req_tx.send(EdgeRequest {
                        client: *id,
                        topic,
                        data,
                    });
                }
                Ok(Some(EdgeFrame::Subscribe { topic })) => {
                    let mut t = shared.clients.lock().expect("table lock");
                    if let Some(st) = t.map.get_mut(id) {
                        st.subscribe(topic);
                    }
                }
                Ok(None) => return true,
                // Garbage, or Sample / PubAck (relay → client only).
                Ok(Some(_)) | Err(_) => {
                    protocol_error = true;
                    return false;
                }
            }
        }
    });
    let reason = match end {
        _ if protocol_error => "protocol",
        ReadEnd::Drained => return,
        ReadEnd::Eof => "eof",
        ReadEnd::Failed(_) => "io",
    };
    // Mark it dead: the reap at the top of the loop closes it.
    let mut t = shared.clients.lock().expect("table lock");
    if let Some(st) = t.map.get_mut(id) {
        st.dead = Some(reason);
    }
}

fn drain_outbound(shared: &EdgeShared, c: &mut LocalConn) {
    let mut t = shared.clients.lock().expect("table lock");
    let t = &mut *t;
    let Some(st) = t.map.get_mut(&c.id) else {
        return;
    };
    if st.dead.is_some() {
        return;
    }
    let latency = &shared.metrics.latency;
    let d = drain_queue(&c.stream, &mut st.queue, |enqueued, _| {
        latency.record(enqueued.elapsed().as_nanos() as u64);
    });
    t.total_pending -= d.bytes;
    if d.end == DrainEnd::Dead {
        st.dead = Some("io");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn edge_frames_roundtrip() {
        let frames = [
            EdgeFrame::Publish {
                topic: 3,
                data: b"hello".to_vec(),
            },
            EdgeFrame::Publish {
                topic: 0,
                data: Vec::new(),
            },
            EdgeFrame::Subscribe { topic: 255 },
            EdgeFrame::Sample {
                topic: 7,
                publisher: 12,
                index: u64::MAX,
                epoch: 3,
                data: vec![0xAB; 100],
            },
            EdgeFrame::PubAck {
                topic: 9,
                status: 2,
            },
        ];
        for f in &frames {
            let mut buf = Vec::new();
            let n = encode_edge_frame(f, &mut buf);
            assert_eq!(n, buf.len());
            let (back, used) = decode_edge_frame(&buf).expect("decode");
            assert_eq!(used, n);
            assert_eq!(&back, f);
        }
    }

    #[test]
    fn edge_decode_rejects_garbage() {
        assert!(matches!(
            decode_edge_frame(&[]),
            Err(WireError::Truncated { have: 0, need: 4 })
        ));
        // Absurd length prefix.
        let mut b = u32::MAX.to_le_bytes().to_vec();
        b.push(KIND_EDGE_SUBSCRIBE);
        assert!(matches!(
            decode_edge_frame(&b),
            Err(WireError::Oversized { .. })
        ));
        // Fabric kinds are not edge kinds.
        let mut b = 2u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[0x01, 0x00]);
        assert_eq!(decode_edge_frame(&b), Err(WireError::BadKind(0x01)));
        // A subscribe with a fat body is a length mismatch.
        let mut b = 3u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[KIND_EDGE_SUBSCRIBE, 1, 2]);
        assert!(matches!(
            decode_edge_frame(&b),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn server_round_trips_publish_and_fanout() {
        let obs = ObsPlane::new();
        let mut server =
            EdgeServer::bind("127.0.0.1:0".parse().unwrap(), EdgeConfig::new("t0"), &obs)
                .expect("bind");
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        encode_subscribe(4, &mut buf);
        encode_publish(4, b"ping", &mut buf);
        c.write_all(&buf).unwrap();
        // Host side: the publish surfaces as a request…
        let req = server
            .requests()
            .recv_timeout(Duration::from_secs(10))
            .expect("publish request");
        assert_eq!((req.topic, req.data.as_slice()), (4, b"ping".as_slice()));
        // …acked, then fanned back out to the (self-)subscriber.
        server.pub_ack(req.client, 4, 0);
        assert_eq!(server.fanout(4, 2, 9, 1, b"pong"), 1);
        let mut asm = EdgeAssembler::new();
        let mut got = Vec::new();
        let mut rb = [0u8; 4096];
        while got.len() < 2 {
            let n = c.read(&mut rb).unwrap();
            assert!(n > 0, "server closed unexpectedly");
            asm.feed(&rb[..n]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(
            got[0],
            EdgeFrame::PubAck {
                topic: 4,
                status: 0
            }
        );
        assert_eq!(
            got[1],
            EdgeFrame::Sample {
                topic: 4,
                publisher: 2,
                index: 9,
                epoch: 1,
                data: b"pong".to_vec(),
            }
        );
        let relay = &[("relay", "t0")];
        assert_eq!(
            obs.registry()
                .counter_value(names::RELAY_FANOUT_FRAMES, relay),
            Some(1)
        );
        server.shutdown();
        // After shutdown the socket reads EOF and the request channel
        // disconnects.
        assert_eq!(c.read(&mut rb).unwrap_or(0), 0);
        assert!(server.requests().recv().is_err());
    }

    #[test]
    fn fanout_skips_non_subscribers_and_admission_sheds_at_high_water() {
        let obs = ObsPlane::new();
        let server = EdgeServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            EdgeConfig::new("t1")
                .total_queue(64)
                .topic_policy(1, OverflowPolicy::ShedOldest),
            &obs,
        )
        .expect("bind");
        let mut sub = TcpStream::connect(server.local_addr()).unwrap();
        let _idle = TcpStream::connect(server.local_addr()).unwrap();
        let mut buf = Vec::new();
        encode_subscribe(1, &mut buf);
        sub.write_all(&buf).unwrap();
        // Wait for both clients to register and the subscribe to land.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.fanout(1, 0, 0, 0, b"probe") != 1 {
            assert!(Instant::now() < deadline, "subscribe never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Flood without the subscriber reading: aggregate bytes cross
        // the 64-byte high-water mark and fan-out admission-sheds.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            server.fanout(1, 0, 1, 0, &[0u8; 64]);
            let shed = obs
                .registry()
                .counter_value(
                    names::RELAY_SHED,
                    &[("relay", "t1"), ("reason", "admission")],
                )
                .unwrap_or(0);
            if shed > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "admission shed never fired");
        }
        drop(sub);
    }
}
