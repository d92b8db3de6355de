//! External clients (§4.6): processes outside the Derecho group that reach
//! the DDS through a *relay* member over TCP.
//!
//! The paper notes that "the actual Spindle DDS also supports 'external
//! clients' that connect to the DDS via TCP or RDMA, requiring an extra
//! relaying step". This module implements that mode as a scale-out edge
//! tier: a domain member serves a TCP endpoint
//! ([`DdsDomain::serve_external`] / [`DdsDomain::serve_external_on`]); an
//! [`ExternalClient`] connects to it, publishes samples (which the relay
//! re-publishes into the topic's subgroup, so they inherit the full
//! failure-atomic total order), and subscribes to topics (the relay
//! forwards every sample it delivers).
//!
//! The endpoint is an [`EdgeServer`]: **one** poller thread owns the
//! listener and every client socket (thread count flat in client count),
//! a delivered sample is encoded once and vector-written to every
//! subscriber, and backpressure follows each topic's QoS —
//! [`QosLevel::overflow_policy`](crate::qos::QosLevel::overflow_policy)
//! picks shed-oldest for unordered topics and disconnect for ordered
//! ones, with relay-level admission shedding past the aggregate
//! high-water mark. One additional *driver* thread per relay bridges the
//! edge tier to the cluster: it re-publishes client samples, pumps the
//! relay member's deliveries, and fans tapped samples back out. Two
//! threads total, whether ten clients are connected or ten thousand.
//!
//! The wire protocol is the length-prefixed edge framing of
//! [`spindle_net::edge`] (`EDGE_PUBLISH` / `EDGE_SUBSCRIBE` client →
//! relay, `EDGE_SAMPLE` / `EDGE_PUB_ACK` relay → client).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use spindle_net::edge::{
    encode_publish, encode_subscribe, EdgeAssembler, EdgeConfig, EdgeFrame, EdgeRequest, EdgeServer,
};

use crate::domain::{DdsDomain, DomainCore, Sample};
use crate::qos::TopicId;

/// Publish acknowledgment status sent by the relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishStatus {
    /// The relay accepted and multicast the sample.
    Accepted,
    /// The relay is not a publisher on the topic.
    NotAPublisher,
    /// The underlying multicast send failed.
    SendFailed,
}

impl PublishStatus {
    fn from_byte(b: u8) -> PublishStatus {
        match b {
            0 => PublishStatus::Accepted,
            1 => PublishStatus::NotAPublisher,
            _ => PublishStatus::SendFailed,
        }
    }
}

/// One running relay endpoint: the driver thread plus its edge server.
/// Held by the domain; [`RelayHandle::stop`] is the clean shutdown path
/// (used by [`DdsDomain::stop_external`] and on domain drop).
pub(crate) struct RelayHandle {
    stop: Arc<AtomicBool>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl RelayHandle {
    /// Signals the driver and joins it. The driver owns the
    /// [`EdgeServer`], so joining it also stops the poller and closes
    /// the listener and every client socket.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(th) = self.driver.take() {
            let _ = th.join();
        }
    }
}

impl Drop for RelayHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl DdsDomain {
    /// Starts serving external clients through participant `relay` on an
    /// ephemeral localhost TCP port; returns the address clients connect
    /// to. See [`DdsDomain::serve_external_on`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from binding the listener.
    ///
    /// # Panics
    ///
    /// Panics if `relay` is out of range.
    pub fn serve_external(&self, relay: usize) -> io::Result<SocketAddr> {
        self.serve_external_on(relay, "127.0.0.1:0".parse().expect("literal addr"))
    }

    /// Starts serving external clients through participant `relay` on
    /// `addr` (any bindable address — a fixed port on a routable
    /// interface for multi-process edge deployments, or port 0 for an
    /// ephemeral one); returns the bound address. The relay republishes
    /// client samples into the topic's subgroup (the paper's "extra
    /// relaying step"), so external publishes carry the same ordering
    /// and atomicity guarantees as member publishes. The service stops
    /// when the domain is dropped, or earlier via
    /// [`DdsDomain::stop_external`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from binding the listener.
    ///
    /// # Panics
    ///
    /// Panics if `relay` is out of range.
    pub fn serve_external_on(&self, relay: usize, addr: SocketAddr) -> io::Result<SocketAddr> {
        assert!(relay < self.participants(), "relay out of range");
        let core = Arc::clone(&self.core);
        let mut cfg = EdgeConfig::new(format!("dds{relay}"));
        for (topic, qos) in core.topic_qos() {
            cfg = cfg.topic_policy(topic.0, qos.overflow_policy());
        }
        let server = EdgeServer::bind(addr, cfg, core.cluster.obs())?;
        let bound = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let driver = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("spindle-dds-relay-{relay}"))
                .spawn(move || relay_driver(&core, relay, server, &stop))
                .expect("spawn relay driver")
        };
        self.register_relay(RelayHandle {
            stop,
            driver: Some(driver),
        });
        Ok(bound)
    }
}

/// The bridge between the edge tier and the cluster, one thread per
/// relay regardless of client count: re-publishes client samples into
/// the topic's subgroup (answering each with an ack), keeps the relay
/// member pumped, and fans every tapped delivery out through the edge
/// server's encode-once path.
fn relay_driver(core: &Arc<DomainCore>, relay: usize, server: EdgeServer, stop: &AtomicBool) {
    // One tap per member topic, all feeding one channel. The taps live
    // in the participant's reader state for the life of the domain;
    // after this driver exits the sends fail and the taps are pruned.
    let (tap_tx, tap_rx) = unbounded::<Sample>();
    for topic in core.member_topics(relay) {
        core.add_tap(relay, topic, tap_tx.clone());
    }
    drop(tap_tx);
    let handle = |req: EdgeRequest| {
        let status = match core.publish_from(relay, TopicId(req.topic), &req.data) {
            Ok(()) => 0,
            Err(crate::domain::DdsError::NotAPublisher(_)) => 1,
            Err(_) => 2,
        };
        server.pub_ack(req.client, req.topic, status);
    };
    while !core.stop.load(Ordering::Relaxed) && !stop.load(Ordering::SeqCst) {
        // Block briefly on publish requests — this doubles as the pump
        // cadence, matching the old relay's 500 µs idle pump.
        match server.requests().recv_timeout(Duration::from_micros(500)) {
            Ok(req) => {
                handle(req);
                while let Ok(req) = server.requests().try_recv() {
                    handle(req);
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
        let _ = core.pump(relay);
        while let Ok(s) = tap_rx.try_recv() {
            server.fanout(s.topic.0, s.publisher as u32, s.index, s.epoch, &s.data);
        }
    }
    // `server` drops here: the poller is joined and every client socket
    // closes (clients observe EOF), completing the clean shutdown.
}

/// A process outside the Derecho group, connected to a relay member over
/// TCP (§4.6).
///
/// # Examples
///
/// ```
/// use spindle_dds::{DomainBuilder, ExternalClient, QosLevel, TopicId};
/// use std::time::Duration;
///
/// let domain = DomainBuilder::new(2)
///     .topic(TopicId(1), &[0], &[1], QosLevel::AtomicMulticast)
///     .start()?;
/// let addr = domain.serve_external(0)?;
///
/// let mut publisher = ExternalClient::connect(addr)?;
/// let mut watcher = ExternalClient::connect(addr)?;
/// watcher.subscribe(TopicId(1))?;
///
/// publisher.publish(TopicId(1), b"from outside")?;
/// // Generous bound: the suite runs heavily oversubscribed in CI, and
/// // take_timeout returns as soon as the sample arrives.
/// let s = watcher.take_timeout(Duration::from_secs(30))?.expect("sample");
/// assert_eq!(s.data, b"from outside");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ExternalClient {
    stream: TcpStream,
    asm: EdgeAssembler,
    pending_samples: std::collections::VecDeque<Sample>,
    pending_acks: std::collections::VecDeque<(TopicId, PublishStatus)>,
}

impl ExternalClient {
    /// Connects to a relay endpoint created by
    /// [`DdsDomain::serve_external`].
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<ExternalClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(ExternalClient {
            stream,
            asm: EdgeAssembler::new(),
            pending_samples: std::collections::VecDeque::new(),
            pending_acks: std::collections::VecDeque::new(),
        })
    }

    /// Publishes `data` on `topic` through the relay and waits for the
    /// relay's acknowledgment.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket; a non-[`PublishStatus::Accepted`]
    /// status is returned in the `Ok` value, not as an error.
    pub fn publish(&mut self, topic: TopicId, data: &[u8]) -> io::Result<PublishStatus> {
        let mut frame = Vec::with_capacity(6 + data.len());
        encode_publish(topic.0, data, &mut frame);
        self.stream.write_all(&frame)?;
        // Read frames until the ack arrives, buffering samples.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some((t, status)) = self.pending_acks.pop_front() {
                debug_assert_eq!(t, topic);
                return Ok(status);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "relay did not acknowledge publish",
                ));
            }
            self.read_frames()?;
        }
    }

    /// Subscribes to `topic`: the relay will forward every sample it
    /// delivers from now on.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket.
    pub fn subscribe(&mut self, topic: TopicId) -> io::Result<()> {
        let mut frame = Vec::with_capacity(10);
        encode_subscribe(topic.0, &mut frame);
        self.stream.write_all(&frame)
    }

    /// Takes the next forwarded sample, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket.
    pub fn take_timeout(&mut self, timeout: Duration) -> io::Result<Option<Sample>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(s) = self.pending_samples.pop_front() {
                return Ok(Some(s));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            self.read_frames()?;
        }
    }

    /// Reads whatever the socket has into the pending queues (returns
    /// quietly on read timeout).
    fn read_frames(&mut self) -> io::Result<()> {
        let mut buf = [0u8; 16 * 1024];
        let n = match self.stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "relay closed the connection",
                ))
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        };
        self.asm.feed(&buf[..n]);
        loop {
            match self.asm.next_frame() {
                Ok(Some(EdgeFrame::Sample {
                    topic,
                    publisher,
                    index,
                    epoch,
                    data,
                })) => self.pending_samples.push_back(Sample {
                    topic: TopicId(topic),
                    publisher: publisher as usize,
                    index,
                    epoch,
                    data,
                }),
                Ok(Some(EdgeFrame::PubAck { topic, status })) => self
                    .pending_acks
                    .push_back((TopicId(topic), PublishStatus::from_byte(status))),
                Ok(Some(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "relay sent a client-side frame",
                    ))
                }
                Ok(None) => return Ok(()),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainBuilder;
    use crate::qos::QosLevel;

    fn domain_with_relay() -> (DdsDomain, SocketAddr) {
        let domain = DomainBuilder::new(3)
            .topic(TopicId(1), &[0], &[1, 2], QosLevel::AtomicMulticast)
            .topic(TopicId(2), &[1], &[0], QosLevel::AtomicMulticast)
            .start()
            .unwrap();
        let addr = domain.serve_external(0).unwrap();
        (domain, addr)
    }

    #[test]
    fn external_publish_reaches_members() {
        let (domain, addr) = domain_with_relay();
        let mut client = ExternalClient::connect(addr).unwrap();
        let status = client.publish(TopicId(1), b"external sample").unwrap();
        assert_eq!(status, PublishStatus::Accepted);
        let s = domain
            .participant(2)
            .take_timeout(TopicId(1), Duration::from_secs(5))
            .unwrap()
            .expect("member receives external publish");
        assert_eq!(s.data, b"external sample");
    }

    #[test]
    fn external_subscribe_receives_member_publishes() {
        let (domain, addr) = domain_with_relay();
        let mut client = ExternalClient::connect(addr).unwrap();
        client.subscribe(TopicId(1)).unwrap();
        // Give the subscription a moment to register before publishing.
        std::thread::sleep(Duration::from_millis(50));
        domain
            .participant(0)
            .publish(TopicId(1), b"inside")
            .unwrap();
        let s = client
            .take_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("forwarded sample");
        assert_eq!(s.data, b"inside");
        assert_eq!(s.topic, TopicId(1));
    }

    #[test]
    fn publish_on_foreign_topic_rejected_with_ack() {
        let (_domain, addr) = domain_with_relay();
        let mut client = ExternalClient::connect(addr).unwrap();
        // Relay is node 0; topic 2's publisher is node 1.
        let status = client.publish(TopicId(2), b"nope").unwrap();
        assert_eq!(status, PublishStatus::NotAPublisher);
    }

    #[test]
    fn two_external_clients_share_totally_ordered_stream() {
        let (_domain, addr) = domain_with_relay();
        let mut a = ExternalClient::connect(addr).unwrap();
        let mut b = ExternalClient::connect(addr).unwrap();
        a.subscribe(TopicId(1)).unwrap();
        b.subscribe(TopicId(1)).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        let mut publisher = ExternalClient::connect(addr).unwrap();
        for i in 0..10u8 {
            assert_eq!(
                publisher.publish(TopicId(1), &[i]).unwrap(),
                PublishStatus::Accepted
            );
        }
        let take_all = |c: &mut ExternalClient| -> Vec<Vec<u8>> {
            (0..10)
                .map(|_| {
                    c.take_timeout(Duration::from_secs(5))
                        .unwrap()
                        .expect("sample")
                        .data
                })
                .collect()
        };
        let sa = take_all(&mut a);
        let sb = take_all(&mut b);
        assert_eq!(sa, sb, "both externals see the same order");
        assert_eq!(sa, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn relay_round_trip_external_to_external() {
        let (_domain, addr) = domain_with_relay();
        let mut sub = ExternalClient::connect(addr).unwrap();
        sub.subscribe(TopicId(1)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut publisher = ExternalClient::connect(addr).unwrap();
        publisher.publish(TopicId(1), b"loop").unwrap();
        let s = sub.take_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(s.data, b"loop");
    }

    #[test]
    fn external_subscriber_survives_unrelated_member_removal() {
        // A view change (another member leaving its topics) must not break
        // the relay: taps re-register against nothing — the relay node's
        // reader state survives — and forwarding continues in the new
        // epoch.
        let domain = DomainBuilder::new(3)
            .topic(TopicId(1), &[0, 1], &[2], QosLevel::AtomicMulticast)
            .start()
            .unwrap();
        let addr = domain.serve_external(0).unwrap();
        let mut client = ExternalClient::connect(addr).unwrap();
        client.subscribe(TopicId(1)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        domain
            .participant(0)
            .publish(TopicId(1), b"before")
            .unwrap();
        assert_eq!(
            client
                .take_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap()
                .data,
            b"before"
        );
        // Note: DdsDomain does not expose membership surgery, so this test
        // exercises continuity across heavy concurrent traffic instead:
        // many publishes racing the relay's pump.
        for i in 0..50u8 {
            domain.participant(1).publish(TopicId(1), &[i]).unwrap();
        }
        for i in 0..50u8 {
            let s = client
                .take_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap();
            assert_eq!(s.data, vec![i]);
        }
    }

    #[test]
    fn domain_drop_stops_relay_threads() {
        let (domain, addr) = domain_with_relay();
        let mut client = ExternalClient::connect(addr).unwrap();
        client.publish(TopicId(1), b"x").unwrap();
        drop(domain);
        // The endpoint eventually refuses new work; existing socket reads
        // hit EOF or error rather than hanging.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match client.take_timeout(Duration::from_millis(50)) {
                Ok(None) => {
                    if Instant::now() > deadline {
                        // Quiet close is also acceptable.
                        break;
                    }
                }
                Ok(Some(_)) => continue,
                Err(_) => break, // socket closed
            }
        }
    }

    #[test]
    fn relay_restart_serves_fresh_clients_on_the_same_port() {
        let (domain, addr) = domain_with_relay();
        let mut client = ExternalClient::connect(addr).unwrap();
        client.subscribe(TopicId(1)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            client.publish(TopicId(1), b"gen1").unwrap(),
            PublishStatus::Accepted
        );
        assert_eq!(
            client
                .take_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap()
                .data,
            b"gen1"
        );
        // Stop the relay: the old client observes EOF, the port frees.
        domain.stop_external();
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.take_timeout(Duration::from_millis(20)).is_ok() {
            assert!(Instant::now() < deadline, "old client never saw the close");
        }
        // Restart on the same address; a fresh client resumes service.
        let addr2 = domain.serve_external_on(0, addr).unwrap();
        assert_eq!(addr2, addr);
        let mut client2 = ExternalClient::connect(addr2).unwrap();
        client2.subscribe(TopicId(1)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            client2.publish(TopicId(1), b"gen2").unwrap(),
            PublishStatus::Accepted
        );
        assert_eq!(
            client2
                .take_timeout(Duration::from_secs(5))
                .unwrap()
                .unwrap()
                .data,
            b"gen2"
        );
    }
}
