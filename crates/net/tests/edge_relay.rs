//! Edge-tier integration tests: the single-poller relay must hold a
//! thousand concurrent clients with a flat thread count and keep slow
//! consumers from hurting anyone else (per the topic's overflow
//! policy). That shutdown leaves no thread behind is an exact
//! process-wide count, so it lives alone in `edge_relay_shutdown.rs`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use spindle_net::edge::{encode_subscribe, EdgeAssembler, EdgeConfig, EdgeFrame, OverflowPolicy};
use spindle_net::{wire_thread_count, EdgeServer};
use spindle_obs::{names, ObsPlane};

fn bind(cfg: EdgeConfig) -> (EdgeServer, ObsPlane) {
    let obs = ObsPlane::new();
    let server = EdgeServer::bind("127.0.0.1:0".parse().unwrap(), cfg, &obs).unwrap();
    (server, obs)
}

fn subscribe(stream: &mut TcpStream, topic: u8) {
    let mut f = Vec::new();
    encode_subscribe(topic, &mut f);
    stream.write_all(&f).unwrap();
}

/// Reads frames until one `Sample` arrives or the deadline passes.
fn read_sample(stream: &mut TcpStream, asm: &mut EdgeAssembler, deadline: Instant) -> EdgeFrame {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(f) = asm.next_frame().unwrap() {
            return f;
        }
        assert!(Instant::now() < deadline, "no sample before deadline");
        match stream.read(&mut buf) {
            Ok(0) => panic!("relay closed unexpectedly"),
            Ok(n) => asm.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// Waits until `n` clients are subscribed to `topic` on the relay — what
/// a fan-out reaches. The poller thread applies each `Subscribe` frame
/// some time after the connection is accepted, so an accepted client is
/// not yet a subscriber.
fn wait_subscribers(server: &EdgeServer, topic: u8, n: usize, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.subscribers(topic) < n {
        assert!(
            Instant::now() < deadline,
            "{why}: {}",
            server.subscribers(topic)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline scale claim: one relay, one thousand live loopback
/// clients, and the wire-thread count does not move — client N costs a
/// poll-set entry, not a thread. (The old relay spawned 2 threads per
/// client; at 1k clients that design would add 2000 here.)
#[test]
fn thousand_clients_one_poller_thread() {
    const CLIENTS: usize = 1000;
    let before = wire_thread_count();
    let (server, _obs) = bind(EdgeConfig::new("scale"));
    let addr = server.local_addr();

    let mut clients: Vec<TcpStream> = (0..CLIENTS)
        .map(|i| {
            let mut s = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("client {i} connect failed: {e}"));
            s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            subscribe(&mut s, 7);
            s
        })
        .collect();
    wait_subscribers(&server, 7, CLIENTS, "clients never all subscribed");

    // Tolerate unrelated spindle-net threads started by parallel tests;
    // what must NOT happen is per-client growth.
    let grown = wire_thread_count().saturating_sub(before);
    assert!(
        grown <= 3,
        "thread count grew by {grown} with {CLIENTS} clients — edge tier is not flat"
    );

    // One encode-once fan-out reaches every one of the thousand.
    let n = server.fanout(7, 3, 41, 2, b"to everyone at once");
    assert_eq!(n, CLIENTS, "fanout should enqueue to every subscriber");
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, s) in clients.iter_mut().enumerate() {
        let mut asm = EdgeAssembler::new();
        match read_sample(s, &mut asm, deadline) {
            EdgeFrame::Sample {
                topic,
                publisher,
                index,
                epoch,
                data,
            } => {
                assert_eq!(
                    (topic, publisher, index, epoch),
                    (7, 3, 41, 2),
                    "client {i} got wrong header"
                );
                assert_eq!(data, b"to everyone at once", "client {i} got wrong body");
            }
            other => panic!("client {i} got {other:?}"),
        }
    }
}

/// A stalled subscriber on a shed-oldest topic keeps a *bounded* queue
/// (oldest frames dropped, shed counter advancing) and never delays a
/// healthy subscriber on the same topic.
#[test]
fn slow_consumer_is_shed_without_delaying_others() {
    const CAP: usize = 64 * 1024;
    let (server, obs) = bind(
        EdgeConfig::new("shed")
            .topic_policy(1, OverflowPolicy::ShedOldest)
            .client_queue(CAP),
    );
    let addr = server.local_addr();

    // `stalled` subscribes and then never reads; `healthy` keeps up.
    let mut stalled = TcpStream::connect(addr).unwrap();
    subscribe(&mut stalled, 1);
    let mut healthy = TcpStream::connect(addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    subscribe(&mut healthy, 1);
    wait_subscribers(&server, 1, 2, "subscribers never registered");

    // Push far more than the cap plus every kernel buffer in the path
    // can hold, reading only on the healthy side.
    let payload = vec![0x5a_u8; 32 * 1024];
    let mut asm = EdgeAssembler::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    for i in 0..512_u64 {
        server.fanout(1, 0, i, 0, &payload);
        match read_sample(&mut healthy, &mut asm, deadline) {
            EdgeFrame::Sample { index, .. } => assert_eq!(index, i, "healthy client lost a frame"),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // The stalled client's queue is bounded by its cap (bounded memory),
    // frames were shed, and it is still connected (shed-oldest keeps the
    // session alive — freshest data wins when it resumes reading).
    assert!(
        server.queued_bytes() <= CAP + 64 * 1024,
        "stalled subscriber queue unbounded: {} B queued",
        server.queued_bytes()
    );
    let shed = obs
        .registry()
        .counter_value(
            names::RELAY_SHED,
            &[("relay", "shed"), ("reason", "slow-consumer")],
        )
        .unwrap_or(0);
    assert!(shed > 0, "no frames were shed for the stalled subscriber");
    assert_eq!(server.client_count(), 2, "shed-oldest must not disconnect");
}

/// On an ordered (disconnect-policy) topic, the same stall severs the
/// slow client instead — dropping frames would hand it a gap in the
/// total order — while the healthy subscriber is untouched.
#[test]
fn ordered_topic_disconnects_slow_consumer() {
    const CAP: usize = 64 * 1024;
    // Default policy is Disconnect (ordered topics).
    let (server, obs) = bind(EdgeConfig::new("cut").client_queue(CAP));
    let addr = server.local_addr();

    let mut stalled = TcpStream::connect(addr).unwrap();
    subscribe(&mut stalled, 2);
    let mut healthy = TcpStream::connect(addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    subscribe(&mut healthy, 2);
    wait_subscribers(&server, 2, 2, "subscribers never registered");

    let payload = vec![0xa5_u8; 32 * 1024];
    let mut asm = EdgeAssembler::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    for i in 0..512_u64 {
        server.fanout(2, 0, i, 0, &payload);
        match read_sample(&mut healthy, &mut asm, deadline) {
            EdgeFrame::Sample { index, .. } => {
                assert_eq!(index, i, "healthy client lost a frame to the stall")
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // The stalled client was cut: its socket reaches EOF once the kernel
    // buffers drain, the disconnect shed counter fired, and only the
    // healthy client remains registered.
    let cut = obs
        .registry()
        .counter_value(
            names::RELAY_SHED,
            &[("relay", "cut"), ("reason", "disconnect")],
        )
        .unwrap_or(0);
    assert!(
        cut > 0,
        "overflowing ordered subscriber was not disconnected"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.client_count() > 1 {
        assert!(Instant::now() < deadline, "stalled client never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
    stalled
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut sink = vec![0u8; 64 * 1024];
    let hang_up_by = Instant::now() + Duration::from_secs(30);
    let saw_eof = loop {
        assert!(Instant::now() < hang_up_by, "the relay never hung up");
        match stalled.read(&mut sink) {
            Ok(0) => break true, // EOF: the relay hung up
            Ok(_) => continue,   // draining what the kernel already had
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break true, // reset also counts as severed
        }
    };
    assert!(saw_eof);
    assert!(Instant::now() < deadline + Duration::from_secs(30));
}
