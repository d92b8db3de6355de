//! Seeded load generator for the edge relay tier.
//!
//! Drives a configurable number of external clients — the first
//! `--publishers` of them publish, the rest subscribe — against one or
//! more `spindle-node --relay-addr` endpoints, from a **single thread**:
//! every client socket is nonblocking and multiplexed through one
//! `poll(2)` set, mirroring the relay's own event-loop design, so a
//! thousand clients cost the process one thread.
//!
//! The workload is deterministic from the flags alone: payloads embed
//! `(publisher id, counter, send timestamp)` plus seed-derived xorshift
//! filler, publishes are paced by `--rate` (per publisher) and bounded
//! to 32 unacked in flight. Subscribers check a FIFO oracle as samples
//! arrive — each publisher's counter must be strictly increasing at
//! every subscriber, which must survive reconnects and relay failover
//! (`--addr` accepts a comma-separated failover list; in
//! `--duration-secs` mode a dead connection reconnects to the next
//! endpoint and resubscribes). Exit code is nonzero on any ordering
//! violation, failed publish, or missed completion.
//!
//! At the end the process prints the same per-epoch p50/p99/p999
//! latency table as `spindle-node`, fed from subscriber-side
//! send-to-receive latencies (publisher and subscriber share one clock
//! here, so the measurement needs no clock sync).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use netpoll::{poll_fds, PollFd, POLLIN, POLLOUT};
use spindle_core::{epoch_stats_for_node, render_epoch_table};
use spindle_net::config::{self, ConfigError, Setting};
use spindle_net::edge::{encode_publish, encode_subscribe, EdgeAssembler, EdgeFrame};
use spindle_net::sock::{drain_queue, read_available, DrainEnd, ReadEnd};
use spindle_net::wire::FrameQueue;
use spindle_obs::{names, Registry};

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// Flow-control window: publishes in flight (sent, not yet acked) per
/// publisher.
const MAX_OUTSTANDING: u32 = 32;

#[derive(Debug)]
struct Args {
    addrs: Vec<SocketAddr>,
    clients: usize,
    publishers: usize,
    sends: u32,
    rate: u64,
    payload: usize,
    seed: u64,
    topic: u8,
    duration: Duration,
    deadline: Duration,
}

/// Every setting of the load generator, each with its one setter.
const SETTINGS: &[Setting<Args>] = &[
    Setting::new(&["--addr"], "A[,B,...]", |a, v| {
        for part in v.list()? {
            let part = part.text()?;
            a.addrs.push(
                part.parse()
                    .map_err(|e| format!("bad address {part}: {e}"))?,
            );
        }
        Ok(())
    }),
    Setting::new(&["--clients"], "N", |a, v| v.int().map(|n| a.clients = n)),
    Setting::new(&["--publishers"], "P", |a, v| {
        v.int().map(|n| a.publishers = n)
    }),
    Setting::new(&["--sends"], "N", |a, v| v.int().map(|n| a.sends = n)),
    Setting::new(&["--rate"], "MSGS_PER_SEC", |a, v| {
        v.int().map(|n| a.rate = n)
    }),
    // The payload header is (pub_id:u32, counter:u32, t_ns:u64).
    Setting::new(&["--payload"], "BYTES", |a, v| {
        v.int().map(|n: usize| a.payload = n.max(16))
    }),
    Setting::new(&["--seed"], "S", |a, v| v.int().map(|n| a.seed = n)),
    Setting::new(&["--topic"], "T", |a, v| v.int().map(|n| a.topic = n)),
    Setting::new(&["--duration-secs"], "D", |a, v| {
        v.int().map(|t| a.duration = Duration::from_secs(t))
    }),
    Setting::new(&["--deadline-secs"], "T", |a, v| {
        v.int().map(|t| a.deadline = Duration::from_secs(t))
    }),
];

/// The settings `args` (program name removed) ask for, over the defaults.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        addrs: Vec::new(),
        clients: 8,
        publishers: 2,
        sends: 50,
        rate: 0,
        payload: 32,
        seed: 42,
        topic: 0,
        duration: Duration::ZERO,
        deadline: Duration::from_secs(120),
    };
    let usage = config::usage("spindle-loadgen", SETTINGS);
    let mut errors = Vec::new();
    let Some(given) = config::parse_flags(SETTINGS, args, &mut errors) else {
        return Err(usage);
    };
    config::apply_flags(&given, &mut parsed, &mut errors);
    if parsed.addrs.is_empty() {
        errors.push(ConfigError::new("--addr", "is required"));
    }
    if parsed.publishers > parsed.clients {
        errors.push(ConfigError::new("--publishers", "cannot exceed --clients"));
    }
    if !errors.is_empty() {
        return Err(config::report(&errors, &usage));
    }
    Ok(parsed)
}

/// The deterministic publish payload: `(pub_id, counter, t_ns)` header
/// plus seed-derived xorshift filler — reproducible from
/// `(publisher, counter, size, seed)` alone, like spindle-node's
/// workload payload.
fn payload(pub_id: u32, counter: u32, t_ns: u64, size: usize, seed: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(size);
    p.extend_from_slice(&pub_id.to_le_bytes());
    p.extend_from_slice(&counter.to_le_bytes());
    p.extend_from_slice(&t_ns.to_le_bytes());
    let mut x = seed ^ (u64::from(pub_id) << 32) ^ u64::from(counter) | 1;
    while p.len() < size {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.push(x as u8);
    }
    p
}

enum Role {
    Publisher {
        id: u32,
        sent: u32,
        acked: u32,
        failed: u32,
    },
    Subscriber {
        /// Last counter seen per publisher id (the FIFO oracle).
        last: HashMap<u32, u32>,
        /// Loadgen-originated samples received (header parses and the
        /// publisher id is one of ours — member workload traffic on the
        /// same subgroup is latency-sampled but not counted here).
        received: u64,
    },
}

struct Client {
    stream: Option<TcpStream>,
    addr_ix: usize,
    asm: EdgeAssembler,
    out: FrameQueue<Vec<u8>, ()>,
    reconnect_at: Instant,
    reconnects: u64,
    role: Role,
}

impl Client {
    fn disconnect(&mut self, now: Instant) {
        self.stream = None;
        self.out = FrameQueue::new();
        self.asm = EdgeAssembler::new();
        self.reconnect_at = now + Duration::from_millis(200);
        self.addr_ix += 1;
        if let Role::Publisher { sent, acked, .. } = &mut self.role {
            // In-flight acks died with the socket; reopen the window.
            *acked = *sent;
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spindle-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let base = Instant::now();
    let registry = Registry::new();
    let subscribers = args.clients - args.publishers;
    let duration_mode = args.duration > Duration::ZERO;

    let mut clients: Vec<Client> = (0..args.clients)
        .map(|i| Client {
            stream: None,
            addr_ix: 0,
            asm: EdgeAssembler::new(),
            out: FrameQueue::new(),
            reconnect_at: base,
            reconnects: 0,
            role: if i < args.publishers {
                Role::Publisher {
                    id: i as u32,
                    sent: 0,
                    acked: 0,
                    failed: 0,
                }
            } else {
                Role::Subscriber {
                    last: HashMap::new(),
                    received: 0,
                }
            },
        })
        .collect();

    // Initial connects are sequential and blocking: simple, and fine even
    // at 1k clients on loopback.
    for (i, c) in clients.iter_mut().enumerate() {
        connect(c, &args)
            .map_err(|e| format!("client {i} cannot connect to {:?}: {e}", args.addrs))?;
    }
    eprintln!(
        "spindle-loadgen: {} clients up ({} publishers, {subscribers} subscribers) \
         against {:?}, topic {}, seed {}",
        args.clients, args.publishers, args.addrs, args.topic, args.seed
    );

    let deadline = base + args.deadline;
    let mut fds: Vec<PollFd> = Vec::with_capacity(args.clients);
    let mut fd_owner: Vec<usize> = Vec::with_capacity(args.clients);
    let mut violations = 0u64;
    let mut latency_recorded = 0u64;

    loop {
        let now = Instant::now();

        // Publisher duty: fill each publisher's window, paced by --rate.
        for c in clients.iter_mut() {
            if c.stream.is_none() {
                continue;
            }
            let Role::Publisher {
                id, sent, acked, ..
            } = &mut c.role
            else {
                continue;
            };
            let (id, mut n_sent) = (*id, *sent);
            let budget_ok = |n: u32| {
                duration_mode || n < args.sends // count mode stops at --sends
            };
            let pace_ok = |n: u32| {
                args.rate == 0
                    || now.duration_since(base).as_nanos() as u64
                        >= u64::from(n) * 1_000_000_000 / args.rate
            };
            while n_sent - *acked < MAX_OUTSTANDING && budget_ok(n_sent) && pace_ok(n_sent) {
                let t_ns = base.elapsed().as_nanos() as u64;
                let p = payload(id, n_sent, t_ns, args.payload, args.seed);
                let mut frame = Vec::with_capacity(6 + p.len());
                encode_publish(args.topic, &p, &mut frame);
                c.out.push((), frame);
                n_sent += 1;
            }
            *sent = n_sent;
        }

        // One poll set over every live socket: readable always, writable
        // only while output is pending.
        fds.clear();
        fd_owner.clear();
        for (i, c) in clients.iter().enumerate() {
            if let Some(s) = &c.stream {
                let mut ev = POLLIN;
                if !c.out.is_empty() {
                    ev |= POLLOUT;
                }
                fds.push(PollFd::new(s.as_raw_fd(), ev));
                fd_owner.push(i);
            }
        }
        if !fds.is_empty() {
            poll_fds(&mut fds, Some(Duration::from_millis(10)))
                .map_err(|e| format!("poll: {e}"))?;
        } else {
            std::thread::sleep(Duration::from_millis(10));
        }

        for (slot, &i) in fd_owner.iter().enumerate() {
            let c = &mut clients[i];
            let (readable, writable) = (fds[slot].readable(), fds[slot].writable());
            if writable {
                if let Some(stream) = &c.stream {
                    if drain_queue(stream, &mut c.out, |(), _| ()).end == DrainEnd::Dead {
                        eprintln!("spindle-loadgen: client {i} write failed");
                        c.disconnect(now);
                        continue;
                    }
                }
            }
            if readable {
                match pump_reads(
                    c,
                    &registry,
                    base,
                    args.publishers as u32,
                    &mut violations,
                    &mut latency_recorded,
                ) {
                    Ok(ReadEnd::Drained) => {}
                    // EOF: relay went away (shutdown or kill).
                    Ok(ReadEnd::Eof) => c.disconnect(now),
                    Ok(ReadEnd::Failed(kind)) => {
                        eprintln!("spindle-loadgen: client {i} read failed: {kind}");
                        c.disconnect(now);
                    }
                    Err(e) => {
                        eprintln!("spindle-loadgen: client {i}: {e}");
                        c.disconnect(now);
                    }
                }
            }
        }

        // Reconnect fallen clients (next endpoint in the failover ring).
        // In count mode a lost connection is unrecoverable workload state,
        // so it fails fast instead.
        for (i, c) in clients.iter_mut().enumerate() {
            if c.stream.is_some() || now < c.reconnect_at {
                continue;
            }
            if !duration_mode {
                return Err(format!("client {i} lost its relay connection"));
            }
            match connect(c, &args) {
                Ok(()) => {
                    c.reconnects += 1;
                    eprintln!(
                        "spindle-loadgen: client {i} reconnected to {}",
                        args.addrs[c.addr_ix % args.addrs.len()]
                    );
                }
                Err(_) => c.reconnect_at = now + Duration::from_millis(300),
            }
        }

        // Completion.
        if duration_mode {
            if base.elapsed() >= args.duration {
                break;
            }
        } else {
            let pubs_done = clients.iter().all(|c| match &c.role {
                Role::Publisher { sent, acked, .. } => *sent == args.sends && *acked == args.sends,
                Role::Subscriber { .. } => true,
            });
            let expected = u64::from(args.sends) * args.publishers as u64;
            let subs_done = clients.iter().all(|c| match &c.role {
                Role::Subscriber { received, .. } => *received >= expected,
                Role::Publisher { .. } => true,
            });
            if pubs_done && subs_done {
                break;
            }
        }
        if now > deadline {
            return Err(progress_report(&clients, "deadline exceeded"));
        }
    }

    // ----- report ------------------------------------------------------
    let makespan = base.elapsed();
    let total_sent: u64 = clients
        .iter()
        .map(|c| match &c.role {
            Role::Publisher { sent, .. } => u64::from(*sent),
            _ => 0,
        })
        .sum();
    let total_failed: u64 = clients
        .iter()
        .map(|c| match &c.role {
            Role::Publisher { failed, .. } => u64::from(*failed),
            _ => 0,
        })
        .sum();
    let total_received: u64 = clients
        .iter()
        .map(|c| match &c.role {
            Role::Subscriber { received, .. } => *received,
            _ => 0,
        })
        .sum();
    let total_reconnects: u64 = clients.iter().map(|c| c.reconnects).sum();

    print!(
        "loadgen per-epoch stats:\n{}",
        render_epoch_table(&epoch_stats_for_node(&registry, 0))
    );
    println!(
        "loadgen: {} publishers sent {total_sent} ({total_failed} failed acks), \
         {subscribers} subscribers received {total_received} ({latency_recorded} latency \
         samples) in {:.3}s | {total_reconnects} reconnects | fifo violations: {violations}",
        args.publishers,
        makespan.as_secs_f64(),
    );
    if violations > 0 {
        return Err(format!("{violations} per-publisher FIFO violations"));
    }
    if total_failed > 0 && !duration_mode {
        return Err(format!("{total_failed} publishes were not accepted"));
    }
    Ok(())
}

fn connect(c: &mut Client, args: &Args) -> std::io::Result<()> {
    let addr = args.addrs[c.addr_ix % args.addrs.len()];
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    c.stream = Some(stream);
    if matches!(c.role, Role::Subscriber { .. }) {
        let mut frame = Vec::new();
        encode_subscribe(args.topic, &mut frame);
        c.out.push((), frame);
    }
    Ok(())
}

/// Drains the socket and applies every complete frame. `Err` is a
/// protocol violation (garbage, or a frame this client's role never
/// receives).
fn pump_reads(
    c: &mut Client,
    registry: &Registry,
    base: Instant,
    publishers: u32,
    violations: &mut u64,
    latency_recorded: &mut u64,
) -> Result<ReadEnd, String> {
    let Some(s) = &c.stream else {
        return Ok(ReadEnd::Drained);
    };
    let mut buf = [0u8; 64 * 1024];
    let asm = &mut c.asm;
    let end = read_available(s, &mut buf, |chunk| {
        asm.feed(chunk);
        true
    });
    while let Some(frame) = c.asm.next_frame().map_err(|e| e.to_string())? {
        match (frame, &mut c.role) {
            (EdgeFrame::PubAck { status, .. }, Role::Publisher { acked, failed, .. }) => {
                *acked += 1;
                if status != 0 {
                    *failed += 1;
                }
            }
            (EdgeFrame::Sample { epoch, data, .. }, Role::Subscriber { last, received }) => {
                if data.len() < 16 {
                    continue; // not a loadgen payload (member workload traffic)
                }
                let pub_id = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
                let counter = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
                let t_ns = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
                if pub_id >= publishers {
                    continue; // member traffic that happens to be ≥16 B
                }
                *received += 1;
                // FIFO oracle: a publisher's counters must be strictly
                // increasing at every subscriber, across reconnects.
                if let Some(prev) = last.insert(pub_id, counter) {
                    if counter <= prev {
                        *violations += 1;
                        eprintln!(
                            "spindle-loadgen: FIFO violation: publisher {pub_id} \
                             counter {counter} after {prev}"
                        );
                    }
                }
                // Same-process clocks: latency is receive time minus the
                // embedded send time.
                let now_ns = base.elapsed().as_nanos() as u64;
                let lat_ns = now_ns.saturating_sub(t_ns);
                let ep = epoch.to_string();
                let labels = [("node", "0"), ("epoch", ep.as_str())];
                registry
                    .counter(names::DELIVERED, "loadgen samples received", &labels)
                    .inc();
                registry
                    .counter(names::DELIVERED_BYTES, "loadgen bytes received", &labels)
                    .add(data.len() as u64);
                registry
                    .histogram(
                        names::DELIVERY_LATENCY,
                        "publish-to-receive latency through the relay",
                        1e-9,
                        &labels,
                    )
                    .record(lat_ns);
                *latency_recorded += 1;
            }
            // A subscriber never publishes and a publisher never
            // subscribes, so cross-role frames mean a protocol bug.
            _ => return Err("unexpected frame for this client's role".to_string()),
        }
    }
    Ok(end)
}

fn progress_report(clients: &[Client], what: &str) -> String {
    let mut s = format!("{what}; progress:");
    for (i, c) in clients.iter().enumerate() {
        match &c.role {
            Role::Publisher {
                sent,
                acked,
                failed,
                ..
            } => s.push_str(&format!(" p{i}:{sent}/{acked}ack/{failed}f")),
            Role::Subscriber { received, .. } => s.push_str(&format!(" s{i}:{received}")),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        let args = ["--addr", "127.0.0.1:7000"].iter().chain(flags);
        parse_args(args.map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_every_flag() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.clients, a.publishers, a.sends, a.rate), (8, 2, 50, 0));
        assert_eq!((a.payload, a.seed, a.topic), (32, 42, 0));
        assert_eq!(
            (a.duration, a.deadline),
            (Duration::ZERO, Duration::from_secs(120))
        );
        let a = parse(&[
            "--addr",
            " 127.0.0.1:7001, ,127.0.0.1:7002",
            "--clients",
            "9",
            "--publishers",
            "3",
            "--sends",
            "7",
            "--rate",
            "100",
            "--payload",
            "4",
            "--seed",
            "1",
            "--topic",
            "255",
            "--duration-secs",
            "2",
            "--deadline-secs",
            "5",
        ])
        .unwrap();
        assert_eq!(a.addrs.len(), 3);
        assert_eq!((a.clients, a.publishers, a.sends, a.rate), (9, 3, 7, 100));
        assert_eq!(
            (a.payload, a.seed, a.topic),
            (16, 1, 255),
            "payload floors at the header"
        );
        assert_eq!(
            (a.duration, a.deadline),
            (Duration::from_secs(2), Duration::from_secs(5))
        );
    }

    #[test]
    fn a_value_too_wide_for_its_setting_is_rejected_not_truncated() {
        // Both were parsed as u64 and cast: topic 256 published on topic
        // 0, 2^32 sends sent nothing.
        let err = parse(&["--topic", "256", "--sends", "4294967296"]).unwrap_err();
        assert!(
            err.contains("--topic: expected an integer in 0..=255, got `256`"),
            "{err}"
        );
        assert!(
            err.contains("--sends: expected an integer in 0..=4294967295"),
            "{err}"
        );
    }

    #[test]
    fn violations_come_together_with_the_generated_usage() {
        let err =
            parse_args(["--publishers", "9", "--bogus", "--rate"].map(String::from)).unwrap_err();
        for want in [
            "--bogus: unknown flag",
            "--rate: missing value",
            "--addr: is required",
            "--publishers: cannot exceed --clients",
        ] {
            assert!(err.contains(want), "{want} not in {err}");
        }
        let usage = parse(&["-h"]).unwrap_err();
        assert!(err.ends_with(&usage));
        assert_eq!(SETTINGS.len(), 10);
        assert!(
            SETTINGS.iter().all(|s| usage.contains(s.names[0])),
            "{usage}"
        );
    }
}
