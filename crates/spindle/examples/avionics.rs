//! An avionics-style DDS domain: the application class that motivated the
//! Spindle paper (§1, §4.6).
//!
//! Run with: `cargo run -p spindle --example avionics`
//!
//! Five processes share a Global Data Space with four topics at different
//! QoS levels, mirroring an onboard architecture:
//!
//! * `ATTITUDE` (topic 10, `Unordered`) — a high-rate sensor stream where
//!   the freshest value wins and ordering is irrelevant. Delivery timing
//!   is domain-wide, so it runs in a domain of its own: sharing one would
//!   take the total order away from the three ordered topics;
//! * `FLIGHT_CMD` (topic 20, `AtomicMulticast`) — safety-critical commands
//!   that every flight-management replica must apply in the same order;
//! * `NAV_STATE` (topic 30, `VolatileStorage`) — the fused navigation
//!   solution, kept in memory so late-joining displays can catch up;
//! * `MAINT_LOG` (topic 40, `LoggedStorage`) — maintenance telemetry,
//!   additionally appended to an on-disk log.

use std::time::Duration;

use spindle::{DomainBuilder, QosLevel, TopicId};

const ATTITUDE: TopicId = TopicId(10);
const FLIGHT_CMD: TopicId = TopicId(20);
const NAV_STATE: TopicId = TopicId(30);
const MAINT_LOG: TopicId = TopicId(40);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Participants: 0 = IMU, 1+2 = redundant flight management computers,
    // 3 = navigation unit, 4 = cockpit display / maintenance recorder.
    let domain = DomainBuilder::new(5)
        .topic(FLIGHT_CMD, &[1, 2], &[3, 4], QosLevel::AtomicMulticast)
        .topic(NAV_STATE, &[3], &[1, 2, 4], QosLevel::VolatileStorage)
        .topic(MAINT_LOG, &[1, 2, 3], &[4], QosLevel::LoggedStorage)
        .start()?;
    let sensors = DomainBuilder::new(5)
        .topic(ATTITUDE, &[0], &[1, 2, 3], QosLevel::Unordered)
        .start()?;

    // The IMU streams attitude samples.
    for i in 0..20u32 {
        let sample = format!(
            "att pitch={:+.2} roll={:+.2}",
            (i as f32) * 0.1,
            -(i as f32) * 0.05
        );
        sensors
            .participant(0)
            .publish(ATTITUDE, sample.as_bytes())?;
    }

    // Both flight-management computers issue commands concurrently; the
    // atomic multicast imposes one order that all consumers share.
    domain
        .participant(1)
        .publish(FLIGHT_CMD, b"cmd: set-heading 270")?;
    domain
        .participant(2)
        .publish(FLIGHT_CMD, b"cmd: hold-altitude 9000")?;
    domain
        .participant(1)
        .publish(FLIGHT_CMD, b"cmd: reduce-thrust 0.85")?;

    // The navigation unit publishes fused state (kept in volatile history).
    for i in 0..5u32 {
        let fix = format!("nav fix#{i} lat=52.3 lon=13.4 alt=9000");
        domain.participant(3).publish(NAV_STATE, fix.as_bytes())?;
    }

    // Maintenance telemetry is durably logged at the recorder.
    domain
        .participant(1)
        .publish(MAINT_LOG, b"engine1 egt=612C")?;
    domain
        .participant(3)
        .publish(MAINT_LOG, b"nav gps-sats=11")?;

    // --- Consumption ---------------------------------------------------
    // The display (4) and the navigation unit (3) see the flight commands
    // in one agreed order.
    let mut feeds = Vec::new();
    for node in [4, 3] {
        let mut feed = Vec::new();
        for _ in 0..3 {
            let s = domain
                .participant(node)
                .take_timeout(FLIGHT_CMD, Duration::from_secs(5))?
                .expect("command");
            feed.push((s.publisher, s.data));
        }
        feeds.push(feed);
    }
    assert_eq!(
        feeds[0], feeds[1],
        "command order differs between consumers"
    );
    println!("cockpit display command feed (the navigation unit's is identical):");
    for (publisher, cmd) in &feeds[0] {
        println!("  [fmc rank {publisher}] {}", String::from_utf8_lossy(cmd));
    }

    println!("\nnavigation unit attitude stream (first 5):");
    for _ in 0..5 {
        let s = sensors
            .participant(3)
            .take_timeout(ATTITUDE, Duration::from_secs(5))?
            .expect("attitude");
        println!("  {}", String::from_utf8_lossy(&s.data));
    }

    // Late-joiner catch-up from volatile history.
    let mut history_len = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while history_len < 5 && std::time::Instant::now() < deadline {
        history_len = domain.participant(4).history(NAV_STATE)?.len();
    }
    println!("\nnav-state volatile history at the display: {history_len} fixes retained");
    assert_eq!(history_len, 5, "volatile history lost fixes");

    // The durable log on disk.
    let mut logged = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while logged < 2 && std::time::Instant::now() < deadline {
        logged = 0;
        for _ in 0..2 {
            if domain
                .participant(4)
                .take_timeout(MAINT_LOG, Duration::from_millis(200))?
                .is_some()
            {
                logged += 1;
            }
        }
    }
    let log_name = format!("{MAINT_LOG}-node4");
    let log_bytes: u64 = spindle::persist::read_log(domain.log_dir(), &log_name)
        .map(|rs| rs.iter().map(|r| r.data.len() as u64).sum())
        .unwrap_or(0);
    println!(
        "maintenance log on disk: {log_bytes} payload bytes under {}",
        domain.log_dir().display()
    );

    println!(
        "\nok: four QoS levels, one subgroup per topic: the ordered topics share one \
         Derecho group, the unordered stream has its own"
    );
    let _ = std::fs::remove_dir_all(domain.log_dir());
    let _ = std::fs::remove_dir_all(sensors.log_dir());
    Ok(())
}
