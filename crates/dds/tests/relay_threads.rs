//! The edge tier's thread budget, counted from the kernel's thread list
//! (`/proc/self/task`) — a process-wide number, so this test runs alone
//! in its own process where no sibling test's cluster can move it.

use std::time::{Duration, Instant};

use spindle_dds::{DomainBuilder, ExternalClient, QosLevel, TopicId};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// 2 threads per relay (poller + driver), whatever the client count —
/// and both exit on `stop_external`.
#[test]
fn relay_threads_flat_and_cleaned_up() {
    let domain = DomainBuilder::new(3)
        .topic(TopicId(1), &[0], &[1, 2], QosLevel::AtomicMulticast)
        .start()
        .unwrap();
    let addr = domain.serve_external(0).unwrap();
    let before = threads();
    let mut clients: Vec<ExternalClient> = (0..20)
        .map(|_| ExternalClient::connect(addr).unwrap())
        .collect();
    for c in &mut clients {
        c.subscribe(TopicId(1)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(threads(), before, "20 clients must not add a single thread");
    drop(clients);
    domain.stop_external();
    // Poller and driver are joined by stop_external, so the count drops by
    // exactly the relay's two threads — once the kernel has unlisted them:
    // a join returns when the exiting thread's tid futex clears, which is
    // before its task leaves /proc/self/task.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != before - 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), before - 2, "relay threads leaked past shutdown");
}
