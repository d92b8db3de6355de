//! Relay shutdown leaves no thread behind — an exact process-wide
//! count (`wire_thread_count()` reads the kernel's thread list), so it
//! runs alone in its own test process where no sibling test's relay can
//! be counted in.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use spindle_net::edge::{encode_subscribe, EdgeConfig};
use spindle_net::{wire_thread_count, EdgeServer};
use spindle_obs::ObsPlane;

/// Explicit shutdown is idempotent, wakes the poller immediately (no
/// 50 ms tick wait), and leaves zero relay threads behind; so does a
/// plain drop.
#[test]
fn shutdown_joins_the_poller_and_closes_clients() {
    assert_eq!(wire_thread_count(), 0);
    let obs = ObsPlane::new();
    let bind = |name| {
        EdgeServer::bind("127.0.0.1:0".parse().unwrap(), EdgeConfig::new(name), &obs).unwrap()
    };
    let mut server = bind("bye");
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    let mut f = Vec::new();
    encode_subscribe(1, &mut f);
    client.write_all(&f).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.client_count() < 1 {
        assert!(Instant::now() < deadline, "client never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(wire_thread_count(), 1, "one poller per relay");

    server.shutdown();
    server.shutdown(); // second call is a no-op
    assert_eq!(wire_thread_count(), 0, "relay thread survived shutdown");

    // The client observes the close rather than hanging.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1024];
    loop {
        match client.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }

    drop(bind("dropped"));
    assert_eq!(wire_thread_count(), 0, "relay thread survived drop");
}
