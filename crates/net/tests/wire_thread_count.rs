//! The process-wide wire-thread count, alone in its own test process:
//! `wire_thread_count()` reads the kernel's thread list, so any sibling
//! test running a poller in the same process would be counted in.

use std::io::{Read, Write};
use std::net::TcpStream;

use spindle_fabric::{FaultPlan, NodeId};
use spindle_net::{wire_thread_count, TcpFabricGroup};

/// Two endpoints, two pollers — and serving `/metrics` adds none: the
/// exposition listener rides the existing event loop, and the
/// `spindle_wire_threads` gauge reports the same kernel-side count.
#[test]
fn exposition_adds_no_thread_to_the_one_poller_per_endpoint() {
    assert_eq!(wire_thread_count(), 0);
    let group = TcpFabricGroup::loopback(2, 8, FaultPlan::new()).unwrap();
    assert_eq!(wire_thread_count(), 2);
    let addr = group
        .endpoint(NodeId(0))
        .serve_metrics("127.0.0.1:0")
        .unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut page = String::new();
    s.read_to_string(&mut page).unwrap();
    assert!(
        page.contains("spindle_wire_threads{node=\"0\"} 2"),
        "gauge missing or wrong in:\n{page}"
    );
    assert_eq!(wire_thread_count(), 2);
    drop(group);
    assert_eq!(wire_thread_count(), 0, "a poller outlived its endpoint");
}
