//! The three nonblocking socket loops every poller in this crate runs —
//! accept until the backlog is empty, read until the socket is, write
//! until the queue is or the kernel pushes back — written once. Helpers,
//! not a framework: each event loop keeps its own poll set and policy
//! (hot-window spinning, dial back-off, dead-client reaping, reconnect
//! timers) and calls down into these.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::wire::FrameQueue;

/// How a [`read_available`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEnd {
    /// Nothing more to read right now (the socket would block, a short
    /// read emptied it, or the sink asked to stop).
    Drained,
    /// The peer closed the stream.
    Eof,
    /// The read failed; the connection is dead.
    Failed(ErrorKind),
}

/// Reads everything currently available on a nonblocking `stream`
/// through `scratch`, handing each chunk to `sink` as it arrives (so a
/// caller decoding frames never buffers more than one chunk of backlog).
/// `sink` returns whether to keep reading. A read that does not fill
/// `scratch` has emptied the socket, so the confirming `WouldBlock`
/// syscall is skipped — level-triggered polling reports anything that
/// lands later.
pub fn read_available(
    mut stream: impl Read,
    scratch: &mut [u8],
    mut sink: impl FnMut(&[u8]) -> bool,
) -> ReadEnd {
    loop {
        match stream.read(scratch) {
            Ok(0) => return ReadEnd::Eof,
            Ok(n) => {
                if !sink(&scratch[..n]) || n < scratch.len() {
                    return ReadEnd::Drained;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadEnd::Drained,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return ReadEnd::Failed(e.kind()),
        }
    }
}

/// How a [`drain_queue`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainEnd {
    /// Every queued byte reached the kernel.
    Empty,
    /// The kernel pushed back with bytes still queued; wait for `POLLOUT`.
    WouldBlock,
    /// The write failed; the connection is dead (queued frames survive —
    /// [`FrameQueue::rewind_head`] before reusing them on a new stream).
    Dead,
}

/// What one [`drain_queue`] call moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drained {
    /// Why the drain stopped.
    pub end: DrainEnd,
    /// Bytes the kernel accepted.
    pub bytes: usize,
    /// Vectored writes issued (each coalesces the whole backlog, up to
    /// the iovec cap).
    pub writes: usize,
}

/// Drains `queue` into a nonblocking `stream` with vectored writes until
/// it is empty or the kernel pushes back, handing each frame that fully
/// left the socket to `flushed` (see [`FrameQueue::advance`]).
pub fn drain_queue<B: AsRef<[u8]>, T>(
    mut stream: impl Write,
    queue: &mut FrameQueue<B, T>,
    mut flushed: impl FnMut(T, B),
) -> Drained {
    let (mut bytes, mut writes) = (0, 0);
    let end = loop {
        if queue.is_empty() {
            break DrainEnd::Empty;
        }
        match stream.write_vectored(&queue.io_slices()) {
            Ok(0) => break DrainEnd::Dead,
            Ok(n) => {
                bytes += n;
                writes += 1;
                queue.advance(n, &mut flushed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break DrainEnd::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break DrainEnd::Dead,
        }
    };
    Drained { end, bytes, writes }
}

/// Accepts every connection waiting on a nonblocking `listener`, handing
/// each to `each` already switched to nonblocking mode. A connection
/// that cannot be made nonblocking is dropped (it would stall the
/// poller); an accept error other than `WouldBlock` ends the pass — the
/// listener stays in the poll set and is retried on the next readiness.
pub fn accept_ready(listener: &TcpListener, mut each: impl FnMut(TcpStream)) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_ok() {
                    each(stream);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Normally `WouldBlock`: the backlog is empty.
            Err(_) => return,
        }
    }
}
