//! FIFO-serialized resources.

use std::time::Duration;

use crate::time::SimTime;

/// A resource that serves requests one at a time, in arrival order.
///
/// This models the serialized resources of the Spindle cost model: a NIC
/// link transmitting one RDMA write at a time, a CPU thread executing one
/// predicate body at a time, or a mutex held for a known interval. A caller
/// that knows how long it will occupy the resource calls [`Resource::acquire`]
/// and learns both when service *starts* (after any queued work drains) and
/// when it *ends* — which is when the caller should schedule its completion
/// event.
///
/// # Examples
///
/// ```
/// use spindle_sim::{Resource, SimTime};
/// use std::time::Duration;
///
/// let mut nic = Resource::new();
/// // Two 1us transmissions requested at t=0 are serialized back to back.
/// let a = nic.acquire(SimTime::ZERO, Duration::from_micros(1));
/// let b = nic.acquire(SimTime::ZERO, Duration::from_micros(1));
/// assert_eq!(a.end, SimTime::from_micros(1));
/// assert_eq!(b.start, SimTime::from_micros(1));
/// assert_eq!(b.end, SimTime::from_micros(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: SimTime,
}

/// The service interval granted by [`Resource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= the request time).
    pub start: SimTime,
    /// When service completes and the resource becomes free again.
    pub end: SimTime,
}

impl Resource {
    /// Creates a resource that is free at time zero.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Requests the resource at `now` for `hold` time; returns the granted
    /// service interval and marks the resource busy until its end.
    pub fn acquire(&mut self, now: SimTime, hold: Duration) -> Grant {
        let start = self.free_at.max(now);
        let end = start + hold;
        self.free_at = end;
        Grant { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new();
        let g = r.acquire(SimTime::from_micros(3), Duration::from_micros(2));
        assert_eq!(g.start, SimTime::from_micros(3));
        assert_eq!(g.end, SimTime::from_micros(5));
    }

    #[test]
    fn contended_requests_queue_fifo() {
        let mut r = Resource::new();
        let g1 = r.acquire(SimTime::ZERO, Duration::from_micros(10));
        let g2 = r.acquire(SimTime::from_micros(1), Duration::from_micros(10));
        assert_eq!(g1.end, SimTime::from_micros(10));
        assert_eq!(g2.start, SimTime::from_micros(10));
    }

    #[test]
    fn resource_goes_idle_between_bursts() {
        let mut r = Resource::new();
        r.acquire(SimTime::ZERO, Duration::from_micros(1));
        let g = r.acquire(SimTime::from_micros(50), Duration::from_micros(1));
        assert_eq!(g.start, SimTime::from_micros(50));
    }
}
