//! Engine configuration: optimization toggles and workload description.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// When the application upcall happens relative to the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeliveryTiming {
    /// Atomic multicast: upcall when the message is globally stable and next
    /// in the round-robin total order (the default).
    #[default]
    Ordered,
    /// Unordered: upcall as soon as the message is observed in the local
    /// replica (the DDS "unordered" QoS). The stability machinery still runs
    /// to recycle ring slots, but without upcalls.
    OnReceive,
}

/// Toggles for each Spindle optimization (paper §3).
///
/// The all-off configuration is the paper's *baseline* Derecho: one message
/// per predicate firing at every stage, an acknowledgment RDMA write per
/// receive and per delivery, no nulls, and the shared-state lock held across
/// RDMA posting. [`SpindleConfig::optimized`] turns everything on. The
/// evaluation figures toggle the stages incrementally (Figure 5, 11, 12).
/// Both runtimes read every field. Whether the application copies or
/// constructs in place (§3.5) is its own choice, not a protocol toggle:
/// the simulator models it on [`Workload`].
///
/// # Examples
///
/// ```
/// use spindle_core::SpindleConfig;
///
/// let base = SpindleConfig::baseline();
/// assert!(!base.send_batching && !base.null_sends);
/// let opt = SpindleConfig::optimized();
/// assert!(opt.send_batching && opt.null_sends && opt.early_lock_release);
/// let partial = SpindleConfig::baseline().with_delivery_batching();
/// assert!(partial.delivery_batching && !partial.receive_batching);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpindleConfig {
    /// Send predicate aggregates all queued ring slots into 1–2 RDMA writes
    /// per destination (§3.2).
    pub send_batching: bool,
    /// Receive predicate consumes every visible new message per firing and
    /// acknowledges once (§3.2).
    pub receive_batching: bool,
    /// Delivery predicate delivers every stable message per firing and
    /// acknowledges once (§3.2).
    pub delivery_batching: bool,
    /// The null-send scheme (§3.3).
    pub null_sends: bool,
    /// Restructure predicate bodies to post RDMA writes after releasing the
    /// shared-state lock (§3.4).
    pub early_lock_release: bool,
    /// When the application upcall happens.
    pub delivery_timing: DeliveryTiming,
}

impl SpindleConfig {
    /// Pre-Spindle Derecho: every optimization off.
    pub fn baseline() -> Self {
        SpindleConfig {
            send_batching: false,
            receive_batching: false,
            delivery_batching: false,
            null_sends: false,
            early_lock_release: false,
            delivery_timing: DeliveryTiming::Ordered,
        }
    }

    /// Fully optimized Spindle: batching at all stages, null-sends and
    /// early lock release.
    pub fn optimized() -> Self {
        SpindleConfig {
            send_batching: true,
            receive_batching: true,
            delivery_batching: true,
            null_sends: true,
            early_lock_release: true,
            delivery_timing: DeliveryTiming::Ordered,
        }
    }

    /// Batching at all three stages but no nulls and no lock restructuring
    /// (the "with batching" series of Figures 3, 11, 12).
    pub fn batching_only() -> Self {
        SpindleConfig {
            send_batching: true,
            receive_batching: true,
            delivery_batching: true,
            ..SpindleConfig::baseline()
        }
    }

    /// Adds delivery batching (first increment of Figure 5).
    pub fn with_delivery_batching(mut self) -> Self {
        self.delivery_batching = true;
        self
    }

    /// Adds receive batching (second increment of Figure 5).
    pub fn with_receive_batching(mut self) -> Self {
        self.receive_batching = true;
        self
    }

    /// Adds send batching (third increment of Figure 5).
    pub fn with_send_batching(mut self) -> Self {
        self.send_batching = true;
        self
    }

    /// Adds null-sends.
    pub fn with_null_sends(mut self) -> Self {
        self.null_sends = true;
        self
    }

    /// Adds early lock release.
    pub fn with_early_lock_release(mut self) -> Self {
        self.early_lock_release = true;
        self
    }
}

impl Default for SpindleConfig {
    fn default() -> Self {
        SpindleConfig::optimized()
    }
}

/// How one sender behaves in the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SenderActivity {
    /// Sends as fast as the window allows (a tight loop).
    #[default]
    Continuous,
    /// Busy-waits for the given time after each send (Figure 10's 1 µs /
    /// 100 µs delays).
    DelayEach(Duration),
    /// Sends `burst` messages back to back, then pauses (§4.2.3's
    /// "increasingly complex and disruptive delays").
    Bursty {
        /// Messages per burst.
        burst: u64,
        /// Pause between bursts.
        pause: Duration,
    },
    /// A declared sender that never sends (Figure 10's "lengthy delay").
    Inactive,
}

/// The offered load for a run.
///
/// Activities are per `(subgroup, sender rank)`; anything not overridden is
/// [`SenderActivity::Continuous`].
///
/// # Examples
///
/// ```
/// use spindle_core::{SenderActivity, Workload};
/// use std::time::Duration;
///
/// let w = Workload::new(1000, 10 * 1024)
///     .with_activity(0, 1, SenderActivity::DelayEach(Duration::from_micros(100)));
/// assert_eq!(w.activity(0, 0), SenderActivity::Continuous);
/// assert!(matches!(w.activity(0, 1), SenderActivity::DelayEach(_)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// App messages each active sender sends per subgroup it sends in.
    pub msgs_per_sender: u64,
    /// Payload size in bytes.
    pub msg_size: usize,
    /// Injected application processing time per delivered message (§3.5).
    pub upcall_cost: Duration,
    /// The application copies each payload into its ring slot on send
    /// instead of constructing it in place (§3.5, §4.4).
    pub memcpy_on_send: bool,
    /// The application copies each payload out of its ring slot during
    /// the delivery upcall instead of reading it in place (§3.5, §4.4).
    pub memcpy_on_delivery: bool,
    /// Per-(subgroup, rank) activity overrides.
    overrides: Vec<(usize, usize, SenderActivity)>,
}

impl Workload {
    /// A continuous workload of `msgs_per_sender` messages of `msg_size`
    /// bytes from every sender.
    ///
    /// # Panics
    ///
    /// Panics if `msgs_per_sender == 0` or `msg_size == 0`.
    pub fn new(msgs_per_sender: u64, msg_size: usize) -> Self {
        assert!(msgs_per_sender > 0, "workload needs at least one message");
        assert!(msg_size > 0, "message size must be positive");
        Workload {
            msgs_per_sender,
            msg_size,
            upcall_cost: Duration::ZERO,
            memcpy_on_send: false,
            memcpy_on_delivery: false,
            overrides: Vec::new(),
        }
    }

    /// Overrides the activity of sender `rank` in subgroup `sg`.
    pub fn with_activity(mut self, sg: usize, rank: usize, activity: SenderActivity) -> Self {
        self.overrides.push((sg, rank, activity));
        self
    }

    /// Sets the injected per-message upcall processing time.
    pub fn with_upcall_cost(mut self, cost: Duration) -> Self {
        self.upcall_cost = cost;
        self
    }

    /// Copies on both send and delivery (Figure 15).
    pub fn with_memcpy(mut self) -> Self {
        self.memcpy_on_send = true;
        self.memcpy_on_delivery = true;
        self
    }

    /// The activity of sender `rank` in subgroup `sg`.
    pub fn activity(&self, sg: usize, rank: usize) -> SenderActivity {
        self.overrides
            .iter()
            .rev()
            .find(|(s, r, _)| *s == sg && *r == rank)
            .map(|(_, _, a)| *a)
            .unwrap_or_default()
    }

    /// Number of app messages sender `rank` of subgroup `sg` will offer.
    pub fn offered(&self, sg: usize, rank: usize) -> u64 {
        match self.activity(sg, rank) {
            SenderActivity::Inactive => 0,
            _ => self.msgs_per_sender,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_all_off() {
        let b = SpindleConfig::baseline();
        assert!(
            !b.send_batching
                && !b.receive_batching
                && !b.delivery_batching
                && !b.null_sends
                && !b.early_lock_release
        );
        assert_eq!(b.delivery_timing, DeliveryTiming::Ordered);
    }

    #[test]
    fn optimized_is_default() {
        assert_eq!(SpindleConfig::default(), SpindleConfig::optimized());
    }

    #[test]
    fn incremental_builders_compose() {
        let c = SpindleConfig::baseline()
            .with_delivery_batching()
            .with_receive_batching();
        assert!(c.delivery_batching && c.receive_batching && !c.send_batching);
        let c = c
            .with_send_batching()
            .with_null_sends()
            .with_early_lock_release();
        assert_eq!(c, SpindleConfig::optimized());
    }

    #[test]
    fn batching_only_has_no_nulls() {
        let c = SpindleConfig::batching_only();
        assert!(c.send_batching && c.receive_batching && c.delivery_batching);
        assert!(!c.null_sends && !c.early_lock_release);
    }

    #[test]
    fn memcpy_builder() {
        let w = Workload::new(10, 128);
        assert!(!w.memcpy_on_send && !w.memcpy_on_delivery);
        let w = w.with_memcpy();
        assert!(w.memcpy_on_send && w.memcpy_on_delivery);
    }

    #[test]
    fn workload_overrides_latest_wins() {
        let w = Workload::new(10, 128)
            .with_activity(0, 2, SenderActivity::Inactive)
            .with_activity(0, 2, SenderActivity::Continuous);
        assert_eq!(w.activity(0, 2), SenderActivity::Continuous);
        assert_eq!(w.offered(0, 2), 10);
    }

    #[test]
    fn inactive_offers_nothing() {
        let w = Workload::new(10, 128).with_activity(1, 0, SenderActivity::Inactive);
        assert_eq!(w.offered(1, 0), 0);
        assert_eq!(w.offered(0, 0), 10);
    }

    #[test]
    #[should_panic]
    fn zero_messages_rejected() {
        Workload::new(0, 8);
    }
}
