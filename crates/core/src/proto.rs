//! The per-subgroup protocol state machine.
//!
//! This module contains the *decision logic* of the three predicates (paper
//! §2.4, as modified by §3.2/§3.3): given the local SST replica and the
//! node's private bookkeeping, decide what to scan, what to deliver, what to
//! publish, and which word ranges to push — and, in [`SubgroupProto::pass`],
//! the order one pass of the polling loop fires them in. It is pure with
//! respect to time and transport: both runtimes call `pass` from the same
//! node pass; the simulated one charges virtual costs to each outcome and
//! times its writes, and the threaded one copies the deliveries out and
//! posts the writes over its fabric. Keeping one copy of this logic is
//! what makes the correctness tests (threaded, real races) meaningful for
//! the performance model (simulated).
//!
//! # Message numbering
//!
//! Each sender owns two monotonically increasing sequences:
//!
//! * **app indices** `a = 0, 1, ...` — its application messages, stored in
//!   ring slot `a % w`;
//! * **round indices** `k = 0, 1, ...` — its positions in the round-robin
//!   delivery order. Each app message is assigned the next free round at
//!   queue time (slot aux word), and *null* rounds are committed without
//!   slots by bumping the `committed_rounds` counter — the paper's "sends
//!   the determined number of nulls as a single integer" (§3.3).
//!
//! A receiver learns rounds from two monotonic sources: slot scans (app
//! messages) and the committed counter (which, being pushed after the slot
//! data of every app round it covers, is safe by the fabric's write-order
//! fence, §2.2). `received_num` is the prefix-complete sequence number over
//! per-sender round counts, exactly as in §2.2.

use std::ops::Range;

use spindle_membership::{nulls_owed, MsgId, SeqNum, SeqSpace, Subgroup, SubgroupId, View};
use spindle_smc::Ring;
use spindle_sst::Sst;

use crate::config::{DeliveryTiming, SpindleConfig};
use crate::plan::SubgroupCols;

/// One delivered application message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender rank in the subgroup's sender list.
    pub rank: usize,
    /// The sender's app index of this message (`a`-th app message).
    pub app_index: u64,
    /// The round index it occupied.
    pub round: u64,
    /// Global sequence number in the delivery order.
    pub seq: SeqNum,
    /// Payload length in bytes.
    pub len: u32,
    /// Ring slot holding the payload (for zero-copy reads).
    pub slot: usize,
}

/// Result of one receive-predicate firing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecvOutcome {
    /// New rounds observed across all senders.
    pub new_rounds: u64,
    /// App messages newly observed, for unordered delivery: not yet placed
    /// in the total order, so each carries `seq == -1`.
    pub new_app: Vec<Delivery>,
    /// The `received_num` push, if it advanced.
    pub ack: Option<Range<usize>>,
    /// How many acknowledgment pushes to issue (1 when batched; one per
    /// message in the baseline).
    pub ack_pushes: u32,
    /// Null rounds this node just committed in response (§3.3).
    pub nulls_added: u64,
}

/// Result of one send-predicate firing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SendOutcome {
    /// Absolute word ranges of the slot data to push (1 or 2 due to ring
    /// wraparound), to be posted **before** `committed_push`.
    pub slot_ranges: Vec<Range<usize>>,
    /// App messages covered by `slot_ranges`.
    pub app_msgs: u64,
    /// The committed-rounds counter push, if it advanced (posted **after**
    /// the slot data so the fence covers it).
    pub committed_push: Option<Range<usize>>,
}

/// Result of one delivery-predicate firing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// App messages to upcall, in delivery order.
    pub deliveries: Vec<Delivery>,
    /// Null rounds skipped.
    pub nulls_skipped: u64,
    /// The `delivered_num` push, if it advanced.
    pub ack: Option<Range<usize>>,
    /// Acknowledgment pushes to issue (1 when batched; one per consumed
    /// sequence number in the baseline).
    pub ack_pushes: u32,
}

/// The outcomes of one [`SubgroupProto::pass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    /// What the receive predicate found.
    pub recv: RecvOutcome,
    /// What the send predicate pushed; `None` when it had nothing to push
    /// or this node does not send in the subgroup.
    pub send: Option<SendOutcome>,
    /// What the delivery predicate delivered.
    pub deliver: DeliveryOutcome,
}

impl Pass {
    /// Whether the pass did anything — rounds or nulls received, a push
    /// sent, a message or null delivered — and so whether the polling loop
    /// should go round again at once.
    pub fn work(&self) -> bool {
        self.recv.new_rounds > 0
            || self.recv.nulls_added > 0
            || self.send.is_some()
            || !self.deliver.deliveries.is_empty()
            || self.deliver.nulls_skipped > 0
    }

    /// The word ranges to post to every other member, in posting order: the
    /// `received_num` ack `ack_pushes` times, the slot ranges, the committed
    /// counter (after the slots it covers, so the fence orders them), then
    /// the `delivered_num` ack `ack_pushes` times. The repeated acks are the
    /// baseline's one write per message (§3.2).
    pub fn pushes(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let acks = |ack: &Option<Range<usize>>, times| {
            std::iter::repeat_n(ack.clone(), times as usize).flatten()
        };
        let (recv, send, deliver) = (&self.recv, self.send.as_ref(), &self.deliver);
        let slots = send.into_iter().flat_map(|s| s.slot_ranges.iter().cloned());
        let committed = send.and_then(|s| s.committed_push.clone());
        acks(&recv.ack, recv.ack_pushes)
            .chain(slots)
            .chain(committed)
            .chain(acks(&deliver.ack, deliver.ack_pushes))
    }
}

/// Outcome of an application send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOutcome {
    /// The message was placed in a ring slot and assigned a round.
    Queued {
        /// The sender's app index.
        app_index: u64,
        /// The ring slot used.
        slot: usize,
    },
    /// The ring is full: the slot to reuse holds an undelivered message.
    WindowFull,
}

/// Protocol state of one node for one subgroup.
///
/// See the module docs for the numbering scheme. All methods take the
/// node's SST replica explicitly so the state can be driven by either
/// runtime.
#[derive(Debug, Clone)]
pub struct SubgroupProto {
    /// Subgroup id within the view.
    pub sg: SubgroupId,
    /// SST column handles.
    pub cols: SubgroupCols,
    /// Round-robin sequence space over the sender set.
    pub space: SeqSpace,
    /// Ring arithmetic for the window.
    pub ring: Ring,
    /// SST rows of the members.
    pub member_rows: Vec<usize>,
    /// SST rows of the senders, by rank.
    pub sender_rows: Vec<usize>,
    /// This node's sender rank, if it is a sender here.
    pub my_sender_rank: Option<usize>,

    // -- sender side --
    /// App messages queued locally (slots written).
    pub app_sent: u64,
    /// App messages whose slots have been pushed to the wire.
    pub app_wired: u64,
    /// Next round index to allocate (committed rounds incl. queued + nulls).
    pub round_next: u64,
    /// Last pushed value of the committed counter.
    pub committed_pushed: u64,
    /// Round index of the app message in each ring slot (for reuse checks).
    pub round_of_slot: Vec<u64>,

    // -- receiver side --
    /// Per sender rank: app messages observed (scan pointer).
    pub app_seen: Vec<u64>,
    /// Per sender rank: rounds known received.
    pub rounds_seen: Vec<u64>,
    /// This node's published `received_num`.
    pub received_num: SeqNum,
    /// This node's published `delivered_num`.
    pub delivered_num: SeqNum,
    /// Per sender rank: app messages consumed by delivery.
    pub app_consumed: Vec<u64>,
}

impl SubgroupProto {
    /// Builds the state for `node_row`'s membership in subgroup `sg` of
    /// `view`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a member of the subgroup or the subgroup
    /// has no senders.
    pub fn new(view: &View, sg: SubgroupId, cols: SubgroupCols, node_row: usize) -> Self {
        let subgroup: &Subgroup = view.subgroup(sg);
        let me = spindle_fabric::NodeId(node_row);
        assert!(
            subgroup.member_rank(me).is_some(),
            "node {node_row} is not a member of {sg}"
        );
        let s = subgroup.num_senders();
        assert!(s > 0, "subgroup {sg} has no senders");
        SubgroupProto {
            sg,
            cols,
            space: subgroup.seq_space(),
            ring: Ring::new(subgroup.window),
            member_rows: subgroup.members.iter().map(|n| n.0).collect(),
            sender_rows: subgroup.senders.iter().map(|n| n.0).collect(),
            my_sender_rank: subgroup.sender_rank(me),
            app_sent: 0,
            app_wired: 0,
            round_next: 0,
            committed_pushed: 0,
            round_of_slot: vec![0; subgroup.window],
            app_seen: vec![0; s],
            rounds_seen: vec![0; s],
            received_num: -1,
            delivered_num: -1,
            app_consumed: vec![0; s],
        }
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.sender_rows.len()
    }

    /// All-member minimum of `delivered_num` from the local replica — the
    /// slot-reuse frontier.
    pub fn min_delivered(&self, sst: &Sst) -> SeqNum {
        sst.min_counter(self.cols.deliv, self.member_rows.iter().copied())
    }

    /// All-member minimum of `received_num` — the stability frontier the
    /// delivery predicate uses.
    pub fn min_received(&self, sst: &Sst) -> SeqNum {
        sst.min_counter(self.cols.recv, self.member_rows.iter().copied())
    }

    /// Attempts to queue one application message of `len` bytes (with
    /// optional real payload bytes). On success the slot is written locally;
    /// the send predicate pushes it later.
    ///
    /// # Panics
    ///
    /// Panics if this node is not a sender in the subgroup.
    pub fn try_queue_app(&mut self, sst: &Sst, len: u32, payload: Option<&[u8]>) -> QueueOutcome {
        let rank = self.my_sender_rank.expect("not a sender in this subgroup");
        let a = self.app_sent;
        let w = self.ring.window() as u64;
        if a >= w {
            // Reusing the slot of app message a-w: it must be delivered by
            // every member.
            let prior_round = self.round_of_slot[((a - w) % w) as usize];
            let prior_seq = self.space.seq_of(MsgId {
                rank,
                index: prior_round,
            });
            if prior_seq > self.min_delivered(sst) {
                return QueueOutcome::WindowFull;
            }
        }
        let round = self.round_next;
        let slot = self.ring.slot_of(a);
        let gen = self.ring.gen_of(a);
        match payload {
            Some(bytes) => {
                debug_assert_eq!(bytes.len(), len as usize);
                sst.write_slot(self.cols.slots, slot, gen, round, bytes);
            }
            None => {
                sst.write_slot_meta(self.cols.slots, slot, gen, len, round);
            }
        }
        self.round_of_slot[slot] = round;
        self.app_sent = a + 1;
        self.round_next = round + 1;
        // Own messages are received locally the moment they are queued.
        self.rounds_seen[rank] = self.round_next;
        self.app_seen[rank] = self.app_sent;
        QueueOutcome::Queued { app_index: a, slot }
    }

    /// One pass of the polling loop over this subgroup (§2.4): the receive,
    /// send and delivery predicates in that order, as `cfg` configures them.
    /// The send predicate fires only where this node sends. Every runtime
    /// drives the protocol through this call and then posts
    /// [`Pass::pushes`].
    pub fn pass(&mut self, sst: &Sst, cfg: &SpindleConfig) -> Pass {
        let collect = cfg.delivery_timing == DeliveryTiming::OnReceive;
        let recv = self.receive_predicate(sst, cfg.receive_batching, cfg.null_sends, collect);
        let send = self
            .my_sender_rank
            .and_then(|_| self.send_predicate(sst, cfg.send_batching, cfg.null_sends));
        let deliver = self.delivery_predicate(sst, cfg.delivery_batching);
        Pass {
            recv,
            send,
            deliver,
        }
    }

    /// The receive predicate (§2.4, §3.2): scans the senders' slots and the
    /// committed counters, advances `received_num`, and computes the nulls
    /// this node owes (§3.3).
    ///
    /// With `batched = false` (baseline) at most one new round per sender is
    /// consumed per firing and one acknowledgment is issued per consumed
    /// round; with `batched = true` everything visible is consumed and
    /// acknowledged once.
    pub fn receive_predicate(
        &mut self,
        sst: &Sst,
        batched: bool,
        null_sends: bool,
        collect_new_app: bool,
    ) -> RecvOutcome {
        let mut out = RecvOutcome::default();
        let mut newest: Option<MsgId> = None;
        let w = self.ring.window();
        for j in 0..self.num_senders() {
            if Some(j) == self.my_sender_rank {
                // Own state is locally visible; kept in sync at queue time.
                continue;
            }
            let row = self.sender_rows[j];
            // 1. Read the committed counter (null carrier / sender batch)
            // *before* the scan. A sender pushes a slot before the
            // committed value that covers it and posts to one destination
            // are fenced, so every app round below a value read here is in
            // a slot the scan below sees. Read after the scan, the counter
            // could cover slots that landed in between: the rounds get
            // delivered, the slots reused, and the scan pointer waits
            // forever at a slot that holds the next lap's generation.
            let committed = sst.counter(self.cols.committed, row).max(0) as u64;
            // 2. Scan slots for new app messages (stop at first gap).
            let scan_cap = if batched { w } else { 1 };
            let mut last_scanned_round: Option<u64> = None;
            let mut scanned = 0usize;
            while scanned < scan_cap {
                let a = self.app_seen[j];
                let slot = self.ring.slot_of(a);
                let h = sst.slot_header(self.cols.slots, row, slot);
                if h.gen != self.ring.gen_of(a) {
                    break;
                }
                let round = sst.slot_aux(self.cols.slots, row, slot);
                if collect_new_app {
                    out.new_app.push(Delivery {
                        rank: j,
                        app_index: a,
                        round,
                        seq: -1,
                        len: h.len,
                        slot,
                    });
                }
                last_scanned_round = Some(round);
                self.app_seen[j] = a + 1;
                scanned += 1;
            }
            // 3. Merge the two sources of rounds.
            let mut target = self.rounds_seen[j]
                .max(committed)
                .max(last_scanned_round.map_or(0, |r| r + 1));
            if !batched {
                // Baseline: at most one new round per sender per firing.
                target = target.min(self.rounds_seen[j] + 1);
            }
            if target > self.rounds_seen[j] {
                out.new_rounds += target - self.rounds_seen[j];
                self.rounds_seen[j] = target;
                let cand = MsgId {
                    rank: j,
                    index: target - 1,
                };
                newest = Some(match newest {
                    Some(n) if self.space.seq_of(n) >= self.space.seq_of(cand) => n,
                    _ => cand,
                });
            }
        }
        // 4. Null duty (§3.3): respond to the newest received message.
        if null_sends {
            if let (Some(rank), Some(newest)) = (self.my_sender_rank, newest) {
                let owed = nulls_owed(&self.space, rank, self.round_next, newest);
                if owed > 0 {
                    self.round_next += owed;
                    self.rounds_seen[rank] = self.round_next;
                    out.nulls_added = owed;
                }
            }
        }
        // 5. Publish received_num if the prefix advanced.
        let rn = self.space.prefix_complete(&self.rounds_seen);
        if rn > self.received_num {
            self.received_num = rn;
            out.ack = Some(sst.set_counter(self.cols.recv, rn));
            out.ack_pushes = if batched {
                1
            } else {
                out.new_rounds.max(1) as u32
            };
        }
        out
    }

    /// The send predicate (§2.4, §3.2): pushes queued ring slots (all of
    /// them when `batched`, one message otherwise) and then the committed
    /// counter when null rounds or batched sends require it.
    ///
    /// Returns `None` when there is nothing to push.
    pub fn send_predicate(
        &mut self,
        sst: &Sst,
        batched: bool,
        push_committed: bool,
    ) -> Option<SendOutcome> {
        let hi = if batched {
            self.app_sent
        } else {
            self.app_sent.min(self.app_wired + 1)
        };
        let mut out = SendOutcome::default();
        if hi > self.app_wired {
            let lo = self.app_wired;
            for r in self.ring.contiguous_slot_ranges(lo, hi) {
                out.slot_ranges
                    .push(sst.own_slots_range(self.cols.slots, r.start, r.end));
            }
            out.app_msgs = hi - lo;
            self.app_wired = hi;
        }
        if push_committed {
            // Only rounds whose app slots are already wired may be declared
            // committed (the fence argument of the module docs).
            let pushable = if self.app_wired == self.app_sent {
                self.round_next
            } else {
                self.round_of_slot[self.ring.slot_of(self.app_wired)]
            };
            // Receivers already infer every round up to the last wired app
            // message from the slot scan itself, so the counter write is
            // only worth a post when *null* rounds extend past that point —
            // this keeps the null scheme's overhead at zero under
            // continuous traffic (§3.3's low-overhead property).
            let implied_by_slots = if self.app_wired > 0 {
                self.round_of_slot[self.ring.slot_of(self.app_wired - 1)] + 1
            } else {
                0
            };
            if pushable > self.committed_pushed {
                self.committed_pushed = pushable;
                if pushable > implied_by_slots {
                    out.committed_push =
                        Some(sst.set_counter(self.cols.committed, pushable as i64));
                } else {
                    // Keep the local SST value current even when not pushed.
                    sst.set_counter(self.cols.committed, pushable as i64);
                }
            }
        }
        if out.slot_ranges.is_empty() && out.committed_push.is_none() {
            None
        } else {
            Some(out)
        }
    }

    /// The delivery predicate (§2.4, §3.2): delivers every message that has
    /// become stable (all when `batched`, one sequence number otherwise),
    /// classifying each round as an app message or a null.
    pub fn delivery_predicate(&mut self, sst: &Sst, batched: bool) -> DeliveryOutcome {
        let stable = self.min_received(sst);
        self.deliver_range(sst, stable, batched)
    }

    /// View-change epilogue (§2.1's ragged trim): delivers everything up to
    /// the agreed `cut`, regardless of the locally visible stability
    /// frontier. Sound only when the caller has computed `cut` as the
    /// minimum `received_num` over the *surviving* members — this node's
    /// own `received_num` is part of that minimum, so all the data is
    /// locally present.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `cut` exceeds this node's `received_num`.
    pub fn deliver_through(&mut self, sst: &Sst, cut: SeqNum) -> DeliveryOutcome {
        debug_assert!(
            cut <= self.received_num,
            "trim {cut} beyond local receive frontier {}",
            self.received_num
        );
        self.deliver_range(sst, cut, true)
    }

    /// Own app messages not yet consumed by delivery, as
    /// `(app_index, payload)` — what a surviving sender must resend in the
    /// next view (§2.1).
    pub fn undelivered_own(&self, sst: &Sst) -> Vec<(u64, Vec<u8>)> {
        let Some(rank) = self.my_sender_rank else {
            return Vec::new();
        };
        let row = self.sender_rows[rank];
        (self.app_consumed[rank]..self.app_sent)
            .map(|a| {
                let slot = self.ring.slot_of(a);
                let h = sst.slot_header(self.cols.slots, row, slot);
                debug_assert_eq!(h.gen, self.ring.gen_of(a), "undelivered slot was reused");
                (
                    a,
                    sst.read_slot_with_len(self.cols.slots, row, slot, h.len as usize),
                )
            })
            .collect()
    }

    fn deliver_range(&mut self, sst: &Sst, stable: SeqNum, batched: bool) -> DeliveryOutcome {
        let mut out = DeliveryOutcome::default();
        if stable <= self.delivered_num {
            return out;
        }
        let hi = if batched {
            stable
        } else {
            self.delivered_num + 1
        };
        let mut consumed = 0u32;
        for seq in (self.delivered_num + 1)..=hi {
            let m = self.space.msg_of(seq);
            let row = self.sender_rows[m.rank];
            let a = self.app_consumed[m.rank];
            let slot = self.ring.slot_of(a);
            let h = sst.slot_header(self.cols.slots, row, slot);
            let is_app =
                h.gen == self.ring.gen_of(a) && sst.slot_aux(self.cols.slots, row, slot) == m.index;
            if is_app {
                self.app_consumed[m.rank] = a + 1;
                out.deliveries.push(Delivery {
                    rank: m.rank,
                    app_index: a,
                    round: m.index,
                    seq,
                    len: h.len,
                    slot,
                });
            } else {
                // A null round: either no slot claims it (gap) or the next
                // unconsumed app message is from a later round.
                debug_assert!(
                    h.gen != self.ring.gen_of(a)
                        || sst.slot_aux(self.cols.slots, row, slot) > m.index,
                    "delivery misclassification at seq {seq}"
                );
                out.nulls_skipped += 1;
            }
            consumed += 1;
        }
        self.delivered_num = hi;
        out.ack = Some(sst.set_counter(self.cols.deliv, hi));
        out.ack_pushes = if batched { 1 } else { consumed.max(1) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use proptest::prelude::*;
    use spindle_fabric::{MemFabric, NodeId, WriteOp};
    use spindle_membership::ViewBuilder;
    use std::collections::HashMap;

    /// A little harness: n nodes over a MemFabric with instant delivery, so
    /// predicate logic can be stepped manually and deterministically.
    struct Mini {
        view: View,
        plan: Plan,
        fabric: MemFabric,
        ssts: Vec<Sst>,
        protos: Vec<SubgroupProto>, // one per node, single subgroup
        /// Every push broadcast so far, as `(src, range)`, in posting order.
        posted: Vec<(usize, Range<usize>)>,
    }

    impl Mini {
        fn new(n: usize, senders: &[usize], window: usize) -> Mini {
            let members: Vec<usize> = (0..n).collect();
            let view = ViewBuilder::new(n)
                .subgroup(&members, senders, window, 64)
                .build()
                .unwrap();
            let plan = Plan::build(&view, true);
            let fabric = MemFabric::new(n, plan.layout.region_words());
            let ssts: Vec<Sst> = (0..n)
                .map(|i| {
                    let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(i)), i);
                    sst.init();
                    sst
                })
                .collect();
            let protos = (0..n)
                .map(|i| SubgroupProto::new(&view, SubgroupId(0), plan.cols[0], i))
                .collect();
            Mini {
                view,
                plan,
                fabric,
                ssts,
                protos,
                posted: Vec::new(),
            }
        }

        /// Posts a push from `src` to every other member instantly.
        fn broadcast(&mut self, src: usize, range: Range<usize>) {
            for &m in self.view.subgroup(SubgroupId(0)).members.iter() {
                if m.0 != src {
                    self.fabric
                        .post(NodeId(src), &WriteOp::new(m, range.clone()));
                }
            }
            self.posted.push((src, range));
        }

        fn queue(&mut self, node: usize, payload: &[u8]) -> QueueOutcome {
            let sst = self.ssts[node].clone();
            self.protos[node].try_queue_app(&sst, payload.len() as u32, Some(payload))
        }

        fn pump_send(&mut self, node: usize) {
            let sst = self.ssts[node].clone();
            if let Some(s) = self.protos[node].send_predicate(&sst, true, true) {
                for r in s.slot_ranges {
                    self.broadcast(node, r);
                }
                if let Some(c) = s.committed_push {
                    self.broadcast(node, c);
                }
            }
        }

        fn pump_recv(&mut self, node: usize, nulls: bool) -> RecvOutcome {
            let sst = self.ssts[node].clone();
            let out = self.protos[node].receive_predicate(&sst, true, nulls, false);
            if let Some(a) = &out.ack {
                self.broadcast(node, a.clone());
            }
            out
        }

        fn pump_deliver(&mut self, node: usize) -> DeliveryOutcome {
            let sst = self.ssts[node].clone();
            let out = self.protos[node].delivery_predicate(&sst, true);
            if let Some(a) = &out.ack {
                self.broadcast(node, a.clone());
            }
            out
        }

        /// One pass at every node, each posting its writes as it ends.
        fn pump_all(&mut self, cfg: &SpindleConfig) -> Vec<Pass> {
            let mut passes = Vec::new();
            for n in 0..self.ssts.len() {
                let sst = self.ssts[n].clone();
                let pass = self.protos[n].pass(&sst, cfg);
                for range in pass.pushes() {
                    self.broadcast(n, range);
                }
                passes.push(pass);
            }
            passes
        }

        /// [`Mini::pump_all`] spelled out: the three predicates called one
        /// by one, each one's writes posted — and so each counter read —
        /// right after it, acks repeated per `ack_pushes`.
        fn pump_all_by_hand(&mut self, cfg: &SpindleConfig) -> Vec<Pass> {
            let mut passes = Vec::new();
            for n in 0..self.ssts.len() {
                let sst = self.ssts[n].clone();
                let collect = cfg.delivery_timing == DeliveryTiming::OnReceive;
                let recv = self.protos[n].receive_predicate(
                    &sst,
                    cfg.receive_batching,
                    cfg.null_sends,
                    collect,
                );
                for _ in 0..recv.ack_pushes {
                    self.broadcast(n, recv.ack.clone().unwrap());
                }
                let mut send = None;
                if self.protos[n].my_sender_rank.is_some() {
                    send = self.protos[n].send_predicate(&sst, cfg.send_batching, cfg.null_sends);
                    if let Some(s) = &send {
                        for r in s.slot_ranges.iter().chain(&s.committed_push) {
                            self.broadcast(n, r.clone());
                        }
                    }
                }
                let deliver = self.protos[n].delivery_predicate(&sst, cfg.delivery_batching);
                for _ in 0..deliver.ack_pushes {
                    self.broadcast(n, deliver.ack.clone().unwrap());
                }
                passes.push(Pass {
                    recv,
                    send,
                    deliver,
                });
            }
            passes
        }

        /// Every node's whole region.
        fn regions(&self) -> Vec<Vec<u64>> {
            (0..self.ssts.len())
                .map(|i| {
                    let region = self.fabric.region_arc(NodeId(i));
                    region.snapshot(0, region.len())
                })
                .collect()
        }
    }

    #[test]
    fn single_sender_end_to_end() {
        let mut m = Mini::new(3, &[0], 4);
        assert!(matches!(m.queue(0, b"hello"), QueueOutcome::Queued { .. }));
        m.pump_send(0);
        // Receivers observe and ack.
        for n in 0..3 {
            m.pump_recv(n, false);
        }
        // Everyone delivers in order.
        for n in 0..3 {
            let d = m.pump_deliver(n);
            assert_eq!(d.deliveries.len(), 1);
            let del = &d.deliveries[0];
            assert_eq!((del.rank, del.app_index, del.seq), (0, 0, 0));
            assert_eq!(
                m.ssts[n].read_slot_with_len(
                    m.plan.cols[0].slots,
                    m.protos[n].sender_rows[0],
                    del.slot,
                    del.len as usize
                ),
                b"hello"
            );
        }
    }

    #[test]
    fn two_senders_round_robin_order() {
        let mut m = Mini::new(2, &[0, 1], 8);
        // Node 1 queues two messages, node 0 one.
        m.queue(1, b"b0");
        m.queue(1, b"b1");
        m.queue(0, b"a0");
        m.pump_send(0);
        m.pump_send(1);
        for n in 0..2 {
            m.pump_recv(n, false);
        }
        let d0 = m.pump_deliver(0);
        let d1 = m.pump_deliver(1);
        // Round 0 = {a0, b0}; round 1 has only b1 which needs node 0's
        // round-1 message (or a null) — not deliverable yet.
        let order: Vec<(usize, u64)> = d0
            .deliveries
            .iter()
            .map(|d| (d.rank, d.app_index))
            .collect();
        assert_eq!(order, vec![(0, 0), (1, 0)]);
        assert_eq!(
            d1.deliveries
                .iter()
                .map(|d| (d.rank, d.app_index))
                .collect::<Vec<_>>(),
            order
        );
    }

    #[test]
    fn without_nulls_lagging_sender_stalls_delivery() {
        let mut m = Mini::new(2, &[0, 1], 8);
        m.queue(1, b"x0");
        m.queue(1, b"x1");
        m.pump_send(1);
        m.pump_recv(0, false);
        m.pump_recv(1, false);
        // Round 0 needs node 0's message; nothing can deliver.
        assert_eq!(m.pump_deliver(0).deliveries.len(), 0);
        assert_eq!(m.pump_deliver(1).deliveries.len(), 0);
    }

    #[test]
    fn null_sends_unblock_lagging_sender() {
        let mut m = Mini::new(2, &[0, 1], 8);
        // Only node 1 sends; node 0 is a lagging sender.
        m.queue(1, b"x0");
        m.queue(1, b"x1");
        m.pump_send(1);
        // Node 0's receive predicate owes nulls for rounds 0 and 1.
        let out = m.pump_recv(0, true);
        assert_eq!(out.nulls_added, 2);
        m.pump_send(0); // pushes the committed counter only
        m.pump_recv(1, true);
        m.pump_recv(0, true);
        let d1 = m.pump_deliver(1);
        let d0 = m.pump_deliver(0);
        assert_eq!(d1.deliveries.len(), 2);
        assert_eq!(d1.nulls_skipped, 2);
        assert_eq!(d0.deliveries.len(), 2);
        // Nulls never reach the application.
        assert!(d1.deliveries.iter().all(|d| d.len > 0));
    }

    #[test]
    fn quiescence_no_traffic_no_nulls() {
        let mut m = Mini::new(3, &[0, 1, 2], 4);
        for _ in 0..5 {
            for n in 0..3 {
                let out = m.pump_recv(n, true);
                assert_eq!(out.nulls_added, 0);
                assert_eq!(out.new_rounds, 0);
            }
        }
    }

    #[test]
    fn window_fills_and_frees() {
        let mut m = Mini::new(2, &[0, 1], 2);
        // Fill node 0's window (w=2).
        assert!(matches!(m.queue(0, b"m0"), QueueOutcome::Queued { .. }));
        assert!(matches!(m.queue(0, b"m1"), QueueOutcome::Queued { .. }));
        assert_eq!(m.queue(0, b"m2"), QueueOutcome::WindowFull);
        // Let node 1 match rounds via nulls and deliver everywhere.
        m.pump_send(0);
        for _ in 0..4 {
            m.pump_all(&SpindleConfig::optimized());
        }
        // Slot 0 is now free.
        assert!(matches!(m.queue(0, b"m2"), QueueOutcome::Queued { .. }));
    }

    #[test]
    fn baseline_consumes_one_message_per_firing() {
        let mut m = Mini::new(2, &[0], 8);
        for i in 0..3 {
            m.queue(0, format!("m{i}").as_bytes());
        }
        m.pump_send(0);
        let sst = m.ssts[1].clone();
        // Baseline receive: one round per firing.
        let r1 = m.protos[1].receive_predicate(&sst, false, false, false);
        assert_eq!(r1.new_rounds, 1);
        let r2 = m.protos[1].receive_predicate(&sst, false, false, false);
        assert_eq!(r2.new_rounds, 1);
        // Batched receive: the rest at once.
        let r3 = m.protos[1].receive_predicate(&sst, true, false, false);
        assert_eq!(r3.new_rounds, 1);
        assert_eq!(m.protos[1].rounds_seen[0], 3);
    }

    #[test]
    fn baseline_send_one_message_per_firing() {
        let mut m = Mini::new(2, &[0], 8);
        m.queue(0, b"a");
        m.queue(0, b"b");
        let sst = m.ssts[0].clone();
        let s1 = m.protos[0].send_predicate(&sst, false, false).unwrap();
        assert_eq!(s1.app_msgs, 1);
        let s2 = m.protos[0].send_predicate(&sst, false, false).unwrap();
        assert_eq!(s2.app_msgs, 1);
        assert!(m.protos[0].send_predicate(&sst, false, false).is_none());
    }

    #[test]
    fn send_batch_wraps_ring_into_two_ranges() {
        let mut m = Mini::new(2, &[0, 1], 4);
        // Consume a full window first so the next batch wraps.
        for i in 0..4 {
            m.queue(0, format!("x{i}").as_bytes());
        }
        m.pump_send(0);
        for _ in 0..4 {
            m.pump_all(&SpindleConfig::optimized());
        }
        // Queue 3 messages spanning the wrap (indices 4,5,6 -> slots 0,1,2
        // after 4..8... actually indices 4..7 -> slots 0..3: no wrap; make
        // indices 6,7,8 by sending 2 more first).
        m.queue(0, b"y0");
        m.queue(0, b"y1");
        m.pump_send(0);
        for _ in 0..4 {
            m.pump_all(&SpindleConfig::optimized());
        }
        m.queue(0, b"z0"); // index 6, slot 2
        m.queue(0, b"z1"); // index 7, slot 3
        m.queue(0, b"z2"); // index 8, slot 0 -> wrap
        let sst = m.ssts[0].clone();
        let s = m.protos[0].send_predicate(&sst, true, true).unwrap();
        assert_eq!(s.app_msgs, 3);
        assert_eq!(s.slot_ranges.len(), 2);
    }

    #[test]
    fn committed_counter_waits_for_unwired_slots() {
        let mut m = Mini::new(2, &[0, 1], 8);
        m.queue(0, b"app0");
        let sst = m.ssts[0].clone();
        // Baseline-style partial wire: nothing wired yet, then receive
        // predicate adds nulls *after* the app message.
        m.queue(1, b"peer");
        m.pump_send(1);
        let r = m.protos[0].receive_predicate(&sst, true, true, false);
        // Own round 0 is the app message (queued before peer's arrival was
        // processed): rank 0 < rank 1 so no null owed for round 0.
        assert_eq!(r.nulls_added, 0);
        // Partial send flush in baseline mode with committed push: the
        // slot write itself already implies round 0, so no counter write is
        // spent on it (the §3.3 low-overhead property).
        let s = m.protos[0].send_predicate(&sst, false, true).unwrap();
        assert_eq!(s.app_msgs, 1);
        assert!(s.committed_push.is_none());
        // A trailing null, however, must be pushed as the single integer.
        m.protos[0].round_next += 1; // simulate one owed null
        let s2 = m.protos[0].send_predicate(&sst, false, true).unwrap();
        assert!(s2.committed_push.is_some());
    }

    #[test]
    fn delivery_batched_vs_single() {
        let mut m = Mini::new(2, &[0], 4);
        for i in 0..3 {
            m.queue(0, format!("m{i}").as_bytes());
        }
        m.pump_send(0);
        // Node 0 publishes its own received_num (it "received" its own
        // queued messages), node 1 consumes all three rounds.
        m.pump_recv(0, false);
        m.pump_recv(1, false);
        let sst = m.ssts[1].clone();
        // Baseline: one per firing.
        let d1 = m.protos[1].delivery_predicate(&sst, false);
        assert_eq!(d1.deliveries.len(), 1);
        let d2 = m.protos[1].delivery_predicate(&sst, true);
        assert_eq!(d2.deliveries.len(), 2);
    }

    #[test]
    fn undelivered_own_recovers_queued_payloads() {
        let mut m = Mini::new(2, &[0, 1], 8);
        m.queue(0, b"will-deliver");
        m.pump_send(0);
        // Let round 0 deliver everywhere (node 1 fills with a null).
        for _ in 0..4 {
            m.pump_all(&SpindleConfig::optimized());
        }
        // Queue two more that never get a chance to stabilize.
        m.queue(0, b"stuck-1");
        m.queue(0, b"stuck-2");
        let sst = m.ssts[0].clone();
        let undelivered = m.protos[0].undelivered_own(&sst);
        assert_eq!(undelivered.len(), 2);
        assert_eq!(undelivered[0].1, b"stuck-1");
        assert_eq!(undelivered[1].1, b"stuck-2");
        // Non-senders recover nothing.
        let sst1 = m.ssts[1].clone();
        let p1_undelivered = m.protos[1].undelivered_own(&sst1);
        // Node 1 only committed a null round; no app payloads.
        assert!(p1_undelivered.is_empty());
    }

    #[test]
    fn deliver_through_respects_cut() {
        let mut m = Mini::new(2, &[0], 8);
        for i in 0..4 {
            m.queue(0, format!("m{i}").as_bytes());
        }
        m.pump_send(0);
        m.pump_recv(0, false);
        m.pump_recv(1, false);
        // Trim at seq 1: exactly two messages deliver, the rest are
        // discarded territory.
        let sst = m.ssts[1].clone();
        let out = m.protos[1].deliver_through(&sst, 1);
        assert_eq!(out.deliveries.len(), 2);
        assert_eq!(m.protos[1].delivered_num, 1);
        // Idempotent at the same cut.
        let again = m.protos[1].deliver_through(&sst, 1);
        assert!(again.deliveries.is_empty());
    }

    #[test]
    fn received_num_requires_all_senders() {
        let mut m = Mini::new(3, &[0, 1], 8);
        m.queue(0, b"only");
        m.pump_send(0);
        let out = m.pump_recv(2, false);
        // Node 2 saw M(0,0) but nothing from sender 1: prefix stays at 0's
        // message only -> received_num = seq 0.
        assert_eq!(out.new_rounds, 1);
        assert_eq!(m.protos[2].received_num, 0);
        // Delivery: seq 0 stable only when everyone acked; nodes 0,1 haven't
        // published received_num yet, so min is -1.
        let d = m.pump_deliver(2);
        assert!(d.deliveries.is_empty());
    }

    #[test]
    fn pass_matches_the_three_predicates_in_order() {
        for toggles in 0..32u32 {
            for timing in [DeliveryTiming::Ordered, DeliveryTiming::OnReceive] {
                let on = |bit: u32| toggles & (1 << bit) != 0;
                let cfg = SpindleConfig {
                    send_batching: on(0),
                    receive_batching: on(1),
                    delivery_batching: on(2),
                    null_sends: on(3),
                    early_lock_release: on(4),
                    delivery_timing: timing,
                };
                let mut by_pass = Mini::new(3, &[0, 1, 2], 4);
                let mut by_hand = Mini::new(3, &[0, 1, 2], 4);
                let mut delivered = 0;
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(toggles);
                for round in 0..60 {
                    for node in 0..3 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Node 2 sends rarely, so the others owe it nulls.
                        let burst = if node == 2 {
                            u64::from(x.is_multiple_of(8))
                        } else {
                            x % 3
                        };
                        for i in 0..burst {
                            let payload = format!("{node}/{round}/{i}");
                            let queued = by_pass.queue(node, payload.as_bytes());
                            assert_eq!(queued, by_hand.queue(node, payload.as_bytes()));
                        }
                    }
                    let passes = by_pass.pump_all(&cfg);
                    let at = format!("{cfg:?}, round {round}");
                    assert_eq!(passes, by_hand.pump_all_by_hand(&cfg), "{at}");
                    assert_eq!(by_pass.posted, by_hand.posted, "{at}");
                    assert_eq!(by_pass.regions(), by_hand.regions(), "{at}");
                    delivered += passes
                        .iter()
                        .map(|p| p.deliver.deliveries.len())
                        .sum::<usize>();
                }
                assert!(delivered > 0, "{cfg:?} delivered nothing");
            }
        }
    }

    proptest! {
        /// The slot-reuse rule of `try_queue_app`, checked against the seqs
        /// the receivers' `Delivery` records carry — not against
        /// `round_of_slot`. Null sends are on, so a sender that falls
        /// behind commits null rounds and its app index `a` sits at a later
        /// round than `a` (§3.3). Over random interleavings of queues,
        /// receive+send passes and delivery passes at random nodes:
        /// (a) app message `a >= w` is `Queued` only once app message
        ///     `a - w` has been delivered at every member;
        /// (b) `WindowFull` only while the sender's replica shows some
        ///     member's `delivered_num` below that message's seq.
        #[test]
        fn slot_reuse_waits_for_delivery_everywhere(
            n in 2usize..5,
            w in 1usize..4,
            ops in prop::collection::vec((0u8..3, 0usize..4), 1..160),
        ) {
            let mut m = Mini::new(n, &(0..n).collect::<Vec<_>>(), w);
            let deliv = m.plan.cols[0].deliv;
            // Per node: the seq each (rank, app index) was delivered at.
            let mut delivered: Vec<HashMap<(usize, u64), SeqNum>> = vec![HashMap::new(); n];
            for (op, node) in ops {
                let node = node % n;
                match op {
                    0 => {
                        let rank = m.protos[node].my_sender_rank.unwrap();
                        let a = m.protos[node].app_sent;
                        let outcome = m.queue(node, b"m");
                        let Some(prior_index) = a.checked_sub(w as u64) else {
                            prop_assert_ne!(outcome, QueueOutcome::WindowFull);
                            continue;
                        };
                        let prior = (rank, prior_index);
                        let seq = delivered.iter().find_map(|d| d.get(&prior).copied());
                        if outcome != QueueOutcome::WindowFull {
                            prop_assert!(
                                delivered.iter().all(|d| d.contains_key(&prior)),
                                "node {node} queued app {a} over undelivered {prior:?}"
                            );
                        } else if let Some(seq) = seq {
                            // Delivered nowhere means every member is below it.
                            let sst = &m.ssts[node];
                            prop_assert!(
                                m.protos[node].member_rows.iter().any(|&r| sst.counter(deliv, r) < seq),
                                "node {node} refused app {a} though {prior:?} (seq {seq}) is delivered"
                            );
                        }
                    }
                    1 => {
                        m.pump_recv(node, true);
                        m.pump_send(node);
                    }
                    _ => {
                        for d in m.pump_deliver(node).deliveries {
                            delivered[node].insert((d.rank, d.app_index), d.seq);
                        }
                    }
                }
            }
        }
    }
}
