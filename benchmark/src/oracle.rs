//! The output check every workload runs on every delivery: per-sender FIFO
//! without gaps or duplicates, one total order at all members, and the bytes
//! that were sent. Ordering violations and wrong payloads are counted apart.

/// Deliveries between two total-order checkpoints.
const CHECKPOINT_EVERY: u64 = 4096;

/// Per-node delivery bookkeeping for one subgroup.
pub struct Oracle {
    /// `next[node][sender]`: the app index the node must deliver next.
    next: Vec<Vec<u64>>,
    /// Rolling hash of the `(sender_rank, app_index)` sequence per node.
    hash: Vec<u64>,
    delivered: Vec<u64>,
    /// The rolling hash every [`CHECKPOINT_EVERY`] deliveries, so orders can
    /// be compared over the common prefix when a node ends short.
    checkpoints: Vec<Vec<u64>>,
    violations: u64,
    wrong_payloads: u64,
    first: Option<String>,
}

impl Oracle {
    /// An oracle for `nodes` members and `senders` sender ranks.
    pub fn new(nodes: usize, senders: usize) -> Oracle {
        Oracle {
            next: vec![vec![0; senders]; nodes],
            hash: vec![0xcbf2_9ce4_8422_2325; nodes],
            delivered: vec![0; nodes],
            checkpoints: vec![Vec::new(); nodes],
            violations: 0,
            wrong_payloads: 0,
            first: None,
        }
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.first.is_none() {
            self.first = Some(what());
        }
    }

    fn violation(&mut self, what: impl FnOnce() -> String) {
        self.violations += 1;
        self.note(what);
    }

    /// Checks one delivery at `node`. `payload_ok` is the caller's verdict
    /// on the payload bytes.
    pub fn observe(&mut self, node: usize, sender: usize, app_index: u64, payload_ok: bool) {
        if !payload_ok {
            self.wrong_payloads += 1;
            self.note(|| format!("node {node}: wrong payload bytes from {sender}#{app_index}"));
        }
        let Some(expect) = self.next[node].get(sender).copied() else {
            self.violation(|| format!("node {node}: unknown sender rank {sender}"));
            return;
        };
        if app_index != expect {
            self.violation(|| {
                let kind = if app_index < expect {
                    "duplicate"
                } else {
                    "gap"
                };
                format!(
                    "node {node}: {kind} from sender {sender}: got #{app_index}, want #{expect}"
                )
            });
        }
        self.next[node][sender] = expect.max(app_index + 1);
        let word = ((sender as u64) << 48) ^ app_index;
        self.hash[node] = (self.hash[node] ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        self.delivered[node] += 1;
        if self.delivered[node].is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints[node].push(self.hash[node]);
        }
    }

    /// Deliveries whose bytes were not the bytes sent.
    pub fn wrong_payloads(&self) -> u64 {
        self.wrong_payloads
    }

    /// Ordering violations: gaps, duplicates, unknown senders, and
    /// total-order disagreement between nodes (checked over the common
    /// checkpoint prefix, and over the whole run when the nodes delivered
    /// equally many messages).
    pub fn order_violations(&self) -> u64 {
        let mut v = self.violations;
        for node in 1..self.hash.len() {
            let common = self.checkpoints[0].len().min(self.checkpoints[node].len());
            let prefix_differs = self.checkpoints[0][..common] != self.checkpoints[node][..common];
            let whole_differs =
                self.delivered[0] == self.delivered[node] && self.hash[0] != self.hash[node];
            if prefix_differs || whole_differs {
                v += 1;
            }
        }
        v
    }

    /// The first violation seen, for the report.
    pub fn first_violation(&self) -> Option<&str> {
        self.first.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(o: &mut Oracle, node: usize, seq: &[(usize, u64)]) {
        for &(s, a) in seq {
            o.observe(node, s, a, true);
        }
    }

    #[test]
    fn identical_orders_pass() {
        let mut o = Oracle::new(2, 2);
        let seq = [(0, 0), (1, 0), (0, 1), (1, 1)];
        feed(&mut o, 0, &seq);
        feed(&mut o, 1, &seq);
        assert_eq!(o.order_violations(), 0);
    }

    #[test]
    fn different_interleaving_is_a_total_order_violation() {
        let mut o = Oracle::new(2, 2);
        feed(&mut o, 0, &[(0, 0), (1, 0)]);
        feed(&mut o, 1, &[(1, 0), (0, 0)]);
        assert_eq!(o.order_violations(), 1);
    }

    #[test]
    fn gaps_duplicates_and_wrong_payloads_are_counted() {
        let mut o = Oracle::new(1, 1);
        o.observe(0, 0, 1, true); // gap: #0 skipped
        o.observe(0, 0, 1, true); // duplicate
        o.observe(0, 0, 2, false); // in order, wrong bytes
        assert_eq!(o.order_violations(), 2);
        assert_eq!(o.wrong_payloads(), 1);
        assert!(o.first_violation().unwrap().contains("gap"));
    }

    #[test]
    fn short_node_is_compared_over_the_common_prefix() {
        let mut o = Oracle::new(2, 1);
        for a in 0..2 * CHECKPOINT_EVERY {
            o.observe(0, 0, a, true);
        }
        for a in 0..CHECKPOINT_EVERY + 7 {
            o.observe(1, 0, a, true);
        }
        assert_eq!(
            o.order_violations(),
            0,
            "a missing tail is not an order violation"
        );
    }
}
