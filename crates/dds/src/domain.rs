//! The threaded DDS frontend: a real pub/sub domain over the cluster.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spindle_core::threaded::{Cluster, SendError};
use spindle_core::{DeliveryTiming, SpindleConfig};
use spindle_membership::{SubgroupId, ViewBuilder};

use crate::qos::{QosLevel, TopicId};

/// One sample taken from a reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Topic it was published on.
    pub topic: TopicId,
    /// Publisher rank within the topic.
    pub publisher: usize,
    /// Per-publisher sequence number.
    pub index: u64,
    /// Epoch (view id) the sample was delivered in — what lets an
    /// external subscriber attribute its stream to membership epochs.
    pub epoch: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// Errors from domain construction and publishing.
#[derive(Debug)]
pub enum DdsError {
    /// A topic referenced an unknown participant index.
    UnknownParticipant(usize),
    /// A topic id was declared twice.
    DuplicateTopic(TopicId),
    /// An `Unordered` topic was declared beside an ordered one. Delivery
    /// timing is domain-wide, so the ordered topic would lose its total
    /// order; run the unordered topic in a domain of its own.
    MixedOrdering {
        /// The `Unordered` topic.
        unordered: TopicId,
        /// An ordered topic of the same domain.
        ordered: TopicId,
    },
    /// The participant does not publish on this topic.
    NotAPublisher(TopicId),
    /// The participant is not subscribed to this topic.
    NotSubscribed(TopicId),
    /// The underlying multicast rejected the send.
    Send(SendError),
    /// The log device failed.
    Io(std::io::Error),
}

impl std::fmt::Display for DdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdsError::UnknownParticipant(i) => write!(f, "unknown participant {i}"),
            DdsError::DuplicateTopic(t) => write!(f, "duplicate topic {t}"),
            DdsError::MixedOrdering { unordered, ordered } => write!(
                f,
                "unordered topic {unordered} cannot share a domain with ordered topic {ordered}"
            ),
            DdsError::NotAPublisher(t) => write!(f, "participant does not publish on {t}"),
            DdsError::NotSubscribed(t) => write!(f, "participant is not subscribed to {t}"),
            DdsError::Send(e) => write!(f, "send failed: {e}"),
            DdsError::Io(e) => write!(f, "log device error: {e}"),
        }
    }
}

impl std::error::Error for DdsError {}

impl From<SendError> for DdsError {
    fn from(e: SendError) -> Self {
        DdsError::Send(e)
    }
}

impl From<std::io::Error> for DdsError {
    fn from(e: std::io::Error) -> Self {
        DdsError::Io(e)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct TopicDef {
    id: TopicId,
    publishers: Vec<usize>,
    subscribers: Vec<usize>,
    qos: QosLevel,
    window: usize,
    max_sample: usize,
}

/// Builder for a [`DdsDomain`]: declare participants and topics, then
/// [`DomainBuilder::start`].
///
/// # Examples
///
/// ```
/// use spindle_dds::{DomainBuilder, QosLevel, TopicId};
///
/// let domain = DomainBuilder::new(3)
///     .topic(TopicId(1), &[0], &[1, 2], QosLevel::AtomicMulticast)
///     .start()?;
/// domain.participant(0).publish(TopicId(1), b"altitude=9000")?;
/// let s = domain.participant(1).take_timeout(TopicId(1), std::time::Duration::from_secs(5))?;
/// assert_eq!(s.unwrap().data, b"altitude=9000");
/// # Ok::<(), spindle_dds::DdsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DomainBuilder {
    participants: usize,
    topics: Vec<TopicDef>,
    window: usize,
    max_sample: usize,
    config: SpindleConfig,
    log_dir: Option<PathBuf>,
}

impl DomainBuilder {
    /// A domain of `participants` processes.
    pub fn new(participants: usize) -> Self {
        DomainBuilder {
            participants,
            topics: Vec::new(),
            window: 64,
            max_sample: 10 * 1024,
            config: SpindleConfig::optimized(),
            log_dir: None,
        }
    }

    /// Declares a topic: `publishers` may write, `publishers ∪ subscribers`
    /// receive.
    pub fn topic(
        mut self,
        id: TopicId,
        publishers: &[usize],
        subscribers: &[usize],
        qos: QosLevel,
    ) -> Self {
        self.topics.push(TopicDef {
            id,
            publishers: publishers.to_vec(),
            subscribers: subscribers.to_vec(),
            qos,
            window: self.window,
            max_sample: self.max_sample,
        });
        self
    }

    /// Default ring window for subsequently declared topics.
    pub fn window(mut self, w: usize) -> Self {
        self.window = w;
        self
    }

    /// Default maximum sample size for subsequently declared topics.
    pub fn max_sample(mut self, bytes: usize) -> Self {
        self.max_sample = bytes;
        self
    }

    /// Multicast engine configuration (baseline vs. Spindle — Figure 18's
    /// comparison axis). Its delivery timing is replaced at
    /// [`DomainBuilder::start`] by the one the topics' QoS levels imply.
    pub fn config(mut self, config: SpindleConfig) -> Self {
        self.config = config;
        self
    }

    /// Directory for `LoggedStorage` topic logs (defaults to a fresh temp
    /// directory).
    pub fn log_dir(mut self, dir: PathBuf) -> Self {
        self.log_dir = Some(dir);
        self
    }

    /// Validates the declarations, builds the view (one subgroup per
    /// topic), and starts the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`DdsError::UnknownParticipant`] or
    /// [`DdsError::DuplicateTopic`] on invalid declarations, and
    /// [`DdsError::MixedOrdering`] for an `Unordered` topic beside an
    /// ordered one.
    pub fn start(mut self) -> Result<DdsDomain, DdsError> {
        let mut seen = std::collections::HashSet::new();
        for t in &self.topics {
            if !seen.insert(t.id) {
                return Err(DdsError::DuplicateTopic(t.id));
            }
            for &p in t.publishers.iter().chain(&t.subscribers) {
                if p >= self.participants {
                    return Err(DdsError::UnknownParticipant(p));
                }
            }
        }
        // Delivery timing is cluster-wide, so the topics set it: an
        // unordered topic makes the whole domain deliver on receive, which
        // no ordered topic may share.
        let unordered = self.topics.iter().find(|t| !t.qos.is_ordered());
        if let Some(u) = unordered {
            if let Some(o) = self.topics.iter().find(|t| t.qos.is_ordered()) {
                return Err(DdsError::MixedOrdering {
                    unordered: u.id,
                    ordered: o.id,
                });
            }
        }
        self.config.delivery_timing = match unordered {
            Some(_) => DeliveryTiming::OnReceive,
            None => DeliveryTiming::Ordered,
        };
        let mut vb = ViewBuilder::new(self.participants);
        let mut topic_sg = HashMap::new();
        for (g, t) in self.topics.iter().enumerate() {
            // Members = publishers ∪ subscribers, publishers first
            // (publisher rank = sender rank).
            let mut members = t.publishers.clone();
            for &s in &t.subscribers {
                if !members.contains(&s) {
                    members.push(s);
                }
            }
            vb = vb.subgroup(&members, &t.publishers, t.window, t.max_sample);
            topic_sg.insert(t.id, SubgroupId(g));
        }
        let view = vb.build().expect("validated topic declarations");
        let cluster = Cluster::start(view, self.config.clone());
        let log_dir = self.log_dir.clone().unwrap_or_else(|| {
            // Unique per domain: two domains of one process (parallel
            // tests) must never replay or append to each other's logs. Only
            // a dead process that had this pid can have left the name
            // behind, so clearing it also makes the directory fresh.
            static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "spindle-dds-{}-{}",
                std::process::id(),
                NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        std::fs::create_dir_all(&log_dir)?;
        let participants = (0..self.participants)
            .map(|_| Participant {
                state: Arc::new(Mutex::new(ReaderState {
                    queues: HashMap::new(),
                    history: HashMap::new(),
                    logs: HashMap::new(),
                    taps: HashMap::new(),
                })),
                pump_lock: Mutex::new(()),
            })
            .collect();
        Ok(DdsDomain {
            core: Arc::new(DomainCore {
                cluster,
                topic_sg,
                topics: self.topics,
                participants,
                log_dir,
                stop: std::sync::atomic::AtomicBool::new(false),
            }),
            relays: Mutex::new(Vec::new()),
        })
    }
}

struct ReaderState {
    queues: HashMap<TopicId, VecDeque<Sample>>,
    history: HashMap<TopicId, Vec<Sample>>,
    /// Open durable logs of `LoggedStorage` topics (lazily created).
    logs: HashMap<TopicId, spindle_persist::DurableLog>,
    /// External-client taps (§4.6 relay mode): every pumped sample on a
    /// tapped topic is also forwarded to these channels.
    taps: HashMap<TopicId, Vec<crossbeam::channel::Sender<Sample>>>,
}

/// Per-node reader state (demultiplexed queues and volatile history).
pub struct Participant {
    state: Arc<Mutex<ReaderState>>,
    /// Serializes concurrent pumpers (local takers and relay threads) so
    /// queue order always matches delivery order.
    pump_lock: Mutex<()>,
}

/// The shared internals of a domain (relay threads hold an [`Arc`] of
/// this; see [`crate::external`]).
pub(crate) struct DomainCore {
    pub(crate) cluster: Cluster,
    topic_sg: HashMap<TopicId, SubgroupId>,
    topics: Vec<TopicDef>,
    participants: Vec<Participant>,
    log_dir: PathBuf,
    /// Set when the domain shuts down; relay threads watch it.
    pub(crate) stop: std::sync::atomic::AtomicBool,
}

/// A running DDS domain.
pub struct DdsDomain {
    pub(crate) core: Arc<DomainCore>,
    relays: Mutex<Vec<crate::external::RelayHandle>>,
}

impl Drop for DdsDomain {
    fn drop(&mut self) {
        self.core
            .stop
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.stop_external();
    }
}

impl DdsDomain {
    /// The participant running on node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn participant(&self, i: usize) -> ParticipantRef<'_> {
        ParticipantRef {
            domain: &self.core,
            node: i,
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.core.participants.len()
    }

    /// Where `LoggedStorage` topics write their logs.
    pub fn log_dir(&self) -> &PathBuf {
        &self.core.log_dir
    }

    /// The domain's observability plane (shared with the underlying
    /// cluster). Relay endpoints register their
    /// `spindle_relay_clients` / `spindle_relay_fanout_*` /
    /// `spindle_relay_shed_total` / delivery-latency families here, so
    /// an embedder can scrape everything through one registry.
    pub fn obs(&self) -> &spindle_obs::ObsPlane {
        self.core.cluster.obs()
    }

    pub(crate) fn register_relay(&self, handle: crate::external::RelayHandle) {
        self.relays.lock().push(handle);
    }

    /// Stops every external-relay endpoint started with
    /// [`DdsDomain::serve_external`] /
    /// [`DdsDomain::serve_external_on`](crate::external): signals the
    /// driver threads, joins them, and closes the listener and every
    /// client socket. The domain itself keeps running — a fresh relay
    /// can be served afterwards (a relay restart).
    pub fn stop_external(&self) {
        let handles: Vec<_> = self.relays.lock().drain(..).collect();
        for mut h in handles {
            h.stop();
        }
    }
}

impl DomainCore {
    pub(crate) fn topic_def(&self, id: TopicId) -> Option<&TopicDef> {
        self.topics.iter().find(|t| t.id == id)
    }

    pub(crate) fn is_publisher(&self, node: usize, topic: TopicId) -> bool {
        self.topic_def(topic)
            .is_some_and(|t| t.publishers.contains(&node))
    }

    pub(crate) fn is_member(&self, node: usize, topic: TopicId) -> bool {
        self.topic_def(topic)
            .is_some_and(|t| t.subscribers.contains(&node) || t.publishers.contains(&node))
    }

    /// `(topic, qos)` of every declared topic (the relay derives each
    /// topic's overflow policy from this).
    pub(crate) fn topic_qos(&self) -> Vec<(TopicId, QosLevel)> {
        self.topics.iter().map(|t| (t.id, t.qos)).collect()
    }

    /// Topics `node` is a member of (the relay taps each of these).
    pub(crate) fn member_topics(&self, node: usize) -> Vec<TopicId> {
        self.topics
            .iter()
            .filter(|t| t.publishers.contains(&node) || t.subscribers.contains(&node))
            .map(|t| t.id)
            .collect()
    }

    fn sg_topic(&self, sg: SubgroupId) -> TopicId {
        *self
            .topic_sg
            .iter()
            .find(|(_, &g)| g == sg)
            .expect("subgroup belongs to a topic")
            .0
    }

    /// Publishes on behalf of `node` (shared by local participants and the
    /// external-client relay).
    pub(crate) fn publish_from(
        &self,
        node: usize,
        topic: TopicId,
        data: &[u8],
    ) -> Result<(), DdsError> {
        if !self.is_publisher(node, topic) {
            return Err(DdsError::NotAPublisher(topic));
        }
        let sg = self.topic_sg[&topic];
        self.cluster
            .node(node)
            .send(sg, data)
            .map_err(DdsError::from)
    }

    /// Registers an external tap on `(node, topic)`: every sample pumped at
    /// `node` for `topic` is also cloned into `tx`.
    pub(crate) fn add_tap(
        &self,
        node: usize,
        topic: TopicId,
        tx: crossbeam::channel::Sender<Sample>,
    ) {
        let mut st = self.participants[node].state.lock();
        st.taps.entry(topic).or_default().push(tx);
    }

    /// Drains the node's delivery channel into per-topic reader queues,
    /// applying storage QoS and feeding external taps.
    pub(crate) fn pump(&self, node: usize) -> Result<(), DdsError> {
        let _serialized = self.participants[node].pump_lock.lock();
        let state = &self.participants[node].state;
        let mut logged: Vec<TopicId> = Vec::new();
        while let Ok(d) = self.cluster.node(node).deliveries().try_recv() {
            let topic = self.sg_topic(d.subgroup);
            let def = self.topic_def(topic).expect("known topic");
            let sample = Sample {
                topic,
                publisher: d.sender_rank,
                index: d.app_index,
                epoch: d.epoch,
                data: d.data,
            };
            let mut st = state.lock();
            if def.qos.persists() {
                let log = match st.logs.entry(topic) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let opts = spindle_persist::PersistOptions::new(&self.log_dir);
                        let name = format!("{topic}-node{node}");
                        e.insert(spindle_persist::DurableLog::open_with(&opts, &name)?.0)
                    }
                };
                log.append_borrowed(spindle_persist::LogRecordRef {
                    epoch: d.epoch,
                    subgroup: d.subgroup.0 as u32,
                    seq: d.seq,
                    sender_rank: d.sender_rank as u32,
                    app_index: d.app_index,
                    data: &sample.data,
                })?;
                if !logged.contains(&topic) {
                    logged.push(topic);
                }
            }
            if let Some(taps) = st.taps.get_mut(&topic) {
                taps.retain(|tx| tx.send(sample.clone()).is_ok());
            }
            if def.qos.stores_in_memory() {
                st.history.entry(topic).or_default().push(sample.clone());
            }
            st.queues.entry(topic).or_default().push_back(sample);
        }
        // One sync per pumped batch, not per sample (the same batching
        // argument as the protocol's acknowledgment batching).
        if !logged.is_empty() {
            let mut st = state.lock();
            for t in logged {
                if let Some(log) = st.logs.get_mut(&t) {
                    log.sync()?;
                }
            }
        }
        Ok(())
    }
}

/// Borrowed participant handle.
pub struct ParticipantRef<'a> {
    domain: &'a DomainCore,
    node: usize,
}

impl ParticipantRef<'_> {
    /// Publishes a sample on `topic`.
    ///
    /// # Errors
    ///
    /// [`DdsError::NotAPublisher`] if this participant does not publish on
    /// the topic; [`DdsError::Send`] on transport errors.
    pub fn publish(&self, topic: TopicId, data: &[u8]) -> Result<(), DdsError> {
        self.domain.publish_from(self.node, topic, data)
    }

    /// Takes the next available sample on `topic`, if any.
    ///
    /// # Errors
    ///
    /// [`DdsError::NotSubscribed`] if the participant is not in the topic;
    /// [`DdsError::Io`] if the log device fails.
    pub fn take(&self, topic: TopicId) -> Result<Option<Sample>, DdsError> {
        if !self.domain.is_member(self.node, topic) {
            return Err(DdsError::NotSubscribed(topic));
        }
        self.domain.pump(self.node)?;
        let mut st = self.domain.participants[self.node].state.lock();
        Ok(st.queues.entry(topic).or_default().pop_front())
    }

    /// Takes the next sample, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// As [`ParticipantRef::take`].
    pub fn take_timeout(
        &self,
        topic: TopicId,
        timeout: Duration,
    ) -> Result<Option<Sample>, DdsError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(s) = self.take(topic)? {
                return Ok(Some(s));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Replays the on-disk durable log of a `LoggedStorage` topic at this
    /// node: every record this participant has logged, in delivery order.
    /// Safe to call while the domain is live (reads the valid prefix).
    ///
    /// # Errors
    ///
    /// [`DdsError::NotSubscribed`] if the participant is not in the topic;
    /// [`DdsError::Io`] on log-read failures.
    pub fn replay_log(&self, topic: TopicId) -> Result<Vec<spindle_persist::LogRecord>, DdsError> {
        if !self.domain.is_member(self.node, topic) {
            return Err(DdsError::NotSubscribed(topic));
        }
        self.domain.pump(self.node)?;
        // Flush the open handle so the on-disk prefix covers everything
        // pumped so far.
        {
            let mut st = self.domain.participants[self.node].state.lock();
            if let Some(log) = st.logs.get_mut(&topic) {
                log.sync()?;
            }
        }
        let name = format!("{topic}-node{}", self.node);
        Ok(spindle_persist::read_log(&self.domain.log_dir, &name)?)
    }

    /// The in-memory history of a `VolatileStorage`/`LoggedStorage` topic
    /// (what a late joiner would catch up from).
    ///
    /// # Errors
    ///
    /// As [`ParticipantRef::take`].
    pub fn history(&self, topic: TopicId) -> Result<Vec<Sample>, DdsError> {
        self.domain.pump(self.node)?;
        let mut st = self.domain.participants[self.node].state.lock();
        Ok(st.history.entry(topic).or_default().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_take_roundtrip() {
        let domain = DomainBuilder::new(3)
            .topic(TopicId(5), &[0], &[1, 2], QosLevel::AtomicMulticast)
            .start()
            .unwrap();
        domain.participant(0).publish(TopicId(5), b"s1").unwrap();
        domain.participant(0).publish(TopicId(5), b"s2").unwrap();
        for node in 1..3 {
            let a = domain
                .participant(node)
                .take_timeout(TopicId(5), Duration::from_secs(5))
                .unwrap()
                .unwrap();
            let b = domain
                .participant(node)
                .take_timeout(TopicId(5), Duration::from_secs(5))
                .unwrap()
                .unwrap();
            assert_eq!(a.data, b"s1");
            assert_eq!(b.data, b"s2");
            assert_eq!((a.index, b.index), (0, 1));
        }
    }

    #[test]
    fn non_publisher_rejected() {
        let domain = DomainBuilder::new(2)
            .topic(TopicId(1), &[0], &[1], QosLevel::AtomicMulticast)
            .start()
            .unwrap();
        assert!(matches!(
            domain.participant(1).publish(TopicId(1), b"x"),
            Err(DdsError::NotAPublisher(_))
        ));
        assert!(matches!(
            domain.participant(0).publish(TopicId(9), b"x"),
            Err(DdsError::NotAPublisher(_))
        ));
    }

    #[test]
    fn outsider_cannot_take() {
        let domain = DomainBuilder::new(3)
            .topic(TopicId(1), &[0], &[1], QosLevel::AtomicMulticast)
            .start()
            .unwrap();
        assert!(matches!(
            domain.participant(2).take(TopicId(1)),
            Err(DdsError::NotSubscribed(_))
        ));
    }

    #[test]
    fn duplicate_topic_rejected() {
        let r = DomainBuilder::new(2)
            .topic(TopicId(1), &[0], &[1], QosLevel::AtomicMulticast)
            .topic(TopicId(1), &[1], &[0], QosLevel::Unordered)
            .start();
        assert!(matches!(r, Err(DdsError::DuplicateTopic(_))));
    }

    #[test]
    fn unordered_topic_beside_an_ordered_one_rejected() {
        let r = DomainBuilder::new(2)
            .topic(TopicId(1), &[0], &[1], QosLevel::Unordered)
            .topic(TopicId(2), &[1], &[0], QosLevel::LoggedStorage)
            .start();
        assert!(matches!(
            r,
            Err(DdsError::MixedOrdering {
                unordered: TopicId(1),
                ordered: TopicId(2)
            })
        ));
    }

    #[test]
    fn volatile_storage_keeps_history() {
        let domain = DomainBuilder::new(2)
            .topic(TopicId(3), &[0], &[1], QosLevel::VolatileStorage)
            .start()
            .unwrap();
        for i in 0..5u8 {
            domain.participant(0).publish(TopicId(3), &[i]).unwrap();
        }
        // Wait until all are taken...
        let mut taken = 0;
        while taken < 5 {
            if domain
                .participant(1)
                .take_timeout(TopicId(3), Duration::from_secs(5))
                .unwrap()
                .is_some()
            {
                taken += 1;
            }
        }
        // ...history still holds everything, in order.
        let h = domain.participant(1).history(TopicId(3)).unwrap();
        assert_eq!(h.len(), 5);
        for (i, s) in h.iter().enumerate() {
            assert_eq!(s.data, vec![i as u8]);
        }
    }

    #[test]
    fn logged_storage_writes_durable_log() {
        let domain = DomainBuilder::new(2)
            .topic(TopicId(9), &[0], &[1], QosLevel::LoggedStorage)
            .start()
            .unwrap();
        for i in 0..3u8 {
            domain
                .participant(0)
                .publish(TopicId(9), &[b'm', i])
                .unwrap();
        }
        for _ in 0..3 {
            domain
                .participant(1)
                .take_timeout(TopicId(9), Duration::from_secs(5))
                .unwrap()
                .unwrap();
        }
        // Replay through the API...
        let records = domain.participant(1).replay_log(TopicId(9)).unwrap();
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.data, vec![b'm', i as u8]);
            assert_eq!(r.subgroup, 0);
        }
        // ...and cold, via the persist crate (checksummed format).
        let cold = spindle_persist::read_log(domain.log_dir(), "topic9-node1").unwrap();
        assert_eq!(cold, records);
        let _ = std::fs::remove_dir_all(domain.log_dir());
    }

    #[test]
    fn replay_log_requires_membership() {
        let domain = DomainBuilder::new(3)
            .topic(TopicId(9), &[0], &[1], QosLevel::LoggedStorage)
            .start()
            .unwrap();
        assert!(matches!(
            domain.participant(2).replay_log(TopicId(9)),
            Err(DdsError::NotSubscribed(_))
        ));
        let _ = std::fs::remove_dir_all(domain.log_dir());
    }

    #[test]
    fn unordered_topic_still_fifo_per_publisher() {
        let domain = DomainBuilder::new(2)
            .topic(TopicId(2), &[0], &[1], QosLevel::Unordered)
            .start()
            .unwrap();
        for i in 0..10u8 {
            domain.participant(0).publish(TopicId(2), &[i]).unwrap();
        }
        for i in 0..10u8 {
            let s = domain
                .participant(1)
                .take_timeout(TopicId(2), Duration::from_secs(5))
                .unwrap()
                .unwrap();
            assert_eq!(s.data, vec![i]);
        }
    }

    #[test]
    fn two_topics_demultiplex() {
        let domain = DomainBuilder::new(3)
            .topic(TopicId(1), &[0], &[2], QosLevel::AtomicMulticast)
            .topic(TopicId(2), &[1], &[2], QosLevel::AtomicMulticast)
            .start()
            .unwrap();
        domain.participant(0).publish(TopicId(1), b"from0").unwrap();
        domain.participant(1).publish(TopicId(2), b"from1").unwrap();
        let a = domain
            .participant(2)
            .take_timeout(TopicId(1), Duration::from_secs(5))
            .unwrap()
            .unwrap();
        let b = domain
            .participant(2)
            .take_timeout(TopicId(2), Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(a.data, b"from0");
        assert_eq!(b.data, b"from1");
    }
}
