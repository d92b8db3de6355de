//! The five workloads and how each brings its cluster up.

use std::path::Path;

use spindle_core::{Cluster, PersistConfig, SpindleConfig};
use spindle_fabric::MemFabric;
use spindle_membership::{View, ViewBuilder};
use spindle_net::TcpFabricGroup;
use spindle_persist::{PersistOptions, SyncPolicy};

/// Members of every workload's single subgroup; all are declared senders.
pub const NODES: usize = 3;
/// Ring window of the subgroup.
pub const WINDOW: usize = 64;

/// What carries the SST writes, and whether deliveries are logged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// `MemFabric`: writes place instantly.
    Mem,
    /// `TcpFabricGroup::loopback`: every write crosses the host's TCP stack.
    Tcp,
    /// `MemFabric` plus a durable log per node under `benchmark/out/`, never
    /// fsynced while the load runs: the benchmark may write only inside its
    /// checkout, and an fsync there times a shared disk, not the program.
    MemPersist,
}

/// One workload: a transport, how many of the declared senders send, and
/// the payload size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub transport: Transport,
    pub active: usize,
    pub payload: usize,
    pub why: &'static str,
}

/// Every workload, in reporting order.
pub const ALL: [Spec; 5] = [
    Spec {
        name: "mem_small",
        transport: Transport::Mem,
        active: 3,
        payload: 64,
        why: "64 B on MemFabric: per-message protocol cost dominates, copies and net do almost nothing",
    },
    Spec {
        name: "mem_10k",
        transport: Transport::Mem,
        active: 3,
        payload: 10 * 1024,
        why: "10 KiB on MemFabric, the paper's headline size: copy-bound, per-message logic is a small share",
    },
    Spec {
        name: "mem_skew",
        transport: Transport::Mem,
        active: 1,
        payload: 1024,
        why: "1 of 3 declared senders sends: every round needs null-sends and committed-counter pushes",
    },
    Spec {
        name: "tcp_1k",
        transport: Transport::Tcp,
        active: 3,
        payload: 1024,
        why: "1 KiB over loopback TCP: wire encode/decode, the poller, writev and kernel TCP do most of the work",
    },
    Spec {
        name: "persist_256",
        transport: Transport::MemPersist,
        active: 3,
        payload: 256,
        why: "256 B with a durable log per node, no fsync: append, CRC, flush and persistence-frontier pushes dominate",
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The 3-member, 3-declared-sender view of this workload.
    pub fn view(&self) -> View {
        let all: Vec<usize> = (0..NODES).collect();
        ViewBuilder::new(NODES)
            .subgroup(&all, &all, WINDOW, self.payload)
            .build()
            .expect("benchmark view is valid")
    }
}

/// Starts the in-process cluster on `MemFabric`.
pub fn start_mem(spec: &Spec) -> Cluster<MemFabric> {
    Cluster::start(spec.view(), SpindleConfig::optimized())
}

/// Starts the in-process cluster over a loopback TCP mesh.
pub fn start_tcp(spec: &Spec) -> Cluster<TcpFabricGroup> {
    Cluster::start_with_fabric_factory(
        spec.view(),
        SpindleConfig::optimized(),
        None,
        None,
        |nodes, words, faults| {
            TcpFabricGroup::loopback(nodes, words, faults).expect("loopback TCP mesh")
        },
    )
}

/// Starts the in-process cluster on `MemFabric` with durable logs in `dir`.
pub fn start_persistent(spec: &Spec, dir: &Path) -> Cluster<MemFabric> {
    let options = PersistOptions::new(dir).sync_policy(SyncPolicy::Never);
    Cluster::start_persistent(
        spec.view(),
        SpindleConfig::optimized(),
        PersistConfig::with_options(options),
    )
}
