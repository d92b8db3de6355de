#![warn(missing_docs)]
//! The Spindle atomic multicast engine.
//!
//! This crate implements Derecho's small-message atomic multicast (paper
//! §2) together with all four Spindle optimizations (§3):
//!
//! 1. **Opportunistic batching** of the send, receive and delivery stages,
//!    including acknowledgment batching ([`SpindleConfig::send_batching`],
//!    [`SpindleConfig::receive_batching`], [`SpindleConfig::delivery_batching`]);
//! 2. **Null-sends** — the null-message scheme that keeps round-robin
//!    delivery flowing when senders lag ([`SpindleConfig::null_sends`]),
//!    implemented as the paper's "single integer" committed-rounds counter;
//! 3. **Efficient thread synchronization** — posting RDMA writes after the
//!    shared-state lock is released ([`SpindleConfig::early_lock_release`]);
//! 4. **In-place vs. memcpy construction/delivery** — the application's
//!    choice, not a protocol toggle: the simulator models it on the
//!    workload ([`Workload::memcpy_on_send`], [`Workload::memcpy_on_delivery`]).
//!
//! The protocol logic ([`proto`]) is pure state-machine code over the SST
//! and is executed by two runtimes:
//!
//! * [`sim::SimCluster`] — a deterministic discrete-event cluster with the
//!   paper's cost model (virtual NICs, a virtual predicate thread per node
//!   running the threaded runtime's node pass, virtual locks); this
//!   regenerates every figure of the evaluation;
//! * [`threaded::Cluster`] — real threads over the shared-memory fabric,
//!   used for correctness testing and as the embeddable library runtime.

pub mod config;
pub mod cost;
pub mod detector;
pub mod metrics;
pub mod plan;
pub mod proto;
pub mod sim;
pub mod threaded;
pub mod viewchange;

pub use config::{DeliveryTiming, SenderActivity, SpindleConfig, Workload};
pub use cost::CostModel;
pub use detector::DetectorConfig;
pub use metrics::{epoch_stats_for_node, render_epoch_table, EpochStats, NodeMetrics, RunReport};
pub use plan::{Plan, ReconfigCols, SubgroupCols};
pub use proto::{Delivery, SubgroupProto};
pub use sim::{SimCluster, SimFault, SimFaultKind};
pub use spindle_fabric::SsdModel;
pub use spindle_obs::ObsPlane;
pub use threaded::{AdmitRequest, Cluster, PersistConfig, Suspicion};
pub use viewchange::{InstallBarrier, VcBoundary, VcStep, ViewChangeEngine};
