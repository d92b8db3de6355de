//! Fabric-level identifiers and write descriptors.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Identity of a node (process) in the top-level group.
///
/// Node ids index rows of the replicated SST and are dense: a view over `n`
/// nodes uses ids `0..n`.
///
/// # Examples
///
/// ```
/// use spindle_fabric::NodeId;
///
/// let n = NodeId(3);
/// assert_eq!(n.0, 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// One one-sided RDMA write: "copy `words` words of my SST row, starting at
/// word offset `offset`, into `dst`'s replica of my row".
///
/// The descriptor is *source-relative*: in the SST model a node only ever
/// pushes ranges of its own row (paper §2.2), so the source row is implied by
/// the poster and the destination offset equals the source offset. The
/// `wire_bytes` field is the size accounted on the link; it can exceed
/// `words * 8` only in future extensions and normally equals it.
///
/// # Examples
///
/// ```
/// use spindle_fabric::{NodeId, WriteOp};
///
/// let w = WriteOp::new(NodeId(1), 4..6);
/// assert_eq!(w.words(), 2);
/// assert_eq!(w.wire_bytes, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Target node whose replica receives the data.
    pub dst: NodeId,
    /// Word range within the poster's row (and the target's replica of it).
    pub range: Range<usize>,
    /// Bytes accounted on the wire for this write.
    pub wire_bytes: usize,
}

impl WriteOp {
    /// Creates a write covering `range` with `wire_bytes` equal to the range
    /// size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or reversed.
    pub fn new(dst: NodeId, range: Range<usize>) -> Self {
        assert!(range.start < range.end, "WriteOp range must be non-empty");
        let wire_bytes = (range.end - range.start) * 8;
        WriteOp {
            dst,
            range,
            wire_bytes,
        }
    }

    /// Number of 8-byte words covered.
    pub fn words(&self) -> usize {
        self.range.end - self.range.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n: NodeId = 7usize.into();
        assert_eq!(n, NodeId(7));
        assert_eq!(format!("{n}"), "n7");
    }

    #[test]
    fn write_op_defaults_wire_bytes() {
        let w = WriteOp::new(NodeId(0), 10..15);
        assert_eq!(w.words(), 5);
        assert_eq!(w.wire_bytes, 40);
    }

    #[test]
    #[should_panic]
    fn empty_write_op_panics() {
        WriteOp::new(NodeId(0), 3..3);
    }
}
