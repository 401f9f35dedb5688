//! Edge-update streams and replay constructors.
//!
//! An update stream is a plain list of [`EdgeOp`]s. Replay semantics are
//! deliberately forgiving — inserting a present edge, deleting an absent
//! one, or naming a self-loop is a *no-op*, exactly mirroring what the
//! maintainers' `insert_edge`/`delete_edge` already return `false` for.
//! That forgiveness is what makes streams shrinkable: the conformance
//! harness can drop any prefix, suffix, or subset of a failing stream and
//! the remainder still has well-defined meaning.
//!
//! [`replay_graph`] is the stream's ground truth: the graph an oblivious
//! observer ends up with. [`LazyTopK::replay`] and [`LocalIndex::replay`]
//! build a maintainer on the initial graph and push the same ops through
//! its incremental path, so "maintained state" and "state rebuilt from
//! scratch on [`replay_graph`]'s output" can be compared differentially.

use crate::{LazyTopK, LocalIndex};
use egobtw_graph::{CsrGraph, DynGraph, VertexId};

/// One edge update. Endpoints must be `< n` of the graph the stream is
/// replayed onto; ops that do not apply (duplicate insert, absent delete,
/// self-loop) are skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the undirected edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `(u, v)`.
    Delete(VertexId, VertexId),
}

impl EdgeOp {
    /// Byte length of one op in the binary wire form used by the service's
    /// write-ahead log: a tag byte plus two little-endian `u32` endpoints.
    pub const WIRE_LEN: usize = 9;

    /// The op's endpoints, insert or delete alike.
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
        }
    }

    /// Appends the binary wire form (`tag u8 | u u32 le | v u32 le`,
    /// tag 0 = insert, 1 = delete) to `buf`.
    pub fn encode_into(self, buf: &mut Vec<u8>) {
        let (tag, (u, v)) = match self {
            EdgeOp::Insert(u, v) => (0u8, (u, v)),
            EdgeOp::Delete(u, v) => (1u8, (u, v)),
        };
        buf.push(tag);
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Decodes one op from the start of `bytes` ([`EdgeOp::encode_into`]'s
    /// inverse). Returns `None` on a short buffer or an unknown tag —
    /// never panics, so a torn or corrupted log record degrades to a clean
    /// decode failure.
    pub fn decode(bytes: &[u8]) -> Option<EdgeOp> {
        if bytes.len() < Self::WIRE_LEN {
            return None;
        }
        let u = u32::from_le_bytes(bytes[1..5].try_into().ok()?);
        let v = u32::from_le_bytes(bytes[5..9].try_into().ok()?);
        match bytes[0] {
            0 => Some(EdgeOp::Insert(u, v)),
            1 => Some(EdgeOp::Delete(u, v)),
            _ => None,
        }
    }
}

/// Replays `ops` onto a mutable copy of `g0` and returns it — the
/// definitional final state of a stream, with no maintenance cleverness.
pub fn replay_graph(g0: &CsrGraph, ops: &[EdgeOp]) -> DynGraph {
    let mut g = DynGraph::from_csr(g0);
    for &op in ops {
        match op {
            EdgeOp::Insert(u, v) => {
                g.insert_edge(u, v);
            }
            EdgeOp::Delete(u, v) => {
                g.remove_edge(u, v);
            }
        }
    }
    g
}

impl LazyTopK {
    /// Applies one op through the lazy maintenance path. Returns whether
    /// the graph changed.
    pub fn apply(&mut self, op: EdgeOp) -> bool {
        match op {
            EdgeOp::Insert(u, v) => self.insert_edge(u, v),
            EdgeOp::Delete(u, v) => self.delete_edge(u, v),
        }
    }

    /// Builds the maintainer on `g0`, then replays `ops` in order through
    /// the incremental path.
    pub fn replay(g0: &CsrGraph, k: usize, ops: &[EdgeOp]) -> Self {
        let mut lazy = LazyTopK::new(g0, k);
        for &op in ops {
            lazy.apply(op);
        }
        lazy
    }
}

impl LocalIndex {
    /// Applies one op through the exact local-update path. Returns whether
    /// the graph changed.
    pub fn apply(&mut self, op: EdgeOp) -> bool {
        match op {
            EdgeOp::Insert(u, v) => self.insert_edge(u, v),
            EdgeOp::Delete(u, v) => self.delete_edge(u, v),
        }
    }

    /// Builds the index on `g0` with a top-`k` set, then replays `ops` in
    /// order through the incremental path.
    pub fn replay(g0: &CsrGraph, k: usize, ops: &[EdgeOp]) -> Self {
        let mut local = LocalIndex::new(g0, k);
        for &op in ops {
            local.apply(op);
        }
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egobtw_gen::classic;

    fn ops() -> Vec<EdgeOp> {
        vec![
            EdgeOp::Insert(1, 2), // applies
            EdgeOp::Insert(1, 2), // duplicate: no-op
            EdgeOp::Insert(3, 3), // self-loop: no-op
            EdgeOp::Delete(0, 4), // applies (star edge)
            EdgeOp::Delete(0, 4), // absent: no-op
            EdgeOp::Insert(2, 3), // applies
            EdgeOp::Delete(2, 3), // undoes the previous op
        ]
    }

    #[test]
    fn replay_graph_applies_and_skips() {
        let g0 = classic::star(6);
        let g = replay_graph(&g0, &ops());
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.m(), g0.m()); // +1 edge, −1 edge, rest no-ops
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 4));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn maintainers_replay_to_the_same_graph() {
        let g0 = classic::karate_club();
        let stream = ops();
        let truth = replay_graph(&g0, &stream).to_csr();
        let mut lazy = LazyTopK::replay(&g0, 5, &stream);
        let local = LocalIndex::replay(&g0, 5, &stream);
        assert_eq!(lazy.graph().m(), truth.m());
        assert_eq!(local.graph().m(), truth.m());
        // And on the same values: maintained top-k vs fresh search.
        let fresh = egobtw_core::base_bsearch(&truth, 5);
        for ((_, a), (_, b)) in lazy.top_k().iter().zip(&fresh.entries) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(local.top_k(), fresh.entries);
    }

    #[test]
    fn endpoints_accessor() {
        assert_eq!(EdgeOp::Insert(3, 7).endpoints(), (3, 7));
        assert_eq!(EdgeOp::Delete(9, 1).endpoints(), (9, 1));
    }

    #[test]
    fn wire_codec_roundtrip_and_rejection() {
        let mut buf = Vec::new();
        for op in [
            EdgeOp::Insert(0, 1),
            EdgeOp::Delete(7, 3),
            EdgeOp::Insert(u32::MAX, 0),
        ] {
            buf.clear();
            op.encode_into(&mut buf);
            assert_eq!(buf.len(), EdgeOp::WIRE_LEN);
            assert_eq!(EdgeOp::decode(&buf), Some(op));
        }
        // Short buffers and unknown tags decode to None, never panic.
        for cut in 0..EdgeOp::WIRE_LEN {
            assert_eq!(EdgeOp::decode(&buf[..cut]), None);
        }
        let mut bad = buf.clone();
        bad[0] = 2;
        assert_eq!(EdgeOp::decode(&bad), None);
        assert_eq!(EdgeOp::decode(&[]), None);
    }
}
