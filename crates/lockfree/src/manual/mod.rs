//! Manually memory-managed variants, generic over any [`smr::AcquireRetire`]
//! scheme. Every unlinked node must be explicitly retired and every ejected
//! node freed — the discipline the paper's automatic variants remove.

pub mod dlqueue;
pub mod list;
pub mod nmtree;
pub mod resizable;

pub use dlqueue::DoubleLinkQueue;
pub use list::HarrisMichaelList;
pub use nmtree::NatarajanMittalTree;
pub use resizable::ResizableHashMap;

/// Ownership marker shared by the manual structures: owns its nodes (for
/// drop check / auto-trait purposes) while staying neutral in the scheme
/// parameter `S`.
pub(crate) type NodeMarker<N, S> = std::marker::PhantomData<(Box<N>, fn(S))>;

/// The manual-side mirror of [`cdrc::GraphNode`]: enumerates a node's
/// *owned* out-edges so one shared helper can tear every structure down
/// iteratively. Back-pointers (e.g. the queue's `prev`) are not owned and
/// must not be reported — following them would double-free.
pub(crate) trait OutgoingEdges {
    /// Appends the untagged addresses of this node's owned out-edges
    /// (zeroes are fine; the walker skips them).
    fn out_edges(&self, out: &mut Vec<usize>);
}

/// Frees every node reachable from `roots` through [`OutgoingEdges`] with
/// an explicit worklist — teardown of a million-node chain must not grow
/// the call stack — then, if `smr` is exclusively owned, everything parked
/// in its retired lists. The two sets are disjoint: linked nodes are never
/// retired. Counts each freed node against `stats`.
///
/// # Safety
///
/// Caller has exclusive access to the structure; every reachable address
/// and every retired address is a live `Box<N>` allocation it owns.
pub(crate) unsafe fn teardown<N: OutgoingEdges, S: smr::AcquireRetire>(
    roots: impl IntoIterator<Item = usize>,
    smr: &std::sync::Arc<S>,
    stats: &crate::NodeStats,
    t: smr::Tid,
) {
    let mut stack: Vec<usize> = roots.into_iter().filter(|&a| a != 0).collect();
    let mut edges = Vec::new();
    while let Some(a) = stack.pop() {
        let node = a as *mut N;
        (*node).out_edges(&mut edges);
        stack.extend(edges.drain(..).filter(|&e| e != 0));
        stats.on_free(t);
        drop(Box::from_raw(node));
    }
    // Shared instances (`with_shared`) are drained by their last owner:
    // until then another structure may still be retiring into this one.
    if std::sync::Arc::strong_count(smr) == 1 {
        for r in smr.drain_all() {
            stats.on_free(t);
            drop(Box::from_raw(r.addr as *mut N));
        }
    }
}
