//! Manually memory-managed variants, generic over any [`smr::AcquireRetire`]
//! scheme. Every unlinked node must be explicitly retired and every ejected
//! node freed — the discipline the paper's automatic variants remove.
//!
//! Each structure owns one `Reclaimer`, the only place it touches its
//! scheme's reclamation side: the chores the paper's Fig. 1a repeats per
//! structure are written once there.

pub mod dlqueue;
pub mod list;
pub mod nmtree;
pub mod resizable;

pub use dlqueue::DoubleLinkQueue;
pub use list::HarrisMichaelList;
pub use nmtree::NatarajanMittalTree;
pub use resizable::ResizableHashMap;

use std::marker::PhantomData;
use std::sync::Arc;

use smr::{sync::atomic::AtomicUsize, AcquireRetire, Retired, SectionGuard, SmrConfig, Tid};

use crate::LanePairs;

/// What the [`Reclaimer`] needs of a manual node — the manual-side mirror
/// of [`cdrc::GraphNode`].
pub(crate) trait ManualNode {
    /// The birth epoch `retire` hands the scheme.
    fn birth(&self) -> u64;

    /// Appends the untagged addresses of this node's *owned* out-edges
    /// (zeroes are fine; the walker skips them), so one teardown serves
    /// every structure. Back-pointers (e.g. the queue's `prev`) are not
    /// owned and must not be reported — following them would double-free.
    fn out_edges(&self, out: &mut Vec<usize>);
}

/// One manual structure's scheme instance, with its node counters: the
/// manual mirror of `cdrc::DomainRef`. Every address retired through it is
/// a `Box<N>` — the type parameter is what lets [`collect`](Self::collect)
/// free ejected nodes safely. The instance is never shared with another
/// structure, so nothing else retires into it.
pub(crate) struct Reclaimer<N, S: AcquireRetire> {
    smr: Arc<S>,
    /// Per-thread allocs (`up`) and frees (`down`).
    nodes: Arc<LanePairs>,
    /// Owns its nodes, for drop check and auto-trait purposes.
    _marker: PhantomData<Box<N>>,
}

impl<N: ManualNode, S: AcquireRetire> Reclaimer<N, S> {
    /// A fresh scheme instance on its own epoch clock.
    pub(crate) fn new(cfg: SmrConfig) -> Self {
        Reclaimer {
            smr: Arc::new(S::new(Arc::new(smr::GlobalEpoch::new()), cfg)),
            nodes: Arc::new(LanePairs::new()),
            _marker: PhantomData,
        }
    }

    /// Opens a critical section on this instance for the current thread.
    pub(crate) fn pin(&self) -> SectionGuard<S> {
        SectionGuard::enter(Arc::clone(&self.smr))
    }

    /// The thread a caller-held `guard` runs under; debug builds check that
    /// its section is on this instance (a foreign one protects nothing).
    #[inline]
    pub(crate) fn tid(&self, guard: &SectionGuard<S>) -> Tid {
        debug_assert!(guard.covers(&self.smr), "guard from a foreign instance");
        guard.tid()
    }

    /// Traversal protection: the scheme's `try_acquire`.
    #[inline(always)]
    pub(crate) fn try_acquire(&self, t: Tid, src: &AtomicUsize) -> Option<(usize, S::Guard)> {
        self.smr.try_acquire(t, src)
    }

    /// Gives back a guard from [`try_acquire`](Self::try_acquire).
    #[inline(always)]
    pub(crate) fn release(&self, t: Tid, g: S::Guard) {
        self.smr.release(t, g);
    }

    /// Allocates and counts a node, built from its birth epoch.
    #[inline]
    pub(crate) fn alloc(&self, t: Tid, make: impl FnOnce(u64) -> N) -> Box<N> {
        self.nodes.up(t);
        Box::new(make(self.smr.birth_epoch(t)))
    }

    /// Frees a node that was never published.
    pub(crate) fn discard(&self, t: Tid, node: Box<N>) {
        self.nodes.down(t);
        drop(node);
    }

    /// Retires the node at `addr`; a later [`collect`](Self::collect) frees
    /// it once no reader can hold it.
    ///
    /// # Safety
    ///
    /// `addr` is a `Box<N>` from [`alloc`](Self::alloc), unlinked by the
    /// caller's CAS — so retired exactly once — and still protected (or
    /// otherwise live) for the read of its birth epoch.
    #[inline]
    pub(crate) unsafe fn retire(&self, t: Tid, addr: usize) {
        // Safety: per this function's contract.
        let birth = unsafe { (*(addr as *const N)).birth() };
        self.smr.retire(t, Retired::new(addr, birth));
    }

    /// Applies every ready eject: frees the node memory (the other manual
    /// chore).
    #[inline]
    pub(crate) fn collect(&self, t: Tid) {
        while let Some(addr) = self.smr.eject(t) {
            self.nodes.down(t);
            // Safety: only `Box<N>`s are retired through this instance
            // (`retire`'s contract), each once.
            unsafe { drop(Box::from_raw(addr as *mut N)) };
        }
    }

    /// Allocated − freed (live + deferred garbage).
    pub(crate) fn in_flight(&self) -> u64 {
        self.nodes.net()
    }

    /// Frees every node reachable from `roots` through
    /// [`ManualNode::out_edges`] with an explicit worklist — teardown of a
    /// million-node chain must not grow the call stack — then everything
    /// parked in the instance's retired lists. The two sets are disjoint:
    /// linked nodes are never retired.
    ///
    /// # Safety
    ///
    /// Caller has exclusive access to the structure; every reachable
    /// address is a live `Box<N>` it owns.
    pub(crate) unsafe fn teardown(&self, roots: impl IntoIterator<Item = usize>) {
        let t = smr::current_tid();
        let mut stack: Vec<usize> = roots.into_iter().filter(|&a| a != 0).collect();
        let mut edges = Vec::new();
        while let Some(a) = stack.pop() {
            let node = a as *mut N;
            (*node).out_edges(&mut edges);
            stack.extend(edges.drain(..).filter(|&e| e != 0));
            self.nodes.down(t);
            drop(Box::from_raw(node));
        }
        // `drain_all` requires that no critical section is active. Every
        // `SectionGuard` holds the instance's `Arc`, so a count of one means
        // none is; while one outlives its structure the retired nodes stay
        // parked (and leak with the instance) rather than be freed under
        // that open section.
        if Arc::strong_count(&self.smr) == 1 {
            for addr in self.smr.drain_all() {
                self.nodes.down(t);
                drop(Box::from_raw(addr as *mut N));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::Ebr;

    /// A singly linked cell: the smallest node a reclaimer can own.
    struct Cell {
        birth: u64,
        next: usize,
    }

    impl ManualNode for Cell {
        fn birth(&self) -> u64 {
            self.birth
        }

        fn out_edges(&self, out: &mut Vec<usize>) {
            out.push(self.next);
        }
    }

    /// A guard from `pin` that outlives its structure: the structure's
    /// teardown frees what is linked but must not drain the retired nodes
    /// under the still-open section (`drain_all`'s contract); dropping the
    /// guard afterwards must be sound.
    #[test]
    fn a_guard_outliving_its_structure_defers_the_drain() {
        let r: Reclaimer<Cell, Ebr> = Reclaimer::new(Ebr::default_config());
        let nodes = Arc::clone(&r.nodes);
        let guard = r.pin();
        let t = r.tid(&guard);
        let mut head = 0;
        for _ in 0..32 {
            head = Box::into_raw(r.alloc(t, |birth| Cell { birth, next: head })) as usize;
        }
        for _ in 0..32 {
            let addr = Box::into_raw(r.alloc(t, |birth| Cell { birth, next: 0 })) as usize;
            // Safety: a `Box<Cell>` from `alloc`, never linked, retired once.
            unsafe { r.retire(t, addr) };
            r.collect(t);
        }
        // The open section pins EBR's epoch: nothing retired was ejected.
        assert_eq!(nodes.net(), 64);
        // Safety: exclusive; `head`'s chain is linked, so none of it retired.
        unsafe { r.teardown([head]) };
        drop(r);
        assert_eq!(nodes.net(), 32, "chain freed, retired cells not drained");
        drop(guard);
    }
}
