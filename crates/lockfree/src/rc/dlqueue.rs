//! Ramalhete-Correia doubly-linked queue over atomic **weak** pointers —
//! a direct transcription of the paper's Figure 10.
//!
//! `next` edges are strong ([`AtomicSharedPtr`]); `prev` edges are weak
//! ([`AtomicWeakPtr`]), breaking the reference cycle a doubly-linked list
//! would otherwise create. The enqueue helping step reads `tail.prev`
//! through a weak snapshot, which is safe even if that node's strong count
//! has already reached zero (§4.1's `weak_snapshot_ptr` guarantee).

use std::marker::PhantomData;

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, DomainRef, EdgeCollector, GraphNode, OpGuard, Scheme,
    SharedPtr, WeakCsGuard, WeakPtr,
};

use crate::ConcurrentQueue;

struct Node<V, S: Scheme> {
    value: Option<V>,
    next: AtomicSharedPtr<Node<V, S>, S>,
    prev: AtomicWeakPtr<Node<V, S>, S>,
}

impl<V, S: Scheme> GraphNode<S> for Node<V, S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
        out.take_atomic(&mut self.prev);
    }
}

/// The weak-pointer doubly-linked queue of Fig. 10 ("Our Weak Pointers" in
/// Fig. 12).
pub struct RcDoubleLinkQueue<V, S: Scheme> {
    head: AtomicSharedPtr<Node<V, S>, S>,
    tail: AtomicSharedPtr<Node<V, S>, S>,
    domain: DomainRef<S>,
    _marker: PhantomData<V>,
}

impl<V, S> RcDoubleLinkQueue<V, S>
where
    V: Clone + Send + Sync,
    S: Scheme,
{
    /// Creates an empty queue bound to the scheme's global domain.
    pub fn new() -> Self {
        Self::new_in(S::global_domain().clone())
    }

    /// Creates an empty queue bound to `domain`. Pass a fresh
    /// [`DomainRef::new`] for full isolation, or a clone of another
    /// structure's domain to reclaim (and meter) together.
    pub fn new_in(domain: DomainRef<S>) -> Self {
        let sentinel: SharedPtr<Node<V, S>, S> = Self::alloc_node(&domain, None);
        RcDoubleLinkQueue {
            head: AtomicSharedPtr::new_in(sentinel.clone(), &domain),
            tail: AtomicSharedPtr::new_in(sentinel, &domain),
            domain,
            _marker: PhantomData,
        }
    }

    /// The reclamation domain this queue allocates and reclaims through.
    pub fn domain(&self) -> &DomainRef<S> {
        &self.domain
    }

    fn alloc_node(domain: &DomainRef<S>, value: Option<V>) -> SharedPtr<Node<V, S>, S> {
        SharedPtr::new_graph_in(
            Node {
                value,
                next: AtomicSharedPtr::null_in(domain),
                prev: AtomicWeakPtr::null_in(domain),
            },
            domain,
        )
    }
}

impl<V, S> ConcurrentQueue<V> for RcDoubleLinkQueue<V, S>
where
    V: Clone + Send + Sync,
    S: Scheme,
{
    /// The *full* guard: `prev` operations go through the weak and dispose
    /// instances, so a strong-only section would not suffice. [`OpGuard`]
    /// gives the strong view the `next`-edge snapshots need.
    type Guard = WeakCsGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.domain.weak_cs()
    }

    // Fig. 10, enqueue — a witness loop: a lost tail CAS hands back a
    // protected snapshot of the new tail, which seeds the next attempt
    // directly (the paper's hottest queue CAS site pays no re-read).
    fn enqueue_with(&self, v: V, guard: &Self::Guard) {
        debug_assert!(guard.covers(&self.domain), "guard from a foreign domain");
        let new_node: SharedPtr<Node<V, S>, S> = Self::alloc_node(&self.domain, Some(v));
        let mut ltail = self.tail.get_snapshot(guard.strong_cs());
        loop {
            new_node
                .as_ref()
                .unwrap()
                .prev
                .store(WeakPtr::from_strong(&ltail));
            // Help the previous enqueue set its next pointer (the prev
            // fixup: reading a possibly-expired node is exactly what the
            // weak snapshot makes safe).
            let lprev = ltail.as_ref().unwrap().prev.get_snapshot(guard);
            if let Some(prev_node) = lprev.as_ref() {
                if prev_node.next.load_tagged().is_null() {
                    prev_node.next.store(ltail.to_shared());
                }
            }
            match self
                .tail
                .compare_exchange_with(guard, ltail.tagged(), &new_node)
            {
                Ok(displaced) => {
                    ltail.as_ref().unwrap().next.store(new_node);
                    drop(displaced); // the tail's old reference to ltail
                    return;
                }
                Err(w) => ltail = w,
            }
        }
    }

    // Fig. 10, dequeue — same witness loop on the head.
    fn dequeue_with(&self, guard: &Self::Guard) -> Option<V> {
        debug_assert!(guard.covers(&self.domain), "guard from a foreign domain");
        let mut lhead = self.head.get_snapshot(guard.strong_cs());
        loop {
            let lnext = lhead.as_ref().unwrap().next.get_snapshot(guard.strong_cs());
            let Some(next_node) = lnext.as_ref() else {
                return None; // queue is empty
            };
            match self
                .head
                .compare_exchange_with(guard, lhead.tagged(), &lnext)
            {
                Ok(displaced) => {
                    drop(displaced); // the head's old reference — reclaims it
                    return next_node.value.clone();
                }
                Err(w) => lhead = w,
            }
        }
    }
}

impl<V, S> Default for RcDoubleLinkQueue<V, S>
where
    V: Clone + Send + Sync,
    S: Scheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V, S: Scheme> Drop for RcDoubleLinkQueue<V, S> {
    fn drop(&mut self) {
        // Unlink both ends, then flush our domain so a queue with a private
        // domain leaves `allocated() == freed()` behind.
        self.head.store(SharedPtr::null());
        self.tail.store(SharedPtr::null());
        self.domain.process_deferred(smr::current_tid());
    }
}

impl<V, S: Scheme> std::fmt::Debug for RcDoubleLinkQueue<V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcDoubleLinkQueue").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme};
    use std::sync::Arc;

    fn fifo<S: Scheme>() {
        let q: RcDoubleLinkQueue<u64, S> = RcDoubleLinkQueue::new();
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn fifo_all_schemes() {
        fifo::<EbrScheme>();
        fifo::<IbrScheme>();
        fifo::<HpScheme>();
        fifo::<HyalineScheme>();
    }

    fn pop_push<S: Scheme>() {
        let q: Arc<RcDoubleLinkQueue<u64, S>> = Arc::new(RcDoubleLinkQueue::new());
        let threads = 8u64;
        for i in 0..threads {
            q.enqueue(i);
        }
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for _ in 0..1500 {
                        loop {
                            if let Some(v) = q.dequeue() {
                                q.enqueue(v);
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut seen = Vec::new();
        while let Some(v) = q.dequeue() {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..threads).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_pop_push_conserves_elements() {
        pop_push::<HpScheme>(); // the paper powers Fig. 12 with RCHP
        pop_push::<EbrScheme>();
    }
}
