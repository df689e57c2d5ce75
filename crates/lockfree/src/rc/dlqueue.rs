//! Ramalhete-Correia doubly-linked queue over atomic **weak** pointers —
//! a direct transcription of the paper's Figure 10.
//!
//! `next` edges are strong ([`AtomicSharedPtr`]); `prev` edges are weak
//! ([`AtomicWeakPtr`]), breaking the reference cycle a doubly-linked list
//! would otherwise create. The enqueue helping step reads `tail.prev`
//! through a weak snapshot, which is safe even if that node's strong count
//! has already reached zero (§4.1's `weak_snapshot_ptr` guarantee).
//!
//! # One deviation from Fig. 10: an old tail drops its `prev`
//!
//! After the winning enqueuer's tail CAS and its `ltail.next` store, it
//! stores null into `ltail.prev`. Fig. 10 reads `prev` in one place only:
//! the helping step, as `tail.prev` of the tail an enqueuer loaded. Once
//! `ltail` is no longer the tail, that read can come only from a stale
//! enqueuer, and it has nothing left to help. The winner's own helping
//! step ran before its CAS: it read `ltail.prev` and made sure that node's
//! `next` is set. A stale enqueuer that reads the null `prev` skips the
//! step, and its tail CAS fails because the tail has moved. One that read
//! `prev` before the clear holds a weak snapshot, which stays readable
//! (§4.1), and finds that `next` already set.
//!
//! What the clear buys is reclamation while the queue runs. The queue is a
//! chain: a node's `next` holds its successor strongly, so a node reaches
//! strong zero only once its predecessor is destructed. With every `prev`
//! kept, each node has a weak observer (its successor's `prev`) at its
//! strong zero and takes the dispose round, and the chain moves one node
//! per dispose scan. With the clear, only the tail's predecessor still has
//! one. Under a region scheme every other node is destructed on the spot,
//! and destructing a node gives up its `next`, so the cascade reaches the
//! head in one pass.
//!
//! # Under hazard pointers: an old head drops its `next` too
//!
//! Under hazard pointers a node is destructed on the spot only past a
//! hazard snapshot taken *after* its strong zero (`cdrc`'s `Rights`), and
//! a snapshot reads every thread's announcements. A chain in which each
//! node's zero waits for its predecessor's destruct would cost one
//! snapshot per node. So under HP the dequeuer whose head CAS wins stores
//! null into the old head's `next`. Each dequeued node then reaches zero
//! through the two decrements its dequeuers batched (its head reference
//! and its predecessor's `next`), both handed back by scans, and a round
//! frees everything it zeroes past one snapshot.
//!
//! Fig. 10 reads `next` in the dequeue (of the head it loaded) and in the
//! helping step (of `tail.prev`). A stale dequeuer that reads the cleared
//! `next` of a node that is no longer the head is told so by one more look
//! at the head, and retries from there; an empty `next` on the current
//! head still means an empty queue, since the head only moves forward. A
//! helper whose `prev` names an old head finds its `next` empty and
//! stores the tail into it: the old head is out of the queue, so this
//! links nothing anyone can reach, and the node gives the reference back
//! when it is destructed. Under a region scheme none of this runs.

use std::marker::PhantomData;

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, CsGuard, DomainRef, EdgeCollector, GraphNode, Scheme,
    SharedPtr, WeakPtr,
};

use crate::ConcurrentQueue;

/// `repr(C)`, links first: every step of `enqueue` and `dequeue` reads a
/// node's `next` (the helping step its `prev`); only a dequeue that wins
/// reads a value.
#[repr(C)]
pub(super) struct Node<V, S: Scheme> {
    next: AtomicSharedPtr<Node<V, S>, S>,
    prev: AtomicWeakPtr<Node<V, S>, S>,
    value: Option<V>,
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
    /// One section covers the `next`-edge snapshots and the `prev` ones.
    type Guard = CsGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.domain.cs()
    }

    // Fig. 10, enqueue — a witness loop: a lost tail CAS hands back a
    // protected snapshot of the new tail, which seeds the next attempt
    // directly (the paper's hottest queue CAS site pays no re-read).
    fn enqueue_with(&self, v: V, guard: &Self::Guard) {
        debug_assert!(guard.covers(&self.domain), "guard from a foreign domain");
        let new_node: SharedPtr<Node<V, S>, S> = Self::alloc_node(&self.domain, Some(v));
        let mut ltail = self.tail.get_snapshot(guard);
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
                    let old_tail = ltail.as_ref().unwrap();
                    old_tail.next.store(new_node);
                    // No longer the tail: nobody helps through its `prev`
                    // again (module docs), and clearing it lets its
                    // predecessor be destructed on the spot.
                    old_tail.prev.store(WeakPtr::null());
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
        let mut lhead = self.head.get_snapshot(guard);
        loop {
            let lnext = lhead.as_ref().unwrap().next.get_snapshot(guard);
            let Some(next_node) = lnext.as_ref() else {
                // Under hazard pointers an old head's `next` is cleared
                // (module docs), so an empty `next` means an empty queue
                // only while `lhead` is still the head.
                if !S::PROTECTS_REGIONS {
                    let now = self.head.get_snapshot(guard);
                    if now.tagged() != lhead.tagged() {
                        lhead = now;
                        continue;
                    }
                }
                return None; // queue is empty
            };
            match self
                .head
                .compare_exchange_with(guard, lhead.tagged(), &lnext)
            {
                Ok(displaced) => {
                    if !S::PROTECTS_REGIONS {
                        // No longer the head: its `next` reference goes
                        // back now, so it does not chain its successor's
                        // reclamation to its own (module docs).
                        lhead.as_ref().unwrap().next.store(SharedPtr::null());
                    }
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
    use std::sync::{Arc, Barrier};

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

    /// The queue reclaims while it runs. The test thread seeds it under one
    /// guard and then stays idle; two churners run dequeue/enqueue pairs
    /// under 32-pair guards and never call `process_deferred`. After every
    /// guard, what is in flight is the live queue plus at most a threshold
    /// of deferred entries on each of a few lists.
    fn reclaims_while_running<S: Scheme>() {
        const SEED: u64 = 1_024;
        const BOUND: u64 = SEED + 8 * 128;
        let q: Arc<RcDoubleLinkQueue<u64, S>> =
            Arc::new(RcDoubleLinkQueue::new_in(DomainRef::new()));
        let guard = q.pin();
        for v in 0..SEED {
            q.enqueue_with(v, &guard);
        }
        drop(guard);
        // In step: a churner that idles while the other runs holds its
        // retired lists, and with them the chain, until its next scan.
        let step = Arc::new(Barrier::new(2));
        let churners: Vec<_> = (0..2)
            .map(|_| {
                let (q, step) = (Arc::clone(&q), Arc::clone(&step));
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let guard = q.pin();
                        for _ in 0..32 {
                            let v = q
                                .dequeue_with(&guard)
                                .expect("a seeded queue never empties");
                            q.enqueue_with(v, &guard);
                        }
                        drop(guard);
                        step.wait();
                        let n = q.domain().in_flight();
                        assert!(n <= BOUND, "{}: {n} blocks in flight", S::scheme_name());
                    }
                })
            })
            .collect();
        for c in churners {
            c.join().unwrap();
        }
    }

    #[test]
    fn reclaims_while_running_all_schemes() {
        reclaims_while_running::<EbrScheme>();
        reclaims_while_running::<IbrScheme>();
        reclaims_while_running::<HpScheme>();
        reclaims_while_running::<HyalineScheme>();
    }
}
