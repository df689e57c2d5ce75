//! DoubleLink-style lock-free queue (manual reclamation) — the "Original"
//! baseline of the paper's Fig. 12.
//!
//! Ramalhete and Correia's queue keeps `prev` back-pointers so enqueuers can
//! repair lagging `next` pointers; their published implementation relies on
//! a *customized* hazard-pointer scheme in which announcing a node also
//! protects its neighbours, which no general-purpose interface offers. This
//! manual baseline therefore substitutes eager publication for that
//! helping: it keeps the DoubleLink node layout (value + prev + next, one
//! tail CAS plus one next store per enqueue), but the tail CAS winner
//! publishes the next pointer itself instead of later enqueuers
//! dereferencing possibly-reclaimed `prev` nodes; dequeues that observe a
//! not-yet-published `next` report "empty", linearizing the lagging enqueue
//! at its publication. The automatic variant
//! ([`crate::rc::RcDoubleLinkQueue`]) implements the helping exactly as the
//! paper's Fig. 10, where weak pointers make it safe.
//!
//! An operation holds at most two nodes (the head or tail it read, and the
//! head's successor), each a `Held` that gives its guard back when it is
//! replaced or goes out of scope; the one reclamation chore left by hand is
//! retiring the head a dequeue unlinks.

use smr::sync::atomic::{AtomicUsize, Ordering};

use smr::{AcquireRetire, Tid};

use super::{Held, ManualNode, Reclaimer};
use crate::ConcurrentQueue;

pub(super) struct Node<V> {
    birth: u64,
    value: Option<V>,
    /// Back pointer (structural fidelity with DoubleLink; never traversed
    /// in this manual variant — see module docs).
    prev: AtomicUsize,
    next: AtomicUsize,
}

impl<V> Node<V> {
    fn new(birth: u64, value: Option<V>) -> Self {
        Node {
            birth,
            value,
            prev: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
        }
    }
}

impl<V> ManualNode for Node<V> {
    fn birth(&self) -> u64 {
        self.birth
    }

    fn out_edges(&self, out: &mut Vec<usize>) {
        // `prev` is a back edge — not owned, never reported.
        out.push(self.next.load(Ordering::SeqCst));
    }
}

/// Manual DoubleLink queue under SMR scheme `S`.
pub struct DoubleLinkQueue<V, S: AcquireRetire> {
    head: AtomicUsize,
    tail: AtomicUsize,
    reclaimer: Reclaimer<Node<V>, S>,
}

unsafe impl<V: Send + Sync, S: AcquireRetire> Send for DoubleLinkQueue<V, S> {}
unsafe impl<V: Send + Sync, S: AcquireRetire> Sync for DoubleLinkQueue<V, S> {}

impl<V, S> DoubleLinkQueue<V, S>
where
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    /// Creates an empty queue.
    pub fn new() -> Self {
        let reclaimer = Reclaimer::new(S::default_config());
        let sentinel = reclaimer.alloc(smr::current_tid(), |birth| Node::new(birth, None));
        let sentinel = Box::into_raw(sentinel) as usize;
        DoubleLinkQueue {
            head: AtomicUsize::new(sentinel),
            tail: AtomicUsize::new(sentinel),
            reclaimer,
        }
    }

    /// Protection for a CAS failure witness: schemes whose active section
    /// alone protects every word read from a live location
    /// ([`AcquireRetire::PROTECTS_SECTION_READS`]: EBR, Hyaline) take the
    /// witnessed pointer directly — reading it from a stack slot mints a
    /// (trivial) guard without re-reading the live word. The rest must
    /// revalidate against the live word (IBR: the witness may be born after
    /// the announced interval; HP: protection is per announced pointer), so
    /// they re-read `src` — the witness only seeded the failed comparison.
    fn protect_witness(&self, t: Tid, w: usize, src: &AtomicUsize) -> Held<'_, Node<V>, S> {
        if S::PROTECTS_SECTION_READS {
            self.reclaimer.read(t, &AtomicUsize::new(w))
        } else {
            self.reclaimer.read(t, src)
        }
    }

    fn enqueue_impl(&self, t: Tid, v: V) {
        // Shared from the start: once the CAS lands, other threads read it.
        let node: &Node<V> = Box::leak(self.reclaimer.alloc(t, |birth| Node::new(birth, Some(v))));
        let addr = node as *const Node<V> as usize;
        let mut ltail = self.reclaimer.read(t, &self.tail);
        loop {
            node.prev.store(ltail.word(), Ordering::SeqCst);
            match self
                .tail
                .compare_exchange(ltail.word(), addr, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    // We won: publish the forward edge. ltail cannot be
                    // retired before this store — dequeuers need
                    // ltail.next ≠ 0 to advance past it.
                    ltail.node().next.store(addr, Ordering::SeqCst);
                    return;
                }
                // The witness is the new tail; under EBR/Hyaline it is
                // already protected (no re-read), under IBR/HP the retry
                // re-reads the live word.
                Err(w) => ltail = self.protect_witness(t, w, &self.tail),
            }
        }
    }

    fn dequeue_impl(&self, t: Tid) -> Option<V> {
        let mut lhead = self.reclaimer.read(t, &self.head);
        loop {
            // lhead is validated against self.head, or carried over from a
            // CAS witness under a section-read scheme.
            let lnext = self.reclaimer.read(t, &lhead.node().next);
            if lnext.word() == 0 {
                return None;
            }
            match self.head.compare_exchange(
                lhead.word(),
                lnext.word(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    // lnext's value slot is written once at enqueue.
                    let v = lnext.node().value.clone();
                    // Safety: our CAS unlinked lhead, which still holds it.
                    unsafe { self.reclaimer.retire(t, lhead.addr()) };
                    return v;
                }
                // The witness is the new head; EBR/Hyaline retry on it
                // directly, IBR/HP re-read the live word.
                Err(w) => lhead = self.protect_witness(t, w, &self.head),
            }
        }
    }
}

impl<V, S> ConcurrentQueue<V> for DoubleLinkQueue<V, S>
where
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    type Guard = smr::SectionGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.reclaimer.pin()
    }

    fn enqueue_with(&self, v: V, guard: &Self::Guard) {
        let t = self.reclaimer.tid(guard);
        self.enqueue_impl(t, v);
        self.reclaimer.collect(t);
    }

    fn dequeue_with(&self, guard: &Self::Guard) -> Option<V> {
        let t = self.reclaimer.tid(guard);
        let r = self.dequeue_impl(t);
        self.reclaimer.collect(t);
        r
    }
}

impl<V, S> Default for DoubleLinkQueue<V, S>
where
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V, S: AcquireRetire> Drop for DoubleLinkQueue<V, S> {
    fn drop(&mut self) {
        // Safety: exclusive access; linked nodes are not retired.
        let head = self.head.load(Ordering::SeqCst);
        unsafe { self.reclaimer.teardown([head]) };
    }
}

impl<V, S: AcquireRetire> std::fmt::Debug for DoubleLinkQueue<V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoubleLinkQueue")
            .field("scheme", &S::scheme_name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{Ebr, Hp, Hyaline, Ibr};
    use std::sync::Arc;

    fn fifo<S: AcquireRetire>() {
        let q: DoubleLinkQueue<u64, S> = DoubleLinkQueue::new();
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
        fifo::<Ebr>();
        fifo::<Ibr>();
        fifo::<Hp>();
        fifo::<Hyaline>();
    }

    /// The hand-written HP and IBR baselines are where reclamation bugs
    /// live, so the conservation test runs under every scheme.
    #[test]
    fn concurrent_pop_push_conserves_elements() {
        conserves_elements::<Ebr>();
        conserves_elements::<Ibr>();
        conserves_elements::<Hp>();
        conserves_elements::<Hyaline>();
    }

    fn conserves_elements<S: AcquireRetire>() {
        let q: Arc<DoubleLinkQueue<u64, S>> = Arc::new(DoubleLinkQueue::new());
        let threads = 8u64;
        for i in 0..threads {
            q.enqueue(i);
        }
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
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
        // All elements still present, each exactly once.
        let mut seen = Vec::new();
        while let Some(v) = q.dequeue() {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..threads).collect::<Vec<_>>());
    }

    #[test]
    fn no_leaks_after_drop() {
        let nodes;
        {
            let q: DoubleLinkQueue<u64, Hyaline> = DoubleLinkQueue::new();
            nodes = Arc::clone(&q.reclaimer.nodes);
            for i in 0..1000 {
                q.enqueue(i);
            }
            for _ in 0..500 {
                q.dequeue();
            }
        }
        assert_eq!(nodes.net(), 0);
    }
}
