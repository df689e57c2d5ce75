//! Harris-Michael lock-free ordered linked list (manual reclamation): the
//! one list of `src/list.rs`, run under the manual family (`Manual`, in
//! [`super`]). Reclamation is manual: the thread whose CAS unlinks a node
//! retires it, and freed nodes come back through `eject`.
//!
//! Traversal protection is hand-over-hand: the current node is acquired
//! (with validation, for protected-pointer schemes) from an edge that lives
//! in a node that is itself still protected, so no unprotected memory is
//! ever dereferenced.

use smr::sync::atomic::{AtomicUsize, Ordering};

use smr::{untagged, AcquireRetire, SectionGuard, SmrConfig};

use super::{Manual, ManualKind, ManualNode, Reclaimer};
use crate::list;
use crate::ConcurrentMap;

/// The list node, with plain-word edges and a birth epoch.
pub(super) type Node<K, V> = list::Node<K, V, ManualKind>;

impl<K, V> ManualNode for Node<K, V> {
    fn birth(&self) -> u64 {
        self.birth
    }

    fn out_edges(&self, out: &mut Vec<usize>) {
        out.push(untagged(self.next.load(Ordering::SeqCst)));
    }
}

/// A Harris-Michael ordered map under manual SMR scheme `S`, which owns
/// its scheme instance.
pub struct HarrisMichaelList<K, V, S: AcquireRetire> {
    head: AtomicUsize,
    reclaimer: Reclaimer<Node<K, V>, S>,
}

// Safety: nodes are only dereferenced under scheme protection; keys and
// values cross threads inside nodes and as `V: Send + Sync` clones.
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Send for HarrisMichaelList<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Sync for HarrisMichaelList<K, V, S> {}

impl<K, V, S> HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    /// Creates an empty list with its own scheme instance.
    pub fn new() -> Self {
        Self::with_config(S::default_config())
    }

    /// As [`new`](Self::new), with the scheme instance configured by `cfg`.
    pub fn with_config(cfg: SmrConfig) -> Self {
        HarrisMichaelList {
            head: AtomicUsize::new(0),
            reclaimer: Reclaimer::new(cfg),
        }
    }

    fn op<'g>(&'g self, guard: &'g SectionGuard<S>) -> Manual<'g, Node<K, V>, S> {
        // Safety: every node linked under `head` is a `Box<Node<K, V>>` of
        // `self.reclaimer`, retired through it once unlinked.
        unsafe { Manual::new(&self.reclaimer, guard) }
    }
}

impl<K, V, S> ConcurrentMap<K, V> for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    type Guard = smr::SectionGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.reclaimer.pin()
    }

    fn insert_with(&self, key: K, value: V, guard: &Self::Guard) -> bool {
        list::insert(self.op(guard), &self.head, key, value)
    }

    fn remove_with(&self, key: &K, guard: &Self::Guard) -> bool {
        list::remove(self.op(guard), &self.head, |n| n.key.cmp(key))
    }

    fn get_with(&self, key: &K, guard: &Self::Guard) -> Option<V> {
        list::get(
            self.op(guard),
            &self.head,
            |n| n.key.cmp(key),
            |n| n.value.clone(),
        )
    }

    fn in_flight_nodes(&self) -> u64 {
        self.reclaimer.in_flight()
    }
}

impl<K, V, S> Default for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: AcquireRetire> Drop for HarrisMichaelList<K, V, S> {
    fn drop(&mut self) {
        // Free reachable nodes (marked-but-linked included), then retired
        // ones. Safety: exclusive access; linked nodes are not retired.
        let head = untagged(self.head.load(Ordering::SeqCst));
        unsafe { self.reclaimer.teardown([head]) };
    }
}

impl<K, V, S: AcquireRetire> std::fmt::Debug for HarrisMichaelList<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarrisMichaelList")
            .field("scheme", &S::scheme_name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{Ebr, Hp, Hyaline, Ibr};
    use std::sync::Arc;

    /// How many of `keys` the list holds, counted with `get`.
    fn count<S: AcquireRetire>(
        list: &HarrisMichaelList<u64, u64, S>,
        keys: std::ops::Range<u64>,
    ) -> usize {
        keys.filter(|k| list.get(k).is_some()).count()
    }

    fn smoke<S: AcquireRetire>() {
        let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
        assert!(list.insert(5, 50));
        assert!(list.insert(3, 30));
        assert!(list.insert(7, 70));
        assert!(!list.insert(5, 55), "duplicate rejected");
        assert_eq!(list.get(&5), Some(50));
        assert_eq!(list.get(&4), None);
        assert!(list.remove(&5));
        assert!(!list.remove(&5));
        assert_eq!(list.get(&5), None);
        assert_eq!(count(&list, 0..10), 2);
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Ebr>();
        smoke::<Ibr>();
        smoke::<Hp>();
        smoke::<Hyaline>();
    }

    fn concurrent<S: AcquireRetire>() {
        let seed = crate::test_seed();
        let list: Arc<HarrisMichaelList<u64, u64, S>> = Arc::new(HarrisMichaelList::new());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 300) {
                        let k = i * 300 + j;
                        assert!(list.insert(k, k * 10));
                        assert_eq!(list.get(&k), Some(k * 10));
                        if j % 2 == 0 {
                            assert!(list.remove(&k));
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(threads, seed);
        assert_eq!(count(&list, 0..8 * 300), 8 * 150, "TEST_SEED={seed}");
    }

    #[test]
    fn concurrent_all_schemes() {
        concurrent::<Ebr>();
        concurrent::<Ibr>();
        concurrent::<Hp>();
        concurrent::<Hyaline>();
    }

    #[test]
    fn a_failed_insert_allocates_nothing() {
        fn on<S: AcquireRetire>() {
            let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
            crate::a_failed_insert_allocates_nothing(&list, || list.reclaimer.nodes.totals().0);
        }
        on::<Ebr>();
        on::<Ibr>();
        on::<Hp>();
        on::<Hyaline>();
    }

    #[test]
    fn contended_same_keys() {
        // Every thread's op stream derives from one seed, so a failing run
        // can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let list: Arc<HarrisMichaelList<u64, u64, Ebr>> = Arc::new(HarrisMichaelList::new());
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
                    for j in 0..500u64 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 16;
                        match (state >> 20) % 3 {
                            0 => {
                                list.insert(k, j);
                            }
                            1 => {
                                list.remove(&k);
                            }
                            _ => {
                                list.get(&k);
                            }
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join()
                .unwrap_or_else(|_| panic!("a worker died; replay with TEST_SEED={seed}"));
        }
    }

    #[test]
    fn no_leaks_after_drop() {
        let nodes;
        {
            let list: HarrisMichaelList<u64, u64, Ebr> = HarrisMichaelList::new();
            nodes = Arc::clone(&list.reclaimer.nodes);
            for k in 0..500u64 {
                list.insert(k, k);
            }
            for k in 0..250u64 {
                list.remove(&k);
            }
        }
        assert_eq!(nodes.net(), 0, "every node freed at drop");
    }

    type TestReclaimer<S> = Reclaimer<Node<u64, u64>, S>;

    /// The helping path, deterministically: behind `head` hang keys 1, 2, 3
    /// and a deleter of 2 has stalled right after its mark CAS (replayed
    /// here by setting the mark by hand). One `walk` to key 3 must unlink
    /// the victim and retire it exactly once; a second walk must find
    /// nothing left to help.
    fn walk_past_a_stalled_delete<S: AcquireRetire>(
        r: &TestReclaimer<S>,
        head: &AtomicUsize,
        walk: impl Fn(u64) -> bool,
    ) {
        let t = smr::current_tid();
        let settle = || {
            r.smr.flush(t);
            r.collect(t);
        };
        // Safety: single-threaded; nothing is freed before `settle`.
        let node = |w: usize| unsafe { &*(untagged(w) as *const Node<u64, u64>) };
        settle();
        let nodes_before = r.in_flight();
        let first = node(head.load(Ordering::SeqCst));
        let victim_w = first.next.load(Ordering::SeqCst);
        let last_w = node(victim_w).next.load(Ordering::SeqCst);
        assert_eq!((first.key, node(victim_w).key, node(last_w).key), (1, 2, 3));
        node(victim_w).next.fetch_or(list::MARK, Ordering::SeqCst);

        assert!(walk(3), "the walk gets past the marked node");
        assert_eq!(first.next.load(Ordering::SeqCst), last_w, "victim unlinked");
        let edges = || {
            (
                head.load(Ordering::SeqCst),
                first.next.load(Ordering::SeqCst),
            )
        };
        let after_first = edges();
        assert!(walk(3) && !walk(2));
        assert_eq!(edges(), after_first, "nothing left to CAS on a second walk");
        settle();
        assert_eq!(
            r.in_flight(),
            nodes_before - 1,
            "victim retired once and freed once; a second retire would free twice"
        );
    }

    fn helping<S: AcquireRetire>() {
        // From the list head, through the map interface.
        let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
        for k in [2, 3, 1] {
            assert!(list.insert(k, k * 10));
        }
        walk_past_a_stalled_delete(&list.reclaimer, &list.head, |k| {
            list.get(&k) == Some(k * 10)
        });
        assert_eq!(count(&list, 0..4), 2);

        // From a sentinel's edge, as the split-ordered map starts its
        // walks: the anchor is a `next` word inside a node that is never
        // deleted, not a list head. The free functions run on a reclaimer
        // of their own.
        let r: TestReclaimer<S> = Reclaimer::new(S::default_config());
        let new_node = |key: u64| {
            r.alloc(smr::current_tid(), |birth| Node {
                birth,
                key,
                value: key * 10,
                next: AtomicUsize::new(0),
            })
        };
        let sentinel = new_node(0);
        let anchor = &sentinel.next;
        for k in [2, 3, 1] {
            let guard = r.pin();
            // Safety: everything behind `anchor` is a node of this test,
            // retired through `r`.
            let f = unsafe { Manual::new(&r, &guard) };
            let c = list::find(f, anchor, |n| n.key.cmp(&k));
            assert!(!c.found);
            assert!(list::link_at(anchor, &c, new_node(k)).is_ok());
        }
        walk_past_a_stalled_delete(&r, anchor, |k| {
            let guard = r.pin();
            // Safety: as above.
            let f = unsafe { Manual::new(&r, &guard) };
            let c = list::find(f, anchor, |n| n.key.cmp(&k));
            c.found
        });
        let chain = untagged(sentinel.next.load(Ordering::SeqCst));
        // Safety: exclusive; the chain's nodes are linked, so not retired.
        unsafe { r.teardown([chain]) };
        r.discard(smr::current_tid(), sentinel);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn a_walk_helps_a_stalled_delete_exactly_once() {
        helping::<Ebr>();
        helping::<Ibr>();
        helping::<Hp>();
        helping::<Hyaline>();
    }
}
