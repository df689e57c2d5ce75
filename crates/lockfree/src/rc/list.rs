//! Harris-Michael list over reference-counted pointers ("RC" variants): the
//! one list of `src/list.rs`, run under the automatic family (`Rc`, in
//! [`super`]). Note what is *absent* relative to
//! [`crate::manual::list`]: no `retire`, no `eject`, no node freeing, no
//! birth epochs — a successful unlink CAS transfers the last
//! location-owned reference to the deferred machinery and the node (plus
//! anything only it references) is reclaimed automatically.
//!
//! Each list owns a reclamation domain: [`new`](RcHarrisMichaelList::new)
//! binds to the scheme's global default, [`new_in`](RcHarrisMichaelList::new_in)
//! to an explicit (possibly shared) [`DomainRef`]. Every node is allocated
//! under that domain, `pin` opens sections on it, and
//! [`in_flight_nodes`](crate::ConcurrentMap::in_flight_nodes) reads its
//! counters — exact for this structure (plus any structures deliberately
//! sharing the domain).

use cdrc::{AtomicSharedPtr, CsGuard, DomainRef, EdgeCollector, GraphNode, Scheme, SharedPtr};

use super::{Rc, RcKind};
use crate::list;
use crate::ConcurrentMap;

/// The list node, with counted edges.
pub(super) type Node<K, V, S> = list::Node<K, V, RcKind<S>>;

impl<K, V, S: Scheme> GraphNode<S> for Node<K, V, S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
    }
}

/// Harris-Michael ordered map over `cdrc` pointers with scheme `S`
/// ("RCEBR", "RCIBR", "RCHP", "RCHyaline" depending on `S`).
pub struct RcHarrisMichaelList<K, V, S: Scheme> {
    head: AtomicSharedPtr<Node<K, V, S>, S>,
    domain: DomainRef<S>,
}

impl<K, V, S> RcHarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    /// Creates an empty list bound to the scheme's global domain.
    pub fn new() -> Self {
        Self::new_in(S::global_domain().clone())
    }

    /// Creates an empty list bound to `domain`. Pass a fresh
    /// [`DomainRef::new`] for full isolation, or a clone of another
    /// structure's domain to reclaim (and meter) together.
    pub fn new_in(domain: DomainRef<S>) -> Self {
        RcHarrisMichaelList {
            head: AtomicSharedPtr::null_in(&domain),
            domain,
        }
    }

    /// The reclamation domain this list allocates and reclaims through.
    pub fn domain(&self) -> &DomainRef<S> {
        &self.domain
    }

    fn op<'g>(&'g self, cs: &'g CsGuard<S>) -> Rc<'g, Node<K, V, S>, S> {
        Rc::new(cs, &self.domain)
    }
}

impl<K, V, S> ConcurrentMap<K, V> for RcHarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    type Guard = CsGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.domain.cs()
    }

    fn insert_with(&self, k: K, v: V, cs: &Self::Guard) -> bool {
        list::insert(self.op(cs), &self.head, k, v)
    }

    fn remove_with(&self, k: &K, cs: &Self::Guard) -> bool {
        list::remove(self.op(cs), &self.head, |n| n.key.cmp(k))
    }

    fn get_with(&self, k: &K, cs: &Self::Guard) -> Option<V> {
        list::get(
            self.op(cs),
            &self.head,
            |n| n.key.cmp(k),
            |n| n.value.clone(),
        )
    }

    /// Exact for this list's own domain: live nodes plus deferred garbage
    /// of this structure (and of any structure deliberately sharing the
    /// domain via [`new_in`](RcHarrisMichaelList::new_in)).
    fn in_flight_nodes(&self) -> u64 {
        self.domain.in_flight()
    }
}

impl<K, V, S> Default for RcHarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: Scheme> Drop for RcHarrisMichaelList<K, V, S> {
    fn drop(&mut self) {
        // Unlink the chain, then flush our domain so a structure with a
        // private domain leaves `allocated() == freed()` behind (garbage
        // pinned by a concurrent section on a *shared* domain stays
        // deferred and is collected by that domain's later activity).
        self.head.store(SharedPtr::null());
        self.domain.process_deferred(smr::current_tid());
    }
}

impl<K, V, S: Scheme> std::fmt::Debug for RcHarrisMichaelList<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcHarrisMichaelList")
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme};
    use std::sync::Arc;

    fn smoke<S: Scheme>() {
        let list: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new();
        assert!(list.insert(5, 50));
        assert!(list.insert(3, 30));
        assert!(list.insert(7, 70));
        assert!(!list.insert(5, 55));
        assert_eq!(list.get(&5), Some(50));
        assert_eq!(list.get(&4), None);
        assert!(list.remove(&5));
        assert!(!list.remove(&5));
        assert_eq!(list.get(&5), None);
        assert_eq!(list.get(&3), Some(30));
        assert_eq!(list.get(&7), Some(70));
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<EbrScheme>();
        smoke::<IbrScheme>();
        smoke::<HpScheme>();
        smoke::<HyalineScheme>();
    }

    #[test]
    fn instance_domain_is_exact_and_balances() {
        let domain: DomainRef<EbrScheme> = DomainRef::new();
        let list: RcHarrisMichaelList<u64, u64, EbrScheme> =
            RcHarrisMichaelList::new_in(domain.clone());
        for k in 0..64u64 {
            assert!(list.insert(k, k));
        }
        for k in 0..32u64 {
            assert!(list.remove(&k));
        }
        domain.process_deferred(smr::current_tid());
        assert_eq!(list.in_flight_nodes(), 32, "exactly the live nodes");
        drop(list);
        assert_eq!(domain.allocated(), domain.freed(), "Drop flushes");
    }

    fn concurrent<S: Scheme>() {
        let seed = crate::test_seed();
        let list: Arc<RcHarrisMichaelList<u64, u64, S>> = Arc::new(RcHarrisMichaelList::new());
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 300) {
                        let k = i * 1000 + j;
                        assert!(list.insert(k, k));
                        assert_eq!(list.get(&k), Some(k));
                        if j % 2 == 0 {
                            assert!(list.remove(&k));
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(hs, seed);
        for i in 0..8u64 {
            for j in 0..300u64 {
                let k = i * 1000 + j;
                let want = if j % 2 == 0 { None } else { Some(k) };
                assert_eq!(list.get(&k), want, "key {k}, TEST_SEED={seed}");
            }
        }
    }

    #[test]
    fn concurrent_all_schemes() {
        concurrent::<EbrScheme>();
        concurrent::<IbrScheme>();
        concurrent::<HpScheme>();
        concurrent::<HyalineScheme>();
    }

    #[test]
    fn a_failed_insert_allocates_nothing() {
        fn on<S: Scheme>() {
            let d: DomainRef<S> = DomainRef::new();
            let list: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(d.clone());
            crate::a_failed_insert_allocates_nothing(&list, || d.allocated());
        }
        on::<EbrScheme>();
        on::<IbrScheme>();
        on::<HpScheme>();
        on::<HyalineScheme>();
    }

    /// Under an open guard, an insert between two nodes leaves the
    /// successor's count where it was, and settling it frees nothing: the
    /// edge's reference to the successor moved into the new node instead
    /// of being counted there and its decrement deferred.
    fn a_link_moves_it_does_not_count<S: Scheme>() {
        let d: DomainRef<S> = DomainRef::new();
        let list: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(d.clone());
        assert!(list.insert(1, 10) && list.insert(3, 30));
        let first = list.head.load();
        let succ = first.as_ref().unwrap().next.load();
        assert_eq!(succ.as_ref().unwrap().key, 3);
        assert_eq!(succ.strong_count(), 2, "the edge's reference and ours");
        let (allocated, freed) = (d.allocated(), d.freed());
        {
            let cs = list.pin();
            assert!(list.insert_with(2, 20, &cs));
            assert_eq!(
                succ.strong_count(),
                2,
                "{}: the link counted the successor",
                S::scheme_name()
            );
        }
        d.process_deferred(smr::current_tid());
        assert_eq!((d.allocated(), d.freed()), (allocated + 1, freed));
        assert_eq!(succ.strong_count(), 2);
        assert_eq!(list.get(&2), Some(20));
    }

    #[test]
    fn a_link_moves_it_does_not_count_all_schemes() {
        a_link_moves_it_does_not_count::<EbrScheme>();
        a_link_moves_it_does_not_count::<IbrScheme>();
        a_link_moves_it_does_not_count::<HpScheme>();
        a_link_moves_it_does_not_count::<HyalineScheme>();
    }

    #[test]
    fn contended_same_keys() {
        // Every thread's op stream derives from one seed, so a failing run
        // can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let list: Arc<RcHarrisMichaelList<u64, u64, EbrScheme>> =
            Arc::new(RcHarrisMichaelList::new());
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
                    for _ in 0..1000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 16;
                        match (state >> 20) % 3 {
                            0 => {
                                list.insert(k, k);
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
        for h in hs {
            h.join()
                .unwrap_or_else(|_| panic!("a worker died; replay with TEST_SEED={seed}"));
        }
    }

    type TestNode<S> = Node<u64, u64, S>;

    /// The helping path, deterministically: behind `head` hang keys 1, 2, 3
    /// and a deleter of 2 has stalled right after its mark CAS (replayed
    /// here by setting the mark by hand). One `walk` to key 3 must unlink
    /// the victim, whose displaced reference is released exactly once; a
    /// second walk must find nothing left to help.
    fn walk_past_a_stalled_delete<S: Scheme>(
        domain: &DomainRef<S>,
        head: &AtomicSharedPtr<TestNode<S>, S>,
        walk: impl Fn(u64) -> bool,
    ) {
        let settle = || domain.process_deferred(smr::current_tid());
        settle();
        let nodes_before = domain.allocated() - domain.freed();
        let first = head.load();
        let first = first.as_ref().unwrap();
        let victim = first.next.load();
        let last = victim.as_ref().unwrap().next.load_tagged();
        assert_eq!((first.key, victim.as_ref().unwrap().key), (1, 2));
        victim.as_ref().unwrap().next.fetch_or_tag(list::MARK);
        drop(victim);

        assert!(walk(3), "the walk gets past the marked node");
        assert_eq!(first.next.load_tagged(), last, "victim unlinked");
        let edges = || (head.load_tagged(), first.next.load_tagged());
        let after_first = edges();
        assert!(walk(3) && !walk(2));
        assert_eq!(edges(), after_first, "nothing left to CAS on a second walk");
        settle();
        assert_eq!(
            domain.allocated() - domain.freed(),
            nodes_before - 1,
            "the victim, and only the victim, was released"
        );
    }

    fn helping<S: Scheme>() {
        let domain: DomainRef<S> = DomainRef::new();
        let new_node = |key: u64| {
            let next = AtomicSharedPtr::null_in(&domain);
            let value = key * 10;
            let birth = ();
            SharedPtr::new_graph_in(
                Node {
                    key,
                    value,
                    next,
                    birth,
                },
                &domain,
            )
        };

        // From the list head, through the map interface.
        let list: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(domain.clone());
        for k in [2, 3, 1] {
            assert!(list.insert(k, k * 10));
        }
        walk_past_a_stalled_delete(&domain, &list.head, |k| list.get(&k) == Some(k * 10));

        // From a sentinel's edge, as the split-ordered map starts its
        // walks: the anchor is a `next` word inside a node that is never
        // deleted, not a list head.
        let sentinel = new_node(0);
        let anchor = &sentinel.as_ref().unwrap().next;
        for k in [2, 3, 1] {
            let cs = domain.cs();
            let c = list::find(Rc::new(&cs, &domain), anchor, |n: &TestNode<S>| {
                n.key.cmp(&k)
            });
            assert!(!c.found);
            assert!(list::link_at(anchor, &c, new_node(k)).is_ok());
        }
        walk_past_a_stalled_delete(&domain, anchor, |k| {
            let cs = domain.cs();
            let c = list::find(Rc::new(&cs, &domain), anchor, |n: &TestNode<S>| {
                n.key.cmp(&k)
            });
            c.found
        });
        drop((list, sentinel));
        domain.process_deferred(smr::current_tid());
        assert_eq!(domain.allocated(), domain.freed());
    }

    #[test]
    fn a_walk_helps_a_stalled_delete_exactly_once() {
        helping::<EbrScheme>();
        helping::<IbrScheme>();
        helping::<HpScheme>();
        helping::<HyalineScheme>();
    }
}
