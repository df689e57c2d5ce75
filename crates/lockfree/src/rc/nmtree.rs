//! Natarajan-Mittal tree over reference-counted pointers.
//!
//! Compare [`cleanup`](RcNatarajanMittalTree) with the manual version: the
//! entire Figure-1a retire walk is gone. The single ancestor-edge CAS drops
//! the location's reference to the spliced-out chain, and deferred
//! reference counting reclaims every chain node and flagged leaf
//! automatically — this is the paper's Figure 1b.
//!
//! An insert touches no count either: it links its replacement subtree
//! with [`AtomicSharedPtr::link`], which moves the parent edge's reference
//! to the old leaf into the new internal node's edge.

use std::marker::PhantomData;

use cdrc::{
    AtomicSharedPtr, CsGuard, DomainRef, EdgeCollector, GraphNode, Scheme, SharedPtr, SnapshotPtr,
    StrongRef, TaggedPtr,
};

use crate::nm::{NmKey, FLAG, TAG};
use crate::ConcurrentMap;

struct Node<K, V, S: Scheme> {
    key: NmKey<K>,
    value: Option<V>,
    left: AtomicSharedPtr<Node<K, V, S>, S>,
    right: AtomicSharedPtr<Node<K, V, S>, S>,
}

impl<K, V, S: Scheme> GraphNode<S> for Node<K, V, S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.left);
        out.take_atomic(&mut self.right);
    }
}

impl<K: Ord + Send + Sync, V: Send + Sync, S: Scheme> Node<K, V, S> {
    fn leaf(domain: &DomainRef<S>, key: NmKey<K>, value: Option<V>) -> SharedPtr<Node<K, V, S>, S> {
        SharedPtr::new_graph_in(
            Node {
                key,
                value,
                left: AtomicSharedPtr::null_in(domain),
                right: AtomicSharedPtr::null_in(domain),
            },
            domain,
        )
    }

    fn is_leaf(&self) -> bool {
        self.left.load_tagged().is_null()
    }

    fn child_edge(&self, key: &NmKey<K>) -> &AtomicSharedPtr<Node<K, V, S>, S> {
        if *key < self.key {
            &self.left
        } else {
            &self.right
        }
    }
}

struct Seek<'g, K, V, S: Scheme> {
    ancestor: SnapshotPtr<'g, Node<K, V, S>, S>,
    /// CAS comparand only.
    successor: TaggedPtr<Node<K, V, S>>,
    parent: SnapshotPtr<'g, Node<K, V, S>, S>,
    leaf: SnapshotPtr<'g, Node<K, V, S>, S>,
}

/// The Natarajan-Mittal tree over `cdrc` pointers with scheme `S`.
pub struct RcNatarajanMittalTree<K, V, S: Scheme> {
    /// R (key ∞₂); R.left = S (key ∞₁). Held in atomics so seeks can take
    /// uniform snapshots; neither sentinel is ever replaced.
    root: AtomicSharedPtr<Node<K, V, S>, S>,
    domain: DomainRef<S>,
    _marker: PhantomData<(K, V)>,
}

impl<K, V, S> RcNatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    /// Creates an empty tree bound to the scheme's global domain.
    pub fn new() -> Self {
        Self::new_in(S::global_domain().clone())
    }

    /// Creates an empty tree bound to `domain`. Pass a fresh
    /// [`DomainRef::new`] for full isolation, or a clone of another
    /// structure's domain to reclaim (and meter) together.
    pub fn new_in(domain: DomainRef<S>) -> Self {
        let sentinel_s: SharedPtr<Node<K, V, S>, S> = SharedPtr::new_graph_in(
            Node {
                key: NmKey::Inf1,
                value: None,
                left: AtomicSharedPtr::new_in(Node::leaf(&domain, NmKey::Inf0, None), &domain),
                right: AtomicSharedPtr::new_in(Node::leaf(&domain, NmKey::Inf1, None), &domain),
            },
            &domain,
        );
        let root: SharedPtr<Node<K, V, S>, S> = SharedPtr::new_graph_in(
            Node {
                key: NmKey::Inf2,
                value: None,
                left: AtomicSharedPtr::new_in(sentinel_s, &domain),
                right: AtomicSharedPtr::new_in(Node::leaf(&domain, NmKey::Inf2, None), &domain),
            },
            &domain,
        );
        RcNatarajanMittalTree {
            root: AtomicSharedPtr::new_in(root, &domain),
            domain,
            _marker: PhantomData,
        }
    }

    /// The reclamation domain this tree allocates and reclaims through.
    pub fn domain(&self) -> &DomainRef<S> {
        &self.domain
    }

    fn seek<'g>(&self, cs: &'g CsGuard<S>, key: &NmKey<K>) -> Seek<'g, K, V, S> {
        let r = self.root.get_snapshot(cs);
        // R.left = S, never removed, edge never tagged.
        let s_snap = r.as_ref().unwrap().left.get_snapshot(cs);
        let mut ancestor = r;
        let mut successor = s_snap.tagged().with_tag(0);
        let mut child = s_snap.as_ref().unwrap().child_edge(key).get_snapshot(cs);
        let mut parent = s_snap;
        loop {
            let node = child.as_ref().expect("external tree edges are total");
            if node.is_leaf() {
                return Seek {
                    ancestor,
                    successor,
                    parent,
                    leaf: child,
                };
            }
            let edge_tagged = child.tag() & TAG != 0;
            if !edge_tagged {
                // parent→child untagged: parent becomes the ancestor, child
                // the successor.
                ancestor = parent;
                successor = child.tagged().with_tag(0);
                parent = child.with_tag(0);
            } else {
                parent = child;
            }
            child = parent.as_ref().unwrap().child_edge(key).get_snapshot(cs);
        }
    }

    /// Splices the flagged chain out with one CAS. No retire loop: dropping
    /// the location's reference reclaims the whole chain (Fig. 1b).
    fn cleanup(&self, cs: &CsGuard<S>, key: &NmKey<K>, s: &Seek<'_, K, V, S>) -> bool {
        let ancestor = s.ancestor.as_ref().unwrap();
        let parent = s.parent.as_ref().unwrap();
        let (child_loc, mut sibling_loc) = if *key < parent.key {
            (&parent.left, &parent.right)
        } else {
            (&parent.right, &parent.left)
        };
        if child_loc.load_tagged().tag() & FLAG == 0 {
            // The flag is on the other side; we are helping that delete.
            sibling_loc = child_loc;
        }
        // Freeze the sibling edge (pointer can no longer change).
        let sib_w = sibling_loc.fetch_or_tag(TAG);
        let sibling = sibling_loc.get_snapshot(cs);
        debug_assert!(sibling.tagged().ptr_eq(sib_w));
        // Swing the ancestor's edge from the successor to the sibling,
        // preserving a pending flag on the sibling so that delete can
        // continue at the new location. On success the displaced pointer is
        // the spliced-out chain; dropping it reclaims every chain node and
        // flagged leaf — the paper's Fig. 1b, with the ownership now
        // explicit in the return value.
        match ancestor.child_edge(key).compare_exchange(
            s.successor,
            sibling.to_shared(),
            sib_w.tag() & FLAG,
        ) {
            Ok(chain) => {
                drop(chain);
                true
            }
            Err(_) => false, // another helper already swung the edge
        }
    }

    fn insert_impl(&self, cs: &CsGuard<S>, key: K, value: V) -> bool {
        let nmkey = NmKey::Fin(key);
        // The value, until the first miss builds the new leaf; the leaf is
        // then kept across lost races.
        let mut pending: Result<SharedPtr<Node<K, V, S>, S>, V> = Err(value);
        loop {
            let s = self.seek(cs, &nmkey);
            let leaf = s.leaf.as_ref().unwrap();
            if leaf.key == nmkey {
                return false;
            }
            let new_leaf = pending
                .unwrap_or_else(|value| Node::leaf(&self.domain, nmkey.clone(), Some(value)));
            // The replacement subtree: internal(max) { old leaf, new leaf }.
            // Its key and child order depend on the leaf this seek found,
            // so it is built per attempt, with the old leaf's side left
            // null for `link` to fill.
            let new_left = nmkey < leaf.key;
            let ikey = if new_left { &leaf.key } else { &nmkey };
            let (l, r) = if new_left {
                (new_leaf, SharedPtr::null())
            } else {
                (SharedPtr::null(), new_leaf)
            };
            let new_internal: SharedPtr<Node<K, V, S>, S> = SharedPtr::new_graph_in(
                Node {
                    key: ikey.clone(),
                    value: None,
                    left: AtomicSharedPtr::new_in(l, &self.domain),
                    right: AtomicSharedPtr::new_in(r, &self.domain),
                },
                &self.domain,
            );
            let parent = s.parent.as_ref().unwrap();
            // The parent edge's reference to the old leaf moves into the new
            // internal node's edge, and ours to the internal node into the
            // parent edge: no count changes.
            match parent
                .child_edge(&nmkey)
                .link(s.leaf.tagged().with_tag(0), new_internal, |n| {
                    n.child_edge(&leaf.key)
                }) {
                Ok(()) => return true,
                Err(e) => {
                    // Take the new leaf back out of the unpublished internal
                    // node for the next attempt.
                    let internal = e.desired.as_ref().expect("the internal node");
                    pending = Ok(internal.child_edge(&nmkey).take());
                    // The witness replaces the old re-load: if the edge
                    // still points at the leaf but carries a flag/tag, a
                    // delete is pending on it — help before retrying.
                    let w = e.current;
                    if w.ptr_eq(s.leaf.tagged()) && w.tag() != 0 {
                        self.cleanup(cs, &nmkey, &s);
                    }
                }
            }
        }
    }

    fn remove_impl(&self, cs: &CsGuard<S>, key: &K) -> bool {
        let nmkey = NmKey::Fin(key.clone());
        // Pins the victim's address across retries (ABA defence) once we
        // have flagged it.
        let mut target: Option<SharedPtr<Node<K, V, S>, S>> = None;
        loop {
            let s = self.seek(cs, &nmkey);
            match &target {
                None => {
                    let leaf = s.leaf.as_ref().unwrap();
                    if leaf.key != nmkey {
                        return false;
                    }
                    let parent = s.parent.as_ref().unwrap();
                    let edge = parent.child_edge(&nmkey);
                    let expected = s.leaf.tagged().with_tag(0);
                    match edge.try_set_tag(expected, FLAG) {
                        Ok(_) => {
                            target = Some(s.leaf.to_shared());
                            if self.cleanup(cs, &nmkey, &s) {
                                return true;
                            }
                        }
                        Err(w) => {
                            // Witness instead of a re-load: a competing
                            // flag/tag on our leaf's edge means a delete is
                            // in progress there — help it along.
                            if w.ptr_eq(s.leaf.tagged()) && w.tag() != 0 {
                                self.cleanup(cs, &nmkey, &s);
                            }
                        }
                    }
                }
                Some(t) => {
                    if s.leaf.tagged().addr() != t.addr() {
                        return true; // a helper finished our removal
                    }
                    if self.cleanup(cs, &nmkey, &s) {
                        return true;
                    }
                }
            }
        }
    }

    fn get_impl(&self, cs: &CsGuard<S>, key: &K) -> Option<V> {
        let nmkey = NmKey::Fin(key.clone());
        let s = self.seek(cs, &nmkey);
        let leaf = s.leaf.as_ref().unwrap();
        if leaf.key == nmkey {
            leaf.value.clone()
        } else {
            None
        }
    }

    fn range_impl(&self, cs: &CsGuard<S>, from: &K, to: &K, limit: usize) -> usize {
        let lo = NmKey::Fin(from.clone());
        let hi = NmKey::Fin(to.clone());
        let mut found = 0usize;
        // The entire path (in fact frontier) is protected by snapshots —
        // exactly the behaviour Fig. 11 measures: protected-region schemes
        // keep taking fast-path snapshots, RCHP runs out of hazard slots and
        // falls back to reference-count increments.
        let mut stack = vec![self.root.get_snapshot(cs)];
        while let Some(snap) = stack.pop() {
            if found >= limit {
                break;
            }
            let node = snap.as_ref().unwrap();
            if node.is_leaf() {
                if node.key >= lo && node.key < hi {
                    found += 1;
                }
                continue;
            }
            if hi >= node.key {
                stack.push(node.right.get_snapshot(cs));
            }
            if lo < node.key {
                stack.push(node.left.get_snapshot(cs));
            }
        }
        found
    }
}

impl<K, V, S> ConcurrentMap<K, V> for RcNatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    type Guard = CsGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.domain.cs()
    }

    fn insert_with(&self, k: K, v: V, cs: &Self::Guard) -> bool {
        debug_assert!(cs.covers(&self.domain), "guard from a foreign domain");
        self.insert_impl(cs, k, v)
    }

    fn remove_with(&self, k: &K, cs: &Self::Guard) -> bool {
        debug_assert!(cs.covers(&self.domain), "guard from a foreign domain");
        self.remove_impl(cs, k)
    }

    fn get_with(&self, k: &K, cs: &Self::Guard) -> Option<V> {
        debug_assert!(cs.covers(&self.domain), "guard from a foreign domain");
        self.get_impl(cs, k)
    }

    fn range_with(&self, from: &K, to: &K, limit: usize, cs: &Self::Guard) -> Option<usize> {
        debug_assert!(cs.covers(&self.domain), "guard from a foreign domain");
        Some(self.range_impl(cs, from, to, limit))
    }

    fn range(&self, from: &K, to: &K, limit: usize) -> Option<usize> {
        self.range_with(from, to, limit, &self.pin())
    }

    /// Exact for this tree's own domain: live nodes plus deferred garbage
    /// of this structure (and of any structure deliberately sharing the
    /// domain via [`new_in`](RcNatarajanMittalTree::new_in)).
    fn in_flight_nodes(&self) -> u64 {
        self.domain.in_flight()
    }
}

impl<K, V, S: Scheme> Drop for RcNatarajanMittalTree<K, V, S> {
    fn drop(&mut self) {
        // Unlink the whole tree, then flush our domain so a structure with
        // a private domain leaves `allocated() == freed()` behind.
        self.root.store(SharedPtr::null());
        self.domain.process_deferred(smr::current_tid());
    }
}

impl<K, V, S> Default for RcNatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: Scheme> std::fmt::Debug for RcNatarajanMittalTree<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcNatarajanMittalTree")
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme};
    use std::sync::Arc;

    fn smoke<S: Scheme>() {
        let tree: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
        assert_eq!(tree.get(&10), None);
        assert!(tree.insert(10, 100));
        assert!(tree.insert(5, 50));
        assert!(tree.insert(15, 150));
        assert!(!tree.insert(10, 101));
        assert_eq!(tree.get(&10), Some(100));
        assert!(tree.remove(&10));
        assert!(!tree.remove(&10));
        assert_eq!(tree.get(&10), None);
        assert_eq!(tree.get(&15), Some(150));
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<EbrScheme>();
        smoke::<IbrScheme>();
        smoke::<HpScheme>();
        smoke::<HyalineScheme>();
    }

    #[test]
    fn sequential_model_check() {
        use std::collections::BTreeMap;
        let tree: RcNatarajanMittalTree<u64, u64, EbrScheme> = RcNatarajanMittalTree::new();
        let mut model = BTreeMap::new();
        let mut state = 0xdeadbeefu64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (state >> 33) % 64;
            match (state >> 20) % 3 {
                0 => assert_eq!(tree.insert(k, k * 2), model.insert(k, k * 2).is_none()),
                1 => assert_eq!(tree.remove(&k), model.remove(&k).is_some()),
                _ => assert_eq!(tree.get(&k), model.get(&k).copied()),
            }
        }
    }

    #[test]
    fn range_supported_on_all_schemes_including_hp() {
        fn run<S: Scheme>() {
            let tree: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
            for k in 0..100 {
                tree.insert(k, k);
            }
            assert_eq!(tree.range(&10, &20, 1000), Some(10));
            assert_eq!(tree.range(&0, &100, 7), Some(7));
        }
        run::<EbrScheme>();
        // The paper's point: RCHP supports the range query unmodified (it
        // falls back to count increments when hazard slots run out).
        run::<HpScheme>();
    }

    fn concurrent<S: Scheme>() {
        let seed = crate::test_seed();
        let tree: Arc<RcNatarajanMittalTree<u64, u64, S>> = Arc::new(RcNatarajanMittalTree::new());
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 400) {
                        let k = i * 1000 + j;
                        assert!(tree.insert(k, k));
                        assert_eq!(tree.get(&k), Some(k));
                        if j % 2 == 0 {
                            assert!(tree.remove(&k));
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(hs, seed);
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
            let tree: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new_in(d.clone());
            crate::a_failed_insert_allocates_nothing(&tree, || d.allocated());
        }
        on::<EbrScheme>();
        on::<IbrScheme>();
        on::<HpScheme>();
        on::<HyalineScheme>();
    }

    #[test]
    fn contended_mixed_with_ranges() {
        // Every thread's op stream derives from one seed, so a failing run
        // can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let tree: Arc<RcNatarajanMittalTree<u64, u64, HyalineScheme>> =
            Arc::new(RcNatarajanMittalTree::new());
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
                    for _ in 0..1500 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 128;
                        match (state >> 20) % 4 {
                            0 => {
                                tree.insert(k, k);
                            }
                            1 => {
                                tree.remove(&k);
                            }
                            2 => {
                                tree.get(&k);
                            }
                            _ => {
                                tree.range(&k, &(k + 16), 16);
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
}
