//! Natarajan-Mittal lock-free external binary search tree (manual
//! reclamation).
//!
//! An external (leaf-oriented) BST: internal nodes route, leaves store
//! key/value pairs. Deletion *flags* the edge to the victim leaf, *tags* the
//! sibling edge to freeze it, and swings the ancestor's edge to splice the
//! whole chain out with one CAS. The winner of that CAS must then walk the
//! spliced-out chain retiring every internal node and flagged leaf — the
//! easy-to-forget loop of the paper's Figure 1a (the code this crate's `rc`
//! variant deletes entirely).
//!
//! Edge words carry two low bits: `FLAG` (bit 0 — the child leaf is being
//! deleted) and `TAG` (bit 1 — the edge is frozen because the child internal
//! node is being spliced out).
//!
//! Protection: each operation runs in one critical section, and a seek
//! holds the ancestor, successor, parent and leaf it ends on as
//! `Held`s, read hand-over-hand; nothing is given back by hand.
//!
//! # Frozen edges
//!
//! The paper runs a "modified, correct HP variant" of this tree (§5.1);
//! hand-over-hand guards alone do not make one, under HP or under IBR.
//! Before a chain is spliced out every out-edge of each of its nodes is
//! marked (flagged or tagged), and a marked edge never changes again: a
//! spliced-out node has no unmarked out-edge, and an edge read from one is
//! a frozen word that proves nothing. The node it names may already be
//! retired and freed, yet HP's revalidating re-read of the edge passes, and
//! IBR's interval covers a node only if it was reachable during the
//! section. Under EBR and Hyaline the open section alone protects the whole
//! path ([`AcquireRetire::PROTECTS_SECTION_READS`]); the RC tree is immune
//! because a frozen edge owns a count.
//!
//! So under IBR and HP a seek that reaches a node through a marked edge
//! re-loads the ancestor's edge toward the key before it dereferences that
//! node, and restarts unless the edge still holds the successor, untagged.
//! That unmarked edge proves the ancestor linked; every edge from the
//! successor down to the node is marked, hence frozen; so the node is
//! reachable after it was acquired, and the acquire protects it. The
//! comparison is by address, so the seek keeps the successor held — its
//! address cannot come back while it is compared, here or as the splice's
//! CAS comparand. The range query under IBR does not descend through a
//! marked edge (the count is not linearizable anyway); under HP it is not
//! offered.

use smr::sync::atomic::{AtomicUsize, Ordering};

use smr::{AcquireRetire, Tid};

use super::{Held, ManualNode, Reclaimer};
use crate::nm::{NmKey, FLAG, TAG};
use crate::ConcurrentMap;

const BITS: usize = FLAG | TAG;

#[inline]
fn addr(w: usize) -> usize {
    w & !BITS
}

#[inline]
fn flagged(w: usize) -> bool {
    w & FLAG != 0
}

#[inline]
fn tagged(w: usize) -> bool {
    w & TAG != 0
}

struct Node<K, V> {
    birth: u64,
    key: NmKey<K>,
    /// Present on value-bearing leaves only.
    value: Option<V>,
    left: AtomicUsize,
    right: AtomicUsize,
}

impl<K, V> ManualNode for Node<K, V> {
    fn birth(&self) -> u64 {
        self.birth
    }

    fn out_edges(&self, out: &mut Vec<usize>) {
        // Ordering: Relaxed — edge harvest runs at destruction time, when
        // the reclaimer has exclusive access to the node; the words can no
        // longer change and their pointees were acquired at unlink.
        out.push(addr(self.left.load(Ordering::Relaxed)));
        out.push(addr(self.right.load(Ordering::Relaxed)));
    }
}

impl<K: Ord, V> Node<K, V> {
    fn internal(birth: u64, key: NmKey<K>, left: usize, right: usize) -> Self {
        Node {
            birth,
            key,
            value: None,
            left: AtomicUsize::new(left),
            right: AtomicUsize::new(right),
        }
    }

    fn leaf(birth: u64, key: NmKey<K>, value: Option<V>) -> Self {
        Node {
            value,
            ..Self::internal(birth, key, 0, 0)
        }
    }

    fn is_leaf(&self) -> bool {
        addr(self.left.load(Ordering::SeqCst)) == 0
    }

    /// The child edge on `key`'s search path.
    fn child(&self, key: &NmKey<K>) -> &AtomicUsize {
        if *key < self.key {
            &self.left
        } else {
            &self.right
        }
    }
}

type NodeRef<'r, K, V, S> = Held<'r, Node<K, V>, S>;

/// Where a seek ends (paper Fig. 1): the last untagged edge on the search
/// path is `ancestor → successor`; `parent → leaf` is the final edge.
struct Seek<'r, K, V, S: AcquireRetire> {
    ancestor: NodeRef<'r, K, V, S>,
    successor: NodeRef<'r, K, V, S>,
    /// The parent, unless it is the successor.
    below: Option<NodeRef<'r, K, V, S>>,
    leaf: NodeRef<'r, K, V, S>,
}

impl<'r, K, V, S: AcquireRetire> Seek<'r, K, V, S> {
    fn parent(&self) -> &NodeRef<'r, K, V, S> {
        self.below.as_ref().unwrap_or(&self.successor)
    }
}

/// The Natarajan-Mittal tree under manual SMR scheme `S`.
pub struct NatarajanMittalTree<K, V, S: AcquireRetire> {
    /// Root internal node R (key ∞₂); R.left = S (key ∞₁); sentinels are
    /// never unlinked.
    root: *mut Node<K, V>,
    reclaimer: Reclaimer<Node<K, V>, S>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Send
    for NatarajanMittalTree<K, V, S>
{
}
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Sync
    for NatarajanMittalTree<K, V, S>
{
}

impl<K, V, S> NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    /// Creates an empty tree with its own scheme instance.
    pub fn new() -> Self {
        let reclaimer = Reclaimer::new(S::default_config());
        // Initial shape (paper [21]): R(∞₂){ S(∞₁){ leaf ∞₀, leaf ∞₁ },
        // leaf ∞₂ }. Real keys all route left of S.
        // Sentinels are never retired, so their birth epoch goes unread.
        let t = smr::current_tid();
        let new = |n: Node<K, V>| Box::into_raw(reclaimer.alloc(t, |_| n)) as usize;
        let l0 = new(Node::leaf(0, NmKey::Inf0, None));
        let l1 = new(Node::leaf(0, NmKey::Inf1, None));
        let l2 = new(Node::leaf(0, NmKey::Inf2, None));
        let sentinel_s = new(Node::internal(0, NmKey::Inf1, l0, l1));
        let root = new(Node::internal(0, NmKey::Inf2, sentinel_s, l2));
        NatarajanMittalTree {
            root: root as *mut _,
            reclaimer,
        }
    }

    /// Walks from the root to the leaf on `key`'s search path, restarting
    /// when a marked edge cannot be trusted (module docs). Runs inside the
    /// operation's critical section.
    fn seek(&self, t: Tid, key: &NmKey<K>) -> Seek<'_, K, V, S> {
        let r = &self.reclaimer;
        'restart: loop {
            // Safety: R and S are sentinels, and R.left is S for good.
            let mut ancestor = unsafe { r.unguarded(t, self.root as usize) };
            let sentinel_s = ancestor.node().left.load(Ordering::SeqCst);
            let mut successor = unsafe { r.unguarded(t, sentinel_s) };
            let mut below = None;
            loop {
                let parent = below.as_ref().unwrap_or(&successor);
                let child = r.read(t, parent.node().child(key));
                // External tree: edges always lead to a node.
                debug_assert_ne!(child.addr(), 0);
                if child.word() & BITS != 0
                    && !S::PROTECTS_SECTION_READS
                    && ancestor.node().child(key).load(Ordering::SeqCst) != successor.word()
                {
                    continue 'restart;
                }
                if child.node().is_leaf() {
                    return Seek {
                        ancestor,
                        successor,
                        below,
                        leaf: child,
                    };
                }
                if tagged(child.word()) {
                    below = Some(child);
                } else {
                    // Last untagged edge so far: the parent becomes the
                    // ancestor, the child the successor and the parent.
                    ancestor = below.take().unwrap_or(successor);
                    successor = child;
                }
            }
        }
    }

    /// Splices the chain `successor … parent + flagged leaf` out by CASing
    /// the ancestor's edge to the sibling subtree; on success retires every
    /// node of the chain (Fig. 1a's loop). Returns whether this call won.
    fn cleanup(&self, t: Tid, key: &NmKey<K>, s: &Seek<'_, K, V, S>) -> bool {
        let p = s.parent().node();
        let (child_loc, mut sibling_loc) = if *key < p.key {
            (&p.left, &p.right)
        } else {
            (&p.right, &p.left)
        };
        if !flagged(child_loc.load(Ordering::SeqCst)) {
            // The flag is on the other side: we are helping a delete whose
            // victim is the other child.
            sibling_loc = child_loc;
        }
        // Freeze the sibling edge, preserving a pending flag on it.
        let sib_w = sibling_loc.fetch_or(TAG, Ordering::SeqCst);
        let new_w = addr(sib_w) | (sib_w & FLAG);
        if s.ancestor
            .node()
            .child(key)
            .compare_exchange(
                s.successor.word(),
                new_w,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return false;
        }
        // We won: retire the spliced-out chain. Every chain node has a
        // flagged child that dies with it (a deleted leaf); the walk
        // follows the other child and ends at the surviving sibling.
        // At the parent *both* children can be flagged — two deletes of
        // sibling leaves — and the sibling, which lives on under the
        // ancestor with its flag, is never the one to retire.
        let r = &self.reclaimer;
        let sibling = addr(sib_w);
        let mut n = s.successor.addr();
        while n != sibling {
            // Safety: our CAS unlinked the chain, and only the CAS's winner
            // retires it; what is left of it is not retired yet.
            let node = unsafe { r.unguarded(t, n) };
            let lw = node.node().left.load(Ordering::SeqCst);
            let rw = node.node().right.load(Ordering::SeqCst);
            let (dead, next) = if flagged(lw) && addr(lw) != sibling {
                (addr(lw), addr(rw))
            } else {
                (addr(rw), addr(lw))
            };
            // Safety: unlinked by our CAS, retired here once.
            unsafe {
                r.retire(t, dead);
                r.retire(t, n);
            }
            n = next;
        }
        true
    }

    fn insert_impl(&self, t: Tid, key: K, value: V) -> bool {
        let r = &self.reclaimer;
        let nmkey = NmKey::Fin(key);
        // The value, until the first miss allocates the new leaf; the leaf
        // is then kept across lost races.
        let mut pending: Result<Box<Node<K, V>>, V> = Err(value);
        loop {
            let s = self.seek(t, &nmkey);
            let leaf = s.leaf.node();
            if leaf.key == nmkey {
                if let Ok(new_leaf) = pending {
                    r.discard(t, new_leaf); // never published
                }
                return false;
            }
            let new_leaf = Box::into_raw(pending.unwrap_or_else(|value| {
                r.alloc(t, |birth| Node::leaf(birth, nmkey.clone(), Some(value)))
            }));
            // Build the replacement: an internal node whose children are the
            // old leaf and the new leaf, ordered by key (internal key = the
            // larger of the two, external-BST style). Its key and child order
            // depend on the leaf this seek found, so it is built per attempt.
            let (ikey, lc, rc) = if nmkey < leaf.key {
                (leaf.key.clone(), new_leaf as usize, s.leaf.addr())
            } else {
                (nmkey.clone(), s.leaf.addr(), new_leaf as usize)
            };
            let new_internal =
                Box::into_raw(r.alloc(t, |birth| Node::internal(birth, ikey, lc, rc)));
            // The comparand is the leaf untagged: a marked edge refuses it.
            let witness = s.parent().node().child(&nmkey).compare_exchange(
                s.leaf.addr(),
                new_internal as usize,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            let Err(w) = witness else { return true };
            // Failed: free the unpublished internal node and keep the leaf,
            // then use the CAS's own witness (no re-load) to decide whether
            // a pending delete on this leaf needs help before retrying.
            // Safety: never published, exclusively ours.
            unsafe {
                r.discard(t, Box::from_raw(new_internal));
                pending = Ok(Box::from_raw(new_leaf));
            }
            if addr(w) == s.leaf.addr() && w & BITS != 0 {
                self.cleanup(t, &nmkey, &s);
            }
        }
    }

    fn remove_impl(&self, t: Tid, key: &K) -> bool {
        let nmkey = NmKey::Fin(key.clone());
        // The leaf this call flagged, held across retries so its address
        // cannot come back under the comparison below (ABA defence).
        let mut target: Option<NodeRef<'_, K, V, S>> = None;
        loop {
            let s = self.seek(t, &nmkey);
            if let Some(leaf) = &target {
                // A helper finished our removal, or this cleanup does.
                if s.leaf.addr() != leaf.addr() || self.cleanup(t, &nmkey, &s) {
                    return true;
                }
                continue;
            }
            if s.leaf.node().key != nmkey {
                return false;
            }
            let flag_cas = s.parent().node().child(&nmkey).compare_exchange(
                s.leaf.addr(),
                s.leaf.addr() | FLAG,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            match flag_cas {
                Ok(_) if self.cleanup(t, &nmkey, &s) => return true,
                Ok(_) => target = Some(s.leaf),
                // The witness replaces the old re-load: a competing
                // flag/tag on our leaf's edge means a delete is already
                // in progress there — help it along before re-seeking.
                Err(w) => {
                    if addr(w) == s.leaf.addr() && w & BITS != 0 {
                        self.cleanup(t, &nmkey, &s);
                    }
                }
            }
        }
    }

    fn get_impl(&self, t: Tid, key: &K) -> Option<V> {
        let nmkey = NmKey::Fin(key.clone());
        let s = self.seek(t, &nmkey);
        let leaf = s.leaf.node();
        // Values on Fin leaves are Some.
        if leaf.key == nmkey {
            leaf.value.clone()
        } else {
            None
        }
    }

    /// Sequential (non-linearizable) range count over `[from, to)`, as in
    /// the paper's Fig. 11 workload. Only supported under protected-region
    /// schemes (manual HP cannot protect an unbounded path — which is why
    /// Fig. 11 has no manual-HP series).
    ///
    /// Each child edge is read into a [`Held`], as in `seek`. The section
    /// alone does not protect what it reads under IBR
    /// (`PROTECTS_SECTION_READS` is false): its interval covers only objects
    /// born up to the announced end, and an acquire is what raises that
    /// end. Nor does it cover a node reached through a marked edge (module
    /// docs), so under IBR the walk skips what hangs below one.
    fn range_impl(&self, t: Tid, from: &K, to: &K, limit: usize) -> Option<usize> {
        if !S::PROTECTS_REGIONS {
            return None;
        }
        let r = &self.reclaimer;
        let lo = NmKey::Fin(from.clone());
        let hi = NmKey::Fin(to.clone());
        let mut found = 0usize;
        // Safety: R is a sentinel.
        let mut stack = vec![unsafe { r.unguarded(t, self.root as usize) }];
        while let Some(n) = stack.pop().filter(|_| found < limit) {
            let node = n.node();
            if node.is_leaf() {
                if node.key >= lo && node.key < hi {
                    found += 1;
                }
                continue;
            }
            let mut descend = |edge: &AtomicUsize| {
                let child = r.read(t, edge);
                if S::PROTECTS_SECTION_READS || child.word() & BITS == 0 {
                    stack.push(child);
                }
            };
            // External BST: left keys < node.key <= right keys.
            if hi >= node.key {
                descend(&node.right);
            }
            if lo < node.key {
                descend(&node.left);
            }
        }
        Some(found)
    }
}

impl<K, V, S> ConcurrentMap<K, V> for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    type Guard = smr::SectionGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.reclaimer.pin()
    }

    fn insert_with(&self, k: K, v: V, guard: &Self::Guard) -> bool {
        let t = self.reclaimer.tid(guard);
        let r = self.insert_impl(t, k, v);
        self.reclaimer.collect(t);
        r
    }

    fn remove_with(&self, k: &K, guard: &Self::Guard) -> bool {
        let t = self.reclaimer.tid(guard);
        let r = self.remove_impl(t, k);
        self.reclaimer.collect(t);
        r
    }

    fn get_with(&self, k: &K, guard: &Self::Guard) -> Option<V> {
        let t = self.reclaimer.tid(guard);
        let r = self.get_impl(t, k);
        self.reclaimer.collect(t);
        r
    }

    fn range_with(&self, from: &K, to: &K, limit: usize, guard: &Self::Guard) -> Option<usize> {
        let t = self.reclaimer.tid(guard);
        let r = self.range_impl(t, from, to, limit);
        self.reclaimer.collect(t);
        r
    }

    fn range(&self, from: &K, to: &K, limit: usize) -> Option<usize> {
        self.range_with(from, to, limit, &self.pin())
    }

    fn in_flight_nodes(&self) -> u64 {
        self.reclaimer.in_flight()
    }
}

impl<K, V, S> Default for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: AcquireRetire> Drop for NatarajanMittalTree<K, V, S> {
    fn drop(&mut self) {
        // Free everything reachable (flag/tag bits notwithstanding), then
        // whatever is parked in retired lists; the sets are disjoint since
        // retired nodes are unlinked first. Safety: exclusive access.
        unsafe { self.reclaimer.teardown([self.root as usize]) };
    }
}

impl<K, V, S: AcquireRetire> std::fmt::Debug for NatarajanMittalTree<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NatarajanMittalTree")
            .field("scheme", &S::scheme_name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{Ebr, Hp, Hyaline, Ibr};
    use std::sync::Arc;

    fn smoke<S: AcquireRetire>() {
        let tree: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::new();
        assert_eq!(tree.get(&10), None);
        assert!(tree.insert(10, 100));
        assert!(tree.insert(5, 50));
        assert!(tree.insert(15, 150));
        assert!(!tree.insert(10, 101));
        assert_eq!(tree.get(&10), Some(100));
        assert_eq!(tree.get(&5), Some(50));
        assert!(tree.remove(&10));
        assert!(!tree.remove(&10));
        assert_eq!(tree.get(&10), None);
        assert_eq!(tree.get(&15), Some(150));
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Ebr>();
        smoke::<Ibr>();
        smoke::<Hp>();
        smoke::<Hyaline>();
    }

    #[test]
    fn sequential_model_check() {
        use std::collections::BTreeMap;
        let tree: NatarajanMittalTree<u64, u64, Ebr> = NatarajanMittalTree::new();
        let mut model = BTreeMap::new();
        let mut state = 0x12345678u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (state >> 33) % 64;
            match (state >> 20) % 3 {
                0 => assert_eq!(tree.insert(k, k * 2), model.insert(k, k * 2).is_none()),
                1 => assert_eq!(tree.remove(&k), model.remove(&k).is_some()),
                _ => assert_eq!(tree.get(&k), model.get(&k).copied()),
            }
        }
        for k in 0..64 {
            assert_eq!(tree.get(&k), model.get(&k).copied());
        }
    }

    #[test]
    fn range_counts_keys_region_schemes() {
        let tree: NatarajanMittalTree<u64, u64, Ebr> = NatarajanMittalTree::new();
        for k in 0..100 {
            tree.insert(k, k);
        }
        assert_eq!(tree.range(&10, &20, 1000), Some(10));
        assert_eq!(tree.range(&0, &100, 1000), Some(100));
        assert_eq!(tree.range(&0, &100, 7), Some(7), "limit respected");
        let hp_tree: NatarajanMittalTree<u64, u64, Hp> = NatarajanMittalTree::new();
        hp_tree.insert(1, 1);
        assert_eq!(hp_tree.range(&0, &10, 10), None, "manual HP: unsupported");
    }

    fn concurrent<S: AcquireRetire>() {
        let seed = crate::test_seed();
        let tree: Arc<NatarajanMittalTree<u64, u64, S>> = Arc::new(NatarajanMittalTree::new());
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
                            assert_eq!(tree.get(&k), None);
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(hs, seed);
        for i in 0..8u64 {
            for j in 0..400u64 {
                let k = i * 1000 + j;
                let want = if j % 2 == 0 { None } else { Some(k) };
                assert_eq!(tree.get(&k), want, "key {k}, TEST_SEED={seed}");
            }
        }
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
            let tree: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::new();
            crate::a_failed_insert_allocates_nothing(&tree, || tree.reclaimer.nodes.totals().0);
        }
        on::<Ebr>();
        on::<Ibr>();
        on::<Hp>();
        on::<Hyaline>();
    }

    #[test]
    fn contended_deletes_same_key_range() {
        // Every thread's key stream derives from one seed, so a failing
        // run can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let tree: Arc<NatarajanMittalTree<u64, u64, Ebr>> = Arc::new(NatarajanMittalTree::new());
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
                    for _ in 0..2000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 32;
                        match (state >> 20) % 2 {
                            0 => {
                                tree.insert(k, k);
                            }
                            _ => {
                                tree.remove(&k);
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

    /// Ranges race inserts and removes of the keys they count: a node a
    /// range reaches may be unlinked and retired under it (under IBR one
    /// born after the range's section began, which only an acquire covers).
    /// Seeks race the deletes that freeze the edges they follow (module
    /// docs), which is what the HP input exercises: it has no range.
    fn contended_mixed_with_ranges<S: AcquireRetire>() {
        // Every thread's op stream derives from one seed, so a failing run
        // can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let tree: Arc<NatarajanMittalTree<u64, u64, S>> = Arc::new(NatarajanMittalTree::new());
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
                            2 => assert!(tree.get(&k).is_none_or(|v| v == k)),
                            // `None` under HP, which offers no range.
                            _ => assert!(tree.range(&k, &(k + 16), 16).is_none_or(|n| n <= 16)),
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap_or_else(|_| {
                panic!(
                    "{}: a worker died; replay with TEST_SEED={seed}",
                    S::scheme_name()
                )
            });
        }
    }

    #[test]
    fn contended_mixed_with_ranges_ebr() {
        contended_mixed_with_ranges::<Ebr>();
    }

    #[test]
    fn contended_mixed_with_ranges_ibr() {
        contended_mixed_with_ranges::<Ibr>();
    }

    #[test]
    fn contended_mixed_with_ranges_hp() {
        contended_mixed_with_ranges::<Hp>();
    }

    #[test]
    fn contended_mixed_with_ranges_hyaline() {
        contended_mixed_with_ranges::<Hyaline>();
    }

    #[test]
    fn no_leaks_after_drop() {
        let nodes;
        {
            let tree: NatarajanMittalTree<u64, u64, Ebr> = NatarajanMittalTree::new();
            nodes = Arc::clone(&tree.reclaimer.nodes);
            for k in 0..300u64 {
                tree.insert(k, k);
            }
            for k in 0..150u64 {
                tree.remove(&k);
            }
        }
        assert_eq!(nodes.net(), 0, "every node freed at drop");
    }
}
