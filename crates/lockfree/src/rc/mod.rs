//! Automatically memory-managed variants over the `cdrc` pointer types.
//!
//! Same algorithms as [`crate::manual`], with every raw pointer replaced by
//! a reference-counted pointer and every `retire` call *deleted*: unlinking
//! the last strong reference reclaims nodes (and whole spliced-out chains)
//! automatically, once no snapshot or in-flight protection refers to them.
//!
//! For the list and the split-ordered map that is literal: both families
//! run one list and one map (`src/list.rs`, `src/split_order.rs`), and
//! `Rc`, this family's impl of the crate's `Family` hook, is the whole
//! difference. It holds a node as a `cdrc::SnapshotPtr`, links with
//! `AtomicSharedPtr::link`, and reclaims by dropping the reference an
//! unlink displaced; it has no `retire`, no `collect` and no guard to give
//! back.

pub mod dlqueue;
pub mod list;
pub mod nmtree;
pub mod resizable;

pub use dlqueue::RcDoubleLinkQueue;
pub use list::RcHarrisMichaelList;
pub use nmtree::RcNatarajanMittalTree;
pub use resizable::RcResizableHashMap;

use std::marker::PhantomData;

use cdrc::{
    AtomicSharedPtr, CsGuard, DomainRef, GraphNode, Scheme, SharedPtr, SnapshotPtr, TaggedPtr,
};

use crate::family::{Family, Kind, Link};
use crate::list::MARK;

/// The automatic family's nodes: counted edges, and no birth.
pub(crate) struct RcKind<S>(PhantomData<S>);

impl<S: Scheme> Kind for RcKind<S> {
    type Edge<N> = AtomicSharedPtr<N, S>;
    type Birth = ();
}

/// An operation of the automatic family: a `cdrc` critical section on the
/// structure's domain, over nodes `N`. Its edges know their domain, so the
/// section is all it carries.
pub(crate) struct Rc<'g, N, S: Scheme> {
    cs: &'g CsGuard<S>,
    _node: PhantomData<fn() -> N>,
}

impl<'g, N, S: Scheme> Rc<'g, N, S> {
    #[inline(always)]
    pub(crate) fn new(cs: &'g CsGuard<S>, domain: &DomainRef<S>) -> Self {
        debug_assert!(cs.covers(domain), "guard from a foreign domain");
        let _node = PhantomData;
        Rc { cs, _node }
    }
}

impl<N, S: Scheme> Clone for Rc<'_, N, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<N, S: Scheme> Copy for Rc<'_, N, S> {}

impl<'g, N: Link<RcKind<S>> + GraphNode<S>, S: Scheme> Family for Rc<'g, N, S> {
    type Kind = RcKind<S>;
    type Node = N;
    type Held = SnapshotPtr<'g, N, S>;
    type Owned = SharedPtr<N, S>;

    #[inline(always)]
    fn read(self, e: &AtomicSharedPtr<N, S>) -> Self::Held {
        e.get_snapshot(self.cs)
    }

    fn load(e: &AtomicSharedPtr<N, S>) -> usize {
        e.load_tagged().word()
    }

    fn word(h: &Self::Held) -> usize {
        h.tagged().word()
    }

    #[inline(always)]
    fn node(h: &Self::Held) -> Option<&N> {
        h.as_ref()
    }

    #[inline(always)]
    fn release(self, h: Self::Held) {
        drop(h);
    }

    fn mark(self, e: &AtomicSharedPtr<N, S>) -> Option<Self::Held> {
        let mut w = e.load_tagged();
        while w.tag() & MARK == 0 {
            match e.try_set_tag(w, MARK) {
                Ok(_) => return Some(e.get_snapshot(self.cs)),
                Err(witness) => w = witness,
            }
        }
        None
    }

    /// [`AtomicSharedPtr::link`]: the caller's reference to `node` moves
    /// into `e`, and `e`'s reference to `at` moves into `node`'s edge, so
    /// neither is counted.
    fn link(
        e: &AtomicSharedPtr<N, S>,
        at: &Self::Held,
        node: Self::Owned,
    ) -> Result<(), Self::Owned> {
        e.link(at.tagged(), node, |n| n.next())
            .map_err(|e| e.desired)
    }

    /// Dropping the displaced reference reclaims `cur`, and anything only it
    /// references, once no snapshot holds it.
    #[inline(always)]
    fn unlink(
        self,
        e: &AtomicSharedPtr<N, S>,
        cur: &Self::Held,
        next: Self::Held,
    ) -> Option<Self::Held> {
        let unlinked = e.compare_exchange_with(self.cs, cur.tagged(), &next);
        unlinked.ok().map(|displaced| {
            drop(displaced);
            next.with_tag(0)
        })
    }

    fn alloc(
        self,
        at: &AtomicSharedPtr<N, S>,
        make: impl FnOnce(AtomicSharedPtr<N, S>, ()) -> N,
    ) -> Self::Owned {
        SharedPtr::new_graph_in(make(Self::null(at), ()), at.domain())
    }

    fn built(o: &Self::Owned) -> &N {
        o.as_ref().expect("a built node")
    }

    fn discard(self, o: Self::Owned) {
        drop(o);
    }

    fn end(self) {}

    fn null(like: &AtomicSharedPtr<N, S>) -> AtomicSharedPtr<N, S> {
        AtomicSharedPtr::null_in(like.domain())
    }

    fn sentinel(self, slot: &AtomicSharedPtr<N, S>) -> Option<Self::Held> {
        Some(slot.get_snapshot(self.cs)).filter(|s| !s.is_null())
    }

    /// The slot takes a strong reference of its own, so a sentinel lives as
    /// long as the map.
    fn install(slot: &AtomicSharedPtr<N, S>, s: &Self::Held) {
        let _ = slot.compare_exchange(TaggedPtr::null(), s.to_shared(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrentMap, ConcurrentQueue};
    use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};

    /// "No shared count under a guard", asserted: whatever a batch of
    /// structure operations allocates, displaces, fails to insert,
    /// destructs, flushes or collects, the domain's liveness word moves by
    /// the guard's own pin and nothing else.
    fn no_shared_count_under_a_guard<S: Scheme>() {
        let d: DomainRef<S> = DomainRef::new();
        let map: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::new_in(d.clone());
        let queue: RcDoubleLinkQueue<u64, S> = RcDoubleLinkQueue::new_in(d.clone());
        let (pins, stamp) = d.pin_word();

        let guard = map.pin();
        assert_eq!(d.pin_word(), (pins + 1, stamp + 1), "the guard's own pin");
        let (mut inserted, mut refused, mut removed) = (0, 0, 0);
        for i in 0..10_000u64 {
            let k = (i / 3) % 257;
            match i % 3 {
                0 | 1 => match map.insert_with(k, i, &guard) {
                    true => inserted += 1,
                    false => refused += 1,
                },
                _ => removed += usize::from(map.remove_with(&k, &guard)),
            }
        }
        assert!(inserted > 1_000 && refused > 1_000 && removed > 1_000);
        assert_eq!(
            d.pin_word(),
            (pins + 1, stamp + 1),
            "{}: a map operation under the guard touched the liveness word",
            S::scheme_name()
        );
        drop(guard);
        assert_eq!(d.pin_word(), (pins, stamp + 1));

        let guard = queue.pin();
        for i in 0..10_000u64 {
            queue.enqueue_with(i, &guard);
            if i % 2 == 1 {
                assert!(queue.dequeue_with(&guard).is_some());
                assert!(queue.dequeue_with(&guard).is_some());
            }
        }
        assert_eq!(
            d.pin_word(),
            (pins + 1, stamp + 2),
            "{}: a queue operation under the guard touched the liveness word",
            S::scheme_name()
        );
        drop(guard);
        assert_eq!(d.pin_word(), (pins, stamp + 2));
    }

    /// The RC node blocks stay in their glibc malloc size classes (a chunk
    /// is the request plus 8 bytes, rounded up to 16): list 56 B → the
    /// 64 B class, map and queue 72 B → the 80 B class, under EBR with the
    /// `u64` keys and values the ledger runs. A field that pushes a node
    /// up a class fails here. The list's hop words (the `next` location's
    /// word, which follows its domain word, and the key) sit in the first
    /// 48 bytes as one 16-byte-aligned pair, which no cache line splits.
    #[test]
    fn rc_node_blocks_keep_their_size_classes() {
        use std::mem::{offset_of, size_of};
        let (list, at) = cdrc::block_layout::<list::Node<u64, u64, EbrScheme>, EbrScheme>();
        let (map, _) = cdrc::block_layout::<resizable::Node<u64, u64, EbrScheme>, EbrScheme>();
        let (queue, _) = cdrc::block_layout::<dlqueue::Node<u64, EbrScheme>, EbrScheme>();
        println!("RC blocks under EBR: list {list} B, map {map} B, queue {queue} B");
        assert!(list <= 56, "list block {list} B left the 64 B class");
        assert!(map <= 72, "map block {map} B left the 80 B class");
        assert!(queue <= 72, "queue block {queue} B left the 80 B class");
        type L = list::Node<u64, u64, EbrScheme>;
        let word = at + offset_of!(L, next) + size_of::<usize>();
        let key = at + offset_of!(L, key);
        assert_eq!(
            (word, key),
            (32, 40),
            "the hop's words moved out of their 16-byte pair"
        );
    }

    #[test]
    fn no_shared_count_under_a_guard_all_schemes() {
        no_shared_count_under_a_guard::<EbrScheme>();
        no_shared_count_under_a_guard::<IbrScheme>();
        no_shared_count_under_a_guard::<HpScheme>();
        no_shared_count_under_a_guard::<HyalineScheme>();
    }
}
