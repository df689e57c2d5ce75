//! Automatically memory-managed variants over the `cdrc` pointer types.
//!
//! Same algorithms as [`crate::manual`], with every raw pointer replaced by
//! a reference-counted pointer and every `retire` call *deleted*: unlinking
//! the last strong reference reclaims nodes (and whole spliced-out chains)
//! automatically, once no snapshot or in-flight protection refers to them.

pub mod dlqueue;
pub mod list;
pub mod nmtree;
pub mod resizable;

pub use dlqueue::RcDoubleLinkQueue;
pub use list::RcHarrisMichaelList;
pub use nmtree::RcNatarajanMittalTree;
pub use resizable::RcResizableHashMap;

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
