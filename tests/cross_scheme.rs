//! Integration: every data structure × every scheme × manual/automatic,
//! driven through the shared `ConcurrentMap`/`ConcurrentQueue` interfaces
//! against sequential models and under concurrency.

use smr::sync::atomic::{AtomicBool, Ordering};
use std::collections::BTreeMap;
use std::sync::Arc;

use cdrc::{
    AtomicSharedPtr, DomainRef, EbrScheme, EdgeCollector, GraphNode, HpScheme, HyalineScheme,
    IbrScheme, Scheme, SharedPtr,
};
use lockfree::manual::{DoubleLinkQueue, HarrisMichaelList, NatarajanMittalTree, ResizableHashMap};
use lockfree::rc::{
    RcDoubleLinkQueue, RcHarrisMichaelList, RcNatarajanMittalTree, RcResizableHashMap,
};
use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::AcquireRetire;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn model_check<M: ConcurrentMap<u64, u64>>(map: &M, seed: u64, keyspace: u64, steps: u32) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut state = seed | 1;
    for _ in 0..steps {
        let r = lcg(&mut state);
        let k = r % keyspace;
        match lcg(&mut state) % 3 {
            0 => assert_eq!(map.insert(k, k * 7), model.insert(k, k * 7).is_none()),
            1 => assert_eq!(map.remove(&k), model.remove(&k).is_some()),
            _ => assert_eq!(map.get(&k), model.get(&k).copied()),
        }
    }
    for k in 0..keyspace {
        assert_eq!(map.get(&k), model.get(&k).copied());
    }
}

fn concurrent_disjoint<M: ConcurrentMap<u64, u64> + 'static>(map: Arc<M>) {
    let hs: Vec<_> = (0..8u64)
        .map(|i| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for j in 0..400u64 {
                    let k = i * 10_000 + j;
                    assert!(map.insert(k, k + 1));
                    assert_eq!(map.get(&k), Some(k + 1));
                    if j % 3 == 0 {
                        assert!(map.remove(&k));
                        assert_eq!(map.get(&k), None);
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    for i in 0..8u64 {
        for j in 0..400u64 {
            let k = i * 10_000 + j;
            let expect = if j % 3 == 0 { None } else { Some(k + 1) };
            assert_eq!(map.get(&k), expect);
        }
    }
}

macro_rules! scheme_matrix {
    ($name:ident, $body:tt) => {
        mod $name {
            use super::*;
            #[test]
            fn ebr() {
                run::<EbrScheme>();
            }
            #[test]
            fn ibr() {
                run::<IbrScheme>();
            }
            #[test]
            fn hp() {
                run::<HpScheme>();
            }
            #[test]
            fn hyaline() {
                run::<HyalineScheme>();
            }
            fn run<S: Scheme + AcquireRetire>() $body
        }
    };
}

scheme_matrix!(manual_list_model, {
    let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
    model_check(&list, 11, 48, 3000);
});

scheme_matrix!(rc_list_model, {
    let list: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new();
    model_check(&list, 12, 48, 3000);
});

scheme_matrix!(manual_hash_model, {
    let map: ResizableHashMap<u64, u64, S> = ResizableHashMap::with_capacity(16);
    model_check(&map, 13, 256, 3000);
});

scheme_matrix!(rc_hash_model, {
    let map: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::with_capacity(16);
    model_check(&map, 14, 256, 3000);
});

scheme_matrix!(manual_tree_model, {
    let tree: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::new();
    model_check(&tree, 15, 96, 3000);
});

scheme_matrix!(rc_tree_model, {
    let tree: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
    model_check(&tree, 16, 96, 3000);
});

scheme_matrix!(manual_tree_concurrent, {
    concurrent_disjoint(Arc::new(NatarajanMittalTree::<u64, u64, S>::new()));
});

scheme_matrix!(rc_tree_concurrent, {
    concurrent_disjoint(Arc::new(RcNatarajanMittalTree::<u64, u64, S>::new()));
});

scheme_matrix!(rc_list_concurrent, {
    concurrent_disjoint(Arc::new(RcHarrisMichaelList::<u64, u64, S>::new()));
});

fn queue_conservation<Q: ConcurrentQueue<u64> + 'static>(q: Arc<Q>) {
    let n = 6u64;
    for i in 0..n {
        q.enqueue(i);
    }
    let hs: Vec<_> = (0..n)
        .map(|_| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for _ in 0..1_000 {
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
    let mut out = Vec::new();
    while let Some(v) = q.dequeue() {
        out.push(v);
    }
    out.sort_unstable();
    assert_eq!(out, (0..n).collect::<Vec<_>>());
}

scheme_matrix!(manual_queue_conserves, {
    queue_conservation(Arc::new(DoubleLinkQueue::<u64, S>::new()));
});

scheme_matrix!(rc_queue_conserves, {
    queue_conservation(Arc::new(RcDoubleLinkQueue::<u64, S>::new()));
});

/// A graph node whose payload drop raises a flag.
struct Link<S: Scheme> {
    name: &'static str,
    dropped: Arc<AtomicBool>,
    next: AtomicSharedPtr<Link<S>, S>,
}

impl<S: Scheme> GraphNode<S> for Link<S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
    }
}

impl<S: Scheme> Drop for Link<S> {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

/// An edge read through a node stays readable after the node dies. A
/// thread snapshots P through T's `next` and stops protecting T; then T's
/// last reference goes, either unlinked from `root` (`via_root`: the
/// hand-over-hand walk) or dropped by its owner. Destructing T gives up its
/// reference to P, and that decrement must be deferred past the snapshot:
/// a hazard on P protects it only from a decrement the scheme defers, and
/// an owner may read through T in the section it is still in. P's drop
/// flag is exact without the sanitizer; the read after it is what the
/// sanitizer catches.
fn edge_outlives_its_dead_parent<S: Scheme>(via_root: bool) {
    let d: DomainRef<S> = DomainRef::new();
    let tid = smr::current_tid();
    let link = |name, next| {
        let dropped = Arc::new(AtomicBool::new(false));
        let node = Link {
            name,
            dropped: Arc::clone(&dropped),
            next,
        };
        (SharedPtr::new_graph_in(node, &d), dropped)
    };
    let (p, p_dropped) = link("p", AtomicSharedPtr::null_in(&d));
    let (t, _) = link("t", AtomicSharedPtr::new_in(p, &d));
    let root = AtomicSharedPtr::new_in(SharedPtr::null(), &d);
    {
        let cs = d.cs();
        let p_snap = if via_root {
            root.store(t);
            let t_snap = root.get_snapshot(&cs);
            let p_snap = t_snap.as_ref().unwrap().next.get_snapshot(&cs);
            drop(t_snap);
            root.store(SharedPtr::null());
            p_snap
        } else {
            let p_snap = t.as_ref().unwrap().next.get_snapshot(&cs);
            drop(t);
            p_snap
        };
        d.process_deferred(tid);
        assert!(
            !p_dropped.load(Ordering::SeqCst),
            "{} (via_root = {via_root}): disposed under a snapshot",
            S::scheme_name()
        );
        assert_eq!(p_snap.as_ref().map(|l| l.name), Some("p"));
    }
    d.process_deferred(tid);
    assert_eq!(d.allocated(), d.freed());
}

scheme_matrix!(rc_edge_outlives_its_dead_parent, {
    edge_outlives_its_dead_parent::<S>(true);
    edge_outlives_its_dead_parent::<S>(false);
});

#[test]
fn rc_range_queries_linear_with_point_ops() {
    let tree: RcNatarajanMittalTree<u64, u64, EbrScheme> = RcNatarajanMittalTree::new();
    for k in (0..1000).step_by(2) {
        tree.insert(k, k);
    }
    // [0, 1000) holds the 500 even keys.
    assert_eq!(tree.range(&0, &1000, usize::MAX), Some(500));
    assert_eq!(tree.range(&100, &200, usize::MAX), Some(50));
    tree.insert(101, 101);
    assert_eq!(tree.range(&100, &200, usize::MAX), Some(51));
    tree.remove(&100);
    assert_eq!(tree.range(&100, &200, usize::MAX), Some(50));
}

#[test]
fn mixed_structures_share_global_domains_safely() {
    // Several RC structures on the same scheme concurrently: the shared
    // global domain must keep them isolated.
    let list: Arc<RcHarrisMichaelList<u64, u64, HyalineScheme>> =
        Arc::new(RcHarrisMichaelList::new());
    let tree: Arc<RcNatarajanMittalTree<u64, u64, HyalineScheme>> =
        Arc::new(RcNatarajanMittalTree::new());
    let hs: Vec<_> = (0..6u64)
        .map(|i| {
            let list = Arc::clone(&list);
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                for j in 0..500u64 {
                    let k = i * 1000 + j;
                    list.insert(k, k);
                    tree.insert(k, k);
                    if j % 2 == 0 {
                        list.remove(&k);
                    } else {
                        tree.remove(&k);
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    for i in 0..6u64 {
        for j in 0..500u64 {
            let k = i * 1000 + j;
            assert_eq!(list.get(&k).is_some(), j % 2 != 0);
            assert_eq!(tree.get(&k).is_some(), j % 2 == 0);
        }
    }
}
