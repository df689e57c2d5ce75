//! Guard-centric API integration: guard-batched operations must observe
//! exactly the same linearizable results as the guard-free wrappers, on
//! every structure variant and scheme, alone and when both call styles are
//! mixed on one structure.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
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

/// Drives `map` through a deterministic op sequence in batches of 16 under
/// one guard each, checking every result against a sequential model — then
/// replays the same sequence guard-free on `twin` and checks the two
/// structures agree key by key.
fn batched_matches_guard_free<M: ConcurrentMap<u64, u64>>(
    map: &M,
    twin: &M,
    seed: u64,
    keyspace: u64,
    steps: u32,
) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut state = seed | 1;
    let mut step = 0;
    while step < steps {
        let guard = map.pin();
        for _ in 0..16 {
            if step >= steps {
                break;
            }
            step += 1;
            let k = lcg(&mut state) % keyspace;
            match lcg(&mut state) % 3 {
                0 => {
                    let expect = model.insert(k, k * 3).is_none();
                    assert_eq!(map.insert_with(k, k * 3, &guard), expect);
                    assert_eq!(twin.insert(k, k * 3), expect);
                }
                1 => {
                    let expect = model.remove(&k).is_some();
                    assert_eq!(map.remove_with(&k, &guard), expect);
                    assert_eq!(twin.remove(&k), expect);
                }
                _ => {
                    let expect = model.get(&k).copied();
                    assert_eq!(map.get_with(&k, &guard), expect);
                    assert_eq!(twin.get(&k), expect);
                }
            }
        }
        drop(guard);
    }
    // Final sweep through both call styles.
    let guard = map.pin();
    for k in 0..keyspace {
        let expect = model.get(&k).copied();
        assert_eq!(map.get_with(&k, &guard), expect);
        assert_eq!(map.get(&k), expect, "styles nest on one structure");
        assert_eq!(twin.get(&k), expect);
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

scheme_matrix!(rc_list_batched, {
    let a: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new();
    let b: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new();
    batched_matches_guard_free(&a, &b, 21, 48, 2500);
});

scheme_matrix!(rc_hash_batched, {
    let a: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::with_capacity(16);
    let b: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::with_capacity(16);
    batched_matches_guard_free(&a, &b, 22, 256, 2500);
});

scheme_matrix!(rc_tree_batched, {
    let a: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
    let b: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
    batched_matches_guard_free(&a, &b, 23, 96, 2500);
});

scheme_matrix!(manual_list_batched, {
    let a: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
    let b: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
    batched_matches_guard_free(&a, &b, 24, 48, 2500);
});

scheme_matrix!(manual_hash_batched, {
    let a: ResizableHashMap<u64, u64, S> = ResizableHashMap::with_capacity(16);
    let b: ResizableHashMap<u64, u64, S> = ResizableHashMap::with_capacity(16);
    batched_matches_guard_free(&a, &b, 25, 256, 2500);
});

scheme_matrix!(manual_tree_batched, {
    let a: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::new();
    let b: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::new();
    batched_matches_guard_free(&a, &b, 26, 96, 2500);
});

/// Guard-batched range queries agree with guard-free ones and the model.
#[test]
fn range_with_matches_range() {
    fn run<S: Scheme>() {
        let tree: RcNatarajanMittalTree<u64, u64, S> = RcNatarajanMittalTree::new();
        let guard = tree.pin();
        for k in (0..500).step_by(2) {
            tree.insert_with(k, k, &guard);
        }
        assert_eq!(tree.range_with(&0, &500, usize::MAX, &guard), Some(250));
        assert_eq!(tree.range(&0, &500, usize::MAX), Some(250));
        assert_eq!(tree.range_with(&100, &200, 7, &guard), Some(7));
    }
    run::<EbrScheme>();
    run::<HpScheme>();
}

/// Concurrent mixing: half the threads drive guard-batched loops, half use
/// the guard-free wrappers, on disjoint key ranges of one structure; each
/// thread's writes must be observed exactly.
fn concurrent_mixed_styles<M: ConcurrentMap<u64, u64> + 'static>(map: Arc<M>) {
    let hs: Vec<_> = (0..8u64)
        .map(|i| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    // Guard-batched style: one pin per 32-op run.
                    let mut j = 0u64;
                    while j < 320 {
                        let guard = map.pin();
                        for _ in 0..32 {
                            let k = i * 10_000 + j;
                            assert!(map.insert_with(k, k + 1, &guard));
                            assert_eq!(map.get_with(&k, &guard), Some(k + 1));
                            if j.is_multiple_of(3) {
                                assert!(map.remove_with(&k, &guard));
                            }
                            j += 1;
                        }
                        drop(guard);
                    }
                } else {
                    for j in 0..320u64 {
                        let k = i * 10_000 + j;
                        assert!(map.insert(k, k + 1));
                        assert_eq!(map.get(&k), Some(k + 1));
                        if j % 3 == 0 {
                            assert!(map.remove(&k));
                        }
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let guard = map.pin();
    for i in 0..8u64 {
        for j in 0..320u64 {
            let k = i * 10_000 + j;
            let expect = if j % 3 == 0 { None } else { Some(k + 1) };
            assert_eq!(map.get_with(&k, &guard), expect);
        }
    }
}

scheme_matrix!(rc_tree_concurrent_mixed, {
    concurrent_mixed_styles(Arc::new(RcNatarajanMittalTree::<u64, u64, S>::new()));
});

scheme_matrix!(manual_list_concurrent_mixed, {
    concurrent_mixed_styles(Arc::new(HarrisMichaelList::<u64, u64, S>::new()));
});

/// Queues: batched pop/push under one guard conserves elements and
/// order, matching a sequential model, for the weak-edge RC queue, the
/// manual queue and the lock-based baseline.
#[test]
fn queue_batched_matches_model() {
    fn drive<Q: ConcurrentQueue<u64>>(q: &Q) {
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut state = 0xABCDu64;
        let mut step = 0;
        while step < 600 {
            let guard = q.pin();
            for _ in 0..16 {
                step += 1;
                if !lcg(&mut state).is_multiple_of(3) {
                    let v = lcg(&mut state) % 1000;
                    q.enqueue_with(v, &guard);
                    model.push_back(v);
                } else {
                    assert_eq!(q.dequeue_with(&guard), model.pop_front());
                }
            }
            drop(guard);
        }
        // Drain guard-free: styles interoperate.
        while let Some(v) = model.pop_front() {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }
    drive(&RcDoubleLinkQueue::<u64, HpScheme>::new());
    drive(&RcDoubleLinkQueue::<u64, EbrScheme>::new());
    drive(&DoubleLinkQueue::<u64, smr::Ebr>::new());
}

#[derive(Debug, Clone, Copy)]
enum MixedOp {
    /// Run inside the current batch guard.
    Batched(u8, u64, u64),
    /// Drop the guard, run guard-free, re-pin.
    Free(u8, u64, u64),
}

fn mixed_op() -> impl Strategy<Value = MixedOp> {
    prop_oneof![
        (0u8..3, 0u64..64, 0u64..1000).prop_map(|(o, k, v)| MixedOp::Batched(o, k, v)),
        (0u8..3, 0u64..64, 0u64..1000).prop_map(|(o, k, v)| MixedOp::Free(o, k, v)),
    ]
}

fn apply_model(model: &mut BTreeMap<u64, u64>, o: u8, k: u64, v: u64) -> Option<u64> {
    use std::collections::btree_map::Entry;
    match o {
        0 => match model.entry(k) {
            Entry::Vacant(e) => {
                e.insert(v);
                Some(1)
            }
            Entry::Occupied(_) => Some(0),
        },
        1 => Some(model.remove(&k).is_some() as u64),
        _ => model.get(&k).copied(),
    }
}

fn apply_with<M: ConcurrentMap<u64, u64>>(
    map: &M,
    guard: &M::Guard,
    o: u8,
    k: u64,
    v: u64,
) -> Option<u64> {
    match o {
        0 => Some(map.insert_with(k, v, guard) as u64),
        1 => Some(map.remove_with(&k, guard) as u64),
        _ => map.get_with(&k, guard),
    }
}

fn apply_free<M: ConcurrentMap<u64, u64>>(map: &M, o: u8, k: u64, v: u64) -> Option<u64> {
    match o {
        0 => Some(map.insert(k, v) as u64),
        1 => Some(map.remove(&k) as u64),
        _ => map.get(&k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Property: an arbitrary interleaving of guard-batched and guard-free
    /// calls on ONE structure is indistinguishable from the sequential
    /// model — the guard only changes when fences are paid, never results.
    #[test]
    fn mixed_call_styles_match_model(ops in proptest::collection::vec(mixed_op(), 1..250)) {
        let map: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut guard = map.pin();
        for op in ops {
            match op {
                MixedOp::Batched(o, k, v) => {
                    let e = apply_model(&mut model, o, k, v);
                    prop_assert_eq!(apply_with(&map, &guard, o, k, v), e);
                }
                MixedOp::Free(o, k, v) => {
                    drop(guard);
                    let e = apply_model(&mut model, o, k, v);
                    prop_assert_eq!(apply_free(&map, o, k, v), e);
                    guard = map.pin();
                }
            }
        }
        drop(guard);
        for k in 0..64u64 {
            prop_assert_eq!(map.get(&k), model.get(&k).copied());
        }
    }

    /// Same property on the manual HP list — the protected-pointer scheme
    /// with the most delicate guard discipline.
    #[test]
    fn mixed_call_styles_match_model_manual_hp(ops in proptest::collection::vec(mixed_op(), 1..250)) {
        let map: HarrisMichaelList<u64, u64, smr::Hp> = HarrisMichaelList::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut guard = map.pin();
        for op in ops {
            match op {
                MixedOp::Batched(o, k, v) => {
                    let e = apply_model(&mut model, o, k, v);
                    prop_assert_eq!(apply_with(&map, &guard, o, k, v), e);
                }
                MixedOp::Free(o, k, v) => {
                    drop(guard);
                    let e = apply_model(&mut model, o, k, v);
                    prop_assert_eq!(apply_free(&map, o, k, v), e);
                    guard = map.pin();
                }
            }
        }
    }
}
