//! Property tests: randomized operation sequences against sequential
//! models, for every structure in both manual and automatic variants.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use cdrc::{EbrScheme, HpScheme};
use lockfree::manual::{DoubleLinkQueue, HarrisMichaelList, NatarajanMittalTree};
use lockfree::rc::{RcDoubleLinkQueue, RcHarrisMichaelList, RcNatarajanMittalTree};
use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::AcquireRetire;

#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u64..64, 0u64..1000).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u64..64).prop_map(MapOp::Remove),
        (0u64..64).prop_map(MapOp::Get),
        (0u64..64, 1u64..32).prop_map(|(k, n)| MapOp::Range(k, n)),
    ]
}

fn check_map<M: ConcurrentMap<u64, u64>>(map: &M, ops: &[MapOp], ranges: bool) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for &op in ops {
        match op {
            MapOp::Insert(k, v) => {
                // Our maps are insert-if-absent (no value replacement).
                let absent = !model.contains_key(&k);
                if absent {
                    model.insert(k, v);
                }
                assert_eq!(map.insert(k, v), absent);
            }
            MapOp::Remove(k) => {
                assert_eq!(map.remove(&k), model.remove(&k).is_some());
            }
            MapOp::Get(k) => {
                assert_eq!(map.get(&k), model.get(&k).copied());
            }
            MapOp::Range(k, n) => {
                if ranges {
                    let hi = k + n;
                    let expect = model.range(k..hi).count();
                    if let Some(got) = map.range(&k, &hi, usize::MAX) {
                        assert_eq!(got, expect);
                    }
                }
            }
        }
    }
}

// Trim case counts: each case builds concurrent structures; default 256
// cases x several structures would dominate test time.
fn cfg() -> ProptestConfig {
    ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(cfg())]

    #[test]
    fn manual_list_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let list: HarrisMichaelList<u64, u64, smr::Ebr> = HarrisMichaelList::new();
        check_map(&list, &ops, false);
    }

    #[test]
    fn manual_list_hp_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let list: HarrisMichaelList<u64, u64, smr::Hp> = HarrisMichaelList::new();
        check_map(&list, &ops, false);
    }

    #[test]
    fn rc_list_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let list: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new();
        check_map(&list, &ops, false);
    }

    #[test]
    fn rc_list_hp_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let list: RcHarrisMichaelList<u64, u64, HpScheme> = RcHarrisMichaelList::new();
        check_map(&list, &ops, false);
    }

    #[test]
    fn manual_tree_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let tree: NatarajanMittalTree<u64, u64, smr::Ebr> = NatarajanMittalTree::new();
        check_map(&tree, &ops, true);
    }

    #[test]
    fn manual_tree_hyaline_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let tree: NatarajanMittalTree<u64, u64, smr::Hyaline> = NatarajanMittalTree::new();
        check_map(&tree, &ops, true);
    }

    #[test]
    fn rc_tree_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let tree: RcNatarajanMittalTree<u64, u64, EbrScheme> = RcNatarajanMittalTree::new();
        check_map(&tree, &ops, true);
    }

    #[test]
    fn rc_tree_hp_matches_model(ops in proptest::collection::vec(map_op(), 1..300)) {
        let tree: RcNatarajanMittalTree<u64, u64, HpScheme> = RcNatarajanMittalTree::new();
        check_map(&tree, &ops, true);
    }

    #[test]
    fn manual_queue_matches_model(ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..300)) {
        let q: DoubleLinkQueue<u64, smr::Ibr> = DoubleLinkQueue::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => { q.enqueue(v); model.push_back(v); }
                None => assert_eq!(q.dequeue(), model.pop_front()),
            }
        }
        while let Some(v) = model.pop_front() {
            prop_assert_eq!(q.dequeue(), Some(v));
        }
        prop_assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn rc_queue_matches_model(ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..300)) {
        let q: RcDoubleLinkQueue<u64, EbrScheme> = RcDoubleLinkQueue::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => { q.enqueue(v); model.push_back(v); }
                None => assert_eq!(q.dequeue(), model.pop_front()),
            }
        }
        while let Some(v) = model.pop_front() {
            prop_assert_eq!(q.dequeue(), Some(v));
        }
        prop_assert_eq!(q.dequeue(), None);
    }

    /// The multi-retire bookkeeping invariant of §3.2, tested directly on
    /// the HP instance: a pointer retired `r` times and currently announced
    /// `a` times yields exactly `max(0, r - a)` ejects, and the remaining
    /// copies appear after release.
    #[test]
    fn hp_multi_retire_accounting(retires in 1usize..8, announces in 0usize..6) {
        use smr::{GlobalEpoch, Retired, SmrConfig};
        use std::sync::Arc;
        use smr::sync::atomic::AtomicUsize;

        let hp = smr::Hp::new(
            Arc::new(GlobalEpoch::new()),
            SmrConfig { hp_slots: 8, ..smr::Hp::default_config() },
        );
        let t = smr::current_tid();
        let src = AtomicUsize::new(0x8000);
        let guards: Vec<_> = (0..announces)
            .map(|_| hp.try_acquire(t, &src).unwrap().1)
            .collect();
        for _ in 0..retires {
            hp.retire(t, Retired::new(0x8000, 0));
        }
        hp.flush(t);
        let mut ejected = 0;
        while hp.eject(t).is_some() {
            ejected += 1;
        }
        prop_assert_eq!(ejected, retires.saturating_sub(announces));
        for g in guards {
            hp.release(t, g);
        }
        hp.flush(t);
        let mut rest = 0;
        while hp.eject(t).is_some() {
            rest += 1;
        }
        prop_assert_eq!(ejected + rest, retires);
    }

    /// Weak pointer count algebra: after arbitrary clone/downgrade/drop
    /// sequences, dropping every handle collects the object exactly once.
    #[test]
    fn weak_strong_handle_churn(script in proptest::collection::vec(0u8..6, 0..60)) {
        use smr::sync::atomic::{AtomicUsize as A, Ordering};
        use std::sync::Arc as StdArc;
        struct Probe(StdArc<A>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        // On a private domain: the last drop defers the disposal (weak
        // observers), which any section a sibling test holds on the global
        // domain would pin.
        let d: cdrc::DomainRef<EbrScheme> = cdrc::DomainRef::new();
        let drops = StdArc::new(A::new(0));
        let first: cdrc::SharedPtr<Probe, EbrScheme> =
            cdrc::SharedPtr::new_in(Probe(StdArc::clone(&drops)), &d);
        let mut strongs = vec![first];
        let mut weaks: Vec<cdrc::WeakPtr<Probe, EbrScheme>> = Vec::new();
        for step in script {
            match step {
                0 => {
                    if let Some(s) = strongs.first() {
                        strongs.push(s.clone());
                    }
                }
                1 => {
                    if let Some(s) = strongs.first() {
                        weaks.push(s.downgrade());
                    }
                }
                2 => {
                    if strongs.len() > 1 {
                        strongs.pop();
                    }
                }
                3 => {
                    weaks.pop();
                }
                4 => {
                    if let Some(w) = weaks.first() {
                        if let Some(up) = w.upgrade() {
                            strongs.push(up);
                        }
                    }
                }
                _ => {
                    if let Some(w) = weaks.first() {
                        let _ = w.expired();
                    }
                }
            }
            prop_assert_eq!(drops.load(Ordering::SeqCst), 0, "alive while strong handles exist");
        }
        drop(strongs);
        drop(weaks);
        d.process_deferred(smr::current_tid());
        prop_assert_eq!(drops.load(Ordering::SeqCst), 1, "collected exactly once");
    }
}
