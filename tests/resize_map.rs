//! Resizable (split-ordered) hash map integration tests: concurrent
//! grow-under-churn per scheme, model equivalence against
//! `std::collections::HashMap`, and reclamation-domain balance after drop.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::manual::ResizableHashMap;
use lockfree::rc::RcResizableHashMap;
use lockfree::ConcurrentMap;
use smr::AcquireRetire;

/// Inserts/removes racing growth: every worker churns its own key range
/// hard enough to force several mask doublings, then the survivors are
/// checked exactly.
fn grow_under_churn<M: ConcurrentMap<u64, u64>>(map: &M) {
    let threads = 8u64;
    let per = 600u64;
    std::thread::scope(|s| {
        for i in 0..threads {
            let map = &map;
            s.spawn(move || {
                for j in 0..per {
                    let k = i * 100_000 + j;
                    assert!(map.insert(k, k * 3), "fresh key {k} rejected");
                    assert_eq!(map.get(&k), Some(k * 3), "key {k} lost immediately");
                    if j % 3 != 0 {
                        assert!(map.remove(&k), "key {k} vanished before remove");
                    }
                }
            });
        }
    });
    for i in 0..threads {
        for j in 0..per {
            let k = i * 100_000 + j;
            let expect = if j % 3 == 0 { Some(k * 3) } else { None };
            assert_eq!(map.get(&k), expect, "key {k} wrong after churn");
        }
    }
}

#[test]
fn rc_grow_under_churn_all_schemes() {
    fn run<S: Scheme>() {
        let map: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::new_in(DomainRef::new());
        grow_under_churn(&map);
        assert!(map.buckets() > 1, "table never grew");
    }
    run::<EbrScheme>();
    run::<IbrScheme>();
    run::<HpScheme>();
    run::<HyalineScheme>();
}

#[test]
fn manual_grow_under_churn_all_schemes() {
    fn run<S: AcquireRetire>() {
        let map: ResizableHashMap<u64, u64, S> = ResizableHashMap::new();
        grow_under_churn(&map);
        assert!(map.buckets() > 1, "table never grew");
    }
    run::<smr::Ebr>();
    run::<smr::Ibr>();
    run::<smr::Hp>();
    run::<smr::Hyaline>();
}

#[test]
fn rc_domain_balances_after_concurrent_churn_and_drop() {
    let domain: DomainRef<EbrScheme> = DomainRef::new();
    {
        let map: Arc<RcResizableHashMap<u64, u64, EbrScheme>> =
            Arc::new(RcResizableHashMap::new_in(domain.clone()));
        let hs: Vec<_> = (0..4u64)
            .map(|i| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for j in 0..1000 {
                        let k = i * 10_000 + j;
                        map.insert(k, k);
                        if j % 2 == 0 {
                            map.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
    }
    // Safety: workers joined and the map is dropped — exclusive access.
    // Worker threads park deferred decrements in per-thread batches; the
    // map's Drop only flushes the dropping thread's, so the exact-balance
    // check needs the full drain (as in `tests/leaks.rs`).
    unsafe { domain.drain_and_apply_all(smr::current_tid()) };
    assert_eq!(
        domain.allocated(),
        domain.freed(),
        "sentinels, live nodes and deferred garbage all reclaimed at drop"
    );
}

/// Live `Tracked` values; only `manual_stats_balance_after_concurrent_churn_and_drop`
/// creates them, so the count is exact for that test.
static TRACKED_LIVE: std::sync::atomic::AtomicIsize = std::sync::atomic::AtomicIsize::new(0);

/// A map value that counts its live instances: a node that is never freed
/// never drops its value, so a non-zero count after drop is a leak.
struct Tracked(u64);

impl Tracked {
    fn new(v: u64) -> Self {
        TRACKED_LIVE.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Tracked(v)
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.0)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        TRACKED_LIVE.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

#[test]
fn manual_stats_balance_after_concurrent_churn_and_drop() {
    {
        let map: Arc<ResizableHashMap<u64, Tracked, smr::Ebr>> =
            Arc::new(ResizableHashMap::with_capacity(1));
        let hs: Vec<_> = (0..4u64)
            .map(|i| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for j in 0..1000 {
                        let k = i * 10_000 + j;
                        map.insert(k, Tracked::new(k));
                        if j % 2 == 0 {
                            map.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert!(TRACKED_LIVE.load(std::sync::atomic::Ordering::SeqCst) > 0);
    }
    assert_eq!(
        TRACKED_LIVE.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "every node freed at drop"
    );
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200, 0u64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..200).prop_map(Op::Remove),
        (0u64..200).prop_map(Op::Get),
    ]
}

fn check_model<M: ConcurrentMap<u64, u64>>(map: &M, ops: &[Op]) {
    // A key range of 200 over sequences long enough to cross several
    // growth thresholds exercises splits mid-sequence.
    let mut model: HashMap<u64, u64> = HashMap::new();
    for &o in ops {
        match o {
            Op::Insert(k, v) => {
                // Insert-if-absent semantics, as everywhere in the suite.
                let absent = !model.contains_key(&k);
                if absent {
                    model.insert(k, v);
                }
                assert_eq!(map.insert(k, v), absent);
            }
            Op::Remove(k) => assert_eq!(map.remove(&k), model.remove(&k).is_some()),
            Op::Get(k) => assert_eq!(map.get(&k), model.get(&k).copied()),
        }
    }
    for (k, v) in &model {
        assert_eq!(map.get(k), Some(*v), "final state diverged at {k}");
    }
}

fn cfg() -> ProptestConfig {
    ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(cfg())]

    #[test]
    fn rc_resizable_matches_std_hashmap(ops in proptest::collection::vec(op(), 1..400)) {
        let map: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::new_in(DomainRef::new());
        check_model(&map, &ops);
    }

    #[test]
    fn manual_resizable_matches_std_hashmap(ops in proptest::collection::vec(op(), 1..400)) {
        let map: ResizableHashMap<u64, u64, smr::Hp> = ResizableHashMap::new();
        check_model(&map, &ops);
    }
}
