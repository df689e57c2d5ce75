//! Weak-pointer semantics across schemes: upgrade/expiry races, weak
//! snapshot linearizability corners (§4.5), and the queue of Fig. 10.

use smr::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme,
    Scheme, SharedPtr, WeakPtr,
};

fn settle<S: Scheme>() {
    S::global_domain().process_deferred(smr::current_tid());
}

fn upgrade_expiry_race<S: Scheme>() {
    for round in 0..40u64 {
        let strong: SharedPtr<u64, S> = SharedPtr::new(round);
        let weak = strong.downgrade();
        let seen_value = Arc::new(AtomicU64::new(0));
        let dropper = std::thread::spawn(move || drop(strong));
        let upgrader = {
            let weak = weak.clone();
            let seen = Arc::clone(&seen_value);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    match weak.upgrade() {
                        Some(p) => {
                            // An upgrade that succeeds must yield a fully
                            // alive object.
                            seen.store(*p.as_ref().unwrap() + 1, Ordering::SeqCst);
                        }
                        None => break, // once dead, always dead
                    }
                }
            })
        };
        dropper.join().unwrap();
        upgrader.join().unwrap();
        let seen = seen_value.load(Ordering::SeqCst);
        assert!(seen == 0 || seen == round + 1);
        settle::<S>();
        assert!(weak.upgrade().is_none());
    }
}

#[test]
fn upgrade_vs_drop_all_schemes() {
    upgrade_expiry_race::<EbrScheme>();
    upgrade_expiry_race::<IbrScheme>();
    upgrade_expiry_race::<HpScheme>();
    upgrade_expiry_race::<HyalineScheme>();
}

fn weak_snapshot_reads_stay_valid<S: Scheme>() {
    // A reader holds weak snapshots while a writer destroys the last strong
    // reference; every non-null snapshot must remain readable for its whole
    // lifetime.
    for _ in 0..30 {
        let slot: Arc<AtomicWeakPtr<String, S>> = Arc::new(AtomicWeakPtr::null());
        let strong: SharedPtr<String, S> = SharedPtr::new("payload".to_string());
        slot.store(strong.downgrade());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let d = S::global_domain();
                let mut reads = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let cs = d.cs();
                    let snap = slot.get_snapshot(&cs);
                    if let Some(s) = snap.as_ref() {
                        assert_eq!(s, "payload");
                        reads += 1;
                    }
                }
                reads
            })
        };
        drop(strong);
        stop.store(true, Ordering::Relaxed);
        let _ = reader.join().unwrap();
        settle::<S>();
        let cs = S::global_domain().cs();
        assert!(slot.get_snapshot(&cs).is_null());
    }
}

#[test]
fn weak_snapshot_expiry_all_schemes() {
    weak_snapshot_reads_stay_valid::<EbrScheme>();
    weak_snapshot_reads_stay_valid::<IbrScheme>();
    weak_snapshot_reads_stay_valid::<HpScheme>();
    weak_snapshot_reads_stay_valid::<HyalineScheme>();
}

/// The weak gate: a weak snapshot stays readable after the weak location
/// it came from is cleared and the object's last strong reference is given
/// up. Clearing the location takes the weak count back to the strong
/// side's own +1 once its decrement is applied, which under hazard
/// pointers happens once a scan finds no hazard on the location's old
/// occupant, while the snapshot may have been taken through another
/// location. So the gate cannot tell that the snapshot exists, and a
/// strong zero must not destruct on the spot.
/// The `freed()` check is exact without the sanitizer; the read after it
/// is what the sanitizer catches.
fn weak_snapshot_outlives_its_cleared_location<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    let strong: AtomicSharedPtr<String, S> =
        AtomicSharedPtr::new_in(SharedPtr::new_in("payload".to_string(), &d), &d);
    let weak: AtomicWeakPtr<String, S> = AtomicWeakPtr::null_in(&d);
    weak.store(strong.load().downgrade());
    {
        let cs = d.cs();
        let snap = weak.get_snapshot(&cs);
        weak.store(WeakPtr::null());
        d.process_deferred(t);
        strong.store(SharedPtr::null());
        d.process_deferred(t);
        assert_eq!(
            d.freed(),
            0,
            "{}: freed under a weak snapshot",
            S::scheme_name()
        );
        assert_eq!(snap.as_ref().map(String::as_str), Some("payload"));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn weak_snapshot_outlives_its_cleared_location_all_schemes() {
    weak_snapshot_outlives_its_cleared_location::<EbrScheme>();
    weak_snapshot_outlives_its_cleared_location::<IbrScheme>();
    weak_snapshot_outlives_its_cleared_location::<HpScheme>();
    weak_snapshot_outlives_its_cleared_location::<HyalineScheme>();
}

#[test]
fn weak_snapshot_null_only_if_location_unchanged() {
    // §4.5: if the observed object expired but the location has been
    // replaced, get_snapshot must retry rather than report null. Driven
    // here by racing replacements of expiring objects.
    let slot: Arc<AtomicWeakPtr<u64, EbrScheme>> = Arc::new(AtomicWeakPtr::null());
    let keeper: Arc<AtomicSharedPtr<u64, EbrScheme>> = Arc::new(AtomicSharedPtr::null());
    let strong: SharedPtr<u64, EbrScheme> = SharedPtr::new(0);
    keeper.store(strong.clone());
    slot.store(strong.downgrade());
    drop(strong);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let slot = Arc::clone(&slot);
        let keeper = Arc::clone(&keeper);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let fresh: SharedPtr<u64, EbrScheme> = SharedPtr::new(i);
                slot.store(fresh.downgrade());
                keeper.store(fresh); // keeps the newest alive
                i += 1;
            }
        })
    };
    let d = EbrScheme::global_domain();
    for _ in 0..20_000 {
        let cs = d.cs();
        let snap = slot.get_snapshot(&cs);
        // The slot always references the keeper-alive object (modulo the
        // instant between the two stores), so null snapshots must be rare
        // and — crucially — reads of non-null snapshots always valid.
        if let Some(v) = snap.as_ref() {
            std::hint::black_box(*v);
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    settle::<EbrScheme>();
}

#[test]
fn downgrade_upgrade_identity() {
    fn run<S: Scheme>() {
        let p: SharedPtr<Vec<u32>, S> = SharedPtr::new(vec![1, 2, 3]);
        let w = p.downgrade();
        let q = w.upgrade().unwrap();
        assert!(p.ptr_eq(&q));
        assert_eq!(q.as_ref().unwrap(), &vec![1, 2, 3]);
        drop((p, q, w));
        settle::<S>();
    }
    run::<EbrScheme>();
    run::<HpScheme>();
}

#[test]
fn atomic_weak_cas_chain() {
    let a: SharedPtr<u8, IbrScheme> = SharedPtr::new(1);
    let b: SharedPtr<u8, IbrScheme> = SharedPtr::new(2);
    let slot: AtomicWeakPtr<u8, IbrScheme> = AtomicWeakPtr::null();
    let wa = a.downgrade();
    let wb = b.downgrade();
    // null -> a -> b chain of CASes.
    assert!(slot
        .compare_exchange(cdrc::TaggedPtr::null(), wa.clone(), 0)
        .expect("install into empty slot")
        .is_null());
    let cur = slot.load_tagged();
    let displaced = slot.compare_exchange(cur, wb.clone(), 0).expect("a -> b");
    assert!(displaced.ptr_eq(&wa), "displaced weak is the old occupant");
    drop(displaced);
    let e = slot
        .compare_exchange(cur, wa.clone(), 0)
        .expect_err("stale expected must fail");
    assert_eq!(
        e.current,
        slot.load_tagged(),
        "witness names the current occupant"
    );
    assert!(e.desired.ptr_eq(&wa), "desired comes back untouched");
    drop(e);
    assert_eq!(slot.load().upgrade().map(|p| *p.as_ref().unwrap()), Some(2));
    drop((a, b, wa, wb, slot));
    settle::<IbrScheme>();
}
