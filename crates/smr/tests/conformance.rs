//! One conformance suite for the generalized acquire-retire interface
//! (paper Fig. 2, Definition 3.3), generic over `S: AcquireRetire` and run
//! against all four schemes.
//!
//! "Protection" is spelled the one way every scheme honours: a critical
//! section *with* a guard held on the word that names the object. Under
//! the region schemes the section alone would do; under HP the guard alone
//! would; holding both lets one test body state the rule for all four.
//! Objects are fake addresses — the engines compare them, never dereference
//! them. What only one scheme promises (IBR's interval disjointness, HP's
//! slot exhaustion and multiset rule, Hyaline's claimed-once hand-off) is
//! tested beside its policy in `src/`.

use smr::sync::atomic::AtomicUsize;
use smr::{current_tid, AcquireRetire, GlobalEpoch, Retired, SmrConfig, Tid};
use std::sync::{mpsc, Arc};

fn with<S: AcquireRetire>(cfg: SmrConfig) -> S {
    S::new(Arc::new(GlobalEpoch::new()), cfg)
}

fn fresh<S: AcquireRetire>() -> S {
    with(S::default_config())
}

/// A fake object at `addr`, born now.
fn object<S: AcquireRetire>(s: &S, t: Tid, addr: usize) -> Retired {
    Retired::new(addr, s.birth_epoch(t))
}

/// Forces a scan and counts what `eject` then hands back.
fn drain<S: AcquireRetire>(s: &S, t: Tid) -> usize {
    s.flush(t);
    std::iter::from_fn(|| s.eject(t)).count()
}

fn acquire_round_trips_the_word<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    let src = AtomicUsize::new(0xbeef0);
    s.begin_critical_section(t);
    let (v, g) = s.acquire(t, &src);
    assert_eq!(v, 0xbeef0);
    s.release(t, g);
    let (v, g) = s.try_acquire(t, &src).expect("no guard is held");
    assert_eq!(v, 0xbeef0);
    s.release(t, g);
    s.end_critical_section(t);
}

fn multi_retire_multi_eject<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    let r = object(&s, t, 0x3000);
    for _ in 0..3 {
        s.retire(t, r);
    }
    s.flush(t);
    for _ in 0..3 {
        assert_eq!(s.eject(t), Some(r.addr));
    }
    assert_eq!(s.eject(t), None, "ejected more often than retired");
}

/// `k = 3` retires of one address under `j = 2` guards on it: a scan may
/// hand back at most the `k − j` surplus (exactly that under a
/// pointer-protecting scheme — the multiset rule; nothing under a region
/// scheme, whose section pins all three), and once the guards and the
/// section are gone every copy comes back exactly once.
fn multi_retire_under_fewer_guards<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    let r = object(&s, t, 0x3000);
    let src = AtomicUsize::new(r.addr);
    s.begin_critical_section(t);
    let (_, g1) = s.try_acquire(t, &src).expect("no guard is held");
    let (_, g2) = s.try_acquire(t, &src).expect("one guard is held");
    for _ in 0..3 {
        s.retire(t, r);
    }
    let early = drain(&s, t);
    if S::PROTECTS_REGIONS {
        assert_eq!(early, 0, "the open section pins every copy");
    } else {
        assert_eq!(early, 1, "min(3 retired, 2 announced) copies stay");
    }
    s.release(t, g1);
    s.release(t, g2);
    s.end_critical_section(t);
    assert_eq!(early + drain(&s, t), 3, "each copy exactly once");
    assert_eq!(s.eject(t), None, "ejected more often than retired");
}

fn has_ready_agrees_with_eject<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    assert!(!s.has_ready(t));
    assert_eq!(s.eject(t), None);
    s.retire(t, object(&s, t, 0x1000));
    s.retire(t, object(&s, t, 0x2000));
    s.flush(t);
    for _ in 0..2 {
        assert!(s.has_ready(t));
        assert!(s.eject(t).is_some());
    }
    assert!(!s.has_ready(t));
    assert_eq!(s.eject(t), None);
}

/// The retiring thread's own protection — taken in a nested section, which
/// must not end with the inner `end` — pins the entry until it is dropped.
fn own_protection_blocks_ejection_until_released<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    let obj = object(&s, t, 0x1000);
    let src = AtomicUsize::new(obj.addr);
    s.begin_critical_section(t);
    s.begin_critical_section(t);
    let (_, g) = s.acquire(t, &src);
    s.end_critical_section(t);
    s.retire(t, obj);
    assert_eq!(drain(&s, t), 0, "still protected after the inner end");
    s.release(t, g);
    s.end_critical_section(t);
    assert_eq!(drain(&s, t), 1);
}

/// Another thread's protection pins the entry; once it leaves, exactly one
/// thread — the retirer, or under Hyaline the leaver — gets it back.
fn cross_thread_reader_blocks_ejection_until_it_leaves<S: AcquireRetire>() {
    let (s, t) = (Arc::new(fresh::<S>()), current_tid());
    let obj = object(&*s, t, 0x4000);
    let src = Arc::new(AtomicUsize::new(obj.addr));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (leave_tx, leave_rx) = mpsc::channel::<()>();
    let reader = std::thread::spawn({
        let (s, src) = (Arc::clone(&s), Arc::clone(&src));
        move || {
            let rt = current_tid();
            s.begin_critical_section(rt);
            let (_, g) = s.acquire(rt, &src);
            entered_tx.send(()).unwrap();
            leave_rx.recv().unwrap();
            s.release(rt, g);
            s.end_critical_section(rt);
            drain(&*s, rt)
        }
    });
    entered_rx.recv().unwrap();
    s.retire(t, obj);
    assert_eq!(drain(&*s, t), 0, "active reader must block ejection");
    leave_tx.send(()).unwrap();
    let claimed_by_reader = reader.join().unwrap();
    assert_eq!(claimed_by_reader + drain(&*s, t), 1);
}

fn threshold_triggers_automatic_scan<S: AcquireRetire>() {
    // HP's trigger also scales with the announcement words in use process-
    // wide (`2 × hwm × (hp_slots + 1)` ≤ 1024 here), hence the 2048.
    let s: S = with(SmrConfig {
        eject_threshold: 4,
        batch_size: 4,
        hp_slots: 1,
        ..S::default_config()
    });
    let t = current_tid();
    for i in 0..2048 {
        s.retire(t, object(&s, t, 0x1000 + i * 8));
    }
    assert!(s.has_ready(t), "no scan ran inside retire");
}

fn drain_all_recovers_everything<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    s.retire(t, object(&s, t, 0x4000));
    s.flush(t); // one entry waits in the ready queue ...
    s.begin_critical_section(t);
    s.retire(t, object(&s, t, 0x5000));
    s.retire(t, object(&s, t, 0x6000));
    s.end_critical_section(t); // ... two in the retired list
    assert_eq!(unsafe { s.drain_all() }.len(), 3);
    assert_eq!(unsafe { s.drain_all() }.len(), 0);
}

/// Only the outermost `end_critical_section` reports itself as such, and
/// right after it the section is fully over: a retire made there (what a
/// consumer's section-exit work does) is ejectable at once.
fn exit_hook_fires_once_per_outermost_section_and_may_reenter<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    s.begin_critical_section(t);
    s.begin_critical_section(t);
    assert!(!s.end_critical_section(t), "an inner exit is not outermost");
    assert!(s.end_critical_section(t));
    for round in 0..2 {
        s.begin_critical_section(t);
        assert!(s.end_critical_section(t), "round {round}");
        s.retire(t, object(&s, t, 0x7000));
        assert_eq!(drain(&s, t), 1, "round {round}: the section was over");
    }
}

fn quiescent_tracks_held_protection<S: AcquireRetire>() {
    let (s, t) = (fresh::<S>(), current_tid());
    let src = AtomicUsize::new(0x1000);
    assert!(s.quiescent());
    s.begin_critical_section(t);
    let (_, g) = s.acquire(t, &src);
    assert!(!s.quiescent());
    s.release(t, g);
    s.end_critical_section(t);
    assert!(s.quiescent());
}

/// A thread dies holding protection, with one entry in its ready queue and
/// one in its retired list. `reclaim_slot` must force-close the protection,
/// migrate both entries, and leave the slot usable by its next owner.
fn reclaim_slot_recovers_a_dead_threads_section<S: AcquireRetire>() {
    let (s, t) = (Arc::new(fresh::<S>()), current_tid());
    let [a, b, c] = [0x1000, 0x2000, 0x3000].map(|addr| object(&*s, t, addr));
    let src = Arc::new(AtomicUsize::new(b.addr));
    let victim = std::thread::spawn({
        let (s, src) = (Arc::clone(&s), Arc::clone(&src));
        move || {
            let vt = current_tid();
            s.retire(vt, a);
            s.flush(vt); // `a` now waits in the victim's ready queue
            s.begin_critical_section(vt);
            let _never_released = s.acquire(vt, &src);
            s.retire(vt, c); // `c` waits in its retired list
            smr::abandon_current_slot()
        }
    });
    let dead = victim.join().unwrap();
    assert!(!s.quiescent(), "the dead protection is still published");
    s.retire(t, b);
    assert_eq!(drain(&*s, t), 0, "the dead thread still protects `b`");

    // SAFETY: the victim was joined; `t` is this thread, outside any section.
    unsafe { s.reclaim_slot(dead, t) };
    assert!(s.quiescent(), "reclaim must force-close the protection");
    assert_eq!(drain(&*s, t), 3, "`a`, `b` and `c` all come home");

    // The registry still counts the slot as its dead owner's, so nobody can
    // be handed it: drive it from here the way its next owner will. A
    // section must announce afresh (nesting depth reset) and `acquire` must
    // find its guard free again.
    s.begin_critical_section(dead);
    let (_, g) = s.acquire(dead, &src);
    assert!(!s.quiescent());
    s.release(dead, g);
    s.end_critical_section(dead);
    assert!(s.quiescent());
    // SAFETY: as above; hands the slot back to the registry.
    assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
}

macro_rules! conformance {
    ($($scheme:ident: $S:ty),*) => {$(
        mod $scheme {
            conformance!(@tests $S:
                acquire_round_trips_the_word,
                multi_retire_multi_eject,
                multi_retire_under_fewer_guards,
                has_ready_agrees_with_eject,
                own_protection_blocks_ejection_until_released,
                cross_thread_reader_blocks_ejection_until_it_leaves,
                threshold_triggers_automatic_scan,
                drain_all_recovers_everything,
                exit_hook_fires_once_per_outermost_section_and_may_reenter,
                quiescent_tracks_held_protection,
                reclaim_slot_recovers_a_dead_threads_section
            );
        }
    )*};
    (@tests $S:ty: $($case:ident),*) => {$(
        #[test]
        fn $case() {
            super::$case::<$S>();
        }
    )*};
}

conformance!(ebr: smr::Ebr, ibr: smr::Ibr, hp: smr::Hp, hyaline: smr::Hyaline);
