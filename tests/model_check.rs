//! Bounded model checking of the engine protocol on the vendored
//! `interleave` checker (`cargo test --features model-check --test model_check`).
//!
//! Every scenario here is explored over **all interleavings** of 2–3 threads
//! under a small preemption bound, with the suite's atomics routed through
//! `smr::sync` onto the checker's C11 acquire/release + modification-order
//! semantics — weaker than the x86 the native tests run on. The scenarios
//! assert two properties across every explored schedule:
//!
//! * **no use-after-free** — an object a reader holds protected (hazard
//!   slot, announced epoch/interval, Hyaline reference) is never handed back
//!   by `eject`/`scan` while the reader still uses it; and
//! * **count balance** — every retired entry comes back exactly once
//!   (ejected or drained), and the cdrc domain ends with
//!   `allocated() == freed()`.
//!
//! "Freeing" is simulated: ejection sets an exempt side-table flag that the
//! reader asserts against, so a protocol violation becomes a checker-reported
//! panic instead of real undefined behaviour.
//!
//! Bounds (see `interleave::Config`): preemption bound 1–2 depending on the
//! scenario's op count, 1–2 shared words, ≤3 threads. The epoch-clock litmus
//! justifies the `GlobalEpoch::advance` SeqCst→AcqRel relaxation (PR 3's
//! ordering table); the sticky-decrement litmus licenses the reference
//! counters' Relaxed-increment / Release-decrement discipline (and shows a
//! Relaxed decrement letting the disposer miss another owner's writes) on
//! the counters' 32-bit word, and a race on the `StickyCounter` itself
//! checks its help flag and single zero at that width; the
//! unlink litmus pair *defends* the engine's SeqCst unlink swap/CAS —
//! `unlink_acqrel_swap_is_unsound` exhibits the eject-rule violation that
//! the tempting AcqRel relaxation opens, and the publication litmus shows
//! Relaxed additionally tearing the displaced payload; the IBR regression
//! re-seeds the PR 5 `PROTECTS_SECTION_READS` hole and demonstrates the
//! checker catches it. The weak-upgrade and tag-RMW scenarios drive the
//! remaining RcWord paths — weak snapshot/promotion racing the final strong
//! drop, and tag RMWs racing a CAS with witness discipline — through the
//! same full-stack exploration, now with the relaxed counters modeled. The
//! queue scenario takes the same exploration up to a structure: the weak
//! queue's enqueue with an old tail's `prev` cleared, racing a second
//! enqueue that then dequeues. The list scenarios run the one
//! Harris-Michael list under each family: an insert, whose RC link moves an
//! edge's reference instead of counting it, against a remove of the node it
//! links before, and two removes of one node. The hazard-snapshot scenarios race HP's
//! double collect against a reader moving its hazards (hand over hand, and
//! ABA on one word), and HP's destruct past a snapshot against a weak
//! snapshot and against a reader that came through another location.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use cdrc::{AtomicSharedPtr, AtomicWeakPtr, DomainRef, SharedPtr, StrongRef};
use interleave::thread as mthread;
use interleave::{try_check, Config, Report, Violation};
use lockfree::manual::HarrisMichaelList;
use lockfree::rc::{RcDoubleLinkQueue, RcHarrisMichaelList};
use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use smr::sync::exempt;
use smr::{current_tid, AcquireRetire, Ebr, GlobalEpoch, Hp, Hyaline, Ibr, Retired, SmrConfig};
use sticky::Counter;

// ---------------------------------------------------------------------------
// Harness discipline
// ---------------------------------------------------------------------------

/// Serializes the tests in this binary *and* pins the registry's high-water
/// mark before any exploration starts.
///
/// Scheme scans iterate announcement slots `0..registered_high_water_mark()`,
/// and the mark only grows. If it grew *mid-exploration* (another test's
/// threads registering, or this scenario's own threads raising it on the
/// first iteration), the number of modeled loads per scan would differ
/// between a recorded tape and its replay — a spurious nondeterminism
/// report. Pre-warming with more concurrent registrations than any scenario
/// uses fixes the mark for the whole process; the mutex keeps other tests'
/// slot churn out of an in-progress exploration.
fn serial() -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    let g = M.lock().unwrap_or_else(|e| e.into_inner());
    let gate = Arc::new(Barrier::new(4));
    let warmers: Vec<_> = (0..4)
        .map(|_| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = current_tid();
                gate.wait();
            })
        })
        .collect();
    for w in warmers {
        w.join().unwrap();
    }
    g
}

fn cfg(preemptions: usize) -> Config {
    Config {
        preemption_bound: Some(preemptions),
        ..Config::default()
    }
}

/// Scheme tuning that makes every protocol edge reachable within the bounds:
/// the epoch clock ticks on every allocation, a single retired entry
/// triggers a scan, and Hyaline distributes one-node batches.
fn tight<S: AcquireRetire>() -> SmrConfig {
    let mut c = S::default_config();
    c.epoch_freq = 1;
    c.eject_threshold = 1;
    c.batch_size = 1;
    c.max_garbage = None;
    c
}

/// Fake object addresses: nonzero, 8-aligned (no tag bits), and identical
/// across iterations so schedules replay deterministically. The schemes
/// treat retired words as opaque — nothing dereferences them.
const OBJ_A: usize = 8;
const OBJ_B: usize = 16;

fn obj_idx(w: usize) -> usize {
    w / 8 - 1
}

// ---------------------------------------------------------------------------
// Per-scheme announce/scan handshake: reader vs. retirer
// ---------------------------------------------------------------------------

/// One reader holds an acquired pointer inside a critical section while the
/// root swaps it out, retires it, and ejects everything a scan releases.
/// Across every interleaving: the reader's object is never ejected while
/// held, and both objects are handed back exactly once afterwards.
fn reader_vs_retirer<S: AcquireRetire + Send + Sync + 'static>() -> Result<Report, Violation> {
    try_check(cfg(2), || {
        let s = Arc::new(S::new(Arc::new(GlobalEpoch::new()), tight::<S>()));
        let t = current_tid();
        let birth_a = s.birth_epoch(t);
        let slot = Arc::new(AtomicUsize::new(OBJ_A));
        let ejected = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);

        let reader = {
            let s = Arc::clone(&s);
            let slot = Arc::clone(&slot);
            let ejected = Arc::clone(&ejected);
            mthread::spawn(move || {
                let t = current_tid();
                s.begin_critical_section(t);
                let (w, g) = s.acquire(t, &slot);
                if w != 0 {
                    // Let the retirer run a full retire/scan/eject pass
                    // while we still hold the protection.
                    mthread::yield_now();
                    let gone = exempt(|| ejected[obj_idx(w)].load(Ordering::Relaxed));
                    assert!(
                        !gone,
                        "{}: ejected an object a reader still holds acquired",
                        S::scheme_name()
                    );
                }
                s.release(t, g);
                s.end_critical_section(t);
            })
        };

        let birth_b = s.birth_epoch(t);
        let old = slot.swap(OBJ_B, Ordering::SeqCst);
        s.retire(
            t,
            Retired {
                addr: old,
                birth: birth_a,
            },
        );
        s.flush(t);
        while let Some(r) = s.eject(t) {
            exempt(|| ejected[obj_idx(r)].store(true, Ordering::Relaxed));
        }
        reader.join().unwrap();

        // Quiesce: retire the survivor too, then every entry must come back
        // exactly once — via eject or the final drain, never both or neither.
        s.retire(
            t,
            Retired {
                addr: OBJ_B,
                birth: birth_b,
            },
        );
        s.flush(t);
        while let Some(r) = s.eject(t) {
            exempt(|| ejected[obj_idx(r)].store(true, Ordering::Relaxed));
        }
        let drained = unsafe { s.drain_all() };
        let mut returns = [0usize; 2];
        for (i, flag) in ejected.iter().enumerate() {
            returns[i] += exempt(|| flag.load(Ordering::Relaxed)) as usize;
        }
        for &r in &drained {
            returns[obj_idx(r)] += 1;
        }
        assert_eq!(
            returns,
            [1, 1],
            "{}: retire/eject count imbalance",
            S::scheme_name()
        );
    })
}

#[test]
fn ebr_reader_vs_retirer_has_no_uaf() {
    let _s = serial();
    reader_vs_retirer::<Ebr>().expect("EBR handshake violates protection under some interleaving");
}

#[test]
fn ibr_reader_vs_retirer_has_no_uaf() {
    let _s = serial();
    reader_vs_retirer::<Ibr>().expect("IBR handshake violates protection under some interleaving");
}

#[test]
fn hp_reader_vs_retirer_has_no_uaf() {
    let _s = serial();
    reader_vs_retirer::<Hp>().expect("HP handshake violates protection under some interleaving");
}

#[test]
fn hyaline_reader_vs_retirer_has_no_uaf() {
    let _s = serial();
    reader_vs_retirer::<Hyaline>()
        .expect("Hyaline handshake violates protection under some interleaving");
}

// ---------------------------------------------------------------------------
// RcWord load / witness / install / retire through the full cdrc stack
// ---------------------------------------------------------------------------

/// A reader snapshots through a critical section while the root swaps in a
/// replacement and drops the displaced strong reference (decrement → retire
/// → scan in-model). After joining, a witness-seeded CAS retry exercises the
/// failure path, and the domain must balance its allocation ledger across
/// every interleaving.
fn rc_word_protocol<S: cdrc::Scheme + Send + Sync>() -> Result<Report, Violation> {
    try_check(cfg(1), || {
        let d: DomainRef<S> = DomainRef::with_config(tight::<S>());
        let t = current_tid();
        {
            let slot = Arc::new(AtomicSharedPtr::<u64, S>::new_in(
                SharedPtr::new_in(1, &d),
                &d,
            ));
            let stale = slot.load_tagged();

            let reader = {
                let d = d.clone();
                let slot = Arc::clone(&slot);
                mthread::spawn(move || {
                    let t = current_tid();
                    {
                        let cs = d.cs();
                        let snap = slot.get_snapshot(&cs);
                        if let Some(v) = snap.as_ref() {
                            let v = *v;
                            assert!(v == 1 || v == 2, "snapshot saw a never-installed value");
                        }
                    }
                    // Drain the decrement batch in-model: nothing protocol-
                    // relevant may run from real TLS destructors.
                    d.process_deferred(t);
                })
            };

            let two = SharedPtr::new_in(2, &d);
            let displaced = slot.swap(two.clone());
            drop(displaced);
            reader.join().unwrap();

            // Witness-seeded retry (single-threaded tail, so it costs no
            // schedule branching): the stale expected must fail and name the
            // current holder; retrying with the witness must succeed.
            let w = slot
                .compare_exchange(stale, two.clone(), 0)
                .expect_err("stale CAS must fail with a witness")
                .current;
            let displaced = slot
                .compare_exchange(w, two.clone(), 0)
                .expect("witness-seeded retry must succeed");
            drop(displaced);
            drop(two);
            let Ok(slot) = Arc::try_unwrap(slot) else {
                panic!("reader clone was joined; the Arc must be unique");
            };
            drop(slot);
        }
        d.process_deferred(t);
        unsafe { d.drain_and_apply_all(t) };
        assert_eq!(
            d.allocated(),
            d.freed(),
            "{}: domain ledger unbalanced after quiescence",
            S::scheme_name()
        );
    })
}

#[test]
fn ebr_rc_word_protocol_balances() {
    let _s = serial();
    rc_word_protocol::<cdrc::EbrScheme>().expect("RcWord protocol violation under EBR");
}

#[test]
fn ibr_rc_word_protocol_balances() {
    let _s = serial();
    rc_word_protocol::<cdrc::IbrScheme>().expect("RcWord protocol violation under IBR");
}

#[test]
fn hp_rc_word_protocol_balances() {
    let _s = serial();
    rc_word_protocol::<cdrc::HpScheme>().expect("RcWord protocol violation under HP");
}

#[test]
fn hyaline_rc_word_protocol_balances() {
    let _s = serial();
    rc_word_protocol::<cdrc::HyalineScheme>().expect("RcWord protocol violation under Hyaline");
}

// ---------------------------------------------------------------------------
// Epoch-clock litmus: justifies `GlobalEpoch::advance` AcqRel
// ---------------------------------------------------------------------------

const NO_ANN: u64 = u64::MAX;

/// Distilled EBR eject race — advancer / announcing reader / unlink-scan
/// writer — with the clock advanced by `fetch_add(AcqRel)` exactly as
/// `GlobalEpoch::advance` now does. The writer stamps the retire epoch with
/// `stamp_order` and frees when the announcement is absent or newer than the
/// stamp. A SeqCst stamp participates in the total order with the reader's
/// SeqCst clock read, so a reader that announced an epoch the writer's stamp
/// predates is always visible; an Acquire stamp may read the clock stale and
/// under-stamp the retirement, freeing under a live announcement.
fn epoch_clock_litmus(stamp_order: Ordering) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        let clock = Arc::new(AtomicU64::new(0));
        let ann = Arc::new(AtomicU64::new(NO_ANN));
        let slot = Arc::new(AtomicUsize::new(1));
        let freed = Arc::new(AtomicBool::new(false));

        let advancer = {
            let clock = Arc::clone(&clock);
            // Ordering: AcqRel — mirrors `GlobalEpoch::advance`; the litmus
            // exists to show the *stamp load* is where SeqCst must remain.
            mthread::spawn(move || {
                clock.fetch_add(1, Ordering::AcqRel);
            })
        };

        let reader = {
            let clock = Arc::clone(&clock);
            let ann = Arc::clone(&ann);
            let slot = Arc::clone(&slot);
            let freed = Arc::clone(&freed);
            mthread::spawn(move || {
                // Section entry: announce the observed epoch, fence, then
                // trust subsequent reads (the `announce_fn!` idiom).
                let e = clock.load(Ordering::SeqCst);
                ann.store(e, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                let p = slot.load(Ordering::Relaxed);
                if p == 1 {
                    // Still linked from our announced epoch's vantage:
                    // give the writer a chance to scan, then check we were
                    // not freed from under the announcement.
                    mthread::yield_now();
                    let gone = exempt(|| freed.load(Ordering::Relaxed));
                    assert!(!gone, "object freed while an announcement protected it");
                }
                ann.store(NO_ANN, Ordering::Release);
            })
        };

        // Writer: unlink, stamp the retirement, scan announcements.
        slot.store(0, Ordering::SeqCst);
        let stamp = clock.load(stamp_order);
        fence(Ordering::SeqCst);
        let a = ann.load(Ordering::Relaxed);
        if a == NO_ANN || stamp < a {
            exempt(|| freed.store(true, Ordering::Relaxed));
        }
        advancer.join().unwrap();
        reader.join().unwrap();
    })
}

/// The relaxation the checker licenses: with the clock advanced by AcqRel
/// RMWs, a **SeqCst** retire-stamp load keeps every interleaving sound —
/// `GlobalEpoch::advance` does not need its old SeqCst success ordering.
#[test]
fn epoch_clock_seqcst_load_is_sound() {
    let _s = serial();
    let report = epoch_clock_litmus(Ordering::SeqCst)
        .expect("SeqCst retire stamp must be sound under an AcqRel clock");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

/// The boundary of that relaxation: weakening the retire-stamp load itself
/// to Acquire lets the writer under-stamp and free under a live
/// announcement — the checker finds the interleaving. This is why
/// `GlobalEpoch::load` stays SeqCst.
#[test]
fn epoch_clock_acquire_load_is_unsound() {
    let _s = serial();
    let v = epoch_clock_litmus(Ordering::Acquire)
        .expect_err("Acquire retire stamp must be caught by the checker");
    assert!(
        v.message
            .contains("freed while an announcement protected it"),
        "unexpected violation: {v}"
    );
}

// ---------------------------------------------------------------------------
// IBR PROTECTS_SECTION_READS regression (the PR 5 hole, re-seeded)
// ---------------------------------------------------------------------------

/// IBR advertises `PROTECTS_SECTION_READS = false`: a critical section only
/// protects objects born at or before the announced interval's end. This
/// scenario installs an object born *after* the reader's entry announcement.
/// The buggy consumer reads it with a bare load (what the PR 5 hole did);
/// the correct consumer goes through `acquire`, which widens the announced
/// interval before trusting the read.
fn ibr_section_read(use_acquire: bool) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        let s = Arc::new(Ibr::new(Arc::new(GlobalEpoch::new()), tight::<Ibr>()));
        let t = current_tid();
        let slot = Arc::new(AtomicUsize::new(0));
        let ejected = Arc::new(AtomicBool::new(false));

        let reader = {
            let s = Arc::clone(&s);
            let slot = Arc::clone(&slot);
            let ejected = Arc::clone(&ejected);
            mthread::spawn(move || {
                let t = current_tid();
                s.begin_critical_section(t);
                // Let the writer allocate (advancing the epoch past our
                // announced interval) and install.
                mthread::yield_now();
                let (w, g) = if use_acquire {
                    s.acquire(t, &slot)
                } else {
                    // Re-seeded hole: trusting a section-time read without
                    // the acquire protocol. The interval announced at entry
                    // does not cover an object born after it.
                    (slot.load(Ordering::Acquire), Default::default())
                };
                if w != 0 {
                    mthread::yield_now();
                    let gone = exempt(|| ejected.load(Ordering::Relaxed));
                    assert!(
                        !gone,
                        "IBR ejected an object born beyond the announced bound"
                    );
                }
                s.release(t, g);
                s.end_critical_section(t);
            })
        };

        let birth_b = s.birth_epoch(t);
        slot.store(OBJ_B, Ordering::Release);
        mthread::yield_now();
        let old = slot.swap(0, Ordering::SeqCst);
        s.retire(
            t,
            Retired {
                addr: old,
                birth: birth_b,
            },
        );
        s.flush(t);
        while s.eject(t).is_some() {
            exempt(|| ejected.store(true, Ordering::Relaxed));
        }
        reader.join().unwrap();

        let drained = unsafe { s.drain_all() };
        let returns = exempt(|| ejected.load(Ordering::Relaxed)) as usize + drained.len();
        assert_eq!(returns, 1, "IBR retire/eject count imbalance");
    })
}

#[test]
fn ibr_section_reads_hole_is_detected() {
    let _s = serial();
    let v = ibr_section_read(false).expect_err("the checker must catch the section-reads hole");
    assert!(
        v.message.contains("born beyond the announced bound"),
        "unexpected violation: {v}"
    );
}

#[test]
fn ibr_acquire_closes_the_hole() {
    let _s = serial();
    ibr_section_read(true).expect("acquire-protocol reads must be protected in every schedule");
}

// ---------------------------------------------------------------------------
// Weak-upgrade protocol: snapshot / promotion racing the final strong drop
// ---------------------------------------------------------------------------

/// An `AtomicWeakPtr` holder snapshots and promotes while the main thread
/// drops the *only* strong reference. Across every interleaving: a non-null
/// weak snapshot's payload stays readable (disposal is deferred through the
/// snapshot's dispose-instance protection) even when the object expires
/// mid-snapshot; `try_promote` fails exactly when the strong count already
/// hit zero; and the domain ledger balances after quiescence.
fn weak_upgrade_protocol<S: cdrc::Scheme + Send + Sync>() -> Result<Report, Violation> {
    try_check(cfg(1), || {
        let d: DomainRef<S> = DomainRef::with_config(tight::<S>());
        let t = current_tid();
        {
            let strong = SharedPtr::<u64, S>::new_in(5, &d);
            let wslot = Arc::new(AtomicWeakPtr::new(strong.downgrade()));

            let upgrader = {
                let d = d.clone();
                let wslot = Arc::clone(&wslot);
                mthread::spawn(move || {
                    let t = current_tid();
                    {
                        let cs = d.cs();
                        let snap = wslot.get_snapshot(&cs);
                        if !snap.is_null() {
                            // Readable even if the strong drop already won
                            // the race: the snapshot defers disposal.
                            let v = *snap.as_ref().expect("non-null snapshot must deref");
                            assert_eq!(v, 5, "weak snapshot read a destroyed payload");
                            if let Some(s) = snap.try_promote() {
                                // The promotion owns a fresh strong count,
                                // so the object cannot be expired now.
                                assert!(!snap.expired(), "promoted object reported expired");
                                assert_eq!(*s.as_ref().unwrap(), 5);
                                drop(s);
                            }
                        }
                    }
                    d.process_deferred(t);
                })
            };

            // The final strong drop: the object expires (dispose retires on
            // the dispose channel) while the upgrader may hold a snapshot.
            drop(strong);
            upgrader.join().unwrap();

            let Ok(wslot) = Arc::try_unwrap(wslot) else {
                panic!("upgrader was joined; the Arc must be unique");
            };
            drop(wslot);
        }
        d.process_deferred(t);
        unsafe { d.drain_and_apply_all(t) };
        assert_eq!(
            d.allocated(),
            d.freed(),
            "{}: domain ledger unbalanced after weak-upgrade race",
            S::scheme_name()
        );
    })
}

#[test]
fn ebr_weak_upgrade_protocol_balances() {
    let _s = serial();
    weak_upgrade_protocol::<cdrc::EbrScheme>().expect("weak-upgrade violation under EBR");
}

#[test]
fn ibr_weak_upgrade_protocol_balances() {
    let _s = serial();
    weak_upgrade_protocol::<cdrc::IbrScheme>().expect("weak-upgrade violation under IBR");
}

#[test]
fn hp_weak_upgrade_protocol_balances() {
    let _s = serial();
    weak_upgrade_protocol::<cdrc::HpScheme>().expect("weak-upgrade violation under HP");
}

#[test]
fn hyaline_weak_upgrade_protocol_balances() {
    let _s = serial();
    weak_upgrade_protocol::<cdrc::HyalineScheme>().expect("weak-upgrade violation under Hyaline");
}

// ---------------------------------------------------------------------------
// Tag-RMW protocol: fetch_or_tag racing a CAS, with witness discipline
// ---------------------------------------------------------------------------

/// A marker thread ORs a tag bit into the word while the main thread CASes
/// in a replacement. Across every interleaving: the mark never duplicates
/// (its previous word always carries tag 0 — the CAS only installs untagged
/// words), a failed CAS hands back a witness naming exactly the marked
/// occupant, the witness-seeded retry lands, and `try_set_tag` honours the
/// same witness discipline single-threaded. Ledger balances afterwards.
fn tag_rmw_protocol<S: cdrc::Scheme + Send + Sync>() -> Result<Report, Violation> {
    try_check(cfg(1), || {
        let d: DomainRef<S> = DomainRef::with_config(tight::<S>());
        let t = current_tid();
        {
            let one = SharedPtr::<u64, S>::new_in(1, &d);
            let one_addr = one.addr();
            let slot = Arc::new(AtomicSharedPtr::<u64, S>::new_in(one.clone(), &d));
            let stale = slot.load_tagged();

            let marker = {
                let d = d.clone();
                let slot = Arc::clone(&slot);
                mthread::spawn(move || {
                    let prev = slot.fetch_or_tag(1);
                    assert_eq!(prev.tag(), 0, "mark applied twice");
                    assert_ne!(prev.addr(), 0, "mark landed on an empty location");
                    d.process_deferred(current_tid());
                })
            };

            let two = SharedPtr::new_in(2, &d);
            match slot.compare_exchange(stale, two.clone(), 0) {
                // CAS won the race: the marker tags the *new* occupant.
                Ok(displaced) => drop(displaced),
                // The mark beat us: the witness must carry the same address
                // with the mark bit — nothing else touches the word.
                Err(e) => {
                    let w = e.current;
                    drop(e);
                    assert_eq!(w.addr(), one_addr, "witness names a foreign occupant");
                    assert_eq!(w.tag(), 1, "failed CAS witness lost the observed mark");
                    let displaced = slot
                        .compare_exchange(w, two.clone(), 0)
                        .expect("witness-seeded retry must succeed");
                    drop(displaced);
                }
            }
            marker.join().unwrap();

            // Single-threaded tail: try_set_tag witness discipline.
            let cur = slot.load_tagged();
            let tagged = slot
                .try_set_tag(cur, 2)
                .expect("try_set_tag with a live witness must land");
            assert_eq!(tagged.tag() & 2, 2, "try_set_tag dropped its bit");
            let w = slot
                .try_set_tag(cur, 4)
                .expect_err("try_set_tag with a stale witness must fail");
            assert_eq!(w, tagged, "failure witness must name the current word");

            drop(two);
            drop(one);
            let Ok(slot) = Arc::try_unwrap(slot) else {
                panic!("marker was joined; the Arc must be unique");
            };
            drop(slot);
        }
        d.process_deferred(t);
        unsafe { d.drain_and_apply_all(t) };
        assert_eq!(
            d.allocated(),
            d.freed(),
            "{}: domain ledger unbalanced after tag-RMW race",
            S::scheme_name()
        );
    })
}

#[test]
fn ebr_tag_rmw_protocol_balances() {
    let _s = serial();
    tag_rmw_protocol::<cdrc::EbrScheme>().expect("tag-RMW violation under EBR");
}

#[test]
fn ibr_tag_rmw_protocol_balances() {
    let _s = serial();
    tag_rmw_protocol::<cdrc::IbrScheme>().expect("tag-RMW violation under IBR");
}

#[test]
fn hp_tag_rmw_protocol_balances() {
    let _s = serial();
    tag_rmw_protocol::<cdrc::HpScheme>().expect("tag-RMW violation under HP");
}

#[test]
fn hyaline_tag_rmw_protocol_balances() {
    let _s = serial();
    tag_rmw_protocol::<cdrc::HyalineScheme>().expect("tag-RMW violation under Hyaline");
}

// ---------------------------------------------------------------------------
// Unlink publication litmus: the swap's Release/Acquire halves
// ---------------------------------------------------------------------------

/// Distilled RcWord unlink, publication duties only. The engine's `install`
/// swap carries three duties: Release (publish the new occupant's payload),
/// Acquire (make the displaced occupant readable for its deferred
/// decrement), and SeqCst placement before the retire stamp. This litmus
/// isolates the first two by program-ordering the clock tick inside the
/// installer (a birth epoch), so the SC duty never comes into play: AcqRel
/// passes, and weakening to Relaxed loses the Acquire half — the displaced
/// payload read tears, and the checker finds the schedule. The SC duty is
/// demonstrated separately by `unlink_clock_litmus`, where the clock
/// advances on an *unordered* thread and AcqRel itself breaks.
fn rc_unlink_litmus(swap_order: Ordering) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        let clock = Arc::new(AtomicU64::new(0));
        let ann = Arc::new(AtomicU64::new(NO_ANN));
        let slot = Arc::new(AtomicUsize::new(0));
        let payload = Arc::new(AtomicUsize::new(0));
        let freed = Arc::new(AtomicBool::new(false));

        // Installer models allocate-then-install: tick the clock (the birth
        // epoch), initialize the payload, publish with Release — what
        // `store` does on the way in.
        let installer = {
            let clock = Arc::clone(&clock);
            let slot = Arc::clone(&slot);
            let payload = Arc::clone(&payload);
            mthread::spawn(move || {
                // Ordering: AcqRel — mirrors `GlobalEpoch::advance`.
                clock.fetch_add(1, Ordering::AcqRel);
                payload.store(0xA5, Ordering::Relaxed);
                // Ordering: Release — the publication half of an install.
                slot.store(OBJ_A, Ordering::Release);
            })
        };

        let reader = {
            let clock = Arc::clone(&clock);
            let ann = Arc::clone(&ann);
            let slot = Arc::clone(&slot);
            let payload = Arc::clone(&payload);
            let freed = Arc::clone(&freed);
            mthread::spawn(move || {
                let e = clock.load(Ordering::SeqCst);
                ann.store(e, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                let p = slot.load(Ordering::Acquire);
                if p == OBJ_A {
                    // Publication: an Acquire load that saw the install
                    // must see the payload initialization.
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        0xA5,
                        "reader saw an uninitialized payload"
                    );
                    mthread::yield_now();
                    let gone = exempt(|| freed.load(Ordering::Relaxed));
                    assert!(!gone, "object freed while an announcement protected it");
                }
                ann.store(NO_ANN, Ordering::Release);
            })
        };

        // Writer (main): the engine's install — swap-unlink at `swap_order`,
        // read the displaced payload (the deferred decrement reads the
        // displaced header), stamp the retire SeqCst, scan the announcement.
        let old = slot.swap(0, swap_order);
        if old == OBJ_A {
            assert_eq!(
                payload.load(Ordering::Relaxed),
                0xA5,
                "displaced payload torn: the swap lost its Acquire half"
            );
            let stamp = clock.load(Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let a = ann.load(Ordering::Relaxed);
            if a == NO_ANN || stamp < a {
                exempt(|| freed.store(true, Ordering::Relaxed));
            }
        }
        installer.join().unwrap();
        reader.join().unwrap();
    })
}

/// With the clock tick ordered before publication, AcqRel covers both
/// publication duties in every interleaving — isolating exactly what the
/// Release and Acquire halves of the unlink buy.
#[test]
fn rc_unlink_acqrel_swap_covers_publication() {
    let _s = serial();
    let report = rc_unlink_litmus(Ordering::AcqRel)
        .expect("AcqRel must cover the unlink swap's publication duties");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

/// Dropping to Relaxed loses the Acquire half and the displaced occupant's
/// payload read tears — the checker finds the interleaving. Together with
/// `unlink_acqrel_swap_is_unsound` this brackets the engine's unlink at
/// SeqCst: Relaxed tears the displaced read, AcqRel breaks the eject rule.
#[test]
fn rc_unlink_relaxed_swap_is_unsound() {
    let _s = serial();
    let v = rc_unlink_litmus(Ordering::Relaxed)
        .expect_err("Relaxed unlink swap must be caught by the checker");
    assert!(
        v.message.contains("displaced payload torn")
            || v.message
                .contains("freed while an announcement protected it"),
        "unexpected violation: {v}"
    );
}

// ---------------------------------------------------------------------------
// Unlink-clock litmus: why the engine's unlink stays SeqCst — plus the
// announcement-exit handshake
// ---------------------------------------------------------------------------

/// The full eject handshake with the clock advanced by an *unordered*
/// thread — the realistic shape, since any allocating thread may tick the
/// epoch. The eject rule ("free when the announcement is absent or newer
/// than the retire stamp") is sound only through the SC chain
/// unlink ≤ stamp ≤ reader's clock read ≤ reader's fence: a reader that
/// announces a newer-than-stamp epoch is thereby forced to observe the
/// unlink, so it can never hold the retired pointer. A SeqCst unlink swap
/// closes the chain; an AcqRel swap drops out of the SC order and the
/// checker finds the schedule where the reader announces a fresh epoch,
/// still loads the *stale* pointer, and the scan under-stamps and frees it.
/// This is the litmus that keeps `RcWord::install`/`cex` at SeqCst.
///
/// The reader side doubles as the announcement-exit handshake: its exit is
/// the single `Release` store EBR uses, and the writer may only clobber
/// ("free") the payload after its scan observes the exit or a covered
/// announcement. The exit's Release *floor* (protected reads must not sink
/// below the un-announcement) is a compiler-reordering concern the
/// operational checker cannot exhibit — it never reorders a thread's own
/// accesses — so that boundary is documented here rather than demonstrated.
fn unlink_clock_litmus(swap_order: Ordering) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        let clock = Arc::new(AtomicU64::new(0));
        let ann = Arc::new(AtomicU64::new(NO_ANN));
        let slot = Arc::new(AtomicUsize::new(OBJ_A));
        let payload = Arc::new(AtomicUsize::new(0xA5));

        let advancer = {
            let clock = Arc::clone(&clock);
            // Ordering: AcqRel — mirrors `GlobalEpoch::advance`.
            mthread::spawn(move || {
                clock.fetch_add(1, Ordering::AcqRel);
            })
        };

        let reader = {
            let clock = Arc::clone(&clock);
            let ann = Arc::clone(&ann);
            let slot = Arc::clone(&slot);
            let payload = Arc::clone(&payload);
            mthread::spawn(move || {
                let e = clock.load(Ordering::SeqCst);
                ann.store(e, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                let p = slot.load(Ordering::Acquire);
                if p == OBJ_A {
                    mthread::yield_now();
                    // Protected read: must precede the exit and must never
                    // see the writer's post-exit clobber.
                    let v = payload.load(Ordering::Relaxed);
                    assert_eq!(v, 0xA5, "payload clobbered under a live announcement");
                }
                // The section exit under test: one Release store.
                // Ordering: Release — orders every protected read above
                // before the un-announcement a scan may act on.
                ann.store(NO_ANN, Ordering::Release);
            })
        };

        // Writer: unlink, stamp, scan; "free" by clobbering the payload.
        let old = slot.swap(0, swap_order);
        assert_eq!(old, OBJ_A);
        let stamp = clock.load(Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let a = ann.load(Ordering::Relaxed);
        if a == NO_ANN || stamp < a {
            payload.store(0xDEAD, Ordering::Relaxed);
        }
        advancer.join().unwrap();
        reader.join().unwrap();
    })
}

/// The handshake the engine actually runs: a SeqCst unlink keeps every
/// schedule sound, announcement exits included.
#[test]
fn unlink_seqcst_swap_is_sound() {
    let _s = serial();
    let report = unlink_clock_litmus(Ordering::SeqCst)
        .expect("the SeqCst-unlink eject handshake must be sound in every schedule");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

/// The tempting relaxation, refuted: an AcqRel unlink leaves the SC order,
/// so a freshly-announced reader can still load the stale pointer while the
/// under-stamped scan frees it. This is why `RcWord::install` and the CAS
/// success ordering stay SeqCst.
#[test]
fn unlink_acqrel_swap_is_unsound() {
    let _s = serial();
    let v = unlink_clock_litmus(Ordering::AcqRel)
        .expect_err("an AcqRel unlink must be caught breaking the eject rule");
    assert!(
        v.message
            .contains("payload clobbered under a live announcement"),
        "unexpected violation: {v}"
    );
}

// ---------------------------------------------------------------------------
// IBR scan-read litmus: the scan's fence + ordered interval-pair reads
// ---------------------------------------------------------------------------

const IBR_EMPTY: u64 = u64::MAX;

/// Distilled IBR scan against a reader announcing `[2, 2]` and reading the
/// slot on the stable-epoch fast path. The scan side models `Ibr::scan`
/// exactly: SeqCst fence, `begin` loaded Acquire *before* `end` loaded
/// Relaxed, and the `hi.max(lo)` tear fix-up. Sound with the fence: if the
/// scan misses the announcement, it fenced first, so the reader's
/// post-announce load observes the unlink and holds nothing. The boundary
/// case omits the scan-head fence — the scan can then miss a live
/// announcement *while* the reader reads the retired object, and the
/// checker finds the schedule (this is the pairing `Ibr::scan`'s fence
/// comment describes).
fn ibr_scan_read_litmus(with_fence: bool) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        let begin = Arc::new(AtomicU64::new(IBR_EMPTY));
        let end = Arc::new(AtomicU64::new(IBR_EMPTY));
        let slot = Arc::new(AtomicUsize::new(OBJ_A)); // born at epoch 2
        let freed = Arc::new(AtomicBool::new(false));

        let reader = {
            let begin = Arc::clone(&begin);
            let end = Arc::clone(&end);
            let slot = Arc::clone(&slot);
            let freed = Arc::clone(&freed);
            mthread::spawn(move || {
                // Section entry at epoch 2: `begin` first, then `end`, then
                // the announcement fence (the `announce_u64` idiom).
                begin.store(2, Ordering::Relaxed);
                end.store(2, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                // Stable-epoch fast path: one post-fence load, no extension.
                let p = slot.load(Ordering::Acquire);
                if p == OBJ_A {
                    mthread::yield_now();
                    let gone = exempt(|| freed.load(Ordering::Relaxed));
                    assert!(
                        !gone,
                        "IBR scan freed an object covered by the announced interval"
                    );
                }
                // Section exit: `begin` first (a torn scan read sees either
                // [EMPTY, ..] or the old conservative pair).
                begin.store(IBR_EMPTY, Ordering::Release);
                end.store(IBR_EMPTY, Ordering::Release);
            })
        };

        // Scanner (main): unlink OBJ_A (lifetime [2, 2]) and scan.
        let old = slot.swap(0, Ordering::AcqRel);
        assert_eq!(old, OBJ_A);
        if with_fence {
            fence(Ordering::SeqCst);
        }
        // Ordering discipline under test: `begin` (Acquire) pins the read
        // order; a stale `end` pairs with an older-or-equal `begin`, and
        // `hi.max(lo)` turns entry tears into supersets.
        let lo = begin.load(Ordering::Acquire);
        let hi = end.load(Ordering::Relaxed);
        let covered = lo != IBR_EMPTY && {
            let hi = hi.max(lo);
            lo <= 2 && 2 <= hi
        };
        if !covered {
            exempt(|| freed.store(true, Ordering::Relaxed));
        }
        reader.join().unwrap();
    })
}

#[test]
fn ibr_scan_read_handshake_is_sound() {
    let _s = serial();
    let report = ibr_scan_read_litmus(true)
        .expect("the fenced scan-read protocol must be sound in every schedule");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

#[test]
fn ibr_scan_without_fence_is_caught() {
    let _s = serial();
    let v = ibr_scan_read_litmus(false)
        .expect_err("an unfenced scan must be caught missing a live announcement");
    assert!(
        v.message.contains("covered by the announced interval"),
        "unexpected violation: {v}"
    );
}

// ---------------------------------------------------------------------------
// Sticky-decrement litmus: licenses the counters' Release decrement
// ---------------------------------------------------------------------------

/// Distilled reference-count drop — the relaxation `StickyCounter` and
/// `CasCounter` run on (Relaxed increments, Release decrements, Acquire
/// fence on the zero transition, as in `Arc`). Two owners share a count of
/// 2; the spawned owner writes the payload before releasing its reference.
/// Whichever decrement zeroes the count fences and "disposes" by asserting
/// the payload: the zero observer read the other owner's decrement through
/// the counter's RMW chain, so with a Release decrement the fence makes
/// that owner's prior write visible in every schedule. With a Relaxed
/// decrement the release edge is gone and the checker finds the schedule
/// where the disposer reads the payload stale — destroying an object while
/// missing another owner's writes to it.
fn sticky_decrement_litmus(decr_order: Ordering) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        // One 32-bit word, as the counters store it.
        let count = Arc::new(AtomicU32::new(2));
        let payload = Arc::new(AtomicUsize::new(0));

        let owner = {
            let count = Arc::clone(&count);
            let payload = Arc::clone(&payload);
            mthread::spawn(move || {
                // This owner's last use of the object...
                payload.store(0xA5, Ordering::Relaxed);
                // ...then its reference drop.
                if count.fetch_sub(1, decr_order) == 1 {
                    fence(Ordering::Acquire);
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        0xA5,
                        "disposer missed an owner's pre-release write"
                    );
                }
            })
        };

        // Main owner never writes; if its decrement zeroes the count, the
        // other owner's write and decrement already happened.
        if count.fetch_sub(1, decr_order) == 1 {
            fence(Ordering::Acquire);
            assert_eq!(
                payload.load(Ordering::Relaxed),
                0xA5,
                "disposer missed an owner's pre-release write"
            );
        }
        owner.join().unwrap();
    })
}

/// The relaxation the checker licenses: Release decrements with an Acquire
/// fence on the zero path keep disposal sound in every schedule — the
/// counters do not need the paper's blanket SeqCst.
#[test]
fn sticky_release_decrement_is_sound() {
    let _s = serial();
    let report = sticky_decrement_litmus(Ordering::Release)
        .expect("Release decrement + Acquire fence must be sound in every schedule");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

/// The boundary: a Relaxed decrement drops the release edge and the
/// disposer can read the dying object stale. This is why `decrement` sits
/// at Release, not lower.
#[test]
fn sticky_relaxed_decrement_is_unsound() {
    let _s = serial();
    let v = sticky_decrement_litmus(Ordering::Relaxed)
        .expect_err("a Relaxed decrement must be caught by the checker");
    assert!(
        v.message
            .contains("disposer missed an owner's pre-release write"),
        "unexpected violation: {v}"
    );
}

/// The 32-bit `StickyCounter` itself, every path of Fig. 7 in one race:
/// two owners drop their references while a third thread loads (and may
/// help a transient zero with the help flag) and tries an upgrade it
/// drops again at once. In every schedule exactly one decrement reports
/// the zero, the counter reads zero afterwards, and an upgrade after the
/// zero fails.
fn sticky_counter_race() -> Result<Report, Violation> {
    try_check(cfg(2), || {
        let c = Arc::new(sticky::StickyCounter::new(2));
        let zeros = Arc::new(AtomicUsize::new(0));
        let zeroed = |c: &sticky::StickyCounter, zeros: &AtomicUsize| {
            if c.decrement() {
                // Ordering: exempt test bookkeeping.
                exempt(|| zeros.fetch_add(1, Ordering::Relaxed));
            }
        };
        let owner = {
            let (c, zeros) = (Arc::clone(&c), Arc::clone(&zeros));
            mthread::spawn(move || zeroed(&c, &zeros))
        };
        let reader = {
            let (c, zeros) = (Arc::clone(&c), Arc::clone(&zeros));
            mthread::spawn(move || {
                let _ = c.load();
                if c.increment_if_not_zero() {
                    zeroed(&c, &zeros);
                }
            })
        };
        zeroed(&c, &zeros);
        owner.join().unwrap();
        reader.join().unwrap();
        assert_eq!(
            exempt(|| zeros.load(Ordering::Relaxed)),
            1,
            "not exactly one decrement took the count to zero"
        );
        assert_eq!(c.load(), 0, "a drained counter reads nonzero");
        assert!(!c.increment_if_not_zero(), "an upgrade revived a zero");
    })
}

#[test]
fn sticky_counter_32_bit_has_one_zero() {
    let _s = serial();
    let report = sticky_counter_race().expect("the 32-bit sticky counter lost or doubled its zero");
    assert!(report.iterations > 1, "explored only one schedule");
}

// ---------------------------------------------------------------------------
// The domain liveness word: pin, sole-pin release, DEAD
// ---------------------------------------------------------------------------

const PIN: u64 = 1;
const PIN_MASK: u64 = (1 << 32) - 1;
const STAMP: u64 = 1 << 32;
const DEAD: u64 = u64::MAX;

/// `cdrc::Domain::{pin, release, live, free_block}` distilled to the word
/// and the lanes, operation for operation and ordering for ordering (see
/// "Domain lifetime: the pin rule" in `crates/core/src/domain.rs`). Domain
/// code is a `touch`, which asserts the core has not been freed; freeing
/// the core bumps an exempt counter the scenarios check afterwards.
/// `stamped: false` seeds the bug the acquisition stamp exists to prevent.
struct PinModel {
    word: AtomicU64,
    allocs: AtomicU64,
    /// One `frees` lane per block-dropping thread (single writer each).
    frees: [AtomicU64; 2],
    stamped: bool,
    core_frees: AtomicUsize,
    sole_checkers: AtomicUsize,
}

impl PinModel {
    fn new(pins: u64, blocks: u64, stamped: bool) -> Arc<Self> {
        Arc::new(PinModel {
            word: AtomicU64::new(pins * PIN),
            allocs: AtomicU64::new(blocks),
            frees: [AtomicU64::new(0), AtomicU64::new(0)],
            stamped,
            core_frees: AtomicUsize::new(0),
            sole_checkers: AtomicUsize::new(0),
        })
    }

    /// Any use of the core: domain code, a lane, the word itself.
    fn touch(&self) {
        let gone = exempt(|| self.core_frees.load(Ordering::Relaxed));
        assert_eq!(gone, 0, "core touched after it was freed");
    }

    fn core_frees(&self) -> usize {
        exempt(|| self.core_frees.load(Ordering::Relaxed))
    }

    fn pin(&self) {
        self.touch();
        let unit = if self.stamped { PIN + STAMP } else { PIN };
        // Ordering: Relaxed — mirrors `Domain::pin`.
        self.word.fetch_add(unit, Ordering::Relaxed);
    }

    fn live(&self) -> u64 {
        // Ordering: Acquire on the subtrahend lanes, read first; Relaxed on
        // the addend — mirrors `Domain::live`.
        let freed: u64 = self.frees.iter().map(|l| l.load(Ordering::Acquire)).sum();
        self.allocs.load(Ordering::Relaxed) - freed
    }

    /// Frees one block on `lane`; the caller holds a pin.
    fn free_block(&self, lane: usize) {
        self.touch();
        let l = &self.frees[lane];
        // Ordering: Relaxed load + Release store — single-writer lane.
        l.store(l.load(Ordering::Relaxed) + 1, Ordering::Release);
    }

    fn release(&self) {
        let (mut flushed, mut checked) = (false, false);
        loop {
            self.touch();
            // Ordering: Acquire — mirrors the load in `Domain::release`.
            let w = self.word.load(Ordering::Acquire);
            assert!(w != DEAD && w & PIN_MASK != 0, "release without a pin");
            if w & PIN_MASK > 1 {
                // Ordering: Release / Relaxed — mirrors the decrement CAS.
                if self
                    .word
                    .compare_exchange_weak(w, w - PIN, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            if !checked {
                checked = true;
                exempt(|| self.sole_checkers.fetch_add(1, Ordering::Relaxed));
            }
            if self.live() == 0 {
                // Ordering: AcqRel / Relaxed — mirrors the DEAD CAS.
                if self
                    .word
                    .compare_exchange(w, DEAD, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    exempt(|| self.core_frees.fetch_add(1, Ordering::Relaxed));
                    return;
                }
                continue;
            }
            if !flushed {
                // The orphan flush: domain code under a nested thread pin.
                flushed = true;
                self.pin();
                self.touch();
                self.release();
                continue;
            }
            // Ordering: Release / Relaxed — mirrors the orphaning CAS.
            if self
                .word
                .compare_exchange(w, w - PIN, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// A handle-free drop of the last reference to a block: re-pin from
    /// the (live) block, free it, release.
    fn drop_block(&self, lane: usize) {
        self.pin();
        self.free_block(lane);
        self.release();
    }
}

/// (a) The last handle's drop races another thread's header-resolved drop
/// of the last block. Whoever ends up sole with `live == 0` frees the core:
/// exactly once, and nothing touches it afterwards.
#[test]
fn pin_word_last_handle_vs_last_block_frees_core_once() {
    let _s = serial();
    let report = try_check(cfg(2), || {
        let m = PinModel::new(1, 1, true);
        let dropper = {
            let m = Arc::clone(&m);
            mthread::spawn(move || m.drop_block(0))
        };
        m.release();
        dropper.join().unwrap();
        assert_eq!(m.core_frees(), 1, "core freed {} times", m.core_frees());
    })
    .expect("handle drop ∥ last-block drop must free the core exactly once");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

/// (b) Two releases race at count 2: the decrement is a CAS, so exactly one
/// of them stays to find itself sole and perform the check — tearing the
/// core down when nothing is left, orphaning it (count 0, not DEAD) when a
/// block is.
#[test]
fn pin_word_two_releases_one_sole_check() {
    let _s = serial();
    for blocks in [0, 1] {
        let report = try_check(cfg(2), move || {
            let m = PinModel::new(2, blocks, true);
            let other = {
                let m = Arc::clone(&m);
                mthread::spawn(move || m.release())
            };
            m.release();
            other.join().unwrap();
            let checkers = exempt(|| m.sole_checkers.load(Ordering::Relaxed));
            assert_eq!(
                checkers, 1,
                "{checkers} releases performed the sole-pin check"
            );
            if blocks == 0 {
                assert_eq!(m.core_frees(), 1, "nothing left: the core must be freed");
            } else {
                assert_eq!(m.core_frees(), 0, "a live block keeps the core");
                let w = m.word.load(Ordering::SeqCst);
                assert_eq!(w & PIN_MASK, 0, "orphaned core must sit at count 0");
            }
        })
        .expect("two racing releases must elect exactly one sole-pin checker");
        assert!(report.iterations > 1, "litmus explored only one schedule");
    }
}

/// (c) A sole-pin release folds `live > 0`, and before its CAS two other
/// threads each re-pin from a live block, free it and release — the count
/// is back where the fold saw it, `live` is not. The CAS expects the whole
/// word, stamp included, so it fails and the releaser re-folds; without the
/// stamp it would walk away from a core nobody will ever free.
fn pin_word_repin_vs_stale_fold(stamped: bool) -> Result<Report, Violation> {
    try_check(cfg(2), move || {
        let m = PinModel::new(1, 2, stamped);
        let droppers: Vec<_> = (0..2)
            .map(|lane| {
                let m = Arc::clone(&m);
                mthread::spawn(move || m.drop_block(lane))
            })
            .collect();
        m.release();
        for d in droppers {
            d.join().unwrap();
        }
        assert_eq!(m.core_frees(), 1, "core freed {} times", m.core_frees());
    })
}

#[test]
fn pin_word_stamp_fails_the_stale_sole_pin_cas() {
    let _s = serial();
    let report = pin_word_repin_vs_stale_fold(true)
        .expect("with the stamp, a stale sole-pin CAS must fail in every schedule");
    assert!(report.iterations > 1, "litmus explored only one schedule");
}

/// The seeded negative: pins that do not move a stamp let the stale CAS
/// land, and the core leaks. This is why a pin is `PIN + STAMP`.
#[test]
fn pin_word_without_stamp_is_unsound() {
    let _s = serial();
    let v = pin_word_repin_vs_stale_fold(false)
        .expect_err("an unstamped pin word must be caught leaking the core");
    assert!(
        v.message.contains("core freed 0 times"),
        "unexpected violation: {v}"
    );
}

/// The same race as (a) through the real stack: the last `DomainRef` drops
/// while another thread drops the last `SharedPtr` (a graph leaf, so the
/// block is destructed and freed inside that drop). Either release may be
/// the one that tears the domain down; the payload is dropped exactly once
/// in every schedule and nothing runs on the freed core (a double free or a
/// stale pin would abort the process).
#[test]
fn domain_last_handle_vs_last_pointer_tears_down_once() {
    struct Leaf(Arc<AtomicUsize>);
    impl Drop for Leaf {
        fn drop(&mut self) {
            exempt(|| self.0.fetch_add(1, Ordering::Relaxed));
        }
    }
    impl cdrc::GraphNode<cdrc::EbrScheme> for Leaf {
        fn pop_edges(&mut self, _: &mut cdrc::EdgeCollector<'_, cdrc::EbrScheme>) {}
    }
    let _s = serial();
    let report = try_check(cfg(2), || {
        let drops = Arc::new(AtomicUsize::new(0));
        let d: DomainRef<cdrc::EbrScheme> = DomainRef::with_config(tight::<Ebr>());
        let p = SharedPtr::new_graph_in(Leaf(Arc::clone(&drops)), &d);
        let dropper = mthread::spawn(move || drop(p));
        drop(d);
        dropper.join().unwrap();
        let n = exempt(|| drops.load(Ordering::Relaxed));
        assert_eq!(n, 1, "payload dropped {n} times");
    })
    .expect("last handle ∥ last pointer must tear the domain down exactly once");
    assert!(report.iterations > 1, "explored only one schedule");
}

// ---------------------------------------------------------------------------
// The weak queue's cleared `prev`: Fig. 10 with an old tail dropping its
// `prev` (`lockfree::rc::dlqueue` module docs)
// ---------------------------------------------------------------------------

/// Two enqueuers on a one-element `RcDoubleLinkQueue`, one of which then
/// dequeues while the other may still be mid-enqueue. In the schedules
/// where one enqueuer loads the tail and the other then completes, the
/// first reads that old tail's `prev` after the winner cleared it, finds
/// nothing to help, and retries from the witness. Across every
/// interleaving: the seeded element comes out first, the dequeue after the
/// dequeuer's own enqueue returned is not empty, the rest drains as the two
/// new elements, and the domain balances once the queue is dropped and the
/// threads' lists are drained.
///
/// Two threads and preemption bound 1: a third thread (a separate
/// dequeuer) made the checker report the scenario nondeterministic on
/// replay, and bound 2 runs for more than ten minutes. The yield after the
/// spawn keeps the interleaving that needs the helping step (the enqueuer
/// suspended between its tail CAS and its `next` store) within bound 1.
fn queue_cleared_prev<S: cdrc::Scheme + Send + Sync>() -> Result<Report, Violation> {
    try_check(cfg(1), || {
        let d: DomainRef<S> = DomainRef::with_config(S::default_config());
        let t = current_tid();
        {
            let q = Arc::new(RcDoubleLinkQueue::<u64, S>::new_in(d.clone()));
            q.enqueue(1);
            let enqueuer = {
                let (q, d) = (Arc::clone(&q), d.clone());
                mthread::spawn(move || {
                    q.enqueue(2);
                    d.process_deferred(current_tid());
                })
            };
            // A free schedule point: the enqueuer may start first, so one
            // preemption can suspend it between its tail CAS and its `next`
            // store while this thread enqueues and dequeues.
            mthread::yield_now();
            q.enqueue(3);
            assert_eq!(
                q.dequeue(),
                Some(1),
                "the seeded element must come out first"
            );
            let second = q.dequeue();
            assert!(
                second.is_some(),
                "{}: empty after this thread's own enqueue returned",
                S::scheme_name()
            );
            enqueuer.join().unwrap();
            let mut rest: Vec<u64> = second.into_iter().collect();
            rest.extend(std::iter::from_fn(|| q.dequeue()));
            rest.sort_unstable();
            assert_eq!(rest, [2, 3], "{}: lost or duplicated", S::scheme_name());
        }
        // The enqueuer may exit while the dequeuer is mid-section, which
        // strands its retired lists on its slot; nobody else is left to use
        // the domain, so drain them.
        d.process_deferred(t);
        unsafe { d.drain_and_apply_all(t) };
        assert_eq!(
            d.allocated(),
            d.freed(),
            "{}: domain ledger unbalanced after the queue's drop",
            S::scheme_name()
        );
    })
}

#[test]
fn ebr_queue_cleared_prev_is_linearizable_and_balances() {
    let _s = serial();
    queue_cleared_prev::<cdrc::EbrScheme>().expect("weak queue violation under EBR");
}

#[test]
fn hp_queue_cleared_prev_is_linearizable_and_balances() {
    let _s = serial();
    queue_cleared_prev::<cdrc::HpScheme>().expect("weak queue violation under HP");
}

// ---------------------------------------------------------------------------
// The Harris-Michael list on one edge, under each family: insert ∥ remove,
// where an RC link moves the edge's reference to the node it inserts before
// (`cdrc::engine`, "Linking"), and remove ∥ remove, where the loser helps
// the winner's unlink. Both families run the one list of
// `crates/lockfree/src/list.rs`, so these check it under each family's
// hooks.
// ---------------------------------------------------------------------------

/// Keys alive in the running scenario: every node's, and every lookup's
/// while it runs. Zero once a list is dropped means every node was
/// reclaimed, and none twice.
static LIVE_KEYS: AtomicUsize = AtomicUsize::new(0);

/// A list key that poisons itself when its node is disposed and refuses to
/// be compared once poisoned, so a search that reads a reclaimed node
/// fails the scenario. Made by [`key`], which counts it in [`LIVE_KEYS`].
#[derive(PartialEq, Eq)]
struct ListKey(u64);

const POISONED: u64 = u64::MAX;

fn key(k: u64) -> ListKey {
    exempt(|| LIVE_KEYS.fetch_add(1, Ordering::Relaxed));
    ListKey(k)
}

impl Ord for ListKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        assert!(
            self.0 != POISONED && other.0 != POISONED,
            "a search read a disposed node"
        );
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for ListKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Drop for ListKey {
    fn drop(&mut self) {
        // Volatile: a store right before the block is freed is otherwise
        // dead to the optimizer.
        // Safety: `self.0` is a live, aligned `u64` this key owns.
        unsafe { std::ptr::write_volatile(&mut self.0, POISONED) };
        exempt(|| LIVE_KEYS.fetch_sub(1, Ordering::Relaxed));
    }
}

/// A list scenario's list, built fresh each iteration, and the check to run
/// once it is dropped.
type Built<M> = (M, Box<dyn FnOnce()>);

/// The RC list on its own domain, which must balance once the list is
/// dropped and the threads' lists are drained.
fn rc_list<S: cdrc::Scheme + Send + Sync>() -> Built<RcHarrisMichaelList<ListKey, u64, S>> {
    let d: DomainRef<S> = DomainRef::with_config(tight::<S>());
    let list = RcHarrisMichaelList::new_in(d.clone());
    let t = current_tid();
    let balances = move || {
        d.process_deferred(t);
        unsafe { d.drain_and_apply_all(t) };
        assert_eq!(
            d.allocated(),
            d.freed(),
            "{}: domain ledger unbalanced after the list's drop",
            S::scheme_name()
        );
    };
    (list, Box::new(balances))
}

/// The manual list on its own scheme instance. Its teardown frees what is
/// linked and drains what was retired, the dead thread's entries included,
/// so [`LIVE_KEYS`] is the balance.
fn manual_list<S: AcquireRetire>() -> Built<HarrisMichaelList<ListKey, u64, S>> {
    (
        HarrisMichaelList::with_config(tight::<S>()),
        Box::new(|| {}),
    )
}

/// Runs `body` on a fresh list each iteration, then drops the list, runs
/// its family's balance check and checks that every key came back.
fn list_scenario<M: ConcurrentMap<ListKey, u64> + 'static>(
    build: fn() -> Built<M>,
    body: fn(Arc<M>),
) -> Result<Report, Violation> {
    try_check(cfg(1), move || {
        exempt(|| LIVE_KEYS.store(0, Ordering::Relaxed));
        let (list, balances) = build();
        body(Arc::new(list));
        balances();
        let live = exempt(|| LIVE_KEYS.load(Ordering::Relaxed));
        assert_eq!(
            live, 0,
            "{live} keys outlived the list: a node was not reclaimed"
        );
    })
}

/// Ends a spawned scenario thread in-model: its slot is handed to the
/// joiner, which reclaims it. Left to the thread's exit, the hand-off would
/// run outside the checker.
fn leave() -> smr::Tid {
    smr::abandon_current_slot()
}

fn reap(dead: smr::Tid) {
    // Safety: the thread has terminated (joined) and touches no SMR state
    // after abandoning its slot.
    assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
}

/// One thread links a fresh node (key 1) before X (key 2) on the head edge
/// while another removes X from that same edge: the inserter's link may
/// move the edge's reference to X into the new node just before the
/// remover marks X and unlinks it from the new node's edge, or the unlink
/// may come first and the link fail on the witness. Across every
/// interleaving both operations succeed, the list ends holding 1 and not
/// 2, no search compares a disposed key, and every node is reclaimed once.
fn link_vs_remove<M: ConcurrentMap<ListKey, u64> + 'static>(list: Arc<M>) {
    assert!(list.insert(key(2), 20));
    let inserter = {
        let list = Arc::clone(&list);
        mthread::spawn(move || {
            assert!(list.insert(key(1), 10), "1 was absent");
            leave()
        })
    };
    assert!(list.remove(&key(2)), "X was there to remove");
    reap(inserter.join().unwrap());
    assert_eq!(list.get(&key(1)), Some(10));
    assert_eq!(list.get(&key(2)), None);
}

/// Two threads remove X (key 2, before key 3) from the head edge. One marks
/// X first; the other finds it marked, helps unlink it, and reports it
/// absent. Across every interleaving exactly one removal succeeds, X is
/// unlinked (and retired) once, and every node is reclaimed once.
fn remove_vs_remove<M: ConcurrentMap<ListKey, u64> + 'static>(list: Arc<M>) {
    assert!(list.insert(key(3), 30) && list.insert(key(2), 20));
    let other = {
        let list = Arc::clone(&list);
        mthread::spawn(move || (list.remove(&key(2)), leave()))
    };
    let mine = list.remove(&key(2));
    let (theirs, dead) = other.join().unwrap();
    reap(dead);
    assert!(mine != theirs, "removals succeeded: {mine} and {theirs}");
    assert_eq!(list.get(&key(2)), None);
    assert_eq!(list.get(&key(3)), Some(30));
}

macro_rules! list_scenarios {
    ($($name:ident: $build:expr, $body:ident;)*) => {$(
        #[test]
        fn $name() {
            let _s = serial();
            let report = list_scenario($build, $body).expect(stringify!($name));
            assert!(report.iterations > 1, "explored only one schedule");
        }
    )*};
}

list_scenarios! {
    ebr_list_link_vs_remove_balances: rc_list::<cdrc::EbrScheme>, link_vs_remove;
    hp_list_link_vs_remove_balances: rc_list::<cdrc::HpScheme>, link_vs_remove;
    manual_ebr_list_link_vs_remove_balances: manual_list::<Ebr>, link_vs_remove;
    manual_hp_list_link_vs_remove_balances: manual_list::<Hp>, link_vs_remove;
    ebr_list_remove_vs_remove_balances: rc_list::<cdrc::EbrScheme>, remove_vs_remove;
    hp_list_remove_vs_remove_balances: rc_list::<cdrc::HpScheme>, remove_vs_remove;
    manual_ebr_list_remove_vs_remove_balances: manual_list::<Ebr>, remove_vs_remove;
    manual_hp_list_remove_vs_remove_balances: manual_list::<Hp>, remove_vs_remove;
}

// ---------------------------------------------------------------------------
// Hazard snapshots: the double collect, and destructing past a snapshot
// (`cdrc::engine::Rights`)
// ---------------------------------------------------------------------------

/// Tuning for the snapshot scenarios: under HP, three words per slot so a
/// collect stays short. The scans stay amortized: every snapshot and scan
/// reads every slot, and `process_deferred` flushes what the scenarios
/// need.
fn tight_hp<S: AcquireRetire>() -> SmrConfig {
    SmrConfig {
        hp_slots: 2,
        ..S::default_config()
    }
}

/// Takes one snapshot of `hp` and, if it caught an instant, checks it
/// names A or B: the reader it races holds one of them at every moment.
fn snapshot_names_a_or_b(hp: &Hp) {
    let mut held = Vec::new();
    if hp.hazard_snapshot(&mut held) {
        assert!(
            held.contains(&OBJ_A) || held.contains(&OBJ_B),
            "a snapshot missed a reader that held A or B throughout: {held:?}"
        );
    }
}

/// A hand-over-hand reader: it holds A in word 1, publishes B
/// in word 0 (which a collect may already have read) and clears word 1
/// (which it may not have read yet). One read of each word would see
/// nothing; the double collect must see the version move and go round
/// again, or give up.
fn hp_snapshot_vs_hand_over_hand() -> Result<Report, Violation> {
    try_check(cfg(2), || {
        let hp = Arc::new(Hp::new(Arc::new(GlobalEpoch::new()), tight_hp::<Hp>()));
        let t = current_tid();
        let (none, a, b) = (
            AtomicUsize::new(0),
            AtomicUsize::new(OBJ_A),
            AtomicUsize::new(OBJ_B),
        );
        // Word 0 is taken first so that A lands in word 1.
        let (_, g0) = hp.try_acquire(t, &none).unwrap();
        let (_, ga) = hp.try_acquire(t, &a).unwrap();
        hp.release(t, g0);
        let taker = {
            let hp = Arc::clone(&hp);
            mthread::spawn(move || snapshot_names_a_or_b(&hp))
        };
        let (_, gb) = hp.try_acquire(t, &b).unwrap();
        hp.release(t, ga);
        taker.join().unwrap();
        hp.release(t, gb);
    })
}

#[test]
fn hp_snapshot_catches_a_hand_over_hand_reader() {
    let _s = serial();
    let report =
        hp_snapshot_vs_hand_over_hand().expect("a hazard snapshot missed a hand-over-hand reader");
    assert!(report.iterations > 1, "explored only one schedule");
}

/// ABA on one hazard word: word 0 holds A, is cleared while B covers the
/// reader in word 1, and holds A again before word 1 is cleared. Word 0
/// reads A both before and after; only the version says it changed.
fn hp_snapshot_vs_aba() -> Result<Report, Violation> {
    try_check(cfg(2), || {
        let hp = Arc::new(Hp::new(Arc::new(GlobalEpoch::new()), tight_hp::<Hp>()));
        let t = current_tid();
        let (a, b) = (AtomicUsize::new(OBJ_A), AtomicUsize::new(OBJ_B));
        let (_, ga) = hp.try_acquire(t, &a).unwrap();
        let taker = {
            let hp = Arc::clone(&hp);
            mthread::spawn(move || snapshot_names_a_or_b(&hp))
        };
        let (_, gb) = hp.try_acquire(t, &b).unwrap();
        hp.release(t, ga);
        let (_, ga) = hp.try_acquire(t, &a).unwrap();
        hp.release(t, gb);
        taker.join().unwrap();
        hp.release(t, ga);
    })
}

#[test]
fn hp_snapshot_sees_aba_on_one_word() {
    let _s = serial();
    let report = hp_snapshot_vs_aba().expect("a hazard snapshot was fooled by ABA");
    assert!(report.iterations > 1, "explored only one schedule");
}

/// A payload that flags its own drop, so a reader can tell "disposed while
/// I held it" from the outside, without reading freed memory.
struct Flagged<S: cdrc::Scheme> {
    next: AtomicSharedPtr<Flagged<S>, S>,
    dropped: Arc<AtomicBool>,
}

impl<S: cdrc::Scheme> Drop for Flagged<S> {
    fn drop(&mut self) {
        exempt(|| self.dropped.store(true, Ordering::Relaxed));
    }
}

impl<S: cdrc::Scheme> cdrc::GraphNode<S> for Flagged<S> {
    fn pop_edges(&mut self, out: &mut cdrc::EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
    }
}

/// A fresh `Flagged` node over `next`, and its drop flag.
fn flagged<S: cdrc::Scheme>(
    d: &DomainRef<S>,
    next: SharedPtr<Flagged<S>, S>,
) -> (SharedPtr<Flagged<S>, S>, Arc<AtomicBool>) {
    let dropped = Arc::new(AtomicBool::new(false));
    let node = Flagged {
        next: AtomicSharedPtr::new_in(next, d),
        dropped: Arc::clone(&dropped),
    };
    (SharedPtr::new_graph_in(node, d), dropped)
}

/// Asserts the drop flag of what a reader still holds is down.
fn still_alive<S: AcquireRetire>(dropped: &AtomicBool, what: &str) {
    let gone = exempt(|| dropped.load(Ordering::Relaxed));
    assert!(
        !gone,
        "{}: {what} was disposed under a reader's snapshot",
        S::scheme_name()
    );
}

/// Drains and checks the domain balances once every thread is done.
fn balances<S: cdrc::Scheme>(d: &DomainRef<S>) {
    let t = current_tid();
    d.process_deferred(t);
    unsafe { d.drain_and_apply_all(t) };
    assert_eq!(
        d.allocated(),
        d.freed(),
        "{}: domain ledger unbalanced",
        S::scheme_name()
    );
}

/// The weak gate: a reader holds a weak snapshot of X while the main
/// thread clears the weak location and then X's only strong location. X's
/// weak count can fall to the strong side's own before its strong zero:
/// under HP a scan that finds no hazard on the location's old occupant
/// applies the weak decrement, and the reader's hazard may have been
/// published after that scan read its slot. A snapshot taken after the
/// zero names X. Under a region scheme (EBR) the reader's one section
/// holds back the weak decrement, the disposal and the strong decrement
/// alike, all deferred on the domain's one instance.
///
/// The two cdrc-level scenarios switch threads only at their yields
/// (preemption bound 0): the full stack under bound 1 runs for minutes,
/// and the races inside the snapshot itself are explored at bound 2 above.
/// The yields give the schedule that matters, the reader holding its
/// snapshot across everything the main thread reclaims, and every other
/// order of the two threads' steps.
fn weak_gate<S: cdrc::Scheme + Send + Sync>() -> Result<Report, Violation> {
    try_check(cfg(0), || {
        let d: DomainRef<S> = DomainRef::with_config(tight_hp::<S>());
        let t = current_tid();
        {
            let (x, x_dropped) = flagged(&d, SharedPtr::null());
            let weak = Arc::new(AtomicWeakPtr::new(x.downgrade()));
            let strong = AtomicSharedPtr::new_in(x, &d);
            let reader = {
                let (d, weak) = (d.clone(), Arc::clone(&weak));
                mthread::spawn(move || {
                    {
                        let cs = d.cs();
                        let snap = weak.get_snapshot(&cs);
                        if !snap.is_null() {
                            mthread::yield_now();
                            still_alive::<S>(&x_dropped, "a weak snapshot's object");
                        }
                    }
                    // Nothing to drain: the reader retires nothing.
                })
            };
            mthread::yield_now();
            weak.store(cdrc::WeakPtr::null());
            strong.store(SharedPtr::null());
            d.process_deferred(t);
            reader.join().unwrap();
        }
        balances(&d);
    })
}

#[test]
fn hp_weak_snapshot_outlives_its_cleared_location() {
    let _s = serial();
    let report =
        weak_gate::<cdrc::HpScheme>().expect("HP destructed an object under a weak snapshot");
    assert!(report.iterations > 1, "explored only one schedule");
}

#[test]
fn ebr_weak_snapshot_outlives_its_cleared_location() {
    let _s = serial();
    let report =
        weak_gate::<cdrc::EbrScheme>().expect("EBR destructed an object under a weak snapshot");
    assert!(report.iterations > 1, "explored only one schedule");
}

/// A reader reaches Y through a second live location, walks on to Y's
/// edge W and lets go of Y, while the main thread unlinks both X (whose
/// `next` is Y) and that location. Whichever decrement zeroes Y, the
/// snapshot that lets W be decremented on the spot must come after Y's
/// zero: one taken at X's zero can predate the reader's hazard on W.
fn hp_reader_through_another_edge() -> Result<Report, Violation> {
    try_check(cfg(0), || {
        let d: DomainRef<cdrc::HpScheme> = DomainRef::with_config(tight_hp::<Hp>());
        let t = current_tid();
        {
            let (w, w_dropped) = flagged(&d, SharedPtr::null());
            let (y, _) = flagged(&d, w);
            let (x, _) = flagged(&d, y.clone());
            let root = AtomicSharedPtr::new_in(x, &d);
            let side = Arc::new(AtomicSharedPtr::new_in(y, &d));
            let reader = {
                let (d, side) = (d.clone(), Arc::clone(&side));
                mthread::spawn(move || {
                    {
                        let cs = d.cs();
                        let y = side.get_snapshot(&cs);
                        let w = y.as_ref().map(|y| y.next.get_snapshot(&cs));
                        // Hand over hand: W is published, Y let go.
                        drop(y);
                        mthread::yield_now();
                        if w.is_some_and(|w| !w.is_null()) {
                            still_alive::<Hp>(&w_dropped, "an edge read through a live location");
                        }
                    }
                    // Nothing to drain: the reader retires nothing.
                })
            };
            mthread::yield_now();
            root.store(SharedPtr::null());
            side.store(SharedPtr::null());
            d.process_deferred(t);
            reader.join().unwrap();
        }
        balances(&d);
    })
}

#[test]
fn hp_edge_read_through_another_location_stays_alive() {
    let _s = serial();
    let report =
        hp_reader_through_another_edge().expect("HP destructed an edge under a reader's snapshot");
    assert!(report.iterations > 1, "explored only one schedule");
}
