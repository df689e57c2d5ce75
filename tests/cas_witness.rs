//! The witness-returning CAS contract, across all four schemes:
//!
//! * one *location contract* — store/load, swap/take, by-value CAS, tags,
//!   cross-domain refusal, displaced-drop deferral, balance — run for both
//!   reference kinds (`location_contract::<K, S>`);
//! * the guard-threaded borrowed CAS is the by-value CAS plus an increment
//!   at the call site (same counts after a failed and a successful attempt);
//! * a successful compare-exchange returns the *exact* displaced pointer;
//! * a failure witness names a concurrent writer's install;
//! * tag-only transitions (`try_set_tag` / `fetch_or_tag`) interoperate
//!   with pointer witnesses in one loop;
//! * `swap` / `take` ownership transfer tears down to
//!   `allocated() == freed()`;
//! * a proptest model checks that witness-seeded retry loops and
//!   reload-seeded retry loops produce identical executions.

use proptest::prelude::*;

use std::panic::{catch_unwind, AssertUnwindSafe};

use cdrc::{
    AtomicRcPtr, AtomicSharedPtr, DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, RcPtr,
    RefKind, Scheme, SharedPtr, StrongKind, TaggedPtr, WeakKind,
};

/// Drains a domain after multi-threaded use (worker threads joined): their
/// retired lists live in per-slot state only `drain_and_apply_all` reaches.
///
/// Joined *by handle*: a thread scope's implicit join returns once the
/// closures have, which is before the threads' TLS destructors — `cdrc`'s
/// thread-exit batch flush among them — have run, and that flush racing
/// this drain applies a batch twice.
fn drain<S: Scheme>(d: &DomainRef<S>) {
    // Safety: callers join every worker thread first, and each test owns
    // its private domains, so nobody else is using them.
    unsafe { d.drain_and_apply_all(smr::current_tid()) };
}

/// What every atomic location promises, whichever count its references
/// hold. `K`-references are minted from strong keepers (`from_strong`), and
/// the keepers' strong counts are the probe: they move with a strong
/// location's references and must never move with a weak one's.
fn location_contract<K: RefKind, S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let foreign_domain: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let a: SharedPtr<u64, S> = SharedPtr::new_in(1, &d);
        let b: SharedPtr<u64, S> = SharedPtr::new_in(2, &d);
        let kind = |p: &SharedPtr<u64, S>| RcPtr::<u64, S, K>::from_strong(p);
        let (ka, kb) = (kind(&a), kind(&b));
        // Settled first: a displaced pointer dropped earlier is a deferred
        // decrement, applied at some later flush point.
        let counts = || {
            d.process_deferred(t);
            (a.strong_count(), b.strong_count())
        };
        let word = |p: &SharedPtr<u64, S>| TaggedPtr::from_strong(p);

        let slot: AtomicRcPtr<u64, S, K> = AtomicRcPtr::null_in(&d);
        assert!(slot.domain().ptr_eq(&d));
        assert!(slot.load().is_null() && slot.load_tagged().is_null());

        // Store / load round trip.
        slot.store(kind(&a));
        assert_eq!(slot.load_tagged(), word(&a));
        assert!(slot.load().ptr_eq(&ka));

        // Swap and take move ownership: no count changes hands.
        let incoming = kind(&b);
        let held = counts();
        let displaced = slot.swap(incoming);
        assert!(displaced.ptr_eq(&ka), "swap returns the old occupant");
        let taken = slot.take();
        assert!(taken.ptr_eq(&kb), "take returns the occupant");
        assert!(slot.load_tagged().is_null(), "take empties the slot");
        assert!(slot.take().is_null(), "second take observes null");
        assert_eq!(counts(), held, "swap/take touched a count");
        slot.store(displaced); // a displaced pointer reinstalls like any other
        drop(taken);

        // CAS success: the moved `desired` installs under the new tag and
        // the displaced value comes back, again without count traffic.
        let stale = slot.load_tagged();
        let desired = kind(&b);
        let held = counts();
        let displaced = slot
            .compare_exchange(stale, desired, 0b10)
            .map_err(drop)
            .expect("CAS from the current word succeeds");
        assert!(displaced.ptr_eq(&ka), "success returns the displaced value");
        assert_eq!(slot.load_tagged(), word(&b).with_tag(0b10), "new tag");
        assert_eq!(counts(), held, "by-value CAS touched a count");
        drop(displaced);

        // CAS failure: the witness is the current word and `desired` comes
        // back untouched; both feed the retry.
        let desired = kind(&a);
        let held = counts();
        let e = slot
            .compare_exchange(stale, desired, 0)
            .map(drop)
            .expect_err("stale expected fails");
        assert_eq!(e.current, slot.load_tagged(), "witness is the current word");
        assert!(e.desired.ptr_eq(&ka), "desired handed back");
        assert_eq!(counts(), held, "failed CAS touched a count");
        let (mut expected, mut desired) = (stale, e.desired);
        let displaced = loop {
            match slot.compare_exchange(expected, desired, 0) {
                Ok(displaced) => break displaced,
                Err(e) => (expected, desired) = (e.current, e.desired),
            }
        };
        assert!(displaced.ptr_eq(&kb), "witness-seeded retry lands");
        drop(displaced);

        // Tag transitions leave the pointer and every count alone.
        let held = counts();
        let cur = slot.load_tagged();
        let marked = slot.try_set_tag(cur, 0b1).expect("mark lands");
        assert_eq!(marked, cur.with_tag(0b1));
        assert_eq!(slot.try_set_tag(cur, 0b10), Err(marked), "stale: witness");
        assert_eq!(slot.fetch_or_tag(0b100), marked, "previous word");
        assert_eq!(slot.load_tagged(), word(&a).with_tag(0b101));
        assert!(slot.load().ptr_eq(&ka), "a tagged word still loads");
        drop(slot.load());
        assert_eq!(counts(), held, "a tag transition touched a count");

        // Every install path refuses a pointer from another domain, and
        // the refused reference is not leaked.
        let stranger: SharedPtr<u64, S> = SharedPtr::new_in(9, &foreign_domain);
        let refused = |install: &dyn Fn(RcPtr<u64, S, K>)| {
            let err = catch_unwind(AssertUnwindSafe(|| install(kind(&stranger))))
                .expect_err("cross-domain install must panic");
            let msg = err.downcast_ref::<&str>().expect("panic message");
            assert!(msg.contains("cross-domain"), "{msg}");
        };
        refused(&|p| slot.store(p));
        refused(&|p| drop(slot.swap(p)));
        refused(&|p| drop(slot.compare_exchange(slot.load_tagged(), p, 0)));
        assert!(slot.load().ptr_eq(&ka), "a refused install changes nothing");
        drop(stranger);

        // A displaced pointer's drop is deferred while a section is open —
        // a reader that loaded the old word may still be mid-increment — and
        // applied once it closes. Seen through the last reference to a
        // block: the free waits for the section.
        let c: SharedPtr<u64, S> = SharedPtr::new_in(3, &d);
        slot.store(kind(&c));
        drop(c);
        d.process_deferred(t);
        let cs = d.cs();
        let displaced = slot.take();
        let freed = d.freed();
        drop(displaced);
        assert_eq!(d.freed(), freed, "displaced drop applied under a section");
        drop(cs);
        d.process_deferred(t);
        assert_eq!(d.freed(), freed + 1, "displaced drop never applied");
    }
    d.process_deferred(t);
    foreign_domain.process_deferred(t);
    assert_eq!(d.allocated(), d.freed(), "clean teardown");
    assert_eq!(foreign_domain.allocated(), foreign_domain.freed());
}

#[test]
fn location_contract_strong_all_schemes() {
    location_contract::<StrongKind, EbrScheme>();
    location_contract::<StrongKind, IbrScheme>();
    location_contract::<StrongKind, HpScheme>();
    location_contract::<StrongKind, HyalineScheme>();
}

#[test]
fn location_contract_weak_all_schemes() {
    location_contract::<WeakKind, EbrScheme>();
    location_contract::<WeakKind, IbrScheme>();
    location_contract::<WeakKind, HpScheme>();
    location_contract::<WeakKind, HyalineScheme>();
}

/// `compare_exchange_with(g, e, &snap)` is `compare_exchange(e,
/// snap.to_shared(), 0)` with a dereferenceable witness: after a failed and
/// after a successful attempt both leave the same strong counts on the
/// displaced and on the installed object.
fn borrowed_cas_is_by_value_cas<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    let run = |by_value: bool| {
        let old: SharedPtr<u64, S> = SharedPtr::new_in(1, &d);
        let new: SharedPtr<u64, S> = SharedPtr::new_in(2, &d);
        let slot = AtomicSharedPtr::new_in(old.clone(), &d);
        let source = AtomicSharedPtr::new_in(new.clone(), &d);
        let counts = || (old.strong_count(), new.strong_count());
        let observed = {
            let cs = d.cs();
            let snap = source.get_snapshot(&cs);
            let attempt = |expected: TaggedPtr<u64>| {
                if by_value {
                    let r = slot.compare_exchange(expected, snap.to_shared(), 0);
                    r.map(drop).map_err(drop)
                } else {
                    let r = slot.compare_exchange_with(&cs, expected, &snap);
                    r.map(drop).map_err(drop)
                }
            };
            attempt(TaggedPtr::null()).expect_err("null expected, full slot");
            let failed = counts();
            attempt(slot.load_tagged()).expect("current expected");
            [failed, counts()]
        };
        // old: keeper + the displaced reference, its drop deferred by the
        // open section; new: keeper + `source` (+ `slot` once installed).
        assert_eq!(observed, [(2, 2), (2, 3)]);
        drop((slot, source));
        d.process_deferred(t);
        observed
    };
    assert_eq!(run(false), run(true), "{}", S::scheme_name());
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn borrowed_cas_is_by_value_cas_all_schemes() {
    borrowed_cas_is_by_value_cas::<EbrScheme>();
    borrowed_cas_is_by_value_cas::<IbrScheme>();
    borrowed_cas_is_by_value_cas::<HpScheme>();
    borrowed_cas_is_by_value_cas::<HyalineScheme>();
}

/// Success returns the exact displaced pointer; failure returns a witness
/// usable as the next `expected`.
fn displaced_and_witness<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let first: SharedPtr<u64, S> = SharedPtr::new_in(1, &d);
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(first.clone(), &d);
        let second: SharedPtr<u64, S> = SharedPtr::new_in(2, &d);
        let cur = slot.load_tagged();
        let displaced = slot
            .compare_exchange(cur, second.clone(), 0)
            .expect("CAS succeeds");
        assert!(
            displaced.ptr_eq(&first),
            "displaced pointer is the exact old occupant"
        );
        assert_eq!(displaced.as_ref(), Some(&1));
        drop(displaced);
        // Stale retry: the witness is the installed `second`, and feeding
        // it back as `expected` succeeds without any re-load.
        let e = slot
            .compare_exchange(cur, first.clone(), 0)
            .expect_err("stale");
        assert_eq!(e.current.addr(), TaggedPtr::from_strong(&second).addr());
        let displaced = slot
            .compare_exchange(e.current, e.desired, 0)
            .expect("witness-seeded retry");
        assert!(displaced.ptr_eq(&second));
        drop(displaced);
        drop((slot, first, second));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed(), "clean teardown");
}

#[test]
fn displaced_and_witness_all_schemes() {
    displaced_and_witness::<EbrScheme>();
    displaced_and_witness::<IbrScheme>();
    displaced_and_witness::<HpScheme>();
    displaced_and_witness::<HyalineScheme>();
}

/// The failure witness of a CAS that lost to a concurrent writer names the
/// writer's install.
fn witness_matches_concurrent_install<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(0, &d), &d);
        let stale = slot.load_tagged();
        // A racing writer installs a known pointer...
        let theirs: SharedPtr<u64, S> = SharedPtr::new_in(42, &d);
        let their_word = TaggedPtr::from_strong(&theirs);
        std::thread::scope(|s| {
            let slot = &slot;
            let theirs = &theirs;
            s.spawn(move || {
                slot.store(theirs.clone());
            })
            .join()
            .unwrap();
        });
        // ...so our stale CAS must fail, and the witness must be exactly
        // that install.
        let mine: SharedPtr<u64, S> = SharedPtr::new_in(7, &d);
        let w = slot
            .compare_exchange(stale, mine, 0)
            .expect_err("the writer moved the slot")
            .current;
        assert_eq!(w.addr(), their_word.addr(), "witness names the install");
        drop((slot, theirs));
    }
    drain(&d);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn witness_matches_concurrent_install_all_schemes() {
    witness_matches_concurrent_install::<EbrScheme>();
    witness_matches_concurrent_install::<IbrScheme>();
    witness_matches_concurrent_install::<HpScheme>();
    witness_matches_concurrent_install::<HyalineScheme>();
}

/// Tag transitions and pointer CASes compose through witnesses: a marked
/// word witnessed by a failed pointer CAS is a valid `expected` for
/// `try_set_tag`, and vice versa.
fn tag_transitions_interop<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(5, &d), &d);
        let cur = slot.load_tagged();
        // Mark the word; the Ok value is the installed (marked) word.
        let marked = slot.try_set_tag(cur, 0b1).expect("mark lands");
        assert_eq!(marked.tag(), 0b1);
        // A pointer CAS with the unmarked expected loses; its witness is
        // the marked word, which seeds a successful tag upgrade.
        let desired: SharedPtr<u64, S> = SharedPtr::new_in(6, &d);
        let w = slot
            .compare_exchange(cur, desired.clone(), 0)
            .expect_err("marked word defeats unmarked expected")
            .current;
        assert_eq!(w, marked, "witness carries the mark");
        let both = slot.try_set_tag(w, 0b10).expect("tag upgrade via witness");
        assert_eq!(both.tag(), 0b11);
        // fetch_or_tag's return is itself a witness: feed it to the final
        // pointer CAS that swings the marked word out.
        let prev = slot.fetch_or_tag(0b100);
        assert_eq!(prev, both);
        let displaced = slot
            .compare_exchange(prev.with_tag(0b111), desired.clone(), 0)
            .expect("witnessed marked word swings out");
        assert_eq!(displaced.as_ref(), Some(&5));
        drop(displaced);
        assert_eq!(slot.load_tagged().tag(), 0, "fresh install is unmarked");
        drop((slot, desired));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn tag_transitions_interop_all_schemes() {
    tag_transitions_interop::<EbrScheme>();
    tag_transitions_interop::<IbrScheme>();
    tag_transitions_interop::<HpScheme>();
    tag_transitions_interop::<HyalineScheme>();
}

/// Concurrent swap storm: values are conserved through displaced-ownership
/// hand-offs, and the private domain tears down to allocated() == freed().
fn swap_take_teardown<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(99, &d), &d);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u64)
                .map(|i| {
                    let slot = &slot;
                    let d = &d;
                    s.spawn(move || {
                        let mut mine: SharedPtr<u64, S> = SharedPtr::new_in(i, d);
                        for _ in 0..1_000 {
                            mine = slot.swap(mine);
                            assert!(!mine.is_null(), "swap storm never sees null");
                        }
                    })
                })
                .collect();
            workers.into_iter().for_each(|w| w.join().unwrap());
        });
        let taken = slot.take();
        assert!(!taken.is_null());
        assert!(slot.take().is_null(), "slot is empty after take");
        drop(taken);
        drop(slot);
    }
    drain(&d);
    assert_eq!(
        d.allocated(),
        d.freed(),
        "every displaced hand-off balanced"
    );
}

#[test]
fn swap_take_teardown_all_schemes() {
    swap_take_teardown::<EbrScheme>();
    swap_take_teardown::<IbrScheme>();
    swap_take_teardown::<HpScheme>();
    swap_take_teardown::<HyalineScheme>();
}

/// The guard-threaded variant: the failure witness dereferences without any
/// further load, under every scheme (HP revalidates internally).
fn with_witness_dereferences<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let t = smr::current_tid();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(3, &d), &d);
        let desired: SharedPtr<u64, S> = SharedPtr::new_in(4, &d);
        let cs = d.cs();
        let w = slot
            .compare_exchange_with(&cs, TaggedPtr::null(), &desired)
            .expect_err("null expected against a full slot");
        assert_eq!(w.as_ref(), Some(&3), "witness dereferences immediately");
        let displaced = slot
            .compare_exchange_with(&cs, w.tagged(), &desired)
            .expect("witness-seeded retry");
        assert!(displaced.ptr_eq(&w.to_shared()));
        drop(displaced);
        drop(w);
        drop(cs);
        drop((slot, desired));
    }
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn with_witness_dereferences_all_schemes() {
    with_witness_dereferences::<EbrScheme>();
    with_witness_dereferences::<IbrScheme>();
    with_witness_dereferences::<HpScheme>();
    with_witness_dereferences::<HyalineScheme>();
}

/// Concurrent `_with` witness storm: CAS losers dereference their failure
/// witnesses while winners swap fresh nodes in and drop the displaced ones
/// immediately (maximum reclamation pressure). Regression surface for the
/// witness-protection rule: schemes without
/// `PROTECTS_SECTION_READS` (IBR, HP) must revalidate against the live
/// word before handing a dereferenceable witness back — under the broken
/// stack-local shortcut this test reads freed memory under IBR.
fn with_witness_under_swap_pressure<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::new_in(SharedPtr::new_in(0, &d), &d);
        std::thread::scope(|s| {
            let mut workers = Vec::new();
            // Two swappers churn the slot, retiring displaced nodes as fast
            // as possible (each drop is a deferred decrement feeding the
            // scheme's scan).
            for w in 0..2u64 {
                let slot = &slot;
                let d = &d;
                workers.push(s.spawn(move || {
                    for i in 0..3_000u64 {
                        drop(slot.swap(SharedPtr::new_in(w * 1_000_000 + i, d)));
                    }
                }));
            }
            // Two witnesses-chasers CAS with stale expectations and read
            // every witness they are handed.
            for _ in 0..2 {
                let slot = &slot;
                let d = &d;
                workers.push(s.spawn(move || {
                    let mine: SharedPtr<u64, S> = SharedPtr::new_in(7_777_777, d);
                    let cs = d.cs();
                    let mut expected = TaggedPtr::null();
                    for _ in 0..3_000 {
                        match slot.compare_exchange_with(&cs, expected, &mine) {
                            Ok(displaced) => {
                                if let Some(v) = displaced.as_ref() {
                                    assert!(*v < 2_000_000 || *v == 7_777_777);
                                }
                                expected = TaggedPtr::from_strong(&mine);
                            }
                            Err(w) => {
                                // The whole point: dereference the witness.
                                if let Some(v) = w.as_ref() {
                                    assert!(*v < 2_000_000 || *v == 7_777_777);
                                }
                                expected = w.tagged();
                            }
                        }
                    }
                }));
            }
            workers.into_iter().for_each(|w| w.join().unwrap());
        });
        drop(slot);
    }
    drain(&d);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn with_witness_under_swap_pressure_all_schemes() {
    with_witness_under_swap_pressure::<EbrScheme>();
    with_witness_under_swap_pressure::<IbrScheme>();
    with_witness_under_swap_pressure::<HpScheme>();
    with_witness_under_swap_pressure::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// Proptest model: witness-seeded and reload-seeded loops are equivalent.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum SlotOp {
    Store(u64),
    /// CAS to `v` starting from a deliberately stale `expected`; the loop
    /// must converge via its reseeding strategy.
    CasFromStale(u64),
    Swap(u64),
    Take,
    SetTag(usize),
    FetchOr(usize),
}

fn slot_op() -> impl Strategy<Value = SlotOp> {
    prop_oneof![
        (0u64..1000).prop_map(SlotOp::Store),
        (0u64..1000).prop_map(SlotOp::CasFromStale),
        (0u64..1000).prop_map(SlotOp::Swap),
        Just(SlotOp::Take),
        (1usize..4).prop_map(SlotOp::SetTag),
        (1usize..4).prop_map(SlotOp::FetchOr),
    ]
}

/// Applies `op` to `slot`, reseeding failed CASes from the witness.
fn apply_witness<S: Scheme>(
    slot: &AtomicSharedPtr<u64, S>,
    d: &DomainRef<S>,
    op: SlotOp,
) -> (Option<u64>, usize) {
    match op {
        SlotOp::Store(v) => slot.store(SharedPtr::new_in(v, d)),
        SlotOp::CasFromStale(v) => {
            let mut desired = SharedPtr::new_in(v, d);
            let mut expected = TaggedPtr::null().with_tag(0b111); // never current
            loop {
                match slot.compare_exchange(expected, desired, 0) {
                    Ok(_) => break,
                    // The witness, not a re-load.
                    Err(e) => (expected, desired) = (e.current, e.desired),
                }
            }
        }
        SlotOp::Swap(v) => drop(slot.swap(SharedPtr::new_in(v, d))),
        SlotOp::Take => drop(slot.take()),
        SlotOp::SetTag(bits) => {
            let mut expected = TaggedPtr::null().with_tag(0b111);
            loop {
                match slot.try_set_tag(expected, bits) {
                    Ok(_) => break,
                    Err(w) => expected = w,
                }
            }
        }
        SlotOp::FetchOr(bits) => drop(slot.fetch_or_tag(bits)),
    }
    observe(slot)
}

/// Applies `op` to `slot`, reseeding failed CASes by re-loading — the
/// pre-witness idiom the new API replaces.
fn apply_reload<S: Scheme>(
    slot: &AtomicSharedPtr<u64, S>,
    d: &DomainRef<S>,
    op: SlotOp,
) -> (Option<u64>, usize) {
    match op {
        SlotOp::Store(v) => slot.store(SharedPtr::new_in(v, d)),
        SlotOp::CasFromStale(v) => {
            let mut desired = SharedPtr::new_in(v, d);
            let mut expected = TaggedPtr::null().with_tag(0b111);
            loop {
                match slot.compare_exchange(expected, desired, 0) {
                    Ok(_) => break,
                    // The old way.
                    Err(e) => (expected, desired) = (slot.load_tagged(), e.desired),
                }
            }
        }
        SlotOp::Swap(v) => drop(slot.swap(SharedPtr::new_in(v, d))),
        SlotOp::Take => drop(slot.take()),
        SlotOp::SetTag(bits) => {
            let mut expected = TaggedPtr::null().with_tag(0b111);
            loop {
                match slot.try_set_tag(expected, bits) {
                    Ok(_) => break,
                    Err(_) => expected = slot.load_tagged(),
                }
            }
        }
        SlotOp::FetchOr(bits) => drop(slot.fetch_or_tag(bits)),
    }
    observe(slot)
}

fn observe<S: Scheme>(slot: &AtomicSharedPtr<u64, S>) -> (Option<u64>, usize) {
    let tag = slot.load_tagged().tag();
    let val = slot.load().as_ref().copied();
    (val, tag)
}

fn run_model<S: Scheme>(ops: &[SlotOp]) {
    let t = smr::current_tid();
    let dw: DomainRef<S> = DomainRef::new();
    let dr: DomainRef<S> = DomainRef::new();
    {
        let witness_slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&dw);
        let reload_slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&dr);
        for &op in ops {
            let a = apply_witness(&witness_slot, &dw, op);
            let b = apply_reload(&reload_slot, &dr, op);
            assert_eq!(a, b, "witness and reload executions diverged at {op:?}");
        }
    }
    dw.process_deferred(t);
    dr.process_deferred(t);
    assert_eq!(dw.allocated(), dw.freed(), "witness domain balanced");
    assert_eq!(dr.allocated(), dr.freed(), "reload domain balanced");
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
    fn witness_loop_matches_reload_loop_ebr(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<EbrScheme>(&ops);
    }

    #[test]
    fn witness_loop_matches_reload_loop_hp(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<HpScheme>(&ops);
    }

    #[test]
    fn witness_loop_matches_reload_loop_ibr(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<IbrScheme>(&ops);
    }

    #[test]
    fn witness_loop_matches_reload_loop_hyaline(ops in proptest::collection::vec(slot_op(), 1..100)) {
        run_model::<HyalineScheme>(&ops);
    }
}
