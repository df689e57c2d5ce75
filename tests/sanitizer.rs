//! Negative suite for the reclamation sanitizer
//! (`cargo test --features sanitize --test sanitizer`).
//!
//! Each test builds a deliberately buggy access pattern — a missing
//! protection, a double retire, a dereference after retirement, a guard from
//! the wrong domain — and asserts the sanitizer catches it with the *right*
//! diagnostic: the message names the violation class, the offending call
//! site in this file, and (for block-state bugs) the block's captured event
//! trail.
//!
//! Two kinds of tests live here:
//!
//! * **hook-level lifecycle negatives** drive `smr::sanitize` directly with
//!   fake 8-aligned block addresses, emitting exactly the hook sequence a
//!   buggy engine would (the lifecycle checks are scheme-independent — every
//!   scheme funnels through the same hooks in `cdrc`'s counted-object
//!   layer); and
//! * **scheme-parameterized negatives** run real `cdrc` structures under all
//!   four schemes (EBR, IBR, HP, Hyaline), where the interesting behaviour
//!   *differs* by scheme: section-read coverage follows
//!   `PROTECTS_SECTION_READS`, disposal poisons payloads, and cross-domain
//!   guards are rejected.
//!
//! Fake addresses are tiny constants (`0x1000`–`0x2fff`) that can never
//! collide with a real heap allocation, so running these tests in the same
//! process as the rest of the suite cannot corrupt real shadow state.

#![cfg(feature = "sanitize")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cdrc::{AtomicSharedPtr, DomainRef, Scheme, SharedPtr, StrongRef};
use smr::sanitize::{self, Channel};
use smr::{current_tid, AcquireRetire, Ebr, GlobalEpoch, Hp, SmrConfig};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Runs `f`, asserts it panics, and returns the panic message.
fn panic_msg<F: FnOnce()>(f: F) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a sanitizer panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Asserts `f` panics with a message containing every needle. Sanitizer
/// diagnostics must also name the offending call site, i.e. this file.
fn expect_caught<F: FnOnce()>(f: F, needles: &[&str]) -> String {
    let msg = panic_msg(f);
    for needle in needles {
        assert!(
            msg.contains(needle),
            "diagnostic missing {needle:?}:\n{msg}"
        );
    }
    assert!(
        msg.contains("tests/sanitizer.rs"),
        "diagnostic does not name the offending call site:\n{msg}"
    );
    msg
}

// ---------------------------------------------------------------------------
// Hook-level lifecycle negatives (fake block addresses)
// ---------------------------------------------------------------------------

#[test]
fn double_retire_on_dispose_channel_is_caught() {
    const A: usize = 0x1000;
    sanitize::on_alloc(A);
    sanitize::on_retire(A, Channel::Dispose);
    let msg = expect_caught(
        || sanitize::on_retire(A, Channel::Dispose),
        &["double retire on the dispose channel", "block 0x1000"],
    );
    // The diagnostic carries the block's event trail with the first retire.
    assert!(msg.contains("retire(dispose) at"), "trail missing:\n{msg}");
    assert!(msg.contains("alloc at"), "trail missing alloc:\n{msg}");
}

#[test]
fn multi_retire_on_count_channels_is_legal() {
    // Positive control: the acquire-retire interface allows the same address
    // to be retired many times on the count channels; only the dispose
    // channel is once-per-generation.
    const A: usize = 0x1040;
    sanitize::on_alloc(A);
    for _ in 0..3 {
        sanitize::on_retire(A, Channel::Strong);
        sanitize::on_retire(A, Channel::Weak);
        sanitize::on_decrement(A, Channel::Strong);
        sanitize::on_decrement(A, Channel::Weak);
    }
}

#[test]
fn strong_retire_of_disposed_block_is_caught() {
    const A: usize = 0x1080;
    sanitize::on_alloc(A);
    sanitize::on_dispose(A);
    // Weak retires of a disposed block are legal (weak holders outlive
    // disposal by design) …
    sanitize::on_retire(A, Channel::Weak);
    // … but a strong retire implies a strong reference that cannot exist.
    expect_caught(
        || sanitize::on_retire(A, Channel::Strong),
        &["strong retire of a disposed block"],
    );
}

#[test]
fn retire_after_free_is_caught() {
    const A: usize = 0x10c0;
    sanitize::on_alloc(A);
    sanitize::on_dispose(A);
    sanitize::on_free(A);
    expect_caught(
        || sanitize::on_retire(A, Channel::Weak),
        &["retire of a freed block"],
    );
}

#[test]
fn deref_after_retire_is_caught_on_both_channels() {
    const A: usize = 0x1100;
    sanitize::on_alloc(A);
    sanitize::on_dispose(A);
    // Payload reads die as soon as the block is disposed …
    expect_caught(
        || sanitize::check_payload(A),
        &["use after dispose", "payload read of a disposed block"],
    );
    // … while header reads (count inspection, upgrade) stay legal until the
    // block is actually freed.
    sanitize::check_header(A);
    sanitize::on_free(A);
    expect_caught(
        || sanitize::check_header(A),
        &["use after free", "header read of a freed block"],
    );
    expect_caught(
        || sanitize::check_payload(A),
        &["use after free", "payload read of a freed block"],
    );
}

#[test]
fn double_dispose_is_caught() {
    const A: usize = 0x1140;
    sanitize::on_alloc(A);
    sanitize::on_dispose(A);
    expect_caught(|| sanitize::on_dispose(A), &["double dispose"]);
}

#[test]
fn free_of_live_block_and_double_free_are_caught() {
    const A: usize = 0x1180;
    sanitize::on_alloc(A);
    expect_caught(|| sanitize::on_free(A), &["free of a still-live block"]);
    sanitize::on_dispose(A);
    sanitize::on_free(A);
    expect_caught(|| sanitize::on_free(A), &["double free"]);
}

#[test]
fn decrement_of_dead_block_is_caught() {
    const A: usize = 0x11c0;
    sanitize::on_alloc(A);
    sanitize::on_dispose(A);
    expect_caught(
        || sanitize::on_decrement(A, Channel::Strong),
        &["strong decrement applied to a disposed block"],
    );
    sanitize::on_free(A);
    expect_caught(
        || sanitize::on_decrement(A, Channel::Weak),
        &["count decrement applied to a freed block"],
    );
}

#[test]
fn install_of_retired_block_is_caught() {
    const A: usize = 0x1200;
    sanitize::on_alloc(A);
    sanitize::on_install(A); // legal while live
    sanitize::on_dispose(A);
    expect_caught(|| sanitize::on_install(A), &["install of a disposed block"]);
    sanitize::on_free(A);
    expect_caught(|| sanitize::on_install(A), &["install of a freed block"]);
}

#[test]
fn generation_stamp_distinguishes_reuse_from_double_free() {
    // A freed address legitimately coming back from the allocator bumps the
    // generation and starts a fresh lifecycle; the old trail stays visible.
    const A: usize = 0x1240;
    sanitize::on_alloc(A);
    sanitize::on_dispose(A);
    sanitize::on_free(A);
    sanitize::on_alloc(A); // reuse — legal
    sanitize::on_dispose(A);
    let msg = expect_caught(|| sanitize::check_payload(A), &["use after dispose"]);
    assert!(
        msg.contains("generation 1"),
        "reused block should be at generation 1:\n{msg}"
    );
}

#[test]
fn unprotected_read_outside_any_section_is_caught() {
    const A: usize = 0x1280;
    sanitize::on_alloc(A);
    expect_caught(
        || sanitize::check_protected_read(A),
        &[
            "unprotected read",
            "no critical section and no protection token",
        ],
    );
}

// ---------------------------------------------------------------------------
// Scheme-parameterized negatives (real cdrc structures, all four schemes)
// ---------------------------------------------------------------------------

/// Missing protection: a count-free (guard-backed) read covered only by an
/// open critical section is sound exactly when the scheme's sections protect
/// reads. Under EBR/Hyaline the read passes; under IBR/HP the sanitizer
/// flags the `PROTECTS_SECTION_READS = false` hole at the read site.
fn section_read_coverage<S: Scheme>(fake_addr: usize) {
    let d = DomainRef::<S>::new();
    sanitize::on_alloc(fake_addr);
    let read = || {
        let _cs = d.cs();
        sanitize::check_protected_read(fake_addr);
    };
    if S::PROTECTS_SECTION_READS {
        read(); // sound: the section alone covers the read
    } else {
        expect_caught(
            read,
            &["unprotected read", "PROTECTS_SECTION_READS = false"],
        );
    }
}

#[test]
fn section_read_coverage_ebr() {
    section_read_coverage::<cdrc::EbrScheme>(0x2000);
}
#[test]
fn section_read_coverage_ibr() {
    section_read_coverage::<cdrc::IbrScheme>(0x2040);
}
#[test]
fn section_read_coverage_hp() {
    section_read_coverage::<cdrc::HpScheme>(0x2080);
}
#[test]
fn section_read_coverage_hyaline() {
    section_read_coverage::<cdrc::HyalineScheme>(0x20c0);
}

/// Dereference after retirement, end to end on a real counted object: once
/// the last strong reference drops and deferred work runs, the payload is
/// disposed (and poison-filled 0xDB) while a weak holder keeps the block
/// allocated. A payload read on the disposed block must be caught; after
/// the weak holder leaves, the freed block must reject even header reads.
fn deref_after_retire<S: Scheme>() {
    let d = DomainRef::<S>::new();
    let t = current_tid();
    let x = SharedPtr::<u64, S>::new_in(0xA5, &d);
    let block = x.addr();
    let payload = x.as_ref().unwrap() as *const u64 as *const u8;
    let weak = x.downgrade();

    drop(x);
    d.process_deferred(t);

    // The weak holder keeps the allocation alive, so reading the raw payload
    // bytes is sound — and must observe the sanitizer's poison fill, proving
    // the value was dropped the moment the strong count hit zero.
    assert!(weak.upgrade().is_none());
    assert_eq!(
        unsafe { payload.read_volatile() },
        0xDB,
        "payload not poisoned"
    );

    expect_caught(
        || sanitize::check_payload(block),
        &["use after dispose", "dispose"],
    );
    sanitize::check_header(block); // weak-side header reads are still legal

    drop(weak);
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
    expect_caught(|| sanitize::check_header(block), &["use after free"]);
}

#[test]
fn deref_after_retire_ebr() {
    deref_after_retire::<cdrc::EbrScheme>();
}
#[test]
fn deref_after_retire_ibr() {
    deref_after_retire::<cdrc::IbrScheme>();
}
#[test]
fn deref_after_retire_hp() {
    deref_after_retire::<cdrc::HpScheme>();
}
#[test]
fn deref_after_retire_hyaline() {
    deref_after_retire::<cdrc::HyalineScheme>();
}

/// Foreign-domain guard: snapshotting a location with a critical-section
/// guard minted by a *different* domain of the same scheme. The guard's
/// protection does not extend to the foreign domain's retirements, so the
/// engine rejects the pairing at the snapshot site.
fn foreign_domain_guard<S: Scheme>() {
    if !cfg!(debug_assertions) {
        return; // the cross-domain pairing check is a debug assertion
    }
    let d1 = DomainRef::<S>::new();
    let d2 = DomainRef::<S>::new();
    let slot = AtomicSharedPtr::<u64, S>::new_in(SharedPtr::new_in(7, &d1), &d1);
    let msg = panic_msg(|| {
        let cs = d2.cs(); // wrong domain
        let _snap = slot.get_snapshot(&cs);
    });
    assert!(
        msg.contains("different reclamation domain"),
        "diagnostic missing the cross-domain explanation:\n{msg}"
    );
}

#[test]
fn foreign_domain_guard_ebr() {
    foreign_domain_guard::<cdrc::EbrScheme>();
}
#[test]
fn foreign_domain_guard_ibr() {
    foreign_domain_guard::<cdrc::IbrScheme>();
}
#[test]
fn foreign_domain_guard_hp() {
    foreign_domain_guard::<cdrc::HpScheme>();
}
#[test]
fn foreign_domain_guard_hyaline() {
    foreign_domain_guard::<cdrc::HyalineScheme>();
}

/// A forged second drop of an owned reference (a `ptr::read` twin of a
/// pointer that was already dropped): the one decrement that reaches the
/// header straight from a pointer's `Drop`, without passing through the
/// domain. The hook sits in the owned-relinquish rule, before the header is
/// touched; the diagnostic names the hook's site inside `cdrc`, since drop
/// glue has no caller to track. Strong: the twin's decrement finds the
/// payload disposed (a weak holder keeps the block allocated).
#[test]
fn forged_second_drop_of_a_shared_ptr_is_caught() {
    let d = DomainRef::<cdrc::EbrScheme>::new();
    let p = SharedPtr::<u64, _>::new_in(7, &d);
    let _keeper = p.downgrade();
    let twin = unsafe { std::ptr::read(&p) };
    drop(p);
    d.process_deferred(current_tid());
    let msg = panic_msg(|| drop(twin));
    assert!(
        msg.contains("strong decrement applied to a disposed block"),
        "{msg}"
    );
    assert!(msg.contains("dispose at"), "trail missing:\n{msg}");
}

/// As above for a weak reference: the twin's decrement finds the block
/// freed.
#[test]
fn forged_second_drop_of_a_weak_ptr_is_caught() {
    let d = DomainRef::<cdrc::EbrScheme>::new();
    let w = SharedPtr::<u64, _>::new_in(7, &d).downgrade();
    let twin = unsafe { std::ptr::read(&w) };
    drop(w);
    d.process_deferred(current_tid());
    assert_eq!(d.allocated(), d.freed());
    let msg = panic_msg(|| drop(twin));
    assert!(
        msg.contains("count decrement applied to a freed block"),
        "{msg}"
    );
}

// ---------------------------------------------------------------------------
// Protection-leak detection
// ---------------------------------------------------------------------------

#[test]
fn check_thread_clean_flags_open_section_then_passes() {
    let ebr = Ebr::new(Arc::new(GlobalEpoch::new()), SmrConfig::default());
    let t = current_tid();
    ebr.begin_critical_section(t);
    let msg = panic_msg(sanitize::check_thread_clean);
    assert!(
        msg.contains("leaked critical section (depth 1)"),
        "diagnostic missing leak description:\n{msg}"
    );
    assert!(
        msg.contains("entered at"),
        "diagnostic missing the section's entry site:\n{msg}"
    );
    ebr.end_critical_section(t);
    sanitize::check_thread_clean(); // balanced again
}

/// Threads that exit holding protections are reported (not panicked — the
/// check runs from a TLS destructor) and the reports are drainable. A single
/// test covers both leak shapes so concurrent tests never race on draining
/// the shared report log.
#[test]
fn thread_exit_with_leaked_protections_is_reported() {
    let _ = sanitize::take_leak_reports(); // drain stale state

    // Shape 1: an EBR section left open at thread exit.
    let ebr = Arc::new(Ebr::new(Arc::new(GlobalEpoch::new()), SmrConfig::default()));
    let e = Arc::clone(&ebr);
    std::thread::spawn(move || {
        let t = current_tid();
        e.begin_critical_section(t);
        // bug: no end_critical_section before the thread dies
    })
    .join()
    .unwrap();

    // Shape 2: a hazard slot still published at thread exit.
    let hp = Arc::new(Hp::new(Arc::new(GlobalEpoch::new()), SmrConfig::default()));
    let h = Arc::clone(&hp);
    std::thread::spawn(move || {
        let t = current_tid();
        let src = smr::sync::atomic::AtomicUsize::new(0x22c0);
        h.begin_critical_section(t);
        let (_, _guard) = h.acquire(t, &src);
        h.end_critical_section(t);
        // bug: the guard is never released before the thread dies
    })
    .join()
    .unwrap();

    let reports = sanitize::take_leak_reports();
    assert!(
        reports
            .iter()
            .any(|r| r.contains("unregistered with an open critical section")),
        "missing open-section report: {reports:?}"
    );
    assert!(
        reports
            .iter()
            .any(|r| r.contains("holding protection tokens") && r.contains("0x22c0")),
        "missing leaked-token report: {reports:?}"
    );
}

// ---------------------------------------------------------------------------
// Seeded bug: HP's cascade without its "not in the snapshot" test
// ---------------------------------------------------------------------------

struct Link {
    next: AtomicSharedPtr<Link, cdrc::HpScheme>,
}

impl cdrc::GraphNode<cdrc::HpScheme> for Link {
    fn pop_edges(&mut self, out: &mut cdrc::EdgeCollector<'_, cdrc::HpScheme>) {
        out.take_atomic(&mut self.next);
    }
}

/// A reader walks hand over hand from T to P and lets go of T; then T's
/// last reference goes. HP destructs T past a hazard snapshot, and P's
/// hazard in that snapshot is what keeps P's decrement deferred. With
/// every snapshot blinded the test is gone: the cascade frees P under the
/// reader, and the reader's next read of it is a use after free.
#[test]
fn hp_cascade_without_the_snapshot_test_is_caught() {
    let d: DomainRef<cdrc::HpScheme> = DomainRef::new();
    let t = current_tid();
    let link = |next| {
        let next = AtomicSharedPtr::new_in(next, &d);
        SharedPtr::new_graph_in(Link { next }, &d)
    };
    let root = AtomicSharedPtr::new_in(link(link(SharedPtr::null())), &d);
    let cs = d.cs();
    let t_snap = root.get_snapshot(&cs);
    let p_snap = t_snap.as_ref().unwrap().next.get_snapshot(&cs);
    drop(t_snap);
    root.store(SharedPtr::null());
    sanitize::blind_hazard_snapshots(true);
    d.process_deferred(t);
    sanitize::blind_hazard_snapshots(false);
    expect_caught(
        || {
            let _ = p_snap.as_ref();
        },
        &["use after free"],
    );
    drop(p_snap);
    drop(cs);
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}
