//! The reclamation **sanitizer**: shadow-state lifecycle and
//! protection-coverage checking for every engine access.
//!
//! The rest of the suite calls the hook functions in this module
//! unconditionally; in normal builds every hook is an empty
//! `#[inline(always)]` function and the layer compiles to nothing (the same
//! zero-cost switch as the [`sync`](crate::sync) facade). Under
//! `--features sanitize` the hooks maintain two shadow structures:
//!
//! * a process-wide **block table** keyed by counted-block address, stamping
//!   each block with a generation counter and a lifecycle state
//!   (`Live → Disposed → Freed`) driven by the allocation, retire,
//!   decrement, dispose and free hooks; and
//! * a per-[`Tid`](crate::registry::Tid) **protection shadow** recording every open critical
//!   section (with the scheme's `PROTECTS_SECTION_READS` capability) and
//!   every pointer-level protection token (hazard slots, IBR interval
//!   acquisitions).
//!
//! Check hooks — called from the `cdrc` engine on every dereference,
//! install and count-free protected read — assert that the touched block is
//! in a legal state and that the access is covered by a live protection of
//! the right kind, and panic **at the offending call site**
//! (`#[track_caller]` all the way down) with the block's captured event
//! trail. Freed payloads are poison-filled (`0xDB`) by the `cdrc` side so
//! latent dangling reads fail loudly even when they slip past a check.
//!
//! The sanitizer and the model checker are mutually exclusive: under
//! `--features model-check` the hooks are also compiled out (the checker's
//! cooperative scheduler must not run code that blocks on real mutexes).
//!
//! See the repository README ("Reclamation sanitizer") for how to run the
//! suite under the sanitizer and example diagnostics.

/// Which deferred operation a retire carries: a `cdrc` domain tags each
/// retired address with it (the discriminant, in the low bits) and
/// dispatches on it at eject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// A deferred strong-count decrement.
    Strong = 0,
    /// A deferred weak-count decrement.
    Weak = 1,
    /// A delayed disposal (strong count hit zero with weak holders left).
    Dispose = 2,
}

/// How long a protection token minted by an engine `acquire` stays valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenLife {
    /// Until the matching `release` clears the announcement slot named by
    /// the key (hazard pointers).
    UntilRelease(usize),
    /// Until the thread's critical section on the issuing instance ends
    /// (IBR: the announced interval persists to section exit).
    UntilSectionExit,
}

#[cfg(all(feature = "sanitize", not(feature = "model-check")))]
mod imp {
    use super::{Channel, TokenLife};
    use crate::registry::{try_tid, Tid, MAX_THREADS};
    use crate::sync::atomic::{AtomicBool, Ordering};
    use crate::untagged;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Events kept per block (newest overwrite oldest).
    const TRAIL: usize = 8;
    /// Shard count for the block table (power of two).
    const SHARDS: usize = 64;

    #[derive(Clone, Copy)]
    struct Event {
        kind: &'static str,
        tid: usize,
        loc: &'static Location<'static>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Live,
        Disposed,
        Freed,
    }

    struct BlockEntry {
        state: State,
        generation: u64,
        dispose_retired: bool,
        events: [Option<Event>; TRAIL],
        next_event: usize,
    }

    impl BlockEntry {
        fn new() -> Self {
            BlockEntry {
                state: State::Live,
                generation: 0,
                dispose_retired: false,
                events: [None; TRAIL],
                next_event: 0,
            }
        }

        #[track_caller]
        fn record(&mut self, kind: &'static str) {
            self.events[self.next_event % TRAIL] = Some(Event {
                kind,
                tid: try_tid().map(|t| t.index()).unwrap_or(usize::MAX),
                loc: Location::caller(),
            });
            self.next_event = self.next_event.wrapping_add(1);
        }

        fn trail(&self) -> String {
            let mut out = String::new();
            let n = self.next_event;
            let start = n.saturating_sub(TRAIL);
            for i in start..n {
                if let Some(e) = self.events[i % TRAIL] {
                    let tid = if e.tid == usize::MAX {
                        "?".to_string()
                    } else {
                        e.tid.to_string()
                    };
                    out.push_str(&format!("\n    [t{tid}] {} at {}", e.kind, e.loc));
                }
            }
            if start > 0 {
                out.push_str(&format!("\n    ({start} earlier events dropped)"));
            }
            out
        }
    }

    struct SectionRec {
        depth: u32,
        protects_reads: bool,
        entered: &'static Location<'static>,
    }

    #[derive(Default)]
    struct ThreadShadow {
        /// Open critical sections, keyed by engine-instance address.
        sections: HashMap<usize, SectionRec>,
        /// Pointer-protection reference counts, keyed by block address.
        protected: HashMap<usize, u32>,
        /// Hazard-style tokens: (instance, slot key) → protected address.
        by_key: HashMap<(usize, usize), usize>,
        /// Interval-style tokens released at section exit, per instance.
        until_exit: HashMap<usize, Vec<usize>>,
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // A sanitizer panic (deliberate in the negative suite) poisons the
        // mutex it held; later checks still need the state.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One shard of the shadow table: block address to its entry.
    type Shard = Mutex<HashMap<usize, BlockEntry>>;

    fn shard(addr: usize) -> &'static Shard {
        static TABLE: OnceLock<Box<[Shard]>> = OnceLock::new();
        let table = TABLE.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect());
        &table[(addr >> 4) & (SHARDS - 1)]
    }

    fn shadows() -> &'static [Mutex<ThreadShadow>] {
        static SHADOWS: OnceLock<Box<[Mutex<ThreadShadow>]>> = OnceLock::new();
        SHADOWS.get_or_init(|| {
            (0..MAX_THREADS)
                .map(|_| Mutex::new(ThreadShadow::default()))
                .collect()
        })
    }

    fn shadow(t: Tid) -> &'static Mutex<ThreadShadow> {
        &shadows()[t.index()]
    }

    /// Leak reports captured at thread unregister (see
    /// [`take_leak_reports`]); panicking from a TLS destructor would abort
    /// the process, so leaks found there are logged instead.
    fn leak_log() -> &'static Mutex<Vec<String>> {
        static LOG: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
        LOG.get_or_init(|| Mutex::new(Vec::new()))
    }

    #[track_caller]
    fn fail(addr: usize, entry: Option<&BlockEntry>, what: &str) -> ! {
        let trail = entry.map(|e| e.trail()).unwrap_or_default();
        let generation = entry.map(|e| e.generation).unwrap_or(0);
        panic!(
            "sanitizer: {what} (block {addr:#x}, generation {generation}) at {}{trail}",
            Location::caller()
        );
    }

    /// Whether the sanitizer is compiled in. `true` in this half.
    pub const fn enabled() -> bool {
        true
    }

    // -- lifecycle hooks ----------------------------------------------------

    /// Records a freshly allocated counted block. The address must be
    /// unused or previously freed; anything else means a block was freed
    /// behind the sanitizer's back or freed memory was handed out twice.
    #[track_caller]
    pub fn on_alloc(addr: usize) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let entry = shard.entry(addr).or_insert_with(BlockEntry::new);
        match entry.state {
            State::Freed => {
                entry.state = State::Live;
                entry.generation += 1;
                entry.dispose_retired = false;
            }
            // A brand-new entry starts Live with generation 0 and an empty
            // trail; a *reused* entry that never saw `on_free` is the bug.
            State::Live | State::Disposed if entry.next_event != 0 => fail(
                addr,
                Some(entry),
                "allocator returned a block still tracked as live",
            ),
            _ => {}
        }
        entry.record("alloc");
    }

    /// Records a retire on `channel` and checks it is legal: any number of
    /// strong/weak retires may target a live block (multi-retire is part of
    /// the acquire-retire interface), but a dispose retire is unique per
    /// generation and nothing may be retired after the block was freed.
    #[track_caller]
    pub fn on_retire(addr: usize, channel: Channel) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        match (channel, entry.state) {
            (_, State::Freed) => fail(addr, Some(entry), "retire of a freed block"),
            (Channel::Strong, State::Disposed) => {
                fail(addr, Some(entry), "strong retire of a disposed block")
            }
            (Channel::Dispose, State::Disposed) => {
                fail(addr, Some(entry), "dispose retire of a disposed block")
            }
            (Channel::Dispose, _) if entry.dispose_retired => {
                fail(addr, Some(entry), "double retire on the dispose channel")
            }
            _ => {}
        }
        if channel == Channel::Dispose {
            entry.dispose_retired = true;
        }
        entry.record(match channel {
            Channel::Strong => "retire(strong)",
            Channel::Weak => "retire(weak)",
            Channel::Dispose => "retire(dispose)",
        });
    }

    /// Checks a count decrement on `channel`: a strong decrement implies an
    /// outstanding strong reference, so the block must still be live; a
    /// weak decrement only requires the block not to be freed.
    #[track_caller]
    pub fn on_decrement(addr: usize, channel: Channel) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        match (channel, entry.state) {
            (_, State::Freed) => fail(
                addr,
                Some(entry),
                "count decrement applied to a freed block",
            ),
            (Channel::Strong, State::Disposed) => fail(
                addr,
                Some(entry),
                "strong decrement applied to a disposed block",
            ),
            _ => {}
        }
        entry.record(match channel {
            Channel::Strong => "dec(strong)",
            Channel::Weak => "dec(weak)",
            Channel::Dispose => "dec(dispose)",
        });
    }

    /// Records payload disposal. Legal exactly once per generation, on a
    /// live block — a second disposal is the classic double-free shape.
    #[track_caller]
    pub fn on_dispose(addr: usize) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        match entry.state {
            State::Live => entry.state = State::Disposed,
            State::Disposed => fail(addr, Some(entry), "double dispose"),
            State::Freed => fail(addr, Some(entry), "dispose of a freed block"),
        }
        entry.record("dispose");
    }

    /// Records block deallocation. The payload must have been disposed
    /// first (dispose always precedes free in the engine's lifecycle).
    #[track_caller]
    pub fn on_free(addr: usize) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        match entry.state {
            State::Disposed => entry.state = State::Freed,
            State::Live => fail(addr, Some(entry), "free of a still-live block"),
            State::Freed => fail(addr, Some(entry), "double free"),
        }
        entry.record("free");
    }

    // -- access checks ------------------------------------------------------

    /// Checks a payload dereference through an owned or snapshot reference:
    /// the block must be live (not disposed, not freed).
    #[track_caller]
    pub fn check_payload(addr: usize) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        match entry.state {
            State::Live => {}
            State::Disposed => fail(
                addr,
                Some(entry),
                "use after dispose (payload read of a disposed block)",
            ),
            State::Freed => fail(
                addr,
                Some(entry),
                "use after free (payload read of a freed block)",
            ),
        }
    }

    /// Checks a control-block header read (count inspection, upgrade
    /// attempt): legal on live and disposed blocks, never on freed ones.
    #[track_caller]
    pub fn check_header(addr: usize) {
        let addr = untagged(addr);
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        if entry.state == State::Freed {
            fail(
                addr,
                Some(entry),
                "use after free (header read of a freed block)",
            );
        }
    }

    /// Checks an install (store/swap/CAS of a new word into an `RcWord`):
    /// the installed reference must point at a live block.
    #[track_caller]
    pub fn on_install(addr: usize) {
        let addr = untagged(addr);
        if addr == 0 {
            return;
        }
        let mut shard = lock(shard(addr));
        let Some(entry) = shard.get_mut(&addr) else {
            return;
        };
        match entry.state {
            State::Live => {}
            State::Disposed => fail(addr, Some(entry), "install of a disposed block"),
            State::Freed => fail(addr, Some(entry), "install of a freed block"),
        }
        entry.record("install");
    }

    /// Checks a **count-free** protected read (a guard-backed snapshot
    /// dereference): the calling thread must hold a live protection
    /// covering the block — a pointer-level token (hazard slot, IBR
    /// interval acquisition) or an open critical section on a scheme whose
    /// sections protect reads (`PROTECTS_SECTION_READS`). This is the
    /// check that catches the `PROTECTS_SECTION_READS = false` fast-path
    /// hole: under IBR or HP an open section alone does **not** cover a
    /// word that was never `acquire`d.
    #[track_caller]
    pub fn check_protected_read(addr: usize) {
        let addr = untagged(addr);
        let Some(t) = try_tid() else { return };
        {
            let sh = lock(shadow(t));
            let token = sh.protected.get(&addr).copied().unwrap_or(0) > 0;
            let section_covers = sh
                .sections
                .values()
                .any(|s| s.depth > 0 && s.protects_reads);
            let in_any_section = sh.sections.values().any(|s| s.depth > 0);
            if !token && !section_covers {
                drop(sh);
                let shard = lock(shard(addr));
                let entry = shard.get(&addr);
                let what = if in_any_section {
                    "unprotected read: the open critical section's scheme has \
                     PROTECTS_SECTION_READS = false and no acquire covers this block"
                } else {
                    "unprotected read: no critical section and no protection token cover this block"
                };
                fail(addr, entry, what);
            }
        }
        check_payload(addr);
    }

    // -- protection shadow --------------------------------------------------

    /// Records a critical-section entry on engine instance `inst`.
    #[track_caller]
    pub(crate) fn section_enter(inst: usize, t: Tid, protects_reads: bool) {
        let mut sh = lock(shadow(t));
        let rec = sh.sections.entry(inst).or_insert(SectionRec {
            depth: 0,
            protects_reads,
            entered: Location::caller(),
        });
        if rec.depth == 0 {
            rec.entered = Location::caller();
            rec.protects_reads = protects_reads;
        }
        rec.depth += 1;
    }

    /// Records a critical-section exit on `inst`; the outermost exit
    /// releases every interval-style token the section minted.
    #[track_caller]
    pub(crate) fn section_exit(inst: usize, t: Tid) {
        let mut sh = lock(shadow(t));
        let Some(rec) = sh.sections.get_mut(&inst) else {
            panic!(
                "sanitizer: critical-section exit without a matching entry at {}",
                Location::caller()
            );
        };
        assert!(
            rec.depth > 0,
            "sanitizer: critical-section exit below depth zero at {}",
            Location::caller()
        );
        rec.depth -= 1;
        if rec.depth == 0 {
            for addr in sh.until_exit.remove(&inst).unwrap_or_default() {
                if let Some(n) = sh.protected.get_mut(&addr) {
                    *n -= 1;
                    if *n == 0 {
                        sh.protected.remove(&addr);
                    }
                }
            }
        }
    }

    /// Records a pointer-protection token minted by an engine acquire:
    /// `word` (tag bits ignored) is covered on instance `inst` for
    /// [`TokenLife`]. `in_section` asserts the scheme's discipline
    /// that acquires only happen inside sections.
    #[track_caller]
    pub(crate) fn on_protect(inst: usize, t: Tid, word: usize, life: TokenLife, in_section: bool) {
        let addr = untagged(word);
        let mut sh = lock(shadow(t));
        if in_section {
            let open = sh.sections.get(&inst).map(|s| s.depth > 0).unwrap_or(false);
            assert!(
                open,
                "sanitizer: acquire outside a critical section on a region-protecting scheme at {}",
                Location::caller()
            );
        }
        match life {
            TokenLife::UntilRelease(key) => {
                // Re-announcing a slot replaces its previous token.
                if let Some(old) = sh.by_key.remove(&(inst, key)) {
                    if let Some(n) = sh.protected.get_mut(&old) {
                        *n -= 1;
                        if *n == 0 {
                            sh.protected.remove(&old);
                        }
                    }
                }
                if addr != 0 {
                    sh.by_key.insert((inst, key), addr);
                    *sh.protected.entry(addr).or_insert(0) += 1;
                }
            }
            TokenLife::UntilSectionExit => {
                if addr != 0 {
                    sh.until_exit.entry(inst).or_default().push(addr);
                    *sh.protected.entry(addr).or_insert(0) += 1;
                }
            }
        }
    }

    /// Releases the token held in announcement slot `key` of `inst`.
    pub(crate) fn on_unprotect(inst: usize, t: Tid, key: usize) {
        let mut sh = lock(shadow(t));
        if let Some(addr) = sh.by_key.remove(&(inst, key)) {
            if let Some(n) = sh.protected.get_mut(&addr) {
                *n -= 1;
                if *n == 0 {
                    sh.protected.remove(&addr);
                }
            }
        }
    }

    // -- thread lifecycle ---------------------------------------------------

    /// Asserts the calling thread holds no open sections and no protection
    /// tokens — the synchronous form of the leak check run at thread
    /// unregister. Panics naming the first leaked section's entry site.
    #[track_caller]
    pub fn check_thread_clean() {
        let Some(t) = try_tid() else { return };
        let sh = lock(shadow(t));
        if let Some((inst, rec)) = sh.sections.iter().find(|(_, r)| r.depth > 0) {
            panic!(
                "sanitizer: leaked critical section (depth {}) on engine instance {inst:#x}, \
                 entered at {} — checked at {}",
                rec.depth,
                rec.entered,
                Location::caller()
            );
        }
        if !sh.protected.is_empty() {
            let addrs: Vec<String> = sh.protected.keys().map(|a| format!("{a:#x}")).collect();
            panic!(
                "sanitizer: leaked protection tokens on blocks [{}] at {}",
                addrs.join(", "),
                Location::caller()
            );
        }
    }

    /// Runs the leak check for an unregistering thread and clears its
    /// shadow. Leaks are *logged* (see [`take_leak_reports`]) rather than
    /// panicked: this runs from a TLS destructor, where a panic would
    /// abort the process.
    pub(crate) fn on_thread_unregister(t: Tid) {
        let mut sh = lock(shadow(t));
        for (inst, rec) in sh.sections.iter().filter(|(_, r)| r.depth > 0) {
            lock(leak_log()).push(format!(
                "thread slot {} unregistered with an open critical section (depth {}) on \
                 engine instance {inst:#x}, entered at {}",
                t.index(),
                rec.depth,
                rec.entered
            ));
        }
        if !sh.protected.is_empty() {
            let addrs: Vec<String> = sh.protected.keys().map(|a| format!("{a:#x}")).collect();
            lock(leak_log()).push(format!(
                "thread slot {} unregistered holding protection tokens on blocks [{}]",
                t.index(),
                addrs.join(", ")
            ));
        }
        *sh = ThreadShadow::default();
    }

    /// Clears a slot's shadow without leak reporting — the thread declared
    /// (via fault injection) that it dies without unregistering, so leaked
    /// protections are the *expected* wreckage the reaper recovers.
    pub(crate) fn on_thread_abandon(t: Tid) {
        *lock(shadow(t)) = ThreadShadow::default();
    }

    /// Clears a dead slot's shadow when an orphan reaper recovers it, so
    /// the slot's next owner does not inherit phantom protections.
    pub(crate) fn on_slot_reclaimed(dead: Tid) {
        *lock(shadow(dead)) = ThreadShadow::default();
    }

    /// The seeded bug behind the sanitizer's snapshot negative: while on,
    /// every hazard snapshot comes back empty, as if the "not in the
    /// snapshot" test that guards an eager destruct were gone. Test-only;
    /// process-wide.
    pub fn blind_hazard_snapshots(on: bool) {
        // Ordering: Relaxed — a test switch, flipped between phases of a
        // single-threaded test.
        BLIND.store(on, Ordering::Relaxed);
    }

    /// Whether [`blind_hazard_snapshots`] is on.
    pub(crate) fn hazard_snapshots_blind() -> bool {
        // Ordering: Relaxed — as in `blind_hazard_snapshots`.
        BLIND.load(Ordering::Relaxed)
    }

    static BLIND: AtomicBool = AtomicBool::new(false);

    /// Drains the leak reports accumulated by [`on_thread_unregister`].
    /// Tests (and CI harnesses) call this after joining worker threads to
    /// turn logged leaks into failures.
    pub fn take_leak_reports() -> Vec<String> {
        std::mem::take(&mut *lock(leak_log()))
    }
}

#[cfg(not(all(feature = "sanitize", not(feature = "model-check"))))]
mod imp {
    //! The zero-cost half: every hook is an empty `#[inline(always)]`
    //! function with the same signature as the real one, so call sites
    //! compile to nothing in normal builds.
    #![allow(unused_variables, missing_docs, clippy::missing_docs_in_private_items)]

    use super::{Channel, TokenLife};
    use crate::registry::Tid;

    /// Snapshots are never blinded (sanitizer compiled out).
    #[inline(always)]
    pub(crate) const fn hazard_snapshots_blind() -> bool {
        false
    }

    /// Whether the sanitizer is compiled in. `false` in this half.
    #[inline(always)]
    pub const fn enabled() -> bool {
        false
    }

    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn on_alloc(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn on_retire(addr: usize, channel: Channel) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn on_decrement(addr: usize, channel: Channel) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn on_dispose(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn on_free(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn check_payload(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn check_header(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn on_install(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn check_protected_read(addr: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn section_enter(inst: usize, t: Tid, protects_reads: bool) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn section_exit(inst: usize, t: Tid) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn on_protect(inst: usize, t: Tid, word: usize, life: TokenLife, in_section: bool) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn on_unprotect(inst: usize, t: Tid, key: usize) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub fn check_thread_clean() {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn on_thread_unregister(t: Tid) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn on_thread_abandon(t: Tid) {}
    /// No-op (sanitizer compiled out).
    #[inline(always)]
    pub(crate) fn on_slot_reclaimed(dead: Tid) {}
    /// No-op (sanitizer compiled out): always empty.
    #[inline(always)]
    pub fn take_leak_reports() -> Vec<String> {
        Vec::new()
    }
}

pub use imp::*;
