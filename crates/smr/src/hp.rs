//! Hazard pointers in the *acquire-retire* formulation of Anderson et al. —
//! the protected-pointer scheme underlying the original CDRC, extended to
//! allow the same pointer to be retired (and hence ejected) multiple times.
//!
//! Each thread owns `hp_slots` announcement slots usable by
//! [`try_acquire`](crate::AcquireRetire::try_acquire) plus one *reserved*
//! slot that makes [`acquire`](crate::AcquireRetire::acquire) total (§3.2 of
//! the paper: "we reserve a special guard / announcement slot that cannot be
//! used by `try_acquire`"). Acquiring announces the pointer and re-reads the
//! source until stable; the store-load fence this requires on every read is
//! exactly the cost that makes protected-pointer schemes slower than
//! protected-region ones (§2).
//!
//! The multi-retire rule (§3.2): a scan counts how many times each address is
//! currently announced and keeps `min(#retired, #announced)` copies in the
//! retired list, ejecting the surplus. Critical sections are no-ops.

use crate::registry::{beat, registered_high_water_mark, Tid, MAX_THREADS};
use crate::util::{announce_usize, prefetch_read, CachePadded};
use crate::{untagged, AcquireRetire, ExitHook, GlobalEpoch, Retired, SmrConfig};

use crate::sync::atomic::{fence, AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Protection token: the index of the announcement word holding the pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpGuard {
    index: u8,
}

/// Index of the reserved word behind `acquire`, and so the most
/// `try_acquire` words a thread can own (one bit each in the low half of
/// [`Local::free`]). Fixed whatever `hp_slots` is: neither the hot path nor
/// a guard needs the configuration.
const RESERVED: usize = 32;

struct Local {
    /// Bit `i` set = announcement word `i` is unheld: bits `0..hp_slots`
    /// for `try_acquire` (lowest first), bit [`RESERVED`] for `acquire`.
    free: u64,
    retired: Vec<Retired>,
    ready: VecDeque<Retired>,
    depth: u32,
    /// Retired-list length at which the next automatic scan fires (spaced a
    /// full threshold past the previous scan's survivors, so a pinned list
    /// never degenerates to a scan per retire).
    next_scan: usize,
    /// Scratch multiset of current announcements, reused across scans so the
    /// scan path stops allocating once warm.
    announced: HashMap<usize, usize>,
    /// Scratch per-address kept-copy counts, reused likewise.
    kept_counts: HashMap<usize, usize>,
}

/// One thread's announcements and bookkeeping, inline in one `CachePadded`
/// block: no part shares a 128-byte line with a neighbouring thread's (as
/// separately boxed words and free lists did, by `malloc`'s coin toss).
struct Slot {
    /// Untagged addresses, 0 = empty; `0..hp_slots` and [`RESERVED`] in use.
    anns: [AtomicUsize; RESERVED + 1],
    local: UnsafeCell<Local>,
}

impl Slot {
    /// The words a scan must read.
    fn in_use(&self, hp_slots: usize) -> impl Iterator<Item = &AtomicUsize> {
        self.anns[..hp_slots].iter().chain([&self.anns[RESERVED]])
    }
}

/// Hazard-pointer acquire-retire instance.
///
/// # Examples
///
/// ```
/// use smr::{AcquireRetire, GlobalEpoch, Hp, Retired};
/// use std::sync::atomic::AtomicUsize;
/// use std::sync::Arc;
///
/// let hp = Hp::new(Arc::new(GlobalEpoch::new()), Hp::default_config());
/// let t = smr::current_tid();
/// let shared = AtomicUsize::new(0x1000);
///
/// hp.begin_critical_section(t); // no-op, uniform discipline
/// let (value, guard) = hp.try_acquire(t, &shared).expect("slots available");
/// assert_eq!(value, 0x1000);
/// hp.release(t, guard);
/// hp.end_critical_section(t);
/// ```
//
// Safety invariant: `Slot::local` is only accessed by the owning thread (or
// under `drain_all` exclusivity); `Slot::anns` is written by the owner and
// read by scanning threads.
pub struct Hp {
    cfg: SmrConfig,
    slots: Box<[CachePadded<Slot>; MAX_THREADS]>,
    exit_hook: OnceLock<ExitHook>,
}

unsafe impl Send for Hp {}
unsafe impl Sync for Hp {}

impl Hp {
    #[inline(always)]
    fn slot(&self, t: Tid) -> &Slot {
        &self.slots[t.index()]
    }

    #[inline]
    fn local(&self, t: Tid) -> *mut Local {
        self.slot(t).local.get()
    }

    /// Announce-validate loop on word `index` of `t`'s slot; returns the
    /// validated word.
    #[inline]
    fn protect(&self, t: Tid, slot: &Slot, index: usize, src: &AtomicUsize) -> usize {
        let ann = &slot.anns[index];
        // Ordering: Acquire — pairs with the Release publication of the
        // pointee; this first read is only a candidate until validated.
        let mut v = src.load(Ordering::Acquire);
        loop {
            let a = untagged(v);
            if a == 0 {
                // Nothing to protect; clear any stale announcement so we do
                // not spuriously pin an unrelated object.
                // Ordering: Release — `protect` only ever runs on a slot
                // the free mask says is unheld, so any
                // value here is either already 0 (cleared by `release`) or
                // an unvalidated candidate from a previous loop iteration
                // that was never dereferenced; Release is belt-and-braces
                // (free on x86-64, a plain `mov`) so no prior access can
                // sink below the un-announcement even if a caller violates
                // the single-use guard discipline.
                ann.store(0, Ordering::Release);
                // Null candidate: the slot now protects nothing — drop any
                // stale sanitizer token held under this key.
                crate::sanitize::on_unprotect(self as *const Self as usize, t, index);
                return v;
            }
            if self.cfg.prefetch {
                // Start the pointee's cache line travelling before the
                // announcement fence stalls us (§5.1).
                prefetch_read(a);
            }
            // The hazard-publication point, HP's per-read cost (§2): the
            // announcement must be globally visible *before* the validating
            // re-read below — `announce_usize` stores and fences. Pairs
            // with the fence at the head of `scan`: a scanner that misses
            // this announcement fenced before it, so our re-read observes
            // that scanner's pre-fence unlinks and validation fails instead
            // of trusting a retired pointer (announce-then-revalidate, as
            // in oliver-giersch/reclaim).
            announce_usize(ann, a);
            // Ordering: Acquire — same publication pairing as the first
            // read; ordered after the announcement by the fence above.
            let v2 = src.load(Ordering::Acquire);
            if v2 == v {
                // Validated: the hazard slot covers `a` until `release`
                // clears it — mint the matching sanitizer token under this
                // slot's key (HP acquires are legal outside sections, so no
                // section requirement).
                crate::sanitize::on_protect(
                    self as *const Self as usize,
                    t,
                    v,
                    crate::sanitize::TokenLife::UntilRelease(index),
                    false,
                );
                return v;
            }
            v = v2;
        }
    }

    /// The classic amortization bound: scan when the retired list exceeds a
    /// multiple of the total number of announcement slots in use.
    fn scan_threshold(&self) -> usize {
        let capacity = registered_high_water_mark() * (self.cfg.hp_slots + 1);
        self.cfg.eject_threshold.max(2 * capacity)
    }

    fn scan(&self, local: &mut Local) {
        crate::fault::on_scan();
        // Ordering: fence(SeqCst) — pairs with the publication fence in
        // `protect`: any announcement we miss below was published after
        // this fence, so its owner's validating re-read sees our caller's
        // unlinks and rejects the pointer. See `protect`.
        fence(Ordering::SeqCst);
        // Count current announcements per address (a multiset: the same
        // address may be announced by several guards at once). The scratch
        // maps live in `Local` so a warm scan allocates nothing.
        let Local {
            announced,
            kept_counts,
            retired,
            ready,
            ..
        } = local;
        announced.clear();
        for slot in self.slots.iter().take(registered_high_water_mark()) {
            for ann in slot.in_use(self.cfg.hp_slots) {
                // Ordering: Relaxed — ordered by the fence pairing above; a
                // stale nonzero value only pins an object longer.
                let a = ann.load(Ordering::Relaxed);
                if a != 0 {
                    *announced.entry(a).or_insert(0) += 1;
                }
            }
        }
        // Keep at most `announced[addr]` copies of each retired address;
        // eject the surplus (§3.2's multi-retire accounting). Retained in
        // place: no rebuild allocation.
        kept_counts.clear();
        retired.retain(|r| {
            let budget = announced.get(&r.addr).copied().unwrap_or(0);
            let kept_so_far = kept_counts.entry(r.addr).or_insert(0);
            if *kept_so_far < budget {
                *kept_so_far += 1;
                true
            } else {
                ready.push_back(*r);
                false
            }
        });
        local.next_scan = local.retired.len() + self.scan_threshold();
    }
}

unsafe impl AcquireRetire for Hp {
    type Guard = HpGuard;

    const PROTECTS_REGIONS: bool = false;

    fn new(_clock: Arc<GlobalEpoch>, config: SmrConfig) -> Self {
        assert!(config.hp_slots <= RESERVED, "hp_slots is capped at 32");
        let slots: Box<[CachePadded<Slot>]> = (0..MAX_THREADS)
            .map(|_| {
                CachePadded::new(Slot {
                    anns: std::array::from_fn(|_| AtomicUsize::new(0)),
                    local: UnsafeCell::new(Local {
                        free: all_free(config.hp_slots),
                        retired: Vec::new(),
                        ready: VecDeque::new(),
                        depth: 0,
                        next_scan: 0,
                        announced: HashMap::new(),
                        kept_counts: HashMap::new(),
                    }),
                })
            })
            .collect();
        Hp {
            cfg: config,
            slots: slots.try_into().ok().expect("MAX_THREADS slots collected"),
            exit_hook: OnceLock::new(),
        }
    }

    fn scheme_name() -> &'static str {
        "HP"
    }

    #[inline]
    fn begin_critical_section(&self, t: Tid) {
        // Protected-pointer scheme: regions carry no protection, but we keep
        // the nesting count so misuse is caught in debug builds.
        let local = unsafe { &mut *self.local(t) };
        local.depth += 1;
        if local.depth == 1 {
            beat(t);
            crate::fault::on_section_entry(t);
            // Sanitizer shadow: HP sections protect nothing — only hazard
            // tokens (minted in `protect`) cover reads — but the open
            // section is still tracked for leak detection.
            crate::sanitize::section_enter(self as *const Self as usize, t, false);
        }
    }

    #[inline]
    fn end_critical_section(&self, t: Tid) {
        // Scoped: the hook below may re-enter `retire`/`eject`, which take
        // their own `&mut Local` — the borrow must be dead by then.
        let outermost = {
            let local = unsafe { &mut *self.local(t) };
            debug_assert!(local.depth > 0, "end_critical_section without begin");
            local.depth -= 1;
            local.depth == 0
        };
        if outermost {
            beat(t);
            crate::sanitize::section_exit(self as *const Self as usize, t);
            // Sections carry no protection here, but the depth count still
            // marks operation boundaries — the natural batch-flush point.
            // Hazard announcements are per-pointer, so hook-issued retires
            // need no extra care.
            if let Some(h) = self.exit_hook.get() {
                h.invoke(t);
            }
        }
    }

    fn set_exit_hook(&self, hook: ExitHook) {
        let _ = self.exit_hook.set(hook);
    }

    #[inline]
    fn birth_epoch(&self, _t: Tid) -> u64 {
        0
    }

    #[inline]
    fn acquire(&self, t: Tid, src: &AtomicUsize) -> (usize, Self::Guard) {
        let slot = self.slot(t);
        let local = unsafe { &mut *slot.local.get() };
        assert!(
            local.free & (1 << RESERVED) != 0,
            "acquire while a previous acquire is still active (Definition 3.2)"
        );
        local.free &= !(1 << RESERVED);
        let index = RESERVED as u8;
        (self.protect(t, slot, RESERVED, src), HpGuard { index })
    }

    #[inline]
    fn try_acquire(&self, t: Tid, src: &AtomicUsize) -> Option<(usize, Self::Guard)> {
        let slot = self.slot(t);
        let local = unsafe { &mut *slot.local.get() };
        // The `try_acquire` bits are the low half: index < `RESERVED`.
        let avail = local.free as u32;
        if avail == 0 {
            return None;
        }
        let index = avail.trailing_zeros();
        local.free &= !(1 << index);
        let v = self.protect(t, slot, index as usize, src);
        Some((v, HpGuard { index: index as u8 }))
    }

    #[inline]
    fn release(&self, t: Tid, guard: Self::Guard) {
        let slot = self.slot(t);
        let index = guard.index as usize;
        // Ordering: Release — the guard holder's reads of the pointee are
        // sequenced before this clear and cannot sink past it, so a scanner
        // that observes the empty slot knows those reads are done.
        slot.anns[index].store(0, Ordering::Release);
        crate::sanitize::on_unprotect(self as *const Self as usize, t, index);
        let local = unsafe { &mut *slot.local.get() };
        debug_assert!(local.free & (1 << index) == 0, "double release of a guard");
        local.free |= 1 << index;
    }

    fn retire(&self, t: Tid, r: Retired) {
        let local = unsafe { &mut *self.local(t) };
        local.retired.push(r);
        // Threshold-spaced scans: see `Local::next_scan`.
        if local.retired.len() >= self.scan_threshold().max(local.next_scan) {
            self.scan(local);
        }
    }

    #[inline]
    fn eject(&self, t: Tid) -> Option<Retired> {
        let local = unsafe { &mut *self.local(t) };
        local.ready.pop_front()
    }

    #[inline]
    fn has_ready(&self, t: Tid) -> bool {
        !unsafe { &*self.local(t) }.ready.is_empty()
    }

    fn quiescent(&self) -> bool {
        // Ordering: fence(SeqCst) — pairs with the publication fence in
        // `protect`, as in `scan`: a hazard we miss below was published
        // after this fence, so its owner's validating re-read sees the
        // caller's unlinks and rejects the pointer.
        fence(Ordering::SeqCst);
        self.slots
            .iter()
            .take(registered_high_water_mark())
            // Ordering: Relaxed — the fence pairing above carries the
            // visibility argument, exactly as in `scan`.
            .all(|slot| {
                slot.in_use(self.cfg.hp_slots)
                    .all(|ann| ann.load(Ordering::Relaxed) == 0)
            })
    }

    fn flush(&self, t: Tid) {
        let local = unsafe { &mut *self.local(t) };
        self.scan(local);
    }

    unsafe fn drain_all(&self) -> Vec<Retired> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let local = &mut *slot.local.get();
            out.append(&mut local.retired);
            out.extend(local.ready.drain(..));
        }
        out
    }

    // No `max_garbage` hatch: HP's garbage is bounded by construction — a
    // scan keeps at most one retired copy per *published announcement word*,
    // of which there are `hwm × (hp_slots + 1)` process-wide, however long a
    // reader stalls.
    unsafe fn reclaim_slot(&self, dead: Tid, into: Tid) {
        debug_assert_ne!(dead, into, "cannot reclaim a slot into itself");
        let (retired, ready) = {
            let dead_local = &mut *self.local(dead);
            dead_local.depth = 0;
            dead_local.free = all_free(self.cfg.hp_slots);
            dead_local.next_scan = 0;
            (
                std::mem::take(&mut dead_local.retired),
                std::mem::take(&mut dead_local.ready),
            )
        };
        // Clear every hazard the dead thread left published. Sound because
        // the owner is dead: no validated read through these announcements
        // can ever be consumed.
        for ann in self.slots[dead.index()].anns.iter() {
            // Ordering: Release — the takeover of the dead thread's retired
            // lists above must not sink below the un-announcement a
            // concurrent scan may act on.
            ann.store(0, Ordering::Release);
        }
        let local = &mut *self.local(into);
        local.retired.extend(retired);
        local.ready.extend(ready);
        self.scan(local);
    }
}

/// The free mask of a slot holding no guard.
fn all_free(hp_slots: usize) -> u64 {
    ((1 << hp_slots) - 1) | (1 << RESERVED)
}

impl fmt::Debug for Hp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hp")
            .field("hp_slots", &self.cfg.hp_slots)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::current_tid;

    fn new_hp() -> Hp {
        Hp::new(Arc::new(GlobalEpoch::new()), Hp::default_config())
    }

    #[test]
    fn try_acquire_exhausts_and_recovers_slots() {
        let cfg = SmrConfig {
            hp_slots: 2,
            ..Hp::default_config()
        };
        let hp = Hp::new(Arc::new(GlobalEpoch::new()), cfg);
        let t = current_tid();
        let src = AtomicUsize::new(0x1000);
        let (_, g1) = hp.try_acquire(t, &src).unwrap();
        let (_, g2) = hp.try_acquire(t, &src).unwrap();
        assert!(hp.try_acquire(t, &src).is_none(), "out of slots");
        // The reserved slot still works.
        let (_, gr) = hp.acquire(t, &src);
        hp.release(t, gr);
        hp.release(t, g1);
        assert!(hp.try_acquire(t, &src).is_some());
        hp.release(t, g2);
    }

    #[test]
    fn adjacent_slots_share_no_cache_line() {
        // Everything a hop touches — announcement words and the free mask —
        // must sit in 128-byte lines no other thread's slot reaches into.
        let hp = new_hp();
        let lines = |s: &CachePadded<Slot>| {
            let first = s.anns.as_ptr() as usize;
            let local = s.local.get() as usize;
            let lo = first.min(local) / 128;
            let hi =
                (first + std::mem::size_of_val(&s.anns)).max(local + std::mem::size_of::<Local>());
            lo..=(hi - 1) / 128
        };
        for pair in hp.slots.windows(2) {
            let (a, b) = (lines(&pair[0]), lines(&pair[1]));
            assert!(a.end() < b.start(), "slots overlap: {a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "previous acquire")]
    fn double_acquire_panics() {
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0);
        let (_, _g) = hp.acquire(t, &src);
        let _ = hp.acquire(t, &src);
    }

    #[test]
    fn announced_pointer_is_not_ejected() {
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0x2000);
        let (_, g) = hp.try_acquire(t, &src).unwrap();
        hp.retire(t, Retired::new(0x2000, 0));
        hp.flush(t);
        assert_eq!(hp.eject(t), None, "announced pointer must stay");
        hp.release(t, g);
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(Retired::new(0x2000, 0)));
    }

    #[test]
    fn multi_retire_keeps_only_announced_count() {
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0x3000);
        let (_, g) = hp.try_acquire(t, &src).unwrap();
        // Three retires, one announcement: two copies must eject.
        for _ in 0..3 {
            hp.retire(t, Retired::new(0x3000, 0));
        }
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(Retired::new(0x3000, 0)));
        assert_eq!(hp.eject(t), Some(Retired::new(0x3000, 0)));
        assert_eq!(hp.eject(t), None, "one copy pinned by the announcement");
        hp.release(t, g);
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(Retired::new(0x3000, 0)));
    }

    #[test]
    fn acquire_validates_against_concurrent_update() {
        // Single-threaded simulation of the retry: the value changes between
        // the first read and validation via a sneaky AtomicUsize alias.
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0x4000);
        let (v, g) = hp.acquire(t, &src);
        assert_eq!(v, 0x4000);
        assert_eq!(
            hp.slots[t.index()].anns[RESERVED].load(Ordering::SeqCst),
            0x4000
        );
        hp.release(t, g);
    }

    #[test]
    fn tagged_pointers_are_announced_untagged() {
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0x5000 | 1);
        let (v, g) = hp.try_acquire(t, &src).unwrap();
        assert_eq!(v, 0x5000 | 1, "value keeps its tag");
        assert_eq!(
            hp.slots[t.index()].anns[g.index as usize].load(Ordering::SeqCst),
            0x5000,
            "announcement is untagged"
        );
        // A retire of the untagged address is blocked by the tagged acquire.
        hp.retire(t, Retired::new(0x5000, 0));
        hp.flush(t);
        assert_eq!(hp.eject(t), None);
        hp.release(t, g);
        hp.flush(t);
        assert!(hp.eject(t).is_some());
    }

    #[test]
    fn null_acquire_allocates_and_releases_guard() {
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0);
        let (v, g) = hp.try_acquire(t, &src).unwrap();
        assert_eq!(v, 0);
        hp.release(t, g);
    }

    #[test]
    fn cross_thread_announcement_blocks_eject() {
        use std::sync::mpsc;
        let hp = Arc::new(new_hp());
        let src = Arc::new(AtomicUsize::new(0x6000));
        let (tx, rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let hp = Arc::clone(&hp);
            let src = Arc::clone(&src);
            std::thread::spawn(move || {
                let rt = current_tid();
                let (_, g) = hp.try_acquire(rt, &src).unwrap();
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
                hp.release(rt, g);
            })
        };
        rx.recv().unwrap();
        let t = current_tid();
        hp.retire(t, Retired::new(0x6000, 0));
        hp.flush(t);
        assert_eq!(hp.eject(t), None, "other thread's announcement protects");
        done_tx.send(()).unwrap();
        reader.join().unwrap();
        hp.flush(t);
        assert!(hp.eject(t).is_some());
    }
}
