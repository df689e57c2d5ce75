//! HP's protection policy (paper §3.2) and the [`Hp`] alias.

use crate::engine::{eject_unless, Engine, Local, Protection, Slot};
use crate::registry::{registered_high_water_mark, Tid};
use crate::sync::atomic::{fence, AtomicUsize, Ordering};
use crate::util::{announce_usize, prefetch_read};
use crate::{sanitize, untagged, SmrConfig, TAG_MASK};

use std::collections::HashMap;

/// Protection token: the index of the announcement word holding the pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpGuard {
    index: u8,
}

/// Index of the reserved word behind `acquire`, and so the most
/// `try_acquire` words a thread can own (one bit each in the low half of
/// [`Owned::free`]). Fixed whatever `hp_slots` is: neither the hot path nor
/// a guard needs the configuration.
const RESERVED: usize = 32;

/// How many double collects a snapshot tries before it gives up.
const COLLECTS: usize = 3;

/// The low bits of a slot's version word: which announcement words are
/// held, bit `i` for word `i`.
const HELD: usize = (1 << (RESERVED + 1)) - 1;

/// One step of a version word's change count, above the [`HELD`] bits.
const CHANGE: usize = HELD + 1;

/// One thread's announcements.
#[derive(Debug)]
pub struct Words {
    /// A change count (above [`HELD`]) that the owner moves on before every
    /// store to `hazards`, so a collect that reads it twice unchanged read
    /// the hazards of one state, and the words held once that store is
    /// made (the [`HELD`] bits), so a collect reads only those. First, so
    /// that it shares a cache line with the words taken first.
    version: AtomicUsize,
    /// Untagged addresses, 0 = empty; `0..hp_slots` and [`RESERVED`] in
    /// use.
    hazards: [AtomicUsize; RESERVED + 1],
}

impl Words {
    /// Moves the version on, ahead of the hazard store that follows, and
    /// records the words `held` once that store is made. A plain owner
    /// store: only the owner (or the reaper of a dead owner) writes it.
    /// The hazard store that follows must carry it (a Release store, or a
    /// Release fence first): a collect that reads that hazard and then
    /// fences (Acquire) reads this version or a later one on its second
    /// pass.
    #[inline(always)]
    fn bump(&self, held: u64) {
        // Ordering: Relaxed load — the owner reads its own last store.
        // Release store — a collect that reads this version (Acquire) sees
        // every earlier hazard store.
        let v = self.version.load(Ordering::Relaxed);
        let next = (v & !HELD).wrapping_add(CHANGE) | held as usize;
        self.version.store(next, Ordering::Release);
    }

    /// Feeds every nonzero hazard among the words `version` says are held
    /// to `out`.
    fn held(&self, version: usize, mut out: impl FnMut(usize)) {
        let mut held = version & HELD;
        while held != 0 {
            let i = held.trailing_zeros() as usize;
            held &= held - 1;
            // Ordering: Relaxed — ordered by the fence pairing of the scan
            // or snapshot reading it, as in `reclaim`.
            let a = self.hazards[i].load(Ordering::Relaxed);
            if a != 0 {
                out(a);
            }
        }
    }
}

/// Reads thread `i`'s announcements into `out` as they stood at one
/// instant: version, hazards, version again, at most [`COLLECTS`] times.
/// A thread's hazards only ever protect its own reads (snapshots do not
/// cross threads), so each thread needs its own instant, not one shared by
/// all: a collect of one thread's few words is short, and a busy neighbour
/// does not send it round again.
fn collect_thread(eng: &Hp, i: usize, out: &mut Vec<usize>) -> bool {
    let words = &eng.slots[i].ann;
    for _ in 0..COLLECTS {
        let mark = out.len();
        // Ordering: Acquire — a version read here brings every hazard store
        // its owner made before moving it past that value.
        let before = words.version.load(Ordering::Acquire);
        words.held(before, |a| out.push(a));
        fence(Ordering::Acquire);
        // Ordering: Relaxed — ordered after the hazard loads by the fence
        // just above. The change count only grows, so an equal word means
        // nothing moved (it wraps only after 2^31 changes, far more than a
        // collect lasts).
        if words.version.load(Ordering::Relaxed) == before {
            return true;
        }
        out.truncate(mark);
    }
    false
}

/// The owner-only state HP adds to a slot.
#[derive(Debug)]
pub struct Owned {
    /// Bit `i` set = announcement word `i` is unheld: bits `0..hp_slots`
    /// for `try_acquire` (lowest first), bit [`RESERVED`] for `acquire`.
    free: u64,
    /// The words in use: `free` with nothing held.
    words: u64,
    /// Scratch multiset of current announcements, reused across scans so the
    /// scan path stops allocating once warm: per address, one count for
    /// each tag. A scan rebuilds it, then spends it: each retired copy it
    /// keeps takes one announcement off its tag's count.
    announced: HashMap<usize, [u32; TAG_MASK + 1]>,
}

/// HP's protection rule: announce each pointer before trusting it; a scan
/// keeps `min(#retired, #announced)` copies of an address under each tag.
#[derive(Debug)]
pub struct Hazards;

/// Hazard pointers in the *acquire-retire* formulation of Anderson et al. —
/// the protected-pointer scheme underlying the original CDRC, extended to
/// allow the same pointer to be retired (and hence ejected) multiple times.
///
/// Each thread owns `hp_slots` announcement slots usable by
/// [`try_acquire`](crate::AcquireRetire::try_acquire) plus one *reserved*
/// slot that makes [`acquire`](crate::AcquireRetire::acquire) total (§3.2 of
/// the paper: "we reserve a special guard / announcement slot that cannot be
/// used by `try_acquire`"). Acquiring announces the pointer and re-reads the
/// source until stable; the store-load fence this requires on every read is
/// exactly the cost that makes protected-pointer schemes slower than
/// protected-region ones (§2).
///
/// The multi-retire rule (§3.2): a scan counts how many times each address is
/// currently announced and keeps `min(#retired, #announced)` copies in the
/// retired list, ejecting the surplus. The count is kept per tag of the
/// retired address ([`retire_born`](crate::AcquireRetire::retire_born)), so
/// one hazard covers one entry under each tag. Critical sections are no-ops.
///
/// Each slot also carries a version word that its owner moves on before
/// every store to a hazard. A scan reads each word once, which proves only
/// that nobody protects the addresses it ejects. A hazard *snapshot*
/// ([`hazard_snapshot`](crate::AcquireRetire::hazard_snapshot), and
/// [`quiescent`](crate::AcquireRetire::quiescent)) is a double collect per
/// thread: version, hazards, version. If the version did not move, the
/// hazards read held at one instant, so a reader that moved from one word
/// to another during the collect is caught in one of them. If it moved, it
/// tries that thread again, at most three times in all, and then reports
/// no snapshot.
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
pub type Hp = Engine<Hazards>;

/// Announce-validate loop on word `index` of `t`'s own `words`, with the
/// words `held` (that one included); returns the validated word.
#[inline]
fn protect(eng: &Hp, t: Tid, words: &Words, index: usize, held: u64, src: &AtomicUsize) -> usize {
    let ann = &words.hazards[index];
    // Ordering: Acquire — pairs with the Release publication of the
    // pointee; this first read is only a candidate until validated.
    let mut v = src.load(Ordering::Acquire);
    loop {
        let a = untagged(v);
        if a == 0 {
            // Nothing to protect; clear any stale announcement so we do
            // not spuriously pin an unrelated object.
            // Ordering: Release — `protect` only ever runs on a word the
            // free mask says is unheld, so any value here is either already
            // 0 (cleared by `release`) or an unvalidated candidate from a
            // previous loop iteration that was never dereferenced; Release
            // is belt-and-braces (free on x86-64, a plain `mov`) so no
            // prior access can sink below the un-announcement even if a
            // caller violates the single-use guard discipline.
            words.bump(held);
            ann.store(0, Ordering::Release);
            // Null candidate: the word now protects nothing — drop any
            // stale sanitizer token held under this key.
            sanitize::on_unprotect(eng.id(), t, index);
            return v;
        }
        // Start the pointee's cache line travelling before the
        // announcement fence stalls us (§5.1).
        prefetch_read(a);
        // The hazard-publication point, HP's per-read cost (§2): the
        // announcement must be globally visible *before* the validating
        // re-read below — `announce_usize` stores and fences. Pairs with
        // the fence at the head of the frame's `sweep`: a scanner that
        // misses this announcement fenced before it, so our re-read
        // observes that scanner's pre-fence unlinks and validation fails
        // instead of trusting a retired pointer (announce-then-revalidate,
        // as in oliver-giersch/reclaim).
        words.bump(held);
        // Ordering: fence(Release) — the announcement store below is
        // Relaxed in its portable form, and must carry the version (`bump`).
        fence(Ordering::Release);
        announce_usize(ann, a);
        // Ordering: Acquire — same publication pairing as the first read;
        // ordered after the announcement by the fence above.
        let v2 = src.load(Ordering::Acquire);
        if v2 == v {
            // Validated: the word covers `a` until `release` clears it —
            // mint the matching sanitizer token under this word's key (HP
            // acquires are legal outside sections, so no section
            // requirement).
            sanitize::on_protect(
                eng.id(),
                t,
                v,
                sanitize::TokenLife::UntilRelease(index),
                false,
            );
            return v;
        }
        v = v2;
    }
}

impl Protection for Hazards {
    const NAME: &'static str = "HP";
    const PROTECTS_REGIONS: bool = false;
    const PROTECTS_SECTION_READS: bool = false;

    type Ann = Words;
    type Guard = HpGuard;
    type Birth = ();
    type Stamp = ();
    type Local = Owned;
    type Shared = ();

    fn ann() -> Words {
        Words {
            hazards: std::array::from_fn(|_| AtomicUsize::new(0)),
            version: AtomicUsize::new(0),
        }
    }

    /// The state of a slot holding no guard.
    fn local(cfg: &SmrConfig) -> Owned {
        assert!(cfg.hp_slots <= RESERVED, "hp_slots is capped at 32");
        let words = ((1 << cfg.hp_slots) - 1) | (1 << RESERVED);
        Owned {
            free: words,
            words,
            announced: HashMap::new(),
        }
    }

    // Protected-pointer scheme: sections carry no protection. The frame
    // still counts their nesting — misuse is caught in debug builds, open
    // sections are tracked for leak detection, and the outermost exit is
    // the natural batch-flush point.
    #[inline]
    fn enter(_: &Engine<Self>, _: &Words, _: &mut Local<Self>) {}

    #[inline]
    fn leave(_: &Engine<Self>, _: &Words, _: &mut Local<Self>) {}

    /// No hazard in any thread's double collect (`collect_thread`), which
    /// stops at the first thread holding one. One sweep that reads each
    /// word once would not do: a reader walking hand over hand slips past
    /// it.
    fn quiescent(eng: &Hp) -> bool {
        let mut held = Vec::new();
        let hwm = eng.sweep().count();
        (0..hwm).all(|i| collect_thread(eng, i, &mut held) && held.is_empty())
    }

    /// The double collect: after the scan fence, each thread's version,
    /// hazards and version again (`collect_thread`). A reader that moved a
    /// hazard moved its version first, so an unchanged version means the
    /// hazards read are one state of that thread: a reader walking hand
    /// over hand, publishing its next hazard in a word already read and
    /// clearing its last one in a word not yet read, moves the version and
    /// sends the collect round again.
    fn snapshot(eng: &Hp, out: &mut Vec<usize>) -> bool {
        out.clear();
        // The scan fence (`Engine::sweep`), once: every collect reads after
        // it.
        let hwm = eng.sweep().count();
        if !(0..hwm).all(|i| collect_thread(eng, i, out)) {
            return false;
        }
        if sanitize::hazard_snapshots_blind() {
            out.clear();
        }
        true
    }

    /// Clears every hazard the dead thread left published.
    unsafe fn force_close(_: &Engine<Self>, words: &Words, _: &mut Local<Self>) {
        // The reaper stands in for the dead owner, version included.
        words.bump(0);
        for ann in &words.hazards {
            // Ordering: Release — the takeover of the dead thread's retired
            // lists must not sink below the un-announcement a concurrent
            // scan may act on.
            ann.store(0, Ordering::Release);
        }
    }

    #[inline]
    fn acquire(eng: &Hp, t: Tid, slot: &Slot<Self>, src: &AtomicUsize) -> (usize, HpGuard) {
        // SAFETY: `slot` is the calling thread's own (frame invariant).
        let own = unsafe { &mut (*slot.local.get()).own };
        assert!(
            own.free & (1 << RESERVED) != 0,
            "acquire while a previous acquire is still active (Definition 3.2)"
        );
        own.free &= !(1 << RESERVED);
        let held = own.words & !own.free;
        let index = RESERVED as u8;
        (
            protect(eng, t, &slot.ann, RESERVED, held, src),
            HpGuard { index },
        )
    }

    #[inline]
    fn try_acquire(
        eng: &Hp,
        t: Tid,
        slot: &Slot<Self>,
        src: &AtomicUsize,
    ) -> Option<(usize, HpGuard)> {
        // SAFETY: `slot` is the calling thread's own (frame invariant).
        let own = unsafe { &mut (*slot.local.get()).own };
        // The `try_acquire` bits are the low half: index < `RESERVED`.
        let avail = own.free as u32;
        if avail == 0 {
            return None;
        }
        let index = avail.trailing_zeros();
        own.free &= !(1 << index);
        let held = own.words & !own.free;
        let v = protect(eng, t, &slot.ann, index as usize, held, src);
        Some((v, HpGuard { index: index as u8 }))
    }

    #[inline]
    fn release(eng: &Hp, t: Tid, slot: &Slot<Self>, guard: HpGuard) {
        let index = guard.index as usize;
        // SAFETY: `slot` is the calling thread's own (frame invariant).
        let own = unsafe { &mut (*slot.local.get()).own };
        debug_assert!(own.free & (1 << index) == 0, "double release of a guard");
        own.free |= 1 << index;
        slot.ann.bump(own.words & !own.free);
        // Ordering: Release — the guard holder's reads of the pointee are
        // sequenced before this clear and cannot sink past it, so a scanner
        // that observes the empty word knows those reads are done.
        slot.ann.hazards[index].store(0, Ordering::Release);
        sanitize::on_unprotect(eng.id(), t, index);
    }

    fn stamp(_: &Hp) {}

    /// The classic amortization bound: scan when the retired list exceeds a
    /// multiple of the total number of announcement words in use.
    fn scan_threshold(eng: &Hp) -> usize {
        let capacity = registered_high_water_mark() * (eng.cfg.hp_slots + 1);
        eng.cfg.eject_threshold.max(2 * capacity)
    }

    fn reclaim(eng: &Hp, local: &mut Local<Self>) {
        let announced = &mut local.own.announced;
        // Count current announcements per address (a multiset: the same
        // address may be announced by several guards at once), once for
        // every tag.
        announced.clear();
        eng.survey(|words| {
            // Ordering: Acquire — the held bits of the version read here
            // cover every word published before the sweep's fence (its
            // owner moved them before the store); the hazard loads are
            // ordered by the fence pairing, and a stale nonzero value only
            // pins an object longer.
            let version = words.version.load(Ordering::Acquire);
            words.held(version, |a| {
                for n in announced.entry(a).or_default() {
                    *n += 1;
                }
            });
        });
        // Keep at most `announced[addr]` copies of each retired address
        // under each tag; eject the surplus (§3.2's multi-retire
        // accounting). Per tag, because a tag is a different deferred
        // operation on the same block: a hazard spent on one entry must
        // still keep the others. The multiset is rebuilt every scan, so its
        // counts are the budget, spent in place: one lookup per retired
        // entry, none for an unannounced one beyond the miss.
        eject_unless(
            &mut local.retired,
            &mut local.ready,
            |addr, (), ()| match announced.get_mut(&untagged(addr)) {
                Some(budget) if budget[addr & TAG_MASK] > 0 => {
                    budget[addr & TAG_MASK] -= 1;
                    true
                }
                _ => false,
            },
        );
    }

    // No `over_watermark` arm: HP's garbage is bounded by construction — a
    // scan keeps at most one retired copy per *published announcement
    // word*, of which there are `hwm × (hp_slots + 1)` process-wide,
    // however long a reader stalls.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::CachePadded;
    use crate::{current_tid, AcquireRetire, GlobalEpoch, Retired};
    use std::sync::Arc;

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
        // Everything a hop touches — announcement words, their version and
        // the free mask — must sit in 128-byte lines no other thread's slot
        // reaches into.
        let hp = new_hp();
        let lines = |s: &CachePadded<Slot<Hazards>>| {
            let first = &s.ann as *const Words as usize;
            let local = s.local.get() as usize;
            let lo = first.min(local) / 128;
            let hi = (first + std::mem::size_of_val(&s.ann))
                .max(local + std::mem::size_of::<Local<Hazards>>());
            lo..=(hi - 1) / 128
        };
        for pair in hp.slots.windows(2) {
            let (a, b) = (lines(&pair[0]), lines(&pair[1]));
            assert!(a.end() < b.start(), "slots overlap: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn snapshot_covers_every_word_and_every_change_moves_a_version() {
        let hp = new_hp();
        let t = current_tid();
        let version = || hp.slots[t.index()].ann.version.load(Ordering::SeqCst) >> (RESERVED + 1);
        let (a, b) = (AtomicUsize::new(0x1000), AtomicUsize::new(0x2000));
        let mut held = Vec::new();
        assert!(hp.hazard_snapshot(&mut held));
        assert!(held.is_empty() && hp.quiescent());
        let before = version();
        let (_, ga) = hp.try_acquire(t, &a).unwrap();
        assert_eq!(version(), before + 1, "a publish moves the version");
        let (_, gb) = hp.acquire(t, &b);
        assert!(hp.hazard_snapshot(&mut held));
        held.sort_unstable();
        assert_eq!(
            held,
            [0x1000, 0x2000],
            "a try_acquire word and the reserved one"
        );
        assert!(!hp.quiescent());
        hp.release(t, ga);
        assert_eq!(version(), before + 3, "a clear moves the version");
        hp.release(t, gb);
        assert!(hp.quiescent());
        assert!(hp.hazard_snapshot(&mut held));
        assert!(held.is_empty());
    }

    #[test]
    fn a_handed_off_entry_is_adopted_at_the_next_section_exit() {
        let hp = Arc::new(new_hp());
        let src = AtomicUsize::new(0x7000);
        let t = current_tid();
        let (_, g) = hp.try_acquire(t, &src).unwrap();
        let leaver = {
            let hp = Arc::clone(&hp);
            std::thread::spawn(move || {
                let me = current_tid();
                hp.retire(me, Retired::new(0x7000, 0));
                hp.hand_off(me);
            })
        };
        leaver.join().unwrap();
        assert_eq!(hp.eject(t), None);
        hp.release(t, g);
        hp.begin_critical_section(t);
        hp.end_critical_section(t);
        assert_eq!(hp.eject(t), Some(0x7000));
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
        assert_eq!(hp.eject(t), Some(0x2000));
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
        assert_eq!(hp.eject(t), Some(0x3000));
        assert_eq!(hp.eject(t), Some(0x3000));
        assert_eq!(hp.eject(t), None, "one copy pinned by the announcement");
        hp.release(t, g);
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(0x3000));
    }

    #[test]
    fn multi_retire_keeps_min_of_retired_and_announced() {
        // k = 3 retires, j = 2 announcements: min(k, j) = 2 copies stay,
        // and the budget is per address — an unrelated announcement buys
        // nothing.
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0x3000);
        let other = AtomicUsize::new(0x5000);
        let (_, g1) = hp.try_acquire(t, &src).unwrap();
        let (_, g2) = hp.try_acquire(t, &src).unwrap();
        let (_, g3) = hp.try_acquire(t, &other).unwrap();
        for _ in 0..3 {
            hp.retire(t, Retired::new(0x3000, 0));
        }
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(0x3000));
        assert_eq!(hp.eject(t), None, "two copies pinned by two announcements");
        hp.release(t, g1);
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(0x3000));
        assert_eq!(hp.eject(t), None, "one announcement left");
        hp.release(t, g2);
        hp.release(t, g3);
        hp.flush(t);
        assert_eq!(hp.eject(t), Some(0x3000));
        assert_eq!(hp.eject(t), None, "ejected more often than retired");
    }

    #[test]
    fn one_hazard_keeps_one_copy_under_each_tag() {
        // One hazard on X, X retired once under each of three tags: each
        // tag is its own deferred operation on X, so the hazard keeps all
        // three, and they come back with their tags once it is gone.
        let hp = new_hp();
        let t = current_tid();
        let src = AtomicUsize::new(0x3000);
        let (_, g) = hp.try_acquire(t, &src).unwrap();
        for tag in 0..3 {
            hp.retire_born(t, 0x3000 | tag, ());
        }
        hp.flush(t);
        assert_eq!(hp.eject(t), None, "one hazard covers every tag");
        hp.release(t, g);
        hp.flush(t);
        let mut back: Vec<usize> = std::iter::from_fn(|| hp.eject(t)).collect();
        back.sort_unstable();
        assert_eq!(back, [0x3000, 0x3001, 0x3002]);
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
            hp.slots[t.index()].ann.hazards[RESERVED].load(Ordering::SeqCst),
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
            hp.slots[t.index()].ann.hazards[g.index as usize].load(Ordering::SeqCst),
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
