//! Small shared utilities.

use std::ops::{Deref, DerefMut};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::exempt;

use crate::registry::{registered_high_water_mark, Tid, MAX_THREADS};

/// Pads and aligns a value to 128 bytes so that per-thread slots sharing an
/// array never share a cache line (128 covers adjacent-line prefetchers on
/// modern x86).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in cache-line padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Per-thread tallies of paired events: an `up` (an allocation, an
/// insert) and a `down` that each answer an `up` which happened-before it
/// (its free, its remove). One cache-padded lane per possible [`Tid`],
/// written only by its thread and folded on read.
///
/// A shared `fetch_add` counter is a scalability sink: every increment
/// bounces its cache line between all writer cores. Here [`up`](Self::up)
/// and [`down`](Self::down) are a plain increment of a lane no other
/// thread writes. Lanes of exited threads keep their counts (slots are
/// recycled, not reset), so totals survive thread churn.
///
/// Folds are exact for every event that happened-before the read (a
/// join, a mutex, `cdrc`'s liveness word). Under concurrency they can
/// only over-report the net: [`totals`](Self::totals) reads every `down`
/// lane before any `up` lane, and with Acquire, so each `down` it counts
/// brings the `up` it answers into view. An interleaved or ups-first fold
/// could count a `down` whose `up` it had not yet seen, and under-report.
#[derive(Debug)]
pub struct LanePairs {
    lanes: Box<[CachePadded<Lane>]>,
}

/// One thread's `up` and `down` counts; same single writer, so they share
/// a line.
#[derive(Debug, Default)]
struct Lane {
    up: AtomicU64,
    down: AtomicU64,
}

impl LanePairs {
    /// Tallies at zero, with one lane per possible [`Tid`].
    pub fn new() -> Self {
        LanePairs {
            lanes: (0..MAX_THREADS).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Records one `up` event by thread `t`, the calling thread; returns
    /// its lane's new `up` count.
    #[inline]
    pub fn up(&self, t: Tid) -> u64 {
        Self::bump(&self.lanes[t.index()].up)
    }

    /// Records one `down` event by thread `t`, the calling thread.
    #[inline]
    pub fn down(&self, t: Tid) {
        Self::bump(&self.lanes[t.index()].down);
    }

    #[inline]
    fn bump(count: &AtomicU64) -> u64 {
        // Ordering: Relaxed load + Release store — the lane has one writer,
        // so the unfenced read-modify-write is race-free (no `lock add`).
        // Release (a plain store on x86) pairs with the Acquire in `totals`:
        // a fold that sees this count sees what its thread did before, in
        // particular the `up` a `down` answers. Exempt from model checking:
        // a modeled lane array would dwarf the protocol state space (the
        // checker's `pin_word_*` scenarios model the pin rule's fold).
        exempt(|| {
            let n = count.load(Ordering::Relaxed) + 1;
            count.store(n, Ordering::Release);
            n
        })
    }

    /// `(ups, downs)` over every lane ever used; every `down` lane is read
    /// before any `up` lane (type docs).
    pub fn totals(&self) -> (u64, u64) {
        // Lanes at index >= the registry high-water mark were never written.
        let lanes = || self.lanes.iter().take(registered_high_water_mark());
        // Ordering: Acquire — pairs with the Release store in `bump`.
        let fold = |pick: fn(&Lane) -> &AtomicU64| -> u64 {
            exempt(|| lanes().map(|l| pick(l).load(Ordering::Acquire)).sum())
        };
        let downs = fold(|l| &l.down);
        (fold(|l| &l.up), downs)
    }

    /// Ups − downs: exact when every event happened-before the call,
    /// otherwise never low (type docs).
    pub fn net(&self) -> u64 {
        let (ups, downs) = self.totals();
        ups.saturating_sub(downs)
    }
}

impl Default for LanePairs {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! announce_fn {
    ($name:ident, $atomic:ty, $int:ty) => {
        /// Publishes `val` to an announcement `slot` with a trailing
        /// store-load barrier — the idiom every protected-region section
        /// entry and hazard publication needs: the announcement must be
        /// globally visible *before* any subsequent protected load.
        ///
        /// On x86-64 the portable `store(Relaxed)` + `fence(SeqCst)` pair
        /// compiles to `mov` + `mfence`, and `mfence` is slower than a
        /// locked RMW on most microarchitectures, so there the store and
        /// fence are fused into one `SeqCst` swap (`lock xchg`, a full
        /// barrier under TSO) — crossbeam-epoch pins the same way. Both
        /// forms *are* the scheme's announcement fence and pair with the
        /// scanner-side `fence(SeqCst)`. Model-check builds always take
        /// the portable form: the fence pairing is the thing the checker
        /// must see, not the host's TSO shortcut.
        #[inline]
        pub fn $name(slot: &$atomic, val: $int) {
            #[cfg(all(target_arch = "x86_64", not(feature = "model-check")))]
            {
                // Ordering: SeqCst swap — the x86 form of the announcement
                // fence (see above); the returned previous value is
                // irrelevant.
                slot.swap(val, Ordering::SeqCst);
            }
            #[cfg(any(not(target_arch = "x86_64"), feature = "model-check"))]
            {
                // Ordering: Relaxed store + fence(SeqCst) — the portable
                // form of the announcement fence (see above).
                slot.store(val, Ordering::Relaxed);
                crate::sync::atomic::fence(Ordering::SeqCst);
            }
        }
    };
}

announce_fn!(announce_u64, AtomicU64, u64);
announce_fn!(announce_usize, crate::sync::atomic::AtomicUsize, usize);

/// Issues a best-effort prefetch of the cache line containing `addr`.
///
/// Used by the hazard-pointer scheme before announcing (paper §5.1): the
/// line starts travelling before the announcement fence stalls the pipeline.
/// On non-x86 targets this is a no-op.
#[inline]
pub fn prefetch_read(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        if addr != 0 {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                addr as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = addr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_at_least_128_bytes_and_aligned() {
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        let v = CachePadded::new(7u32);
        assert_eq!(*v, 7);
    }

    #[test]
    fn prefetch_is_safe_on_arbitrary_addresses() {
        prefetch_read(0);
        let x = 5u64;
        prefetch_read(&x as *const _ as usize);
    }

    #[test]
    fn lane_pairs_fold_across_threads() {
        let c = std::sync::Arc::new(LanePairs::new());
        let t = crate::current_tid();
        assert_eq!(c.up(t), 1);
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let t = crate::current_tid();
                    for _ in 0..100 {
                        c.up(t);
                    }
                    for _ in 0..40 {
                        c.down(t);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // Joins establish happens-before: the folds are exact here.
        assert_eq!(c.totals(), (401, 160));
        assert_eq!(c.net(), 241);
    }
}
