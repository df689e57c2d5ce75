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

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
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

/// A monotone event counter sharded into per-thread cache-padded lanes.
///
/// A shared `fetch_add` counter is a scalability sink: every increment
/// bounces the counter's cache line between all writer cores. Sharding by
/// [`Tid`] makes [`add`](Self::add) a contention-free increment of a lane no
/// other thread writes; [`sum`](Self::sum) folds the lanes on demand.
///
/// The sum is *eventually exact*: it observes every increment that
/// happened-before the read (e.g. via a thread join) and is monotone under
/// concurrent increments, which is all a statistics counter needs. Lanes of
/// exited threads keep their contributions (slots are recycled, not reset),
/// so totals survive thread churn.
///
/// A *pair* of counters read as a difference (`cdrc`'s allocated − freed)
/// gets one guarantee more: lanes are stored with Release and summed with
/// Acquire, so a reader that sums the subtrahend first sees, for every
/// decrement it counts, the increment that preceded it — the difference
/// can be stale only upwards.
#[derive(Debug)]
pub struct ShardedCounter {
    lanes: Box<[CachePadded<AtomicU64>]>,
}

impl ShardedCounter {
    /// A counter at zero, with one lane per possible [`Tid`].
    pub fn new() -> Self {
        ShardedCounter {
            lanes: (0..MAX_THREADS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Adds `n` to the calling thread's lane.
    #[inline]
    pub fn add(&self, t: Tid, n: u64) {
        // Ordering: Relaxed load + Release store — the lane is written only
        // by its owning thread, so the unfenced read-modify-write is
        // race-free (no `lock add` needed, unlike `fetch_add`). Release
        // (a plain store on x86) pairs with the Acquire in `sum`: whoever
        // reads this count also sees what its owner did before — in
        // particular the event on a sibling counter that this one answers.
        // Exact totals still come from an external happens-before edge
        // (thread join / test mutex / the `cdrc` liveness word).
        // Statistics, not protocol: exempt from model checking (a modeled
        // per-lane counter array would dwarf the protocol state space).
        exempt(|| {
            let lane = &self.lanes[t.index()];
            lane.store(lane.load(Ordering::Relaxed) + n, Ordering::Release);
        });
    }

    /// Folds all lanes ever used into a total.
    pub fn sum(&self) -> u64 {
        // Ordering: Acquire — pairs with the Release store in `add` (see
        // there). Each lane is monotone, so any interleaving of lane reads
        // yields a value between "all increments that happened-before this
        // call" and "all increments so far".
        // Lanes at index >= the registry high-water mark were never written.
        exempt(|| {
            self.lanes
                .iter()
                .take(registered_high_water_mark())
                .map(|lane| lane.load(Ordering::Acquire))
                .sum()
        })
    }
}

impl Default for ShardedCounter {
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
        assert_eq!(v.into_inner(), 7);
    }

    #[test]
    fn prefetch_is_safe_on_arbitrary_addresses() {
        prefetch_read(0);
        let x = 5u64;
        prefetch_read(&x as *const _ as usize);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = std::sync::Arc::new(ShardedCounter::new());
        c.add(crate::current_tid(), 3);
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let t = crate::current_tid();
                    for _ in 0..100 {
                        c.add(t, 1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // Joins establish happens-before: the sum is exact here.
        assert_eq!(c.sum(), 403);
    }
}
