//! Parked control blocks go back to the global allocator with their domain.
//!
//! A freed block is parked on its freeing thread's lane of the domain for
//! that thread's next allocation of the same layout, so it leaves the heap
//! only when the domain is torn down — by then its thread may long have
//! exited. A counting global allocator checks that every byte comes back,
//! under all four schemes, and that the parked blocks still count as freed.
//!
//! The binary holds one test: the allocator counts the whole process, so
//! nothing may allocate beside it.
//!
//! It keeps two counts: all live bytes, and the live bytes of allocations
//! with a block layout of the test's payloads. Under the `sanitize` feature
//! only the second is checked: the sanitizer keeps a shadow entry for
//! every block address it has seen, so its table grows with the addresses
//! a run happens to get.

use std::alloc::{GlobalAlloc, Layout, System};

use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme, SharedPtr};
use smr::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Bytes the process holds from the allocator right now.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The part of `LIVE` in allocations of a size in `BLOCK_SIZES`.
static BLOCK_LIVE: AtomicIsize = AtomicIsize::new(0);
/// The block sizes of the payloads `round` allocates, under the scheme at
/// hand.
static BLOCK_SIZES: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];

struct Counting;

impl Counting {
    fn count(layout: Layout, sign: isize) {
        let bytes = sign * layout.size() as isize;
        LIVE.fetch_add(bytes, Ordering::SeqCst);
        let block = layout.align() == std::mem::align_of::<u64>()
            && BLOCK_SIZES
                .iter()
                .any(|s| s.load(Ordering::SeqCst) == layout.size());
        if block {
            BLOCK_LIVE.fetch_add(bytes, Ordering::SeqCst);
        }
    }
}

// Safety: forwards to `System`; the counting has no effect on the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::count(layout, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        Self::count(layout, -1);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// More blocks per size than a lane parks, so every list fills and the
/// rest go straight back.
const BLOCKS: u64 = 300;

/// Allocates and frees `BLOCKS` blocks of `T` twice, the second time from
/// what the first parked; `allocated() == freed()` whenever nothing is
/// alive.
fn churn<T, S: Scheme>(d: &DomainRef<S>, value: impl Fn(u64) -> T) {
    let t = smr::current_tid();
    for _ in 0..2 {
        let blocks: Vec<_> = (0..BLOCKS)
            .map(|i| SharedPtr::new_in(value(i), d))
            .collect();
        assert_eq!(d.allocated() - d.freed(), BLOCKS);
        drop(blocks);
        d.process_deferred(t);
        assert_eq!(d.allocated(), d.freed(), "{}", S::scheme_name());
    }
}

/// One domain, used by one thread that exits before the domain goes.
fn round<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            // Blocks of 32, 56 and 128 bytes under EBR (8 more under IBR),
            // and one size no list holds.
            churn(&d, |i| i);
            churn(&d, |i| [i; 4]);
            churn(&d, |i| [i; 13]);
            churn(&d, |i| [i; 32]);
        })
        .join()
        .unwrap()
    });
    assert_eq!(d.allocated(), 8 * BLOCKS);
    assert_eq!(d.allocated(), d.freed(), "{}", S::scheme_name());
    drop(d);
    // The dead domain's reaper still holds the core's memory: run the
    // reaper chain once, which prunes it.
    let dead = std::thread::spawn(smr::abandon_current_slot)
        .join()
        .unwrap();
    // Safety: the slot's thread was joined.
    assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
}

fn heap_returns_to_baseline<S: Scheme>() {
    let sizes = [
        cdrc::block_layout::<u64, S>().0,
        cdrc::block_layout::<[u64; 4], S>().0,
        cdrc::block_layout::<[u64; 13], S>().0,
        cdrc::block_layout::<[u64; 32], S>().0,
    ];
    for (slot, size) in BLOCK_SIZES.iter().zip(sizes) {
        slot.store(size, Ordering::SeqCst);
    }
    // The first round sets up what stays for the process: the thread
    // registry's statics, the reaper list's capacity.
    round::<S>();
    let before = (
        LIVE.load(Ordering::SeqCst),
        BLOCK_LIVE.load(Ordering::SeqCst),
    );
    round::<S>();
    let left = (
        LIVE.load(Ordering::SeqCst) - before.0,
        BLOCK_LIVE.load(Ordering::SeqCst) - before.1,
    );
    let name = S::scheme_name();
    assert_eq!(left.1, 0, "{name}: block bytes left after the domain went");
    if !cfg!(feature = "sanitize") {
        assert_eq!(left.0, 0, "{name}: heap bytes left after the domain went");
    }
}

#[test]
fn dropping_a_domain_returns_its_parked_blocks_all_schemes() {
    heap_returns_to_baseline::<EbrScheme>();
    heap_returns_to_baseline::<IbrScheme>();
    heap_returns_to_baseline::<HpScheme>();
    heap_returns_to_baseline::<HyalineScheme>();
}
