//! Traversal parity guard: a count-free snapshot hop must cost about what a
//! manual hop costs (paper Fig. 13a — under a region scheme `get_snapshot`
//! is a plain load; under hazard pointers it is the same announcement).
//! It only does while a traversal's snapshots stay in registers, which one
//! `&SnapshotPtr` handed to a function that is not inlined undoes (see the
//! no-escape invariant on `cdrc::SnapshotPtr`).
//!
//! Both lists are timed in this process, so the *ratio* is immune to how
//! fast the machine happens to be; a test fails if the RC list's hop is
//! more than 1.6× the manual list's. Meaningful in optimized builds only:
//!
//! ```text
//! cargo test --release -p lockfree --test traversal_parity
//! ```

use std::time::{Duration, Instant};

use cdrc::{EbrScheme, HpScheme};
use lockfree::manual::HarrisMichaelList;
use lockfree::rc::RcHarrisMichaelList;
use lockfree::ConcurrentMap;

const NODES: u64 = 1_000;
const OPS_PER_GUARD: usize = 64;
const TRIALS: usize = 7;
const TRIAL: Duration = Duration::from_millis(100);
const MAX_RATIO: f64 = 1.6;

/// splitmix64: the test owns its stream so both lists see the same keys.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills both lists in one shuffled order, alternating between them: the
/// nodes of the two interleave in memory, so both walks miss the same
/// caches and the ratio compares the hops' instructions, not node sizes.
/// (Ascending order would lay each list out contiguously.)
fn prefill(a: &impl ConcurrentMap<u64, u64>, b: &impl ConcurrentMap<u64, u64>) {
    let mut keys: Vec<u64> = (0..NODES).collect();
    let mut rng = 0x5EED_u64;
    for i in (1..keys.len()).rev() {
        keys.swap(i, (next(&mut rng) % (i as u64 + 1)) as usize);
    }
    for k in keys {
        assert!(a.insert(k, k) && b.insert(k, k));
    }
}

/// Best-of-`TRIALS` nanoseconds per hop of uniform `get`s, one guard per
/// `OPS_PER_GUARD` operations. A hit on key `k` walks `k + 1` nodes.
fn ns_per_hop<M: ConcurrentMap<u64, u64>>(map: &M) -> f64 {
    let mut best = f64::INFINITY;
    let mut rng = 0xC0FFEE_u64;
    for _ in 0..TRIALS {
        let (mut hops, start) = (0u64, Instant::now());
        while start.elapsed() < TRIAL {
            let guard = map.pin();
            for _ in 0..OPS_PER_GUARD {
                let k = next(&mut rng) % NODES;
                assert_eq!(std::hint::black_box(map.get_with(&k, &guard)), Some(k));
                hops += k + 1;
            }
        }
        best = best.min(start.elapsed().as_nanos() as f64 / hops as f64);
    }
    best
}

/// RC ÷ manual nanoseconds per hop, printed with both sides.
fn ratio(
    name: &str,
    rc: &impl ConcurrentMap<u64, u64>,
    manual: &impl ConcurrentMap<u64, u64>,
) -> f64 {
    prefill(rc, manual);
    let (rc_ns, manual_ns) = (ns_per_hop(rc), ns_per_hop(manual));
    let ratio = rc_ns / manual_ns;
    println!("traversal_parity: {name}: rc {rc_ns:.2} ns/hop, manual {manual_ns:.2} ns/hop, ratio {ratio:.2}");
    ratio
}

/// One test, so the two pairs are timed one after the other.
#[test]
fn rc_hop_costs_about_a_manual_hop() {
    if cfg!(debug_assertions) {
        println!("traversal_parity: skipped (debug assertions on; run with --release)");
        return;
    }
    let ebr = ratio(
        "ebr",
        &RcHarrisMichaelList::<u64, u64, EbrScheme>::new(),
        &HarrisMichaelList::<u64, u64, smr::Ebr>::new(),
    );
    let hp = ratio(
        "hp",
        &RcHarrisMichaelList::<u64, u64, HpScheme>::new(),
        &HarrisMichaelList::<u64, u64, smr::Hp>::new(),
    );
    assert!(
        ebr <= MAX_RATIO && hp <= MAX_RATIO,
        "an RC hop costs more than {MAX_RATIO}x a manual hop: ebr {ebr:.2}x, hp {hp:.2}x"
    );
}
