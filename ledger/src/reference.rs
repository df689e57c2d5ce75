//! The reference cell: a workload's key streams, op mix and worker loop on
//! a bare structure that has the workload's bottleneck and nothing else —
//! no nodes to allocate, nothing to reclaim, and nothing of the measured
//! crates but the `ConcurrentMap` trait.
//!
//! This box is a few cores of a shared host, and what those cores do in a
//! second drifts by 10–30 % over minutes with what the host's other tenants
//! do: the same binary read 5.6, then 3.9, then 5.5 Mop/s on `kv_zipf`
//! within an hour, and `list_scan`, whose whole working set sits in the
//! first-level cache, lost a fifth for the last two of ten runs. Whatever
//! is bound by the processor's clock drifts together. A workload with a
//! reference cell runs it in every round beside the measured cells and
//! reports each round's throughput and latency *at the reference's nominal
//! speed*: `measured × reference_mops ÷ the reference's reading of that
//! round`. A change to the measured crates moves the measured side alone.
//!
//! A reference must answer to the machine as the measured cells do, or it
//! adds its own noise instead of removing theirs: `kv_cold_read` under a
//! [`DenseMap`] (independent misses that overlap, against the real table's
//! dependent ones) spread 8–15 % where it spread 3–6 % as measured, and
//! reaching the words through three dependent random loads did not help:
//! lookups of independent keys still overlap four deep. So
//! `kv_zipf` (instruction-bound) has the dense array, `list_scan`
//! (load-to-use-bound) the chain, and `kv_cold_read` (memory-bound) and
//! `queue_weak` (bound by line transfers between two cores) have none and
//! are reported as measured.

use std::sync::Arc;

use lockfree::ConcurrentMap;
use smr::sync::atomic::{AtomicU64, Ordering};

use crate::cell::Cell;
use crate::driver::KEY_STRIDE;
use crate::gen::{prefill_keys, stream_seed, Rng};
use crate::workload::{manual_map, Shape, Workload};

/// One atomic word per possible key, 0 for absent and `value + 1` for
/// present: the cheapest correct concurrent map over a dense key space.
#[derive(Debug)]
pub struct DenseMap {
    slots: Box<[AtomicU64]>,
}

fn insert(slot: &AtomicU64, v: u64) -> bool {
    slot.compare_exchange(0, v + 1, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

fn remove(slot: &AtomicU64) -> bool {
    slot.swap(0, Ordering::SeqCst) != 0
}

fn get(slot: &AtomicU64) -> Option<u64> {
    slot.load(Ordering::SeqCst).checked_sub(1)
}

impl DenseMap {
    /// A map over the keys `0..keys`.
    pub fn new(keys: usize) -> Self {
        DenseMap {
            slots: (0..keys).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl ConcurrentMap<u64, u64> for DenseMap {
    type Guard = ();
    fn pin(&self) {}
    fn insert_with(&self, k: u64, v: u64, _: &()) -> bool {
        insert(&self.slots[k as usize], v)
    }
    fn remove_with(&self, k: &u64, _: &()) -> bool {
        remove(&self.slots[*k as usize])
    }
    fn get_with(&self, k: &u64, _: &()) -> Option<u64> {
        get(&self.slots[*k as usize])
    }
    fn in_flight_nodes(&self) -> u64 {
        0
    }
}

/// Keys per link of a [`ChainMap`]: with the shared keys `KEY_STRIDE`
/// apart, a key range of 2 000 makes 1 000 links and an operation walks 500
/// of them on average — the hops of the real list with 1 000 keys present.
const GROUP: usize = 2 * KEY_STRIDE as usize;

/// A [`DenseMap`] whose words are reached by walking: the words of `GROUP`
/// consecutive keys sit in one link, and an operation on key `k` follows
/// `k / GROUP` `next` indices from the head before it touches its word.
/// Links lie in seeded-shuffled order, as the nodes of a list filled in
/// shuffled order do, so the walk is a chain of dependent loads.
#[derive(Debug)]
pub struct ChainMap {
    links: Box<[Link]>,
    head: u32,
}

#[derive(Debug)]
struct Link {
    next: u32,
    slots: [AtomicU64; GROUP],
}

impl ChainMap {
    /// A map over the keys `0..keys`, its links placed by `seed`.
    pub fn new(keys: usize, seed: u64) -> Self {
        let n = keys.div_ceil(GROUP);
        // `place[i]` is where the `i`-th link of the chain lies.
        let mut place: Vec<u32> = (0..n as u32).collect();
        Rng::new(stream_seed(seed, &[0x4348_4149])).shuffle(&mut place);
        let mut next = vec![0u32; n];
        for i in 0..n.saturating_sub(1) {
            next[place[i] as usize] = place[i + 1];
        }
        ChainMap {
            head: place[0],
            links: next
                .into_iter()
                .map(|next| Link {
                    next,
                    slots: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    fn slot(&self, k: u64) -> &AtomicU64 {
        let mut at = self.head;
        for _ in 0..k as usize / GROUP {
            at = self.links[at as usize].next;
        }
        &self.links[at as usize].slots[k as usize % GROUP]
    }
}

impl ConcurrentMap<u64, u64> for ChainMap {
    type Guard = ();
    fn pin(&self) {}
    fn insert_with(&self, k: u64, v: u64, _: &()) -> bool {
        insert(self.slot(k), v)
    }
    fn remove_with(&self, k: &u64, _: &()) -> bool {
        remove(self.slot(*k))
    }
    fn get_with(&self, k: &u64, _: &()) -> Option<u64> {
        get(self.slot(*k))
    }
    fn in_flight_nodes(&self) -> u64 {
        0
    }
}

/// The workload's reference cell, if it has one, prefilled like its other
/// cells.
pub fn reference_cell(w: &Workload, seed: u64) -> Option<Arc<dyn Cell>> {
    w.reference_mops?;
    // Shared keys are spread `KEY_STRIDE` apart and every worker's private
    // keys sit in between.
    let keys = |k: &crate::cell::KeySpec| (k.key_space * KEY_STRIDE) as usize;
    match &w.shape {
        Shape::HashMap(k) => Some(manual_map(
            DenseMap::new(keys(k)),
            k,
            &prefill_keys(seed, k.key_space),
        )),
        Shape::List(k) => Some(manual_map(
            ChainMap::new(keys(k), seed),
            k,
            &prefill_keys(seed, k.key_space),
        )),
        Shape::Queue(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_reaches_every_key_once() {
        let m = ChainMap::new(100, 7);
        for k in 0..100 {
            assert!(m.insert_with(k, k, &()), "{k} has a word of its own");
        }
        for k in 0..100 {
            assert!(!m.insert_with(k, k, &()));
            assert_eq!(m.get_with(&k, &()), Some(k));
            assert!(m.remove_with(&k, &()));
            assert_eq!(m.get_with(&k, &()), None);
        }
    }
}
