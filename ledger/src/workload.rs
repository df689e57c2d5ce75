//! The four workloads (names are fixed; later issues cite them) and the six
//! cells each one can run.

use std::sync::Arc;

use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::manual::{DoubleLinkQueue, HarrisMichaelList, ResizableHashMap};
use lockfree::rc::{RcDoubleLinkQueue, RcHarrisMichaelList, RcResizableHashMap};
use lockfree::ConcurrentMap;
use smr::{Ebr, Hp};

use crate::cell::{Cell, KeySpec, MapCell, NoProbe, QueueCell};
use crate::gen::{prefill_keys, KeyDist, Mix, Zipf};

/// Cell names, in the fixed order a traced run's rounds run them.
pub const CELLS: [&str; 6] = [
    "rc_ebr",
    "rc_ibr",
    "rc_hp",
    "rc_hyaline",
    "manual_ebr",
    "manual_hp",
];

/// The cells behind the end-to-end metrics: the only ones an untraced run
/// builds and measures, so that each gets a sixth of the run instead of an
/// eighth. RC and manual under one section-protected scheme (EBR) and one
/// pointer-protected scheme (HP) are the paper's claim; RC over IBR and
/// Hyaline are measured in traced runs and reported per layer.
pub const E2E_CELLS: [&str; 4] = ["rc_ebr", "rc_hp", "manual_ebr", "manual_hp"];

/// Name of the reference cell (see [`crate::reference`]).
pub const REFERENCE: &str = "reference";

/// Scheme names, in the order of the four RC cells.
pub const SCHEMES: [&str; 4] = ["ebr", "ibr", "hp", "hyaline"];

/// Which structure pair a workload runs.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `RcResizableHashMap` / `manual::ResizableHashMap`.
    HashMap(KeySpec),
    /// `RcHarrisMichaelList` / `manual::HarrisMichaelList`.
    List(KeySpec),
    /// `RcDoubleLinkQueue` / `manual::DoubleLinkQueue`, seeded with this
    /// many elements.
    Queue(u64),
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its fixed name.
    pub name: &'static str,
    /// Structure, size, keys and mix.
    pub shape: Shape,
    /// Throughput of the workload's reference cell on the box the first
    /// numbers were taken on, in a quiet minute (Mop/s); `None` for a
    /// workload that is reported as measured. See [`crate::reference`].
    pub reference_mops: Option<f64>,
}

/// Names of all workloads.
pub const WORKLOADS: [&str; 4] = ["kv_zipf", "kv_cold_read", "list_scan", "queue_weak"];

/// `--smoke` divides key spaces by this.
const SMOKE_DIVISOR: u64 = 64;

/// Looks a workload up by name; `smoke` shrinks it for the shape-only test.
/// Why each one exists is recorded in `BENCHMARK.json` and the README.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    let read_mostly = Mix {
        get: 90,
        put: 5,
        del: 5,
    };
    Some(match name {
        "kv_zipf" => {
            let key_space = 65_536 / div;
            Workload {
                name: "kv_zipf",
                shape: Shape::HashMap(KeySpec {
                    key_space,
                    dist: KeyDist::Zipf(Zipf::new(key_space, 0.99)),
                    mix: Mix {
                        get: 50,
                        put: 25,
                        del: 25,
                    },
                }),
                reference_mops: Some(32.0),
            }
        }
        "kv_cold_read" => Workload {
            name: "kv_cold_read",
            shape: Shape::HashMap(KeySpec {
                key_space: 2_097_152 / div,
                dist: KeyDist::Uniform,
                mix: read_mostly,
            }),
            reference_mops: None,
        },
        "list_scan" => Workload {
            name: "list_scan",
            shape: Shape::List(KeySpec {
                key_space: (2_000 / div).max(16),
                dist: KeyDist::Uniform,
                mix: read_mostly,
            }),
            reference_mops: Some(0.95),
        },
        "queue_weak" => Workload {
            name: "queue_weak",
            shape: Shape::Queue((1_024 / div).max(16)),
            reference_mops: None,
        },
        _ => return None,
    })
}

fn rc_map<S, M>(
    make: fn(&KeySpec, DomainRef<S>) -> M,
    keys: &KeySpec,
    fill: &[u64],
) -> Arc<dyn Cell>
where
    S: Scheme,
    M: ConcurrentMap<u64, u64> + 'static,
{
    let domain = DomainRef::<S>::new();
    Arc::new(MapCell::new(
        make(keys, domain.clone()),
        domain,
        keys.clone(),
        fill,
    ))
}

pub(crate) fn manual_map<M>(map: M, keys: &KeySpec, fill: &[u64]) -> Arc<dyn Cell>
where
    M: ConcurrentMap<u64, u64> + 'static,
{
    Arc::new(MapCell::new(map, NoProbe, keys.clone(), fill))
}

fn rc_queue<S: Scheme>(n: u64) -> Arc<dyn Cell> {
    let domain = DomainRef::<S>::new();
    let queue = RcDoubleLinkQueue::<u64, S>::new_in(domain.clone());
    Arc::new(QueueCell::new(queue, domain, n))
}

/// The hash tables are sized for the whole key space, so they never grow
/// during a run. Grown from one bucket, a half-full power-of-two key space
/// ends prefill exactly on the doubling threshold (load factor 1), and the
/// first surplus insert of the measured phase doubles the directory — after
/// which a million fresh buckets are spliced in over the following rounds
/// (throughput rose 2.1 → 4.3 Mop/s across five rounds of `kv_cold_read`).
fn capacity(k: &KeySpec) -> usize {
    k.key_space as usize
}

fn rc_table<S: Scheme>(k: &KeySpec, d: DomainRef<S>) -> RcResizableHashMap<u64, u64, S> {
    RcResizableHashMap::with_capacity_in(capacity(k), d)
}

fn rc_list<S: Scheme>(_: &KeySpec, d: DomainRef<S>) -> RcHarrisMichaelList<u64, u64, S> {
    RcHarrisMichaelList::new_in(d)
}

/// Builds and prefills the named cells (of [`CELLS`]) in the given order,
/// on the calling thread (two at a time on the workers halved the
/// million-key set-up but made every repeat's duration depend on how the two
/// builders' page faults interleaved: 44–108 ms for one 50 ms set-up). Each
/// RC cell gets a private reclamation domain; each manual structure owns its
/// scheme instance. The engines are the same code under RC and manual;
/// manual runs under one section-protected scheme (EBR) and one
/// pointer-protected scheme (HP), which covers both code paths of the
/// generic manual structures.
///
/// # Panics
///
/// On a name that is not in [`CELLS`].
pub fn build_cells(w: &Workload, seed: u64, names: &[&str]) -> Vec<Arc<dyn Cell>> {
    let fill = match &w.shape {
        Shape::HashMap(k) | Shape::List(k) => prefill_keys(seed, k.key_space),
        Shape::Queue(_) => Vec::new(),
    };
    names
        .iter()
        .map(|name| match (&w.shape, *name) {
            (Shape::HashMap(k), "rc_ebr") => rc_map::<EbrScheme, _>(rc_table, k, &fill),
            (Shape::HashMap(k), "rc_ibr") => rc_map::<IbrScheme, _>(rc_table, k, &fill),
            (Shape::HashMap(k), "rc_hp") => rc_map::<HpScheme, _>(rc_table, k, &fill),
            (Shape::HashMap(k), "rc_hyaline") => rc_map::<HyalineScheme, _>(rc_table, k, &fill),
            (Shape::HashMap(k), "manual_ebr") => manual_map(
                ResizableHashMap::<u64, u64, Ebr>::with_capacity(capacity(k)),
                k,
                &fill,
            ),
            (Shape::HashMap(k), "manual_hp") => manual_map(
                ResizableHashMap::<u64, u64, Hp>::with_capacity(capacity(k)),
                k,
                &fill,
            ),
            (Shape::List(k), "rc_ebr") => rc_map::<EbrScheme, _>(rc_list, k, &fill),
            (Shape::List(k), "rc_ibr") => rc_map::<IbrScheme, _>(rc_list, k, &fill),
            (Shape::List(k), "rc_hp") => rc_map::<HpScheme, _>(rc_list, k, &fill),
            (Shape::List(k), "rc_hyaline") => rc_map::<HyalineScheme, _>(rc_list, k, &fill),
            (Shape::List(k), "manual_ebr") => {
                manual_map(HarrisMichaelList::<u64, u64, Ebr>::new(), k, &fill)
            }
            (Shape::List(k), "manual_hp") => {
                manual_map(HarrisMichaelList::<u64, u64, Hp>::new(), k, &fill)
            }
            (Shape::Queue(n), "rc_ebr") => rc_queue::<EbrScheme>(*n),
            (Shape::Queue(n), "rc_ibr") => rc_queue::<IbrScheme>(*n),
            (Shape::Queue(n), "rc_hp") => rc_queue::<HpScheme>(*n),
            (Shape::Queue(n), "rc_hyaline") => rc_queue::<HyalineScheme>(*n),
            (Shape::Queue(n), "manual_ebr") => Arc::new(QueueCell::new(
                DoubleLinkQueue::<u64, Ebr>::new(),
                NoProbe,
                *n,
            )),
            (Shape::Queue(n), "manual_hp") => Arc::new(QueueCell::new(
                DoubleLinkQueue::<u64, Hp>::new(),
                NoProbe,
                *n,
            )),
            (_, other) => panic!("no cell is called {other}"),
        })
        .collect()
}
