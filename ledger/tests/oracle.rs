//! The correctness oracle, proven against deliberately broken structures:
//! the run protocol must report `ops_failed > 0` and a non-zero exit for
//! each of them, and `ops_failed = 0` for clean lock-based ones. The same
//! run checks the persistent-worker pool: every trial on the same two
//! `smr` thread ids, no registry growth after set-up.
//!
//! One test function on purpose: the registry high-water mark is process
//! global, and a second test thread registering itself mid-run would trip
//! the very check this file relies on.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ledger::cell::{Cell, KeySpec, MapCell, NoProbe, QueueCell};
use ledger::gen::{prefill_keys, KeyDist, Mix};
use ledger::pool::Pool;
use ledger::run::{run_cells, Outcome, Plan, THREADS};
use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::sync::atomic::{AtomicU64, Ordering};

/// What a fake structure gets wrong, once in a thousand calls.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    DropsInsert,
    WrongValue,
    DuplicatesDequeue,
}

struct LockedMap {
    inner: Mutex<BTreeMap<u64, u64>>,
    calls: AtomicU64,
    fault: Fault,
}

impl LockedMap {
    fn new(fault: Fault) -> Self {
        LockedMap {
            inner: Mutex::new(BTreeMap::new()),
            calls: AtomicU64::new(0),
            fault,
        }
    }

    fn strikes(&self, fault: Fault) -> bool {
        self.fault == fault && self.calls.fetch_add(1, Ordering::SeqCst) % 1000 == 999
    }
}

impl ConcurrentMap<u64, u64> for LockedMap {
    type Guard = ();
    fn pin(&self) {}
    fn insert_with(&self, k: u64, v: u64, _: &()) -> bool {
        let mut m = self.inner.lock().unwrap();
        if m.contains_key(&k) {
            return false;
        }
        if !self.strikes(Fault::DropsInsert) {
            m.insert(k, v);
        }
        true
    }
    fn remove_with(&self, k: &u64, _: &()) -> bool {
        self.inner.lock().unwrap().remove(k).is_some()
    }
    fn get_with(&self, k: &u64, _: &()) -> Option<u64> {
        let v = *self.inner.lock().unwrap().get(k)?;
        Some(if self.strikes(Fault::WrongValue) {
            v ^ 1
        } else {
            v
        })
    }
    fn in_flight_nodes(&self) -> u64 {
        self.inner.lock().unwrap().len() as u64
    }
}

struct LockedQueue {
    inner: Mutex<VecDeque<u64>>,
    calls: AtomicU64,
    fault: Fault,
}

impl ConcurrentQueue<u64> for LockedQueue {
    type Guard = ();
    fn pin(&self) {}
    fn enqueue_with(&self, v: u64, _: &()) {
        self.inner.lock().unwrap().push_back(v);
    }
    fn dequeue_with(&self, _: &()) -> Option<u64> {
        let mut q = self.inner.lock().unwrap();
        if self.fault == Fault::DuplicatesDequeue
            && self.calls.fetch_add(1, Ordering::SeqCst) % 1000 == 999
        {
            return q.front().copied(); // handed out, but still in the queue
        }
        q.pop_front()
    }
}

fn plan() -> Plan {
    Plan {
        warmup_rounds: 1,
        rounds: 2,
        trial: Duration::from_millis(30),
        lat_rounds: 1,
        lat_trial: Duration::from_millis(20),
        traced_rounds: 0,
        ladder_sample: Duration::ZERO,
    }
}

fn run(cell: Arc<dyn Cell>) -> Outcome {
    let pool = Pool::new(THREADS);
    // Named like a latency cell so the latency path is exercised too.
    let cells = vec![("rc_ebr".to_string(), cell)];
    run_cells(cells, &pool, 7, &plan(), None::<std::io::Sink>).unwrap()
}

fn map_cell(fault: Fault) -> Arc<dyn Cell> {
    let keys = KeySpec {
        key_space: 1024,
        dist: KeyDist::Uniform,
        mix: Mix {
            get: 50,
            put: 25,
            del: 25,
        },
    };
    let fill = prefill_keys(7, keys.key_space);
    Arc::new(MapCell::new(LockedMap::new(fault), NoProbe, keys, &fill))
}

fn queue_cell(fault: Fault) -> Arc<dyn Cell> {
    let queue = LockedQueue {
        inner: Mutex::new(VecDeque::new()),
        calls: AtomicU64::new(0),
        fault,
    };
    Arc::new(QueueCell::new(queue, NoProbe, 64))
}

#[test]
fn oracle_fails_broken_structures_and_passes_clean_ones() {
    for (what, cell) in [
        ("map", map_cell(Fault::None)),
        ("queue", queue_cell(Fault::None)),
    ] {
        let out = run(cell);
        assert_eq!(out.failures, Vec::<String>::new(), "clean {what}");
        assert_eq!(out.failed(), 0, "clean {what}");
        assert_eq!(out.exit_code(), 0, "clean {what}");
        assert!(out.attempted() > 1000, "clean {what} ran");
        // Persistent workers: two distinct registry slots for the whole run
        // (a trial on any other slot is reported in `failures`, above), and
        // no slot taken after set-up.
        assert_eq!(out.worker_tids.len(), THREADS);
        assert_ne!(out.worker_tids[0], out.worker_tids[1]);
        assert_eq!(out.hwm.0, out.hwm.1, "registry grew after set-up");
        let c = &out.cells[0];
        assert_eq!(c.mops.len(), 2);
        assert!(c.mops.iter().all(|&m| m > 0.0));
        assert_eq!(c.latency.len(), 1);
        assert!(c.latency_samples > 0);
    }

    for (what, cell) in [
        ("drops 1 insert in 1000", map_cell(Fault::DropsInsert)),
        ("returns a wrong value", map_cell(Fault::WrongValue)),
        ("duplicates a dequeue", queue_cell(Fault::DuplicatesDequeue)),
    ] {
        let out = run(cell);
        assert!(
            out.failed() > 0,
            "a structure that {what} must fail ops: {:?}",
            out.failures
        );
        assert_ne!(
            out.exit_code(),
            0,
            "a structure that {what} must fail the run"
        );
    }
}
