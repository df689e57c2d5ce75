//! Persistent worker pool: the closed loop's clients.
//!
//! Workers are spawned once per set-up and reused for every cell and trial.
//! Spawning per trial (what `std::thread::scope` in a trial loop does)
//! poisons later trials: fresh stacks, fresh registry slots and fresh
//! per-thread scheme state each time shifted identical cells by 10–20 %.
//!
//! Workers take *non-adjacent* `smr` registry slots: a parked spacer thread
//! holds the slot between two workers. `smr::Hp` keeps each slot's
//! announcement words and its free-index stack in small unpadded heap
//! blocks, allocated back to back for consecutive slots, so slot `k`'s
//! stack top and slot `k + 1`'s first announcement words share a cache
//! line for about half of all heap alignments. When they do, every
//! operation of both threads invalidates the other's line and the HP cells
//! run 2–4× slower for the life of the structure (`rc_hp` on `list_scan`:
//! 0.06 against 0.18 Mop/s, decided by `malloc`, not by the code under
//! test). The instrument steps around the coin toss; see the README.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// A fixed set of worker threads that run the same job in parallel.
#[derive(Debug)]
pub struct Pool {
    jobs: Vec<Sender<Job>>,
    done: Receiver<Result<(), String>>,
    handles: Vec<JoinHandle<()>>,
    tids: Vec<usize>,
    /// Dropping this wakes the spacers.
    release_spacers: Option<Sender<()>>,
}

/// A job in flight on every worker; [`wait`](Pending::wait) collects the
/// per-worker results in worker order.
#[must_use]
#[derive(Debug)]
pub struct Pending<'a, T> {
    pool: &'a Pool,
    slots: Arc<Mutex<Vec<Option<T>>>>,
}

impl Pool {
    /// Spawns `n` workers, one after the other with a spacer in between,
    /// and records each worker's `smr` thread id.
    pub fn new(n: usize) -> Pool {
        let (done_tx, done) = channel();
        let (tid_tx, tid_rx) = channel();
        let (release_spacers, spacer_rx) = channel::<()>();
        let spacer_rx = Arc::new(Mutex::new(spacer_rx));
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        let mut tids = Vec::new();
        for i in 0..n {
            let (tx, rx) = channel::<Job>();
            let (done_tx, worker_tid_tx) = (done_tx.clone(), tid_tx.clone());
            jobs.push(tx);
            handles.push(std::thread::spawn(move || {
                worker_tid_tx
                    .send(smr::current_tid().index())
                    .expect("pool outlives its workers' start-up");
                while let Ok(job) = rx.recv() {
                    let r = catch_unwind(AssertUnwindSafe(|| job(i)));
                    // Release the job (and everything it captured) before
                    // reporting, so the caller owns its data again on wake.
                    drop(job);
                    let r = r.map_err(|p| match p.downcast_ref::<String>() {
                        Some(s) => s.clone(),
                        None => p.downcast_ref::<&str>().unwrap_or(&"panic").to_string(),
                    });
                    if done_tx.send(r).is_err() {
                        break;
                    }
                }
            }));
            // Registration order is slot order: wait for each thread's slot
            // before starting the next.
            tids.push(tid_rx.recv().expect("worker reports its thread id"));
            if i + 1 < n {
                let (spacer_tid_tx, rx) = (tid_tx.clone(), Arc::clone(&spacer_rx));
                handles.push(std::thread::spawn(move || {
                    spacer_tid_tx
                        .send(smr::current_tid().index())
                        .expect("pool outlives its spacers' start-up");
                    // Parks until the pool drops the sender.
                    let _ = rx.lock().map(|rx| rx.recv());
                }));
                tid_rx.recv().expect("spacer reports its thread id");
            }
        }
        Pool {
            jobs,
            done,
            handles,
            tids,
            release_spacers: Some(release_spacers),
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.jobs.len()
    }

    /// The workers' `smr::current_tid()` indices, fixed for the pool's life.
    pub fn tids(&self) -> &[usize] {
        &self.tids
    }

    /// Starts `f(worker_index)` on every worker and returns at once.
    pub fn start<T, F>(&self, f: F) -> Pending<'_, T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let slots = Arc::new(Mutex::new(
            (0..self.threads()).map(|_| None).collect::<Vec<_>>(),
        ));
        let out = Arc::clone(&slots);
        let job: Job = Arc::new(move |i| {
            let v = f(i);
            out.lock()
                .expect("result slots are never poisoned: no panic under the lock")[i] = Some(v);
        });
        for tx in &self.jobs {
            tx.send(Arc::clone(&job))
                .expect("workers live as long as the pool");
        }
        Pending { pool: self, slots }
    }

    /// Runs `f(worker_index)` on every worker and waits for all of them.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        self.start(f).wait()
    }
}

impl<T> Pending<'_, T> {
    /// Blocks until every worker has finished the job.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's panic: a failed assertion inside a trial must
    /// fail the run, not hang it.
    pub fn wait(self) -> Vec<T> {
        for _ in 0..self.pool.threads() {
            match self.pool.done.recv() {
                Ok(Ok(())) => {}
                Ok(Err(msg)) => panic!("worker panicked: {msg}"),
                Err(_) => panic!("worker exited while a job was in flight"),
            }
        }
        let mut slots = self.slots.lock().expect("workers are done with the slots");
        slots
            .iter_mut()
            .map(|s| s.take().expect("every worker stored its result"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.jobs.clear(); // closes the channels: workers leave their loops
        self.release_spacers = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_sees_the_same_worker_threads() {
        let pool = Pool::new(2);
        let expected = pool.tids().to_vec();
        assert!(
            expected[0].abs_diff(expected[1]) >= 2,
            "workers sit on adjacent slots"
        );
        for round in 0..20 {
            let seen = pool.run(move |i| (i, round, smr::current_tid().index()));
            for (i, (idx, r, tid)) in seen.into_iter().enumerate() {
                assert_eq!((idx, r), (i, round));
                assert_eq!(
                    tid, expected[i],
                    "worker {i} changed thread in round {round}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked: boom")]
    fn worker_panic_fails_the_caller() {
        let pool = Pool::new(2);
        pool.run(|i| {
            if i == 1 {
                panic!("boom");
            }
        });
    }
}
