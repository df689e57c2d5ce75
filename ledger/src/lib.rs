//! `ledger`: the repo benchmark.
//!
//! Four closed-loop workloads. An untraced run measures four cells
//! (automatic reference counting and the hand-written baseline, each over
//! EBR and HP) and reports seven end-to-end metrics; a traced run measures
//! six (RC over IBR and Hyaline too) and reports a ladder of per-layer
//! metrics over `sticky` → `smr` → `cdrc` → `lockfree`. The map workloads
//! run a bare reference structure beside the cells and report at its
//! nominal speed, which takes the shared host's drift out of the numbers.
//! The crate depends only on the measured crates and owns its PRNG, zipf
//! sampler, histogram and driver loops; it measures every layer from
//! outside, by timing calls into public functions. See `README.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod compare;
pub mod driver;
pub mod gen;
pub mod hist;
pub mod json;
pub mod ladder;
pub mod pool;
pub mod reference;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
