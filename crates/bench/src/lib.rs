//! Shared plumbing for the figure-reproduction bench binaries.

use bench_harness::{prefill, run_map, thread_counts, Row, Workload};
use cdrc::Scheme;
use lockfree::ConcurrentMap;

/// Runs one (structure, scheme) series over the thread sweep, printing one
/// CSV row per thread count. `make` builds a fresh structure per cell;
/// `settle` runs after each cell (draining the default global domain keeps
/// deferred teardown work from one cell competing for CPU with the next).
///
/// # Reclamation domains
///
/// Every structure meters its *own* reclamation domain (see
/// `lockfree::ConcurrentMap::in_flight_nodes`), so the "extra nodes"
/// samples are exact per structure and several structures — even on one
/// scheme — may coexist without polluting each other's numbers. Bench
/// binaries that want per-cell isolation down to the scan cadence can pass
/// a `make` closure using the `new_in`/`with_capacity_in` constructors with
/// a fresh `cdrc::DomainRef` per cell.
pub fn map_series<M, F, G>(
    figure: &str,
    structure: &str,
    scheme: &str,
    spec: &Workload,
    make: F,
    settle: G,
) where
    M: ConcurrentMap<u64, u64>,
    F: Fn() -> M,
    G: Fn(),
{
    for &threads in &thread_counts() {
        let map = make();
        prefill(&map, spec);
        let (mops, extra_avg, extra_peak) = run_map(&map, spec, threads);
        drop(map);
        settle();
        let row = Row {
            figure: figure.to_string(),
            structure: structure.to_string(),
            scheme: scheme.to_string(),
            threads,
            mops,
            extra_nodes_avg: extra_avg,
            extra_nodes_peak: extra_peak,
        };
        println!("{}", row.csv());
    }
}

/// Drains scheme `S`'s global (default) reference-counting domain.
/// Structures created with explicit domains settle themselves on `Drop`.
pub fn settle_scheme<S: Scheme>() {
    S::global_domain().process_deferred(smr::current_tid());
}

/// Section filter for multi-section binaries: `FIG13_ONLY=c,e` etc.
pub fn section_enabled(var: &str, section: &str) -> bool {
    match std::env::var(var) {
        Ok(v) => v.split(',').any(|s| s.trim().eq_ignore_ascii_case(section)),
        Err(_) => true,
    }
}
