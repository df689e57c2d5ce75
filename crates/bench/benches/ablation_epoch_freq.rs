//! Ablation (§5.1): sensitivity of EBR and IBR to `epoch_freq` (the number
//! of allocations between epoch advances). The paper tunes EBR to 10 and
//! IBR to 40: advancing too often bottlenecks the shared epoch counter,
//! advancing too rarely inflates the retired backlog ("extra nodes").
//!
//! Exits nonzero if any cell is non-positive or non-finite.

use std::sync::Arc;

use bench::{
    bench_window, finish, prefill, print_header, run_map_for, thread_counts, Row, Workload,
};
use lockfree::manual::HarrisMichaelList;
use lockfree::NodeStats;
use smr::{AcquireRetire, Ebr, GlobalEpoch, Ibr, SmrConfig};

fn series<S: AcquireRetire>(scheme: &str, freq: u64, spec: &Workload, threads: usize) -> bool {
    let cfg = SmrConfig {
        epoch_freq: freq,
        ..S::default_config()
    };
    let smr = Arc::new(S::new(Arc::new(GlobalEpoch::new()), cfg));
    let list: HarrisMichaelList<u64, u64, S> =
        HarrisMichaelList::with_shared(smr, Arc::new(NodeStats::new()));
    prefill(&list, spec);
    let (mops, avg, peak) = run_map_for(&list, spec, threads, bench_window());
    Row {
        figure: "ablation_epoch_freq".into(),
        structure: "list".into(),
        scheme: format!("{scheme} freq={freq}"),
        threads,
        mops,
        extra_nodes_avg: avg,
        extra_nodes_peak: peak,
    }
    .print()
}

fn main() {
    print_header();
    let spec = Workload::points(1_000, 50);
    // One thread count, the sweep's largest: the ablation varies `freq`.
    let threads = *thread_counts().last().expect("a sweep is never empty");
    let mut ok = true;
    for freq in [1u64, 10, 40, 100, 1000] {
        ok &= series::<Ebr>("EBR", freq, &spec, threads);
    }
    for freq in [1u64, 10, 40, 100, 1000] {
        ok &= series::<Ibr>("IBR", freq, &spec, threads);
    }
    finish("ablation_epoch_freq", ok);
}
