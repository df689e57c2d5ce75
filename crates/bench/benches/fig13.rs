//! Figure 13: throughput and memory ("extra nodes") for manual vs automatic
//! reclamation across structures and update rates.
//!
//! Sections (select with `FIG13_ONLY=a,c`):
//!
//! * a — Harris-Michael list, N=1000, 10% updates
//! * b — hash table (the resizable map sized for load factor 1, so it never
//!   grows), N=100K, 10% updates
//! * c — NM tree, N=100K, 10% updates
//! * d — NM tree, N=100M in the paper, scaled by `FIG13D_SIZE`
//!   (default 1M) — the cache-cold large-tree point
//! * e — NM tree, N=100K, 1% updates
//! * f — NM tree, N=100K, 50% updates
//!
//! Series: HP / EBR / IBR / Hyaline manual, and their four RC conversions.

use bench::{map_series, section_enabled, settle_scheme};
use bench_harness::{print_header, Workload};
use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::manual::{HarrisMichaelList, NatarajanMittalTree, ResizableHashMap};
use lockfree::rc::{RcHarrisMichaelList, RcNatarajanMittalTree, RcResizableHashMap};
use smr::{AcquireRetire, Ebr, Hp, Hyaline, Ibr};

fn list_section(figure: &str, spec: &Workload) {
    fn one<S: AcquireRetire>(figure: &str, name: &str, spec: &Workload) {
        map_series(
            figure,
            "list",
            name,
            spec,
            HarrisMichaelList::<u64, u64, S>::new,
            || {},
        );
    }
    fn one_rc<S: Scheme>(figure: &str, name: &str, spec: &Workload) {
        map_series(
            figure,
            "list",
            name,
            spec,
            RcHarrisMichaelList::<u64, u64, S>::new,
            settle_scheme::<S>,
        );
    }
    one::<Hp>(figure, "HP", spec);
    one::<Ebr>(figure, "EBR", spec);
    one::<Ibr>(figure, "IBR", spec);
    one::<Hyaline>(figure, "Hyaline", spec);
    one_rc::<HpScheme>(figure, "RC (HP)", spec);
    one_rc::<EbrScheme>(figure, "RC (EBR)", spec);
    one_rc::<IbrScheme>(figure, "RC (IBR)", spec);
    one_rc::<HyalineScheme>(figure, "RC (Hyaline)", spec);
}

fn hash_section(figure: &str, spec: &Workload) {
    let buckets = spec.initial_size as usize; // load factor 1
    fn one<S: AcquireRetire>(figure: &str, name: &str, spec: &Workload, buckets: usize) {
        map_series(
            figure,
            "hash",
            name,
            spec,
            move || ResizableHashMap::<u64, u64, S>::with_capacity(buckets),
            || {},
        );
    }
    fn one_rc<S: Scheme>(figure: &str, name: &str, spec: &Workload, buckets: usize) {
        map_series(
            figure,
            "hash",
            name,
            spec,
            move || RcResizableHashMap::<u64, u64, S>::with_capacity(buckets),
            settle_scheme::<S>,
        );
    }
    one::<Hp>(figure, "HP", spec, buckets);
    one::<Ebr>(figure, "EBR", spec, buckets);
    one::<Ibr>(figure, "IBR", spec, buckets);
    one::<Hyaline>(figure, "Hyaline", spec, buckets);
    one_rc::<HpScheme>(figure, "RC (HP)", spec, buckets);
    one_rc::<EbrScheme>(figure, "RC (EBR)", spec, buckets);
    one_rc::<IbrScheme>(figure, "RC (IBR)", spec, buckets);
    one_rc::<HyalineScheme>(figure, "RC (Hyaline)", spec, buckets);
}

fn tree_section(figure: &str, spec: &Workload) {
    fn one<S: AcquireRetire>(figure: &str, name: &str, spec: &Workload) {
        map_series(
            figure,
            "nmtree",
            name,
            spec,
            NatarajanMittalTree::<u64, u64, S>::new,
            || {},
        );
    }
    fn one_rc<S: Scheme>(figure: &str, name: &str, spec: &Workload) {
        map_series(
            figure,
            "nmtree",
            name,
            spec,
            RcNatarajanMittalTree::<u64, u64, S>::new,
            settle_scheme::<S>,
        );
    }
    one::<Hp>(figure, "HP", spec);
    one::<Ebr>(figure, "EBR", spec);
    one::<Ibr>(figure, "IBR", spec);
    one::<Hyaline>(figure, "Hyaline", spec);
    one_rc::<HpScheme>(figure, "RC (HP)", spec);
    one_rc::<EbrScheme>(figure, "RC (EBR)", spec);
    one_rc::<IbrScheme>(figure, "RC (IBR)", spec);
    one_rc::<HyalineScheme>(figure, "RC (Hyaline)", spec);
}

fn main() {
    print_header();
    if section_enabled("FIG13_ONLY", "a") {
        list_section("fig13a", &Workload::points(1_000, 10));
    }
    if section_enabled("FIG13_ONLY", "b") {
        hash_section("fig13b", &Workload::points(100_000, 10));
    }
    if section_enabled("FIG13_ONLY", "c") {
        tree_section("fig13c", &Workload::points(100_000, 10));
    }
    if section_enabled("FIG13_ONLY", "d") {
        let n: u64 = std::env::var("FIG13D_SIZE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1_000_000);
        tree_section("fig13d", &Workload::points(n, 10));
    }
    if section_enabled("FIG13_ONLY", "e") {
        tree_section("fig13e", &Workload::points(100_000, 1));
    }
    if section_enabled("FIG13_ONLY", "f") {
        tree_section("fig13f", &Workload::points(100_000, 50));
    }
}
