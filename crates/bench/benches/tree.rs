//! The NM-tree figures the ledger has no workload for yet (`tree_range` is
//! still promised): Fig. 11 — 50% updates / 50% range queries of size 64 —
//! and Fig. 13 c, e, f — point operations at 10%, 1% and 50% updates — all
//! over N = 100K keys from [0, 200K). (Fig. 13d's cache-cold regime is the
//! ledger's `kv_cold_read`.)
//!
//! Series: manual HP / EBR / IBR / Hyaline and the four automatic schemes.
//! Manual HP cannot protect an unbounded range query, so — as in the paper
//! — Fig. 11 has no manual-HP series. The paper's headline there: the
//! protected-region RC schemes beat RC (HP) by ~7× at high thread counts,
//! because RCHP's range queries exhaust hazard slots and fall back to
//! reference-count increments, and the RC-region schemes track their manual
//! counterparts within 10–15%.
//!
//! Exits nonzero if any cell is non-positive or non-finite.

use bench::{finish, map_series, print_header, settle_scheme, Workload};
use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::manual::NatarajanMittalTree;
use lockfree::rc::RcNatarajanMittalTree;
use smr::{AcquireRetire, Ebr, Hp, Hyaline, Ibr};

const SPECS: [(&str, &str, Workload); 4] = [
    ("fig11", "nmtree-rq", Workload::fig11()),
    ("fig13c", "nmtree", Workload::points(100_000, 10)),
    ("fig13e", "nmtree", Workload::points(100_000, 1)),
    ("fig13f", "nmtree", Workload::points(100_000, 50)),
];

fn manual<S: AcquireRetire>(figure: &str, structure: &str, scheme: &str, spec: &Workload) -> bool {
    let make = NatarajanMittalTree::<u64, u64, S>::new;
    map_series(figure, structure, scheme, spec, make, || {})
}

fn rc<S: Scheme>(figure: &str, structure: &str, scheme: &str, spec: &Workload) -> bool {
    let make = RcNatarajanMittalTree::<u64, u64, S>::new;
    map_series(figure, structure, scheme, spec, make, settle_scheme::<S>)
}

fn main() {
    print_header();
    let mut ok = true;
    for (figure, structure, spec) in &SPECS {
        if spec.rq_pct == 0 {
            ok &= manual::<Hp>(figure, structure, "HP", spec);
        }
        ok &= manual::<Ebr>(figure, structure, "EBR", spec);
        ok &= manual::<Ibr>(figure, structure, "IBR", spec);
        ok &= manual::<Hyaline>(figure, structure, "Hyaline", spec);
        ok &= rc::<HpScheme>(figure, structure, "RC (HP)", spec);
        ok &= rc::<EbrScheme>(figure, structure, "RC (EBR)", spec);
        ok &= rc::<IbrScheme>(figure, structure, "RC (IBR)", spec);
        ok &= rc::<HyalineScheme>(figure, structure, "RC (Hyaline)", spec);
    }
    finish("tree", ok);
}
