//! Property tests: sticky and CAS-loop counters against a sequential model.

use proptest::prelude::*;
use sticky::{CasCounter, Counter, StickyCounter};

#[derive(Debug, Clone, Copy)]
enum Op {
    IncIfNotZero,
    Decrement,
    Load,
}

/// Sequential reference model of a sticky counter.
#[derive(Debug)]
struct Model {
    value: u32,
    stuck: bool,
}

impl Model {
    fn new(initial: u32) -> Self {
        Model {
            value: initial,
            stuck: false,
        }
    }

    fn inc_if_not_zero(&mut self) -> bool {
        if self.stuck {
            false
        } else {
            self.value += 1;
            true
        }
    }

    /// Caller guarantees an owned reference exists (value > 0).
    fn decrement(&mut self) -> bool {
        assert!(self.value > 0 && !self.stuck);
        self.value -= 1;
        if self.value == 0 {
            self.stuck = true;
            true
        } else {
            false
        }
    }

    fn load(&self) -> u32 {
        if self.stuck {
            0
        } else {
            self.value
        }
    }
}

fn run_against_model<C: Counter>(initial: u32, ops: &[Op]) {
    let c = C::with_count(initial);
    let mut m = Model::new(initial);
    for &op in ops {
        match op {
            Op::IncIfNotZero => {
                assert_eq!(c.increment_if_not_zero(), m.inc_if_not_zero());
            }
            Op::Decrement => {
                // Respect the ownership discipline: only decrement while the
                // model still holds references.
                if m.value > 0 && !m.stuck {
                    assert_eq!(c.decrement(), m.decrement());
                }
            }
            Op::Load => {
                assert_eq!(c.load(), m.load());
            }
        }
    }
    assert_eq!(c.load(), m.load());
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::IncIfNotZero), Just(Op::Decrement), Just(Op::Load),]
}

proptest! {
    #[test]
    fn sticky_matches_model(initial in 1u32..20, ops in proptest::collection::vec(op_strategy(), 0..400)) {
        run_against_model::<StickyCounter>(initial, &ops);
    }

    #[test]
    fn cas_matches_model(initial in 1u32..20, ops in proptest::collection::vec(op_strategy(), 0..400)) {
        run_against_model::<CasCounter>(initial, &ops);
    }

    /// Draining a counter to zero always yields exactly one `true` decrement,
    /// regardless of how many failed upgrades are interleaved.
    #[test]
    fn exactly_one_true_decrement(initial in 1u32..50) {
        let c = StickyCounter::new(initial);
        let mut trues = 0;
        for _ in 0..initial {
            if c.decrement() {
                trues += 1;
            }
            let _ = c.load();
        }
        prop_assert_eq!(trues, 1);
        prop_assert_eq!(c.load(), 0);
        prop_assert!(!c.increment_if_not_zero());
    }
}
