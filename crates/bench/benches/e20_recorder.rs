//! E20 — flight-recorder overhead: the cost of leaving `core::obs::recorder`
//! always on (DESIGN.md §13).
//!
//! Measures the per-site gate checks and the E1 association workload with
//! the recorder off and on, then renders the verdict from a dedicated
//! paired probe ([`Harness::overhead_gate`]): interleaved off/on run pairs in one
//! process, judged by the *median per-pair ratio*. The acceptance bar is
//! < 2% overhead. Prints `PASS`/`WARN`; exits nonzero on a miss only under
//! `DOOD_BENCH_STRICT=1` (`DOOD_E20_FULL=1` in `scripts/ci.sh`).

use dood_bench::harness::Harness;
use dood_bench::{assoc_dood, assoc_fixture};
use dood_core::obs;

/// Allowed recorder-on overhead vs the recorder-off median (fraction).
const OVERHEAD_BUDGET: f64 = 0.02;

/// Interleaved off/on pairs in the verdict probe.
const PAIRS: usize = 100;

fn main() {
    let mut h = Harness::new("e20_recorder");

    // Per-site costs: the recorder gate, and the accounting fast path when
    // no scope is open (one relaxed atomic load each).
    h.bench("gate/recorder_enabled", || obs::recorder::is_enabled());
    h.bench("gate/account_active", || obs::account::active().is_none());

    let f = assoc_fixture(2);
    eprintln!("e20 workload: {} objects, {} association patterns", f.db.object_count(), assoc_dood(&f));

    h.bench("assoc/recorder_off", || assoc_dood(&f));

    obs::recorder::set_enabled(true);
    h.bench("assoc/recorder_on", || assoc_dood(&f));
    obs::recorder::set_enabled(false);
    obs::recorder::clear();

    h.overhead_gate(
        "recorder",
        OVERHEAD_BUDGET,
        PAIRS,
        || {
            obs::recorder::set_enabled(false);
            assoc_dood(&f)
        },
        || {
            obs::recorder::set_enabled(true);
            assoc_dood(&f)
        },
    );
}
