//! E15 — observability overhead: the cost of the `core::obs`
//! instrumentation (DESIGN.md §8), gates off and gates on.
//!
//! Measures the per-site gate check, then the association workload
//! (~100k objects, 1 thread) three ways: gates off, under span capture,
//! and with the metrics registry enabled. The verdict is the in-run paired
//! ratio of the metrics-on run to the gates-off run
//! ([`Harness::overhead_gate`]): the acceptance bar is < 2% — what a production
//! process pays for leaving the counters on. Prints `PASS`/`WARN`; exits
//! nonzero on a miss only under `DOOD_BENCH_STRICT=1`.

use dood_bench::harness::Harness;
use dood_bench::{assoc_query, parallel_fixture, with_threads};
use dood_core::obs;

/// Allowed metrics-on overhead over the gates-off run (fraction).
const OVERHEAD_BUDGET: f64 = 0.02;

/// Interleaved off/on pairs in the verdict probe.
const PAIRS: usize = 50;

fn main() {
    let mut h = Harness::new("e15_obs");

    // The per-site cost when everything is off: one relaxed-atomic load.
    h.bench("gate/trace_enabled", || obs::trace_enabled());
    h.bench("gate/metrics_enabled", || obs::metrics_enabled());
    h.bench("gate/span_disabled", || obs::trace::span("e15.site"));

    let (db, reg) = parallel_fixture();
    eprintln!(
        "e15 workload: {} objects, {} association patterns",
        db.object_count(),
        assoc_query(&db, &reg)
    );

    with_threads(1, || {
        h.bench("assoc/off", || assoc_query(&db, &reg));
        h.bench("assoc/traced", || {
            let (rows, spans) = obs::trace::capture(|| assoc_query(&db, &reg));
            rows + spans.len()
        });
        obs::set_metrics_enabled(true);
        h.bench("assoc/metrics", || assoc_query(&db, &reg));
        obs::set_metrics_enabled(false);
        obs::metrics::reset_all();

        h.overhead_gate(
            "metrics-on",
            OVERHEAD_BUDGET,
            PAIRS,
            || {
                obs::set_metrics_enabled(false);
                assoc_query(&db, &reg)
            },
            || {
                obs::set_metrics_enabled(true);
                assoc_query(&db, &reg)
            },
        );
    });
}
