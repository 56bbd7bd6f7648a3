//! `obs` — the hermetic observability layer (DESIGN.md §8).
//!
//! Three std-only pieces, shared by every crate in the workspace:
//!
//! * [`trace`] — a hierarchical span tracer with monotonic timestamps and
//!   per-thread span stacks. Exported as JSON lines (streaming) or
//!   collected in memory by [`trace::capture`].
//! * [`metrics`] — a process-global registry of counters, gauges, and
//!   fixed-bucket (power-of-two) histograms, with pretty-text and
//!   JSON-lines exporters. Integer-only: no float formatting anywhere.
//! * [`profile`] — the EXPLAIN ANALYZE surface: a [`profile::Profile`]
//!   tree (plan node → cardinality attributes → wall time) built from a
//!   captured span set, rendered by the `doodprof` CLI.
//!
//! [`stats`] holds only a no-op `clear()`: the planner's inputs are the
//! store's own counts (DESIGN.md §10), not observations.
//!
//! Two production-observability pieces ride on top (DESIGN.md §13):
//!
//! * [`recorder`] — a bounded in-memory flight recorder: per-thread ring
//!   stripes of the most recent closed spans, sequence-stamped for merged
//!   dumps, so the evidence for an anomaly already exists when the
//!   anomaly is noticed (`DOOD_FLIGHT=1`, capacity `DOOD_FLIGHT_CAP`,
//!   anomaly dump path `DOOD_FLIGHT_DUMP`).
//! * [`account`] — per-query/maintenance resource accounting
//!   ([`account::QueryReport`]) and the slow-query log: runs exceeding
//!   `DOOD_SLOWLOG_US` append a JSON-lines record (plan snapshot,
//!   per-stage estimated vs. actual cardinalities) to
//!   `DOOD_SLOWLOG_FILE` (default stderr).
//!
//! Everything is **off by default** and costs one relaxed atomic load per
//! instrumentation site when disabled (verified by benches E15 and E20).
//! Enabling:
//!
//! * `DOOD_TRACE=1` — stream span records as JSON lines to stderr, or to
//!   the file named by `DOOD_TRACE_FILE`;
//! * `DOOD_METRICS=1` — accumulate metrics (exported by the CLIs on exit);
//! * `DOOD_FLIGHT=1` — keep the flight-recorder ring populated;
//! * `DOOD_SLOWLOG_US=N` — log queries/maintenance passes slower than N µs;
//! * programmatically: [`trace::capture`], [`trace::stream_to`],
//!   [`set_metrics_enabled`], [`recorder::set_enabled`], and
//!   [`account::set_enabled`].

pub mod account;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod stats;
pub mod trace;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Gate states: unread env, explicitly off, explicitly on.
const GATE_UNINIT: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

/// A tri-state enable flag: the first read folds the environment in, every
/// later read is a single relaxed atomic load (the disabled-path cost
/// contract of DESIGN.md §8).
struct Gate {
    state: AtomicU8,
}

impl Gate {
    const fn new() -> Self {
        Gate { state: AtomicU8::new(GATE_UNINIT) }
    }

    #[inline]
    fn is_on(&self, init: fn() -> bool) -> bool {
        match self.state.load(Ordering::Relaxed) {
            GATE_ON => true,
            GATE_OFF => false,
            _ => self.init_slow(init),
        }
    }

    #[cold]
    fn init_slow(&self, init: fn() -> bool) -> bool {
        let on = init();
        // Keep a concurrent explicit `set` if one won the race.
        let _ = self.state.compare_exchange(
            GATE_UNINIT,
            if on { GATE_ON } else { GATE_OFF },
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.state.load(Ordering::Relaxed) == GATE_ON
    }

    fn set(&self, on: bool) {
        self.state.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    }
}

static TRACE_GATE: Gate = Gate::new();
static METRICS_GATE: Gate = Gate::new();

/// Whether span tracing is enabled (env `DOOD_TRACE`, an installed stream
/// writer, or an active [`trace::capture`]). One relaxed atomic load after
/// the first call.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_GATE.is_on(trace::env_init)
}

/// Whether metric recording is enabled (env `DOOD_METRICS` or
/// [`set_metrics_enabled`]). One relaxed atomic load after the first call.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_GATE.is_on(|| env_flag("DOOD_METRICS"))
}

/// Programmatically enable or disable metric recording (overrides the
/// `DOOD_METRICS` environment default).
pub fn set_metrics_enabled(on: bool) {
    METRICS_GATE.set(on);
}

pub(crate) fn trace_gate_set(on: bool) {
    TRACE_GATE.set(on);
}

/// Whether an environment variable is set to a truthy value (`1`, `true`,
/// `yes`, `on`; case-insensitive).
pub(crate) fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "yes" | "on"),
        Err(_) => false,
    }
}

/// Monotonic nanoseconds since the process's first call into `obs`. All
/// span timestamps share this epoch, so intervals are directly comparable
/// across threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small dense ordinal for the current thread (0 for the first thread
/// that asks, 1 for the second, …). Stable for the thread's lifetime;
/// recorded on every span so traces show which thread ran what.
pub fn thread_ord() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORD: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORD.with(|o| *o)
}

/// Escape a string for inclusion inside a JSON string literal (quotes,
/// backslashes, and control characters). Shared by the trace, metrics, and
/// diagnostic JSON exporters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_flip_programmatically() {
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ord();
        assert_eq!(here, thread_ord());
        let other = std::thread::spawn(thread_ord).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
