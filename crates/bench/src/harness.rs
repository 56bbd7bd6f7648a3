//! The in-repo benchmark harness that replaces Criterion so `cargo bench`
//! runs hermetically (no registry dependencies).
//!
//! Protocol per benchmark: a time-boxed warmup, then timed samples; each
//! sample is a batch of iterations sized so the clock resolution doesn't
//! dominate. Reported statistics are per-iteration median, p95, p99 and max.
//!
//! Results stream to stdout as human-readable lines; a bench target's
//! verdicts read the medians back from the [`Harness`] that took them
//! ([`Harness::median_ns`]) or time interleaved off/on pairs
//! ([`Harness::overhead_gate`]).
//!
//! `cargo bench` CLI compatibility: flags (`--bench`, …) are ignored; a
//! bare positional argument is a substring filter on benchmark names.

use std::time::{Duration, Instant};

/// Target wall-clock budget for one benchmark's timed phase.
const MEASURE_BUDGET: Duration = Duration::from_millis(700);
/// Target wall-clock budget for warmup.
const WARMUP_BUDGET: Duration = Duration::from_millis(200);
/// Preferred number of samples per benchmark.
const TARGET_SAMPLES: usize = 15;
/// Minimum samples before budget cut-off applies.
const MIN_SAMPLES: usize = 5;

/// Harness for one bench target: each registered benchmark runs and
/// prints as it is registered.
pub struct Harness {
    group: String,
    filter: Option<String>,
    /// `DOOD_BENCH_SMOKE=1`: one sample of one iteration per benchmark —
    /// a CI-speed pass that exercises every measured path without the
    /// warmup/sampling budget. Timings are not meaningful in this mode.
    smoke: bool,
    /// `(benchmark name, median ns per iteration)`, in registration order.
    medians: Vec<(String, f64)>,
}

impl Harness {
    /// Start a harness for `group`, reading the CLI filter from `argv`.
    pub fn new(group: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let smoke = std::env::var("DOOD_BENCH_SMOKE").is_ok_and(|v| v == "1");
        println!("# bench group {group}{}", if smoke { " (smoke)" } else { "" });
        Harness { group: group.to_string(), filter, smoke, medians: Vec::new() }
    }

    fn skipped(&self, name: &str) -> bool {
        match &self.filter {
            Some(f) => !name.contains(f.as_str()) && !self.group.contains(f.as_str()),
            None => false,
        }
    }

    /// Benchmark `f`, batching iterations against clock resolution.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if self.skipped(name) {
            return;
        }
        if self.smoke {
            let t = Instant::now();
            std::hint::black_box(f());
            self.record(name, 1, vec![t.elapsed().as_nanos() as f64]);
            return;
        }
        // Warmup, and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP_BUDGET || warm_iters < 3 {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        // Batch so one sample is ≥ ~100µs (clock noise) but small enough
        // that TARGET_SAMPLES batches fit the budget.
        let budget_ns = MEASURE_BUDGET.as_nanos() as f64;
        let by_budget = budget_ns / (TARGET_SAMPLES as f64 * est_ns);
        let by_noise = 100_000.0 / est_ns;
        let batch = by_noise.max(1.0).min(by_budget.max(1.0)).round() as u64;

        let mut samples = Vec::with_capacity(TARGET_SAMPLES);
        let mut total_iters = 0u64;
        let run_start = Instant::now();
        while samples.len() < TARGET_SAMPLES
            && (samples.len() < MIN_SAMPLES || run_start.elapsed() < MEASURE_BUDGET)
        {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
            total_iters += batch;
        }
        self.record(name, total_iters, samples);
    }

    fn record(&mut self, name: &str, iters: u64, mut samples: Vec<f64>) {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let median_ns = samples[n / 2];
        println!(
            "{}/{:<24} median {:>12}  p95 {:>12}  p99 {:>12}  max {:>12}  ({n} samples, {iters} iters)",
            self.group,
            name,
            fmt_ns(median_ns),
            fmt_ns(samples[(n * 95 / 100).min(n - 1)]),
            fmt_ns(samples[(n * 99 / 100).min(n - 1)]),
            fmt_ns(samples[n - 1]),
        );
        self.medians.push((name.to_string(), median_ns));
    }

    /// Whether this is a `DOOD_BENCH_SMOKE=1` run (timings meaningless, so
    /// timing verdicts skip themselves).
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The median of the benchmark registered as `name`, if it ran (a CLI
    /// filter may have skipped it).
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.medians.iter().find(|(n, _)| n == name).map(|&(_, m)| m)
    }

    /// The overhead gate of E15/E20: measure [`paired_overhead`] of `on`
    /// over `off`, print `PASS`/`WARN` against `budget` (a fraction), and
    /// exit nonzero on a miss when [`strict`]. Skipped in smoke mode.
    pub fn overhead_gate<T>(
        &self,
        what: &str,
        budget: f64,
        pairs: usize,
        off: impl FnMut() -> T,
        on: impl FnMut() -> T,
    ) {
        let tag = &self.group;
        if self.smoke {
            println!("# {tag} overhead check skipped (smoke mode: timings are not meaningful)");
            return;
        }
        let delta = paired_overhead(pairs, off, on);
        let verdict = if delta < budget { "PASS" } else { "WARN" };
        println!(
            "# {tag} {what} overhead: {verdict} — median paired on/off ratio {:+.2}% over {pairs} pairs (budget {:.0}%)",
            delta * 100.0,
            budget * 100.0
        );
        if verdict == "WARN" && strict() {
            eprintln!("# {tag}: over budget under DOOD_BENCH_STRICT=1");
            std::process::exit(1);
        }
    }
}

/// The overhead of `on` over `off` as a fraction: run them back to back
/// `pairs` times and take the median per-pair on/off ratio minus one.
/// Pairing cancels the machine drift that dominates short workloads on
/// shared hosts — two independent phase medians can disagree by several
/// percent on identical code, while the paired median is stable well under
/// 1%. `off` and `on` set whatever gate they measure themselves.
pub fn paired_overhead<T>(pairs: usize, mut off: impl FnMut() -> T, mut on: impl FnMut() -> T) -> f64 {
    let time = |f: &mut dyn FnMut() -> T| {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_nanos() as f64
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|_| {
            let off_ns = time(&mut off);
            time(&mut on) / off_ns
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2] - 1.0
}

/// Whether a missed verdict fails the run (`DOOD_BENCH_STRICT=1`); shared
/// hosts are noisy, so the hard gate is opt-in.
pub fn strict() -> bool {
    std::env::var("DOOD_BENCH_STRICT").is_ok_and(|v| v == "1")
}

/// Human scale for nanosecond figures.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_overhead_sees_a_tenfold_workload() {
        let work = |n: u64| (0..n).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i)));
        let over = paired_overhead(21, || work(50_000), || work(500_000));
        assert!(over > 1.0, "ten times the work measured as {over:+.2}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(512.0), "512ns");
        assert_eq!(fmt_ns(1_500.0), "1.5us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }
}
