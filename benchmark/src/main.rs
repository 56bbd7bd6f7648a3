//! `dood-benchmark` — the end-to-end and per-layer benchmark of the `dood`
//! engine (ROADMAP E21). See `benchmark/README.md` for the method.
//!
//! Every run is fixed work, repeated passes, per-op minimum: the inputs are
//! made once from `--seed`; pass 0 warms up and checks correctness; each
//! timed pass starts from the same bytes and runs the same ops in the same
//! order; `quiet(i)` is the minimum of op `i`'s wall time over the passes.
//! The engine is measured from outside, through its public functions, with
//! no `DOOD_*` variable set.

mod alloc;
mod cold;
mod gen;
mod ops;
mod report;
mod social;
mod stats;
mod trace;
mod univ;

use ops::{Outcome, Workload};
use report::Report;
use std::time::Instant;
use trace::{Tracer, OP_SETUP};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "univ_query",
    "univ_update",
    "social_closure",
    "cold_pipeline",
];

/// Ops per pass (`cold_pipeline` runs 256: four per input).
const N_OPS: usize = 240;
const SMOKE_OPS: usize = 16;
/// Timed passes of an untraced run: at least this many, and as many more as
/// fit into the `--seconds` the whole run may last.
const MIN_PASSES: usize = 10;
/// A traced run alternates this many untraced passes (for the per-class
/// medians and the overhead baseline) with as many traced ones.
const TRACE_PASSES: usize = 5;

pub fn n_ops(smoke: bool) -> usize {
    if smoke {
        SMOKE_OPS
    } else {
        N_OPS
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 16 ops, 1 + 1 passes, tiny database: a functional check, not a
    /// measurement.
    pub smoke: bool,
}

const USAGE: &str = "usage: dood-benchmark --workload <univ_query|univ_update|social_closure|\
                     cold_pipeline> [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 32.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(cfg)
}

fn main() {
    // The engine reads `DOOD_*` switches lazily; none may leak in from the
    // caller's environment, so the pool runs at `available_parallelism`.
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("DOOD_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run_workload(&cfg) {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json_line());
        }
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload);
            std::process::exit(1);
        }
    }
}

fn run_workload(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "univ_query" => run::<univ::UnivQuery>(cfg),
        "univ_update" => run::<univ::UnivUpdate>(cfg),
        "social_closure" => run::<social::SocialClosure>(cfg),
        _ => run::<cold::ColdPipeline>(cfg),
    }
}

/// Executions attempted and failed. An execution fails if the op returns
/// `Err`, if its digest differs from pass 0's, or if pass 0's oracle
/// rejects it.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first few failures, for the human-readable report.
    messages: Vec<String>,
}

impl Tally {
    /// `what` names the execution; it is only asked for on failure.
    fn record(&mut self, what: impl FnOnce() -> String, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{}: {e}", what()));
            }
        }
    }
}

/// One timed pass, in wall time.
struct Pass {
    setup_s: f64,
    op_ms: Vec<f64>,
    /// Allocations and bytes requested inside the op loop's timed windows.
    allocs: u64,
    bytes: u64,
}

/// Pass 0: untimed warm-up that also checks correctness. Returns every
/// op's digest, the reference for the timed passes.
fn warm_up<W: Workload>(w: &W, tally: &mut Tally) -> Result<Vec<u64>, String> {
    let mut off = Tracer::off();
    let mut st = w.setup(&mut off)?;
    tally.record(|| "set-up oracle".into(), w.check_setup(&mut st));
    w.warm(&mut st)?;
    let mut digests = Vec::with_capacity(w.n_ops());
    for i in 0..w.n_ops() {
        let what = || format!("pass 0 op {i} ({})", w.class_of(i));
        match w.run_op(&mut st, i, &mut off) {
            Ok(out) => {
                digests.push(w.digest(&st, &out));
                tally.record(what, w.check_op(&mut st, i, &out));
            }
            Err(e) => {
                digests.push(0);
                tally.record(what, Err(e));
            }
        }
    }
    Ok(digests)
}

fn timed_pass<W: Workload>(
    w: &W,
    pass: u32,
    t: &mut Tracer,
    reference: &[u64],
    tally: &mut Tally,
) -> Result<Pass, String> {
    t.at(pass, OP_SETUP);
    let started = Instant::now();
    let mut st = w.setup(t)?;
    let mut out = Pass {
        setup_s: started.elapsed().as_secs_f64(),
        op_ms: Vec::with_capacity(w.n_ops()),
        allocs: 0,
        bytes: 0,
    };
    w.warm(&mut st)?;
    for (i, &expected) in reference.iter().enumerate() {
        t.at(pass, i as i32);
        let root = t.enter(w.class_of(i));
        let (allocs0, bytes0) = alloc::snapshot();
        let started = Instant::now();
        let result = w.run_op(&mut st, i, t);
        let elapsed = started.elapsed();
        let (allocs1, bytes1) = alloc::snapshot();
        t.exit(root);
        out.op_ms.push(elapsed.as_secs_f64() * 1e3);
        out.allocs += allocs1 - allocs0;
        out.bytes += bytes1 - bytes0;
        let verdict = result.and_then(|o: Outcome| {
            let got = w.digest(&st, &o);
            if got == expected {
                Ok(())
            } else {
                Err(format!("digest {got:016x}, pass 0 had {expected:016x}"))
            }
        });
        tally.record(
            || format!("pass {pass} op {i} ({})", w.class_of(i)),
            verdict,
        );
    }
    Ok(out)
}

fn run<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let started = Instant::now();
    // Room for every span of the traced passes, so the recorder's own
    // growth stays out of the allocation counts.
    let mut tracer = if cfg.trace {
        Tracer::on(TRACE_PASSES * n_ops(cfg.smoke) * 48)
    } else {
        Tracer::off()
    };
    let w = W::build(cfg.seed, cfg.smoke, &mut tracer)?;
    let mut tally = Tally::default();
    let reference = warm_up(&w, &mut tally)?;

    let mut off = Tracer::off();
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    if cfg.trace {
        // Untraced and traced passes alternate, so that a slow phase of the
        // host falls on both sides of the overhead reading.
        for k in 0..if cfg.smoke { 1 } else { TRACE_PASSES } as u32 {
            untraced.push(timed_pass(&w, 2 * k + 1, &mut off, &reference, &mut tally)?);
            tracer.reset_counts();
            traced.push(timed_pass(
                &w,
                2 * k + 2,
                &mut tracer,
                &reference,
                &mut tally,
            )?);
        }
        let path = report::write_trace(W::NAME, &tracer)?;
        eprintln!("trace: {} spans in {}", tracer.spans.len(), path.display());
    } else {
        let (min_passes, budget_s) = if cfg.smoke {
            (1, 0.0)
        } else {
            (MIN_PASSES, cfg.seconds)
        };
        // `--seconds` covers the whole run: making the inputs and pass 0
        // have used part of it already.
        let passes_started = Instant::now();
        loop {
            let per_pass = passes_started.elapsed().as_secs_f64() / untraced.len().max(1) as f64;
            let next_fits = started.elapsed().as_secs_f64() + per_pass <= budget_s;
            if untraced.len() >= min_passes && !next_fits {
                break;
            }
            let pass = untraced.len() as u32 + 1;
            untraced.push(timed_pass(&w, pass, &mut off, &reference, &mut tally)?);
        }
    }

    let metrics = if cfg.trace {
        report::per_layer::<W>(&w, &untraced, &traced, &tracer)
    } else {
        report::end_to_end(&untraced)
    };
    Ok(Report {
        workload: W::NAME,
        seed: cfg.seed,
        input: w.input_size(),
        passes: untraced.len() + traced.len(),
        ops: w.n_ops(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.messages,
        host: report::host_line(&untraced),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cfg = parse_args(&args(
            "--workload univ_update --seed 77 --seconds 32 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cfg,
            Config {
                workload: "univ_update".into(),
                seed: 77,
                seconds: 32.0,
                trace: true,
                smoke: false
            }
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload univ_query --trace 2")).is_err());
        assert!(parse_args(&args("--workload univ_query --seed")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
    }

    /// `--smoke` on every workload, untraced and traced: runs, reports no
    /// failure, and prints exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_every_workload() {
        let started = Instant::now();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = Config {
                    workload: workload.into(),
                    seed: 5,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let report = run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
                assert_eq!(report.ops, SMOKE_OPS);
                // Pass 0 and one timed pass (two when traced), plus the
                // set-up oracle.
                let passes = if trace { 3 } else { 2 };
                assert_eq!(report.attempted, (SMOKE_OPS * passes) as u64 + 1);
                if trace {
                    report::assert_declared(&report.metrics, "per_layer", 128);
                } else {
                    report::assert_declared(&report.metrics, "end_to_end", 16);
                }
                report::assert_result_line(&report.json_line());
            }
        }
        assert!(
            started.elapsed().as_secs() < 20,
            "smoke mode must stay quick even unoptimised"
        );
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(json.matches("\"why\": ").count(), WORKLOADS.len());
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
    }
}
