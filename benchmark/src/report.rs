//! From passes and spans to named metrics, and from metrics to the two
//! outputs: a human-readable table and the driver's one-line JSON result.

use crate::ops::Workload;
use crate::stats::{median, min, min_over_passes, pass_spread_pct, percentile, sorted};
use crate::trace::{layer_totals, Count, Tracer, LAYERS, OP_SETUP, SETUP_LAYERS};
use crate::Pass;
use std::fmt::Write as _;
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        higher_is_better: bool,
    ) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            higher_is_better,
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub input: String,
    pub passes: usize,
    pub ops: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub host: String,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Every metric by name with its unit, the sample counts, and the
    /// correctness verdict.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} | input: {} | {} ops/pass, {} timed passes (closed loop, 1 client)",
            self.workload, self.seed, self.input, self.ops, self.passes
        );
        let _ = writeln!(
            out,
            "times are wall-clock; percentiles are over the {} per-op minima, {} lie beyond p95",
            self.ops,
            self.ops - (0.95 * self.ops as f64).ceil() as usize
        );
        let _ = writeln!(out, "{}", self.host);
        for m in &self.metrics {
            let _ = writeln!(out, "{:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.failed == 0
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        out
    }

    /// The driver's result: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's own view of the host: the op loop's wall time in the fastest
/// and in the median pass, and the sum of the per-op minima, in ms.
pub fn host_line(passes: &[Pass]) -> String {
    let totals = sorted(
        &passes
            .iter()
            .map(|p| p.op_ms.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let quiet: f64 = min_over_passes(&op_times(passes)).iter().sum();
    format!(
        "op loop per pass: fastest {:.1} ms, median {:.1} ms; sum of per-op minima {quiet:.1} ms",
        totals[0],
        median(&totals)
    )
}

fn op_times(passes: &[Pass]) -> Vec<Vec<f64>> {
    passes.iter().map(|p| p.op_ms.clone()).collect()
}

/// The seven end-to-end metrics, from the untraced passes. Times are the
/// per-op (and, for set-up, per-pass) minima of wall time.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let quiet = sorted(&min_over_passes(&op_times(passes)));
    let n = quiet.len() as f64;
    let first = &passes[0];
    vec![
        Metric::new(
            "setup_s",
            min(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
            "s",
            false,
        ),
        Metric::new(
            "ops_per_s",
            n / (quiet.iter().sum::<f64>() / 1e3),
            "1/s",
            true,
        ),
        Metric::new("op_p50_ms", percentile(&quiet, 50.0), "ms", false),
        Metric::new("op_p95_ms", percentile(&quiet, 95.0), "ms", false),
        Metric::new("allocs_per_op", first.allocs as f64 / n, "count", false),
        Metric::new(
            "alloc_kb_per_op",
            first.bytes as f64 / 1024.0 / n,
            "KB",
            false,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", false),
    ]
}

/// Every op class of every workload: a traced run prints
/// `class.<name>.p50_ms` for each, zero for the classes of other workloads.
pub fn all_classes() -> Vec<&'static str> {
    use crate::{cold::ColdPipeline, social::SocialClosure, univ::UnivQuery, univ::UnivUpdate};
    [
        UnivQuery::CLASSES,
        UnivUpdate::CLASSES,
        SocialClosure::CLASSES,
        ColdPipeline::CLASSES,
    ]
    .concat()
}

/// The per-layer metrics, from a traced run: per layer and op, from the
/// traced pass with the least total op time (so that shares add up); work
/// counts from the same pass; per-class medians and the harness's own
/// readings from the untraced passes beside it.
pub fn per_layer<W: Workload>(
    w: &W,
    untraced: &[Pass],
    traced: &[Pass],
    t: &Tracer,
) -> Vec<Metric> {
    let n = w.n_ops() as f64;
    let total = |p: &Pass| p.op_ms.iter().sum::<f64>();
    let best = (0..traced.len())
        .min_by(|&a, &b| total(&traced[a]).total_cmp(&total(&traced[b])))
        .expect("a traced run has traced passes");
    // Traced passes carry the even pass numbers.
    let best_pass = 2 * best as u32 + 2;

    let mut out = Vec::new();
    let in_ops = layer_totals(&t.spans, &LAYERS, |s| s.pass == best_pass && s.op >= 0);
    let all_self: u64 = in_ops.iter().map(|l| l.self_ns).sum();
    for (layer, l) in LAYERS.iter().zip(&in_ops) {
        out.push(Metric::new(
            format!("{layer}.calls_per_op"),
            l.calls as f64 / n,
            "count",
            false,
        ));
        out.push(Metric::new(
            format!("{layer}.self_us_per_op"),
            l.self_ns as f64 / 1e3 / n,
            "us",
            false,
        ));
        out.push(Metric::new(
            format!("{layer}.share_pct"),
            l.self_ns as f64 / all_self.max(1) as f64 * 100.0,
            "%",
            false,
        ));
        out.push(Metric::new(
            format!("{layer}.allocs_per_op"),
            l.allocs as f64 / n,
            "count",
            false,
        ));
        out.push(Metric::new(
            format!("{layer}.alloc_kb_per_op"),
            l.bytes as f64 / 1024.0 / n,
            "KB",
            false,
        ));
    }
    let in_setup = layer_totals(&t.spans, &SETUP_LAYERS, |s| {
        s.pass == best_pass && s.op == OP_SETUP
    });
    for (layer, l) in SETUP_LAYERS.iter().zip(&in_setup) {
        out.push(Metric::new(
            format!("setup.{layer}.self_ms"),
            l.self_ns as f64 / 1e6,
            "ms",
            false,
        ));
    }

    // Work counts are the same in every pass (same ops, same state); the
    // recorder holds the last traced pass's.
    let c = |what| t.counted(what) as f64;
    let load_ns: u64 = t
        .spans
        .iter()
        .filter(|s| s.pass == best_pass && s.name == "store.load")
        .map(|s| s.self_ns)
        .sum();
    out.push(Metric::new(
        "oql.eval.patterns_per_op",
        c(Count::EvalPatterns) / n,
        "count",
        false,
    ));
    out.push(Metric::new(
        "oql.table.rows_per_op",
        c(Count::TableRows) / n,
        "count",
        false,
    ));
    out.push(Metric::new(
        "rules.propagate.events_per_op",
        c(Count::PropagateEvents) / n,
        "count",
        false,
    ));
    out.push(Metric::new(
        "rules.propagate.rederived_per_op",
        c(Count::PropagateRederived) / n,
        "count",
        false,
    ));
    out.push(Metric::new(
        "rules.propagate.noop_share",
        c(Count::PropagateNoop) / c(Count::PropagateCalls).max(1.0),
        "ratio",
        false,
    ));
    out.push(Metric::new(
        "store.load.mb_per_s",
        c(Count::LoadBytes) / 1e6 / (load_ns.max(1) as f64 / 1e9),
        "MB/s",
        true,
    ));
    out.push(Metric::new(
        "oql.parse.bytes_per_op",
        c(Count::ParseBytes) / n,
        "B",
        false,
    ));

    let quiet = min_over_passes(&op_times(untraced));
    for class in all_classes() {
        let of_class: Vec<f64> = (0..w.n_ops())
            .filter(|&i| w.class_of(i) == class)
            .map(|i| quiet[i])
            .collect();
        let p50 = if of_class.is_empty() {
            0.0
        } else {
            median(&of_class)
        };
        out.push(Metric::new(
            format!("class.{class}.p50_ms"),
            p50,
            "ms",
            false,
        ));
    }
    out.push(Metric::new(
        "bench.pass_spread_pct",
        pass_spread_pct(&op_times(untraced)),
        "%",
        false,
    ));
    let first = untraced[0].allocs as f64;
    let dev = untraced
        .iter()
        .map(|p| (p.allocs as f64 - first).abs() / first * 100.0)
        .fold(0.0, f64::max);
    out.push(Metric::new("bench.alloc_pass_dev_pct", dev, "%", false));
    let traced_quiet: f64 = min_over_passes(&op_times(traced)).iter().sum();
    let plain_quiet: f64 = quiet.iter().sum();
    out.push(Metric::new(
        "trace.overhead_pct",
        (traced_quiet - plain_quiet) / plain_quiet * 100.0,
        "%",
        false,
    ));
    out
}

/// Write the spans to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, t: &Tracer) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, t.to_jsonl(workload)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Check the shape of a result line: one object, the four keys, whole
/// numbers where the driver wants them.
#[cfg(test)]
pub fn assert_result_line(line: &str) {
    assert!(!line.contains('\n'));
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ")
            || line.starts_with("{\"correct\": false, ")
    );
    assert!(line.ends_with("}}"));
    for key in [
        "\"correct\": ",
        "\"attempted\": ",
        "\"failed\": ",
        "\"metrics\": {",
    ] {
        assert_eq!(line.matches(key).count(), 1, "{key}");
    }
    assert_eq!(line.matches('{').count(), line.matches('}').count());
    let after = |key: &str| {
        line.split(key)
            .nth(1)
            .unwrap()
            .split([',', '}'])
            .next()
            .unwrap()
            .trim()
    };
    assert!(after("\"attempted\": ").parse::<u64>().unwrap() >= 1);
    after("\"failed\": ").parse::<u64>().unwrap();
    for value in line.split("\"value\": ").skip(1) {
        let number = value.split(',').next().unwrap();
        assert!(number.parse::<f64>().unwrap().is_finite(), "{number}");
    }
}

/// Check a report's metrics against `BENCHMARK.json`: the section declares
/// exactly these names, each with this unit and direction, within the
/// driver's limits on names, units and counts.
#[cfg(test)]
pub fn assert_declared(metrics: &[Metric], section: &str, limit: usize) {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{section}\": [")).expect(section);
    let body = &json[start..start + json[start..].find(']').expect("section ends")];
    assert_eq!(
        body.matches("{\"name\": ").count(),
        metrics.len(),
        "{section}"
    );
    assert!(metrics.len() <= limit);
    for (i, m) in metrics.iter().enumerate() {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            m.name, m.unit
        );
        assert!(
            body.contains(&entry),
            "BENCHMARK.json {section} lacks {entry}"
        );
        assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        assert!(
            m.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{}",
            m.name
        );
        assert!(
            m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            m.unit
        );
        assert!(
            !metrics[..i].iter().any(|o| o.name == m.name),
            "{} twice",
            m.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(failed: u64) -> Report {
        Report {
            workload: "univ_query",
            seed: 1,
            input: "10 objects".into(),
            passes: 10,
            ops: 240,
            attempted: 2641,
            failed,
            failures: vec![],
            host: String::new(),
            metrics: vec![
                Metric::new("setup_s", 0.31250, "s", false),
                Metric::new("ops_per_s", f64::NAN, "1/s", true),
            ],
        }
    }

    #[test]
    fn result_line_has_the_drivers_shape() {
        let line = report(0).json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2641, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.3125, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
        assert_result_line(&line);
        assert!(report(3)
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 2641, \"failed\": 3,"));
    }

    #[test]
    fn end_to_end_uses_minima_and_the_first_pass_allocations() {
        let pass = |setup_s, scale: f64, allocs| Pass {
            setup_s,
            op_ms: (1..=240).map(|i| f64::from(i) * scale).collect(),
            allocs,
            bytes: allocs * 1024,
        };
        let m = end_to_end(&[
            pass(0.5, 1.0, 2400),
            pass(0.4, 0.5, 9999),
            pass(0.6, 2.0, 1),
        ]);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("setup_s"), 0.4);
        assert_eq!(get("op_p50_ms"), 60.0);
        assert_eq!(get("op_p95_ms"), 114.0);
        assert!((get("ops_per_s") - 240.0 / 14.46).abs() < 1e-9);
        assert_eq!(get("allocs_per_op"), 10.0);
        assert_eq!(get("alloc_kb_per_op"), 10.0);
        assert!(get("peak_rss_mb") > 0.0);
    }
}
