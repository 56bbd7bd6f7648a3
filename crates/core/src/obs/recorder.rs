//! `obs::recorder` — the always-on flight recorder (DESIGN.md §13).
//!
//! A bounded in-memory ring of the most recent closed spans, kept so the
//! evidence for an anomaly (a slow query) already exists when the
//! anomaly is noticed — no re-run needed. The ring is striped
//! per thread: every recording thread owns a fixed-capacity buffer behind
//! its own (uncontended) mutex, and each record is stamped with a global
//! sequence number so [`dump`] can merge the stripes back into one
//! coherent, oldest-to-newest event stream.
//!
//! Cost contract: when disabled, the recorder costs the one relaxed
//! atomic load already paid by the trace gate (spans are inert, so
//! [`record`] is never reached). When enabled, recording a span is one
//! thread-local access, one relaxed fetch-add, and one uncontended lock —
//! bench E20 gates the end-to-end overhead at <2% on the E1 workload.
//!
//! Enabling: env `DOOD_FLIGHT=1` (capacity per stripe via
//! `DOOD_FLIGHT_CAP`, default 2048) or [`set_enabled`]. Enabling the
//! recorder turns the trace gate on — spans must be live to be recorded —
//! but installs no stream writer, so nothing is written anywhere until
//! [`dump`] (or an anomaly) asks for the ring's contents.

use super::trace::SpanRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One thread's slice of the ring.
struct Stripe {
    /// `(sequence, record)` pairs; at most `cap` of them.
    buf: Vec<(u64, SpanRecord)>,
    /// Next overwrite position once `buf` is full.
    cursor: usize,
    /// Records overwritten (lost) on this stripe since the last [`clear`].
    dropped: u64,
}

impl Stripe {
    fn push(&mut self, seq: u64, rec: SpanRecord, cap: usize) {
        if self.buf.len() < cap {
            self.buf.push((seq, rec));
        } else {
            self.buf[self.cursor] = (seq, rec);
            self.cursor = (self.cursor + 1) % cap;
            self.dropped += 1;
        }
    }
}

fn stripes() -> &'static Mutex<Vec<Arc<Mutex<Stripe>>>> {
    static S: OnceLock<Mutex<Vec<Arc<Mutex<Stripe>>>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Mutex<Stripe>> = {
        let stripe = Arc::new(Mutex::new(Stripe {
            buf: Vec::new(),
            cursor: 0,
            dropped: 0,
        }));
        stripes().lock().unwrap().push(stripe.clone());
        stripe
    };
}

/// Global sequence stamp: total order over records from all stripes.
static SEQ: AtomicU64 = AtomicU64::new(0);

static RECORDER_GATE: super::Gate = super::Gate::new();

fn env_init() -> bool {
    super::env_flag("DOOD_FLIGHT")
}

/// Whether the flight recorder is on (env `DOOD_FLIGHT` or
/// [`set_enabled`]). One relaxed atomic load after the first call.
#[inline]
pub fn is_enabled() -> bool {
    RECORDER_GATE.is_on(env_init)
}

/// Programmatically enable or disable the recorder (overrides the
/// `DOOD_FLIGHT` environment default) and refresh the trace gate, which
/// folds the recorder state in: spans must be live to be recorded.
pub fn set_enabled(on: bool) {
    let _ = super::trace_enabled(); // settle env state first
    RECORDER_GATE.set(on);
    super::trace::recompute_gate();
}

/// Per-stripe ring capacity: `DOOD_FLIGHT_CAP`, default 2048, min 16.
pub fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("DOOD_FLIGHT_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|c| c.max(16))
            .unwrap_or(2048)
    })
}

/// Record one closed span into the current thread's stripe. Called by the
/// trace emitter for every closed span while the recorder is enabled.
pub(super) fn record(rec: &SpanRecord) {
    record_owned(rec.clone());
}

/// [`record`] by move: the emit path uses this when the ring is the only
/// consumer of a closing span, skipping the record's deep clone.
pub(super) fn record_owned(rec: SpanRecord) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let cap = capacity();
    LOCAL.with(|s| s.lock().unwrap().push(seq, rec, cap));
}

/// Merge every stripe into one chronological (sequence-ordered) snapshot
/// of the ring's current contents. Returns the records plus the number of
/// older records that were overwritten and lost.
pub fn dump() -> (Vec<SpanRecord>, u64) {
    let mut all: Vec<(u64, SpanRecord)> = Vec::new();
    let mut dropped = 0u64;
    for stripe in stripes().lock().unwrap().iter() {
        let s = stripe.lock().unwrap();
        all.extend(s.buf.iter().cloned());
        dropped += s.dropped;
    }
    all.sort_by_key(|&(seq, _)| seq);
    (all.into_iter().map(|(_, r)| r).collect(), dropped)
}

/// The ring's contents as a JSON-lines trace (same format as
/// `DOOD_TRACE=1`, validatable in flight mode — a ring dump may begin
/// mid-span, so strict nesting checks do not apply).
pub fn dump_json() -> String {
    let (recs, _) = dump();
    let mut out = String::new();
    for r in &recs {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Write the ring's contents to `path` as JSON lines.
pub fn dump_to_path(path: &str) -> std::io::Result<usize> {
    let (recs, _) = dump();
    let mut out = String::new();
    for r in &recs {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    std::fs::write(path, out)?;
    Ok(recs.len())
}

/// Empty every stripe (tests; keeps the stripes registered).
pub fn clear() {
    for stripe in stripes().lock().unwrap().iter() {
        let mut s = stripe.lock().unwrap();
        s.buf.clear();
        s.cursor = 0;
        s.dropped = 0;
    }
}

/// Anomaly hook: if the recorder is enabled and `DOOD_FLIGHT_DUMP` names
/// a path, write the ring there (annotated to stderr with `reason`), so
/// the evidence window around the anomaly survives the process. Counts
/// `obs.flight.dumps` when metrics are on. Returns whether a dump was
/// written.
pub fn dump_on_anomaly(reason: &str) -> bool {
    if !is_enabled() {
        return false;
    }
    if super::metrics_enabled() {
        super::metrics::counter("obs.flight.anomalies").inc();
    }
    let Ok(path) = std::env::var("DOOD_FLIGHT_DUMP") else {
        return false;
    };
    match dump_to_path(&path) {
        Ok(n) => {
            eprintln!("obs: flight recorder dumped {n} span(s) to `{path}` ({reason})");
            if super::metrics_enabled() {
                super::metrics::counter("obs.flight.dumps").inc();
            }
            true
        }
        Err(e) => {
            eprintln!("obs: flight dump to `{path}` failed: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests mutate the shared stripes; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn rec(id: u64, name: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            thread: 0,
            name: name.to_string(),
            label: None,
            start_ns: id * 10,
            dur_ns: 5,
            attrs: vec![],
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_merges_by_sequence() {
        let _g = lock();
        clear();
        let cap = capacity();
        // Overfill from two threads; the merged dump must be
        // sequence-ordered and bounded by the stripe capacities.
        let n = cap + 32;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n as u64 {
                    record(&rec(i, "test.flight.a"));
                }
            });
            s.spawn(|| {
                for i in 0..64u64 {
                    record(&rec(1_000_000 + i, "test.flight.b"));
                }
            });
        });
        let (recs, dropped) = dump();
        assert!(dropped >= 32, "overfill must drop: {dropped}");
        assert!(recs.len() <= cap + 64);
        let a: Vec<&SpanRecord> =
            recs.iter().filter(|r| r.name == "test.flight.a").collect();
        assert_eq!(a.len(), cap, "stripe a holds exactly its capacity");
        // Oldest were overwritten: the lowest surviving id is n - cap.
        assert!(a.iter().all(|r| r.id >= (n - cap) as u64));
        // Per-stripe order survives the merge.
        for w in a.windows(2) {
            assert!(w[0].id < w[1].id);
        }
        clear();
        assert_eq!(dump().0.len(), 0);
    }

    #[test]
    fn dump_json_round_trips() {
        let _g = lock();
        clear();
        record(&rec(7, "test.flight.json"));
        let text = dump_json();
        let line = text
            .lines()
            .find(|l| l.contains("test.flight.json"))
            .expect("recorded span in dump");
        let parsed = SpanRecord::from_json_line(line).unwrap();
        assert_eq!(parsed.id, 7);
        clear();
    }
}
