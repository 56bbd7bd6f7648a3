//! The EXPLAIN ANALYZE surface: a plan-shaped tree of profiled operators.
//!
//! A [`Profile`] is built from the spans collected by
//! [`super::trace::capture`]: each node is one span (plan operator, rule
//! application, closure round, …) with its wall time and integer attributes
//! (cardinalities, selectivities), children ordered by start time. The
//! `doodprof` CLI renders these trees; engines expose `*_profiled` entry
//! points returning them.

use super::trace::SpanRecord;
use crate::fxhash::FxHashMap;

/// One node of an EXPLAIN ANALYZE tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Span site name (`oql.join`, `rules.rule`, …).
    pub name: String,
    /// Dynamic label (rule name, context name), when any.
    pub label: Option<String>,
    /// Thread ordinal the span ran on.
    pub thread: u64,
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
    /// Integer attributes in recording order (cardinalities, counts).
    pub attrs: Vec<(String, i64)>,
    /// Child operators, ordered by start time.
    pub children: Vec<Profile>,
}

impl Profile {
    /// Build the profile forest from a captured span set: every span whose
    /// parent is absent from the set becomes a root. Children are ordered
    /// by `(start_ns, id)`.
    pub fn from_spans(spans: &[SpanRecord]) -> Vec<Profile> {
        // Sort indices by start so children attach in order.
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
        let ids: FxHashMap<u64, ()> = spans.iter().map(|r| (r.id, ())).collect();
        let mut children_of: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut roots: Vec<usize> = Vec::new();
        for &i in &order {
            match spans[i].parent {
                Some(p) if ids.contains_key(&p) => {
                    children_of.entry(p).or_default().push(i)
                }
                _ => roots.push(i),
            }
        }
        fn build(
            i: usize,
            spans: &[SpanRecord],
            children_of: &FxHashMap<u64, Vec<usize>>,
        ) -> Profile {
            let r = &spans[i];
            Profile {
                name: r.name.clone(),
                label: r.label.clone(),
                thread: r.thread,
                wall_ns: r.dur_ns,
                attrs: r.attrs.clone(),
                children: children_of
                    .get(&r.id)
                    .map(|kids| {
                        kids.iter().map(|&k| build(k, spans, children_of)).collect()
                    })
                    .unwrap_or_default(),
            }
        }
        roots.into_iter().map(|i| build(i, spans, &children_of)).collect()
    }

    /// Build a single-rooted profile: the sole root when there is exactly
    /// one, otherwise a synthetic `run` node wrapping the forest (wall
    /// time = sum of the roots').
    pub fn single(spans: &[SpanRecord]) -> Profile {
        let mut forest = Self::from_spans(spans);
        if forest.len() == 1 {
            return forest.remove(0);
        }
        Profile {
            name: "run".into(),
            label: None,
            thread: 0,
            wall_ns: forest.iter().map(|p| p.wall_ns).sum(),
            attrs: Vec::new(),
            children: forest,
        }
    }

    /// An attribute's value, by key.
    pub fn attr(&self, key: &str) -> Option<i64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The first descendant (depth-first, self included) with this span
    /// name.
    pub fn find(&self, name: &str) -> Option<&Profile> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total node count (self included).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(Profile::node_count).sum::<usize>()
    }

    /// Render the tree with box-drawing guides, one operator per line:
    /// `name [label] wall attrs…`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        if !root {
            out.push_str(prefix);
            out.push_str(if last { "└─ " } else { "├─ " });
        }
        out.push_str(&self.name);
        if let Some(l) = &self.label {
            out.push_str(&format!(" [{l}]"));
        }
        out.push_str(&format!("  {}", fmt_ns(self.wall_ns)));
        for (k, v) in &self.attrs {
            out.push_str(&format!("  {k}={v}"));
        }
        out.push('\n');
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }

    /// Serialize the tree as one JSON object (nested `children` arrays).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"name\":\"{}\"",
            super::json_escape(&self.name)
        ));
        if let Some(l) = &self.label {
            s.push_str(&format!(",\"label\":\"{}\"", super::json_escape(l)));
        }
        s.push_str(&format!(",\"thread\":{},\"wall_ns\":{}", self.thread, self.wall_ns));
        if !self.attrs.is_empty() {
            s.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{v}", super::json_escape(k)));
            }
            s.push('}');
        }
        if !self.children.is_empty() {
            s.push_str(",\"children\":[");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&c.to_json());
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

/// Format nanoseconds human-readably with integer arithmetic only:
/// `857ns`, `12.3µs`, `4.56ms`, `1.20s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{}µs", ns / 1_000, (ns % 1_000) / 100)
    } else if ns < 1_000_000_000 {
        format!("{}.{:02}ms", ns / 1_000_000, (ns % 1_000_000) / 10_000)
    } else {
        format!("{}.{:02}s", ns / 1_000_000_000, (ns % 1_000_000_000) / 10_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::trace::{capture, span};

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(857), "857ns");
        assert_eq!(fmt_ns(12_345), "12.3µs");
        assert_eq!(fmt_ns(4_560_000), "4.56ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    #[test]
    fn tree_from_captured_spans() {
        let ((), spans) = capture(|| {
            let mut q = span("test.profile.query");
            q.attr("rows", 2);
            {
                let _a = span("test.profile.ctx");
                let _b = span("test.profile.join");
            }
            let _w = span("test.profile.where");
        });
        let p = Profile::single(&spans);
        assert_eq!(p.name, "test.profile.query");
        assert_eq!(p.attr("rows"), Some(2));
        assert_eq!(p.children.len(), 2);
        assert_eq!(p.children[0].name, "test.profile.ctx");
        assert_eq!(p.children[0].children[0].name, "test.profile.join");
        assert_eq!(p.children[1].name, "test.profile.where");
        assert_eq!(p.node_count(), 4);
        assert!(p.find("test.profile.join").is_some());
        assert!(p.find("nope").is_none());
        let rendered = p.render();
        assert!(rendered.contains("├─ test.profile.ctx"), "{rendered}");
        assert!(rendered.contains("│  └─ test.profile.join"), "{rendered}");
        assert!(rendered.contains("└─ test.profile.where"), "{rendered}");
        assert!(rendered.contains("rows=2"), "{rendered}");
        let json = p.to_json();
        assert!(json.contains("\"name\":\"test.profile.query\""));
        assert!(json.contains("\"children\":["));
    }

    #[test]
    fn forest_wraps_in_synthetic_root() {
        let ((), spans) = capture(|| {
            drop(span("test.profile.r1"));
            drop(span("test.profile.r2"));
        });
        let p = Profile::single(&spans);
        assert_eq!(p.name, "run");
        assert_eq!(p.children.len(), 2);
    }
}
