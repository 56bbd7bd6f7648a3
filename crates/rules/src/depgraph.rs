//! The rule dependency graph over derived subdatabases.
//!
//! Subdatabase `S` depends on `T` when some rule deriving `S` reads a class
//! of `T`. Inference chains must be acyclic: recursion is expressed through
//! the closure construct (`^*`, paper §5.2), not through cyclic rule sets.

use crate::ast::Rule;
use crate::error::RuleError;
use dood_core::fxhash::{FxHashMap, FxHashSet};
use std::sync::OnceLock;

/// The dependency structure of a rule set.
#[derive(Debug, Default, Clone)]
pub struct DepGraph {
    /// Subdatabase name → indices of rules deriving it.
    pub derives: FxHashMap<String, Vec<usize>>,
    /// Subdatabase name → subdatabases it depends on.
    pub deps: FxHashMap<String, Vec<String>>,
    /// Memoized topological order — the graph is immutable once built, and
    /// every propagation round asks for the order and the strata.
    topo_memo: OnceLock<Vec<String>>,
    /// Memoized strata.
    strata_memo: OnceLock<Vec<Vec<String>>>,
}

impl DepGraph {
    /// Build the graph from a rule set, borrowed: rule `i` of the iteration
    /// is rule index `i` in [`rules_for`](Self::rules_for).
    pub fn build<'r>(rules: impl IntoIterator<Item = &'r Rule>) -> Self {
        let mut derives: FxHashMap<String, Vec<usize>> = FxHashMap::default();
        let mut deps: FxHashMap<String, Vec<String>> = FxHashMap::default();
        for (i, r) in rules.into_iter().enumerate() {
            derives.entry(r.target_subdb.clone()).or_default().push(i);
            let e = deps.entry(r.target_subdb.clone()).or_default();
            for read in r.reads() {
                if !e.contains(&read) {
                    e.push(read);
                }
            }
        }
        for v in deps.values_mut() {
            v.sort_unstable();
        }
        DepGraph { derives, deps, topo_memo: OnceLock::new(), strata_memo: OnceLock::new() }
    }

    /// Rules deriving a subdatabase.
    pub fn rules_for(&self, subdb: &str) -> &[usize] {
        self.derives.get(subdb).map_or(&[], |v| v.as_slice())
    }

    /// Whether any rule derives the subdatabase.
    pub fn is_derived(&self, subdb: &str) -> bool {
        self.derives.contains_key(subdb)
    }

    /// Direct dependencies of a derived subdatabase.
    pub fn deps_of(&self, subdb: &str) -> &[String] {
        self.deps.get(subdb).map_or(&[], |v| v.as_slice())
    }

    /// All derived subdatabases in topological (dependency-first) order.
    /// Errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<String>, RuleError> {
        self.topo_order_ref().map(<[String]>::to_vec)
    }

    /// Borrowing form of [`topo_order`](Self::topo_order) for in-crate
    /// readers of the order.
    pub(crate) fn topo_order_ref(&self) -> Result<&[String], RuleError> {
        if let Some(v) = self.topo_memo.get() {
            return Ok(v);
        }
        let mut order = Vec::new();
        let mut state: FxHashMap<&str, u8> = FxHashMap::default(); // 1 grey, 2 black
        let mut names: Vec<&String> = self.derives.keys().collect();
        names.sort_unstable();
        for name in names {
            self.visit(name, &mut state, &mut order, &mut Vec::new())?;
        }
        Ok(self.topo_memo.get_or_init(|| order))
    }

    fn visit<'a>(
        &'a self,
        name: &'a str,
        state: &mut FxHashMap<&'a str, u8>,
        order: &mut Vec<String>,
        stack: &mut Vec<String>,
    ) -> Result<(), RuleError> {
        match state.get(name) {
            Some(2) => return Ok(()),
            Some(1) => {
                // The DFS stack holds the path from the traversal root; only
                // the suffix from the first occurrence of `name` is the
                // actual dependency cycle.
                let first = stack.iter().position(|n| n == name).unwrap_or(0);
                let mut cycle = stack[first..].to_vec();
                cycle.push(name.to_string());
                return Err(RuleError::CyclicRules(cycle));
            }
            _ => {}
        }
        state.insert(name, 1);
        stack.push(name.to_string());
        if let Some(deps) = self.deps.get(name) {
            for d in deps {
                // Depending on a non-derived (registered-only) subdatabase is
                // fine; it is a leaf.
                if self.derives.contains_key(d.as_str()) {
                    self.visit(d, state, order, stack)?;
                }
            }
        }
        stack.pop();
        state.insert(name, 2);
        order.push(name.to_string());
        Ok(())
    }

    /// Derived subdatabases grouped into dependency strata: a member of
    /// stratum `k` depends only on members of strata `< k` (and on base
    /// data). Same-stratum subdatabases are therefore independent — forward
    /// maintenance steps them all against one dirty set and commits in the
    /// within-stratum (sorted-name) order. Errors on cycles.
    pub fn strata(&self) -> Result<Vec<Vec<String>>, RuleError> {
        self.strata_ref().map(<[Vec<String>]>::to_vec)
    }

    /// Borrowing form of [`strata`](Self::strata) for in-crate readers of
    /// the strata.
    pub(crate) fn strata_ref(&self) -> Result<&[Vec<String>], RuleError> {
        if let Some(v) = self.strata_memo.get() {
            return Ok(v);
        }
        let order = self.topo_order_ref()?;
        let mut depth: FxHashMap<&str, usize> = FxHashMap::default();
        let mut strata: Vec<Vec<String>> = Vec::new();
        for name in order {
            let d = self
                .deps_of(name)
                .iter()
                .filter(|dep| self.derives.contains_key(dep.as_str()))
                .map(|dep| depth[dep.as_str()] + 1)
                .max()
                .unwrap_or(0);
            depth.insert(name, d);
            if strata.len() <= d {
                strata.resize_with(d + 1, Vec::new);
            }
            strata[d].push(name.clone());
        }
        for s in &mut strata {
            s.sort_unstable();
        }
        Ok(self.strata_memo.get_or_init(|| strata))
    }

    /// The transitive *derived* dependencies of a set of subdatabases, in
    /// topological (dependency-first) order and excluding the roots
    /// themselves. Incremental maintenance derives these in order before a
    /// maintenance batch, so every batch member's sources are materialized
    /// and the content delta of each is known.
    pub fn transitive_deps(&self, roots: &[String]) -> Result<Vec<String>, RuleError> {
        let mut wanted: FxHashSet<&str> = FxHashSet::default();
        let mut stack: Vec<&str> = roots.iter().map(String::as_str).collect();
        while let Some(n) = stack.pop() {
            for d in self.deps_of(n) {
                if self.derives.contains_key(d.as_str()) && wanted.insert(d.as_str()) {
                    stack.push(d);
                }
            }
        }
        let order = self.topo_order_ref()?;
        Ok(order
            .iter()
            .filter(|n| wanted.contains(n.as_str()) && !roots.contains(*n))
            .cloned()
            .collect())
    }

    /// The set of derived subdatabases that (transitively) depend on any
    /// member of `dirty` — the invalidation frontier for forward chaining.
    pub fn affected_by(&self, dirty: &FxHashSet<String>) -> FxHashSet<String> {
        let mut affected: FxHashSet<String> = FxHashSet::default();
        // Fixpoint; graphs are small (rule sets), so simple iteration.
        loop {
            let mut changed = false;
            for (subdb, deps) in &self.deps {
                if affected.contains(subdb) {
                    continue;
                }
                if deps.iter().any(|d| dirty.contains(d) || affected.contains(d)) {
                    affected.insert(subdb.clone());
                    changed = true;
                }
            }
            if !changed {
                return affected;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    fn rules(defs: &[(&str, &str)]) -> Vec<Rule> {
        defs.iter().map(|(n, s)| parse_rule(n, s).unwrap()).collect()
    }

    #[test]
    fn chain_topo_order() {
        // DB → REa → REb → REc (paper §6's Ra..Rd chain shape).
        let rs = rules(&[
            ("Ra", "if context A * B then REa (A)"),
            ("Rb", "if context REa:A * C then REb (A)"),
            ("Rc", "if context REb:A * D then REc (A)"),
        ]);
        let g = DepGraph::build(&rs);
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec!["REa", "REb", "REc"]);
        assert!(g.is_derived("REb"));
        assert!(!g.is_derived("A"));
        assert_eq!(g.deps_of("REb"), &["REa".to_string()]);
    }

    #[test]
    fn union_rules_share_target() {
        let rs = rules(&[
            ("R4", "if context A * B then May_teach (A)"),
            ("R5", "if context A * C then May_teach (A)"),
        ]);
        let g = DepGraph::build(&rs);
        assert_eq!(g.rules_for("May_teach").len(), 2);
    }

    #[test]
    fn cycle_detected() {
        let rs = rules(&[
            ("R1", "if context Y:B * A then X (A)"),
            ("R2", "if context X:A * B then Y (B)"),
        ]);
        let g = DepGraph::build(&rs);
        assert!(matches!(g.topo_order(), Err(RuleError::CyclicRules(_))));
    }

    #[test]
    fn cycle_path_excludes_dfs_prefix() {
        // A depends on X, and X <-> Y form the cycle: the reported path must
        // be the cycle itself (X -> Y -> X), not the DFS stack with the
        // non-cycle prefix A.
        let rs = rules(&[
            ("Ra", "if context X:C * A then SA (A)"),
            ("Rx", "if context Y:C * B then X (B)"),
            ("Ry", "if context X:B * C then Y (C)"),
        ]);
        let g = DepGraph::build(&rs);
        match g.topo_order() {
            Err(RuleError::CyclicRules(path)) => {
                assert_eq!(path.first(), path.last());
                assert!(!path.contains(&"SA".to_string()), "non-cycle prefix leaked: {path:?}");
                let mut sorted: Vec<_> = path[..path.len() - 1].to_vec();
                sorted.sort();
                assert_eq!(sorted, vec!["X".to_string(), "Y".to_string()]);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn strata_group_independent_results() {
        let rs = rules(&[
            ("Ra", "if context A * B then REa (A)"),
            ("Rb", "if context REa:A * C then REb (A)"),
            ("Rc", "if context REb:A * D then REc (A)"),
            ("Rz", "if context E * F then REz (E)"),
        ]);
        let g = DepGraph::build(&rs);
        let strata = g.strata().unwrap();
        assert_eq!(
            strata,
            vec![
                vec!["REa".to_string(), "REz".to_string()],
                vec!["REb".to_string()],
                vec!["REc".to_string()],
            ]
        );
    }

    #[test]
    fn transitive_deps_in_topo_order() {
        let rs = rules(&[
            ("Ra", "if context A * B then REa (A)"),
            ("Rb", "if context REa:A * C then REb (A)"),
            ("Rc", "if context REb:A * REa:A then REc (A)"),
            ("Rz", "if context E * F then REz (E)"),
        ]);
        let g = DepGraph::build(&rs);
        let deps = g.transitive_deps(&["REc".to_string()]).unwrap();
        assert_eq!(deps, vec!["REa".to_string(), "REb".to_string()]);
        // Roots are excluded even when they depend on each other.
        let deps = g.transitive_deps(&["REb".to_string(), "REc".to_string()]).unwrap();
        assert_eq!(deps, vec!["REa".to_string()]);
        assert!(g.transitive_deps(&["REa".to_string()]).unwrap().is_empty());
        assert!(g.transitive_deps(&["REz".to_string()]).unwrap().is_empty());
    }

    #[test]
    fn affected_propagates_transitively() {
        let rs = rules(&[
            ("Ra", "if context A * B then REa (A)"),
            ("Rb", "if context REa:A * C then REb (A)"),
            ("Rc", "if context REb:A * D then REc (A)"),
            ("Rz", "if context E * F then REz (E)"),
        ]);
        let g = DepGraph::build(&rs);
        let mut dirty = FxHashSet::default();
        dirty.insert("REa".to_string());
        let affected = g.affected_by(&dirty);
        assert!(affected.contains("REb"));
        assert!(affected.contains("REc"));
        assert!(!affected.contains("REz"));
        assert!(!affected.contains("REa")); // dirty itself is not re-listed
    }
}
