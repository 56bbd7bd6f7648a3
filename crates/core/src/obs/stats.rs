//! `obs::stats` — nothing left but a no-op.
//!
//! The planner reads its cost inputs from the store's own counts at plan
//! time (DESIGN.md §10), so there is no statistics registry to reset.
//! [`clear`] stays only because the end-to-end benchmark calls it before
//! every pass; it goes once the benchmark stops calling it (ROADMAP.md
//! item 2).

/// Does nothing: plans depend on the current data alone, never on what
/// ran before.
pub fn clear() {}
