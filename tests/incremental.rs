//! E16 soundness: semi-naive incremental forward maintenance (DESIGN.md §9)
//! must be indistinguishable from from-scratch derivation under random
//! insert / associate / dissociate / attribute-set / delete schedules, on
//! all three paper schemas — plus regression tests
//! for the three staleness bugs the maintenance rewrite fixed (silent
//! forward-reads-backward skips, deleted-oid resurrection, and
//! `is_consistent` on absent forward results). The `catch_up_*` tests do
//! the same for post-evaluated results caught up on demand: reads between
//! writes, with and without propagates, over derived sources that change
//! while the reader is stale, and under rule-oriented control.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.
//!
//! Each of these seeded mutations of `rules::maintain` was tried and fails
//! the tests named (EXPERIMENTS.md E21 lists the runs):
//! * rows re-derived identically but binding a touched object no longer
//!   re-enter the WHERE stages (`refresh` ignoring `kept`), so
//!   attribute-dirty groups are not re-evaluated —
//!   `incremental_equals_fresh_aggregates`, `…_company`; with only the
//!   aggregates exempted (`reads_attrs` false for them) — `…_aggregates`;
//! * re-binding only `dirty` on a brace context too — `…_university`;
//! * the net-zero cancellation without its multiset rule — the re-join
//!   returns a row once per dirty-bound slot and it must count once
//!   (`delta` not deduplicated) — `…_aggregates`, `…_company`,
//!   `…_university`; a key that dies and is re-born within one step no
//!   longer netting out in `count_target` — `…_aggregates`, `…_company`;
//! * a group whose verdict turns true not emitting its members —
//!   `…_aggregates`, `…_company`, `…_university`.
//!
//! And of the catch-up in `rules::engine` (EXPERIMENTS.md E21 lists them):
//! * a derived source's change is ignored (no epoch check in
//!   `step_dirty`) — `catch_up_equals_fresh_company`, `…_university`;
//! * a stale entry is served: the registry's `get` ignores the flag —
//!   `catch_up_equals_fresh_university`,
//!   `catch_up_work_is_bounded_by_the_touched_fanout`,
//!   `failed_step_leaves_no_cache_ahead_of_its_copy`;
//! * an entry behind the store is served: on-demand freshness from
//!   presence alone — `catch_up_equals_fresh_company`,
//!   `…_rule_oriented_backward`;
//! * the copy is committed with its old epoch —
//!   `catch_up_equals_fresh_company`, `…_university`;
//! * a failed step puts its caches back and the copy fresh —
//!   `failed_step_leaves_no_cache_ahead_of_its_copy`.

#[path = "common/spec_eval.rs"]
mod spec_eval;

use dood::core::ids::Oid;
use dood::core::obs::trace;
use dood::core::propcheck::{check, Gen};
use dood::core::value::Value;
use dood::rules::{ChainStrategy, ControlMode, EvalPolicy, Program, RuleEngine};
use dood::workload::{cad, company, programs, university};
use spec_eval::{rows_of, spec_query};

const CASES: usize = 10;

/// Assert every pre-evaluated subdatabase equals its from-scratch
/// derivation and passes the engine's own consistency oracle.
fn assert_fresh(engine: &RuleEngine, subdbs: &[&str]) {
    for s in subdbs {
        let current = engine
            .registry()
            .subdb(s)
            .unwrap_or_else(|| panic!("{s} should be materialized"))
            .to_vec();
        let fresh = engine.derive_fresh(s).unwrap().to_vec();
        assert_eq!(current, fresh, "{s} diverged from scratch derivation");
        assert!(engine.is_consistent(s).unwrap(), "{s} inconsistent");
    }
}

/// `derive_fresh` runs the engine's own evaluator, so at the end of each
/// schedule the maintained subdatabases of the rules that keep their whole
/// context and have no WHERE — `(subdatabase, context)` pairs — are also
/// held to the spec interpreter of `tests/common/spec_eval.rs` on the final
/// database.
fn assert_spec(engine: &RuleEngine, whole_context: &[(&str, &str)]) {
    for (s, context) in whole_context {
        let maintained = rows_of(engine.registry().subdb(s).expect("materialized"));
        let spec = spec_query(engine.db(), engine.registry(), context);
        assert_eq!(maintained, spec, "{s} diverged from the spec of `{context}`");
    }
}

/// Company schema: plain join, second-level chaining, comparison WHERE,
/// a grouped aggregate, and a two-rule union whose rules can derive the
/// same pattern — under random link churn, salary flips, hires, and
/// firings. In half the cases the chain's first link `REa` stays
/// post-evaluated: propagate leaves it stale and catches it up as `REb`'s
/// source, stepping its rule from the kept copy.
#[test]
fn incremental_equals_fresh_company() {
    check("incremental_equals_fresh_company", CASES, |g| {
        let seed = g.range(0u64..100);
        let ops = g.vec(2..10, |g| (g.range(0u8..6), g.range(0usize..64)));
        let post_source = g.bool(0.5);
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut e = RuleEngine::new(db);
        add_company_rules(&mut e);
        let all = ["REa", "REb", "WellPaid", "Busy", "Picked"];
        let subdbs = if post_source { &all[1..] } else { &all[..] };
        for s in subdbs {
            e.set_policy(*s, EvalPolicy::PreEvaluated);
        }
        for s in subdbs {
            e.subdb(s).unwrap();
        }
        for (i, (op, k)) in ops.iter().copied().enumerate() {
            apply_company_op(&mut e, i, op, k);
            e.propagate().unwrap();
            assert_fresh(&e, subdbs);
        }
        assert_spec(&e, &[("REa", "Employee * Department"), ("REb", "REa:Employee * Project")]);
    });
}

/// The company rules of `incremental_equals_fresh_company`: a chain, a
/// comparison, an aggregate, and a two-rule union.
fn add_company_rules(e: &mut RuleEngine) {
    for (name, src) in [
        ("Ra", "if context Employee * Department then REa (Employee, Department)"),
        ("Rb", "if context REa:Employee * Project then REb (Employee, Project)"),
        (
            "Rc",
            "if context Employee * Department where Employee.salary >= 100000 \
             then WellPaid (Employee)",
        ),
        (
            "Rd",
            "if context Department * Project where count(Project by Department) > 1 \
             then Busy (Department)",
        ),
        (
            "Ru1",
            "if context Employee * Department where Employee.salary >= 150000 \
             then Picked (Employee)",
        ),
        (
            "Ru2",
            "if context Employee * Project where count(Employee by Project) > 9 \
             then Picked (Employee)",
        ),
    ] {
        e.add_rule(name, src).unwrap();
    }
}

fn apply_company_op(e: &mut RuleEngine, i: usize, op: u8, k: usize) {
    let db = e.db_mut();
    let employee = db.schema().class_by_name("Employee").unwrap();
    let department = db.schema().class_by_name("Department").unwrap();
    let project = db.schema().class_by_name("Project").unwrap();
    let works_in = db.schema().own_link_by_name(employee, "WorksIn").unwrap();
    let assigned = db.schema().own_link_by_name(employee, "AssignedTo").unwrap();
    let sponsors = db.schema().own_link_by_name(department, "Sponsors").unwrap();
    let es: Vec<Oid> = db.extent(employee).collect();
    let ds: Vec<Oid> = db.extent(department).collect();
    let ps: Vec<Oid> = db.extent(project).collect();
    match op {
        0 => {
            let _ = db.associate(works_in, es[k % es.len()], ds[k % ds.len()]);
        }
        1 => {
            let _ = db.dissociate(works_in, es[k % es.len()], ds[k % ds.len()]);
        }
        2 => {
            let _ = db.associate(sponsors, ds[k % ds.len()], ps[k % ps.len()]);
        }
        3 => {
            // Flip a salary across the WellPaid threshold.
            let v = if k % 2 == 0 { 250_000 } else { 10_000 };
            let _ = db.set_attr(es[k % es.len()], "salary", Value::Int(v + i as i64));
        }
        4 => {
            // Hire: a fresh employee wired into every association.
            let e2 = db.new_object(employee).unwrap();
            let _ = db.set_attr(e2, "salary", Value::Int(150_000));
            let _ = db.associate(works_in, e2, ds[k % ds.len()]);
            let _ = db.associate(assigned, e2, ps[k % ps.len()]);
        }
        _ => {
            // Fire: deletion must not resurrect via stale cache slots.
            let _ = db.delete_object(es[k % es.len()]);
        }
    }
}

/// One rule per aggregate shape, each deriving the subdatabase of its name.
const AGGREGATE_RULES: &[(&str, &str)] = &[
    (
        "CountBy",
        "if context Employee * Department where count(Employee by Department) > 9 \
         then CountBy (Department)",
    ),
    ("CountAll", "if context Employee * Department where count(Employee) >= 30 then CountAll (Employee)"),
    (
        "SumBy",
        "if context Employee * Department where sum(Employee.salary by Department) > 1100000 \
         then SumBy (Department)",
    ),
    (
        "AvgAll",
        "if context Employee * Department where avg(Employee.salary) > 113000 \
         then AvgAll (Employee, Department)",
    ),
    (
        "MinBy",
        "if context Employee * Project where min(Employee.salary by Project) >= 40000 \
         then MinBy (Project)",
    ),
    (
        "MaxBy",
        "if context Department * Project where max(Project.budget by Department) < 800 \
         then MaxBy (Department)",
    ),
    ("MaxAll", "if context Department * Project where max(Project.budget) < 940 then MaxAll (Project)"),
    (
        "TwoAggs",
        "if context Employee * Department where count(Employee by Department) > 8 \
         and sum(Employee.salary by Department) > 1000000 then TwoAggs (Department)",
    ),
    (
        "CmpAfter",
        "if context Employee * Department where count(Employee by Department) > 8 \
         and Employee.salary >= 100000 and avg(Employee.salary by Department) > 150000 \
         then CmpAfter (Employee)",
    ),
    (
        "CmpBefore",
        "if context Employee * Department where Employee.salary >= 60000 \
         and count(Employee by Department) > 7 then CmpBefore (Department)",
    ),
    (
        "Braced",
        "if context {Department} * Project [budget < 900] \
         where count(Project by Department) < 2 then Braced (Department)",
    ),
    (
        "OverSource",
        "if context Employee * CountBy:Department where min(Employee.salary by Department) < 35000 \
         then OverSource (Employee)",
    ),
];

/// The aggregate conditions' group state (DESIGN.md §9): every aggregate
/// function with and without `by`, two aggregates in sequence, a
/// comparison after an aggregate (and an aggregate after that), a brace
/// context under an aggregate, and an aggregate over a maintained source —
/// under link churn, hires and firings, attribute-only updates that flip a
/// verdict without moving a pattern, and groups emptied in one step. The
/// thresholds sit where `CompanySize::small()` puts the aggregates, so
/// verdicts flip both ways in most schedules.
#[test]
fn incremental_equals_fresh_aggregates() {
    check("incremental_equals_fresh_aggregates", CASES, |g| {
        let seed = g.range(0u64..100);
        let ops = g.vec(3..12, |g| (g.range(0u8..10), g.range(0usize..64)));
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut e = RuleEngine::new(db);
        let subdbs: Vec<&str> = AGGREGATE_RULES.iter().map(|(name, _)| *name).collect();
        for (name, src) in AGGREGATE_RULES {
            e.add_rule(name, src).unwrap();
            e.set_policy(*name, EvalPolicy::PreEvaluated);
        }
        for s in &subdbs {
            e.subdb(s).unwrap();
        }
        for (i, (op, k)) in ops.iter().copied().enumerate() {
            apply_aggregate_op(&mut e, i, op, k);
            e.propagate().unwrap();
            assert_fresh(&e, &subdbs);
        }
    });
}

fn apply_aggregate_op(e: &mut RuleEngine, i: usize, op: u8, k: usize) {
    let db = e.db_mut();
    let employee = db.schema().class_by_name("Employee").unwrap();
    let department = db.schema().class_by_name("Department").unwrap();
    let project = db.schema().class_by_name("Project").unwrap();
    let works_in = db.schema().own_link_by_name(employee, "WorksIn").unwrap();
    let assigned = db.schema().own_link_by_name(employee, "AssignedTo").unwrap();
    let sponsors = db.schema().own_link_by_name(department, "Sponsors").unwrap();
    let es: Vec<Oid> = db.extent(employee).collect();
    let ds: Vec<Oid> = db.extent(department).collect();
    let ps: Vec<Oid> = db.extent(project).collect();
    if es.is_empty() || ps.is_empty() {
        return;
    }
    let (emp, dept, proj) = (es[k % es.len()], ds[k % ds.len()], ps[k % ps.len()]);
    match op {
        0 => {
            // Attribute only: a salary far above or far below every
            // threshold, no pattern moves.
            let v = if k.is_multiple_of(2) { 400_000 } else { 10_000 };
            let _ = db.set_attr(emp, "salary", Value::Int(v + i as i64));
        }
        1 => {
            // Attribute only, on the other class.
            let v = if k.is_multiple_of(2) { 990 } else { 50 };
            let _ = db.set_attr(proj, "budget", Value::Int(v));
        }
        2 => {
            // Move an employee to another department (WorksIn is single).
            if let Some(&old) = db.neighbors(works_in, emp, true).first() {
                let _ = db.dissociate(works_in, emp, old);
            }
            let _ = db.associate(works_in, emp, dept);
        }
        3 => {
            let e2 = db.new_object(employee).unwrap();
            let salary = if k.is_multiple_of(2) { 20_000 } else { 300_000 };
            let _ = db.set_attr(e2, "salary", Value::Int(salary));
            let _ = db.associate(works_in, e2, dept);
            let _ = db.associate(assigned, e2, proj);
        }
        4 => {
            let _ = db.delete_object(emp);
        }
        5 => {
            // Empty a whole group in one step: everyone leaves `dept`.
            for o in db.neighbors(works_in, dept, false).to_vec() {
                let _ = db.dissociate(works_in, o, dept);
            }
        }
        6 => {
            // Empty the other kind of group: `dept` sponsors nothing, and
            // stays in the braced context as a partial pattern.
            for o in db.neighbors(sponsors, dept, true).to_vec() {
                let _ = db.dissociate(sponsors, dept, o);
            }
        }
        7 => {
            let _ = db.associate(sponsors, dept, proj);
        }
        8 => {
            let _ = db.delete_object(proj);
        }
        _ => {
            let _ = db.associate(assigned, emp, proj);
            if let Some(&other) = db.neighbors(assigned, es[(k / 2) % es.len()], true).first() {
                let _ = db.dissociate(assigned, es[(k / 2) % es.len()], other);
            }
        }
    }
}

/// Work proportionality, in counts: what a delta step re-derives, drops
/// and re-aggregates is bounded by the fan-out of the objects the update
/// touched, whatever the size of the cached context — the `rules.rule`
/// delta span reports all three. One *enrol* and one *set GPA* step on the
/// paper's program, at two database sizes.
#[test]
fn delta_work_is_bounded_by_the_touched_fanout() {
    let mut ctx_rows_by_scale = Vec::new();
    for scale in [2, 4] {
        let db = university::populate(university::Size::scaled(scale), 21);
        let mut e = RuleEngine::new(db);
        let (program, diags) = Program::parse(programs::UNIVERSITY);
        assert!(diags.is_empty(), "{diags:?}");
        e.register(&program).unwrap();
        let subdbs = ["Suggest_offer", "Deps_need_res"];
        for s in subdbs {
            e.set_policy(s, EvalPolicy::PreEvaluated);
        }
        for s in subdbs {
            e.subdb(s).unwrap();
        }

        let db = e.db();
        let class = |n: &str| db.schema().class_by_name(n).unwrap();
        let enrolls = db.schema().own_link_by_name(class("Student"), "Enrolls").unwrap();
        let of_course = db.schema().own_link_by_name(class("Section"), "Course").unwrap();
        let in_dept = db.schema().own_link_by_name(class("Course"), "Department").unwrap();
        // A section of a CIS course — R2's context holds its enrolments —
        // and a student not yet in it.
        let section = db
            .extent(class("Section"))
            .find(|&s| {
                db.neighbors(of_course, s, true).iter().any(|&c| {
                    db.neighbors(in_dept, c, true)
                        .iter()
                        .any(|&d| db.attr(d, "name").unwrap() == Value::str("CIS"))
                })
            })
            .expect("a CIS section");
        let student = db
            .extent(class("Student"))
            .find(|&s| !db.linked(enrolls, s, section))
            .expect("a student outside the section");
        // A grad (the GPA is a Grad attribute) with enrolments.
        let (grad, grad_as_student) = db
            .extent(class("Grad"))
            .find_map(|g| {
                let s = db
                    .perspective_closure(g)
                    .into_iter()
                    .find(|&o| db.class_of(o) == Ok(class("Student")))?;
                (!db.neighbors(enrolls, s, true).is_empty()).then_some((g, s))
            })
            .expect("an enrolled grad");
        let degree = |o: Oid, forward: bool| db.neighbors(enrolls, o, forward).len();
        // Each touched object re-binds its own slot: its rows, once more
        // for the new link, and the shared row once per slot.
        let enrol_bound = (degree(student, true) + degree(section, false) + 2) as i64;
        let gpa_bound = degree(grad_as_student, true) as i64;

        let step = |e: &mut RuleEngine, bound: i64, what: &str| -> i64 {
            let (rederived, spans) = trace::capture(|| e.propagate().unwrap());
            assert!(rederived.iter().any(|n| n == "Suggest_offer"), "{what}: R2 did not step");
            assert_fresh(e, &subdbs);
            let deltas: Vec<_> = spans
                .iter()
                .filter(|s| s.name == "rules.rule" && s.attr("delta") == Some(1))
                .collect();
            assert!(!deltas.is_empty(), "{what}: no delta step ran");
            let mut ctx_rows = 0;
            for s in deltas {
                for key in ["delta_rows", "dropped", "groups_touched"] {
                    let v = s.attr(key).unwrap_or_else(|| panic!("{what}: no `{key}` attribute"));
                    assert!(
                        v <= bound,
                        "{what} at scaled({scale}): {key} = {v} exceeds the fan-out bound {bound}"
                    );
                }
                ctx_rows = ctx_rows.max(s.attr("ctx_rows").unwrap());
            }
            assert!(ctx_rows > 8 * bound, "{what}: a context of {ctx_rows} rows proves nothing");
            ctx_rows
        };
        e.db_mut().associate(enrolls, student, section).unwrap();
        let rows = step(&mut e, enrol_bound, "enrol");
        e.db_mut().set_attr(grad, "GPA", Value::Real(2.25)).unwrap();
        step(&mut e, gpa_bound, "set GPA");
        ctx_rows_by_scale.push(rows);
    }
    // The context doubles with the database; the bounds above did not move.
    assert!(ctx_rows_by_scale[1] > ctx_rows_by_scale[0] * 3 / 2, "{ctx_rows_by_scale:?}");
}

/// University schema (Fig. 2.1): three-way joins, brace groupings, and a
/// grouped aggregate over Section counts, under teaching/enrollment churn,
/// section creation and deletion, and credit-hour updates: a course that
/// stops qualifying takes its full patterns with it, and the
/// teacher-section parts they subsumed resurface although no object of
/// theirs was touched.
#[test]
fn incremental_equals_fresh_university() {
    check("incremental_equals_fresh_university", CASES, university_schedule);
}

/// Regression: a schedule that deletes every section, after which the op
/// generator has no section to pick.
#[test]
fn university_schedule_survives_deleting_every_section() {
    university_schedule(&mut Gen::from_seed(8754210255632797767));
}

/// One case of `incremental_equals_fresh_university`.
fn university_schedule(g: &mut Gen) {
    let seed = g.range(0u64..100);
    let ops = g.vec(2..10, |g| (g.range(0u8..6), g.range(0usize..64)));
    let db = university::populate(university::Size::small(), seed);
    let mut e = RuleEngine::new(db);
    e.add_rule("Ru1", "if context Teacher * Section * Course then TSC (Teacher, Course)")
        .unwrap();
    e.add_rule("Ru2", "if context {Teacher * Section} * Course then TC (Course)").unwrap();
    e.add_rule(
        "Ru3",
        "if context Course * Section where count(Section by Course) > 1 \
         then Popular (Course)",
    )
    .unwrap();
    e.add_rule(
        "Ru4",
        "if context {Teacher * Section} * Course [credit_hours > 2] \
         then Heavy (Teacher, Section, Course)",
    )
    .unwrap();
    let subdbs = ["TSC", "TC", "Popular", "Heavy"];
    for s in subdbs {
        e.set_policy(s, EvalPolicy::PreEvaluated);
    }
    for s in subdbs {
        e.subdb(s).unwrap();
    }
    for (op, k) in ops.iter().copied() {
        apply_university_op(&mut e, op, k);
        e.propagate().unwrap();
        assert_fresh(&e, &subdbs);
    }
    assert_spec(&e, &[("Heavy", "{Teacher * Section} * Course [credit_hours > 2]")]);
}

fn apply_university_op(e: &mut RuleEngine, op: u8, k: usize) {
    let db = e.db_mut();
    let teacher = db.schema().class_by_name("Teacher").unwrap();
    let section = db.schema().class_by_name("Section").unwrap();
    let course = db.schema().class_by_name("Course").unwrap();
    let student = db.schema().class_by_name("Student").unwrap();
    let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
    let section_course = db.schema().own_link_by_name(section, "Course").unwrap();
    let enrolls = db.schema().own_link_by_name(student, "Enrolls").unwrap();
    // The `k`-th live member of a class, if it has any: the schedule may
    // delete every section.
    let pick = |class| {
        let live: Vec<Oid> = db.extent(class).collect();
        (!live.is_empty()).then(|| live[k % live.len()])
    };
    let (t, s, c) = (pick(teacher), pick(section), pick(course));
    let students: Vec<Oid> = db.extent(student).collect();
    match (op, t, s, c) {
        (0, Some(t), Some(s), _) => {
            let _ = db.associate(teaches, t, s);
        }
        (1, Some(t), Some(s), _) => {
            let _ = db.dissociate(teaches, t, s);
        }
        (2, _, Some(s), Some(c)) => {
            let _ = db.associate(section_course, s, c);
        }
        (3, Some(t), _, Some(c)) => {
            // A new section of an existing course, taught immediately.
            let s2 = db.new_object(section).unwrap();
            let _ = db.set_attr(s2, "section#", Value::Int(9000 + k as i64));
            let _ = db.associate(section_course, s2, c);
            let _ = db.associate(teaches, t, s2);
        }
        (4, _, Some(s), _) => {
            // Cancel a section: aggregate counts must drop with it.
            let _ = db.delete_object(s);
        }
        (5, _, _, Some(c)) => {
            // Only the course is touched; whether it qualifies flips.
            let hours = if k.is_multiple_of(2) { 1 } else { 4 };
            let _ = db.set_attr(c, "credit_hours", Value::Int(hours));
        }
        // Enrolment churn, two students at a time: the section's course is
        // not touched, whatever its student count does.
        (6.., _, Some(s), _) if op % 2 == 0 => {
            for o in students.iter().cycle().skip(k).take(2) {
                let _ = db.associate(enrolls, *o, s);
            }
        }
        (6.., _, Some(s), _) => {
            for o in db.neighbors(enrolls, s, false).to_vec().into_iter().take(2) {
                let _ = db.dissociate(enrolls, o, s);
            }
        }
        _ => {}
    }
}

/// A post-evaluated result read in a catch-up schedule.
struct Reader {
    name: &'static str,
    /// Whether a rule of it reads a pre-evaluated result. With writes not
    /// yet propagated it is then derived from that result as materialized,
    /// which `derive_fresh` does not reproduce.
    over_pre: bool,
    /// The rule's context, if it keeps the whole context and has no WHERE:
    /// the result is then held to the spec interpreter as well.
    spec: Option<&'static str>,
}

const fn reader(name: &'static str, over_pre: bool, spec: Option<&'static str>) -> Reader {
    Reader { name, over_pre, spec }
}

/// One step of a catch-up schedule: a base write `(op, k)`, then forward
/// chaining if the flag says so, then possibly a read of a post-evaluated
/// result. Reads are sparse, so a reader usually stays stale across several
/// propagates, and the writes of a step without a propagate are read before
/// any propagate sees them.
type Step = (u8, usize, bool, Option<usize>);

fn catch_up_steps(g: &mut Gen, ops: u8, readers: usize) -> Vec<Step> {
    g.vec(4..14, |g| {
        let read = g.bool(0.4).then(|| g.range(0..readers));
        (g.range(0..ops), g.range(0usize..64), g.bool(0.6), read)
    })
}

/// Run a catch-up schedule: every read of a post-evaluated result must
/// equal its from-scratch derivation (and, for whole-context rules, the
/// spec), every pre-evaluated result after every propagate too.
fn run_catch_up(
    e: &mut RuleEngine,
    pre: &[&str],
    readers: &[Reader],
    steps: &[Step],
    apply: impl Fn(&mut RuleEngine, usize, u8, usize),
) {
    for name in pre.iter().copied().chain(readers.iter().map(|r| r.name)) {
        e.subdb(name).unwrap();
    }
    for (i, &(op, k, propagate, read)) in steps.iter().enumerate() {
        apply(e, i, op, k);
        if propagate {
            e.propagate().unwrap();
            assert_fresh(e, pre);
        }
        let pending = !propagate;
        if let Some(r) = read {
            check_read(e, &readers[r % readers.len()], pending);
        }
    }
    e.propagate().unwrap();
    assert_fresh(e, pre);
    for r in readers {
        check_read(e, r, false);
    }
}

fn check_read(e: &mut RuleEngine, r: &Reader, pending: bool) {
    let got = e.subdb(r.name).unwrap().to_vec();
    if !(pending && r.over_pre) {
        let fresh = e.derive_fresh(r.name).unwrap().to_vec();
        assert_eq!(got, fresh, "{}: caught-up copy != derive_fresh", r.name);
    }
    if let Some(context) = r.spec {
        let spec = spec_query(e.db(), e.registry(), context);
        assert_eq!(rows_of(e.registry().subdb(r.name).unwrap()), spec, "{}: != spec", r.name);
    }
}

/// Catch-up (DESIGN.md §9), university schema: post-evaluated results over
/// base data, over a pre-evaluated aggregate (`Crowded`, which enrolment
/// churn flips without touching the course it adds or drops), and a
/// two-rule union of both kinds — the shape of the paper's `May_teach` —
/// read between writes, with and without propagates.
#[test]
fn catch_up_equals_fresh_university() {
    check("catch_up_equals_fresh_university", CASES, |g| {
        let seed = g.range(0u64..100);
        let steps = catch_up_steps(g, 10, 5);
        let db = university::populate(university::Size::small(), seed);
        let mut e = RuleEngine::new(db);
        for (name, src) in [
            ("Rt", "if context Teacher * Section * Course then TSC (Teacher, Section, Course)"),
            ("Rb", "if context {Teacher * Section} * Course then TC (Course)"),
            (
                "Rh",
                "if context {Teacher * Section} * Course [credit_hours > 2] \
                 then Heavy (Teacher, Section, Course)",
            ),
            (
                "Rc",
                "if context Course * Section * Student where count(Student by Course) > 7 \
                 then Crowded (Course)",
            ),
            (
                "Rx",
                "if context Teacher * Section * Crowded:Course \
                 then TeachesCrowded (Teacher, Section, Course)",
            ),
            (
                "Ry1",
                "if context Teacher * Section * Crowded:Course then Busy (Teacher, Course)",
            ),
            (
                "Ry2",
                "if context Teacher * Section * Course [credit_hours > 2] \
                 then Busy (Teacher, Course)",
            ),
        ] {
            e.add_rule(name, src).unwrap();
        }
        e.set_policy("Crowded", EvalPolicy::PreEvaluated);
        let readers = [
            reader("TSC", false, Some("Teacher * Section * Course")),
            reader("TC", false, None),
            reader("Heavy", false, Some("{Teacher * Section} * Course [credit_hours > 2]")),
            reader("TeachesCrowded", true, Some("Teacher * Section * Crowded:Course")),
            reader("Busy", true, None),
        ];
        run_catch_up(&mut e, &["Crowded"], &readers, &steps, |e, _, op, k| {
            apply_university_op(e, op, k)
        });
    });
}

/// Catch-up, company schema: a chain whose first link is pre- or
/// post-evaluated, a union with an aggregate rule (`Picked`, whose
/// employees join when a project's head count crosses the threshold
/// without being touched) and a post-evaluated reader of it.
#[test]
fn catch_up_equals_fresh_company() {
    check("catch_up_equals_fresh_company", CASES, |g| {
        let seed = g.range(0u64..100);
        let steps = catch_up_steps(g, 6, 5);
        let pre_source = g.bool(0.5);
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut e = RuleEngine::new(db);
        add_company_rules(&mut e);
        e.add_rule(
            "Rv",
            "if context Picked:Employee * Department then PickedIn (Employee, Department)",
        )
        .unwrap();
        let mut pre = vec!["Picked"];
        let mut readers = vec![
            reader("REb", pre_source, Some("REa:Employee * Project")),
            reader("PickedIn", true, Some("Picked:Employee * Department")),
            reader("Busy", false, None),
            reader("WellPaid", false, None),
        ];
        if pre_source {
            pre.push("REa");
        } else {
            readers.push(reader("REa", false, Some("Employee * Department")));
        }
        for s in &pre {
            e.set_policy(*s, EvalPolicy::PreEvaluated);
        }
        run_catch_up(&mut e, &pre, &readers, &steps, |e, i, op, k| {
            apply_company_op(e, i, op, k)
        });
    });
}

/// Catch-up, the aggregate rules of `incremental_equals_fresh_aggregates`,
/// all post-evaluated but `CountBy`, which `OverSource` reads.
#[test]
fn catch_up_equals_fresh_aggregates() {
    check("catch_up_equals_fresh_aggregates", CASES, |g| {
        let seed = g.range(0u64..100);
        let steps = catch_up_steps(g, 10, AGGREGATE_RULES.len() - 1);
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut e = RuleEngine::new(db);
        for (name, src) in AGGREGATE_RULES {
            e.add_rule(name, src).unwrap();
        }
        e.set_policy("CountBy", EvalPolicy::PreEvaluated);
        let readers: Vec<Reader> = AGGREGATE_RULES[1..]
            .iter()
            .map(|(name, _)| reader(name, *name == "OverSource", None))
            .collect();
        run_catch_up(&mut e, &["CountBy"], &readers, &steps, apply_aggregate_op);
    });
}

/// Catch-up under rule-oriented control: backward results go stale on
/// updates and the request that needs one catches it up — a backward source
/// included — while a forward rule over base data is maintained.
#[test]
fn catch_up_equals_fresh_rule_oriented_backward() {
    check("catch_up_equals_fresh_rule_oriented_backward", CASES, |g| {
        let seed = g.range(0u64..100);
        let steps = catch_up_steps(g, 6, 4);
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut e = RuleEngine::new(db);
        e.set_mode(ControlMode::RuleOriented);
        add_company_rules(&mut e);
        e.set_strategy("Rc", ChainStrategy::Forward);
        let readers = [
            reader("REb", false, Some("REa:Employee * Project")),
            reader("REa", false, Some("Employee * Department")),
            reader("Busy", false, None),
            reader("Picked", false, None),
        ];
        run_catch_up(&mut e, &["WellPaid"], &readers, &steps, |e, i, op, k| {
            apply_company_op(e, i, op, k)
        });
        assert!(e.stale_skips().is_empty(), "{:?}", e.stale_skips());
    });
}

/// What a catch-up re-derives is bounded by the fan-out of the objects the
/// writes since the last read touched, whatever the size of the kept
/// result: the paper's `Teacher_course` (R1, post-evaluated) read after one
/// *teach* and after one *new section* step, at two database sizes. A
/// catch-up that re-seeds instead fails the test.
#[test]
fn catch_up_work_is_bounded_by_the_touched_fanout() {
    let mut ctx_rows_by_scale = Vec::new();
    for scale in [2, 4] {
        let db = university::populate(university::Size::scaled(scale), 21);
        let mut e = RuleEngine::new(db);
        let (program, diags) = Program::parse(programs::UNIVERSITY);
        assert!(diags.is_empty(), "{diags:?}");
        e.register(&program).unwrap();
        e.subdb("Teacher_course").unwrap();

        let db = e.db();
        let class = |n: &str| db.schema().class_by_name(n).unwrap();
        let teaches = db.schema().own_link_by_name(class("Teacher"), "Teaches").unwrap();
        let of_course = db.schema().own_link_by_name(class("Section"), "Course").unwrap();
        let section = db.extent(class("Section")).next().expect("a section");
        let course = db.neighbors(of_course, section, true)[0];
        let teacher = db
            .extent(class("Teacher"))
            .find(|&t| !db.linked(teaches, t, section))
            .expect("a teacher outside the section");
        // Each touched object re-binds its own slot, and a section binds one
        // course: a teacher's rows are its sections, a course's rows the
        // teachers of its sections. Teaching adds one row, bound by both
        // touched objects; the new section (of the same course, taught by
        // the same teacher) adds one more, bound by all three.
        let taught = db.neighbors(teaches, teacher, true).len();
        let course_rows: usize = db
            .neighbors(of_course, course, false)
            .iter()
            .map(|&s| db.neighbors(teaches, s, false).len())
            .sum();
        let teach_bound = (taught + db.neighbors(teaches, section, false).len() + 2) as i64;
        let new_section_bound = (taught + course_rows + 5) as i64;

        let read = |e: &mut RuleEngine, bound: i64, what: &str| -> i64 {
            e.propagate().unwrap();
            assert!(e.registry().subdb("Teacher_course").is_none(), "{what}: not stale");
            let (read, spans) = trace::capture(|| e.subdb("Teacher_course").map(|sd| sd.len()));
            read.unwrap();
            let fresh = e.derive_fresh("Teacher_course").unwrap();
            assert_eq!(e.registry().subdb("Teacher_course").unwrap().to_vec(), fresh.to_vec());
            let rules: Vec<_> = spans.iter().filter(|s| s.name == "rules.rule").collect();
            assert!(!rules.is_empty(), "{what}: the read derived nothing");
            let mut ctx_rows = 0;
            for s in rules {
                assert_eq!(s.attr("delta"), Some(1), "{what}: the read re-seeded R1");
                for key in ["delta_rows", "dropped"] {
                    let v = s.attr(key).unwrap_or_else(|| panic!("{what}: no `{key}` attribute"));
                    assert!(
                        v <= bound,
                        "{what} at scaled({scale}): {key} = {v} exceeds the fan-out bound {bound}"
                    );
                }
                ctx_rows = ctx_rows.max(s.attr("ctx_rows").unwrap());
            }
            assert!(ctx_rows > 8 * bound, "{what}: a context of {ctx_rows} rows proves nothing");
            ctx_rows
        };
        e.db_mut().associate(teaches, teacher, section).unwrap();
        let rows = read(&mut e, teach_bound, "teach");
        let db = e.db_mut();
        let s2 = db.new_object(db.schema().class_by_name("Section").unwrap()).unwrap();
        db.set_attr(s2, "section#", Value::Int(900_000)).unwrap();
        db.associate(of_course, s2, course).unwrap();
        db.associate(teaches, teacher, s2).unwrap();
        read(&mut e, new_section_bound, "new section");
        ctx_rows_by_scale.push(rows);
    }
    // The context doubles with the database; the bounds above did not move.
    assert!(ctx_rows_by_scale[1] > ctx_rows_by_scale[0] * 3 / 2, "{ctx_rows_by_scale:?}");
}

/// A cache is never ahead of its copy. Both rules of a union step, and the
/// union then fails: their closures have different widths
/// (`TargetLayoutMismatch`). The failed propagate leaves the copy stale and
/// no cache behind, so once the widths agree again the result equals its
/// from-scratch derivation — including the chains the first rule found in
/// the failed step.
#[test]
fn failed_step_leaves_no_cache_ahead_of_its_copy() {
    use dood::core::schema::SchemaBuilder;
    use dood::core::value::DType;
    use dood::store::Database;
    let mut b = SchemaBuilder::new();
    b.e_class("N");
    b.d_class("v", DType::Int);
    b.attr("N", "v");
    b.aggregate_named("N", "N", "Next");
    let mut db = Database::new(b.build().unwrap());
    let n_cls = db.schema().class_by_name("N").unwrap();
    let next = db.schema().own_link_by_name(n_cls, "Next").unwrap();
    let node = |db: &mut Database, v: i64| {
        let o = db.new_object(n_cls).unwrap();
        db.set_attr(o, "v", Value::Int(v)).unwrap();
        o
    };
    // n0 → n1 → n2 under the threshold, m0 → m1 above it.
    let ns = [node(&mut db, 0), node(&mut db, 1), node(&mut db, 2)];
    let ms = [node(&mut db, 70), node(&mut db, 70)];
    for pair in [(ns[0], ns[1]), (ns[1], ns[2]), (ms[0], ms[1])] {
        db.associate(next, pair.0, pair.1).unwrap();
    }
    let mut e = RuleEngine::new(db);
    e.add_rule("R1", "if context N ^* then T (N, N_*)").unwrap();
    e.add_rule("R2", "if context N [v < 50] ^* then T (N, N_*)").unwrap();
    e.set_policy("T", EvalPolicy::PreEvaluated);
    e.subdb("T").unwrap();

    // R1 gains the chain m0 → m1 → m2 at width 3; R2 loses n2 and shrinks
    // to width 2.
    let m2 = node(e.db_mut(), 70);
    e.db_mut().associate(next, ms[1], m2).unwrap();
    e.db_mut().set_attr(ns[2], "v", Value::Int(99)).unwrap();
    let err = e.propagate().unwrap_err();
    assert!(matches!(err, dood::rules::RuleError::TargetLayoutMismatch { .. }), "{err:?}");
    assert!(e.registry().subdb("T").is_none(), "the restored copy must be stale");

    // Widths agree again; R1 has nothing new to say.
    e.db_mut().set_attr(ns[2], "v", Value::Int(10)).unwrap();
    e.propagate().unwrap();
    assert_fresh(&e, &["T"]);
}

/// CAD schema: the `Part ^*` BOM closure (the scoped-rederivation fallback
/// plan) alongside an incremental supplier join, under component rewiring,
/// part creation and deletion. Component edges are only ever added from a
/// lower to a higher oid, so the BOM stays acyclic.
#[test]
fn incremental_equals_fresh_cad() {
    check("incremental_equals_fresh_cad", CASES, |g| {
        let seed = g.range(0u64..100);
        let ops = g.vec(2..9, |g| (g.range(0u8..5), g.range(0usize..64)));
        let (db, _) = cad::build_bom(cad::BomShape::small(), seed);
        let mut e = RuleEngine::new(db);
        e.add_rule("Rbom", "if context Part ^* then Bom (Part, Part_*)").unwrap();
        e.add_rule("Rsp", "if context Supplier * Part then SP (Supplier, Part)").unwrap();
        let subdbs = ["Bom", "SP"];
        for s in subdbs {
            e.set_policy(s, EvalPolicy::PreEvaluated);
        }
        for s in subdbs {
            e.subdb(s).unwrap();
        }
        for (op, k) in ops.iter().copied() {
            apply_cad_op(&mut e, op, k);
            e.propagate().unwrap();
            assert_fresh(&e, &subdbs);
        }
        assert_spec(&e, &[("Bom", "Part ^*"), ("SP", "Supplier * Part")]);
    });
}

fn apply_cad_op(e: &mut RuleEngine, op: u8, k: usize) {
    let db = e.db_mut();
    let part = db.schema().class_by_name("Part").unwrap();
    let supplier = db.schema().class_by_name("Supplier").unwrap();
    let component = db.schema().own_link_by_name(part, "Component").unwrap();
    let supplies = db.schema().own_link_by_name(supplier, "Supplies").unwrap();
    let parts: Vec<Oid> = db.extent(part).collect();
    let sups: Vec<Oid> = db.extent(supplier).collect();
    match op {
        0 => {
            // Acyclic by construction: lower oid → higher oid only.
            let (a, b) = (parts[k % parts.len()], parts[(k / 2) % parts.len()]);
            let (lo, hi) = if a.raw() < b.raw() { (a, b) } else { (b, a) };
            if lo != hi {
                let _ = db.associate(component, lo, hi);
            }
        }
        1 => {
            let (a, b) = (parts[k % parts.len()], parts[(k / 2) % parts.len()]);
            let _ = db.dissociate(component, a, b);
        }
        2 => {
            // A supplier (created on demand) supplying an existing part.
            let s = if sups.is_empty() || k % 3 == 0 {
                let s = db.new_object(supplier).unwrap();
                let _ = db.set_attr(s, "sname", Value::str(format!("sup-{k}")));
                s
            } else {
                sups[k % sups.len()]
            };
            let _ = db.associate(supplies, s, parts[k % parts.len()]);
        }
        3 => {
            // A new part attached under an existing assembly.
            let p2 = db.new_object(part).unwrap();
            let _ = db.set_attr(p2, "cost", Value::Real(k as f64));
            let _ = db.associate(component, parts[k % parts.len()], p2);
        }
        _ => {
            // Scrap a part: closure chains through it must vanish.
            let _ = db.delete_object(parts[k % parts.len()]);
        }
    }
}

/// Regression (engine level): deleting an object and propagating must not
/// resurrect cached patterns whose other slots referenced it, and a
/// follow-up delta step over the post-deletion cache stays sound.
#[test]
fn deleted_oid_never_resurrects_through_the_cache() {
    let (db, com) = company::populate(company::CompanySize::small(), 3);
    let mut e = RuleEngine::new(db);
    e.add_rule("Ra", "if context Employee * Department then REa (Employee, Department)")
        .unwrap();
    e.add_rule("Rb", "if context REa:Employee * Project then REb (Employee, Project)")
        .unwrap();
    e.set_policy("REa", EvalPolicy::PreEvaluated);
    e.set_policy("REb", EvalPolicy::PreEvaluated);
    e.query("context REb:Employee").unwrap();

    let victim = com.employees[0];
    assert!(
        e.registry()
            .subdb("REa")
            .unwrap()
            .patterns()
            .any(|p| p.components().contains(&Some(victim))),
        "victim should appear in REa before deletion"
    );
    e.db_mut().delete_object(victim).unwrap();
    e.propagate().unwrap();
    for s in ["REa", "REb"] {
        let sd = e.registry().subdb(s).unwrap();
        assert!(
            sd.patterns().all(|p| !p.components().contains(&Some(victim))),
            "{s} resurrected the deleted oid"
        );
        assert_eq!(sd.to_vec(), e.derive_fresh(s).unwrap().to_vec());
    }
    // A second delta step over the post-deletion cache must stay sound.
    e.db_mut().set_attr(com.employees[1], "salary", Value::Int(42)).unwrap();
    e.propagate().unwrap();
    assert_fresh(&e, &["REa", "REb"]);
}

/// Regression (satellite): under rule-oriented control, a forward rule
/// whose source is backward-derived can never run — the skip is now
/// recorded in `stale_skips`, surfaced by the `is_consistent` oracle, and
/// flagged ahead of time by the W105 strategy lint.
#[test]
fn forward_reads_backward_source_is_reported() {
    let (db, com) = company::populate(company::CompanySize::small(), 7);
    let mut e = RuleEngine::new(db);
    e.set_mode(ControlMode::RuleOriented);
    e.add_rule("Ra", "if context Employee * Department then REa (Employee, Department)")
        .unwrap();
    e.add_rule("Rb", "if context REa:Employee * Project then REb (Employee, Project)")
        .unwrap();
    e.set_strategy("Ra", ChainStrategy::Backward);
    e.set_strategy("Rb", ChainStrategy::Forward);

    // The lint sees the hazard statically, before any update arrives.
    let diags = e.strategy_diagnostics();
    assert!(
        diags.iter().any(|d| d.code == "W105" && d.message.contains("REa")),
        "expected a W105 diagnostic, got {diags:?}"
    );

    e.db_mut().set_attr(com.employees[0], "salary", Value::Int(1)).unwrap();
    let rederived = e.propagate().unwrap();
    assert!(!rederived.contains(&"REb".to_string()));
    assert_eq!(e.stale_skips(), ["REb".to_string()]);
    // The skipped target is stale, and the oracle says so.
    assert!(!e.is_consistent("REb").unwrap());
}

/// Regression (satellite): `is_consistent` distinguishes "absent because
/// it is computed on demand" (fine) from "absent although the rule-oriented
/// forward strategy promises it is always kept available" (stale).
#[test]
fn absent_forward_subdb_is_stale_absent_backward_is_fine() {
    let (db, _) = company::populate(company::CompanySize::small(), 11);
    let mut e = RuleEngine::new(db);
    e.add_rule("Ra", "if context Employee * Department then REa (Employee, Department)")
        .unwrap();

    // Result-oriented control: absence is never staleness.
    assert!(e.is_consistent("REa").unwrap());

    // Rule-oriented + backward: computed on demand, absence is fine.
    e.set_mode(ControlMode::RuleOriented);
    e.set_strategy("Ra", ChainStrategy::Backward);
    assert!(e.is_consistent("REa").unwrap());

    // Rule-oriented + forward: the copy should exist — absence is stale.
    e.set_strategy("Ra", ChainStrategy::Forward);
    assert!(!e.is_consistent("REa").unwrap());

    // Once materialized, consistency is judged on content again.
    e.subdb("REa").unwrap();
    assert!(e.is_consistent("REa").unwrap());
}
