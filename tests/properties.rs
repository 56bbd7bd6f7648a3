//! Property-based tests for the invariants DESIGN.md calls out:
//! closure of the subdatabase world under rules, pattern-algebra laws,
//! naive ≡ semi-naive fixpoints, OQL-closure ≡ Datalog reachability, and
//! forward-maintenance ≡ from-scratch derivation under random updates.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

use dood::core::ids::Oid;
use dood::core::propcheck::{check, Gen};
use dood::core::subdb::{ExtPattern, Intension, PatternType, SlotDef, Subdatabase, SubdbRegistry};
use dood::core::value::Value;
use dood::datalog::{self, Atom};
use dood::oql::Oql;
use dood::rules::{EvalPolicy, RuleEngine};
use dood::workload::{cad, company, university};

const CASES: usize = 24;

/// A raw extension: `rows` patterns of `width` components in 1..bound.
fn raw_patterns(g: &mut Gen, rows: std::ops::Range<usize>, width: usize, bound: u64) -> Vec<Vec<Option<u64>>> {
    g.vec(rows, |g| {
        (0..width).map(|_| g.option(|g| g.range(1..bound))).collect::<Vec<_>>()
    })
}

/// The pattern with these raw components.
fn pattern(comps: &[Option<u64>]) -> ExtPattern {
    ExtPattern::new(comps.iter().map(|o| o.map(Oid::from_raw)).collect::<Vec<_>>())
}

fn subdb_from_raw(width: usize, raw: Vec<Vec<Option<u64>>>) -> Subdatabase {
    let slots = (0..width)
        .map(|i| SlotDef::base(format!("C{i}"), dood::core::ids::ClassId(i as u32)))
        .collect();
    let mut sd = Subdatabase::new("t", Intension::new(slots));
    for comps in raw {
        let pat = pattern(&comps);
        if pat.pattern_type() != PatternType::EMPTY {
            sd.insert(pat);
        }
    }
    sd
}

/// Closure property: a rule's output is a well-formed subdatabase whose
/// slot extents are subsets of the base extents, and it can be queried
/// uniformly like base data (paper §1/§4).
#[test]
fn rule_outputs_are_closed() {
    check("rule_outputs_are_closed", CASES, |g| {
        let seed = g.range(0u64..500);
        let db = university::populate(university::Size::small(), seed);
        let teacher_cls = db.schema().class_by_name("Teacher").unwrap();
        let course_cls = db.schema().class_by_name("Course").unwrap();
        let base_teachers: Vec<Oid> = db.extent(teacher_cls).collect();
        let base_courses: Vec<Oid> = db.extent(course_cls).collect();
        let mut engine = RuleEngine::new(db);
        engine
            .add_rule("R1", "if context Teacher * Section * Course then TC (Teacher, Course)")
            .unwrap();
        let sd = engine.subdb("TC").unwrap().clone();
        assert_eq!(sd.intension.width(), 2);
        for p in sd.patterns() {
            assert_eq!(p.width(), 2);
            assert!(base_teachers.contains(&p.get(0).unwrap()));
            assert!(base_courses.contains(&p.get(1).unwrap()));
        }
        // Uniform operability: the derived subdatabase supports further
        // derivation (a second-level rule), i.e. the world is closed.
        engine
            .add_rule("R2", "if context TC:Teacher * TC:Course then TC2 (Course)")
            .unwrap();
        let sd2 = engine.subdb("TC2").unwrap();
        let tc_courses = sd.slot_extent(1);
        assert_eq!(sd2.slot_extent(0), tc_courses);
    });
}

/// Subsumption: after `retain_maximal`, no retained pattern is a strict
/// part of another (paper §5.1).
#[test]
fn retain_maximal_leaves_only_maximal() {
    check("retain_maximal_leaves_only_maximal", CASES, |g| {
        let raw = raw_patterns(g, 0..40, 4, 6);
        let mut sd = subdb_from_raw(4, raw);
        let before: Vec<ExtPattern> = sd.to_vec();
        sd.retain_maximal();
        let after: Vec<ExtPattern> = sd.to_vec();
        // No retained pattern is part of another retained pattern.
        for a in &after {
            for b in &after {
                assert!(!a.is_part_of(b), "{a} is part of {b}");
            }
        }
        // Every dropped pattern is part of some retained pattern.
        for p in &before {
            if !after.contains(p) {
                assert!(after.iter().any(|q| p.is_part_of(q)), "{p} dropped without cover");
            }
        }
    });
}

/// `retain_maximal` keeps exactly the patterns of which no other pattern is
/// a strict part, by the definition of §5.1 written out here on its own:
/// `b` binds every slot `a` binds, to the same oid, and binds more slots.
/// The extensions are built to hit every case of the type-grouped filter:
/// several types, types with no supertype, many supertype patterns sharing
/// one projection, the all-Null pattern, a width-1 intension, and widths
/// past one mask word.
#[test]
fn retain_maximal_equals_quadratic_filter() {
    fn part_of(a: &[Option<u64>], b: &[Option<u64>]) -> bool {
        let bound = |r: &[Option<u64>]| r.iter().filter(|c| c.is_some()).count();
        a.iter().zip(b).all(|(x, y)| x.is_none() || x == y) && bound(b) > bound(a)
    }
    check("retain_maximal_equals_quadratic_filter", CASES, |g| {
        let width = [1, 2, 3, 4, 6, 70][g.range(0usize..6)];
        // Full rows over few oids, then copies with random slots nulled:
        // parts, shared projections and unrelated partial rows all occur.
        let full = g.vec(1..6, |g| (0..width).map(|_| Some(g.range(1u64..4))).collect::<Vec<_>>());
        let mut raw: Vec<Vec<Option<u64>>> = full.clone();
        for _ in 0..g.range(0usize..24) {
            let mut row = full[g.range(0..full.len())].clone();
            for c in row.iter_mut() {
                if g.range(0u32..3) == 0 {
                    *c = None;
                } else if g.range(0u32..8) == 0 {
                    *c = Some(g.range(1u64..4));
                }
            }
            raw.push(row);
        }
        if g.range(0u32..2) == 0 {
            raw.push(vec![None; width]);
        }
        raw.sort();
        raw.dedup();
        let slots =
            (0..width).map(|i| SlotDef::base(format!("C{i}"), dood::core::ids::ClassId(i as u32)));
        let mut sd = Subdatabase::new("t", Intension::new(slots.collect()));
        sd.set_patterns(raw.iter().map(|r| pattern(r)));
        sd.retain_maximal();
        let got: Vec<Vec<Option<u64>>> = sd
            .patterns()
            .map(|p| p.components().iter().map(|c| c.map(|o| o.raw())).collect())
            .collect();
        let want: Vec<Vec<Option<u64>>> =
            raw.iter().filter(|a| !raw.iter().any(|b| part_of(a, b))).cloned().collect();
        assert_eq!(got, want, "width {width}");
    });
}

/// Pattern-type census partitions the extension.
#[test]
fn pattern_type_census_partitions() {
    check("pattern_type_census_partitions", CASES, |g| {
        let raw = raw_patterns(g, 0..30, 3, 8);
        let slots = (0..3)
            .map(|i| SlotDef::base(format!("C{i}"), dood::core::ids::ClassId(i)))
            .collect();
        let mut sd = Subdatabase::new("t", Intension::new(slots));
        for comps in raw {
            sd.insert(pattern(&comps));
        }
        let census = sd.pattern_types();
        assert_eq!(census.values().sum::<usize>(), sd.len());
    });
}

/// Semi-naive and naive Datalog evaluation reach the same fixpoint on
/// random edge relations.
#[test]
fn seminaive_equals_naive() {
    check("seminaive_equals_naive", CASES, |g| {
        let edges: std::collections::BTreeSet<(u64, u64)> = g
            .vec(0..40, |g| (g.range(1u64..12), g.range(1u64..12)))
            .into_iter()
            .collect();
        let mut p = datalog::Program::new();
        let edge = p.pred("edge");
        let path = p.pred("path");
        p.rule(
            Atom::new(path, vec![datalog::v(0), datalog::v(1)]),
            vec![Atom::new(edge, vec![datalog::v(0), datalog::v(1)])],
        );
        p.rule(
            Atom::new(path, vec![datalog::v(0), datalog::v(2)]),
            vec![
                Atom::new(path, vec![datalog::v(0), datalog::v(1)]),
                Atom::new(edge, vec![datalog::v(1), datalog::v(2)]),
            ],
        );
        let mut edb = datalog::FactDb::new();
        for (a, b) in edges {
            edb.insert(edge, vec![a, b]);
        }
        let (na, _) = datalog::naive(&p, &edb);
        let (sn, _) = datalog::seminaive(&p, &edb);
        assert_eq!(na.relation(path), sn.relation(path));
    });
}

/// The OQL closure over a BOM yields exactly the reachability pairs the
/// Datalog baseline computes on the translated data.
#[test]
fn oql_closure_equals_datalog_reachability() {
    check("oql_closure_equals_datalog_reachability", CASES, |g| {
        let depth = g.range(1usize..4);
        let fanout = g.range(1usize..3);
        let seed = g.range(0u64..100);
        let (db, _) = cad::build_bom(
            cad::BomShape { depth, fanout, roots: 2, share_per_mille: 200 },
            seed,
        );
        // dood side: maximal chains; extract (root-ancestor, descendant)
        // pairs from every chain prefix.
        let reg = SubdbRegistry::new();
        let out = Oql::new().query(&db, &reg, "context Part ^*").unwrap();
        let mut dood_pairs: std::collections::BTreeSet<(u64, u64)> = Default::default();
        for p in out.subdb.patterns() {
            let chain: Vec<Oid> = p.components().iter().flatten().copied().collect();
            for i in 0..chain.len() {
                for j in i + 1..chain.len() {
                    dood_pairs.insert((chain[i].raw(), chain[j].raw()));
                }
            }
        }
        // Datalog side: path over the translated Component relation.
        let mut t = datalog::translate(&db);
        let part = db.schema().class_by_name("Part").unwrap();
        let comp = db.schema().own_link_by_name(part, "Component").unwrap();
        let comp_pred = datalog::translate::assoc_pred(&mut t, &db, comp);
        let reach = t.program.pred("reach");
        t.program.rule(
            Atom::new(reach, vec![datalog::v(0), datalog::v(1)]),
            vec![Atom::new(comp_pred, vec![datalog::v(0), datalog::v(1)])],
        );
        t.program.rule(
            Atom::new(reach, vec![datalog::v(0), datalog::v(2)]),
            vec![
                Atom::new(reach, vec![datalog::v(0), datalog::v(1)]),
                Atom::new(comp_pred, vec![datalog::v(1), datalog::v(2)]),
            ],
        );
        let (fixpoint, _) = datalog::seminaive(&t.program, &t.edb);
        let dl_pairs: std::collections::BTreeSet<(u64, u64)> =
            fixpoint.tuples(reach).map(|t| (t[0], t[1])).collect();
        assert_eq!(dood_pairs, dl_pairs);
    });
}

/// Forward maintenance equals from-scratch derivation under random
/// update sequences (pre-evaluated results stay consistent).
#[test]
fn forward_maintenance_matches_scratch() {
    check("forward_maintenance_matches_scratch", CASES, |g| {
        let seed = g.range(0u64..100);
        let ops = g.vec(1..12, |g| g.range(0u8..4));
        let (db, com) = company::populate(company::CompanySize::small(), seed);
        let mut engine = RuleEngine::new(db);
        engine
            .add_rule("Ra", "if context Employee * Department then REa (Employee, Department)")
            .unwrap();
        engine
            .add_rule("Rb", "if context REa:Employee * Project then REb (Employee, Project)")
            .unwrap();
        engine.set_policy("REa", EvalPolicy::PreEvaluated);
        engine.set_policy("REb", EvalPolicy::PreEvaluated);
        engine.query("context REb:Employee").unwrap();

        let employee = engine.db().schema().class_by_name("Employee").unwrap();
        let works_in = engine.db().schema().own_link_by_name(employee, "WorksIn").unwrap();
        let assigned = engine.db().schema().own_link_by_name(employee, "AssignedTo").unwrap();
        for (i, op) in ops.into_iter().enumerate() {
            let db = engine.db_mut();
            let e = com.employees[i % com.employees.len()];
            match op {
                0 => {
                    let d = com.departments[i % com.departments.len()];
                    let _ = db.associate(works_in, e, d);
                }
                1 => {
                    let d = com.departments[i % com.departments.len()];
                    let _ = db.dissociate(works_in, e, d);
                }
                2 => {
                    let p = com.projects[i % com.projects.len()];
                    let _ = db.associate(assigned, e, p);
                }
                _ => {
                    let _ = db.set_attr(e, "salary", Value::Int(i as i64 * 1000));
                }
            }
            engine.propagate().unwrap();
            assert!(engine.is_consistent("REa").unwrap());
            assert!(engine.is_consistent("REb").unwrap());
        }
    });
}

/// Projection laws: projecting a subdatabase narrows the width, keeps
/// pattern counts bounded, and slot extents survive.
#[test]
fn projection_laws() {
    check("projection_laws", CASES, |g| {
        let raw = raw_patterns(g, 1..25, 3, 9);
        let slots = (0..3)
            .map(|i| SlotDef::base(format!("C{i}"), dood::core::ids::ClassId(i)))
            .collect();
        let mut sd = Subdatabase::new("t", Intension::new(slots));
        for comps in raw {
            sd.insert(pattern(&comps));
        }
        let proj = sd.project("p", &[2, 0]);
        assert_eq!(proj.intension.width(), 2);
        assert!(proj.len() <= sd.len());
        assert_eq!(proj.slot_extent(0), sd.slot_extent(2));
        assert_eq!(proj.slot_extent(1), sd.slot_extent(0));
    });
}

/// Delta forward maintenance produces the same pre-evaluated results as
/// derivation from scratch, under random update sequences.
#[test]
fn incremental_maintenance_matches_full() {
    check("incremental_maintenance_matches_full", CASES, |g| {
        let seed = g.range(0u64..60);
        let ops = g.vec(1..10, |g| (g.range(0u8..4), g.range(0usize..64)));
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut inc = RuleEngine::new(db);
        inc.add_rule("Ra", "if context Employee * Department then REa (Employee, Department)")
            .unwrap();
        inc.add_rule("Rb", "if context REa:Employee * Project then REb (Employee, Project)")
            .unwrap();
        inc.set_policy("REa", EvalPolicy::PreEvaluated);
        inc.set_policy("REb", EvalPolicy::PreEvaluated);
        inc.query("context REb:Employee").unwrap();
        let apply = |e: &mut RuleEngine, op: u8, k: usize| {
            let db = e.db_mut();
            let employee = db.schema().class_by_name("Employee").unwrap();
            let department = db.schema().class_by_name("Department").unwrap();
            let project = db.schema().class_by_name("Project").unwrap();
            let works_in = db.schema().own_link_by_name(employee, "WorksIn").unwrap();
            let assigned = db.schema().own_link_by_name(employee, "AssignedTo").unwrap();
            let es: Vec<_> = db.extent(employee).collect();
            let ds: Vec<_> = db.extent(department).collect();
            let ps: Vec<_> = db.extent(project).collect();
            match op {
                0 => {
                    let _ = db.associate(works_in, es[k % es.len()], ds[k % ds.len()]);
                }
                1 => {
                    let _ = db.dissociate(works_in, es[k % es.len()], ds[k % ds.len()]);
                }
                2 => {
                    let _ = db.associate(assigned, es[k % es.len()], ps[k % ps.len()]);
                }
                _ => {
                    let e2 = db.new_object(employee).unwrap();
                    let _ = db.associate(works_in, e2, ds[k % ds.len()]);
                    let _ = db.associate(assigned, e2, ps[k % ps.len()]);
                }
            }
        };
        for (op, k) in ops {
            apply(&mut inc, op, k);
            inc.propagate().unwrap();
            for s in ["REa", "REb"] {
                let a = inc.registry().subdb(s).unwrap().to_vec();
                let b = inc.derive_fresh(s).unwrap().to_vec();
                assert_eq!(a, b, "{} diverged", s);
                assert!(inc.is_consistent(s).unwrap());
            }
        }
    });
}

/// Persistence: dump → load round-trips any generated population, and
/// queries over the loaded store give identical results.
#[test]
fn dump_load_round_trips() {
    check("dump_load_round_trips", CASES, |g| {
        let seed = g.range(0u64..200);
        let db = university::populate(university::Size::small(), seed);
        let text = dood::store::dump(&db);
        let loaded = dood::store::load(university::schema(), &text).unwrap();
        assert_eq!(dood::store::dump(&loaded), text);
        let reg = SubdbRegistry::new();
        let q = "context Teacher * Section * Course";
        let a = Oql::new().query(&db, &reg, q).unwrap().subdb.to_vec();
        let b = Oql::new().query(&loaded, &reg, q).unwrap().subdb.to_vec();
        assert_eq!(a, b);
    });
}

/// Value comparison is consistent with type comparability and
/// antisymmetric where defined.
#[test]
fn value_comparison_laws() {
    check("value_comparison_laws", CASES, |g| {
        use std::cmp::Ordering;
        let a = g.range(-50i64..50);
        let b = g.range(-50i64..50);
        let f = g.range(-5.0f64..5.0);
        let (va, vb, vf) = (Value::Int(a), Value::Int(b), Value::Real(f));
        assert_eq!(va.compare(&vb), Some(a.cmp(&b)));
        // Int/Real comparisons agree with f64 semantics.
        if let Some(ord) = va.compare(&vf) {
            assert_eq!(ord, (a as f64).partial_cmp(&f).unwrap());
        }
        // Null never compares.
        assert_eq!(va.compare(&Value::Null), None);
        // Antisymmetry.
        if va.compare(&vb) == Some(Ordering::Less) {
            assert_eq!(vb.compare(&va), Some(Ordering::Greater));
        }
    });
}
