//! The late-materialising result stage against the row-wise one it
//! replaced (`tests/common/result_oracle.rs`): `build_table` returns the
//! same `Table` — debug form and rendered text — and `apply_where` keeps the
//! same patterns, over random subdatabases built to reach every branch:
//! Null components, repeated OIDs, missing perspectives, two columns on one
//! slot, OID columns, the default SELECT, no patterns, no columns, values
//! the integer codes cannot stand for (`Int(3)` beside `Real(3.0)`,
//! `-0.0`, NaN, integers beyond 2^53), tables too wide for a 64-bit key,
//! and strings that differ only late or barely (a shared prefix longer
//! than 8 bytes, a string that is a prefix of another, embedded NULs,
//! empty and non-ASCII strings). Rows are read through the row view, cell
//! by cell.
//!
//! Replay a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

#[path = "common/result_oracle.rs"]
mod result_oracle;

use dood::core::ids::Oid;
use dood::core::propcheck::{check, Gen};
use dood::core::schema::SchemaBuilder;
use dood::core::subdb::{ExtPattern, Intension, SlotDef, Subdatabase};
use dood::core::value::{DType, Value};
use dood::oql::ast::{AggFunc, ClassRef, CmpOp, CmpRhs, Literal, SelectItem, WhereCond};
use dood::oql::table::{build_table, Table};
use dood::oql::wherec::apply_where;
use dood::store::Database;
use result_oracle::{apply_where_rebuilding, build_table_rowwise, Written};

const CASES: usize = 160;

/// The slots of every generated subdatabase: two on one class, so that a
/// bare `name` is ambiguous and `A`/`A_1` can hold one object twice.
const SLOTS: [(&str, &str); 4] = [("A", "A"), ("B", "B"), ("C", "C"), ("A_1", "A")];

/// The attributes each slot's class shows, own and inherited.
fn attrs_of(slot: &str) -> &'static [&'static str] {
    match slot {
        "B" => &["title", "weight", "k"],
        "C" => &["c1", "c2", "c3", "c4"],
        _ => &["name", "n", "r", "flag"],
    }
}

/// How a case draws its values.
#[derive(Clone, Copy)]
struct Shape {
    /// Objects per class.
    objects: usize,
    /// Distinct values an attribute draws from: small makes duplicate rows,
    /// large makes wide keys.
    domain: i64,
    /// Whether Real attributes may hold what ranks cannot stand for.
    irregular: bool,
    /// How strings are drawn: `s<n>` (0), mostly behind one prefix longer
    /// than 8 bytes (1), or from pieces that repeat 8-byte runs, NULs and
    /// multi-byte chars (2).
    strings: u8,
}

fn real(g: &mut Gen, shape: Shape) -> Value {
    if shape.irregular && g.bool(0.3) {
        return g
            .choose(&[
                Value::Int(3),
                Value::Real(3.0),
                Value::Real(0.0),
                Value::Real(-0.0),
                Value::Int(0),
                Value::Real(f64::NAN),
            ])
            .clone();
    }
    Value::Real(g.range(0..shape.domain) as f64 / 2.0)
}

fn int(g: &mut Gen, shape: Shape) -> Value {
    if shape.irregular && g.bool(0.1) {
        // Two integers with one `f64`.
        return Value::Int((1i64 << 53) + g.range(0i64..2));
    }
    Value::Int(g.range(0..shape.domain))
}

fn text(g: &mut Gen, shape: Shape) -> Value {
    let n = g.range(0..shape.domain);
    match shape.strings {
        0 => Value::str(format!("s{n}")),
        // A prefix of every string but the odd one, which may also be the
        // last of its column.
        1 if g.bool(0.9) => Value::str(format!("course-catalogue-entry-{n}")),
        1 => Value::str(*g.choose(&["", "course", "course-catalogue-entry-"])),
        _ => {
            let head = *g.choose(&["", "abcdefgh", "abcdefghij", "Zoë-", "日本語"]);
            let tail = *g.choose(&["", "\0", "\0\0", "1", "2", "é", "a\0b", "abcdefgh"]);
            Value::str(format!("{head}{tail}"))
        }
    }
}

/// A database over P ⊒ A, B, C and a subdatabase over [`SLOTS`].
fn generate(g: &mut Gen, shape: Shape, patterns: std::ops::Range<usize>) -> (Database, Subdatabase) {
    let mut b = SchemaBuilder::new();
    for c in ["P", "A", "B", "C"] {
        b.e_class(c);
    }
    b.generalize("P", "A");
    for (d, ty) in [
        ("name", DType::Str),
        ("n", DType::Int),
        ("r", DType::Real),
        ("flag", DType::Bool),
        ("title", DType::Str),
        ("weight", DType::Real),
        ("k", DType::Int),
        ("c1", DType::Int),
        ("c2", DType::Int),
        ("c3", DType::Str),
        ("c4", DType::Real),
    ] {
        b.d_class(d, ty);
    }
    for (class, attrs) in [
        ("P", &["name", "n"][..]),
        ("A", &["r", "flag"]),
        ("B", &["title", "weight", "k"]),
        ("C", &["c1", "c2", "c3", "c4"]),
    ] {
        for a in attrs {
            b.attr(class, *a);
        }
    }
    let mut db = Database::new(b.build().unwrap());
    let class = |db: &Database, name: &str| db.schema().class_by_name(name).unwrap();

    let mut extents: Vec<Vec<Oid>> = vec![Vec::new(); 3];
    for _ in 0..shape.objects {
        // An A is a perspective of a P, or stands alone: its inherited
        // attributes then have no object to be read from.
        let a = if g.bool(0.8) {
            let p = db.new_object(class(&db, "P")).unwrap();
            db.specialize(p, class(&db, "A")).unwrap()
        } else {
            db.new_object(class(&db, "A")).unwrap()
        };
        extents[0].push(a);
        extents[1].push(db.new_object(class(&db, "B")).unwrap());
        extents[2].push(db.new_object(class(&db, "C")).unwrap());
    }
    for (k, slot) in ["A", "B", "C"].iter().enumerate() {
        for &o in &extents[k] {
            for &a in attrs_of(slot) {
                if g.bool(0.15) {
                    continue; // stays Null
                }
                let v = match a {
                    "name" | "title" | "c3" => text(g, shape),
                    "n" | "k" | "c1" | "c2" => int(g, shape),
                    "r" | "weight" | "c4" => real(g, shape),
                    _ => Value::Bool(g.bool(0.5)),
                };
                // A stand-alone A has nowhere to store `name` and `n`.
                let _ = db.set_attr(o, a, v);
            }
        }
    }

    let slots = SLOTS
        .iter()
        .map(|(name, base)| SlotDef::base(*name, class(&db, base)))
        .collect();
    let mut sd = Subdatabase::new("t", Intension::new(slots));
    for _ in 0..g.range(patterns) {
        let comps: Vec<Option<Oid>> = [0usize, 1, 2, 0]
            .iter()
            .map(|&k| g.bool(0.85).then(|| *g.choose(&extents[k])))
            .collect();
        sd.insert(ExtPattern::new(comps));
    }
    (db, sd)
}

fn select(g: &mut Gen) -> Vec<SelectItem> {
    g.vec(0..5, |g| {
        let (slot, _) = *g.choose(&SLOTS);
        match g.range(0..7) {
            0 => SelectItem::Class(ClassRef::base(slot)),
            // No column: a SELECT of only these has zero columns.
            6 => SelectItem::ClassAttrs(ClassRef::base(slot), Vec::new()),
            // `title` has one slot, `name` two, `B` is a slot, `nope` nothing.
            1 => SelectItem::Attr(g.choose(&["title", "k", "name", "B", "nope"]).to_string()),
            _ => {
                let attrs = attrs_of(slot);
                SelectItem::ClassAttrs(
                    ClassRef::base(slot),
                    g.vec(1..4, |g| g.choose(attrs).to_string()),
                )
            }
        }
    })
}

/// Both builders on one input: the same `Table`, or the same error.
#[track_caller]
fn assert_same_table(sd: &Subdatabase, select: &[SelectItem], db: &Database) {
    let new = build_table(sd, select, db);
    let old = build_table_rowwise(sd, select, db);
    // Debug forms: a NaN cell is not `==` to itself.
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "SELECT {select:?}\n{sd}");
    if let (Ok(new), Ok(old)) = (new, old) {
        assert_eq!(new.rows.len(), old.rows.len());
        for (i, row) in old.rows.iter().enumerate() {
            let view = new.rows.row(i);
            assert_eq!((view.len(), view.iter().len()), (row.len(), row.len()));
            for (c, v) in row.into_iter().enumerate() {
                assert_eq!(format!("{:?}", view[c]), format!("{v:?}"), "row {i}, column {c}");
            }
        }
        let text = new.to_string();
        assert_eq!(text, Written(&old, chars).to_string());
        if text.is_ascii() {
            // Where bytes are chars, the first renderer wrote the same.
            assert_eq!(text, Written(&old, str::len).to_string());
        }
        assert_eq!(new.render(), Written(&new, chars).to_string());
    }
}

fn chars(s: &str) -> usize {
    s.chars().count()
}

/// `Table::render`, which `Display` writes, against the formatter-written
/// text with widths in chars, on the tables of `oql::table`'s own tests:
/// the two-column query table, non-ASCII headers and cells, no rows, no
/// columns with and without a row, and nine columns too wide for a key.
#[test]
fn render_equals_the_formatter_written_text() {
    let s = |t: &str| Value::str(t);
    let tables = [
        (
            vec!["Teacher.name", "Section.section#"],
            vec![vec![s("jones"), Value::Int(2)], vec![s("smith"), Value::Int(1)]],
        ),
        (vec!["a"], vec![]),
        (
            vec!["naïve", "n"],
            vec![
                vec![s("Zoë Müller"), Value::Int(1)],
                vec![s("日本"), Value::Real(2.5)],
                vec![s("a long ASCII name"), Value::Null],
            ],
        ),
        (vec![], vec![vec![]]),
        (vec![], vec![]),
        (vec!["a"; 9], (0..200).map(|i| vec![Value::Int(i); 9]).collect()),
    ];
    for (columns, rows) in tables {
        let t = Table { columns: columns.into_iter().map(String::from).collect(), rows: rows.into() };
        assert_eq!(t.render(), Written(&t, chars).to_string(), "{t:?}");
        assert_eq!(t.to_string(), t.render());
    }
}

#[test]
fn build_table_equals_rowwise_builder() {
    check("build_table_equals_rowwise_builder", CASES, |g| {
        let shape = Shape {
            objects: g.range(1usize..8),
            domain: g.range(1i64..6),
            irregular: g.bool(0.4),
            strings: g.range(0u8..3),
        };
        let (db, sd) = generate(g, shape, 0..40);
        for _ in 0..4 {
            assert_same_table(&sd, &select(g), &db);
        }
        assert_same_table(&sd, &[], &db);
    });
}

/// Whether a table's columns have too many distinct values for its rows to
/// be numbered in 64 bits, however the numbering is done.
fn too_wide_for_u64(t: &dood::oql::Table) -> bool {
    let bits: f64 = (0..t.columns.len())
        .map(|c| {
            let mut seen: Vec<String> = t.rows.iter().map(|r| format!("{:?}", r[c])).collect();
            seen.sort();
            seen.dedup();
            (seen.len() as f64).log2()
        })
        .sum();
    bits > 64.0
}

#[test]
fn build_table_equals_rowwise_builder_beyond_64_bits() {
    check("build_table_equals_rowwise_builder_beyond_64_bits", 6, |g| {
        let shape = Shape { objects: 60, domain: 1000, irregular: false, strings: 0 };
        let (db, sd) = generate(g, shape, 300..400);
        let wide = build_table(&sd, &[], &db).unwrap();
        assert_eq!(wide.columns.len(), 15);
        assert!(too_wide_for_u64(&wide), "the case must not fit the key");
        assert_same_table(&sd, &[], &db);
        // The same patterns under a narrow SELECT fit it.
        assert_same_table(
            &sd,
            &[SelectItem::ClassAttrs(ClassRef::base("C"), vec!["c1".into(), "c3".into()])],
            &db,
        );
    });
}

fn literal(g: &mut Gen) -> Literal {
    match g.range(0..3) {
        0 => Literal::Int(g.range(0i64..5)),
        1 => Literal::Real(g.range(0..10) as f64 / 2.0),
        _ => Literal::Str(format!("s{}", g.range(0..5))),
    }
}

fn cmp_op(g: &mut Gen) -> CmpOp {
    *g.choose(&[CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge])
}

fn slot_and_attr(g: &mut Gen) -> (ClassRef, String) {
    let (slot, _) = *g.choose(&SLOTS);
    (ClassRef::base(slot), g.choose(attrs_of(slot)).to_string())
}

fn condition(g: &mut Gen) -> WhereCond {
    if g.bool(0.4) {
        let right = if g.bool(0.5) {
            CmpRhs::Lit(literal(g))
        } else {
            let (c, a) = slot_and_attr(g);
            CmpRhs::Attr(c, a)
        };
        return WhereCond::Cmp { left: slot_and_attr(g), op: cmp_op(g), right };
    }
    let func = *g.choose(&[AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]);
    let (target, attr) = slot_and_attr(g);
    WhereCond::Agg {
        attr: (func != AggFunc::Count || g.bool(0.5)).then_some(attr),
        func,
        target,
        by: g.option(|g| ClassRef::base(g.choose(&SLOTS).0)),
        op: cmp_op(g),
        value: Literal::Int(g.range(0i64..4)),
    }
}

/// Both filters on one input keep the same patterns.
#[track_caller]
fn assert_same_filter(sd: &Subdatabase, conds: &[WhereCond], db: &Database) {
    let (mut new, mut old) = (sd.clone(), sd.clone());
    let (rn, ro) = (apply_where(&mut new, conds, db), apply_where_rebuilding(&mut old, conds, db));
    assert_eq!(format!("{rn:?}"), format!("{ro:?}"), "WHERE {conds:?}");
    assert_eq!(new.to_vec(), old.to_vec(), "WHERE {conds:?}\n{sd}");
}

#[test]
fn apply_where_equals_rebuilding_filter() {
    check("apply_where_equals_rebuilding_filter", CASES, |g| {
        let shape = Shape {
            objects: g.range(1usize..8),
            domain: g.range(1i64..6),
            irregular: g.bool(0.3),
            strings: g.range(0u8..3),
        };
        let (db, sd) = generate(g, shape, 0..60);
        for _ in 0..6 {
            let conds = g.vec(1..3, condition);
            assert_same_filter(&sd, &conds, &db);
        }
    });
}

/// Grouped `count` and `avg` where some patterns have no group and some no
/// target: a pattern without a group never qualifies, a group whose
/// patterns have no target counts zero and averages to Null.
#[test]
fn grouped_aggregates_with_null_groups_and_targets() {
    check("grouped_aggregates_with_null_groups_and_targets", 40, |g| {
        let shape = Shape { objects: 5, domain: 4, irregular: false, strings: 0 };
        let (db, mut sd) = generate(g, shape, 10..40);
        let a: Vec<Oid> = sd.slot_extent(0).into_iter().collect();
        let b: Vec<Oid> = sd.slot_extent(1).into_iter().collect();
        // A group with no target at all, and a target with no group.
        if let (Some(&a0), Some(&b0)) = (a.first(), b.first()) {
            sd.retain(|p| p.get(0) != Some(a0) || p.get(1).is_none());
            sd.insert(ExtPattern::new(vec![Some(a0), None, None, None]));
            sd.insert(ExtPattern::new(vec![None, Some(b0), None, None]));
        }
        for (func, attr) in [(AggFunc::Count, None), (AggFunc::Count, Some("k")), (AggFunc::Avg, Some("k"))] {
            for op in [CmpOp::Lt, CmpOp::Ge] {
                let cond = WhereCond::Agg {
                    func,
                    target: ClassRef::base("B"),
                    attr: attr.map(str::to_string),
                    by: Some(ClassRef::base("A")),
                    op,
                    value: Literal::Int(g.range(0i64..3)),
                };
                assert_same_filter(&sd, &[cond], &db);
            }
        }
    });
}

/// An aggregate of every function over the target slot `target`, grouped
/// by `by`, against a random threshold.
fn aggregate(g: &mut Gen, target: usize, by: Option<usize>) -> WhereCond {
    let func = *g.choose(&[AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]);
    let (slot, _) = SLOTS[target];
    WhereCond::Agg {
        attr: (func != AggFunc::Count || g.bool(0.5)).then(|| g.choose(attrs_of(slot)).to_string()),
        func,
        target: ClassRef::base(slot),
        by: by.map(|b| ClassRef::base(SLOTS[b].0)),
        op: cmp_op(g),
        value: Literal::Int(g.range(0i64..6)),
    }
}

/// Aggregates over sets of 200 to 400 patterns, which span several leaves:
/// ungrouped, by slot 0 (each group one run), and by a later slot (groups
/// that recur under every head they appear with), on every target slot.
/// Few objects make groups recur and share targets across their runs;
/// some patterns lack the group or the target.
#[test]
fn aggregates_over_many_leaves_equal_the_rebuilding_filter() {
    check("aggregates_over_many_leaves_equal_the_rebuilding_filter", 24, |g| {
        let shape = Shape {
            objects: g.range(2usize..9),
            domain: g.range(1i64..6),
            irregular: false,
            strings: 0,
        };
        let (db, sd) = generate(g, shape, 200..400);
        for by in [None, Some(0), Some(1), Some(2), Some(3)] {
            for target in 0..SLOTS.len() {
                let cond = aggregate(g, target, by);
                assert_same_filter(&sd, &[cond], &db);
            }
        }
    });
}

/// `sum` and `avg` over Real targets whose floating-point sum depends on
/// the order it is taken in (1e16 + 1 - 1e16 is 0 one way and 1 another):
/// both filters add a group's distinct targets in ascending OID order,
/// however the group's patterns were spread over runs and leaves.
#[test]
fn order_dependent_sums_equal_the_rebuilding_filter() {
    check("order_dependent_sums_equal_the_rebuilding_filter", 24, |g| {
        let shape = Shape { objects: g.range(3usize..8), domain: 4, irregular: false, strings: 0 };
        let (mut db, sd) = generate(g, shape, 200..300);
        for b in sd.slot_extent(1) {
            let v = *g.choose(&[1e16, 1.0, -1e16, 2.0]);
            db.set_attr(b, "weight", Value::Real(v)).unwrap();
        }
        for by in [None, Some(0), Some(2), Some(3)] {
            for func in [AggFunc::Sum, AggFunc::Avg] {
                let thresholds = [(CmpOp::Ge, 1), (CmpOp::Lt, 1), (CmpOp::Eq, 0), (CmpOp::Gt, 2)];
                for (op, value) in thresholds {
                    let cond = WhereCond::Agg {
                        func,
                        target: ClassRef::base("B"),
                        attr: Some("weight".into()),
                        by: by.map(|b| ClassRef::base(SLOTS[b].0)),
                        op,
                        value: Literal::Int(value),
                    };
                    assert_same_filter(&sd, &[cond], &db);
                }
            }
        }
    });
}

/// SELECTs over sets of 200 to 400 patterns, which span several leaves: on
/// a prefix of the slots, so that many patterns make one row (the shape of
/// a grouped report), on slot 0 alone, on later slots alone, and on all.
#[test]
fn prefix_selects_over_many_leaves_equal_the_rowwise_builder() {
    check("prefix_selects_over_many_leaves_equal_the_rowwise_builder", 24, |g| {
        let shape = Shape {
            objects: g.range(2usize..12),
            domain: g.range(2i64..40),
            irregular: false,
            strings: g.range(0u8..3),
        };
        let (db, sd) = generate(g, shape, 200..400);
        let attrs = |slot: &str| {
            SelectItem::ClassAttrs(ClassRef::base(slot), vec![attrs_of(slot)[0].into()])
        };
        for select in [
            vec![attrs("A"), attrs("B")],
            vec![SelectItem::Class(ClassRef::base("A")), attrs("B")],
            vec![attrs("A")],
            vec![attrs("C"), attrs("A_1")],
            vec![SelectItem::Class(ClassRef::base("B"))],
            select(g),
        ] {
            assert_same_table(&sd, &select, &db);
        }
        assert_same_table(&sd, &[], &db);
    });
}
