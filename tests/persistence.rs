//! Integration coverage for the dump/load persistence path over a real
//! workload: dump a populated university database, reload it into a fresh
//! `Database`, and check that every object, attribute and association
//! survived — the "no serialization capability lost" guarantee after the
//! removal of the serde derives.

use dood::core::error::StoreError;
use dood::core::ids::Oid;
use dood::core::value::Value;
use dood::store::{dump, load, load_full, save_full, Database, LoadError};
use dood::workload::university;

fn object_attr_link_counts(db: &Database) -> (usize, usize, usize) {
    let schema = db.schema();
    let mut attrs = 0;
    let mut links = 0;
    for c in schema.e_classes() {
        for &attr in &schema.own_attrs(c.id) {
            attrs += db
                .extent(c.id)
                .filter(|&o| !db.attr_direct(o, attr).is_null())
                .count();
        }
    }
    for a in schema.assocs() {
        if !schema.is_attribute(a.id) {
            links += db.links(a.id).len();
        }
    }
    (db.object_count(), attrs, links)
}

#[test]
fn university_dump_reloads_with_identical_counts() {
    let (db, pop) = university::populate_with_handles(university::Size::medium(), 42);
    let text = dump(&db);
    let loaded = load(university::schema(), &text).expect("dump must reload");

    assert_eq!(object_attr_link_counts(&loaded), object_attr_link_counts(&db));

    // Per-class extents match exactly (same OIDs, same order).
    for c in db.schema().e_classes() {
        let a: Vec<_> = db.extent(c.id).collect();
        let b: Vec<_> = loaded.extent(c.id).collect();
        assert_eq!(a, b, "extent of {}", c.name);
    }

    // Per-association link sets match exactly.
    for assoc in db.schema().assocs() {
        if !db.schema().is_attribute(assoc.id) {
            assert_eq!(loaded.links(assoc.id), db.links(assoc.id), "links of {}", assoc.name);
        }
    }

    // Spot-check attribute values through the population handles.
    let dept_name = loaded.attr(pop.departments[0], "name").unwrap();
    assert_eq!(dept_name, Value::str("CIS"));
    for &c in pop.courses.iter().take(5) {
        assert_eq!(loaded.attr(c, "title").unwrap(), db.attr(c, "title").unwrap());
        assert_eq!(loaded.attr(c, "c#").unwrap(), db.attr(c, "c#").unwrap());
    }

    // Reloaded databases keep dumping identically (fixed point).
    assert_eq!(dump(&loaded), text);
}

#[test]
fn university_full_document_roundtrip_preserves_schema_and_data() {
    let db = university::populate(university::Size::small(), 7);
    let doc = save_full(&db);
    let loaded = load_full(&doc).expect("self-describing document must reload");
    assert_eq!(loaded.schema().class_count(), db.schema().class_count());
    assert_eq!(loaded.schema().assoc_count(), db.schema().assoc_count());
    assert_eq!(object_attr_link_counts(&loaded), object_attr_link_counts(&db));
    assert_eq!(save_full(&loaded), doc);
}

#[test]
fn loaded_university_database_remains_fully_operable() {
    use dood::core::subdb::SubdbRegistry;
    use dood::oql::Oql;

    let db = university::populate(university::Size::small(), 11);
    let mut loaded = load(university::schema(), &dump(&db)).expect("reload");

    // Queries over the reloaded store give the same patterns.
    let reg = SubdbRegistry::new();
    let q = "context Department * Course * Section";
    let a = Oql::new().query(&db, &reg, q).unwrap().subdb.to_vec();
    let b = Oql::new().query(&loaded, &reg, q).unwrap().subdb.to_vec();
    assert_eq!(a, b);

    // The store accepts new objects without OID collisions.
    let before = loaded.object_count();
    let dept = loaded.schema().class_by_name("Department").unwrap();
    let fresh = loaded.new_object(dept).unwrap();
    assert_eq!(loaded.object_count(), before + 1);
    assert!(db.extent(dept).all(|o| o != fresh), "fresh OID must not collide");
}

#[test]
fn a_dump_cannot_name_oid_zero() {
    let err = load(university::schema(), "dooddump 1\nO 0 Student").unwrap_err();
    assert_eq!(err, LoadError::BadLine { line: 2, content: "O 0 Student".to_string() });
}

#[test]
fn a_dump_cannot_name_the_last_oid() {
    // No OID is left to issue after `u64::MAX`, so a dump may not name it.
    let last = format!("O {} Student", u64::MAX);
    let err = load(university::schema(), &format!("dooddump 1\n{last}")).unwrap_err();
    assert_eq!(err, LoadError::BadLine { line: 2, content: last });

    let mut db = load(university::schema(), &format!("dooddump 1\nO {} Student", u64::MAX - 1))
        .expect("the OID before the last one loads");
    let student = db.schema().class_by_name("Student").unwrap();
    assert_eq!(db.extent(student).collect::<Vec<_>>(), [Oid::from_raw(u64::MAX - 1)]);
    let before = db.object_count();
    assert_eq!(db.new_object(student), Err(StoreError::OidsExhausted));
    assert_eq!(db.object_count(), before);
}

#[test]
fn an_empty_dump_issues_o1_first() {
    let mut db = load(university::schema(), "dooddump 1\n").expect("empty dump loads");
    let student = db.schema().class_by_name("Student").unwrap();
    assert_eq!(db.new_object(student), Ok(Oid::MIN));
    assert_eq!(db.new_object(student).unwrap().to_string(), "o2");
}
