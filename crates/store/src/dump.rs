//! A line-oriented dump/load format for the extensional database — the
//! persistence substrate an OO DBMS needs beneath the paper's language.
//!
//! ```text
//! dooddump 1
//! O <oid> <class-name>
//! V <oid> <attr-name> <typed-value>
//! L <class-name>/<link-name> <from-oid> <to-oid>
//! ```
//!
//! Typed values: `n` (Null), `i:<int>`, `r:<real>` (Rust's shortest
//! round-tripping float form), `b:<bool>`, `s:<escaped>` where `\\`, `\n`
//! and `\r` are escaped. The dump is deterministic (extent/OID order), so
//! equal databases produce byte-equal dumps. OIDs are preserved; loading
//! resumes OID generation past the maximum. An `<oid>` is an integer in
//! `1..u64::MAX` (no OID is 0, and none is issued after `u64::MAX - 1`);
//! any other is a bad line. The load validates against the schema it is
//! given.

use crate::database::Database;
use dood_core::ids::Oid;
use dood_core::schema::Schema;
use dood_core::value::Value;
use std::fmt;
use std::fmt::Write as _;

/// Errors raised while loading a dump.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LoadError {
    /// The header line is missing or has the wrong version.
    BadHeader(String),
    /// A line could not be parsed.
    BadLine { line: usize, content: String },
    /// The dump references a name missing from the schema.
    UnknownName { line: usize, name: String },
    /// A store-level restore failed (duplicate OID, type mismatch, …).
    Store { line: usize, error: dood_core::error::StoreError },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::BadHeader(h) => write!(f, "bad dump header `{h}`"),
            LoadError::BadLine { line, content } => {
                write!(f, "line {line}: cannot parse `{content}`")
            }
            LoadError::UnknownName { line, name } => {
                write!(f, "line {line}: unknown schema name `{name}`")
            }
            LoadError::Store { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n".to_string(),
        Value::Int(i) => format!("i:{i}"),
        Value::Real(r) => format!("r:{r}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Str(s) => format!("s:{}", escape(s)),
    }
}

fn decode_value(s: &str) -> Option<Value> {
    if s == "n" {
        return Some(Value::Null);
    }
    let (tag, rest) = s.split_once(':')?;
    match tag {
        "i" => rest.parse().ok().map(Value::Int),
        "r" => rest.parse().ok().map(Value::Real),
        "b" => rest.parse().ok().map(Value::Bool),
        "s" if !rest.contains('\\') => Some(Value::str(rest)),
        "s" => Some(Value::str(unescape(rest))),
        _ => None,
    }
}

/// Serialize the extensional database (objects, attributes, links).
pub fn dump(db: &Database) -> String {
    let schema = db.schema();
    let mut out = String::from("dooddump 1\n");
    for c in schema.e_classes() {
        for oid in db.extent(c.id) {
            let _ = writeln!(out, "O {} {}", oid.raw(), c.name);
        }
    }
    for c in schema.e_classes() {
        for &attr in &schema.own_attrs(c.id) {
            for oid in db.extent(c.id) {
                let v = db.attr_direct(oid, attr);
                if !v.is_null() {
                    let _ = writeln!(
                        out,
                        "V {} {} {}",
                        oid.raw(),
                        schema.assoc(attr).name,
                        encode_value(&v)
                    );
                }
            }
        }
    }
    for a in schema.assocs() {
        if schema.is_attribute(a.id) {
            continue;
        }
        for (from, to) in db.links(a.id) {
            let _ = writeln!(
                out,
                "L {}/{} {} {}",
                schema.class(a.from).name,
                a.name,
                from.raw(),
                to.raw()
            );
        }
    }
    out
}

/// Serialize schema (DDL) + data into one self-describing document.
pub fn save_full(db: &Database) -> String {
    format!(
        "doodfile 1
{}%%data
{}",
        dood_core::schema::print_schema(db.schema()),
        dump(db)
    )
}

/// Load a self-describing document produced by [`save_full`].
pub fn load_full(text: &str) -> Result<Database, LoadError> {
    let rest = text
        .strip_prefix("doodfile 1\n")
        .ok_or_else(|| LoadError::BadHeader(text.lines().next().unwrap_or("").to_string()))?;
    let (schema_text, data_text) = rest
        .split_once("%%data\n")
        .ok_or_else(|| LoadError::BadHeader("missing %%data separator".to_string()))?;
    let schema = dood_core::schema::parse_schema(schema_text)
        .map_err(|e| LoadError::BadHeader(e.to_string()))?;
    load(schema, data_text)
}

/// `resolve()`, or what it gave the previous time when `key` is the same:
/// a dump lists its lines grouped by class, attribute and link, so most
/// lines repeat the name the line before them resolved.
fn cached<K: PartialEq + Copy, V: Copy>(
    last: &mut Option<(K, V)>,
    key: K,
    resolve: impl FnOnce() -> Result<V, LoadError>,
) -> Result<V, LoadError> {
    match *last {
        Some((k, v)) if k == key => Ok(v),
        _ => {
            let v = resolve()?;
            *last = Some((key, v));
            Ok(v)
        }
    }
}

/// Load a dump into a fresh database over `schema`.
///
/// Objects and attribute values are stored at their lines. Links are
/// checked at their lines (both ends live and of the association's
/// classes) and staged; each association's index is then built in bulk,
/// and a single-valued association whose links give one source two
/// targets fails naming one of the two `L` lines.
pub fn load(schema: Schema, text: &str) -> Result<Database, LoadError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "dooddump 1")) => {}
        Some((_, other)) => return Err(LoadError::BadHeader(other.to_string())),
        None => return Err(LoadError::BadHeader(String::new())),
    }
    let (mut objects, mut links) = (0, 0);
    for line in text.lines() {
        match line.as_bytes().first() {
            Some(b'O') => objects += 1,
            Some(b'L') => links += 1,
            _ => {}
        }
    }
    let mut db = Database::new(schema);
    db.reserve_objects(objects);
    let mut staged = Vec::with_capacity(links);
    let mut max_oid = None;
    let (mut last_class, mut last_attr, mut last_link) = (None, None, None);
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        let bad = || LoadError::BadLine { line: lineno, content: line.to_string() };
        let unknown = |name: &str| LoadError::UnknownName { line: lineno, name: name.to_string() };
        let store = |error| LoadError::Store { line: lineno, error };
        // 0 is no OID, and after `u64::MAX` no OID is left to issue.
        let oid = |s: &str| {
            s.parse().ok().and_then(Oid::new).filter(|&o| o != Oid::MAX).ok_or_else(bad)
        };
        let mut parts = line.splitn(2, ' ');
        let kind = parts.next().ok_or_else(bad)?;
        let rest = parts.next().ok_or_else(bad)?;
        match kind {
            "O" => {
                let (oid_s, class_name) = rest.split_once(' ').ok_or_else(bad)?;
                let oid = oid(oid_s)?;
                let class = cached(&mut last_class, class_name, || {
                    db.schema().try_class_by_name(class_name).ok_or_else(|| unknown(class_name))
                })?;
                db.restore_object(oid, class).map_err(store)?;
                max_oid = max_oid.max(Some(oid));
            }
            "V" => {
                let (oid_s, rest2) = rest.split_once(' ').ok_or_else(bad)?;
                let (attr_name, val_s) = rest2.split_once(' ').ok_or_else(bad)?;
                let oid = oid(oid_s)?;
                let class = db.class_of(oid).map_err(store)?;
                let attr = cached(&mut last_attr, (class, attr_name), || {
                    db.schema().own_attr_by_name(class, attr_name).ok_or_else(|| unknown(attr_name))
                })?;
                let value = decode_value(val_s).ok_or_else(bad)?;
                db.restore_attr(oid, attr, value).map_err(store)?;
            }
            "L" => {
                let (link_s, rest2) = rest.split_once(' ').ok_or_else(bad)?;
                let (from_s, to_s) = rest2.split_once(' ').ok_or_else(bad)?;
                let assoc = cached(&mut last_link, link_s, || {
                    let (class_name, link_name) = link_s.split_once('/').ok_or_else(bad)?;
                    let schema = db.schema();
                    let class =
                        schema.try_class_by_name(class_name).ok_or_else(|| unknown(class_name))?;
                    schema
                        .outgoing(class)
                        .iter()
                        .copied()
                        .find(|&a| schema.assoc(a).name == link_name)
                        .ok_or_else(|| unknown(link_s))
                })?;
                let (from, to) = (oid(from_s)?, oid(to_s)?);
                db.check_link(assoc, from, to).map_err(store)?;
                let line = u32::try_from(lineno).map_err(|_| bad())?;
                staged.push((assoc, from, to, line));
            }
            _ => return Err(bad()),
        }
    }
    db.restore_links(staged)
        .map_err(|(line, error)| LoadError::Store { line: line as usize, error })?;
    if let Some(max_oid) = max_oid {
        db.resume_oids_after(max_oid);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::error::StoreError;
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::DType;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.e_class("Person");
        b.e_class("Student");
        b.e_class("Dept");
        b.d_class("name", DType::Str);
        b.d_class("gpa", DType::Real);
        b.attr("Person", "name");
        b.attr("Student", "gpa");
        b.generalize("Person", "Student");
        b.aggregate_single_named("Student", "Dept", "Major");
        b.build().unwrap()
    }

    fn populated() -> Database {
        let mut db = Database::new(schema());
        let person = db.schema().class_by_name("Person").unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let dept = db.schema().class_by_name("Dept").unwrap();
        let major = db.schema().own_link_by_name(student, "Major").unwrap();
        let p = db.new_object(person).unwrap();
        db.set_attr(p, "name", Value::str("ann\nwith newline \\ and 'quote'")).unwrap();
        let s = db.specialize(p, student).unwrap();
        db.set_attr(s, "gpa", Value::Real(3.25)).unwrap();
        let d = db.new_object(dept).unwrap();
        db.associate(major, s, d).unwrap();
        db
    }

    #[test]
    fn dump_load_round_trip() {
        let db = populated();
        let text = dump(&db);
        let loaded = load(schema(), &text).unwrap();
        // Same extents, attrs, links, under the same OIDs.
        for c in db.schema().e_classes() {
            let a: Vec<Oid> = db.extent(c.id).collect();
            let b: Vec<Oid> = loaded.extent(c.id).collect();
            assert_eq!(a, b, "extent of {}", c.name);
        }
        let person = db.schema().class_by_name("Person").unwrap();
        let p = db.extent(person).next().unwrap();
        assert_eq!(loaded.attr(p, "name").unwrap(), db.attr(p, "name").unwrap());
        let student = db.schema().class_by_name("Student").unwrap();
        let s = db.extent(student).next().unwrap();
        assert_eq!(loaded.attr(s, "gpa").unwrap(), Value::Real(3.25));
        let major = db.schema().own_link_by_name(student, "Major").unwrap();
        assert_eq!(loaded.links(major), db.links(major));
        // Dumps are deterministic.
        assert_eq!(dump(&loaded), text);
    }

    #[test]
    fn loaded_db_continues_oid_generation() {
        let db = populated();
        let before = db.object_count();
        let mut loaded = load(schema(), &dump(&db)).unwrap();
        let dept = loaded.schema().class_by_name("Dept").unwrap();
        let fresh = loaded.new_object(dept).unwrap();
        assert!(loaded.extent(dept).all(|o| o <= fresh));
        assert_eq!(loaded.object_count(), before + 1);
        // The fresh OID collides with nothing.
        assert!(db.extent(dept).all(|o| o != fresh));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(load(schema(), "nope"), Err(LoadError::BadHeader(_))));
        assert!(matches!(
            load(schema(), "dooddump 1\nX what"),
            Err(LoadError::BadLine { .. })
        ));
        assert!(matches!(
            load(schema(), "dooddump 1\nO 1 Nope"),
            Err(LoadError::UnknownName { .. })
        ));
        assert!(matches!(
            load(schema(), "dooddump 1\nO 1 Person\nO 1 Person"),
            Err(LoadError::Store { .. })
        ));
        assert!(matches!(
            load(schema(), "dooddump 1\nO 1 Person\nV 1 name x:?"),
            Err(LoadError::BadLine { .. })
        ));
    }

    #[test]
    fn link_endpoint_of_the_wrong_class_is_a_store_error() {
        let db = populated();
        let person = db.schema().class_by_name("Person").unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let dept = db.schema().class_by_name("Dept").unwrap();
        let major = db.schema().own_link_by_name(student, "Major").unwrap();
        let p = db.extent(person).next().unwrap().raw();
        let s = db.extent(student).next().unwrap().raw();
        let d = db.extent(dept).next().unwrap().raw();
        let objects = format!("dooddump 1\nO {p} Person\nO {s} Student\nO {d} Dept\n");
        // `from` must be a Student, `to` a Dept.
        for (from, to, bad) in [(p, d, p), (s, p, p), (s, s, s)] {
            let text = format!("{objects}L Student/Major {from} {to}\n");
            let other = if bad == from { to } else { from };
            assert_eq!(
                load(schema(), &text).unwrap_err(),
                LoadError::Store {
                    line: 5,
                    error: StoreError::AssocEndpointMismatch {
                        assoc: major,
                        from: Oid::from_raw(bad),
                        to: Oid::from_raw(other),
                    },
                },
                "L {from} {to}"
            );
        }
        let ok = load(schema(), &format!("{objects}L Student/Major {s} {d}\n")).unwrap();
        assert_eq!(ok.links(major), vec![(Oid::from_raw(s), Oid::from_raw(d))]);
    }

    /// Two `Major` links from one Student break the association's single
    /// cardinality, as `Database::associate` would refuse the second.
    #[test]
    fn two_targets_on_a_single_valued_link_are_a_store_error() {
        let text = "dooddump 1\nO 3 Student\nO 5 Dept\nO 6 Dept\n\
                    L Student/Major 3 5\nL Student/Major 3 6\n";
        let sch = schema();
        let student = sch.class_by_name("Student").unwrap();
        let major = sch.own_link_by_name(student, "Major").unwrap();
        let err = load(sch, text).unwrap_err();
        let LoadError::Store { line, error } = err else { panic!("{err:?}") };
        assert!(line == 5 || line == 6, "line {line} is not one of the two links");
        let from = Oid::from_raw(3);
        assert_eq!(error, StoreError::CardinalityViolation { assoc: major, from });
        // The same link twice is one link.
        let twice = text.replace("Major 3 6", "Major 3 5");
        assert_eq!(load(schema(), &twice).unwrap().link_count(major), 1);
    }

    #[test]
    fn objects_out_of_oid_order_load_into_ascending_extents() {
        let text = "dooddump 1\nO 5 Person\nO 2 Person\nO 9 Person\nO 3 Person\n\
                    V 2 name s:b\nV 5 name s:a\n";
        let mut db = load(schema(), text).unwrap();
        let person = db.schema().class_by_name("Person").unwrap();
        assert_eq!(db.extent(person).collect::<Vec<_>>(), [2, 3, 5, 9].map(Oid::from_raw));
        assert_eq!(db.attr(Oid::from_raw(2), "name").unwrap(), Value::str("b"));
        assert_eq!(db.attr(Oid::from_raw(3), "name").unwrap(), Value::Null);
        assert_eq!(db.attr(Oid::from_raw(5), "name").unwrap(), Value::str("a"));
        // OIDs resume past the greatest, not past the last line's.
        assert_eq!(db.new_object(person), Ok(Oid::from_raw(10)));
        assert_eq!(
            dump(&db),
            "dooddump 1\nO 2 Person\nO 3 Person\nO 5 Person\nO 9 Person\nO 10 Person\n\
             V 2 name s:b\nV 5 name s:a\n"
        );
    }

    /// Persons 1 and 2, their Student perspectives 3 and 4, Depts 5 and 6.
    const TWO_STUDENTS: &str =
        "dooddump 1\nO 1 Person\nO 2 Person\nO 3 Student\nO 4 Student\nO 5 Dept\nO 6 Dept\n\
         V 1 name s:ann\n";

    #[test]
    fn links_of_two_associations_may_interleave() {
        let text = format!(
            "{TWO_STUDENTS}L Student/Major 4 6\nL Person/G_Student 1 3\n\
             L Student/Major 3 5\nL Person/G_Student 2 4\n"
        );
        let db = load(schema(), &text).unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let major = db.schema().own_link_by_name(student, "Major").unwrap();
        let g = db.schema().own_link_by_name(student, "G_Student").unwrap();
        let pairs = |v: [(u64, u64); 2]| v.map(|(a, b)| (Oid::from_raw(a), Oid::from_raw(b)));
        assert_eq!(db.links(major), pairs([(3, 5), (4, 6)]));
        assert_eq!(db.links(g), pairs([(1, 3), (2, 4)]));
        assert_eq!(db.neighbors(major, Oid::from_raw(5), false), [Oid::from_raw(3)]);
        // The Student perspective reads its Person's name over the G link.
        assert_eq!(db.attr(Oid::from_raw(3), "name").unwrap(), Value::str("ann"));
        // The dump lists each association's links together, in order.
        let again = format!(
            "{TWO_STUDENTS}L Person/G_Student 1 3\nL Person/G_Student 2 4\n\
             L Student/Major 3 5\nL Student/Major 4 6\n"
        );
        assert_eq!(dump(&db), again);
    }

    #[test]
    fn duplicated_links_load_once() {
        let text = format!(
            "{TWO_STUDENTS}L Student/Major 3 5\nL Person/G_Student 1 3\n\
             L Student/Major 3 5\nL Student/Major 3 5\nL Person/G_Student 1 3\n"
        );
        let db = load(schema(), &text).unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let major = db.schema().own_link_by_name(student, "Major").unwrap();
        let g = db.schema().own_link_by_name(student, "G_Student").unwrap();
        assert_eq!((db.link_count(major), db.link_count(g)), (1, 1));
        assert_eq!(db.neighbors(major, Oid::from_raw(3), true), [Oid::from_raw(5)]);
        assert_eq!(db.neighbors(major, Oid::from_raw(5), false), [Oid::from_raw(3)]);
        assert_eq!(
            dump(&db),
            format!("{TWO_STUDENTS}L Person/G_Student 1 3\nL Student/Major 3 5\n")
        );
    }

    #[test]
    fn string_attributes_round_trip_with_and_without_escapes() {
        let names = [
            "plain",
            "",
            "back\\slash",
            "line\nbreak",
            "carriage\rreturn",
            "\\n is not a newline",
            "trailing\\",
            "all three: \\ \n \r\n\\\\",
        ];
        let mut db = Database::new(schema());
        let person = db.schema().class_by_name("Person").unwrap();
        let oids: Vec<Oid> = names
            .iter()
            .map(|n| {
                let o = db.new_object(person).unwrap();
                db.set_attr(o, "name", Value::str(n)).unwrap();
                o
            })
            .collect();
        let text = dump(&db);
        let loaded = load(schema(), &text).unwrap();
        for (o, n) in oids.iter().zip(names) {
            assert_eq!(loaded.attr(*o, "name").unwrap(), Value::str(n), "{n:?}");
        }
        assert_eq!(dump(&loaded), text);
        // Escaped text decodes; an escape-free value is taken as it stands.
        let loaded = load(schema(), "dooddump 1\nO 1 Person\nV 1 name s:a\\\\b\\nc\\rd").unwrap();
        assert_eq!(loaded.attr(Oid::from_raw(1), "name").unwrap(), Value::str("a\\b\nc\rd"));
        let loaded = load(schema(), "dooddump 1\nO 1 Person\nV 1 name s:a b").unwrap();
        assert_eq!(loaded.attr(Oid::from_raw(1), "name").unwrap(), Value::str("a b"));
    }

    #[test]
    fn full_save_load_round_trip() {
        let db = populated();
        let doc = save_full(&db);
        let loaded = load_full(&doc).unwrap();
        assert_eq!(save_full(&loaded), doc);
        assert_eq!(loaded.object_count(), db.object_count());
        // Schema survived: same classes and associations.
        assert_eq!(loaded.schema().class_count(), db.schema().class_count());
        assert_eq!(loaded.schema().assoc_count(), db.schema().assoc_count());
        // Garbage rejected.
        assert!(load_full("nope").is_err());
        assert!(load_full("doodfile 1\neclass A\n").is_err());
    }

    #[test]
    fn value_encoding_round_trips() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Real(0.1),
            Value::Real(-1e300),
            Value::Bool(true),
            Value::str("a b\\c\nd'e"),
            Value::str(""),
        ] {
            let enc = encode_value(&v);
            assert!(!enc.contains('\n'));
            assert_eq!(decode_value(&enc).unwrap(), v, "{enc}");
        }
    }
}
