//! The OQL query engine: parse → resolve → evaluate → filter → select →
//! operate.
//!
//! Operations are pluggable: `display` and `print` (tabular output, paper
//! §3.2) and `count` are built in; user-defined operations — the paper's
//! behavioural dimension ("a user-defined operation, e.g. Rotate,
//! Order_part or Hire_employee") — are registered as callbacks over the
//! result table.

use crate::ast::Query;
use crate::error::QueryError;
use crate::eval::Evaluator;
use crate::parser::Parser;
use crate::resolve::resolve_context;
use crate::table::{build_table, Table};
use crate::wherec::apply_where;
use dood_core::fxhash::FxHashMap;
use dood_core::obs;
use dood_core::obs::profile::Profile;
use dood_core::subdb::{Subdatabase, SubdbRegistry};
use dood_store::Database;

/// A user-definable operation over a query result table.
pub type OpFn = Box<dyn Fn(&Table) -> String + Send + Sync>;

/// The result of running a query.
#[derive(Debug)]
pub struct QueryOutput {
    /// The Context subdatabase after WHERE filtering.
    pub subdb: Subdatabase,
    /// The table produced by the SELECT subclause.
    pub table: Table,
    /// `(operation, output)` for each operation in the Operation clause.
    pub op_results: Vec<(String, String)>,
}

/// The OQL engine: an operation registry plus the query pipeline.
pub struct Oql {
    ops: FxHashMap<String, OpFn>,
}

impl Default for Oql {
    fn default() -> Self {
        Self::new()
    }
}

impl Oql {
    /// An engine with the built-in operations `display`, `print`, `count`.
    pub fn new() -> Self {
        let mut ops: FxHashMap<String, OpFn> = FxHashMap::default();
        ops.insert("display".into(), Box::new(Table::render));
        ops.insert("print".into(), Box::new(Table::render));
        ops.insert("count".into(), Box::new(|t: &Table| t.len().to_string()));
        Oql { ops }
    }

    /// Register a user-defined operation.
    pub fn register_op(&mut self, name: impl Into<String>, f: OpFn) {
        self.ops.insert(name.into(), f);
    }

    /// Parse and run a query block.
    pub fn query(
        &self,
        db: &Database,
        registry: &SubdbRegistry,
        src: &str,
    ) -> Result<QueryOutput, QueryError> {
        let q = Parser::parse_query(src)?;
        self.run(db, registry, &q)
    }

    /// Run a parsed query block.
    pub fn run(
        &self,
        db: &Database,
        registry: &SubdbRegistry,
        q: &Query,
    ) -> Result<QueryOutput, QueryError> {
        let mut sp = obs::trace::span("oql.query");
        let _acct = obs::account::begin("query", || context_label(&q.context));
        let subdb = eval_context(&q.context, &q.where_, db, registry, "Context")?;
        let table = build_table(&subdb, &q.select, db)?;
        let mut op_results = Vec::with_capacity(q.ops.len());
        for op in &q.ops {
            let f = self
                .ops
                .get(op.as_str())
                .ok_or_else(|| QueryError::UnknownOperation(op.clone()))?;
            op_results.push((op.clone(), f(&table)));
        }
        sp.attr("rows", table.len() as i64);
        Ok(QueryOutput { subdb, table, op_results })
    }

    /// Run a parsed query block under span capture, returning both the
    /// output and its EXPLAIN ANALYZE [`Profile`] tree.
    pub fn run_profiled(
        &self,
        db: &Database,
        registry: &SubdbRegistry,
        q: &Query,
    ) -> Result<(QueryOutput, Profile), QueryError> {
        let (res, spans) = obs::trace::capture(|| self.run(db, registry, q));
        Ok((res?, Profile::single(&spans)))
    }
}

/// Evaluate a context expression plus WHERE conditions into a named
/// subdatabase. This is the shared entry point for OQL queries and for the
/// IF clause of deductive rules.
pub fn eval_context(
    context: &crate::ast::ContextExpr,
    where_: &[crate::ast::WhereCond],
    db: &Database,
    registry: &SubdbRegistry,
    name: &str,
) -> Result<Subdatabase, QueryError> {
    let resolved = resolve_context(context, db.schema(), registry)?;
    let ev = Evaluator::new(&resolved, db, registry)?;
    if let Some(a) = obs::account::active() {
        a.set_plan(ev.plan_handle().describe());
    }
    let mut sd = ev.eval(name);
    apply_where(&mut sd, where_, db)?;
    Ok(sd)
}

/// A compact one-line label for a context expression, used as the
/// accounting label in query reports and the slow-query log.
pub fn context_label(context: &crate::ast::ContextExpr) -> String {
    use crate::ast::{Item, Seq};
    fn seq(s: &Seq, out: &mut String) {
        item(&s.first, out);
        for (op, it) in &s.rest {
            out.push(' ');
            out.push_str(&op.to_string());
            out.push(' ');
            item(it, out);
        }
    }
    fn item(i: &Item, out: &mut String) {
        match i {
            Item::Class { class, .. } => out.push_str(&class.to_string()),
            Item::Group(g) => {
                out.push('{');
                seq(g, out);
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    seq(&context.seq, &mut out);
    if let Some(c) = &context.closure {
        match c.iterations {
            Some(n) => out.push_str(&format!(" ^{n}")),
            None => out.push_str(" ^*"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::{DType, Value};

    fn setup() -> Database {
        let mut b = SchemaBuilder::new();
        b.e_class("Teacher");
        b.e_class("Section");
        b.d_class("name", DType::Str);
        b.d_class("section#", DType::Int);
        b.attr("Teacher", "name");
        b.attr_named("Section", "section#", "section#");
        b.aggregate_named("Teacher", "Section", "Teaches");
        let mut db = Database::new(b.build().unwrap());
        let teacher = db.schema().class_by_name("Teacher").unwrap();
        let section = db.schema().class_by_name("Section").unwrap();
        let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
        for (tn, sn) in [("smith", 101), ("jones", 102)] {
            let t = db.new_object(teacher).unwrap();
            db.set_attr(t, "name", Value::str(tn)).unwrap();
            let s = db.new_object(section).unwrap();
            db.set_attr(s, "section#", Value::Int(sn)).unwrap();
            db.associate(teaches, t, s).unwrap();
        }
        // A teacher with no section: dropped by `*`.
        let t = db.new_object(teacher).unwrap();
        db.set_attr(t, "name", Value::str("idle")).unwrap();
        db
    }

    #[test]
    fn query_3_1_shape() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let out = Oql::new()
            .query(&db, &reg, "context Teacher * Section select name, section# display")
            .unwrap();
        assert_eq!(out.subdb.len(), 2);
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.op_results.len(), 1);
        assert!(out.op_results[0].1.contains("smith"));
        assert!(!out.op_results[0].1.contains("idle"));
    }

    #[test]
    fn count_operation() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let out = Oql::new()
            .query(&db, &reg, "context Teacher * Section select name count")
            .unwrap();
        assert_eq!(out.op_results[0].1, "2");
    }

    #[test]
    fn user_defined_operation() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let mut oql = Oql::new();
        oql.register_op("shout", Box::new(|t: &Table| format!("ROWS={}", t.len())));
        let out = oql
            .query(&db, &reg, "context Teacher * Section select name shout")
            .unwrap();
        assert_eq!(out.op_results[0].1, "ROWS=2");
    }

    #[test]
    fn unknown_operation_rejected() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let r = Oql::new().query(&db, &reg, "context Teacher * Section select name rotate");
        assert!(matches!(r, Err(QueryError::UnknownOperation(_))));
    }

    #[test]
    fn where_filters_through_pipeline() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let out = Oql::new()
            .query(
                &db,
                &reg,
                "context Teacher * Section where Section.section# > 101 select name display",
            )
            .unwrap();
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.table.rows.row(0)[0], Value::str("jones"));
    }
}
