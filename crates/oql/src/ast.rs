//! Abstract syntax of OQL queries.
//!
//! The concrete syntax follows the paper (§3.2, §5) with one textual
//! substitution: the paper's *superscript* iteration sign on a cyclic
//! association pattern expression is written `^*` (traverse until Null) or
//! `^N` (N iterations), since plain text has no superscripts.

use std::fmt;

/// A possibly-qualified class reference: `Course`, `Suggest_offer:Course`,
/// or an auto-alias such as `Course_1` (paper §5.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClassRef {
    /// Qualifying subdatabase, if any (`Suggest_offer:Course`).
    pub subdb: Option<String>,
    /// Class (or alias) name.
    pub name: String,
}

impl ClassRef {
    /// Unqualified reference.
    pub fn base(name: impl Into<String>) -> Self {
        ClassRef { subdb: None, name: name.into() }
    }

    /// Qualified reference.
    pub fn qualified(subdb: impl Into<String>, name: impl Into<String>) -> Self {
        ClassRef { subdb: Some(subdb.into()), name: name.into() }
    }

    /// Split an auto-alias name into `(family, level)`: `Grad_2` →
    /// `("Grad", 2)`; names without a `_<int>` suffix are level 0.
    pub fn split_alias(name: &str) -> (&str, u32) {
        if let Some(pos) = name.rfind('_') {
            if let Ok(level) = name[pos + 1..].parse::<u32>() {
                return (&name[..pos], level);
            }
        }
        (name, 0)
    }
}

impl fmt::Display for ClassRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.subdb {
            Some(s) => write!(f, "{s}:{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an `Ordering` produced by `Value::compare`.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Neq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A literal value in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
    /// String.
    Str(String),
}

impl Literal {
    /// Convert to a runtime value.
    pub fn to_value(&self) -> dood_core::value::Value {
        match self {
            Literal::Int(i) => dood_core::value::Value::Int(*i),
            Literal::Real(r) => dood_core::value::Value::Real(*r),
            Literal::Str(s) => dood_core::value::Value::str(s),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Real(r) => write!(f, "{r}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// An intra-class condition (paper §3.2: "expressed in the form of
/// predicates that involve the descriptive attributes of that class").
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `attr op literal`.
    Cmp {
        /// Attribute name.
        attr: String,
        /// Operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: Literal,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp { attr, op, value } => write!(f, "{attr} {op} {value}"),
            Pred::And(a, b) => write!(f, "({a} and {b})"),
            Pred::Or(a, b) => write!(f, "({a} or {b})"),
            Pred::Not(p) => write!(f, "(not {p})"),
        }
    }
}

/// The two association pattern operators (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatOp {
    /// `*` — the association operator.
    Assoc,
    /// `!` — the non-association operator.
    NonAssoc,
}

impl fmt::Display for PatOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PatOp::Assoc => "*",
            PatOp::NonAssoc => "!",
        })
    }
}

/// One element of an association pattern expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A class reference with optional intra-class condition.
    Class {
        /// The class.
        class: ClassRef,
        /// Optional intra-class condition.
        cond: Option<Pred>,
    },
    /// A braced subexpression `{ … }`: its span's patterns are retained even
    /// when they do not extend to the enclosing expression (paper §5.1).
    Group(Seq),
}

/// A linear sequence: `item (op item)*`.
#[derive(Debug, Clone, PartialEq)]
pub struct Seq {
    /// The first element.
    pub first: Box<Item>,
    /// The following `(operator, element)` pairs.
    pub rest: Vec<(PatOp, Item)>,
}

impl Seq {
    /// Total number of class occurrences (recursively).
    pub fn class_count(&self) -> usize {
        fn item(i: &Item) -> usize {
            match i {
                Item::Class { .. } => 1,
                Item::Group(s) => s.class_count(),
            }
        }
        item(&self.first) + self.rest.iter().map(|(_, i)| item(i)).sum::<usize>()
    }

    /// Call `f` on every class occurrence, in order, groups included.
    pub fn for_each_class<'a>(&'a self, f: &mut impl FnMut(&'a ClassRef)) {
        for item in std::iter::once(&*self.first).chain(self.rest.iter().map(|(_, i)| i)) {
            match item {
                Item::Class { class, .. } => f(class),
                Item::Group(g) => g.for_each_class(f),
            }
        }
    }
}

/// The iteration marker on a cyclic expression (paper §5.2): `^*` performs
/// the transitive closure ("the cycle is traversed until Null values are
/// obtained"), `^N` stops "at the Nth iteration".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosureSpec {
    /// Maximum iterations; `None` = until Null (full transitive closure).
    pub iterations: Option<u32>,
}

/// A Context clause: an association pattern expression, optionally cyclic.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextExpr {
    /// The pattern expression.
    pub seq: Seq,
    /// Optional closure marker.
    pub closure: Option<ClosureSpec>,
}

/// Aggregation functions usable in WHERE conditions (paper R2 uses COUNT;
/// "comparison conditions that involve aggregation functions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Count of distinct objects (or non-null attribute values).
    Count,
    /// Sum of an attribute.
    Sum,
    /// Mean of an attribute.
    Avg,
    /// Minimum of an attribute.
    Min,
    /// Maximum of an attribute.
    Max,
}

impl AggFunc {
    /// Parse a (case-insensitive) function name.
    pub fn from_name(s: &str) -> Option<AggFunc> {
        [
            ("count", AggFunc::Count),
            ("sum", AggFunc::Sum),
            ("avg", AggFunc::Avg),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
        ]
        .into_iter()
        .find(|(name, _)| s.eq_ignore_ascii_case(name))
        .map(|(_, f)| f)
    }
}

/// A WHERE-subclause condition (paper §3.2: inter-class comparisons and
/// aggregation conditions).
#[derive(Debug, Clone, PartialEq)]
pub enum WhereCond {
    /// `AGG(Class[.attr] [by Class]) op literal` — e.g. the paper's
    /// `COUNT(Student by Course) > 39` (R2).
    Agg {
        /// The aggregation function.
        func: AggFunc,
        /// The aggregated class.
        target: ClassRef,
        /// Attribute aggregated (required for SUM/AVG/MIN/MAX; COUNT counts
        /// objects when absent).
        attr: Option<String>,
        /// Group-by class; absent = aggregate over the whole pattern set.
        by: Option<ClassRef>,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold literal.
        value: Literal,
    },
    /// `Class.attr op Class.attr` or `Class.attr op literal`.
    Cmp {
        /// Left operand.
        left: (ClassRef, String),
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: CmpRhs,
    },
}

impl WhereCond {
    /// The classes the condition names.
    pub fn classes(&self) -> impl Iterator<Item = &ClassRef> {
        let (first, second) = match self {
            WhereCond::Agg { target, by, .. } => (target, by.as_ref()),
            WhereCond::Cmp { left, right: CmpRhs::Attr(c, _), .. } => (&left.0, Some(c)),
            WhereCond::Cmp { left, right: CmpRhs::Lit(_), .. } => (&left.0, None),
        };
        std::iter::once(first).chain(second)
    }
}

/// Right-hand side of an inter-class comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CmpRhs {
    /// Another class's attribute.
    Attr(ClassRef, String),
    /// A literal.
    Lit(Literal),
}

/// A Select-subclause item: "identifies the descriptive attributes and/or
/// classes in the Context subdatabase that are to be operated on".
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A bare attribute name; attributed to the unique slot carrying it.
    Attr(String),
    /// `Class[attr, …]` — qualified attributes (paper Query 4.1: `TA[name]`).
    ClassAttrs(ClassRef, Vec<String>),
    /// A whole class (its OID column).
    Class(ClassRef),
}

/// A complete OQL query block: Context clause (with optional Where and
/// Select subclauses) and an Operation clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The context expression.
    pub context: ContextExpr,
    /// WHERE conditions (conjunctive).
    pub where_: Vec<WhereCond>,
    /// SELECT items (empty = all classes and attributes).
    pub select: Vec<SelectItem>,
    /// Operation names (`display`, `print`, or user-registered).
    pub ops: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_splitting() {
        assert_eq!(ClassRef::split_alias("Grad_2"), ("Grad", 2));
        assert_eq!(ClassRef::split_alias("Grad"), ("Grad", 0));
        assert_eq!(ClassRef::split_alias("Teacher_course"), ("Teacher_course", 0));
        assert_eq!(ClassRef::split_alias("A_1_2"), ("A_1", 2));
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.test(Equal));
        assert!(!CmpOp::Eq.test(Less));
        assert!(CmpOp::Le.test(Equal));
        assert!(CmpOp::Le.test(Less));
        assert!(CmpOp::Neq.test(Greater));
        assert!(CmpOp::Ge.test(Equal));
        assert!(CmpOp::Gt.test(Greater));
        assert!(CmpOp::Lt.test(Less));
    }

    #[test]
    fn display_forms() {
        let c = ClassRef::qualified("May_teach", "TA");
        assert_eq!(c.to_string(), "May_teach:TA");
        let p = Pred::And(
            Box::new(Pred::Cmp { attr: "c#".into(), op: CmpOp::Ge, value: Literal::Int(6000) }),
            Box::new(Pred::Cmp { attr: "c#".into(), op: CmpOp::Lt, value: Literal::Int(7000) }),
        );
        assert_eq!(p.to_string(), "(c# >= 6000 and c# < 7000)");
    }

    #[test]
    fn class_count_recursive() {
        let seq = Seq {
            first: Box::new(Item::Class { class: ClassRef::base("A"), cond: None }),
            rest: vec![(
                PatOp::Assoc,
                Item::Group(Seq {
                    first: Box::new(Item::Class { class: ClassRef::base("B"), cond: None }),
                    rest: vec![(
                        PatOp::Assoc,
                        Item::Class { class: ClassRef::base("C"), cond: None },
                    )],
                }),
            )],
        };
        assert_eq!(seq.class_count(), 3);
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
