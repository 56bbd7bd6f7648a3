//! Object records, per-class attribute layouts and attribute rows.
//!
//! Each object belongs to exactly one class and stores values for the
//! descriptive attributes declared *directly* on that class; inherited
//! attributes live on the superclass **perspective object** reachable over
//! the instance-level generalization (identity) links — "the two instances
//! are actually two different perspectives of the same real-world object"
//! (paper §3.2).

use dood_core::ids::{AssocId, ClassId};
use dood_core::schema::Schema;
use dood_core::value::Value;

/// The stored state of one object: its class, and the row of its class's
/// attribute rows that holds its direct attribute values.
#[derive(Debug, Clone, Copy)]
pub struct ObjRecord {
    /// The class this object is a direct instance of.
    pub class: ClassId,
    /// Its row of direct attribute values; 0 for a class without any.
    pub row: usize,
}

/// Precomputed positional layout of each class's direct attributes.
#[derive(Debug, Clone)]
pub struct AttrLayouts {
    /// Per class: the attribute associations in slot order.
    per_class: Vec<Vec<AssocId>>,
    /// Per association: the class declaring it as an attribute, and its slot
    /// there (an attribute is declared on one class only).
    slot_of: Vec<Option<(ClassId, usize)>>,
}

impl AttrLayouts {
    /// Build layouts for all classes of a schema.
    pub fn new(schema: &Schema) -> Self {
        let mut per_class = Vec::with_capacity(schema.class_count());
        let mut slot_of = vec![None; schema.assoc_count()];
        for c in schema.classes() {
            let attrs = schema.own_attrs(c.id);
            for (i, &a) in attrs.iter().enumerate() {
                slot_of[a.index()] = Some((c.id, i));
            }
            per_class.push(attrs);
        }
        AttrLayouts { per_class, slot_of }
    }

    /// The attributes of `class`, in slot order.
    pub fn attrs_of(&self, class: ClassId) -> &[AssocId] {
        &self.per_class[class.index()]
    }

    /// The slot of attribute `attr` on `class`.
    pub fn slot(&self, class: ClassId, attr: AssocId) -> Option<usize> {
        match self.slot_of.get(attr.index()) {
            Some(&Some((owner, slot))) if owner == class => Some(slot),
            _ => None,
        }
    }
}

/// The direct attribute values of one class's objects in one vector, a row
/// of `stride` values (the class's own attribute count) per object. A
/// deleted object's row is reset to Null and kept for the class's next
/// object, so objects cost no allocation of their own.
#[derive(Debug)]
pub(crate) struct ClassRows {
    stride: usize,
    values: Vec<Value>,
    free: Vec<usize>,
}

impl ClassRows {
    /// No rows, each to be `stride` values wide.
    pub(crate) fn new(stride: usize) -> Self {
        ClassRows { stride, values: Vec::new(), free: Vec::new() }
    }

    /// A row of Nulls for a new object: a freed one if there is one.
    pub(crate) fn alloc(&mut self) -> usize {
        if self.stride == 0 {
            return 0;
        }
        if let Some(row) = self.free.pop() {
            return row;
        }
        let row = self.values.len() / self.stride;
        self.values.resize(self.values.len() + self.stride, Value::Null);
        row
    }

    /// Reset `row` to Null and keep it for the next [`alloc`](Self::alloc).
    pub(crate) fn release(&mut self, row: usize) {
        if self.stride > 0 {
            self.row_mut(row).fill(Value::Null);
            self.free.push(row);
        }
    }

    /// The values of `row`, in slot order.
    pub(crate) fn row(&self, row: usize) -> &[Value] {
        &self.values[row * self.stride..][..self.stride]
    }

    /// The values of `row`, mutably.
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [Value] {
        &mut self.values[row * self.stride..][..self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::DType;

    #[test]
    fn layouts_cover_direct_attrs_only() {
        let mut b = SchemaBuilder::new();
        b.e_class("Person");
        b.e_class("Teacher");
        b.d_class("SS", DType::Str);
        b.d_class("Degree", DType::Str);
        b.attr("Person", "SS");
        b.attr("Teacher", "Degree");
        b.generalize("Person", "Teacher");
        let s = b.build().unwrap();
        let layouts = AttrLayouts::new(&s);

        let person = s.class_by_name("Person").unwrap();
        let teacher = s.class_by_name("Teacher").unwrap();
        assert_eq!(layouts.attrs_of(person).len(), 1);
        assert_eq!(layouts.attrs_of(teacher).len(), 1); // Degree only: SS is inherited
        let ss = s.own_attr_by_name(person, "SS").unwrap();
        assert_eq!(layouts.slot(person, ss), Some(0));
        assert_eq!(layouts.slot(teacher, ss), None);
        let degree = s.own_attr_by_name(teacher, "Degree").unwrap();
        assert_eq!(layouts.slot(teacher, degree), Some(0));
        assert_eq!(layouts.slot(person, degree), None);
    }
}
