//! The object store: the extensional half of the "original database" the
//! paper's rules and queries operate over.
//!
//! Responsibilities:
//! * per-class extents of OID-identified objects;
//! * descriptive attribute storage with optional ordered indexes;
//! * association links in bidirectional indexes, with cardinality and
//!   endpoint checking;
//! * instance-level **perspective objects**: a generalization link is an
//!   identity link between two perspectives of one real-world object
//!   (paper §3.2), created via [`Database::specialize`];
//! * instance-level traversal of [`ResolvedEdge`]s — the extensional
//!   counterpart of schema-level edge resolution;
//! * the update-event log consumed by forward chaining (paper §6).

use crate::assoc_index::AssocIndex;
use crate::attr_index::AttrIndex;
use crate::events::{EventLog, UpdateEvent};
use crate::object::{AttrLayouts, ClassRows, ObjRecord};
use dood_core::error::StoreError;
use dood_core::fxhash::FxHashMap;
use dood_core::ids::{AssocId, ClassId, Oid, OidGen};
use dood_core::schema::{Cardinality, ResolvedAttr, ResolvedEdge, Schema};
use dood_core::value::Value;
use std::sync::Arc;

/// The extensional database over a fixed schema.
#[derive(Debug)]
pub struct Database {
    schema: Arc<Schema>,
    layouts: AttrLayouts,
    oidgen: OidGen,
    objects: FxHashMap<Oid, ObjRecord>,
    /// Per class: its direct instances, ascending.
    extents: Vec<Vec<Oid>>,
    /// Per class: its objects' direct attribute values.
    rows: Vec<ClassRows>,
    assoc_ix: Vec<AssocIndex>,
    attr_ix: FxHashMap<(ClassId, AssocId), AttrIndex>,
    log: EventLog,
    /// Generalization association ids, precomputed from the (immutable)
    /// schema: the perspective-closure traversal walks exactly these.
    gen_assocs: Vec<AssocId>,
}

impl Database {
    /// A new, empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_arc(Arc::new(schema))
    }

    /// A new, empty database over a shared schema.
    pub fn with_arc(schema: Arc<Schema>) -> Self {
        let layouts = AttrLayouts::new(&schema);
        let extents = vec![Vec::new(); schema.class_count()];
        let rows = schema
            .classes()
            .iter()
            .map(|c| ClassRows::new(layouts.attrs_of(c.id).len()))
            .collect();
        let assoc_ix = vec![AssocIndex::new(); schema.assoc_count()];
        let gen_assocs = schema
            .assocs()
            .iter()
            .filter(|a| a.is_generalization())
            .map(|a| a.id)
            .collect();
        Database {
            schema,
            layouts,
            oidgen: OidGen::new(),
            objects: FxHashMap::default(),
            extents,
            rows,
            assoc_ix,
            attr_ix: FxHashMap::default(),
            log: EventLog::new(),
            gen_assocs,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared schema handle.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The update-event log.
    pub fn events(&self) -> &EventLog {
        &self.log
    }

    /// Mutable access to the update-event log, for consumer registration
    /// ([`EventLog::subscribe`]), acknowledgement, and compaction.
    pub fn events_mut(&mut self) -> &mut EventLog {
        &mut self.log
    }

    /// Current update watermark (paper §6: used to decide staleness of
    /// derived subdatabases).
    pub fn seq(&self) -> u64 {
        self.log.seq()
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Create an object in an E-class.
    pub fn new_object(&mut self, class: ClassId) -> Result<Oid, StoreError> {
        if !self.schema.class(class).is_entity() {
            return Err(StoreError::NotEntityClass(class));
        }
        let oid = self.oidgen.next().ok_or(StoreError::OidsExhausted)?;
        let row = self.rows[class.index()].alloc();
        self.objects.insert(oid, ObjRecord { class, row });
        // OIDs are issued ascending, past every loaded one.
        self.extents[class.index()].push(oid);
        self.log.push(UpdateEvent::ObjectCreated { class, oid });
        Ok(oid)
    }

    /// The class of a live object.
    pub fn class_of(&self, oid: Oid) -> Result<ClassId, StoreError> {
        self.objects
            .get(&oid)
            .map(|r| r.class)
            .ok_or(StoreError::NoSuchObject(oid))
    }

    /// Whether the OID denotes a live object.
    pub fn is_live(&self, oid: Oid) -> bool {
        self.objects.contains_key(&oid)
    }

    /// The extent of a class (its direct instances), in OID order.
    pub fn extent(&self, class: ClassId) -> impl Iterator<Item = Oid> + '_ {
        self.extents[class.index()].iter().copied()
    }

    /// Extent size.
    pub fn extent_size(&self, class: ClassId) -> usize {
        self.extents[class.index()].len()
    }

    /// Total number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Delete an object: detaches all its links, cascades to its subclass
    /// perspective objects (a TA perspective cannot outlive its Grad
    /// perspective), and removes it from extent and indexes.
    pub fn delete_object(&mut self, oid: Oid) -> Result<(), StoreError> {
        let class = self.class_of(oid)?;
        // Cascade to subclass perspectives first.
        for sub in self.schema.direct_subs(class).to_vec() {
            if let Some(g) = self.schema.g_link(class, sub) {
                let children: Vec<Oid> = self.assoc_ix[g.index()].targets(oid).to_vec();
                for child in children {
                    self.delete_object(child)?;
                }
            }
        }
        // Detach remaining links (emitting dissociation events).
        for a in 0..self.assoc_ix.len() {
            let removed = self.assoc_ix[a].detach(oid);
            for (from, to) in removed {
                self.log.push(UpdateEvent::Dissociated {
                    assoc: AssocId(a as u32),
                    from,
                    to,
                });
            }
        }
        // Drop attribute index entries, then the row.
        let rec = self.objects.remove(&oid).expect("checked live");
        let rows = &mut self.rows[class.index()];
        for (slot, &attr) in self.layouts.attrs_of(class).iter().enumerate() {
            if let Some(ix) = self.attr_ix.get_mut(&(class, attr)) {
                ix.remove(&rows.row(rec.row)[slot], oid);
            }
        }
        rows.release(rec.row);
        let extent = &mut self.extents[class.index()];
        if let Ok(at) = extent.binary_search(&oid) {
            extent.remove(at);
        }
        self.log.push(UpdateEvent::ObjectDeleted { class, oid });
        Ok(())
    }

    /// Restore an object under a specific OID (dump loading). No event is
    /// logged: a freshly loaded database starts with an empty update log.
    pub(crate) fn restore_object(&mut self, oid: Oid, class: ClassId) -> Result<(), StoreError> {
        if !self.schema.class(class).is_entity() {
            return Err(StoreError::NotEntityClass(class));
        }
        if self.objects.contains_key(&oid) {
            return Err(StoreError::DuplicateSpecialization { oid, subclass: class });
        }
        let row = self.rows[class.index()].alloc();
        self.objects.insert(oid, ObjRecord { class, row });
        // A dump lists a class's objects ascending; a hand-written one may not.
        let extent = &mut self.extents[class.index()];
        extent.insert(extent.partition_point(|&o| o < oid), oid);
        Ok(())
    }

    /// Make room for `n` more objects (dump loading).
    pub(crate) fn reserve_objects(&mut self, n: usize) {
        self.objects.reserve(n);
    }

    /// Resume OID generation after `watermark` (dump loading).
    pub(crate) fn resume_oids_after(&mut self, watermark: Oid) {
        self.oidgen = OidGen::starting_after(watermark);
    }

    /// Build every association's index from the links a load staged, each
    /// in bulk and without event logging ([`check_link`](Self::check_link)
    /// vetted the endpoints line by line). The links are sorted once, and a
    /// single-valued association that gives one source two targets is
    /// refused, with the tag (a load's line number) of one of the two
    /// links. Replaces the indexes of the staged associations, which a
    /// fresh store holds empty.
    pub(crate) fn restore_links(
        &mut self,
        mut links: Vec<(AssocId, Oid, Oid, u32)>,
    ) -> Result<(), (u32, StoreError)> {
        links.sort_unstable_by_key(|&(assoc, from, to, _)| (assoc, from, to));
        let mut pairs = Vec::new();
        for run in links.chunk_by(|a, b| a.0 == b.0) {
            let assoc = run[0].0;
            if self.schema.assoc(assoc).cardinality == Cardinality::Single {
                if let Some(w) = run.windows(2).find(|w| w[0].1 == w[1].1 && w[0].2 != w[1].2) {
                    return Err((w[1].3, StoreError::CardinalityViolation { assoc, from: w[1].1 }));
                }
            }
            pairs.clear();
            pairs.extend(run.iter().map(|&(_, from, to, _)| (from, to)));
            self.assoc_ix[assoc.index()] = AssocIndex::from_pairs(&mut pairs);
        }
        Ok(())
    }

    /// Restore an attribute value without event logging (dump loading).
    pub(crate) fn restore_attr(&mut self, oid: Oid, attr: AssocId, value: Value)
        -> Result<(), StoreError>
    {
        let class = self.class_of(oid)?;
        let slot = self.layouts.slot(class, attr).ok_or_else(|| StoreError::NoSuchAttribute {
            class,
            attr: self.schema.assoc(attr).name.clone(),
        })?;
        let dtype = self.schema.attr_dtype(attr).ok_or(StoreError::TypeMismatch { class, attr })?;
        if !value.conforms_to(dtype) {
            return Err(StoreError::TypeMismatch { class, attr });
        }
        self.rows[class.index()].row_mut(self.objects[&oid].row)[slot] = value;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    /// Set a descriptive attribute by name. The attribute may be inherited:
    /// the write then lands on the owning superclass perspective object,
    /// which must exist.
    pub fn set_attr(&mut self, oid: Oid, name: &str, value: Value) -> Result<(), StoreError> {
        let class = self.class_of(oid)?;
        let resolved = self.schema.resolve_attr(class, name).map_err(|_| {
            StoreError::NoSuchAttribute { class, attr: name.to_string() }
        })?;
        let target = self.climb(oid, &resolved.up_chain).ok_or(StoreError::NoSuchObject(oid))?;
        self.set_attr_direct(target, resolved.attr, value)
    }

    /// Set a directly-declared attribute of `oid`'s own class.
    pub fn set_attr_direct(
        &mut self,
        oid: Oid,
        attr: AssocId,
        value: Value,
    ) -> Result<(), StoreError> {
        let class = self.class_of(oid)?;
        let slot = self
            .layouts
            .slot(class, attr)
            .ok_or_else(|| StoreError::NoSuchAttribute {
                class,
                attr: self.schema.assoc(attr).name.clone(),
            })?;
        let dtype = self
            .schema
            .attr_dtype(attr)
            .ok_or(StoreError::TypeMismatch { class, attr })?;
        if !value.conforms_to(dtype) {
            return Err(StoreError::TypeMismatch { class, attr });
        }
        let cell = &mut self.rows[class.index()].row_mut(self.objects[&oid].row)[slot];
        let old = std::mem::replace(cell, value.clone());
        if let Some(ix) = self.attr_ix.get_mut(&(class, attr)) {
            ix.remove(&old, oid);
            ix.insert(value.clone(), oid);
        }
        self.log.push(UpdateEvent::AttrSet { class, oid, attr, old, new: value });
        Ok(())
    }

    /// Read an attribute by name, resolving inheritance by climbing
    /// perspective links. Returns `Value::Null` when the owning perspective
    /// object is missing.
    pub fn attr(&self, oid: Oid, name: &str) -> Result<Value, StoreError> {
        let class = self.class_of(oid)?;
        let resolved = self.schema.resolve_attr(class, name).map_err(|_| {
            StoreError::NoSuchAttribute { class, attr: name.to_string() }
        })?;
        Ok(self.attr_resolved(oid, &resolved))
    }

    /// Read via a pre-resolved attribute.
    pub fn attr_resolved(&self, oid: Oid, resolved: &ResolvedAttr) -> Value {
        self.attr_ref(oid, resolved).cloned().unwrap_or(Value::Null)
    }

    /// Borrow the stored value of a pre-resolved attribute (hot path for
    /// query evaluation: no clone). `None` where `attr_resolved` reads
    /// `Value::Null` for want of an object: the owning perspective is
    /// missing, or the object does not carry the attribute. An unset
    /// attribute is `Some(&Value::Null)`.
    pub fn attr_ref(&self, oid: Oid, resolved: &ResolvedAttr) -> Option<&Value> {
        self.direct_ref(self.climb(oid, &resolved.up_chain)?, resolved.attr)
    }

    /// Read a directly-declared attribute; `Value::Null` if unset or if the
    /// object/attribute do not match.
    pub fn attr_direct(&self, oid: Oid, attr: AssocId) -> Value {
        self.direct_ref(oid, attr).cloned().unwrap_or(Value::Null)
    }

    fn direct_ref(&self, oid: Oid, attr: AssocId) -> Option<&Value> {
        let rec = self.objects.get(&oid)?;
        Some(&self.rows[rec.class.index()].row(rec.row)[self.layouts.slot(rec.class, attr)?])
    }

    // ------------------------------------------------------------------
    // Associations
    // ------------------------------------------------------------------

    fn check_endpoint(&self, oid: Oid, class: ClassId, assoc: AssocId, other: Oid)
        -> Result<(), StoreError>
    {
        let actual = self.class_of(oid)?;
        if actual != class {
            return Err(StoreError::AssocEndpointMismatch { assoc, from: oid, to: other });
        }
        Ok(())
    }

    /// Whether `assoc` may link `from` to `to`: both live, and of the
    /// association's endpoint classes exactly.
    pub(crate) fn check_link(&self, assoc: AssocId, from: Oid, to: Oid) -> Result<(), StoreError> {
        if assoc.index() >= self.assoc_ix.len() {
            return Err(StoreError::NoSuchAssoc(assoc));
        }
        let d = self.schema.assoc(assoc);
        self.check_endpoint(from, d.from, assoc, to)?;
        self.check_endpoint(to, d.to, assoc, from)
    }

    /// Associate two objects under an ordinary association. Endpoint classes
    /// must match the association exactly (inherited associations connect
    /// the superclass *perspective* objects).
    pub fn associate(&mut self, assoc: AssocId, from: Oid, to: Oid) -> Result<(), StoreError> {
        self.check_link(assoc, from, to)?;
        if self.schema.assoc(assoc).cardinality == Cardinality::Single
            && self.assoc_ix[assoc.index()].out_degree(from) > 0
            && !self.assoc_ix[assoc.index()].contains(from, to)
        {
            return Err(StoreError::CardinalityViolation { assoc, from });
        }
        if self.assoc_ix[assoc.index()].insert(from, to) {
            self.log.push(UpdateEvent::Associated { assoc, from, to });
        }
        Ok(())
    }

    /// Remove a link. No-op (Ok) if absent.
    pub fn dissociate(&mut self, assoc: AssocId, from: Oid, to: Oid) -> Result<(), StoreError> {
        if assoc.index() >= self.assoc_ix.len() {
            return Err(StoreError::NoSuchAssoc(assoc));
        }
        if self.assoc_ix[assoc.index()].remove(from, to) {
            self.log.push(UpdateEvent::Dissociated { assoc, from, to });
        }
        Ok(())
    }

    /// Neighbours of `oid` under `assoc` in the given direction, sorted.
    pub fn neighbors(&self, assoc: AssocId, oid: Oid, forward: bool) -> &[Oid] {
        self.assoc_ix[assoc.index()].neighbors(oid, forward)
    }

    /// Whether the link exists.
    pub fn linked(&self, assoc: AssocId, from: Oid, to: Oid) -> bool {
        self.assoc_ix[assoc.index()].contains(from, to)
    }

    /// Number of links under an association (a planner input).
    pub fn link_count(&self, assoc: AssocId) -> usize {
        self.assoc_ix[assoc.index()].len()
    }

    /// All links of an association, deterministically ordered.
    pub fn links(&self, assoc: AssocId) -> Vec<(Oid, Oid)> {
        self.assoc_ix[assoc.index()].iter().collect()
    }

    // ------------------------------------------------------------------
    // Perspectives (instance-level generalization)
    // ------------------------------------------------------------------

    /// Create the `subclass` perspective of the real-world object whose
    /// `parent`-class perspective is `parent`. `subclass` must be a direct
    /// subclass of `parent`'s class, and the perspective must not already
    /// exist. Returns the new perspective object's OID.
    pub fn specialize(&mut self, parent: Oid, subclass: ClassId) -> Result<Oid, StoreError> {
        let pclass = self.class_of(parent)?;
        let g = self
            .schema
            .g_link(pclass, subclass)
            .ok_or(StoreError::AssocEndpointMismatch { assoc: AssocId(0), from: parent, to: parent })?;
        if !self.assoc_ix[g.index()].targets(parent).is_empty() {
            return Err(StoreError::DuplicateSpecialization { oid: parent, subclass });
        }
        let child = self.new_object(subclass)?;
        self.assoc_ix[g.index()].insert(parent, child);
        self.log.push(UpdateEvent::Associated { assoc: g, from: parent, to: child });
        Ok(child)
    }

    /// Add a second (or further) identity link for multiple inheritance:
    /// `parent`'s class must be a direct superclass of `child`'s class.
    /// Used for diamonds — e.g. a TA perspective is linked from both its
    /// Grad and its Teacher perspectives.
    pub fn add_perspective(&mut self, parent: Oid, child: Oid) -> Result<(), StoreError> {
        let pclass = self.class_of(parent)?;
        let cclass = self.class_of(child)?;
        let g = self
            .schema
            .g_link(pclass, cclass)
            .ok_or(StoreError::AssocEndpointMismatch { assoc: AssocId(0), from: parent, to: child })?;
        if !self.assoc_ix[g.index()].targets(parent).is_empty()
            && !self.assoc_ix[g.index()].contains(parent, child)
        {
            return Err(StoreError::DuplicateSpecialization { oid: parent, subclass: cclass });
        }
        if self.assoc_ix[g.index()].insert(parent, child) {
            self.log.push(UpdateEvent::Associated { assoc: g, from: parent, to: child });
        }
        Ok(())
    }

    /// Climb a bottom-up chain of G links from a subclass perspective to the
    /// corresponding superclass perspective. `None` if a perspective is
    /// missing along the way.
    pub fn climb(&self, oid: Oid, chain: &[AssocId]) -> Option<Oid> {
        let mut cur = oid;
        for &g in chain {
            // The instance is the G link's `to` end; the parent is a source.
            cur = *self.assoc_ix[g.index()].sources(cur).first()?;
        }
        Some(cur)
    }

    /// Descend a top-down chain of G links from a superclass perspective to
    /// the subclass perspective (if the object has one).
    pub fn descend(&self, oid: Oid, chain: &[AssocId]) -> Option<Oid> {
        let mut cur = oid;
        for &g in chain {
            cur = *self.assoc_ix[g.index()].targets(cur).first()?;
        }
        Some(cur)
    }

    /// All perspective objects of the same real-world object as `oid`:
    /// the connected component of `oid` under the instance-level identity
    /// (generalization) links, including `oid` itself. Used by incremental
    /// rule maintenance: an update to any perspective may affect patterns
    /// observed through another.
    pub fn perspective_closure(&self, oid: Oid) -> Vec<Oid> {
        let mut seen = vec![oid];
        let mut frontier = vec![oid];
        while let Some(cur) = frontier.pop() {
            for &g in &self.gen_assocs {
                for &n in self.assoc_ix[g.index()]
                    .targets(cur)
                    .iter()
                    .chain(self.assoc_ix[g.index()].sources(cur).iter())
                {
                    if !seen.contains(&n) {
                        seen.push(n);
                        frontier.push(n);
                    }
                }
            }
        }
        seen
    }

    /// The perspective closure of a whole seed set in one breadth-first
    /// pass — one traversal and one result set for the batch, where
    /// per-seed [`perspective_closure`](Self::perspective_closure) calls
    /// would re-visit shared ancestors and re-allocate per seed. Deleted
    /// seeds have no closure but stay in the result, which is sorted and
    /// distinct. A `Vec` of seeds is collected in place.
    pub fn perspective_closure_set(&self, seeds: impl IntoIterator<Item = Oid>) -> Vec<Oid> {
        let mut out: Vec<Oid> = seeds.into_iter().collect();
        out.sort_unstable();
        out.dedup();
        if self.gen_assocs.is_empty() {
            return out;
        }
        let mut frontier = out.clone();
        while let Some(cur) = frontier.pop() {
            for &g in &self.gen_assocs {
                let ix = &self.assoc_ix[g.index()];
                for &n in ix.targets(cur).iter().chain(ix.sources(cur)) {
                    if let Err(i) = out.binary_search(&n) {
                        out.insert(i, n);
                        frontier.push(n);
                    }
                }
            }
        }
        out
    }

    /// Instance-level traversal of a resolved edge: all Y-instances reached
    /// from X-instance `oid` (paper §3.2 association-operator semantics,
    /// including inheritance and identity links).
    pub fn traverse(&self, oid: Oid, edge: &ResolvedEdge) -> Vec<Oid> {
        match edge {
            ResolvedEdge::Assoc { up_x, assoc, forward, up_y } => {
                let Some(xp) = self.climb(oid, up_x) else { return Vec::new() };
                let mids = self.assoc_ix[assoc.index()].neighbors(xp, *forward);
                if up_y.is_empty() {
                    return mids.to_vec();
                }
                // Descend the Y-side chain (reverse of its bottom-up form).
                let down: Vec<AssocId> = up_y.iter().rev().copied().collect();
                mids.iter()
                    .filter_map(|&m| self.descend(m, &down))
                    .collect()
            }
            ResolvedEdge::Identity { up_x, down_y } => {
                match self.climb(oid, up_x).and_then(|apex| self.descend(apex, down_y)) {
                    Some(y) => vec![y],
                    None => Vec::new(),
                }
            }
        }
    }

    /// Whether `x` reaches `y` over the resolved edge (used by the
    /// non-association operator `!`).
    pub fn edge_links(&self, x: Oid, edge: &ResolvedEdge, y: Oid) -> bool {
        // Fast path for plain associations.
        if let ResolvedEdge::Assoc { up_x, assoc, forward, up_y } = edge {
            if up_x.is_empty() && up_y.is_empty() {
                return if *forward {
                    self.linked(*assoc, x, y)
                } else {
                    self.linked(*assoc, y, x)
                };
            }
        }
        self.traverse(x, edge).contains(&y)
    }

    // ------------------------------------------------------------------
    // Attribute indexes
    // ------------------------------------------------------------------

    /// Build (or rebuild) an ordered index over a directly-declared
    /// attribute of `class`.
    pub fn create_attr_index(&mut self, class: ClassId, attr_name: &str) -> Result<(), StoreError> {
        let attr = self
            .schema
            .own_attr_by_name(class, attr_name)
            .ok_or_else(|| StoreError::NoSuchAttribute { class, attr: attr_name.to_string() })?;
        let mut ix = AttrIndex::new();
        let slot = self.layouts.slot(class, attr).expect("own attr has slot");
        let rows = &self.rows[class.index()];
        for &oid in &self.extents[class.index()] {
            ix.insert(rows.row(self.objects[&oid].row)[slot].clone(), oid);
        }
        self.attr_ix.insert((class, attr), ix);
        Ok(())
    }

    /// The index over `(class, attr)`, if one was created.
    pub fn attr_index(&self, class: ClassId, attr: AssocId) -> Option<&AttrIndex> {
        let hit = self.attr_ix.get(&(class, attr));
        if dood_core::obs::metrics_enabled() {
            dood_core::obs::metrics::counter("store.index.probes").inc();
            if hit.is_some() {
                dood_core::obs::metrics::counter("store.index.hits").inc();
            }
        }
        hit
    }

    // ------------------------------------------------------------------
    // Constraints
    // ------------------------------------------------------------------

    /// Check all `required` (non-null) association constraints, returning a
    /// human-readable description per violation.
    pub fn check_constraints(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in self.schema.assocs() {
            if !a.required {
                continue;
            }
            for &oid in &self.extents[a.from.index()] {
                if self.assoc_ix[a.id.index()].out_degree(oid) == 0 {
                    out.push(format!(
                        "object {oid} of class {} violates non-null association `{}`",
                        self.schema.class(a.from).name,
                        a.name
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::propcheck::Gen;
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::DType;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.e_class("Person");
        b.e_class("Student");
        b.e_class("Teacher");
        b.e_class("Section");
        b.d_class("Name", DType::Str);
        b.d_class("GPA", DType::Real);
        b.attr("Person", "Name");
        b.attr("Student", "GPA");
        b.generalize("Person", "Student");
        b.generalize("Person", "Teacher");
        b.aggregate_named("Teacher", "Section", "Teaches");
        b.aggregate_named("Student", "Section", "Enrolls");
        b.build().unwrap()
    }

    fn cid(db: &Database, n: &str) -> ClassId {
        db.schema().class_by_name(n).unwrap()
    }

    #[test]
    fn objects_are_created_only_in_entity_classes() {
        let mut db = Database::new(schema());
        let name = cid(&db, "Name");
        let err = db.new_object(name).unwrap_err();
        assert_eq!(err, StoreError::NotEntityClass(name));
        assert_eq!(
            err.to_string(),
            format!("class {name} is not an entity class, so it has no objects of its own")
        );
        assert_eq!(
            db.restore_object(Oid::from_raw(1), name),
            Err(StoreError::NotEntityClass(name))
        );
        assert_eq!(db.object_count(), 0);
    }

    #[test]
    fn object_lifecycle() {
        let mut db = Database::new(schema());
        let person = cid(&db, "Person");
        let p = db.new_object(person).unwrap();
        assert!(db.is_live(p));
        assert_eq!(db.class_of(p).unwrap(), person);
        assert_eq!(db.extent_size(person), 1);
        db.delete_object(p).unwrap();
        assert!(!db.is_live(p));
        assert_eq!(db.extent_size(person), 0);
    }

    #[test]
    fn cannot_instantiate_d_class() {
        let mut db = Database::new(schema());
        let name = db.schema().class_by_name("Name").unwrap();
        assert!(db.new_object(name).is_err());
    }

    #[test]
    fn attrs_direct_and_inherited() {
        let mut db = Database::new(schema());
        let p = db.new_object(cid(&db, "Person")).unwrap();
        db.set_attr(p, "Name", Value::str("smith")).unwrap();
        assert_eq!(db.attr(p, "Name").unwrap(), Value::str("smith"));

        let s = db.specialize(p, cid(&db, "Student")).unwrap();
        // Inherited read climbs to the Person perspective.
        assert_eq!(db.attr(s, "Name").unwrap(), Value::str("smith"));
        // Inherited write also climbs.
        db.set_attr(s, "Name", Value::str("jones")).unwrap();
        assert_eq!(db.attr(p, "Name").unwrap(), Value::str("jones"));
        // Own attribute of the subclass perspective.
        db.set_attr(s, "GPA", Value::Real(3.7)).unwrap();
        assert_eq!(db.attr(s, "GPA").unwrap(), Value::Real(3.7));
        // The superclass does not see subclass attributes.
        assert!(db.attr(p, "GPA").is_err());
    }

    #[test]
    fn attr_ref_borrows_what_attr_resolved_clones() {
        let mut db = Database::new(schema());
        let student = cid(&db, "Student");
        let name = db.schema().resolve_attr(student, "Name").unwrap();
        let gpa = db.schema().resolve_attr(student, "GPA").unwrap();
        let p = db.new_object(cid(&db, "Person")).unwrap();
        db.set_attr(p, "Name", Value::str("smith")).unwrap();
        let s = db.specialize(p, student).unwrap();
        // Stored on the Person perspective, read through the Student.
        assert_eq!(db.attr_ref(s, &name), Some(&Value::str("smith")));
        // Unset: there is a value, and it is Null.
        assert_eq!(db.attr_ref(s, &gpa), Some(&Value::Null));
        // A Student without a Person perspective has no `Name` to borrow.
        let alone = db.new_object(student).unwrap();
        assert_eq!(db.attr_ref(alone, &name), None);
        assert_eq!(db.attr_ref(Oid::from_raw(9_999), &gpa), None);
        for o in [s, alone, Oid::from_raw(9_999)] {
            for a in [&name, &gpa] {
                let borrowed = db.attr_ref(o, a).cloned().unwrap_or(Value::Null);
                assert_eq!(db.attr_resolved(o, a), borrowed);
            }
        }
    }

    #[test]
    fn attr_type_checked() {
        let mut db = Database::new(schema());
        let p = db.new_object(cid(&db, "Person")).unwrap();
        assert!(db.set_attr(p, "Name", Value::Int(5)).is_err());
        assert!(db.set_attr(p, "Nope", Value::Int(5)).is_err());
    }

    #[test]
    fn associate_checks_endpoints_and_cardinality() {
        let mut db = Database::new(schema());
        let teacher = cid(&db, "Teacher");
        let section = cid(&db, "Section");
        let p = db.new_object(cid(&db, "Person")).unwrap();
        let t = db.specialize(p, teacher).unwrap();
        let s1 = db.new_object(section).unwrap();
        let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
        db.associate(teaches, t, s1).unwrap();
        assert!(db.linked(teaches, t, s1));
        // Wrong endpoint class.
        assert!(db.associate(teaches, p, s1).is_err());
        // Idempotent re-associate.
        db.associate(teaches, t, s1).unwrap();
        assert_eq!(db.link_count(teaches), 1);
        db.dissociate(teaches, t, s1).unwrap();
        assert!(!db.linked(teaches, t, s1));
    }

    #[test]
    fn associate_with_a_wrong_endpoint_class_is_an_endpoint_mismatch() {
        let mut db = Database::new(schema());
        let teacher = cid(&db, "Teacher");
        let p = db.new_object(cid(&db, "Person")).unwrap();
        let t = db.specialize(p, teacher).unwrap();
        let s1 = db.new_object(cid(&db, "Section")).unwrap();
        let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
        let seq = db.seq();
        // The `from` end must be a Teacher, the `to` end a Section; the
        // error names the offending object first.
        assert_eq!(
            db.associate(teaches, p, s1),
            Err(StoreError::AssocEndpointMismatch { assoc: teaches, from: p, to: s1 })
        );
        assert_eq!(
            db.associate(teaches, t, p),
            Err(StoreError::AssocEndpointMismatch { assoc: teaches, from: p, to: t })
        );
        assert_eq!(db.link_count(teaches), 0);
        assert_eq!(db.seq(), seq);
    }

    #[test]
    fn single_cardinality_enforced() {
        let mut b = SchemaBuilder::new();
        b.e_class("Section");
        b.e_class("Course");
        b.aggregate_single("Section", "Course");
        let mut db = Database::new(b.build().unwrap());
        let section = db.schema().class_by_name("Section").unwrap();
        let course = db.schema().class_by_name("Course").unwrap();
        let a = db.schema().assocs()[0].id;
        let s = db.new_object(section).unwrap();
        let c1 = db.new_object(course).unwrap();
        let c2 = db.new_object(course).unwrap();
        db.associate(a, s, c1).unwrap();
        assert!(matches!(
            db.associate(a, s, c2),
            Err(StoreError::CardinalityViolation { .. })
        ));
    }

    #[test]
    fn specialize_creates_identity_chain() {
        let mut db = Database::new(schema());
        let p = db.new_object(cid(&db, "Person")).unwrap();
        let s = db.specialize(p, cid(&db, "Student")).unwrap();
        // Climb back up.
        let g = db.schema().g_link(cid(&db, "Person"), cid(&db, "Student")).unwrap();
        assert_eq!(db.climb(s, &[g]), Some(p));
        assert_eq!(db.descend(p, &[g]), Some(s));
        // No duplicate perspective.
        assert!(db.specialize(p, cid(&db, "Student")).is_err());
    }

    #[test]
    fn traverse_inherited_edge() {
        let mut db = Database::new(schema());
        let schema_ = db.schema_arc();
        let p = db.new_object(cid(&db, "Person")).unwrap();
        let s = db.specialize(p, cid(&db, "Student")).unwrap();
        let sec = db.new_object(cid(&db, "Section")).unwrap();
        let enrolls = schema_
            .own_link_by_name(cid(&db, "Student"), "Enrolls")
            .unwrap();
        db.associate(enrolls, s, sec).unwrap();
        // Person * Section resolves via Student's Enrolls? No: Person is the
        // superclass; Section relates to Student/Teacher. Resolve from the
        // Student side instead: Student * Section is direct.
        let edge = schema_.resolve_edge(cid(&db, "Student"), cid(&db, "Section")).unwrap();
        assert_eq!(db.traverse(s, &edge), vec![sec]);
        // Reverse edge: Section * Student.
        let back = schema_.resolve_edge(cid(&db, "Section"), cid(&db, "Student")).unwrap();
        assert_eq!(db.traverse(sec, &back), vec![s]);
        assert!(db.edge_links(s, &edge, sec));
    }

    #[test]
    fn traverse_identity_edge() {
        let mut db = Database::new(schema());
        let schema_ = db.schema_arc();
        let p = db.new_object(cid(&db, "Person")).unwrap();
        let s = db.specialize(p, cid(&db, "Student")).unwrap();
        let t = db.specialize(p, cid(&db, "Teacher")).unwrap();
        // Student * Teacher: identity through Person.
        let edge = schema_.resolve_edge(cid(&db, "Student"), cid(&db, "Teacher")).unwrap();
        assert_eq!(db.traverse(s, &edge), vec![t]);
        // A student whose person has no teacher perspective reaches nothing.
        let p2 = db.new_object(cid(&db, "Person")).unwrap();
        let s2 = db.specialize(p2, cid(&db, "Student")).unwrap();
        assert!(db.traverse(s2, &edge).is_empty());
    }

    #[test]
    fn delete_cascades_to_perspectives_and_links() {
        let mut db = Database::new(schema());
        let p = db.new_object(cid(&db, "Person")).unwrap();
        let s = db.specialize(p, cid(&db, "Student")).unwrap();
        let sec = db.new_object(cid(&db, "Section")).unwrap();
        let enrolls = db
            .schema()
            .own_link_by_name(cid(&db, "Student"), "Enrolls")
            .unwrap();
        db.associate(enrolls, s, sec).unwrap();
        db.delete_object(p).unwrap();
        assert!(!db.is_live(p));
        assert!(!db.is_live(s));
        assert!(db.is_live(sec));
        assert_eq!(db.link_count(enrolls), 0);
    }

    #[test]
    fn attr_index_maintained() {
        let mut db = Database::new(schema());
        let person = cid(&db, "Person");
        let p1 = db.new_object(person).unwrap();
        db.set_attr(p1, "Name", Value::str("a")).unwrap();
        db.create_attr_index(person, "Name").unwrap();
        let name_attr = db.schema().own_attr_by_name(person, "Name").unwrap();
        assert_eq!(db.attr_index(person, name_attr).unwrap().eq_scan(&Value::str("a")), vec![p1]);
        // Updates and inserts maintain the index.
        db.set_attr(p1, "Name", Value::str("b")).unwrap();
        let p2 = db.new_object(person).unwrap();
        db.set_attr(p2, "Name", Value::str("a")).unwrap();
        let ix = db.attr_index(person, name_attr).unwrap();
        assert_eq!(ix.eq_scan(&Value::str("a")), vec![p2]);
        assert_eq!(ix.eq_scan(&Value::str("b")), vec![p1]);
    }

    #[test]
    fn constraint_checking() {
        let mut b = SchemaBuilder::new();
        b.e_class("Course");
        b.e_class("Section");
        b.aggregate_single("Section", "Course");
        b.required();
        let mut db = Database::new(b.build().unwrap());
        let section = db.schema().class_by_name("Section").unwrap();
        let course = db.schema().class_by_name("Course").unwrap();
        let s = db.new_object(section).unwrap();
        assert_eq!(db.check_constraints().len(), 1);
        let c = db.new_object(course).unwrap();
        let a = db.schema().assocs()[0].id;
        db.associate(a, s, c).unwrap();
        assert!(db.check_constraints().is_empty());
    }

    /// Extents and attribute rows against a model over random creates,
    /// specializations, attribute writes and (cascading) deletes of
    /// objects with and without attributes: every extent is the live
    /// objects of its class ascending, every attribute reads what was last
    /// written, and a class's rows are handed out as a free list would,
    /// a deleted object's row first, reset to Null.
    #[test]
    fn extents_and_rows_match_a_model() {
        use dood_core::propcheck::check;
        use std::collections::BTreeMap;
        check("extents_and_rows_match_a_model", 64, |g| {
            let mut db = Database::new(schema());
            let classes = ["Person", "Student", "Teacher", "Section"].map(|n| cid(&db, n));
            let [person, student, ..] = classes;
            let attr = |c: ClassId| db.layouts.attrs_of(c).first().copied();
            let attrs = classes.map(attr);
            // Per live object: its class, its parent perspective and the
            // value of its class's attribute; per class: rows handed out
            // and freed rows, last freed last.
            let mut live: BTreeMap<Oid, (ClassId, Option<Oid>, Value)> = BTreeMap::new();
            let mut rows: BTreeMap<ClassId, (usize, Vec<usize>)> = BTreeMap::new();
            for _ in 0..g.range(0..80usize) {
                let oids: Vec<Oid> = live.keys().copied().collect();
                let pick = |g: &mut Gen| (!oids.is_empty()).then(|| *g.choose(&oids));
                let created = match g.range(0..8u32) {
                    0..=2 => {
                        let c = *g.choose(&[person, person, classes[3]]);
                        Some((db.new_object(c).unwrap(), c, None))
                    }
                    3 => pick(g).filter(|o| live[o].0 == person).and_then(|p| {
                        let sub = *g.choose(&classes[1..3]);
                        db.specialize(p, sub).ok().map(|o| (o, sub, Some(p)))
                    }),
                    4 | 5 => {
                        if let Some(o) = pick(g) {
                            let gone: Vec<Oid> = live
                                .iter()
                                .filter(|(&k, v)| k == o || v.1 == Some(o))
                                .map(|(&k, _)| k)
                                .collect();
                            let freed: Vec<(ClassId, usize)> = gone
                                .iter()
                                .map(|k| (live[k].0, db.objects[k].row))
                                .collect();
                            db.delete_object(o).unwrap();
                            // At most one object of each class goes, so
                            // the order of the cascade does not matter.
                            for &(c, row) in &freed {
                                if attrs[classes.iter().position(|&x| x == c).unwrap()].is_some() {
                                    rows.entry(c).or_default().1.push(row);
                                }
                            }
                            for k in gone {
                                live.remove(&k);
                            }
                        }
                        None
                    }
                    _ => {
                        if let Some(o) = pick(g) {
                            let c = live[&o].0;
                            let v = if c == student {
                                Value::Real(g.range(0..4u32) as f64)
                            } else {
                                Value::str(g.string_of("ab", 0..3))
                            };
                            if c == person || c == student {
                                db.set_attr(o, if c == person { "Name" } else { "GPA" }, v.clone())
                                    .unwrap();
                                live.get_mut(&o).unwrap().2 = v;
                            }
                        }
                        None
                    }
                };
                if let Some((o, c, parent)) = created {
                    live.insert(o, (c, parent, Value::Null));
                    let row = db.objects[&o].row;
                    if attrs[classes.iter().position(|&x| x == c).unwrap()].is_none() {
                        assert_eq!(row, 0, "a class without attributes has no rows");
                    } else {
                        let (issued, free) = rows.entry(c).or_default();
                        let want = free.pop().unwrap_or_else(|| {
                            *issued += 1;
                            *issued - 1
                        });
                        assert_eq!(row, want, "row of {o}");
                    }
                }
                for (i, &c) in classes.iter().enumerate() {
                    let want: Vec<Oid> =
                        live.iter().filter(|(_, v)| v.0 == c).map(|(&k, _)| k).collect();
                    assert_eq!(db.extent(c).collect::<Vec<_>>(), want, "extent of {c}");
                    assert_eq!(db.extent_size(c), want.len());
                    if let Some(a) = attrs[i] {
                        for o in want {
                            assert_eq!(db.attr_direct(o, a), live[&o].2, "{a} of {o}");
                        }
                    }
                }
                assert_eq!(db.object_count(), live.len());
            }
        });
    }

    #[test]
    fn event_log_records_mutations() {
        let mut db = Database::new(schema());
        let before = db.seq();
        let p = db.new_object(cid(&db, "Person")).unwrap();
        db.set_attr(p, "Name", Value::str("x")).unwrap();
        assert_eq!(db.events().since(before).len(), 2);
        assert!(matches!(
            db.events().since(before)[0],
            UpdateEvent::ObjectCreated { .. }
        ));
    }
}
