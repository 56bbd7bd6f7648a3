//! # dood-store
//!
//! The extensional object store beneath **dood**: per-class extents of
//! OID-identified objects, descriptive attributes with optional ordered
//! indexes, bidirectional association indexes, instance-level perspective
//! (identity) links for generalization, constraint checking, and the
//! update-event log that drives forward chaining.

#![warn(missing_docs)]

pub mod assoc_index;
pub mod attr_index;
pub mod database;
pub mod dump;
pub mod events;
pub mod object;

pub use assoc_index::AssocIndex;
pub use attr_index::{ord_cmp, AttrIndex, OrdValue};
pub use database::Database;
pub use dump::{dump, load, load_full, save_full, LoadError};
pub use events::{EventLog, SubscriberId, UpdateEvent};
