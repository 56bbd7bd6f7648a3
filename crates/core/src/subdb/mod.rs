//! Subdatabases: the closed world of the deductive rule language
//! (paper §3.1 and §4.1).

pub mod index;
pub mod intension;
pub mod pattern;
pub mod registry;
mod rows;
pub mod run;
pub mod subdatabase;

pub use index::{SlotExtent, SlotPair, SubdbIndex};
pub use intension::{IntEdge, Intension, SlotDef, SlotSource};
pub use pattern::{is_part, ExtPattern, PatternType, Row};
pub use registry::{RegistryEntry, SubdbRegistry};
pub use rows::{Entries, Lane, RowBlocks, RowCounts, RowStore};
pub use run::RowRun;
pub use subdatabase::Subdatabase;
