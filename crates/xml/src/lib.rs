//! XML substrate for the AIG data-integration system.
//!
//! This crate implements the XML side of the SIGMOD 2003 paper
//! *"Capturing both Types and Constraints in Data Integration"*:
//!
//! * an arena-based XML document tree ([`XmlTree`]),
//! * DTDs in the paper's restricted form ([`Dtd`], [`ContentModel`]) plus a
//!   parser for general `<!ELEMENT ...>` declarations and the linear-time
//!   normalization into restricted form via synthetic "entity" element types
//!   (paper §2),
//! * validation of documents against both restricted and general DTDs
//!   ([`validate()`]), the latter via a Glushkov NFA,
//! * XML keys and inclusion constraints of the form `C(A.l -> A)` and
//!   `C(B.lb ⊆ A.la)` with a whole-tree checker used as the test oracle for
//!   the compiled constraint checking in `aig-core` ([`constraints`]),
//! * a serializer and a small XML parser for round-tripping documents.

pub mod constraints;
pub mod dtd;
pub mod error;
pub mod parse;
pub mod repair;
pub mod serialize;
pub mod tree;
pub mod validate;

pub use constraints::{Constraint, ConstraintSet, Inclusion, Key, Violation};
pub use dtd::{ContentModel, Dtd, DtdBuilder, ElemId, GeneralDtd, Normalized, Regex};
pub use error::XmlError;
pub use repair::{repair, Repair, RepairAction};
pub use tree::{NodeId, NodeKind, XmlTree};
pub use validate::{
    validate, validate_by_node, validate_general, Rule, RuleTags, Rules, ValidationError,
};
