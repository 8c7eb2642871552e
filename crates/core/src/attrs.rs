//! Semantic attributes: declarations and runtime values.
//!
//! Paper §3.1: every element type carries two disjoint tuples of attribute
//! members, `Inh(A)` and `Syn(A)`. A member is either scalar-valued (one
//! string of a tuple-typed attribute) or holds a *set* of tuples
//! `set(a1, …, ak)`. Constraint compilation (§3.3) additionally introduces
//! *bag*-typed members ("set with duplicates") with bag-union rules.

use crate::error::AigError;
use aig_relstore::{Relation, Value};
use std::fmt;

/// The type of one attribute field (member).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// A single string/int value.
    Scalar,
    /// A set of tuples with the given component names (duplicates collapsed).
    Set(Vec<String>),
    /// A bag of tuples (duplicates kept) — introduced by constraint
    /// compilation for key checking.
    Bag(Vec<String>),
}

impl FieldType {
    pub fn is_scalar(&self) -> bool {
        matches!(self, FieldType::Scalar)
    }

    pub fn is_bag(&self) -> bool {
        matches!(self, FieldType::Bag(_))
    }

    /// Component names for set/bag types.
    pub fn components(&self) -> Option<&[String]> {
        match self {
            FieldType::Scalar => None,
            FieldType::Set(c) | FieldType::Bag(c) => Some(c),
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Scalar => write!(f, "string"),
            FieldType::Set(c) => write!(f, "set({})", c.join(", ")),
            FieldType::Bag(c) => write!(f, "bag({})", c.join(", ")),
        }
    }
}

/// A declared attribute field: name plus type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    pub name: String,
    pub ty: FieldType,
}

impl FieldDecl {
    pub fn scalar(name: impl Into<String>) -> FieldDecl {
        FieldDecl {
            name: name.into(),
            ty: FieldType::Scalar,
        }
    }

    pub fn set(name: impl Into<String>, components: &[&str]) -> FieldDecl {
        FieldDecl {
            name: name.into(),
            ty: FieldType::Set(components.iter().map(|s| s.to_string()).collect()),
        }
    }

    pub fn bag(name: impl Into<String>, components: &[&str]) -> FieldDecl {
        FieldDecl {
            name: name.into(),
            ty: FieldType::Bag(components.iter().map(|s| s.to_string()).collect()),
        }
    }
}

/// Looks up a field by name in a declaration list.
pub fn field_index(decls: &[FieldDecl], name: &str) -> Option<usize> {
    decls.iter().position(|d| d.name == name)
}

/// The runtime value of one attribute field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    Scalar(Value),
    /// A set or bag of tuples. For set-typed fields the relation is kept
    /// deduplicated; for bags duplicates are preserved.
    Rel(Relation),
}

impl FieldValue {
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            FieldValue::Scalar(v) => Some(v),
            FieldValue::Rel(_) => None,
        }
    }

    pub fn as_rel(&self) -> Option<&Relation> {
        match self {
            FieldValue::Rel(r) => Some(r),
            FieldValue::Scalar(_) => None,
        }
    }

    /// The default value of a field type: NULL or the empty set/bag (the
    /// paper assigns "null (or empty set depending on their types)" to
    /// unselected choice branches).
    pub fn default_for(ty: &FieldType) -> FieldValue {
        match ty {
            FieldType::Scalar => FieldValue::Scalar(Value::Null),
            FieldType::Set(c) | FieldType::Bag(c) => FieldValue::Rel(Relation::empty(c.clone())),
        }
    }

    /// Type-checks this value against a declaration.
    pub fn conforms(&self, ty: &FieldType) -> bool {
        match (self, ty) {
            (FieldValue::Scalar(_), FieldType::Scalar) => true,
            (FieldValue::Rel(r), FieldType::Set(c)) | (FieldValue::Rel(r), FieldType::Bag(c)) => {
                r.arity() == c.len()
            }
            _ => false,
        }
    }
}

/// The value of a whole attribute (`Inh(A)` or `Syn(A)`): one value per
/// declared field, in declaration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttrValue {
    pub fields: Vec<FieldValue>,
}

impl AttrValue {
    /// An attribute with every field at its default.
    pub fn defaults(decls: &[FieldDecl]) -> AttrValue {
        AttrValue {
            fields: decls
                .iter()
                .map(|d| FieldValue::default_for(&d.ty))
                .collect(),
        }
    }

    /// Fetches a field value by declaration list + name.
    pub fn get<'a>(&'a self, decls: &[FieldDecl], name: &str) -> Result<&'a FieldValue, AigError> {
        let idx = field_index(decls, name)
            .ok_or_else(|| AigError::Spec(format!("no attribute field `{name}`")))?;
        Ok(&self.fields[idx])
    }

    /// Fetches a scalar field by name.
    pub fn scalar<'a>(&'a self, decls: &[FieldDecl], name: &str) -> Result<&'a Value, AigError> {
        self.get(decls, name)?
            .as_scalar()
            .ok_or_else(|| AigError::Spec(format!("attribute field `{name}` is not scalar")))
    }

    /// Fetches a set/bag field by name.
    pub fn rel<'a>(&'a self, decls: &[FieldDecl], name: &str) -> Result<&'a Relation, AigError> {
        self.get(decls, name)?
            .as_rel()
            .ok_or_else(|| AigError::Spec(format!("attribute field `{name}` is not set-valued")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decls() -> Vec<FieldDecl> {
        vec![
            FieldDecl::scalar("date"),
            FieldDecl::set("trIdS", &["trId"]),
            FieldDecl::bag("keys", &["k"]),
        ]
    }

    #[test]
    fn defaults_match_types() {
        let v = AttrValue::defaults(&decls());
        assert_eq!(v.fields[0], FieldValue::Scalar(Value::Null));
        let r = v.fields[1].as_rel().unwrap();
        assert!(r.is_empty());
        assert_eq!(r.columns(), &["trId".to_string()]);
    }

    #[test]
    fn lookup_by_name() {
        let d = decls();
        let mut v = AttrValue::defaults(&d);
        v.fields[0] = FieldValue::Scalar(Value::str("2003-06-09"));
        assert_eq!(v.scalar(&d, "date").unwrap(), &Value::str("2003-06-09"));
        assert!(v.rel(&d, "trIdS").unwrap().is_empty());
        assert!(v.scalar(&d, "trIdS").is_err());
        assert!(v.rel(&d, "date").is_err());
        assert!(v.get(&d, "missing").is_err());
    }

    #[test]
    fn conformance() {
        let scalar = FieldValue::Scalar(Value::str("x"));
        assert!(scalar.conforms(&FieldType::Scalar));
        assert!(!scalar.conforms(&FieldType::Set(vec!["a".into()])));
        let rel = FieldValue::Rel(Relation::empty(vec!["a".into()]));
        assert!(rel.conforms(&FieldType::Set(vec!["a".into()])));
        assert!(rel.conforms(&FieldType::Bag(vec!["a".into()])));
        assert!(!rel.conforms(&FieldType::Set(vec!["a".into(), "b".into()])));
    }

    #[test]
    fn type_display() {
        assert_eq!(FieldType::Scalar.to_string(), "string");
        assert_eq!(FieldType::Set(vec!["trId".into()]).to_string(), "set(trId)");
        assert_eq!(
            FieldType::Bag(vec!["a".into(), "b".into()]).to_string(),
            "bag(a, b)"
        );
    }
}
