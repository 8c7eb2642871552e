//! Programmatic construction of AIGs.
//!
//! [`AigBuilder`] is the low-level construction API (the DSL parser in
//! [`crate::parser`] drives it). Element types come from a DTD; every
//! PCDATA-typed element receives a default leaf specification
//! (`inh(val)`, `syn(val)`, `text = $val`, `syn val = $val`) which can be
//! overridden, since the paper's leaf rules (e.g. `trId → S` in Fig. 2) all
//! have exactly this shape.

use crate::attrs::{FieldDecl, FieldType};
use crate::error::AigError;
use crate::spec::{
    Aig, ChoiceBranch, ElemIdx, ElemInfo, FieldRule, Generator, Prod, QueryId, QueryRule, SeqItem,
    SynRule, ValueExpr,
};
use aig_sql::Query;
use aig_xml::{Constraint, ConstraintSet, ContentModel, Dtd, GeneralDtd};
use std::collections::HashMap;

/// A production item under construction, referring to the child by name.
#[derive(Debug, Clone)]
pub struct ItemSpec {
    pub child: String,
    pub star: bool,
    pub generator: Option<Generator>,
    pub assigns: Vec<(String, FieldRule)>,
}

impl ItemSpec {
    /// A plain (non-starred) child.
    pub fn child(name: impl Into<String>) -> ItemSpec {
        ItemSpec {
            child: name.into(),
            star: false,
            generator: None,
            assigns: Vec::new(),
        }
    }

    /// A starred child with a generator.
    pub fn star(name: impl Into<String>, generator: Generator) -> ItemSpec {
        ItemSpec {
            child: name.into(),
            star: true,
            generator: Some(generator),
            assigns: Vec::new(),
        }
    }

    /// Adds a field assignment.
    pub fn assign(mut self, field: impl Into<String>, rule: FieldRule) -> ItemSpec {
        self.assigns.push((field.into(), rule));
        self
    }
}

/// A choice branch under construction.
#[derive(Debug, Clone)]
pub struct BranchSpec {
    pub child: String,
    pub assigns: Vec<(String, FieldRule)>,
    pub syn: Vec<SynRule>,
}

impl BranchSpec {
    pub fn new(child: impl Into<String>) -> BranchSpec {
        BranchSpec {
            child: child.into(),
            assigns: Vec::new(),
            syn: Vec::new(),
        }
    }

    pub fn assign(mut self, field: impl Into<String>, rule: FieldRule) -> BranchSpec {
        self.assigns.push((field.into(), rule));
        self
    }

    pub fn syn_rule(mut self, field: impl Into<String>, rule: FieldRule) -> BranchSpec {
        self.syn.push(SynRule {
            field: field.into(),
            rule,
        });
        self
    }
}

/// A production under construction.
#[derive(Debug, Clone)]
pub enum ProdSpec {
    Pcdata(ValueExpr),
    Empty,
    Items(Vec<ItemSpec>),
    Choice {
        cond: QueryRule,
        branches: Vec<BranchSpec>,
    },
}

#[derive(Debug, Clone)]
struct PendingElem {
    name: String,
    inh: Vec<FieldDecl>,
    syn: Vec<FieldDecl>,
    prod: Option<ProdSpec>,
    syn_rules: Vec<SynRule>,
    /// True when the element got the automatic PCDATA leaf spec and was
    /// never touched explicitly.
    defaulted: bool,
}

/// Builds an [`Aig`] step by step; [`AigBuilder::build`] validates and
/// finalizes.
#[derive(Debug)]
pub struct AigBuilder {
    name: String,
    dtd: Option<Dtd>,
    elems: Vec<PendingElem>,
    by_name: HashMap<String, usize>,
    queries: Vec<Query>,
    constraints: Vec<Constraint>,
}

impl AigBuilder {
    pub fn new(name: impl Into<String>) -> AigBuilder {
        AigBuilder {
            name: name.into(),
            dtd: None,
            elems: Vec::new(),
            by_name: HashMap::new(),
            queries: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Sets the target DTD from `<!ELEMENT …>` text. Declares every element
    /// type; PCDATA types get the default leaf specification.
    pub fn dtd_text(&mut self, text: &str) -> Result<&mut Self, AigError> {
        let dtd = GeneralDtd::parse(text)?.normalize()?.dtd;
        self.set_dtd(dtd);
        Ok(self)
    }

    /// Sets the target DTD directly (must already be in restricted form).
    pub fn set_dtd(&mut self, dtd: Dtd) -> &mut Self {
        for id in dtd.elements() {
            let name = dtd.name(id).to_string();
            let is_pcdata = matches!(dtd.production(id), ContentModel::Pcdata);
            let pending = if is_pcdata {
                PendingElem {
                    name: name.clone(),
                    inh: vec![FieldDecl::scalar("val")],
                    syn: vec![FieldDecl::scalar("val")],
                    prod: Some(ProdSpec::Pcdata(ValueExpr::InhField("val".into()))),
                    syn_rules: vec![SynRule {
                        field: "val".into(),
                        rule: FieldRule::Scalar(ValueExpr::InhField("val".into())),
                    }],
                    defaulted: true,
                }
            } else {
                PendingElem {
                    name: name.clone(),
                    inh: Vec::new(),
                    syn: Vec::new(),
                    prod: None,
                    syn_rules: Vec::new(),
                    defaulted: false,
                }
            };
            self.by_name.insert(name, self.elems.len());
            self.elems.push(pending);
        }
        self.dtd = Some(dtd);
        self
    }

    /// Whether the DTD declares the element type `elem`.
    pub fn declares(&self, elem: &str) -> bool {
        self.by_name.contains_key(elem)
    }

    fn pending(&mut self, elem: &str) -> Result<&mut PendingElem, AigError> {
        let idx = *self
            .by_name
            .get(elem)
            .ok_or_else(|| AigError::Spec(format!("unknown element type `{elem}`")))?;
        Ok(&mut self.elems[idx])
    }

    /// Declares the inherited attribute fields of an element.
    pub fn inh(&mut self, elem: &str, fields: Vec<FieldDecl>) -> Result<&mut Self, AigError> {
        let p = self.pending(elem)?;
        p.inh = fields;
        p.defaulted = false;
        Ok(self)
    }

    /// Declares the synthesized attribute fields of an element.
    pub fn syn(&mut self, elem: &str, fields: Vec<FieldDecl>) -> Result<&mut Self, AigError> {
        let p = self.pending(elem)?;
        p.syn = fields;
        p.defaulted = false;
        Ok(self)
    }

    /// The declared type of an attribute field, if the element and field
    /// exist. Used by the DSL parser to type surface expressions.
    pub fn field_type(&self, elem: &str, field: &str, inherited: bool) -> Option<&FieldType> {
        let idx = *self.by_name.get(elem)?;
        let pending = &self.elems[idx];
        let decls = if inherited {
            &pending.inh
        } else {
            &pending.syn
        };
        decls.iter().find(|d| d.name == field).map(|d| &d.ty)
    }

    /// The parameter names a registered query mentions.
    pub fn query_params(&self, query: QueryId) -> Vec<String> {
        self.queries[query.index()]
            .params()
            .into_iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Registers a query (by SQL text) and returns its id.
    pub fn query(&mut self, sql: &str) -> Result<QueryId, AigError> {
        let q = Query::parse(sql)?;
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(q);
        Ok(id)
    }

    /// Binds every parameter of `query` to the like-named inherited field of
    /// `elem` — the common case in the paper, where `Q(v)` takes the whole
    /// inherited attribute as its parameter vector.
    pub fn auto_bind(&self, query: QueryId, elem: &str) -> Result<QueryRule, AigError> {
        let idx = *self
            .by_name
            .get(elem)
            .ok_or_else(|| AigError::Spec(format!("unknown element type `{elem}`")))?;
        let pending = &self.elems[idx];
        let q = &self.queries[query.index()];
        let mut params = Vec::new();
        for name in q.params() {
            if pending.inh.iter().any(|f| f.name == name) {
                params.push((
                    name.to_string(),
                    crate::spec::ParamSource::InhField(name.to_string()),
                ));
            } else {
                return Err(AigError::Spec(format!(
                    "cannot auto-bind `${name}`: element `{elem}` has no inherited field \
                     of that name"
                )));
            }
        }
        Ok(QueryRule { query, params })
    }

    /// Sets the production (with rules) of an element.
    pub fn prod(&mut self, elem: &str, spec: ProdSpec) -> Result<&mut Self, AigError> {
        let p = self.pending(elem)?;
        p.prod = Some(spec);
        p.defaulted = false;
        Ok(self)
    }

    /// Sets the text rule of a PCDATA element (overriding the default
    /// `text = $val`).
    pub fn text(&mut self, elem: &str, expr: ValueExpr) -> Result<&mut Self, AigError> {
        let p = self.pending(elem)?;
        p.prod = Some(ProdSpec::Pcdata(expr));
        Ok(self)
    }

    /// Adds a synthesized rule to an element.
    pub fn syn_rule(
        &mut self,
        elem: &str,
        field: &str,
        rule: FieldRule,
    ) -> Result<&mut Self, AigError> {
        let p = self.pending(elem)?;
        p.syn_rules.push(SynRule {
            field: field.to_string(),
            rule,
        });
        Ok(self)
    }

    /// Replaces all synthesized rules of an element.
    pub fn set_syn_rules(
        &mut self,
        elem: &str,
        rules: Vec<SynRule>,
    ) -> Result<&mut Self, AigError> {
        let p = self.pending(elem)?;
        p.syn_rules = rules;
        Ok(self)
    }

    /// Adds an XML constraint (key or inclusion constraint) by text.
    pub fn constraint_text(&mut self, text: &str) -> Result<&mut Self, AigError> {
        self.constraints.push(Constraint::parse(text)?);
        Ok(self)
    }

    /// Adds an XML constraint.
    pub fn constraint(&mut self, c: Constraint) -> &mut Self {
        self.constraints.push(c);
        self
    }

    /// Finalizes the AIG: resolves names, validates every rule, checks the
    /// dependency relations for acyclicity, and verifies the productions
    /// against the DTD.
    pub fn build(self) -> Result<Aig, AigError> {
        let dtd = self
            .dtd
            .ok_or_else(|| AigError::Spec("no DTD was set".to_string()))?;
        let by_name: HashMap<String, ElemIdx> = self
            .by_name
            .iter()
            .map(|(name, &i)| (name.clone(), ElemIdx(i as u32)))
            .collect();
        let resolve = |name: &str| -> Result<ElemIdx, AigError> {
            by_name
                .get(name)
                .copied()
                .ok_or_else(|| AigError::Spec(format!("unknown element type `{name}`")))
        };
        let mut elems = Vec::with_capacity(self.elems.len());
        for pending in &self.elems {
            let prod_spec = pending.prod.clone().ok_or_else(|| {
                AigError::Spec(format!(
                    "element `{}` has no semantic rules (production unspecified)",
                    pending.name
                ))
            })?;
            let prod = match prod_spec {
                ProdSpec::Pcdata(text) => Prod::Pcdata { text },
                ProdSpec::Empty => Prod::Empty,
                ProdSpec::Items(items) => Prod::Items(
                    items
                        .into_iter()
                        .map(|spec| {
                            Ok(SeqItem {
                                elem: resolve(&spec.child)?,
                                star: spec.star,
                                generator: spec.generator,
                                assigns: spec.assigns,
                            })
                        })
                        .collect::<Result<Vec<_>, AigError>>()?,
                ),
                ProdSpec::Choice { cond, branches } => Prod::Choice {
                    cond,
                    branches: branches
                        .into_iter()
                        .map(|spec| {
                            Ok(ChoiceBranch {
                                elem: resolve(&spec.child)?,
                                assigns: spec.assigns,
                                syn: spec.syn,
                            })
                        })
                        .collect::<Result<Vec<_>, AigError>>()?,
                },
            };
            elems.push(ElemInfo {
                name: pending.name.clone(),
                internal: false,
                inh: pending.inh.clone(),
                syn: pending.syn.clone(),
                prod,
                syn_rules: pending.syn_rules.clone(),
                topo: Vec::new(),
                guards: Vec::new(),
            });
        }
        let root = resolve(dtd.name(dtd.root()))?;
        let mut aig = Aig {
            name: self.name,
            elems,
            by_name,
            root,
            queries: self.queries,
            constraints: ConstraintSet::new(self.constraints),
            dtd,
        };
        aig.finalize()?;
        Ok(aig)
    }
}

/// Convenience constructors for field declarations re-exported at the
/// builder level.
pub fn scalar(name: &str) -> FieldDecl {
    FieldDecl::scalar(name)
}

/// A set-typed field declaration.
pub fn set(name: &str, components: &[&str]) -> FieldDecl {
    FieldDecl {
        name: name.to_string(),
        ty: FieldType::Set(components.iter().map(|s| s.to_string()).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SetExpr;

    /// A two-level AIG: list of items from a query, each with a PCDATA id.
    fn tiny_builder() -> AigBuilder {
        let mut b = AigBuilder::new("tiny");
        b.dtd_text("<!ELEMENT list (entry*)> <!ELEMENT entry (id)> <!ELEMENT id (#PCDATA)>")
            .unwrap();
        b
    }

    #[test]
    fn build_minimal_aig() {
        let mut b = tiny_builder();
        b.inh("list", vec![scalar("day")]).unwrap();
        b.inh("entry", vec![scalar("id")]).unwrap();
        let q = b
            .query("select t.id as id from DB1:items t where t.day = $day")
            .unwrap();
        let rule = b.auto_bind(q, "list").unwrap();
        b.prod(
            "list",
            ProdSpec::Items(vec![ItemSpec::star("entry", Generator::Query(rule))]),
        )
        .unwrap();
        b.prod(
            "entry",
            ProdSpec::Items(vec![ItemSpec::child("id")
                .assign("val", FieldRule::Scalar(ValueExpr::InhField("id".into())))]),
        )
        .unwrap();
        let aig = b.build().unwrap();
        assert_eq!(aig.len(), 3);
        assert_eq!(aig.elem_name(aig.root), "list");
        assert_eq!(aig.root_params().len(), 1);
    }

    #[test]
    fn default_pcdata_leaf_spec() {
        let mut b = tiny_builder();
        b.inh("list", vec![]).unwrap();
        b.inh("entry", vec![scalar("id")]).unwrap();
        let q = b.query("select t.id as id from DB1:items t").unwrap();
        let rule = b.auto_bind(q, "list").unwrap();
        b.prod(
            "list",
            ProdSpec::Items(vec![ItemSpec::star("entry", Generator::Query(rule))]),
        )
        .unwrap();
        b.prod(
            "entry",
            ProdSpec::Items(vec![ItemSpec::child("id")
                .assign("val", FieldRule::Scalar(ValueExpr::InhField("id".into())))]),
        )
        .unwrap();
        let aig = b.build().unwrap();
        // `id` got the default leaf spec: inh(val), syn(val).
        let id = aig.elem("id").unwrap();
        assert_eq!(aig.elem_info(id).inh.len(), 1);
        assert_eq!(aig.elem_info(id).syn.len(), 1);
    }

    #[test]
    fn missing_production_reported() {
        let mut b = tiny_builder();
        b.inh("entry", vec![scalar("id")]).unwrap();
        // `list` gets no production.
        let err = b.build().unwrap_err();
        assert!(matches!(err, AigError::Spec(msg) if msg.contains("list")));
    }

    #[test]
    fn auto_bind_rejects_unknown_fields() {
        let mut b = tiny_builder();
        b.inh("list", vec![scalar("day")]).unwrap();
        let q = b
            .query("select t.id as id from DB1:items t where t.other = $other")
            .unwrap();
        let err = b.auto_bind(q, "list").unwrap_err();
        assert!(matches!(err, AigError::Spec(msg) if msg.contains("other")));
    }

    #[test]
    fn cyclic_sibling_dependency_rejected() {
        // a -> b, c where Inh(b) uses Syn(c) and Inh(c) uses Syn(b).
        let mut b = AigBuilder::new("cyclic");
        b.dtd_text("<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>")
            .unwrap();
        b.inh("a", vec![]).unwrap();
        b.prod(
            "a",
            ProdSpec::Items(vec![
                ItemSpec::child("b").assign(
                    "val",
                    FieldRule::Scalar(ValueExpr::ChildSyn {
                        item: 1,
                        field: "val".into(),
                    }),
                ),
                ItemSpec::child("c").assign(
                    "val",
                    FieldRule::Scalar(ValueExpr::ChildSyn {
                        item: 0,
                        field: "val".into(),
                    }),
                ),
            ]),
        )
        .unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, AigError::CyclicDependency { .. }), "{err}");
    }

    #[test]
    fn acyclic_sibling_dependency_accepted_and_ordered() {
        // Like the paper's patient production: bill depends on treatments.
        let mut b = AigBuilder::new("dep");
        b.dtd_text("<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>")
            .unwrap();
        b.inh("a", vec![scalar("x")]).unwrap();
        b.prod(
            "a",
            ProdSpec::Items(vec![
                ItemSpec::child("b").assign(
                    "val",
                    FieldRule::Scalar(ValueExpr::ChildSyn {
                        item: 1,
                        field: "val".into(),
                    }),
                ),
                ItemSpec::child("c")
                    .assign("val", FieldRule::Scalar(ValueExpr::InhField("x".into()))),
            ]),
        )
        .unwrap();
        let aig = b.build().unwrap();
        let a = aig.elem("a").unwrap();
        // c (item 1) must be evaluated before b (item 0).
        assert_eq!(aig.elem_info(a).topo, vec![1, 0]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = tiny_builder();
        b.inh("list", vec![scalar("day")]).unwrap();
        b.inh("entry", vec![scalar("id")]).unwrap();
        let q = b.query("select t.id as id from DB1:items t").unwrap();
        let rule = b.auto_bind(q, "list").unwrap();
        b.prod(
            "list",
            ProdSpec::Items(vec![ItemSpec::star("entry", Generator::Query(rule))]),
        )
        .unwrap();
        // Assign a set expression to the scalar field `val`.
        b.prod(
            "entry",
            ProdSpec::Items(vec![
                ItemSpec::child("id").assign("val", FieldRule::Set(SetExpr::Empty))
            ]),
        )
        .unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, AigError::Spec(msg) if msg.contains("scalar")));
    }

    #[test]
    fn production_must_match_dtd() {
        let mut b = tiny_builder();
        b.inh("list", vec![scalar("day")]).unwrap();
        b.inh("entry", vec![scalar("id")]).unwrap();
        // `list` declared as entry* in the DTD but specified as a plain seq.
        b.prod(
            "list",
            ProdSpec::Items(vec![ItemSpec::child("entry")
                .assign("id", FieldRule::Scalar(ValueExpr::Const("x".into())))]),
        )
        .unwrap();
        b.prod(
            "entry",
            ProdSpec::Items(vec![ItemSpec::child("id")
                .assign("val", FieldRule::Scalar(ValueExpr::InhField("id".into())))]),
        )
        .unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, AigError::Spec(msg) if msg.contains("DTD")));
    }

    #[test]
    fn generator_must_cover_child_fields() {
        let mut b = tiny_builder();
        b.inh("list", vec![scalar("day")]).unwrap();
        b.inh("entry", vec![scalar("id"), scalar("extra")]).unwrap();
        let q = b
            .query("select t.id as id from DB1:items t where t.day = $day")
            .unwrap();
        let rule = b.auto_bind(q, "list").unwrap();
        b.prod(
            "list",
            ProdSpec::Items(vec![ItemSpec::star("entry", Generator::Query(rule))]),
        )
        .unwrap();
        b.prod(
            "entry",
            ProdSpec::Items(vec![ItemSpec::child("id")
                .assign("val", FieldRule::Scalar(ValueExpr::InhField("id".into())))]),
        )
        .unwrap();
        let err = b.build().unwrap_err();
        assert!(
            matches!(err, AigError::Spec(ref msg) if msg.contains("extra")),
            "{err}"
        );
    }
}
