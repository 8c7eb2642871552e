//! The AIG specification language: a concrete syntax for Fig. 2-style specs.
//!
//! ```text
//! aig hospital {
//!   dtd {
//!     <!ELEMENT report (patient*)>
//!     <!ELEMENT patient (SSN, pname)>
//!     <!ELEMENT SSN (#PCDATA)>
//!     <!ELEMENT pname (#PCDATA)>
//!   }
//!   elem report {
//!     inh(date);
//!     child patient* from sql { select p.SSN as SSN, p.pname as pname
//!                               from DB1:patient p where p.date = $date };
//!   }
//!   elem patient {
//!     inh(SSN, pname);
//!     child SSN { val = $SSN; }
//!     child pname { val = $pname; }
//!   }
//!   constraint report(patient.SSN -> patient);
//! }
//! ```
//!
//! * `inh(...)` / `syn(...)` declare attribute fields; `f: set(a, b)`
//!   declares a set-typed field.
//! * `child N { f = e; … }` specifies a sequence item; `child N* from GEN
//!   [bind { p = e; … }] [with { f = e; … }]` a starred item, where `GEN` is
//!   `sql { … }` or a set expression, `bind` overrides the automatic
//!   by-name parameter binding, and `with` gives broadcast assignments.
//! * `syn f = e;` gives a synthesized rule; `text = e;` the PCDATA rule.
//! * `case sql { … } { 1 => N { … } 2 => M { … } }` specifies a choice.
//! * Expressions: `$field`, `syn(child).field`, `collect(child.field)`,
//!   `union(e, …)`, `{ e, … }` (singleton), `empty`, `'literal'`, integers.
//! * PCDATA elements without an `elem` block get the default leaf spec
//!   (`inh(val)`, `syn(val)`, `text = $val`).

use crate::attrs::{FieldDecl, FieldType};
use crate::builder::{AigBuilder, BranchSpec, ItemSpec, ProdSpec};
use crate::error::AigError;
use crate::spec::{Aig, FieldRule, Generator, ParamSource, QueryRule, SetExpr, SynRule, ValueExpr};
use aig_relstore::Value;

/// Parses an AIG specification from DSL text.
pub fn parse_aig(src: &str) -> Result<Aig, AigError> {
    Parser::new(src).parse()
}

impl Aig {
    /// Parses an AIG specification from DSL text (see [`crate::parser`]).
    pub fn parse(src: &str) -> Result<Aig, AigError> {
        parse_aig(src)
    }
}

// ---------------------------------------------------------------------------
// Surface expressions (typed against the target field by `lower_*`)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Inh(String),
    Syn { child: String, field: String },
    Collect { child: String, field: String },
    Union(Vec<Expr>),
    Tuple(Vec<Expr>),
    Const(Value),
    Empty,
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser { src, pos: 0 }
    }

    fn line(&self) -> usize {
        self.src[..self.pos].bytes().filter(|&b| b == b'\n').count() + 1
    }

    fn err(&self, msg: impl Into<String>) -> AigError {
        AigError::Syntax {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        loop {
            while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.src[self.pos..].starts_with("//") {
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn eat(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), AigError> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    /// Eats a keyword only when followed by a non-identifier character.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(kw) {
            let after = self.src[self.pos + kw.len()..].chars().next();
            if !matches!(after, Some(c) if c.is_alphanumeric() || c == '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String, AigError> {
        self.skip_ws();
        let start = self.pos;
        for c in self.src[self.pos..].chars() {
            if c.is_alphanumeric() || c == '_' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    /// Captures raw text up to (not including) the next `}` at depth zero,
    /// used for `dtd { … }` and `sql { … }` blocks (neither contains braces).
    fn raw_block(&mut self) -> Result<String, AigError> {
        self.expect("{")?;
        let start = self.pos;
        match self.src[self.pos..].find('}') {
            Some(off) => {
                let text = self.src[start..start + off].to_string();
                self.pos = start + off + 1;
                Ok(text)
            }
            None => Err(self.err("unterminated `{ … }` block")),
        }
    }

    // -- Top level -----------------------------------------------------------

    fn parse(mut self) -> Result<Aig, AigError> {
        self.expect("aig")?;
        let name = self.ident()?;
        self.expect("{")?;
        self.expect("dtd")?;
        let dtd_text = self.raw_block()?;
        let mut builder = AigBuilder::new(name);
        builder.dtd_text(&dtd_text)?;
        // Two passes over the body: the first collects every element's
        // attribute declarations (rules may reference attributes of elements
        // declared later in the file), the second lowers the rules.
        let body_start = self.pos;
        for apply_rules in [false, true] {
            self.pos = body_start;
            loop {
                if self.eat_kw("elem") {
                    self.elem_block(&mut builder, apply_rules)?;
                } else if self.eat_kw("constraint") {
                    let start = self.pos;
                    let end = self.src[self.pos..]
                        .find(';')
                        .ok_or_else(|| self.err("expected `;` after constraint"))?;
                    let text = &self.src[start..start + end];
                    self.pos = start + end + 1;
                    if apply_rules {
                        builder.constraint_text(text)?;
                    }
                } else if self.eat("}") {
                    break;
                } else {
                    return Err(self.err("expected `elem`, `constraint`, or `}`"));
                }
            }
        }
        self.skip_ws();
        if self.pos < self.src.len() {
            return Err(self.err("unexpected trailing input"));
        }
        builder.build()
    }

    // -- elem blocks -----------------------------------------------------------

    fn elem_block(&mut self, builder: &mut AigBuilder, apply_rules: bool) -> Result<(), AigError> {
        let elem = self.ident()?;
        if !builder.declares(&elem) {
            return Err(self.err(format!("elem `{elem}`: the DTD declares no such element")));
        }
        self.expect("{")?;
        let mut items: Vec<RawItem> = Vec::new();
        let mut syn_rules: Vec<(String, Expr)> = Vec::new();
        let mut text_rule: Option<Expr> = None;
        let mut choice: Option<RawChoice> = None;
        let mut declared_empty = false;
        let (mut inh_declared, mut syn_declared) = (false, false);
        loop {
            if self.eat_kw("inh") {
                self.declare_once(&elem, &mut inh_declared, "inh")?;
                let fields = self.field_decls()?;
                builder.inh(&elem, fields)?;
                self.expect(";")?;
            } else if self.eat_kw("syn") {
                // Either a declaration `syn(...)` or a rule `syn f = e;`
                if self.peek_char() == Some('(') {
                    self.declare_once(&elem, &mut syn_declared, "syn")?;
                    let fields = self.field_decls()?;
                    builder.syn(&elem, fields)?;
                    self.expect(";")?;
                } else {
                    let field = self.ident()?;
                    self.expect("=")?;
                    let expr = self.expr()?;
                    self.expect(";")?;
                    syn_rules.push((field, expr));
                }
            } else if self.eat_kw("child") {
                items.push(self.child_decl()?);
            } else if self.eat_kw("text") {
                self.expect("=")?;
                text_rule = Some(self.expr()?);
                self.expect(";")?;
            } else if self.eat_kw("empty") {
                self.expect(";")?;
                declared_empty = true;
            } else if self.eat_kw("case") {
                choice = Some(self.case_decl()?);
            } else if self.eat("}") {
                break;
            } else {
                return Err(self.err(format!(
                    "in elem `{elem}`: expected `inh`, `syn`, `child`, `text`, `empty`, \
                     `case`, or `}}`"
                )));
            }
        }
        if !apply_rules {
            return Ok(());
        }
        self.finish_elem(
            builder,
            &elem,
            items,
            syn_rules,
            text_rule,
            choice,
            declared_empty,
        )
    }

    /// Marks `elem`'s `what(…)` declaration as made: an error if it was.
    fn declare_once(&self, elem: &str, declared: &mut bool, what: &str) -> Result<(), AigError> {
        if std::mem::replace(declared, true) {
            return Err(self.err(format!("elem `{elem}`: a second `{what}(…)` declaration")));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_elem(
        &mut self,
        builder: &mut AigBuilder,
        elem: &str,
        items: Vec<RawItem>,
        syn_rules: Vec<(String, Expr)>,
        text_rule: Option<Expr>,
        choice: Option<RawChoice>,
        declared_empty: bool,
    ) -> Result<(), AigError> {
        // The item list gives child-name → item-index resolution.
        let item_names: Vec<String> = items.iter().map(|i| i.child.clone()).collect();

        if let Some(raw) = choice {
            if !items.is_empty() || text_rule.is_some() || declared_empty {
                return Err(self.err(format!(
                    "elem `{elem}`: `case` cannot be combined with children/text/empty"
                )));
            }
            let cond = self.make_query_rule(builder, elem, &raw.sql, raw.binds, &item_names)?;
            let mut branches = Vec::with_capacity(raw.branches.len());
            for raw_branch in raw.branches {
                let mut spec = BranchSpec::new(&raw_branch.child);
                let branch_names = vec![raw_branch.child.clone()];
                for (field, expr) in raw_branch.assigns {
                    let rule = self.lower_rule(
                        builder,
                        elem,
                        &raw_branch.child,
                        &field,
                        expr,
                        &branch_names,
                        true,
                    )?;
                    spec = spec.assign(field, rule);
                }
                for (field, expr) in raw_branch.syn {
                    let rule = self.lower_syn_rule(builder, elem, &field, expr, &branch_names)?;
                    spec = spec.syn_rule(field, rule);
                }
                branches.push(spec);
            }
            builder.prod(elem, ProdSpec::Choice { cond, branches })?;
            if !syn_rules.is_empty() {
                return Err(self.err(format!(
                    "elem `{elem}`: synthesized rules of a choice go inside its branches"
                )));
            }
            return Ok(());
        }

        if let Some(expr) = text_rule {
            let value = self.lower_value(elem, &expr, &item_names)?;
            builder.text(elem, value)?;
        } else if declared_empty {
            builder.prod(elem, ProdSpec::Empty)?;
        } else if !items.is_empty() {
            let mut specs = Vec::with_capacity(items.len());
            for raw in &items {
                let mut spec = if raw.star {
                    let generator = match &raw.generator {
                        Some(RawGen::Sql(sql)) => Generator::Query(self.make_query_rule(
                            builder,
                            elem,
                            sql,
                            raw.binds.clone(),
                            &item_names,
                        )?),
                        Some(RawGen::Set(expr)) => Generator::Set(self.lower_set(
                            builder,
                            elem,
                            expr.clone(),
                            &item_names,
                        )?),
                        None => {
                            return Err(self.err(format!(
                                "elem `{elem}`: starred child `{}` needs `from …`",
                                raw.child
                            )))
                        }
                    };
                    ItemSpec::star(&raw.child, generator)
                } else {
                    ItemSpec::child(&raw.child)
                };
                for (field, expr) in &raw.assigns {
                    let rule = self.lower_rule(
                        builder,
                        elem,
                        &raw.child,
                        field,
                        expr.clone(),
                        &item_names,
                        true,
                    )?;
                    spec = spec.assign(field.clone(), rule);
                }
                specs.push(spec);
            }
            builder.prod(elem, ProdSpec::Items(specs))?;
        }
        // Synthesized rules.
        let mut rules = Vec::with_capacity(syn_rules.len());
        for (field, expr) in syn_rules {
            let rule = self.lower_syn_rule(builder, elem, &field, expr, &item_names)?;
            rules.push(SynRule { field, rule });
        }
        if !rules.is_empty() {
            builder.set_syn_rules(elem, rules)?;
        }
        Ok(())
    }

    fn field_decls(&mut self) -> Result<Vec<FieldDecl>, AigError> {
        self.expect("(")?;
        let mut fields = Vec::new();
        if self.eat(")") {
            return Ok(fields);
        }
        loop {
            let name = self.ident()?;
            let ty = if self.eat(":") {
                self.expect("set")?;
                self.expect("(")?;
                let mut components = vec![self.ident()?];
                while self.eat(",") {
                    components.push(self.ident()?);
                }
                self.expect(")")?;
                FieldType::Set(components)
            } else {
                FieldType::Scalar
            };
            fields.push(FieldDecl { name, ty });
            if self.eat(")") {
                break;
            }
            self.expect(",")?;
        }
        Ok(fields)
    }

    fn child_decl(&mut self) -> Result<RawItem, AigError> {
        let child = self.ident()?;
        let star = self.eat("*");
        let mut item = RawItem {
            child,
            star,
            generator: None,
            binds: Vec::new(),
            assigns: Vec::new(),
        };
        if self.eat_kw("from") {
            if !item.star {
                return Err(self.err(format!(
                    "child `{0}`: `from …` generates a starred child (`{0}*`)",
                    item.child
                )));
            }
            if self.eat_kw("sql") {
                item.generator = Some(RawGen::Sql(self.raw_block()?));
            } else {
                item.generator = Some(RawGen::Set(self.expr()?));
            }
        }
        if self.eat_kw("bind") {
            self.expect("{")?;
            while !self.eat("}") {
                let param = self.ident()?;
                self.expect("=")?;
                let expr = self.expr()?;
                self.expect(";")?;
                item.binds.push((param, expr));
            }
        }
        // `with { … }` for starred broadcast, or `{ … }` for plain children.
        let has_block = if item.star {
            self.eat_kw("with")
        } else {
            self.peek_char() == Some('{')
        };
        if has_block {
            self.expect("{")?;
            while !self.eat("}") {
                let field = self.ident()?;
                self.expect("=")?;
                let expr = self.expr()?;
                self.expect(";")?;
                item.assigns.push((field, expr));
            }
        }
        self.eat(";");
        Ok(item)
    }

    fn case_decl(&mut self) -> Result<RawChoice, AigError> {
        self.expect("sql")?;
        let sql = self.raw_block()?;
        let mut binds = Vec::new();
        if self.eat_kw("bind") {
            self.expect("{")?;
            while !self.eat("}") {
                let param = self.ident()?;
                self.expect("=")?;
                let expr = self.expr()?;
                self.expect(";")?;
                binds.push((param, expr));
            }
        }
        self.expect("{")?;
        let mut branches = Vec::new();
        let mut expected = 1i64;
        while !self.eat("}") {
            let number = self.int_literal()?;
            if number != expected {
                return Err(self.err(format!(
                    "choice branches must be numbered consecutively from 1; got {number}, \
                     expected {expected}"
                )));
            }
            expected += 1;
            self.expect("=>")?;
            let child = self.ident()?;
            self.expect("{")?;
            let mut assigns = Vec::new();
            let mut syn = Vec::new();
            while !self.eat("}") {
                if self.eat_kw("syn") {
                    let field = self.ident()?;
                    self.expect("=")?;
                    let expr = self.expr()?;
                    self.expect(";")?;
                    syn.push((field, expr));
                } else {
                    let field = self.ident()?;
                    self.expect("=")?;
                    let expr = self.expr()?;
                    self.expect(";")?;
                    assigns.push((field, expr));
                }
            }
            branches.push(RawBranch {
                child,
                assigns,
                syn,
            });
        }
        Ok(RawChoice {
            sql,
            binds,
            branches,
        })
    }

    fn int_literal(&mut self) -> Result<i64, AigError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an integer"));
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("integer out of range"))
    }

    // -- Expressions -----------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, AigError> {
        self.skip_ws();
        if self.eat("$") {
            return Ok(Expr::Inh(self.ident()?));
        }
        if self.eat_kw("syn") {
            self.expect("(")?;
            let child = self.ident()?;
            self.expect(")")?;
            self.expect(".")?;
            let field = self.ident()?;
            return Ok(Expr::Syn { child, field });
        }
        if self.eat_kw("collect") {
            self.expect("(")?;
            let child = self.ident()?;
            self.expect(".")?;
            let field = self.ident()?;
            self.expect(")")?;
            return Ok(Expr::Collect { child, field });
        }
        if self.eat_kw("union") {
            self.expect("(")?;
            let mut terms = vec![self.expr()?];
            while self.eat(",") {
                terms.push(self.expr()?);
            }
            self.expect(")")?;
            return Ok(Expr::Union(terms));
        }
        if self.eat_kw("empty") {
            return Ok(Expr::Empty);
        }
        if self.eat("{") {
            let mut parts = vec![self.expr()?];
            while self.eat(",") {
                parts.push(self.expr()?);
            }
            self.expect("}")?;
            return Ok(Expr::Tuple(parts));
        }
        if self.eat("'") {
            let start = self.pos;
            match self.src[self.pos..].find('\'') {
                Some(off) => {
                    let text = self.src[start..start + off].to_string();
                    self.pos = start + off + 1;
                    return Ok(Expr::Const(Value::str(text)));
                }
                None => return Err(self.err("unterminated string literal")),
            }
        }
        if self
            .peek_char()
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
        {
            return Ok(Expr::Const(Value::int(self.int_literal()?)));
        }
        Err(self.err("expected an expression"))
    }

    // -- Lowering (surface expr -> typed rules) ---------------------------------

    fn resolve_item(&self, items: &[String], child: &str) -> Result<usize, AigError> {
        items
            .iter()
            .position(|name| name == child)
            .ok_or_else(|| self.err(format!("reference to `{child}` which is not a child here")))
    }

    fn lower_value(
        &self,
        _elem: &str,
        expr: &Expr,
        items: &[String],
    ) -> Result<ValueExpr, AigError> {
        match expr {
            Expr::Inh(name) => Ok(ValueExpr::InhField(name.clone())),
            Expr::Syn { child, field } => Ok(ValueExpr::ChildSyn {
                item: self.resolve_item(items, child)?,
                field: field.clone(),
            }),
            Expr::Const(v) => Ok(ValueExpr::Const(v.clone())),
            other => Err(self.err(format!(
                "expected a scalar expression, found a set construct ({other:?})"
            ))),
        }
    }

    fn lower_set(
        &self,
        _builder: &AigBuilder,
        elem: &str,
        expr: Expr,
        items: &[String],
    ) -> Result<SetExpr, AigError> {
        match expr {
            Expr::Inh(name) => Ok(SetExpr::InhField(name)),
            Expr::Syn { child, field } => Ok(SetExpr::ChildSyn {
                item: self.resolve_item(items, &child)?,
                field,
            }),
            Expr::Collect { child, field } => Ok(SetExpr::Collect {
                item: self.resolve_item(items, &child)?,
                field,
            }),
            Expr::Union(terms) => Ok(SetExpr::Union(
                terms
                    .into_iter()
                    .map(|t| self.lower_set(_builder, elem, t, items))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Tuple(parts) => Ok(SetExpr::Singleton(
                parts
                    .iter()
                    .map(|p| self.lower_value(elem, p, items))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Empty => Ok(SetExpr::Empty),
            Expr::Const(_) => Err(self
                .err("a bare literal is scalar; wrap it in { … } for a singleton set".to_string())),
        }
    }

    /// Lowers an assignment `field = expr` against the target field's type.
    #[allow(clippy::too_many_arguments)]
    fn lower_rule(
        &self,
        builder: &AigBuilder,
        elem: &str,
        target_elem: &str,
        target_field: &str,
        expr: Expr,
        items: &[String],
        target_is_inh: bool,
    ) -> Result<FieldRule, AigError> {
        let scalar = builder
            .field_type(target_elem, target_field, target_is_inh)
            .ok_or_else(|| {
                self.err(format!(
                    "`{target_elem}` has no {} field `{target_field}`",
                    if target_is_inh {
                        "inherited"
                    } else {
                        "synthesized"
                    }
                ))
            })?
            .is_scalar();
        if scalar {
            Ok(FieldRule::Scalar(self.lower_value(elem, &expr, items)?))
        } else {
            Ok(FieldRule::Set(self.lower_set(builder, elem, expr, items)?))
        }
    }

    fn lower_syn_rule(
        &self,
        builder: &AigBuilder,
        elem: &str,
        field: &str,
        expr: Expr,
        items: &[String],
    ) -> Result<FieldRule, AigError> {
        self.lower_rule(builder, elem, elem, field, expr, items, false)
    }

    fn make_query_rule(
        &self,
        builder: &mut AigBuilder,
        elem: &str,
        sql: &str,
        binds: Vec<(String, Expr)>,
        items: &[String],
    ) -> Result<QueryRule, AigError> {
        let query = builder.query(sql)?;
        let mut params: Vec<(String, ParamSource)> = Vec::new();
        for (param, expr) in binds {
            let source = match expr {
                Expr::Inh(name) => ParamSource::InhField(name),
                Expr::Syn { child, field } => ParamSource::ChildSyn {
                    item: self.resolve_item(items, &child)?,
                    field,
                },
                Expr::Const(v) => ParamSource::Const(v),
                other => {
                    return Err(self.err(format!(
                        "query parameters bind to $field, syn(child).field, or literals \
                         (found {other:?})"
                    )))
                }
            };
            params.push((param, source));
        }
        // Remaining query parameters auto-bind to like-named inherited fields.
        let needed: Vec<String> = builder
            .query_params(query)
            .into_iter()
            .filter(|p| !params.iter().any(|(name, _)| name == p))
            .collect();
        for name in needed {
            if builder.field_type(elem, &name, true).is_some() {
                params.push((name.clone(), ParamSource::InhField(name)));
            } else {
                return Err(self.err(format!(
                    "cannot bind query parameter `${name}` in elem `{elem}`: no inherited \
                     field of that name and no explicit `bind`"
                )));
            }
        }
        Ok(QueryRule { query, params })
    }
}

// Raw (pre-resolution) pieces.
#[derive(Debug)]
struct RawItem {
    child: String,
    star: bool,
    generator: Option<RawGen>,
    binds: Vec<(String, Expr)>,
    assigns: Vec<(String, Expr)>,
}

#[derive(Debug)]
enum RawGen {
    Sql(String),
    Set(Expr),
}

#[derive(Debug)]
struct RawChoice {
    sql: String,
    binds: Vec<(String, Expr)>,
    branches: Vec<RawBranch>,
}

#[derive(Debug)]
struct RawBranch {
    child: String,
    assigns: Vec<(String, Expr)>,
    syn: Vec<(String, Expr)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use aig_relstore::{Catalog, Database, Table, TableSchema};
    use aig_xml::serialize::to_string;

    fn items_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut db = Database::new("DB1");
        let mut t = Table::new(TableSchema::strings("items", &["id", "day"], &[]));
        for (id, day) in [("i1", "mon"), ("i2", "mon"), ("i3", "tue")] {
            t.insert(vec![Value::str(id), Value::str(day)]).unwrap();
        }
        db.add_table(t).unwrap();
        c.add_source(db).unwrap();
        c
    }

    #[test]
    fn parse_and_evaluate_simple_spec() {
        let aig = parse_aig(
            r#"
            aig demo {
              dtd {
                <!ELEMENT list (entry*)>
                <!ELEMENT entry (id)>
                <!ELEMENT id (#PCDATA)>
              }
              elem list {
                inh(day);
                child entry* from sql { select t.id as id from DB1:items t
                                        where t.day = $day };
              }
              elem entry {
                inh(id);
                child id { val = $id; }
              }
            }
            "#,
        )
        .unwrap();
        assert_eq!(aig.name, "demo");
        let result = evaluate(&aig, &items_catalog(), &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(
            to_string(&result.tree),
            "<list><entry><id>i1</id></entry><entry><id>i2</id></entry></list>"
        );
    }

    #[test]
    fn parse_syn_rules_and_set_flow() {
        let aig = parse_aig(
            r#"
            aig flow {
              dtd {
                <!ELEMENT doc (left, right)>
                <!ELEMENT left (id*)>
                <!ELEMENT right (id*)>
                <!ELEMENT id (#PCDATA)>
              }
              elem doc {
                inh(day);
                child left { day = $day; }
                child right { ids = syn(left).ids; }
              }
              elem left {
                inh(day);
                syn(ids: set(val));
                child id* from sql { select t.id as val from DB1:items t
                                     where t.day = $day };
                syn ids = collect(id.val);
              }
              elem right {
                inh(ids: set(val));
                child id* from $ids;
              }
            }
            "#,
        )
        .unwrap();
        let result = evaluate(&aig, &items_catalog(), &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(
            to_string(&result.tree),
            "<doc><left><id>i1</id><id>i2</id></left>\
<right><id>i1</id><id>i2</id></right></doc>"
        );
    }

    #[test]
    fn parse_choice_case() {
        let aig = parse_aig(
            r#"
            aig pick {
              dtd {
                <!ELEMENT doc (a | b)>
                <!ELEMENT a (#PCDATA)>
                <!ELEMENT b EMPTY>
              }
              elem doc {
                inh(day);
                case sql { select distinct 1 as pick from DB1:items t where t.day = $day } {
                  1 => a { val = 'found'; }
                  2 => b { }
                }
              }
              elem b { empty; }
            }
            "#,
        )
        .unwrap();
        let result = evaluate(&aig, &items_catalog(), &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(to_string(&result.tree), "<doc><a>found</a></doc>");
    }

    #[test]
    fn parse_constraints() {
        let aig = parse_aig(
            r#"
            aig constrained {
              dtd {
                <!ELEMENT list (entry*)>
                <!ELEMENT entry (id)>
                <!ELEMENT id (#PCDATA)>
              }
              elem list {
                inh(day);
                child entry* from sql { select t.id as id from DB1:items t
                                        where t.day = $day };
              }
              elem entry {
                inh(id);
                child id { val = $id; }
              }
              constraint list(entry.id -> entry);
            }
            "#,
        )
        .unwrap();
        assert_eq!(aig.constraints.len(), 1);
    }

    #[test]
    fn parse_bind_and_with() {
        let aig = parse_aig(
            r#"
            aig binds {
              dtd {
                <!ELEMENT list (entry*)>
                <!ELEMENT entry (id, tag)>
                <!ELEMENT id (#PCDATA)>
                <!ELEMENT tag (#PCDATA)>
              }
              elem list {
                inh(today);
                child entry* from sql { select t.id as id from DB1:items t
                                        where t.day = $day }
                  bind { day = $today; }
                  with { tag = 'fixed'; };
              }
              elem entry {
                inh(id, tag);
                child id { val = $id; }
                child tag { val = $tag; }
              }
            }
            "#,
        )
        .unwrap();
        let result = evaluate(&aig, &items_catalog(), &[("today", Value::str("tue"))]).unwrap();
        assert_eq!(
            to_string(&result.tree),
            "<list><entry><id>i3</id><tag>fixed</tag></entry></list>"
        );
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_aig("aig x {\n  dtd { <!ELEMENT a EMPTY> }\n  bogus\n}").unwrap_err();
        match err {
            AigError::Syntax { line, .. } => assert_eq!(line, 3),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_child_reference_rejected() {
        let err = parse_aig(
            r#"
            aig bad {
              dtd {
                <!ELEMENT doc (x)>
                <!ELEMENT x (#PCDATA)>
              }
              elem doc {
                inh(day);
                child x { val = syn(nonexistent).v; }
              }
            }
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, AigError::Syntax { .. }), "{err:?}");
    }

    /// The line a malformed spec's error names.
    fn error_line(src: &str) -> usize {
        match parse_aig(src).unwrap_err() {
            AigError::Syntax { line, .. } => line,
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    const DTD: &str = "aig bad {\n  dtd { <!ELEMENT a (b)> <!ELEMENT b (#PCDATA)> }\n";

    #[test]
    fn an_elem_block_for_an_undeclared_element_is_rejected() {
        let src =
            format!("{DTD}  elem a {{ inh(v); child b {{ val = $v; }} }}\n  elem zz {{ }}\n}}");
        assert_eq!(error_line(&src), 4);
    }

    #[test]
    fn a_second_inh_or_syn_declaration_is_rejected() {
        let src = format!(
            "{DTD}  elem a {{\n    inh(v);\n    inh(v);\n    child b {{ val = $v; }}\n  }}\n}}"
        );
        assert_eq!(error_line(&src), 5);
        let src =
            format!("{DTD}  elem a {{ inh(v); syn(w);\n    syn(w); child b {{ val = $v; }} }}\n}}");
        assert_eq!(error_line(&src), 4);
    }

    #[test]
    fn a_generator_on_a_plain_child_is_rejected() {
        let src = format!(
            "{DTD}  elem a {{\n    inh(v);\n    child b from sql {{ this is not sql at all }} {{ val = $v; }}\n  }}\n}}"
        );
        assert_eq!(error_line(&src), 5);
    }
}
