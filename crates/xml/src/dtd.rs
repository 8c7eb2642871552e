//! DTDs: general `<!ELEMENT ...>` declarations, the paper's restricted
//! production forms, and the linear-time normalization between them.
//!
//! The paper (§2) represents a DTD as `D = (Ele, P, r)` where each production
//! `P(A)` has one of the restricted forms
//!
//! ```text
//! α ::= S | ε | B1, …, Bn | B1 + … + Bn | B*
//! ```
//!
//! and notes that a DTD with general regular-expression content models can be
//! converted to this form in linear time by introducing *entities* — here
//! realized as synthetic element types whose names start with `"_e"` — such
//! that documents convert back and forth by adding/stripping the synthetic
//! wrapper elements.

use crate::error::XmlError;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of an element type inside a [`Dtd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub u32);

impl ElemId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A general regular-expression content model, as written in a DTD
/// declaration. `#PCDATA` is modeled as [`Regex::Pcdata`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// The empty word (declared as `EMPTY`).
    Epsilon,
    /// `#PCDATA` — a single text node.
    Pcdata,
    /// A reference to an element type by name.
    Elem(String),
    /// Concatenation `(r1, r2, …)`.
    Seq(Vec<Regex>),
    /// Disjunction `(r1 | r2 | …)`.
    Choice(Vec<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
    /// One-or-more `r+`.
    Plus(Box<Regex>),
    /// Zero-or-one `r?`.
    Opt(Box<Regex>),
}

impl Regex {
    /// All element-type names referenced by this regex.
    pub fn referenced(&self, out: &mut Vec<String>) {
        match self {
            Regex::Epsilon | Regex::Pcdata => {}
            Regex::Elem(name) => out.push(name.clone()),
            Regex::Seq(items) | Regex::Choice(items) => {
                for item in items {
                    item.referenced(out);
                }
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner) => inner.referenced(out),
        }
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Epsilon => write!(f, "EMPTY"),
            Regex::Pcdata => write!(f, "(#PCDATA)"),
            Regex::Elem(name) => write!(f, "{name}"),
            Regex::Seq(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Regex::Choice(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Regex::Star(inner) => write!(f, "{inner}*"),
            Regex::Plus(inner) => write!(f, "{inner}+"),
            Regex::Opt(inner) => write!(f, "{inner}?"),
        }
    }
}

/// A production in the paper's restricted form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `A → S`: a single text node (PCDATA).
    Pcdata,
    /// `A → ε`: no children.
    Empty,
    /// `A → B1, …, Bn`: exactly one child of each listed type, in order.
    Seq(Vec<ElemId>),
    /// `A → B1 + … + Bn`: exactly one child, of one of the listed types.
    Choice(Vec<ElemId>),
    /// `A → B*`: zero or more children of the given type.
    Star(ElemId),
}

impl ContentModel {
    /// Element types that occur in this production.
    pub fn children(&self) -> Vec<ElemId> {
        match self {
            ContentModel::Pcdata | ContentModel::Empty => Vec::new(),
            ContentModel::Seq(items) | ContentModel::Choice(items) => items.clone(),
            ContentModel::Star(b) => vec![*b],
        }
    }
}

/// A DTD in restricted form: a set of element types, a production per type,
/// and a distinguished root type.
#[derive(Debug, Clone)]
pub struct Dtd {
    names: Vec<String>,
    by_name: HashMap<String, ElemId>,
    prods: Vec<ContentModel>,
    root: ElemId,
}

impl Dtd {
    /// The root element type.
    #[inline]
    pub fn root(&self) -> ElemId {
        self.root
    }

    /// Number of element types.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the DTD declares no element types (never the case for a
    /// successfully built DTD, which always has a root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of an element type.
    #[inline]
    pub fn name(&self, id: ElemId) -> &str {
        &self.names[id.index()]
    }

    /// Looks up an element type by name.
    #[inline]
    pub fn elem(&self, name: &str) -> Option<ElemId> {
        self.by_name.get(name).copied()
    }

    /// The production of an element type.
    #[inline]
    pub fn production(&self, id: ElemId) -> &ContentModel {
        &self.prods[id.index()]
    }

    /// Iterates over all element types.
    pub fn elements(&self) -> impl Iterator<Item = ElemId> {
        (0..self.names.len() as u32).map(ElemId)
    }

    /// True if `name` is a synthetic entity type introduced by normalization.
    pub fn is_synthetic(name: &str) -> bool {
        name.starts_with("_e")
    }

    /// The element-type graph: for each type, the types of its possible
    /// children. Useful for reachability analyses.
    pub fn child_map(&self) -> Vec<Vec<ElemId>> {
        self.prods.iter().map(|p| p.children()).collect()
    }

    /// True if the DTD is recursive, i.e. some element type can (transitively)
    /// contain itself.
    pub fn is_recursive(&self) -> bool {
        // DFS cycle detection over the child map.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let map = self.child_map();
        let mut marks = vec![Mark::White; self.len()];
        fn visit(id: usize, map: &[Vec<ElemId>], marks: &mut [Mark]) -> bool {
            marks[id] = Mark::Grey;
            for &c in &map[id] {
                match marks[c.index()] {
                    Mark::Grey => return true,
                    Mark::White => {
                        if visit(c.index(), map, marks) {
                            return true;
                        }
                    }
                    Mark::Black => {}
                }
            }
            marks[id] = Mark::Black;
            false
        }
        for id in 0..self.len() {
            if marks[id] == Mark::White && visit(id, &map, &mut marks) {
                return true;
            }
        }
        false
    }

    /// Writes a deterministic textual form of the DTD to `out`: element
    /// names in id order, each with its production, then the root id. Two
    /// structurally equal DTDs render identically even when built
    /// separately, so the text is safe to hash for structural fingerprints
    /// (unlike the derived `Debug` form, whose `HashMap` iteration order is
    /// instance-specific).
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for (id, name) in self.names.iter().enumerate() {
            write!(out, "{name}={:?};", self.prods[id])?;
        }
        write!(out, "root={}", self.root.index())
    }

    /// Renders the DTD as `<!ELEMENT ...>` declarations.
    pub fn to_dtd_string(&self) -> String {
        let mut out = String::new();
        for id in self.elements() {
            let body = match self.production(id) {
                ContentModel::Pcdata => "(#PCDATA)".to_string(),
                ContentModel::Empty => "EMPTY".to_string(),
                ContentModel::Seq(items) => format!(
                    "({})",
                    items
                        .iter()
                        .map(|&b| self.name(b))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                ContentModel::Choice(items) => format!(
                    "({})",
                    items
                        .iter()
                        .map(|&b| self.name(b))
                        .collect::<Vec<_>>()
                        .join(" | ")
                ),
                ContentModel::Star(b) => format!("({}*)", self.name(*b)),
            };
            out.push_str(&format!("<!ELEMENT {} {}>\n", self.name(id), body));
        }
        out
    }
}

/// Incremental builder for restricted-form DTDs.
///
/// ```
/// use aig_xml::dtd::{DtdBuilder, ContentModel};
/// let mut b = DtdBuilder::new();
/// b.seq("report", &["patient"]);
/// b.pcdata("patient");
/// let dtd = b.build("report").unwrap();
/// assert_eq!(dtd.name(dtd.root()), "report");
/// ```
#[derive(Debug, Default)]
pub struct DtdBuilder {
    names: Vec<String>,
    by_name: HashMap<String, ElemId>,
    // Productions written in terms of names; resolved in `build`.
    prods: HashMap<String, RawProd>,
    decl_order: Vec<String>,
}

#[derive(Debug, Clone)]
enum RawProd {
    Pcdata,
    Empty,
    Seq(Vec<String>),
    Choice(Vec<String>),
    Star(String),
}

impl DtdBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, prod: RawProd) -> &mut Self {
        if !self.prods.contains_key(name) {
            self.decl_order.push(name.to_string());
        }
        self.prods.insert(name.to_string(), prod);
        self
    }

    /// Declares `name → S`.
    pub fn pcdata(&mut self, name: &str) -> &mut Self {
        self.declare(name, RawProd::Pcdata)
    }

    /// Declares `name → ε`.
    pub fn empty(&mut self, name: &str) -> &mut Self {
        self.declare(name, RawProd::Empty)
    }

    /// Declares `name → b1, …, bn`.
    pub fn seq(&mut self, name: &str, children: &[&str]) -> &mut Self {
        self.declare(
            name,
            RawProd::Seq(children.iter().map(|s| s.to_string()).collect()),
        )
    }

    /// Declares `name → b1 + … + bn`.
    pub fn choice(&mut self, name: &str, branches: &[&str]) -> &mut Self {
        self.declare(
            name,
            RawProd::Choice(branches.iter().map(|s| s.to_string()).collect()),
        )
    }

    /// Declares `name → b*`.
    pub fn star(&mut self, name: &str, child: &str) -> &mut Self {
        self.declare(name, RawProd::Star(child.to_string()))
    }

    fn intern(&mut self, name: &str) -> ElemId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ElemId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Finalizes the DTD with the given root type. Every referenced element
    /// type must have been declared.
    pub fn build(mut self, root: &str) -> Result<Dtd, XmlError> {
        if !self.prods.contains_key(root) {
            return Err(XmlError::UndeclaredElement(root.to_string()));
        }
        // Intern in declaration order so ids are stable and readable.
        let order = self.decl_order.clone();
        for name in &order {
            self.intern(name);
        }
        let mut prods = vec![ContentModel::Empty; self.names.len()];
        for name in &order {
            let raw = self.prods[name].clone();
            let id = self.by_name[name];
            let resolve = |b: &str, slf: &Self| -> Result<ElemId, XmlError> {
                slf.by_name
                    .get(b)
                    .copied()
                    .ok_or_else(|| XmlError::UndeclaredElement(b.to_string()))
            };
            prods[id.index()] = match raw {
                RawProd::Pcdata => ContentModel::Pcdata,
                RawProd::Empty => ContentModel::Empty,
                RawProd::Seq(children) => ContentModel::Seq(
                    children
                        .iter()
                        .map(|b| resolve(b, &self))
                        .collect::<Result<_, _>>()?,
                ),
                RawProd::Choice(branches) => ContentModel::Choice(
                    branches
                        .iter()
                        .map(|b| resolve(b, &self))
                        .collect::<Result<_, _>>()?,
                ),
                RawProd::Star(child) => ContentModel::Star(resolve(&child, &self)?),
            };
        }
        let root = self.by_name[root];
        Ok(Dtd {
            names: self.names,
            by_name: self.by_name,
            prods,
            root,
        })
    }
}

// ---------------------------------------------------------------------------
// Parsing of <!ELEMENT ...> declarations (general regex content models)
// ---------------------------------------------------------------------------

/// Deepest content-model nesting [`GeneralDtd::parse`] accepts, counting
/// parentheses and postfix operators alike; a deeper model is an
/// [`XmlError::DtdSyntax`]. Every pass over a parsed model
/// ([`Regex::referenced`], normalization, drop) recurses once per level, so
/// the cap bounds them all.
pub const MAX_MODEL_DEPTH: usize = 1_000;

/// A DTD with general regular-expression content models, as parsed from
/// `<!ELEMENT ...>` text. Normalize with [`GeneralDtd::normalize`] to obtain
/// the restricted form used everywhere else.
#[derive(Debug, Clone)]
pub struct GeneralDtd {
    /// Declarations in source order: `(name, content model)`.
    pub decls: Vec<(String, Regex)>,
    /// Root element type (the first declared type unless overridden).
    pub root: String,
}

struct DtdParser<'a> {
    src: &'a [u8],
    pos: usize,
    /// The content-model groups open at `pos`, innermost last; the first is
    /// the whole model. Kept across declarations so its buffer is reused.
    open: Vec<Group>,
}

/// A content-model group being read: the terms before its last separator,
/// the tallest of their heights, and the separator (`,` or `|`) itself.
#[derive(Default)]
struct Group {
    terms: Vec<Regex>,
    height: usize,
    sep: Option<u8>,
}

impl<'a> DtdParser<'a> {
    fn new(src: &'a str) -> Self {
        DtdParser {
            src: src.as_bytes(),
            pos: 0,
            open: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::DtdSyntax {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'<' && self.src[self.pos..].starts_with(b"<!--") {
                // Skip comments.
                match self.src[self.pos..].windows(3).position(|w| w == b"-->") {
                    Some(off) => self.pos += off + 3,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), XmlError> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn parse(&mut self) -> Result<GeneralDtd, XmlError> {
        let mut decls: Vec<(String, Regex)> = Vec::new();
        loop {
            self.skip_ws();
            if self.pos >= self.src.len() {
                break;
            }
            self.expect("<!ELEMENT")?;
            self.skip_ws();
            let name = self.name()?;
            self.skip_ws();
            let model = if self.eat("EMPTY") {
                Regex::Epsilon
            } else {
                self.model()?
            };
            self.skip_ws();
            self.expect(">")?;
            decls.push((name, model));
        }
        if decls.is_empty() {
            return Err(self.err("empty DTD"));
        }
        let root = decls[0].0.clone();
        Ok(GeneralDtd { decls, root })
    }

    /// ```text
    /// model := term (',' term)* | term ('|' term)*
    /// term  := ('(' model ')' | '#PCDATA' | name) ('*' | '+' | '?')*
    /// ```
    ///
    /// Read with a stack of open groups instead of recursion, so nesting
    /// costs heap, not call stack; every term carries its height, so
    /// [`MAX_MODEL_DEPTH`] bounds postfix chains as well as parentheses.
    fn model(&mut self) -> Result<Regex, XmlError> {
        self.open.clear();
        self.open.push(Group::default());
        loop {
            self.skip_ws();
            if self.eat("(") {
                if self.open.len() > MAX_MODEL_DEPTH {
                    return Err(self.too_deep());
                }
                self.open.push(Group::default());
                continue;
            }
            let mut term = if self.eat("#PCDATA") {
                (Regex::Pcdata, 1)
            } else {
                (Regex::Elem(self.name()?), 1)
            };
            // Close every group the term ends, innermost first, until a
            // separator continues one.
            loop {
                term = self.postfix(term)?;
                self.skip_ws();
                let inner = self.open.last_mut().expect("the outermost group is open");
                let next = self.src.get(self.pos).copied();
                let continues =
                    |b: u8| (b == b',' || b == b'|') && inner.sep.is_none_or(|s| s == b);
                if let Some(b) = next.filter(|&b| continues(b)) {
                    let (regex, height) = term;
                    inner.sep = Some(b);
                    inner.height = inner.height.max(height);
                    inner.terms.push(regex);
                    self.pos += 1;
                    break;
                }
                let inner = self.open.pop().expect("the outermost group is open");
                term = self.close(inner, term)?;
                if self.open.is_empty() {
                    return Ok(term.0);
                }
                self.expect(")")?;
            }
        }
    }

    /// `term` under the postfix operators that follow it, each one level.
    fn postfix(&mut self, term: (Regex, usize)) -> Result<(Regex, usize), XmlError> {
        let (mut regex, mut height) = term;
        loop {
            let wrap: fn(Box<Regex>) -> Regex = match self.src.get(self.pos) {
                Some(b'*') => Regex::Star,
                Some(b'+') => Regex::Plus,
                Some(b'?') => Regex::Opt,
                _ => return Ok((regex, height)),
            };
            self.pos += 1;
            height += 1;
            if height > MAX_MODEL_DEPTH {
                return Err(self.too_deep());
            }
            regex = wrap(Box::new(regex));
        }
    }

    /// A finished group, `last` its final term, as one term: its terms
    /// joined by its separator, or `last` alone.
    fn close(&self, group: Group, last: (Regex, usize)) -> Result<(Regex, usize), XmlError> {
        let Some(sep) = group.sep else {
            return Ok(last);
        };
        let height = 1 + group.height.max(last.1);
        if height > MAX_MODEL_DEPTH {
            return Err(self.too_deep());
        }
        let mut items = group.terms;
        items.push(last.0);
        let regex = match sep {
            b',' => Regex::Seq(items),
            _ => Regex::Choice(items),
        };
        Ok((regex, height))
    }

    fn too_deep(&self) -> XmlError {
        self.err(format!(
            "content model nested deeper than {MAX_MODEL_DEPTH} levels"
        ))
    }
}

impl GeneralDtd {
    /// Parses a sequence of `<!ELEMENT name (model)>` declarations. The first
    /// declared element type becomes the root.
    pub fn parse(src: &str) -> Result<GeneralDtd, XmlError> {
        let dtd = DtdParser::new(src).parse()?;
        // Each name is declared once, and every referenced name is declared.
        let mut declared: HashSet<&str> = HashSet::with_capacity(dtd.decls.len());
        for (name, _) in &dtd.decls {
            if !declared.insert(name) {
                return Err(XmlError::DuplicateElement(name.clone()));
            }
        }
        for (_, model) in &dtd.decls {
            let mut refs = Vec::new();
            model.referenced(&mut refs);
            for r in refs {
                if !declared.contains(r.as_str()) {
                    return Err(XmlError::UndeclaredElement(r));
                }
            }
        }
        Ok(dtd)
    }

    /// Normalizes general content models into the restricted forms of the
    /// paper by introducing synthetic entity element types (`_e0`, `_e1`, …).
    ///
    /// Any document conforming to the normalized DTD converts to one
    /// conforming to the original by stripping the synthetic wrappers
    /// ([`XmlTree::strip_elements`] with [`Dtd::is_synthetic`]); see the
    /// property tests.
    ///
    /// [`XmlTree::strip_elements`]: crate::tree::XmlTree::strip_elements
    pub fn normalize(&self) -> Result<Normalized, XmlError> {
        let mut norm = Normalizer {
            builder: DtdBuilder::new(),
            counter: 0,
        };
        for (name, model) in &self.decls {
            norm.lower_decl(name, model);
        }
        let dtd = norm.builder.build(&self.root)?;
        Ok(Normalized { dtd })
    }
}

/// Result of DTD normalization: a restricted-form [`Dtd`] in which synthetic
/// entity types satisfy [`Dtd::is_synthetic`].
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The restricted-form DTD (synthetic types included).
    pub dtd: Dtd,
}

struct Normalizer {
    builder: DtdBuilder,
    counter: usize,
}

impl Normalizer {
    fn fresh(&mut self) -> String {
        let name = format!("_e{}", self.counter);
        self.counter += 1;
        name
    }

    /// Lowers `model` as the production of element `name`.
    fn lower_decl(&mut self, name: &str, model: &Regex) {
        match model {
            Regex::Epsilon => {
                self.builder.empty(name);
            }
            Regex::Pcdata => {
                self.builder.pcdata(name);
            }
            Regex::Elem(b) => {
                // A → b is a one-element sequence.
                self.builder.seq(name, &[b]);
            }
            Regex::Seq(items) => {
                let children: Vec<String> =
                    items.iter().map(|item| self.lower_to_elem(item)).collect();
                let refs: Vec<&str> = children.iter().map(|s| s.as_str()).collect();
                self.builder.seq(name, &refs);
            }
            Regex::Choice(items) => {
                let branches: Vec<String> =
                    items.iter().map(|item| self.lower_to_elem(item)).collect();
                let refs: Vec<&str> = branches.iter().map(|s| s.as_str()).collect();
                self.builder.choice(name, &refs);
            }
            Regex::Star(inner) => {
                let child = self.lower_to_elem(inner);
                self.builder.star(name, &child);
            }
            Regex::Plus(inner) => {
                // A → r+  ≡  A → first, rest ; rest → r*
                let child = self.lower_to_elem(inner);
                let rest = self.fresh();
                self.builder.star(&rest, &child);
                self.builder.seq(name, &[&child, &rest]);
            }
            Regex::Opt(inner) => {
                // A → r?  ≡  A → some + none ; some → r ; none → ε
                let some = self.fresh();
                self.lower_decl(&some, inner);
                let none = self.fresh();
                self.builder.empty(&none);
                self.builder.choice(name, &[&some, &none]);
            }
        }
    }

    /// Lowers a sub-regex to a single element-type name, introducing a
    /// synthetic wrapper type when the sub-regex is not already an element
    /// reference.
    fn lower_to_elem(&mut self, regex: &Regex) -> String {
        if let Regex::Elem(name) = regex {
            return name.clone();
        }
        let wrapper = self.fresh();
        self.lower_decl(&wrapper, regex);
        wrapper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper (Example 1.1).
    pub(crate) const HOSPITAL_DTD: &str = r#"
        <!ELEMENT report (patient*)>
        <!ELEMENT patient (SSN, pname, treatments, bill)>
        <!ELEMENT treatments (treatment*)>
        <!ELEMENT treatment (trId, tname, procedure)>
        <!ELEMENT procedure (treatment*)>
        <!ELEMENT bill (item*)>
        <!ELEMENT item (trId, price)>
        <!ELEMENT SSN (#PCDATA)>
        <!ELEMENT pname (#PCDATA)>
        <!ELEMENT trId (#PCDATA)>
        <!ELEMENT tname (#PCDATA)>
        <!ELEMENT price (#PCDATA)>
    "#;

    #[test]
    fn parse_hospital_dtd() {
        let general = GeneralDtd::parse(HOSPITAL_DTD).unwrap();
        assert_eq!(general.root, "report");
        assert_eq!(general.decls.len(), 12);
        let norm = general.normalize().unwrap();
        let dtd = &norm.dtd;
        // No synthetic types needed: all productions already restricted.
        assert_eq!(dtd.len(), 12);
        let report = dtd.elem("report").unwrap();
        match dtd.production(report) {
            ContentModel::Star(p) => assert_eq!(dtd.name(*p), "patient"),
            other => panic!("unexpected production {other:?}"),
        }
        let patient = dtd.elem("patient").unwrap();
        match dtd.production(patient) {
            ContentModel::Seq(items) => {
                let names: Vec<&str> = items.iter().map(|&b| dtd.name(b)).collect();
                assert_eq!(names, vec!["SSN", "pname", "treatments", "bill"]);
            }
            other => panic!("unexpected production {other:?}"),
        }
        assert!(dtd.is_recursive());
    }

    #[test]
    fn parse_rejects_duplicates_and_undeclared() {
        let err = GeneralDtd::parse("<!ELEMENT a (b)> <!ELEMENT a (#PCDATA)>").unwrap_err();
        assert!(matches!(err, XmlError::DuplicateElement(name) if name == "a"));
        let err = GeneralDtd::parse("<!ELEMENT a (b)>").unwrap_err();
        assert!(matches!(err, XmlError::UndeclaredElement(name) if name == "b"));
    }

    #[test]
    fn parse_skips_comments() {
        let src = "<!-- top --><!ELEMENT a (#PCDATA)><!-- tail -->";
        let dtd = GeneralDtd::parse(src).unwrap();
        assert_eq!(dtd.decls.len(), 1);
    }

    #[test]
    fn normalize_introduces_entities_for_nested_regex() {
        let general =
            GeneralDtd::parse("<!ELEMENT a (b, (c | d)*, e?)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> <!ELEMENT d (#PCDATA)> <!ELEMENT e (#PCDATA)>")
                .unwrap();
        let norm = general.normalize().unwrap();
        let dtd = &norm.dtd;
        let a = dtd.elem("a").unwrap();
        let ContentModel::Seq(items) = dtd.production(a) else {
            panic!("a should be a sequence");
        };
        assert_eq!(items.len(), 3);
        // Second item: synthetic star over synthetic choice(c, d).
        let star = items[1];
        assert!(Dtd::is_synthetic(dtd.name(star)));
        let ContentModel::Star(choice) = dtd.production(star) else {
            panic!("expected star");
        };
        let ContentModel::Choice(branches) = dtd.production(*choice) else {
            panic!("expected choice under star");
        };
        let names: Vec<&str> = branches.iter().map(|&b| dtd.name(b)).collect();
        assert_eq!(names, vec!["c", "d"]);
        // Third item: synthetic optional = choice(some, none).
        let opt = items[2];
        assert!(Dtd::is_synthetic(dtd.name(opt)));
        let ContentModel::Choice(branches) = dtd.production(opt) else {
            panic!("expected optional lowered to choice");
        };
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn normalize_plus() {
        let general = GeneralDtd::parse("<!ELEMENT a (b+)> <!ELEMENT b (#PCDATA)>").unwrap();
        let dtd = general.normalize().unwrap().dtd;
        let a = dtd.elem("a").unwrap();
        let ContentModel::Seq(items) = dtd.production(a) else {
            panic!("plus should lower to (first, rest)");
        };
        assert_eq!(dtd.name(items[0]), "b");
        let ContentModel::Star(inner) = dtd.production(items[1]) else {
            panic!("rest should be a star");
        };
        assert_eq!(dtd.name(*inner), "b");
    }

    #[test]
    fn builder_reports_undeclared_children() {
        let mut b = DtdBuilder::new();
        b.seq("a", &["missing"]);
        let err = b.build("a").unwrap_err();
        assert!(matches!(err, XmlError::UndeclaredElement(n) if n == "missing"));
    }

    #[test]
    fn builder_round_trips_through_dtd_string() {
        let mut b = DtdBuilder::new();
        b.star("r", "x");
        b.choice("x", &["y", "z"]);
        b.pcdata("y");
        b.empty("z");
        let dtd = b.build("r").unwrap();
        let text = dtd.to_dtd_string();
        let reparsed = GeneralDtd::parse(&text).unwrap().normalize().unwrap().dtd;
        assert_eq!(reparsed.len(), dtd.len());
        for id in dtd.elements() {
            let other = reparsed.elem(dtd.name(id)).unwrap();
            assert_eq!(dtd.production(id), {
                // Ids may differ; compare shapes through names.
                &match reparsed.production(other) {
                    ContentModel::Pcdata => ContentModel::Pcdata,
                    ContentModel::Empty => ContentModel::Empty,
                    ContentModel::Seq(items) => ContentModel::Seq(
                        items
                            .iter()
                            .map(|&b| dtd.elem(reparsed.name(b)).unwrap())
                            .collect(),
                    ),
                    ContentModel::Choice(items) => ContentModel::Choice(
                        items
                            .iter()
                            .map(|&b| dtd.elem(reparsed.name(b)).unwrap())
                            .collect(),
                    ),
                    ContentModel::Star(b) => {
                        ContentModel::Star(dtd.elem(reparsed.name(*b)).unwrap())
                    }
                }
            });
        }
    }

    #[test]
    fn non_recursive_dtd_detected() {
        let mut b = DtdBuilder::new();
        b.seq("a", &["b"]);
        b.pcdata("b");
        let dtd = b.build("a").unwrap();
        assert!(!dtd.is_recursive());
    }
}
