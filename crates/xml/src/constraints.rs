//! XML keys and inclusion constraints (paper §2).
//!
//! * **Key** `C(A.l → A)`: in any subtree rooted at a `C` element, the value
//!   of the `l` subelement uniquely identifies `A` elements.
//! * **Inclusion constraint** `C(B.lB ⊆ A.lA)`: in any subtree rooted at a
//!   `C` element, every `B` element's `lB` value also appears as the `lA`
//!   value of some `A` element in that subtree.
//!
//! A *foreign key* is a key plus an inclusion constraint.
//!
//! The checker here is the **oracle** against which the compiled,
//! evaluation-time constraint checking of `aig-core` (§3.3) is tested. It
//! checks the whole set in one walk over the tree, with a stack of open `C`
//! contexts per constraint and values compared as the tree's text ids. An
//! element's value is read when the element is entered, from its first
//! child of the field's tag: the next node when the field comes first, else
//! found through the tree's child index.

use crate::error::XmlError;
use crate::tree::{NodeId, TagId, TextId, XmlTree};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A key constraint `context(target.field → target)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    /// The context element type `C`.
    pub context: String,
    /// The keyed element type `A`.
    pub target: String,
    /// The string-typed subelement `l` whose value is the key.
    pub field: String,
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}.{} -> {})",
            self.context, self.target, self.field, self.target
        )
    }
}

/// An inclusion constraint `context(lhs_elem.lhs_field ⊆ rhs_elem.rhs_field)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inclusion {
    /// The context element type `C`.
    pub context: String,
    /// The element type `B` on the contained side.
    pub lhs_elem: String,
    /// The string-typed subelement `lB` of `B`.
    pub lhs_field: String,
    /// The element type `A` on the containing side.
    pub rhs_elem: String,
    /// The string-typed subelement `lA` of `A`.
    pub rhs_field: String,
}

impl fmt::Display for Inclusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}.{} <= {}.{})",
            self.context, self.lhs_elem, self.lhs_field, self.rhs_elem, self.rhs_field
        )
    }
}

/// Either kind of constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    Key(Key),
    Inclusion(Inclusion),
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Key(k) => k.fmt(f),
            Constraint::Inclusion(i) => i.fmt(f),
        }
    }
}

impl Constraint {
    /// Parses one constraint. Accepted syntax (whitespace-insensitive):
    ///
    /// ```text
    /// patient(item.trId -> item)          // key
    /// patient(treatment.trId <= item.trId) // inclusion constraint
    /// ```
    ///
    /// The Unicode arrows `→` and `⊆` are also accepted.
    pub fn parse(src: &str) -> Result<Constraint, XmlError> {
        let mut p = ConstraintParser::new(src);
        let c = p.constraint()?;
        p.skip_ws();
        if p.pos < p.src.len() {
            return Err(p.err("unexpected trailing input"));
        }
        Ok(c)
    }

    /// The context element type `C` of this constraint.
    pub fn context(&self) -> &str {
        match self {
            Constraint::Key(k) => &k.context,
            Constraint::Inclusion(i) => &i.context,
        }
    }

    /// Every element tag this constraint reads: the context plus the
    /// keyed/contained/containing element types and their value-carrying
    /// subelements. A document change that touches none of these tags
    /// cannot flip the constraint's verdict — the basis of the scoped
    /// re-check ([`ConstraintSet::scoped`]).
    pub fn element_tags(&self) -> Vec<&str> {
        match self {
            Constraint::Key(k) => vec![&k.context, &k.target, &k.field],
            Constraint::Inclusion(i) => vec![
                &i.context,
                &i.lhs_elem,
                &i.lhs_field,
                &i.rhs_elem,
                &i.rhs_field,
            ],
        }
    }
}

/// A set of constraints, checked together over a document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    pub constraints: Vec<Constraint>,
}

impl ConstraintSet {
    pub fn new(constraints: Vec<Constraint>) -> Self {
        ConstraintSet { constraints }
    }

    /// Parses a newline- or semicolon-separated list of constraints.
    /// Empty lines and `//` comments are skipped.
    pub fn parse(src: &str) -> Result<ConstraintSet, XmlError> {
        let mut constraints = Vec::new();
        for part in src.split(['\n', ';']) {
            let line = match part.find("//") {
                Some(idx) => &part[..idx],
                None => part,
            };
            if line.trim().is_empty() {
                continue;
            }
            constraints.push(Constraint::parse(line)?);
        }
        Ok(ConstraintSet { constraints })
    }

    /// Checks every constraint, returning all violations found: constraint
    /// by constraint in declaration order, each one's in the order the walk
    /// finds them — a key's duplicate when it arrives, an inclusion's
    /// missing values when their context closes, in order of first
    /// occurrence.
    pub fn check(&self, tree: &XmlTree) -> Vec<Violation> {
        self.violations(tree)
    }

    /// The first violation [`ConstraintSet::check`] lists: the first of the
    /// earliest-declared violated constraint.
    pub fn check_first(&self, tree: &XmlTree) -> Option<Violation> {
        self.check(tree).into_iter().next()
    }

    /// True if the document satisfies every constraint: if
    /// [`ConstraintSet::check_first`] finds no violation.
    pub fn satisfied(&self, tree: &XmlTree) -> bool {
        self.check_first(tree).is_none()
    }

    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// The subset of constraints whose [`Constraint::element_tags`]
    /// intersect `changed_tags` — the constraints an incremental re-check
    /// must re-evaluate after a change confined to those element types.
    ///
    /// Callers must pass **every** tag occurring in a rebuilt subtree (not
    /// just the subtree roots): a constraint is skipped only when none of
    /// the element types it reads could have changed. The full
    /// [`ConstraintSet::check`] remains the oracle the scoped check is
    /// tested against.
    pub fn scoped(&self, changed_tags: &HashSet<String>) -> ConstraintSet {
        ConstraintSet {
            constraints: self
                .constraints
                .iter()
                .filter(|c| c.element_tags().iter().any(|t| changed_tags.contains(*t)))
                .cloned()
                .collect(),
        }
    }
}

/// A constraint violation, with enough context to report usefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated constraint, displayed.
    pub constraint: String,
    /// Path to the `C` context node whose subtree violates the constraint.
    pub context_path: String,
    /// The offending value (duplicate key value, or missing included value).
    pub value: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint {} violated in subtree {}: value {:?}",
            self.constraint, self.context_path, self.value
        )
    }
}

// --------------------------------------------------------------------------
// The one-walk checker
// --------------------------------------------------------------------------
//
// One loop over [`XmlTree::walk`] checks the whole set, with tags as tag ids
// and values as text ids — equal ids are equal text. A field's value is the
// id of its text, numbered past the table if no text of the tree spells it.
//
// Membership is marks indexed by value id, not string sets. A value reaches
// every open context of a constraint at once, so the open contexts holding
// it are those numbered (in opening order) no higher than the innermost one
// open at its latest arrival, which its mark keeps. A closed context is
// never cleared: the next one starts empty because its number is new.

/// One constraint's part of the walk, the `i`-th: its pairs are `2 i`, a
/// key's target or an inclusion's left side, and `2 i + 1`, the right side.
struct Check<'c> {
    constraint: &'c Constraint,
    /// Open contexts, outermost first: node, number, start of its `log`.
    open: Vec<(NodeId, u32, usize)>,
    /// Per value id, context numbers: a key's `[seen, reported, _]`, an
    /// inclusion's `[lhs, rhs, closed]` (the last close that reported it).
    marks: Vec<[u32; 3]>,
    /// An inclusion's left-hand values, each on its first arrival in the
    /// innermost open context: a context's part in order of first occurrence.
    log: Vec<u32>,
    /// The violations found, as (context, value).
    found: Vec<(NodeId, u32)>,
}

impl Check<'_> {
    /// The value `v` arrives on side `side`: in every open context.
    fn arrive(&mut self, side: usize, v: u32) {
        let Some(&(_, inner, _)) = self.open.last() else {
            return;
        };
        if self.marks.len() <= v as usize {
            self.marks.resize(v as usize + 1, [0; 3]);
        }
        let marks = &mut self.marks[v as usize];
        match (self.constraint, side) {
            (Constraint::Key(_), _) => {
                // Newly a duplicate in the open contexts past `reported`.
                let [seen, reported, _] = marks;
                let from = self.open.partition_point(|c| c.1 <= *reported);
                let to = self.open.partition_point(|c| c.1 <= *seen);
                let dup = self.open[from..to].iter();
                self.found.extend(dup.map(|&(ctx, ..)| (ctx, v)));
                (*reported, *seen) = (*seen, inner.max(*seen));
            }
            (_, 0) if marks[0] < inner => {
                marks[0] = inner;
                self.log.push(v);
            }
            (_, 0) => {}
            (_, _) => marks[1] = marks[1].max(inner),
        }
    }

    /// The innermost open context closes: an inclusion reports each
    /// left-hand value it holds and its right-hand side does not.
    fn close(&mut self) {
        let (node, number, start) = self.open.pop().expect("balanced walk");
        if let Constraint::Inclusion(_) = self.constraint {
            for &v in &self.log[start..] {
                let [_, rhs, closed] = &mut self.marks[v as usize];
                if *rhs < number && *closed != number {
                    *closed = number;
                    self.found.push((node, v));
                }
            }
        }
        if self.open.is_empty() {
            self.log.clear();
        }
    }
}

impl ConstraintSet {
    /// The violations [`ConstraintSet::check`] lists, found in one walk.
    fn violations(&self, tree: &XmlTree) -> Vec<Violation> {
        let (mut contexts, mut checks) = (Vec::new(), Vec::new());
        // What each tag takes part in: whether it is a context, and the last
        // pair it is the element of; `links[p]` holds the pair before `p` of
        // the same element and `p`'s field.
        let mut role = vec![(false, usize::MAX); tree.tags().len()];
        let mut links = Vec::new();
        let pair = |elem: &str, field: &str| tree.tag_id(elem).zip(tree.tag_id(field));
        for constraint in &self.constraints {
            let sides = match constraint {
                Constraint::Key(k) => [pair(&k.target, &k.field), None],
                Constraint::Inclusion(i) => [
                    pair(&i.lhs_elem, &i.lhs_field),
                    pair(&i.rhs_elem, &i.rhs_field),
                ],
            };
            // A constraint whose context or values no element has holds.
            let (Some(context), [Some(_), _]) = (tree.tag_id(constraint.context()), sides) else {
                continue;
            };
            role[context.0 as usize].0 = true;
            for side in sides {
                let link = side.map_or((usize::MAX, TagId(0)), |(elem, field)| {
                    let before = role[elem.0 as usize].1;
                    role[elem.0 as usize].1 = links.len();
                    (before, field)
                });
                links.push(link);
            }
            contexts.push(context);
            checks.push(Check {
                constraint,
                open: Vec::new(),
                marks: vec![[0; 3]; tree.distinct_texts()],
                log: Vec::new(),
                found: Vec::new(),
            });
        }
        // Values no text of the tree spells, numbered past the text table.
        let texts = tree.distinct_texts();
        let mut extra: HashMap<Cow<'_, str>, u32> = HashMap::new();
        let mut id = |field: NodeId| match tree.value_id(field) {
            Ok(id) => id.0,
            Err(spelled) => {
                let next = (texts + extra.len()) as u32;
                *extra.entry(spelled).or_insert(next)
            }
        };
        // An element's field is its first child of the field's tag: the next
        // id, as in every σ0 document, else found through the child index.
        let field_of = |node: NodeId, field: TagId| {
            let first = tree.first_child(node)?;
            match tree.elem_tag(first) == Some(field) {
                true => Some(first),
                false => (tree.children(node).iter().copied())
                    .find(|&child| tree.elem_tag(child) == Some(field)),
            }
        };
        // A context opens or closes; an element of a pair opens, with its
        // value. Contexts are numbered by their events, opening and closing.
        let mut number = 0;
        let mut event = |node: NodeId, enter: bool, tag: TagId| {
            let (context, mut p) = role[tag.0 as usize];
            if context {
                number += 1;
                for (check, _) in checks.iter_mut().zip(&contexts).filter(|c| *c.1 == tag) {
                    match enter {
                        true => check.open.push((node, number, check.log.len())),
                        false => check.close(),
                    }
                }
            }
            if !enter {
                return;
            }
            while let Some(&(before, field)) = links.get(p) {
                if let Some(field) = field_of(node, field) {
                    checks[p / 2].arrive(p % 2, id(field));
                }
                p = before;
            }
        };
        // A lean fold: every node costs a tag lookup, and only an element of
        // a pair on entry or a context calls `event`, kept out of the loop
        // behind a `dyn` (inlined, it made the check about 10 % slower).
        let event: &mut dyn FnMut(NodeId, bool, TagId) = &mut event;
        let plays = |tag: TagId, enter: bool| match role[tag.0 as usize] {
            (true, _) => true,
            (false, p) => enter && p != usize::MAX,
        };
        tree.walk(tree.root()).fold((), |(), (node, enter)| {
            if let Some(tag) = tree.elem_tag(node).filter(|&tag| plays(tag, enter)) {
                event(node, enter, tag);
            }
        });
        let mut spelled: Vec<_> = extra.iter().collect();
        spelled.sort_unstable_by_key(|&(_, &id)| id);
        let text = |v: u32| match (v as usize).checked_sub(texts) {
            None => tree.text_of(TextId(v)),
            Some(extra) => spelled[extra].0,
        };
        let violation = |check: &Check, &(ctx, v): &(NodeId, u32)| Violation {
            constraint: check.constraint.to_string(),
            context_path: tree.path(ctx),
            value: text(v).to_string(),
        };
        (checks.iter())
            .flat_map(|c| c.found.iter().map(move |f| violation(c, f)))
            .collect()
    }
}

// --------------------------------------------------------------------------
// Constraint parser
// --------------------------------------------------------------------------

struct ConstraintParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> ConstraintParser<'a> {
    fn new(src: &'a str) -> Self {
        ConstraintParser { src, pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::ConstraintSyntax {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.src[self.pos..].chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.src[self.pos..].chars().next() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn constraint(&mut self) -> Result<Constraint, XmlError> {
        let context = self.name()?;
        self.skip_ws();
        if !self.eat("(") {
            return Err(self.err("expected `(`"));
        }
        let elem = self.name()?;
        self.skip_ws();
        if !self.eat(".") {
            return Err(self.err("expected `.`"));
        }
        let field = self.name()?;
        self.skip_ws();
        if self.eat("->") || self.eat("→") {
            let target = self.name()?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            if target != elem {
                return Err(self.err(format!(
                    "key must have the form C(A.l -> A); got `{elem}.{field} -> {target}`"
                )));
            }
            Ok(Constraint::Key(Key {
                context,
                target,
                field,
            }))
        } else if self.eat("<=") || self.eat("⊆") {
            let rhs_elem = self.name()?;
            self.skip_ws();
            if !self.eat(".") {
                return Err(self.err("expected `.`"));
            }
            let rhs_field = self.name()?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            Ok(Constraint::Inclusion(Inclusion {
                context,
                lhs_elem: elem,
                lhs_field: field,
                rhs_elem,
                rhs_field,
            }))
        } else {
            Err(self.err("expected `->` or `<=`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_tree(items: &[(&str, &str)], treatments: &[&str]) -> XmlTree {
        // A patient with a bill of `items` (trId, price) and treatment trIds.
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let trs = t.add_element(p, "treatments");
        for tr in treatments {
            let treatment = t.add_element(trs, "treatment");
            let trid = t.add_element(treatment, "trId");
            t.add_text(trid, *tr);
        }
        let bill = t.add_element(p, "bill");
        for (trid, price) in items {
            let item = t.add_element(bill, "item");
            let id = t.add_element(item, "trId");
            t.add_text(id, *trid);
            let pr = t.add_element(item, "price");
            t.add_text(pr, *price);
        }
        t
    }

    fn key() -> Key {
        Key {
            context: "patient".into(),
            target: "item".into(),
            field: "trId".into(),
        }
    }

    fn inclusion() -> Inclusion {
        Inclusion {
            context: "patient".into(),
            lhs_elem: "treatment".into(),
            lhs_field: "trId".into(),
            rhs_elem: "item".into(),
            rhs_field: "trId".into(),
        }
    }

    #[test]
    fn parse_key_and_inclusion() {
        let k = Constraint::parse("patient (item.trId -> item)").unwrap();
        assert_eq!(k, Constraint::Key(key()));
        let i = Constraint::parse("patient(treatment.trId <= item.trId)").unwrap();
        assert_eq!(i, Constraint::Inclusion(inclusion()));
        let i2 = Constraint::parse("patient(treatment.trId ⊆ item.trId)").unwrap();
        assert_eq!(i, i2);
    }

    #[test]
    fn parse_rejects_mismatched_key_target() {
        assert!(Constraint::parse("patient(item.trId -> other)").is_err());
        assert!(Constraint::parse("patient(item.trId)").is_err());
        assert!(Constraint::parse("patient(item.trId -> item) trailing").is_err());
    }

    #[test]
    fn parse_constraint_set_with_comments() {
        let set = ConstraintSet::parse(
            "// the paper's two constraints\n\
             patient(item.trId -> item)\n\
             patient(treatment.trId <= item.trId)\n",
        )
        .unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn key_satisfied() {
        let t = report_tree(&[("t1", "10"), ("t2", "20")], &["t1", "t2"]);
        let set = ConstraintSet::new(vec![Constraint::Key(key())]);
        assert!(set.satisfied(&t));
    }

    #[test]
    fn key_violated_by_duplicate_within_context() {
        let t = report_tree(&[("t1", "10"), ("t1", "15")], &[]);
        let set = ConstraintSet::new(vec![Constraint::Key(key())]);
        let violations = set.check(&t);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].value, "t1");
        assert_eq!(violations[0].context_path, "/report/patient");
    }

    #[test]
    fn key_is_relative_to_context() {
        // The same trId under two *different* patients is fine.
        let mut t = XmlTree::new("report");
        for _ in 0..2 {
            let p = t.add_element(t.root(), "patient");
            let bill = t.add_element(p, "bill");
            let item = t.add_element(bill, "item");
            let id = t.add_element(item, "trId");
            t.add_text(id, "t1");
        }
        let set = ConstraintSet::new(vec![Constraint::Key(key())]);
        assert!(set.satisfied(&t));
    }

    #[test]
    fn inclusion_satisfied_and_violated() {
        let good = report_tree(&[("t1", "10")], &["t1"]);
        let set = ConstraintSet::new(vec![Constraint::Inclusion(inclusion())]);
        assert!(set.satisfied(&good));

        let bad = report_tree(&[("t1", "10")], &["t1", "t9"]);
        let violations = set.check(&bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].value, "t9");
    }

    #[test]
    fn inclusion_duplicate_missing_values_reported_once() {
        let bad = report_tree(&[], &["t9", "t9"]);
        let set = ConstraintSet::new(vec![Constraint::Inclusion(inclusion())]);
        assert_eq!(set.check(&bad).len(), 1);
    }

    #[test]
    fn nested_contexts_each_checked() {
        // treatment as its own context: treatment(treatment.trId -> treatment)
        // with recursion; an inner duplicate violates the inner context and
        // every enclosing one.
        let k = Key {
            context: "procedure".into(),
            target: "treatment".into(),
            field: "trId".into(),
        };
        let mut t = XmlTree::new("report");
        let proc_outer = t.add_element(t.root(), "procedure");
        for _ in 0..2 {
            let tr = t.add_element(proc_outer, "treatment");
            let id = t.add_element(tr, "trId");
            t.add_text(id, "dup");
            t.add_element(tr, "procedure");
        }
        let set = ConstraintSet::new(vec![Constraint::Key(k)]);
        let violations = set.check(&t);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].context_path, "/report/procedure");
    }

    #[test]
    fn foreign_key_both_parts() {
        // foreign key = key + inclusion
        let set = ConstraintSet::new(vec![
            Constraint::Key(key()),
            Constraint::Inclusion(inclusion()),
        ]);
        let good = report_tree(&[("t1", "10"), ("t2", "5")], &["t2"]);
        assert!(set.satisfied(&good));
        let bad = report_tree(&[("t1", "10"), ("t1", "5")], &["t3"]);
        assert_eq!(set.check(&bad).len(), 2);
    }

    #[test]
    fn scoped_check_matches_the_full_oracle_on_its_subset() {
        let set = ConstraintSet::new(vec![
            Constraint::Key(key()),
            Constraint::Inclusion(inclusion()),
        ]);
        // Doc violating both constraints.
        let bad = report_tree(&[("t1", "10"), ("t1", "5")], &["t3"]);
        let full = set.check(&bad);
        assert_eq!(full.len(), 2);

        // A change scope touching `item` selects both constraints (both
        // read item.trId); the scoped result equals the full oracle.
        let item_scope: HashSet<String> = ["item".to_string()].into();
        assert_eq!(set.scoped(&item_scope).check(&bad), full);

        // A scope touching only `treatment` selects just the inclusion
        // constraint.
        let tr_scope: HashSet<String> = ["treatment".to_string()].into();
        assert_eq!(set.scoped(&tr_scope).len(), 1);
        let scoped = set.scoped(&tr_scope).check(&bad);
        assert_eq!(scoped.len(), 1);
        assert!(scoped[0].constraint.contains("<="));

        // A scope touching none of the constraint tags checks nothing.
        let off_scope: HashSet<String> = ["price".to_string()].into();
        assert!(set.scoped(&off_scope).is_empty());
        assert!(set.scoped(&off_scope).check(&bad).is_empty());
    }

    #[test]
    fn values_are_compared_as_text_however_spelled() {
        // One text against several (an element between two of them), an
        // empty field against an empty text: equal values, so duplicates.
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let bill = t.add_element(p, "bill");
        for texts in [&["t1"][..], &["t", "", "1"], &[], &[""], &["t", "2"]] {
            let item = t.add_element(bill, "item");
            let id = t.add_element(item, "trId");
            for (i, text) in texts.iter().enumerate() {
                if i == 2 {
                    t.add_element(id, "note");
                }
                t.add_text(id, *text);
            }
        }
        let trs = t.add_element(p, "treatments");
        let treatment = t.add_element(trs, "treatment");
        let id = t.add_element(treatment, "trId");
        t.add_text(id, "t2");
        let keys = ConstraintSet::new(vec![Constraint::Key(key())]);
        let values: Vec<String> = keys.check(&t).into_iter().map(|v| v.value).collect();
        assert_eq!(values, ["t1", ""]);
        // `t2` is billed, as two texts; `t3`, spelled the same way, is not.
        let ic = ConstraintSet::new(vec![Constraint::Inclusion(inclusion())]);
        assert!(ic.satisfied(&t));
        let treatment = t.add_element(trs, "treatment");
        let id = t.add_element(treatment, "trId");
        t.add_text(id, "t");
        t.add_text(id, "3");
        assert_eq!(ic.check_first(&t).map(|v| v.value).as_deref(), Some("t3"));
    }

    #[test]
    fn a_late_key_field_keeps_element_entry_order() {
        // The outer item's trId is its second child; its first child holds
        // three more items, one of them with its own trId second. Values
        // count in the order their elements open: `x` is a duplicate before
        // `y`, though the outer item closes last.
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let outer = t.add_element(p, "item");
        let bill = t.add_element(outer, "bill");
        for (trid, price_first) in [("x", false), ("y", true), ("y", false)] {
            let item = t.add_element(bill, "item");
            if price_first {
                t.add_element(item, "price");
            }
            let id = t.add_element(item, "trId");
            t.add_text(id, trid);
        }
        let id = t.add_element(outer, "trId");
        t.add_text(id, "x");
        let set = ConstraintSet::new(vec![Constraint::Key(key())]);
        let all = set.check(&t);
        let values: Vec<&str> = all.iter().map(|v| v.value.as_str()).collect();
        assert_eq!(values, ["x", "y"]);
        assert!(all.iter().all(|v| v.context_path == "/report/patient"));
        assert_eq!(set.check_first(&t).as_ref(), all.first());
    }

    #[test]
    fn a_late_inclusion_field_is_read() {
        // Each side has an element whose field follows another child.
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let trs = t.add_element(p, "treatments");
        for (trid, note_first) in [("t9", true), ("t8", false), ("t1", true)] {
            let treatment = t.add_element(trs, "treatment");
            if note_first {
                t.add_element(treatment, "note");
            }
            let id = t.add_element(treatment, "trId");
            t.add_text(id, trid);
        }
        let bill = t.add_element(p, "bill");
        let item = t.add_element(bill, "item");
        t.add_element(item, "price");
        let id = t.add_element(item, "trId");
        t.add_text(id, "t1");
        let set = ConstraintSet::new(vec![Constraint::Inclusion(inclusion())]);
        let values: Vec<String> = set.check(&t).into_iter().map(|v| v.value).collect();
        assert_eq!(values, ["t9", "t8"]);
        assert_eq!(set.check_first(&t).map(|v| v.value).as_deref(), Some("t9"));
    }

    #[test]
    fn display_round_trip() {
        for src in [
            "patient(item.trId -> item)",
            "patient(treatment.trId <= item.trId)",
        ] {
            let c = Constraint::parse(src).unwrap();
            let again = Constraint::parse(&c.to_string()).unwrap();
            assert_eq!(c, again);
        }
    }
}
