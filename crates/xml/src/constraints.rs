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
//! The checker here walks the whole tree and is the **oracle** against which
//! the compiled, evaluation-time constraint checking of `aig-core` (§3.3) is
//! tested. It runs in a single pass: a stack of open `C` contexts is
//! maintained, and each `A`/`B` occurrence is charged to every open context.

use crate::error::XmlError;
use crate::tree::{NodeId, TagId, XmlTree};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
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

    /// Checks every constraint, returning all violations found.
    pub fn check(&self, tree: &XmlTree) -> Vec<Violation> {
        let mut violations = Vec::new();
        self.violations(tree, &mut |v| {
            violations.push(v);
            false
        });
        violations
    }

    /// The first violation found, stopping the walk as soon as one
    /// surfaces — unlike [`ConstraintSet::check`], which collects all of
    /// them. Constraints are tried in declaration order, so on a violating
    /// document this returns a violation of the earliest violated
    /// constraint (though not necessarily the one `check` lists first,
    /// since key violations can surface mid-walk while inclusion
    /// violations only surface at context exit).
    pub fn check_first(&self, tree: &XmlTree) -> Option<Violation> {
        let mut first = None;
        self.violations(tree, &mut |v| {
            first = Some(v);
            true
        });
        first
    }

    /// Feeds every violation to `report`, constraint by constraint, until it
    /// returns `true`.
    fn violations(&self, tree: &XmlTree, report: &mut impl FnMut(Violation) -> bool) {
        for c in &self.constraints {
            let stopped = match c {
                Constraint::Key(k) => key_violations(tree, k, report),
                Constraint::Inclusion(i) => inclusion_violations(tree, i, report),
            };
            if stopped {
                return;
            }
        }
    }

    /// True if the document satisfies every constraint. Short-circuits on
    /// the first violation instead of collecting all of them.
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

    /// [`ConstraintSet::check`] restricted to the constraints that read a
    /// changed element tag (see [`ConstraintSet::scoped`]).
    pub fn check_scoped(&self, tree: &XmlTree, changed_tags: &HashSet<String>) -> Vec<Violation> {
        self.scoped(changed_tags).check(tree)
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
// Single-pass checkers
// --------------------------------------------------------------------------
//
// One loop over [`XmlTree::walk`] per constraint, with a stack of open `C`
// contexts. Tags are compared as the tree's tag ids, resolved once per
// check, and a field's value is borrowed from the document's text buffer.
// Each checker hands its violations to `report` in the order it finds them
// and returns `true` as soon as `report` does. A closed context's sets are
// emptied and reused by the next one, so sibling contexts share one.

/// What a checker reacts to, in walk order.
enum Step<'t> {
    /// A context element opens (`true`) or closes.
    Context(NodeId, bool),
    /// An element of the `i`-th (element, field) pair opens, with the
    /// PCDATA of its first field child (`None` if it has none).
    Value(usize, Option<Cow<'t, str>>),
}

/// Feeds `visit` the [`Step`]s of `tree`'s walk for contexts tagged
/// `context` and the (element, field) pairs `values` (a `None` pair has no
/// element), until `visit` returns `true` — which this then returns.
///
/// An element's value is read when its field child is entered — at once if
/// that is its first child, as in a document that follows its DTD. Until
/// then the steps after it wait in a queue, so `visit` still sees each
/// element entered with its value in hand, in walk order.
fn walk_steps<'t, const N: usize>(
    tree: &'t XmlTree,
    context: TagId,
    values: [Option<(TagId, TagId)>; N],
    mut visit: impl FnMut(Step<'t>) -> bool,
) -> bool {
    // What each tag can take part in; other nodes pass by.
    const STEP: u8 = 1;
    const FIELD: u8 = 2;
    let mut role = vec![0u8; tree.tags().len()];
    role[context.0 as usize] = STEP;
    for &(elem, field) in values.iter().flatten() {
        role[elem.0 as usize] |= STEP;
        role[field.0 as usize] |= FIELD;
    }
    // Elements still looking for their field child, innermost last: the
    // element, its pair and the queue slot of its value.
    let mut awaiting: Vec<(NodeId, usize, usize)> = Vec::new();
    // Whether it is not empty, for the walk to pass field children by.
    let awaits = Cell::new(false);
    // Steps not yet visited, `None` for an awaited value; `queue[k]` is
    // slot `taken + k`.
    let mut queue: VecDeque<Option<Step<'t>>> = VecDeque::new();
    let mut taken = 0;
    macro_rules! emit {
        ($step:expr) => {
            match queue.is_empty() {
                true if visit($step) => return true,
                true => {}
                false => queue.push_back(Some($step)),
            }
        };
    }
    // One walk event that plays a part (see below); `true` once `visit` has
    // stopped the walk.
    let event = &mut |node: NodeId, enter: bool, tag: TagId| {
        if !enter {
            // An element closing with no field child has no value.
            while let Some(&(_, i, slot)) = awaiting.last().filter(|a| a.0 == node) {
                queue[slot - taken] = Some(Step::Value(i, None));
                awaiting.pop();
            }
            if tag == context {
                emit!(Step::Context(node, false));
            }
        } else {
            // The field child of an element awaiting one (of up to two
            // pairs, both on top).
            let parent = tree.parent(node);
            let mut at = awaiting.len();
            while at > 0 && Some(awaiting[at - 1].0) == parent {
                at -= 1;
                let (_, i, slot) = awaiting[at];
                if values[i].is_some_and(|(_, field)| field == tag) {
                    let value = Some(tree.pcdata_value(node));
                    queue[slot - taken] = Some(Step::Value(i, value));
                    awaiting.remove(at);
                }
            }
            if tag == context {
                emit!(Step::Context(node, true));
            }
            for (i, pair) in values.iter().enumerate() {
                let Some((elem, field)) = *pair else {
                    continue;
                };
                if elem != tag {
                    continue;
                }
                let first = tree.first_child(node);
                match first.filter(|&child| tree.elem_tag(child) == Some(field)) {
                    Some(child) => emit!(Step::Value(i, Some(tree.pcdata_value(child)))),
                    None => {
                        awaiting.push((node, i, taken + queue.len()));
                        queue.push_back(None);
                    }
                }
            }
        }
        awaits.set(!awaiting.is_empty());
        while let Some(Some(_)) = queue.front() {
            let step = queue.pop_front().flatten().expect("just seen");
            taken += 1;
            if visit(step) {
                return true;
            }
        }
        false
    };
    // A fold, not a loop, and a lean one: every node costs a tag lookup, and
    // only those with a part to play call `event` — an element on entry, a
    // closing one as a context or while awaiting its value, a field child
    // while a value is awaited.
    let event: &mut dyn FnMut(NodeId, bool, TagId) -> bool = event;
    let plays = |tag: TagId, enter: bool| match role[tag.0 as usize] {
        0 => false,
        FIELD => awaits.get(),
        _ => enter || tag == context || awaits.get(),
    };
    tree.walk(tree.root())
        .fold(false, |stopped, (node, enter)| {
            let tag = tree.elem_tag(node).filter(|&tag| plays(tag, enter));
            stopped || tag.is_some_and(|tag| event(node, enter, tag))
        })
}

/// Checks a key constraint: within every `C`-rooted subtree, no two distinct
/// `A` elements share an `l` value (each duplicated value is reported once
/// per context). `A` elements lacking an `l` subelement contribute nothing
/// (the DTD guarantees presence in well-typed documents).
fn key_violations(tree: &XmlTree, key: &Key, report: &mut impl FnMut(Violation) -> bool) -> bool {
    let tags = [&key.context, &key.target, &key.field].map(|tag| tree.tag_id(tag));
    let [Some(context), Some(target), Some(field)] = tags else {
        return false;
    };
    // Open contexts, each with the key values seen so far and whether the
    // value was already reported.
    let mut contexts: Vec<(NodeId, HashMap<Cow<'_, str>, bool>)> = Vec::new();
    let mut spare = Vec::new();
    walk_steps(tree, context, [Some((target, field))], |step| {
        let value = match step {
            Step::Context(node, true) => {
                contexts.push((node, spare.pop().unwrap_or_default()));
                return false;
            }
            Step::Context(_, false) => {
                let (_, mut seen) = contexts.pop().expect("balanced walk");
                seen.clear();
                spare.push(seen);
                return false;
            }
            Step::Value(_, None) => return false,
            Step::Value(_, Some(value)) => value,
        };
        for (ctx, seen) in contexts.iter_mut() {
            match seen.entry(value.clone()) {
                Entry::Vacant(first) => {
                    first.insert(false);
                }
                Entry::Occupied(mut duplicate) => {
                    if !duplicate.insert(true) && report(violation(tree, key, *ctx, &value)) {
                        return true;
                    }
                }
            }
        }
        false
    })
}

/// Checks an inclusion constraint: within every `C`-rooted subtree, the set
/// of `B.lB` values is contained in the set of `A.lA` values. Violations only
/// become decidable when a context closes; each missing value is reported
/// once per context, in document order.
fn inclusion_violations(
    tree: &XmlTree,
    ic: &Inclusion,
    report: &mut impl FnMut(Violation) -> bool,
) -> bool {
    let tags = [&ic.context, &ic.lhs_elem, &ic.lhs_field].map(|tag| tree.tag_id(tag));
    let [Some(context), Some(lhs_elem), Some(lhs_field)] = tags else {
        return false;
    };
    // Note: B and A may be the same element type with different fields.
    let rhs = tree.tag_id(&ic.rhs_elem).zip(tree.tag_id(&ic.rhs_field));
    /// An open context: each `B.lB` value with the order of its first
    /// occurrence, and the `A.lA` values.
    #[derive(Default)]
    struct Ctx<'t> {
        lhs: HashMap<Cow<'t, str>, usize>,
        rhs: HashSet<Cow<'t, str>>,
    }
    let mut contexts: Vec<Ctx> = Vec::new();
    let mut spare = Vec::new();
    walk_steps(tree, context, [Some((lhs_elem, lhs_field)), rhs], |step| {
        match step {
            Step::Context(_, true) => contexts.push(spare.pop().unwrap_or_default()),
            Step::Context(node, false) => {
                let mut ctx = contexts.pop().expect("balanced walk");
                let mut missing: Vec<_> = (ctx.lhs.iter())
                    .filter(|(value, _)| !ctx.rhs.contains(*value))
                    .map(|(value, &first)| (first, value))
                    .collect();
                missing.sort_unstable();
                for (_, value) in missing {
                    if report(violation(tree, ic, node, value)) {
                        return true;
                    }
                }
                ctx.lhs.clear();
                ctx.rhs.clear();
                spare.push(ctx);
            }
            Step::Value(_, None) => {}
            Step::Value(0, Some(value)) => {
                for ctx in contexts.iter_mut() {
                    let first = ctx.lhs.len();
                    ctx.lhs.entry(value.clone()).or_insert(first);
                }
            }
            Step::Value(_, Some(value)) => {
                for ctx in contexts.iter_mut() {
                    ctx.rhs.insert(value.clone());
                }
            }
        }
        false
    })
}

fn violation(
    tree: &XmlTree,
    constraint: &impl fmt::Display,
    ctx: NodeId,
    value: &str,
) -> Violation {
    Violation {
        constraint: constraint.to_string(),
        context_path: tree.path(ctx),
        value: value.to_string(),
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
        assert_eq!(set.check_scoped(&bad, &item_scope), full);

        // A scope touching only `treatment` selects just the inclusion
        // constraint.
        let tr_scope: HashSet<String> = ["treatment".to_string()].into();
        assert_eq!(set.scoped(&tr_scope).len(), 1);
        let scoped = set.check_scoped(&bad, &tr_scope);
        assert_eq!(scoped.len(), 1);
        assert!(scoped[0].constraint.contains("<="));

        // A scope touching none of the constraint tags checks nothing.
        let off_scope: HashSet<String> = ["price".to_string()].into();
        assert!(set.scoped(&off_scope).is_empty());
        assert!(set.check_scoped(&bad, &off_scope).is_empty());
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
