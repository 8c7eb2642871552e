//! Validation of XML documents against DTDs.
//!
//! Two validators are provided:
//!
//! * [`validate()`] checks a document against a restricted-form [`Dtd`]
//!   directly (the forms of paper §2 admit a one-pass check over the walk
//!   events, with [`validate_by_node`] naming the error), reading each
//!   tag's production from [`Rules`] — the table a producer can also prove
//!   its own plan against, before it writes a node — and
//! * [`validate_general`] checks a document against a [`GeneralDtd`] by
//!   compiling each content model to a Glushkov NFA and running the child tag
//!   sequence through it.
//!
//! Both report the first offending node with its path.

use crate::dtd::{ContentModel, Dtd, ElemId, GeneralDtd, Regex};
use crate::tree::{NodeId, NodeKind, TagId, XmlTree};
use std::collections::HashMap;
use std::fmt;

/// A validation failure: which node, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Path from the root to the offending node.
    pub path: String,
    /// Human-readable description of the mismatch.
    pub reason: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.reason)
    }
}

impl std::error::Error for ValidationError {}

/// Validates `tree` against a restricted-form DTD (paper §2): the root must
/// be labeled with the root type, every element's children must match its
/// production, and text nodes may appear only under PCDATA-typed elements.
///
/// One pass over the walk events, with one content-model state per open
/// element: how many children it has had, which is the position in a
/// `Seq`. A document that fails is handed to [`validate_by_node`] to name
/// its first offending node in pre-order, so the verdict is this pass's and
/// the message that checker's.
pub fn validate(tree: &XmlTree, dtd: &Dtd) -> Result<(), ValidationError> {
    if conforms(tree, dtd) {
        return Ok(());
    }
    let named = validate_by_node(tree, dtd);
    debug_assert!(named.is_err(), "the two validators disagree");
    named
}

/// The productions of one tree's tags, over that tree's tag ids so that a
/// check compares integers: the one description of the productions
/// [`validate`]'s pass and a producer's proof over its own plan read
/// ([`Rules::of`]). Tag `t`'s entry is `table[3t..3t + 3]` = `[kind, a, n]`:
/// a `STAR` of tag `a`, or a `SEQ` / `CHOICE` of the `n` tags listed at
/// `table[a..]` after the per-tag entries.
pub struct Rules(Vec<u32>);

/// One tag's production, as [`Rules::of`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule<'r> {
    /// The DTD does not declare the tag.
    Undeclared,
    /// Exactly one text child.
    Pcdata,
    /// No child.
    Empty,
    /// Any number of children of one tag; `None` if no element of the tree
    /// has that tag.
    Star(Option<TagId>),
    /// Exactly these children, in this order.
    Seq(RuleTags<'r>),
    /// Exactly one child, of one of these tags.
    Choice(RuleTags<'r>),
}

/// The child tags of a [`Rule::Seq`] or [`Rule::Choice`], in production
/// order; `None` for a type no element of the tree has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleTags<'r>(&'r [u32]);

impl<'r> RuleTags<'r> {
    /// The number of tags listed.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the production lists no tag.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The tags in production order.
    pub fn iter(&self) -> impl Iterator<Item = Option<TagId>> + 'r {
        self.0
            .iter()
            .map(|&tag| (tag != ABSENT).then_some(TagId(tag)))
    }
}

const UNDECLARED: u32 = 0;
const PCDATA: u32 = 1;
const EMPTY: u32 = 2;
const STAR: u32 = 3;
const SEQ: u32 = 4;
const CHOICE: u32 = 5;
/// The tag of a text node.
const TEXT: u32 = u32::MAX;
/// The tag of an element type no element of the tree has.
const ABSENT: u32 = u32::MAX - 1;

impl Rules {
    /// The productions `dtd` gives the tags of `tree`'s tag table: the
    /// table is `tree`'s, so the rules hold for its tag ids as they are
    /// now.
    pub fn new(tree: &XmlTree, dtd: &Dtd) -> Rules {
        let models = || (tree.tags().iter()).map(|tag| dtd.elem(tag).map(|e| dtd.production(e)));
        let lists = models().map(|model| match model {
            Some(ContentModel::Seq(list) | ContentModel::Choice(list)) => list.len(),
            _ => 0,
        });
        let mut table = Vec::with_capacity(3 * tree.tags().len() + lists.sum::<usize>());
        table.resize(3 * tree.tags().len(), 0);
        let tag_of = |elem: ElemId| tree.tag_id(dtd.name(elem)).map_or(ABSENT, |tag| tag.0);
        for (t, model) in models().enumerate() {
            let at = table.len() as u32;
            let rule = match model {
                None => [UNDECLARED, 0, 0],
                Some(ContentModel::Pcdata) => [PCDATA, 0, 0],
                Some(ContentModel::Empty) => [EMPTY, 0, 0],
                Some(ContentModel::Star(want)) => [STAR, tag_of(*want), 0],
                Some(ContentModel::Seq(list)) => [SEQ, at, list.len() as u32],
                Some(ContentModel::Choice(list)) => [CHOICE, at, list.len() as u32],
            };
            if let Some(ContentModel::Seq(list) | ContentModel::Choice(list)) = model {
                table.extend(list.iter().map(|&elem| tag_of(elem)));
            }
            table[3 * t..3 * t + 3].copy_from_slice(&rule);
        }
        Rules(table)
    }

    /// The production of `tag`, a tag id of the tree the rules were built
    /// over (any tag it had then).
    pub fn of(&self, tag: TagId) -> Rule<'_> {
        let list = |at, n| RuleTags(self.list(at, n));
        match self.entry(tag.0) {
            [PCDATA, ..] => Rule::Pcdata,
            [EMPTY, ..] => Rule::Empty,
            [STAR, a, _] => Rule::Star((a != ABSENT).then_some(TagId(a))),
            [SEQ, a, n] => Rule::Seq(list(a, n)),
            [CHOICE, a, n] => Rule::Choice(list(a, n)),
            _ => Rule::Undeclared,
        }
    }

    #[inline]
    fn entry(&self, tag: u32) -> [u32; 3] {
        let at = 3 * tag as usize;
        let rule: &[u32; 3] = self.0[at..at + 3].try_into().expect("three entries");
        *rule
    }

    #[inline]
    fn list(&self, at: u32, n: u32) -> &[u32] {
        &self.0[at as usize..(at + n) as usize]
    }
}

/// The verdict of [`validate`].
#[allow(clippy::unnecessary_fold)]
fn conforms(tree: &XmlTree, dtd: &Dtd) -> bool {
    if tree.tag(tree.root()) != Some(dtd.name(dtd.root())) {
        return false;
    }
    let rules = Rules::new(tree, dtd);
    // Per open element, innermost last: its rule `[kind, a, n]` and its
    // children so far (the position in a `Seq`). Documents nest a few dozen
    // deep.
    let mut open: Vec<[u32; 4]> = Vec::with_capacity(64);
    let mut event = |(node, enter): (NodeId, bool)| {
        let tag = tree.elem_tag(node).map_or(TEXT, |tag| tag.0);
        if !enter {
            if tag == TEXT {
                return true;
            }
            let [kind, _, n, seen] = open.pop().expect("balanced walk");
            return match kind {
                PCDATA | CHOICE => seen == 1,
                SEQ => seen == n,
                _ => true,
            };
        }
        if let Some([kind, a, n, seen]) = open.last_mut() {
            let fits = match *kind {
                STAR => tag == *a,
                SEQ => *seen < *n && rules.0[(*a + *seen) as usize] == tag,
                PCDATA => *seen == 0 && tag == TEXT,
                CHOICE => *seen == 0 && tag != TEXT && rules.list(*a, *n).contains(&tag),
                _ => false,
            };
            *seen += 1;
            if !fits {
                return false;
            }
        }
        if tag == TEXT {
            return true;
        }
        let [kind, a, n] = rules.entry(tag);
        open.push([kind, a, n, 0]);
        kind != UNDECLARED
    };
    // A fold, not `all`, which would step the walk through `next`: the
    // fold runs the id scan's nested loops, enter and exit paths apart.
    tree.walk(tree.root()).fold(true, |ok, e| ok && event(e))
}

/// The per-node checker: every element in pre-order, its child list against
/// its production. [`validate`] runs it only to name the first offending
/// node of a document it rejected; it stays as the reference its verdict and
/// messages are tested against.
pub fn validate_by_node(tree: &XmlTree, dtd: &Dtd) -> Result<(), ValidationError> {
    let root = tree.root();
    let root_tag = tree.tag(root).expect("root is an element");
    if root_tag != dtd.name(dtd.root()) {
        return Err(ValidationError {
            path: tree.path(root),
            reason: format!(
                "root is `{root_tag}` but the DTD root type is `{}`",
                dtd.name(dtd.root())
            ),
        });
    }
    let elems: Vec<Option<ElemId>> = tree.tags().iter().map(|tag| dtd.elem(tag)).collect();
    // `None` for a text node, `Some(None)` for an undeclared element type.
    let elem_of = |node: NodeId| tree.elem_tag(node).map(|tag| elems[tag.0 as usize]);
    for node in tree.iter() {
        let (Some(elem), Some(tag)) = (elem_of(node), tree.tag(node)) else {
            continue;
        };
        let children = tree.children(node);
        let fail = |reason: String| {
            Err(ValidationError {
                path: tree.path(node),
                reason,
            })
        };
        let Some(elem) = elem else {
            return fail(format!("element type `{tag}` is not declared in the DTD"));
        };
        match dtd.production(elem) {
            ContentModel::Pcdata => {
                // Exactly one text child carrying the PCDATA.
                if children.len() != 1 || tree.is_element(children[0]) {
                    return fail(format!(
                        "`{tag}` has type S and must contain exactly one text node, found {} children",
                        children.len()
                    ));
                }
            }
            ContentModel::Empty => {
                if !children.is_empty() {
                    return fail(format!(
                        "`{tag}` is declared EMPTY but has {} children",
                        children.len()
                    ));
                }
            }
            ContentModel::Seq(expected) => {
                if children.len() != expected.len() {
                    return fail(format!(
                        "`{tag}` must have exactly {} children, found {}",
                        expected.len(),
                        children.len()
                    ));
                }
                for (&child, &want) in children.iter().zip(expected) {
                    if elem_of(child) != Some(Some(want)) {
                        return fail(match tree.tag(child) {
                            Some(child_tag) => {
                                format!("expected child `{}`, found `{child_tag}`", dtd.name(want))
                            }
                            None => format!(
                                "expected child element `{}`, found a text node",
                                dtd.name(want)
                            ),
                        });
                    }
                }
            }
            ContentModel::Choice(branches) => {
                if children.len() != 1 {
                    return fail(format!(
                        "`{tag}` must have exactly one child (a choice), found {}",
                        children.len()
                    ));
                }
                let Some(child_tag) = tree.tag(children[0]) else {
                    return fail(format!("`{tag}` has a text child but is a choice type"));
                };
                if !matches!(elem_of(children[0]), Some(Some(e)) if branches.contains(&e)) {
                    return fail(format!(
                        "child `{child_tag}` is not one of the allowed branches [{}]",
                        branches
                            .iter()
                            .map(|&b| dtd.name(b))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
            ContentModel::Star(want) => {
                let stray = children.iter().find(|&&c| elem_of(c) != Some(Some(*want)));
                if let Some(&child) = stray {
                    let found = match tree.tag(child) {
                        Some(child_tag) => format!("`{child_tag}`"),
                        None => "a text node".to_string(),
                    };
                    return fail(format!(
                        "all children of `{tag}` must be `{}`, found {found}",
                        dtd.name(*want)
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// General content models: Glushkov NFA construction and matching
// ---------------------------------------------------------------------------

/// Symbols a content model consumes: an element tag or a text node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Sym {
    Elem(String),
    Text,
}

/// A Glushkov automaton for one content model. Positions are the occurrences
/// of symbols in the regex; state = subset of positions (plus initial).
#[derive(Debug)]
struct Glushkov {
    /// Symbol of each position.
    syms: Vec<Sym>,
    /// Positions reachable as the first symbol.
    first: Vec<usize>,
    /// Follow sets: `follow[p]` = positions that may come after `p`.
    follow: Vec<Vec<usize>>,
    /// Positions that may be last.
    last: Vec<bool>,
    /// Whether the empty word matches.
    nullable: bool,
}

/// Intermediate result of the Glushkov construction for a sub-regex.
struct Piece {
    first: Vec<usize>,
    last: Vec<usize>,
    nullable: bool,
}

impl Glushkov {
    fn build(regex: &Regex) -> Glushkov {
        let mut g = Glushkov {
            syms: Vec::new(),
            first: Vec::new(),
            follow: Vec::new(),
            last: Vec::new(),
            nullable: false,
        };
        let piece = g.visit(regex);
        g.first = piece.first;
        g.nullable = piece.nullable;
        g.last = vec![false; g.syms.len()];
        for p in piece.last {
            g.last[p] = true;
        }
        g
    }

    fn leaf(&mut self, sym: Sym) -> Piece {
        let p = self.syms.len();
        self.syms.push(sym);
        self.follow.push(Vec::new());
        Piece {
            first: vec![p],
            last: vec![p],
            nullable: false,
        }
    }

    fn visit(&mut self, regex: &Regex) -> Piece {
        match regex {
            Regex::Epsilon => Piece {
                first: Vec::new(),
                last: Vec::new(),
                nullable: true,
            },
            Regex::Pcdata => self.leaf(Sym::Text),
            Regex::Elem(name) => self.leaf(Sym::Elem(name.clone())),
            Regex::Seq(items) => {
                let mut acc = Piece {
                    first: Vec::new(),
                    last: Vec::new(),
                    nullable: true,
                };
                for item in items {
                    let piece = self.visit(item);
                    // last(acc) -> first(piece)
                    for &p in &acc.last {
                        self.follow[p].extend_from_slice(&piece.first);
                    }
                    let first = if acc.nullable {
                        let mut f = acc.first.clone();
                        f.extend_from_slice(&piece.first);
                        f
                    } else {
                        acc.first.clone()
                    };
                    let last = if piece.nullable {
                        let mut l = acc.last.clone();
                        l.extend_from_slice(&piece.last);
                        l
                    } else {
                        piece.last.clone()
                    };
                    acc = Piece {
                        first,
                        last,
                        nullable: acc.nullable && piece.nullable,
                    };
                }
                acc
            }
            Regex::Choice(items) => {
                let mut acc = Piece {
                    first: Vec::new(),
                    last: Vec::new(),
                    nullable: false,
                };
                for item in items {
                    let piece = self.visit(item);
                    acc.first.extend_from_slice(&piece.first);
                    acc.last.extend_from_slice(&piece.last);
                    acc.nullable |= piece.nullable;
                }
                acc
            }
            Regex::Star(inner) => {
                let mut piece = self.visit(inner);
                for &p in &piece.last {
                    let firsts = piece.first.clone();
                    self.follow[p].extend(firsts);
                }
                piece.nullable = true;
                piece
            }
            Regex::Plus(inner) => {
                let piece = self.visit(inner);
                for &p in &piece.last {
                    let firsts = piece.first.clone();
                    self.follow[p].extend(firsts);
                }
                piece
            }
            Regex::Opt(inner) => {
                let mut piece = self.visit(inner);
                piece.nullable = true;
                piece
            }
        }
    }

    /// Runs the child symbol sequence through the automaton.
    fn matches(&self, word: &[Sym]) -> bool {
        if word.is_empty() {
            return self.nullable;
        }
        let mut current: Vec<usize> = self
            .first
            .iter()
            .copied()
            .filter(|&p| self.syms[p] == word[0])
            .collect();
        for sym in &word[1..] {
            if current.is_empty() {
                return false;
            }
            let mut next: Vec<usize> = Vec::new();
            let mut seen = vec![false; self.syms.len()];
            for &p in &current {
                for &q in &self.follow[p] {
                    if self.syms[q] == *sym && !seen[q] {
                        seen[q] = true;
                        next.push(q);
                    }
                }
            }
            current = next;
        }
        current.iter().any(|&p| self.last[p])
    }
}

/// Validates `tree` against a [`GeneralDtd`] with arbitrary regular-expression
/// content models, using a Glushkov NFA per element type.
pub fn validate_general(tree: &XmlTree, dtd: &GeneralDtd) -> Result<(), ValidationError> {
    let automata: HashMap<&str, Glushkov> = dtd
        .decls
        .iter()
        .map(|(name, model)| (name.as_str(), Glushkov::build(model)))
        .collect();
    let root = tree.root();
    let root_tag = tree.tag(root).expect("root is an element");
    if root_tag != dtd.root {
        return Err(ValidationError {
            path: tree.path(root),
            reason: format!(
                "root is `{root_tag}` but the DTD root type is `{}`",
                dtd.root
            ),
        });
    }
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        let tag = tree.tag(node).expect("only elements are pushed");
        let Some(automaton) = automata.get(tag) else {
            return Err(ValidationError {
                path: tree.path(node),
                reason: format!("element type `{tag}` is not declared in the DTD"),
            });
        };
        let word: Vec<Sym> = tree
            .children(node)
            .iter()
            .map(|&c| match tree.kind(c) {
                NodeKind::Element(tag) => Sym::Elem(tag.to_string()),
                NodeKind::Text(_) => Sym::Text,
            })
            .collect();
        if !automaton.matches(&word) {
            return Err(ValidationError {
                path: tree.path(node),
                reason: format!(
                    "children of `{tag}` do not match its content model ({})",
                    dtd.decls
                        .iter()
                        .find(|(n, _)| n == tag)
                        .map(|(_, m)| m.to_string())
                        .unwrap_or_default()
                ),
            });
        }
        for &c in tree.children(node) {
            if tree.is_element(c) {
                stack.push(c);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::{DtdBuilder, GeneralDtd};

    fn simple_dtd() -> Dtd {
        let mut b = DtdBuilder::new();
        b.star("report", "patient");
        b.seq("patient", &["SSN", "pname"]);
        b.pcdata("SSN");
        b.pcdata("pname");
        b.build("report").unwrap()
    }

    fn conforming_tree() -> XmlTree {
        let mut t = XmlTree::new("report");
        for i in 0..3 {
            let p = t.add_element(t.root(), "patient");
            let ssn = t.add_element(p, "SSN");
            t.add_text(ssn, format!("s{i}"));
            let pname = t.add_element(p, "pname");
            t.add_text(pname, format!("n{i}"));
        }
        t
    }

    #[test]
    fn conforming_document_passes() {
        assert_eq!(validate(&conforming_tree(), &simple_dtd()), Ok(()));
    }

    #[test]
    fn empty_star_is_fine() {
        let t = XmlTree::new("report");
        assert_eq!(validate(&t, &simple_dtd()), Ok(()));
    }

    #[test]
    fn wrong_root_rejected() {
        let t = XmlTree::new("nope");
        let err = validate(&t, &simple_dtd()).unwrap_err();
        assert!(err.reason.contains("root"));
    }

    #[test]
    fn missing_seq_child_rejected() {
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let ssn = t.add_element(p, "SSN");
        t.add_text(ssn, "x");
        let err = validate(&t, &simple_dtd()).unwrap_err();
        assert!(err.reason.contains("exactly 2 children"), "{}", err.reason);
        assert_eq!(err.path, "/report/patient");
    }

    #[test]
    fn out_of_order_seq_rejected() {
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let pname = t.add_element(p, "pname");
        t.add_text(pname, "n");
        let ssn = t.add_element(p, "SSN");
        t.add_text(ssn, "s");
        assert!(validate(&t, &simple_dtd()).is_err());
    }

    #[test]
    fn foreign_child_under_star_rejected() {
        let mut t = XmlTree::new("report");
        t.add_element(t.root(), "SSN");
        assert!(validate(&t, &simple_dtd()).is_err());
    }

    #[test]
    fn pcdata_requires_single_text() {
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let ssn = t.add_element(p, "SSN");
        t.add_element(ssn, "pname"); // element where text expected
        let pn = t.add_element(p, "pname");
        t.add_text(pn, "n");
        assert!(validate(&t, &simple_dtd()).is_err());
    }

    #[test]
    fn choice_validation() {
        let mut b = DtdBuilder::new();
        b.seq("a", &["x"]);
        b.choice("x", &["y", "z"]);
        b.pcdata("y");
        b.empty("z");
        let dtd = b.build("a").unwrap();

        let mut good = XmlTree::new("a");
        let x = good.add_element(good.root(), "x");
        good.add_element(x, "z");
        assert_eq!(validate(&good, &dtd), Ok(()));

        let mut two = XmlTree::new("a");
        let x = two.add_element(two.root(), "x");
        two.add_element(x, "z");
        two.add_element(x, "z");
        assert!(validate(&two, &dtd).is_err());
    }

    #[test]
    fn general_validation_agrees_on_restricted_models() {
        let general = GeneralDtd::parse(
            "<!ELEMENT report (patient*)> <!ELEMENT patient (SSN, pname)> \
             <!ELEMENT SSN (#PCDATA)> <!ELEMENT pname (#PCDATA)>",
        )
        .unwrap();
        assert_eq!(validate_general(&conforming_tree(), &general), Ok(()));
        // The last patient is still open: an extra `SSN` appends in order.
        let mut bad = conforming_tree();
        let p = bad.element_children(bad.root()).last().unwrap();
        bad.add_element(p, "SSN");
        assert!(validate_general(&bad, &general).is_err());
        assert!(validate(&bad, &simple_dtd()).is_err());
    }

    #[test]
    fn general_validation_handles_optional_and_plus() {
        let general =
            GeneralDtd::parse("<!ELEMENT a (b?, c+)> <!ELEMENT b (#PCDATA)> <!ELEMENT c EMPTY>")
                .unwrap();
        // c+ with no b.
        let mut t = XmlTree::new("a");
        t.add_element(t.root(), "c");
        t.add_element(t.root(), "c");
        assert_eq!(validate_general(&t, &general), Ok(()));
        // b then c.
        let mut t = XmlTree::new("a");
        let b = t.add_element(t.root(), "b");
        t.add_text(b, "x");
        t.add_element(t.root(), "c");
        assert_eq!(validate_general(&t, &general), Ok(()));
        // missing mandatory c.
        let t = XmlTree::new("a");
        assert!(validate_general(&t, &general).is_err());
        // two bs.
        let mut t = XmlTree::new("a");
        let b1 = t.add_element(t.root(), "b");
        t.add_text(b1, "x");
        let b2 = t.add_element(t.root(), "b");
        t.add_text(b2, "y");
        t.add_element(t.root(), "c");
        assert!(validate_general(&t, &general).is_err());
    }

    #[test]
    fn general_validation_nested_star_choice() {
        let general = GeneralDtd::parse(
            "<!ELEMENT a ((b | c)*, d)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
        )
        .unwrap();
        let mut t = XmlTree::new("a");
        t.add_element(t.root(), "b");
        t.add_element(t.root(), "c");
        t.add_element(t.root(), "b");
        t.add_element(t.root(), "d");
        assert_eq!(validate_general(&t, &general), Ok(()));
        let mut t = XmlTree::new("a");
        t.add_element(t.root(), "d");
        t.add_element(t.root(), "b");
        assert!(validate_general(&t, &general).is_err());
    }

    #[test]
    fn normalized_document_strips_to_general_conformance() {
        // Build a document against the normalized DTD, strip synthetic
        // wrappers, and check it conforms to the original general DTD.
        let general = GeneralDtd::parse(
            "<!ELEMENT a (b, (c | d)*)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
        )
        .unwrap();
        let norm = general.normalize().unwrap();
        let dtd = &norm.dtd;

        // a -> b, _e0 ; _e0 -> _e1* ; _e1 -> c + d
        let mut t = XmlTree::new("a");
        t.add_element(t.root(), "b");
        let a = dtd.elem("a").unwrap();
        let ContentModel::Seq(items) = dtd.production(a) else {
            panic!()
        };
        let star_name = dtd.name(items[1]).to_string();
        let star = t.add_element(t.root(), star_name);
        let ContentModel::Star(choice_id) = dtd.production(items[1]) else {
            panic!()
        };
        let choice_name = dtd.name(*choice_id).to_string();
        for tag in ["c", "d", "c"] {
            let w = t.add_element(star, choice_name.clone());
            t.add_element(w, tag);
        }
        assert_eq!(validate(&t, dtd), Ok(()));

        let stripped = t.strip_elements(Dtd::is_synthetic);
        assert_eq!(validate_general(&stripped, &general), Ok(()));
        let tags: Vec<&str> = stripped
            .children(stripped.root())
            .iter()
            .filter_map(|&c| stripped.tag(c))
            .collect();
        assert_eq!(tags, vec!["b", "c", "d", "c"]);
    }
}
