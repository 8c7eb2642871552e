//! Hostile depth: a document nested 200,000 deep must parse, serialize,
//! validate, compare, copy and canonicalize without the call stack growing
//! with it, and a DTD content model nested 30,000 deep must be refused the
//! same way. Every case runs on a thread with a 256 KiB stack, which a
//! recursion over the document would exhaust within a few thousand levels.
//! The document is built both ways: parsed, and appended node by node, the
//! last append climbing the whole chain to find its parent open.

use aig_xml::dtd::{Dtd, DtdBuilder, GeneralDtd, MAX_MODEL_DEPTH};
use aig_xml::parse::parse;
use aig_xml::serialize::{to_pretty_string, to_string};
use aig_xml::{
    repair, validate, validate_by_node, validate_general, ConstraintSet, Violation, XmlError,
    XmlTree,
};

const DEPTH: usize = 200_000;

fn on_a_small_stack(case: impl FnOnce() + Send + 'static) {
    let thread = std::thread::Builder::new().stack_size(256 * 1024);
    let outcome = thread.spawn(case).expect("spawn").join();
    assert!(outcome.is_ok(), "the case panicked");
}

/// `<r><a><a>…<a/>…</a></a></r>` with `depth` nested `a`s.
fn chain_xml(depth: usize) -> String {
    format!(
        "<r>{}<a/>{}</r>",
        "<a>".repeat(depth - 1),
        "</a>".repeat(depth - 1)
    )
}

/// The chain with a `<b/>` after it, appended node by node.
fn forked_chain(depth: usize) -> XmlTree {
    let mut tree = XmlTree::new("r");
    let first = tree.add_element(tree.root(), "a");
    (1..depth).fold(first, |a, _| tree.add_element(a, "a"));
    tree.add_element(tree.root(), "b");
    tree
}

/// `r` holds a chain of `a`s, then a `b`: restricted and general.
fn forked_chain_dtds() -> (Dtd, GeneralDtd) {
    let mut dtd = DtdBuilder::new();
    dtd.seq("r", &["a", "b"]);
    dtd.star("a", "a");
    dtd.empty("b");
    let general =
        GeneralDtd::parse("<!ELEMENT r (a, b)> <!ELEMENT a (a?)> <!ELEMENT b EMPTY>").unwrap();
    (dtd.build("r").unwrap(), general)
}

#[test]
fn a_200k_deep_document_goes_through_every_tree_walk() {
    on_a_small_stack(|| {
        let chain = chain_xml(DEPTH);
        let xml = format!("{}<b/></r>", &chain[..chain.len() - "</r>".len()]);
        let parsed = parse(&xml).expect("deep nesting is well-formed");
        let appended = forked_chain(DEPTH);
        assert!(parsed == appended);
        // One `a` deeper.
        let longer = forked_chain(DEPTH + 1);

        let (dtd, general) = forked_chain_dtds();
        // No `a` has a `b` child, so each awaits its value until it closes;
        // every `a` but the last has an `a` first child, whose value is "".
        let constraints = ConstraintSet::parse("r(a.b -> a); r(a.b <= a.b); r(a.a -> a)").unwrap();
        let duplicate = Violation {
            constraint: "r(a.a -> a)".into(),
            context_path: "/r".into(),
            value: String::new(),
        };
        let untouched = ConstraintSet::parse("r(a.k -> a); r(a.k <= a.k)").unwrap();

        for tree in [parsed, appended] {
            assert_eq!(tree.len(), DEPTH + 2);
            assert_eq!(tree.height(tree.root()), DEPTH);
            let leaf = tree.iter().nth(DEPTH).unwrap();
            assert_eq!(tree.depth(leaf), DEPTH);
            assert_eq!(tree.path(leaf).len(), "/r".len() + 2 * DEPTH);
            assert_eq!(tree.subtree_size(tree.root()), DEPTH + 2);

            assert_eq!(to_string(&tree), xml);
            let copy = tree.clone();
            assert!(copy == tree);
            assert!(longer != tree);

            assert_eq!(validate(&tree, &dtd), Ok(()));
            assert_eq!(validate(&longer, &dtd), Ok(()));
            assert_eq!(validate_general(&tree, &general), Ok(()));

            // Every `a` spliced out leaves the root and `b`; none spliced
            // out, a copy.
            assert_eq!(tree.strip_elements(|tag| tag == "a").len(), 2);
            assert!(tree.strip_elements(|_| false) == tree);
            // `canonical` is `sort_star_children` over the DTD's star parents.
            assert!(tree.sort_star_children(|tag| tag == "a") == tree);

            // The constraint checker and the repairer walk the whole tree too.
            assert_eq!(constraints.check(&tree), std::slice::from_ref(&duplicate));
            assert_eq!(constraints.check_first(&tree), Some(duplicate.clone()));
            assert!(untouched.satisfied(&tree));
            assert!(repair(&tree, &untouched, &dtd).actions.is_empty());
        }
    });
}

/// The same document with a `<b/>` in its deepest `a`, which holds only
/// `a`s: rejected, and the offending node named, 200,000 levels down.
#[test]
fn a_200k_deep_document_that_breaks_its_dtd_is_rejected() {
    on_a_small_stack(|| {
        let xml = format!(
            "<r>{}<a><b/></a>{}<b/></r>",
            "<a>".repeat(DEPTH - 1),
            "</a>".repeat(DEPTH - 1)
        );
        let tree = parse(&xml).expect("deep nesting is well-formed");
        let (dtd, general) = forked_chain_dtds();
        let error = validate(&tree, &dtd).expect_err("a `b` under an `a`");
        assert_eq!(validate_by_node(&tree, &dtd), Err(error.clone()));
        assert_eq!(error.path, format!("/r{}", "/a".repeat(DEPTH)));
        assert!(validate_general(&tree, &general).is_err());
    });
}

#[test]
fn the_pretty_printer_does_not_recurse_either() {
    // Indentation makes its output quadratic in the depth, so it gets a
    // shallower chain — still far deeper than 256 KiB of frames would reach.
    on_a_small_stack(|| {
        let depth = 4_000;
        let tree = parse(&chain_xml(depth)).unwrap();
        let pretty = to_pretty_string(&tree);
        assert_eq!(pretty.lines().count(), 2 * depth + 1);
        assert!(parse(&pretty).unwrap() == tree);
    });
}

/// A content model nested past `MAX_MODEL_DEPTH` — by parentheses, by a
/// postfix chain, or by both — is a syntax error, found without recursing
/// on its depth; one at the cap parses.
#[test]
fn a_hostile_content_model_is_a_syntax_error_not_an_abort() {
    on_a_small_stack(|| {
        let deep = 30_000;
        let nested = format!("<!ELEMENT a {}a{}>", "(".repeat(deep), ")".repeat(deep));
        let starred = format!("<!ELEMENT a (a{})>", "*".repeat(deep));
        let wrapped = format!("<!ELEMENT a {}a{}>", "(".repeat(600), ")*+".repeat(600));
        for src in [nested, starred, wrapped] {
            let err = GeneralDtd::parse(&src).unwrap_err();
            assert!(matches!(err, XmlError::DtdSyntax { .. }), "{err}");
        }
        let at_cap = format!("<!ELEMENT a (a{})>", "?".repeat(MAX_MODEL_DEPTH - 1));
        assert_eq!(GeneralDtd::parse(&at_cap).unwrap().decls.len(), 1);
        // The set that replaced the pairwise duplicate scan still rejects one.
        let duplicate = "<!ELEMENT a (b)> <!ELEMENT b EMPTY> <!ELEMENT a EMPTY>";
        let err = GeneralDtd::parse(duplicate).unwrap_err();
        assert!(matches!(err, XmlError::DuplicateElement(ref name) if name == "a"));
    });
}

#[test]
fn unbalanced_deep_input_is_a_syntax_error_not_an_abort() {
    on_a_small_stack(|| {
        let open_only = "<a>".repeat(DEPTH);
        assert!(matches!(parse(&open_only), Err(XmlError::XmlSyntax { .. })));
        let crossed = format!("{}</b>", "<a>".repeat(DEPTH));
        assert!(matches!(parse(&crossed), Err(XmlError::XmlSyntax { .. })));
    });
}
