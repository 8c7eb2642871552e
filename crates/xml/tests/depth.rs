//! Hostile depth: a document nested 200,000 deep must parse, serialize,
//! validate, compare, copy and canonicalize without the call stack growing
//! with it, and a DTD content model nested 30,000 deep must be refused the
//! same way. Every case runs on a thread with a 256 KiB stack, which a
//! recursion over the document would exhaust within a few thousand levels.
//! The document goes through both walks: parsed, its ids are its document
//! order; built out of order, it is walked through the child index.

use aig_xml::dtd::{DtdBuilder, GeneralDtd, MAX_MODEL_DEPTH};
use aig_xml::parse::parse;
use aig_xml::serialize::{to_pretty_string, to_string};
use aig_xml::{repair, validate, validate_general, ConstraintSet, Violation, XmlError, XmlTree};

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

/// The chain with a `<b/>` after it, built with `b` first and then put
/// last: ids out of document order.
fn forked_chain_out_of_order(depth: usize) -> XmlTree {
    let mut tree = XmlTree::new("r");
    let b = tree.add_element(tree.root(), "b");
    let first = tree.add_element(tree.root(), "a");
    (1..depth).fold(first, |a, _| tree.add_element(a, "a"));
    tree.set_children(tree.root(), vec![first, b]);
    tree
}

#[test]
fn a_200k_deep_document_goes_through_every_tree_walk() {
    on_a_small_stack(|| {
        let chain = chain_xml(DEPTH);
        let xml = format!("{}<b/></r>", &chain[..chain.len() - "</r>".len()]);
        let parsed = parse(&xml).expect("deep nesting is well-formed");
        let twin = forked_chain_out_of_order(DEPTH);
        assert!(parsed.in_document_order() && !twin.in_document_order());
        assert!(parsed == twin);

        let mut dtd = DtdBuilder::new();
        dtd.seq("r", &["a", "b"]);
        dtd.star("a", "a");
        dtd.empty("b");
        let dtd = dtd.build("r").unwrap();
        let general =
            GeneralDtd::parse("<!ELEMENT r (a, b)> <!ELEMENT a (a?)> <!ELEMENT b EMPTY>").unwrap();
        // No `a` has a `b` child, so each awaits its value until it closes;
        // every `a` but the last has an `a` first child, whose value is "".
        let constraints = ConstraintSet::parse("r(a.b -> a); r(a.b <= a.b); r(a.a -> a)").unwrap();
        let duplicate = Violation {
            constraint: "r(a.a -> a)".into(),
            context_path: "/r".into(),
            value: String::new(),
        };
        let untouched = ConstraintSet::parse("r(a.k -> a); r(a.k <= a.k)").unwrap();

        for tree in [parsed, twin] {
            assert_eq!(tree.len(), DEPTH + 2);
            assert_eq!(tree.height(tree.root()), DEPTH);
            let leaf = tree.iter().nth(DEPTH).unwrap();
            assert_eq!(tree.depth(leaf), DEPTH);
            assert_eq!(tree.path(leaf).len(), "/r".len() + 2 * DEPTH);
            assert_eq!(tree.subtree_size(tree.root()), DEPTH + 2);

            assert_eq!(to_string(&tree), xml);
            let copy = tree.clone();
            assert!(copy == tree);
            let mut longer = tree.clone();
            longer.add_element(leaf, "a");
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
