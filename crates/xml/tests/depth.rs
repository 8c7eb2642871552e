//! Hostile depth: a document nested 200,000 deep must parse, serialize,
//! validate, compare, copy and canonicalize without the call stack growing
//! with it. Every case runs on a thread with a 256 KiB stack, which a
//! recursion over the document would exhaust within a few thousand levels.

use aig_xml::dtd::{DtdBuilder, GeneralDtd};
use aig_xml::parse::parse;
use aig_xml::serialize::{to_pretty_string, to_string};
use aig_xml::{repair, validate, validate_general, ConstraintSet, XmlError};

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

#[test]
fn a_200k_deep_document_goes_through_every_tree_walk() {
    on_a_small_stack(|| {
        let xml = chain_xml(DEPTH);
        let tree = parse(&xml).expect("deep nesting is well-formed");
        assert_eq!(tree.len(), DEPTH + 1);
        assert_eq!(tree.height(tree.root()), DEPTH);
        let leaf = tree.iter().last().unwrap();
        assert_eq!(tree.depth(leaf), DEPTH);
        assert_eq!(tree.path(leaf).len(), "/r".len() + 2 * DEPTH);
        assert_eq!(tree.subtree_size(tree.root()), DEPTH + 1);

        assert_eq!(to_string(&tree), xml);
        let copy = tree.clone();
        assert!(copy == tree);
        let mut longer = tree.clone();
        longer.add_element(leaf, "a");
        assert!(longer != tree);

        let mut dtd = DtdBuilder::new();
        dtd.seq("r", &["a"]);
        dtd.star("a", "a");
        let dtd = dtd.build("r").unwrap();
        assert_eq!(validate(&tree, &dtd), Ok(()));
        assert_eq!(validate(&longer, &dtd), Ok(()));
        let general = GeneralDtd::parse("<!ELEMENT r (a)> <!ELEMENT a (a?)>").unwrap();
        assert_eq!(validate_general(&tree, &general), Ok(()));

        // Every `a` spliced out leaves the root; none spliced out, a copy.
        assert_eq!(tree.strip_elements(|tag| tag == "a").len(), 1);
        assert!(tree.strip_elements(|_| false) == tree);
        // `canonical` is `sort_star_children` over the DTD's star parents.
        assert!(tree.sort_star_children(|tag| tag == "a") == tree);

        // The constraint checker and the repairer walk the whole tree too.
        let constraints = ConstraintSet::parse("r(a.k -> a); r(a.k <= a.k)").unwrap();
        assert!(constraints.check(&tree).is_empty());
        assert!(constraints.satisfied(&tree));
        assert!(repair(&tree, &constraints, &dtd).actions.is_empty());
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

#[test]
fn unbalanced_deep_input_is_a_syntax_error_not_an_abort() {
    on_a_small_stack(|| {
        let open_only = "<a>".repeat(DEPTH);
        assert!(matches!(parse(&open_only), Err(XmlError::XmlSyntax { .. })));
        let crossed = format!("{}</b>", "<a>".repeat(DEPTH));
        assert!(matches!(parse(&crossed), Err(XmlError::XmlSyntax { .. })));
    });
}
