//! Model-based property test of [`XmlTree`]: a naive tree of owned strings
//! and child vectors (the [`Model`] below, written for obviousness only) is
//! driven through the same seeded sequence of `add_element` / `add_text` /
//! `set_children` calls as the columnar tree — parents picked at random, so
//! nodes are *not* added in document order, and children are read between
//! mutations — and every accessor, both serializers, the parser round trip,
//! `Clone`, subtree copies, `strip_elements` and `sort_star_children` must
//! agree with it.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_xml::parse::parse;
use aig_xml::serialize::{to_pretty_string, to_string};
use aig_xml::tree::CopyStep;
use aig_xml::{NodeId, XmlTree};

/// Node = (tag, or `None` for text; PCDATA; children), indexed like the tree.
#[derive(Clone)]
struct Model(Vec<(Option<String>, String, Vec<usize>)>);

fn escape(text: &str) -> String {
    let text = text.replace('&', "&amp;");
    text.replace('<', "&lt;").replace('>', "&gt;")
}

impl Model {
    fn add(&mut self, parent: usize, tag: Option<&str>, text: &str) -> usize {
        let id = self.0.len();
        self.0
            .push((tag.map(str::to_string), text.to_string(), Vec::new()));
        self.0[parent].2.push(id);
        id
    }

    fn parent(&self, node: usize) -> Option<usize> {
        (0..self.0.len()).find(|&p| self.0[p].2.contains(&node))
    }

    fn path(&self, node: usize) -> String {
        let own = self.0[node].0.as_deref().unwrap_or("#text");
        let above = self.parent(node).map(|p| self.path(p));
        format!("{}/{own}", above.unwrap_or_default())
    }

    fn size(&self, node: usize) -> usize {
        1 + self.0[node].2.iter().map(|&k| self.size(k)).sum::<usize>()
    }

    fn xml(&self, node: usize) -> String {
        let (tag, text, kids) = &self.0[node];
        let inner: String = kids.iter().map(|&k| self.xml(k)).collect();
        match tag {
            None => escape(text),
            Some(tag) if kids.is_empty() => format!("<{tag}/>"),
            Some(tag) => format!("<{tag}>{inner}</{tag}>"),
        }
    }

    fn pretty(&self, node: usize, indent: usize) -> String {
        let (tag, text, kids) = &self.0[node];
        let pad = "  ".repeat(indent);
        match tag {
            None => format!("{pad}{}", escape(text)),
            Some(tag) if kids.is_empty() => format!("{pad}<{tag}/>"),
            Some(tag) if kids.len() == 1 && self.0[kids[0]].0.is_none() => {
                format!("{pad}<{tag}>{}</{tag}>", escape(&self.0[kids[0]].1))
            }
            Some(tag) => {
                let lines = kids.iter().map(|&k| self.pretty(k, indent + 1) + "\n");
                format!("{pad}<{tag}>\n{}{pad}</{tag}>", lines.collect::<String>())
            }
        }
    }

    /// The sort key of `sort_star_children`: the subtree spelled out.
    fn key(&self, node: usize) -> String {
        let (tag, text, kids) = &self.0[node];
        let inner: String = kids.iter().map(|&k| self.key(k)).collect();
        tag.as_ref()
            .map_or(text.clone(), |tag| format!("<{tag}>{inner}</>"))
    }

    /// Copies `node`'s children under `to` in `out`: `step` as in
    /// [`CopyStep`] (0 keep, 1 splice, 2 skip).
    fn copy_children(&self, node: usize, out: &mut Model, to: usize, step: &dyn Fn(usize) -> u8) {
        for &kid in &self.0[node].2 {
            match step(kid) {
                0 => {
                    let (tag, text, _) = &self.0[kid];
                    let copy = out.add(to, tag.as_deref(), text);
                    self.copy_children(kid, out, copy, step);
                }
                1 => self.copy_children(kid, out, to, step),
                _ => {}
            }
        }
    }

    /// What parsing the serialized document yields: adjacent text merged,
    /// whitespace-only text dropped.
    fn reparsed(&self, node: usize, out: &mut Model, to: usize) {
        let is_text = |&k: &usize| self.0[k].0.is_none();
        for run in self.0[node].2.chunk_by(|a, b| is_text(a) && is_text(b)) {
            let text: String = run.iter().map(|&k| self.0[k].1.as_str()).collect();
            match &self.0[run[0]].0 {
                Some(tag) => {
                    let copy = out.add(to, Some(tag), "");
                    self.reparsed(run[0], out, copy);
                }
                None if text.trim().is_empty() => {}
                None => drop(out.add(to, None, &text)),
            }
        }
    }
}

fn sort_lists(model: &mut Model, node: usize) {
    let mut kids = model.0[node].2.clone();
    kids.iter().for_each(|&k| sort_lists(model, k));
    if model.0[node].0.as_deref() == Some("list") {
        kids.sort_by_cached_key(|&k| model.key(k));
        model.0[node].2 = kids;
    }
}

fn new_model(root: &str) -> Model {
    Model(vec![(Some(root.to_string()), String::new(), Vec::new())])
}

fn tree_shape(tree: &XmlTree, node: NodeId) -> String {
    let kids: Vec<String> = tree
        .children(node)
        .iter()
        .map(|&k| tree_shape(tree, k))
        .collect();
    match tree.tag(node) {
        None => format!("{:?}", tree.text(node).unwrap()),
        Some(tag) => format!("{tag}({})", kids.join(",")),
    }
}

/// Every accessor of `tree` against `model`; node ids coincide.
fn assert_agree(tree: &XmlTree, model: &Model, what: &str) {
    assert_eq!(tree.len(), model.0.len(), "{what}: len");
    for (i, (tag, text, kids)) in model.0.iter().enumerate() {
        let node = tree
            .iter()
            .find(|n| n.index() == i)
            .expect("every node is reachable");
        let children: Vec<usize> = tree.children(node).iter().map(|c| c.index()).collect();
        assert_eq!(&children, kids, "{what}: children of {i}");
        assert_eq!(
            tree.parent(node).map(NodeId::index),
            model.parent(i),
            "{what}: parent of {i}"
        );
        assert_eq!(tree.tag(node), tag.as_deref(), "{what}: tag of {i}");
        assert_eq!(
            tree.text(node),
            tag.is_none().then_some(text.as_str()),
            "{what}: text of {i}"
        );
        assert_eq!(tree.is_element(node), tag.is_some(), "{what}: kind of {i}");
        assert_eq!(tree.path(node), model.path(i), "{what}: path of {i}");
        assert_eq!(
            tree.depth(node),
            model.path(i).matches('/').count() - 1,
            "{what}: depth of {i}"
        );
        assert_eq!(
            tree.subtree_size(node),
            model.size(i),
            "{what}: subtree size of {i}"
        );
    }
    assert_eq!(to_string(tree), model.xml(0), "{what}: to_string");
    assert_eq!(
        to_pretty_string(tree),
        model.pretty(0, 0) + "\n",
        "{what}: to_pretty_string"
    );
}

const TAGS: [&str; 6] = ["a", "b", "list", "_e1", "item", "long-tag.name_1"];
const TEXTS: [&str; 9] = [
    "", "x", "a&b", "<tag>", "1 > 0", " padded ", "&amp;", "é…√", " ",
];

#[test]
fn the_columnar_tree_agrees_with_a_naive_model() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x7ee5 + seed);
        let (mut tree, mut model) = (XmlTree::new("root"), new_model("root"));
        // Model index → tree id (the same number), and the element indices.
        let (mut ids, mut elements) = (vec![tree.root()], vec![0usize]);
        for op in 0..rng.gen_range(1..120usize) {
            let parent = *rng.pick(&elements);
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    let tag = *rng.pick(&TAGS);
                    ids.push(tree.add_element(ids[parent], tag));
                    elements.push(model.add(parent, Some(tag), ""));
                }
                5..=7 => {
                    let text = *rng.pick(&TEXTS);
                    ids.push(tree.add_text(ids[parent], text));
                    model.add(parent, None, text);
                }
                _ => {
                    let mut order = model.0[parent].2.clone();
                    rng.shuffle(&mut order);
                    tree.set_children(ids[parent], order.iter().map(|&k| ids[k]).collect());
                    model.0[parent].2 = order;
                }
            }
            assert_eq!(ids.last().map(|id| id.index()), Some(model.0.len() - 1));
            // Reading between mutations must see every mutation so far.
            if op % 17 == 0 {
                assert_agree(&tree, &model, &format!("seed {seed} after op {op}"));
            }
        }
        let what = format!("seed {seed}");
        assert_agree(&tree, &model, &what);
        assert_eq!(tree.clone(), tree, "{what}: clone");
        assert_agree(&tree.clone(), &model, &format!("{what}, cloned"));

        // parse(to_string(t)): t itself up to merged / dropped text nodes.
        let mut reparsed = new_model("root");
        model.reparsed(0, &mut reparsed, 0);
        let parsed = parse(&to_string(&tree)).unwrap();
        assert_agree(&parsed, &reparsed, &format!("{what}, reparsed"));
        let same_shape = tree_shape(&parsed, parsed.root()) == tree_shape(&tree, tree.root());
        assert_eq!(parsed == tree, same_shape, "{what}: ==");
        assert_eq!(
            same_shape,
            parsed.len() == tree.len(),
            "{what}: only text nodes go"
        );

        // A subtree copy into a tree whose tag table is numbered differently,
        // skipping one node's subtree.
        let (from, skipped) = (*rng.pick(&elements), rng.gen_range(0..model.0.len()));
        let mut copy = XmlTree::new("copy");
        let under = copy.add_element(copy.root(), "item");
        let copied = tree
            .copier()
            .copy_children(&mut copy, under, ids[from], |n| {
                match n.index() == skipped {
                    true => CopyStep::Skip,
                    false => CopyStep::Keep,
                }
            });
        let mut expected = new_model("copy");
        let to = expected.add(0, Some("item"), "");
        model.copy_children(from, &mut expected, to, &|n| 2 * u8::from(n == skipped));
        assert_eq!(copied, expected.0.len() - 2, "{what}: nodes copied");
        assert_agree(
            &copy,
            &expected,
            &format!("{what}, copy of {from} without {skipped}"),
        );

        // strip_elements: `_`-tags spliced out, the root kept.
        let mut stripped = new_model("root");
        let internal =
            |n: usize| u8::from(model.0[n].0.as_deref().is_some_and(|t| t.starts_with('_')));
        model.copy_children(0, &mut stripped, 0, &internal);
        let what = format!("{what}, stripped");
        assert_agree(
            &tree.strip_elements(|tag| tag.starts_with('_')),
            &stripped,
            &what,
        );

        // sort_star_children: node ids kept, each `list`'s children sorted
        // (stably) by content, descendants before ancestors — so the result
        // is canonical: sorting it again changes nothing.
        let mut sorted = model.clone();
        sort_lists(&mut sorted, 0);
        let canonical = tree.sort_star_children(|tag| tag == "list");
        assert_agree(
            &canonical,
            &sorted,
            &format!("seed {seed}, star children sorted"),
        );
        assert_eq!(canonical.sort_star_children(|tag| tag == "list"), canonical);
    }
}
