//! Model-based property test of [`XmlTree`]: a naive tree of owned strings
//! and child vectors (the [`Model`] below, written for obviousness only) is
//! driven through the same seeded sequence of `add_element` / `add_text` /
//! `set_children` calls as the columnar tree — parents picked at random, so
//! nodes are *not* added in document order, and children are read between
//! mutations — and every accessor, both serializers, the parser round trip,
//! `Clone`, subtree copies, `strip_elements` and `sort_star_children` must
//! agree with it.
//!
//! In document-order mode parents are drawn from the open path only, so the
//! tree's walks scan ids. Each such tree is checked against its own twin
//! rebuilt out of id order — children appended shuffled, then put back with
//! `set_children` — which walks the child index: walk events, both
//! serializers, `validate` against a random restricted DTD and
//! `ConstraintSet::check` must not tell them apart, and the checker must
//! also match a naive one over the model. Each is also written again
//! through a `TreeWriter` — the same opens, texts and closes in pre-order,
//! with a node-count hint too small, exact and too large — and must come
//! out `==` to it, with the same tag and text ids, the same `to_string`,
//! in document order and agreeing with the model.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_xml::parse::parse;
use aig_xml::serialize::{to_pretty_string, to_string};
use aig_xml::tree::{CopyStep, TextId};
use aig_xml::{
    validate, validate_by_node, Constraint, ConstraintSet, Dtd, DtdBuilder, Inclusion, Key, NodeId,
    Violation, XmlTree,
};
use std::collections::{HashMap, HashSet};

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

    fn preorder(&self, node: usize, out: &mut Vec<usize>) {
        out.push(node);
        self.0[node].2.iter().for_each(|&k| self.preorder(k, out));
    }

    fn is(&self, node: usize, tag: &str) -> bool {
        self.0[node].0.as_deref() == Some(tag)
    }

    /// The value of `node`'s first `field` child: its direct text.
    fn value(&self, node: usize, field: &str) -> Option<String> {
        let kids = &self.0[node].2;
        let field = *kids.iter().find(|&&k| self.is(k, field))?;
        let texts = self.0[field].2.iter().filter(|&&k| self.0[k].0.is_none());
        Some(texts.map(|&k| self.0[k].1.as_str()).collect())
    }

    /// The paper's constraints, read off the definitions (§2): a key's
    /// duplicates in the order their second occurrence is met (outer
    /// contexts first), an inclusion's missing values context by context as
    /// they close, each in the order of its first occurrence.
    fn check(&self, set: &ConstraintSet) -> Vec<Violation> {
        let mut all = Vec::new();
        self.preorder(0, &mut all);
        let below = |ctx: usize| {
            let mut nodes = Vec::new();
            self.preorder(ctx, &mut nodes);
            nodes
        };
        let mut out = Vec::new();
        let mut report = |c: &Constraint, ctx: usize, value: &str| {
            out.push(Violation {
                constraint: c.to_string(),
                context_path: self.path(ctx),
                value: value.to_string(),
            })
        };
        for c in &set.constraints {
            match c {
                Constraint::Key(k) => {
                    let mut seen: HashMap<(usize, String), usize> = HashMap::new();
                    for &a in all.iter().filter(|&&a| self.is(a, &k.target)) {
                        let Some(value) = self.value(a, &k.field) else {
                            continue;
                        };
                        let mut up: Vec<usize> =
                            std::iter::successors(Some(a), |&n| self.parent(n)).collect();
                        up.reverse();
                        for &ctx in up.iter().filter(|&&n| self.is(n, &k.context)) {
                            let count = seen.entry((ctx, value.clone())).or_default();
                            *count += 1;
                            if *count == 2 {
                                report(c, ctx, &value);
                            }
                        }
                    }
                }
                Constraint::Inclusion(i) => {
                    let mut post = Vec::new();
                    self.postorder(0, &mut post);
                    for &ctx in post.iter().filter(|&&n| self.is(n, &i.context)) {
                        let nodes = below(ctx);
                        let values = |elem: &str, field: &str| {
                            let of = nodes.iter().filter(|&&n| self.is(n, elem));
                            of.filter_map(|&n| self.value(n, field)).collect::<Vec<_>>()
                        };
                        let rhs: HashSet<String> =
                            values(&i.rhs_elem, &i.rhs_field).into_iter().collect();
                        let mut reported = HashSet::new();
                        for value in values(&i.lhs_elem, &i.lhs_field) {
                            if !rhs.contains(&value) && reported.insert(value.clone()) {
                                report(c, ctx, &value);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn postorder(&self, node: usize, out: &mut Vec<usize>) {
        self.0[node].2.iter().for_each(|&k| self.postorder(k, out));
        out.push(node);
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

// `fourteen_bytes` spells `</fourteen_bytes>` in 17 bytes: one past the
// serializer's 16-byte chunk.
const TAGS: [&str; 7] = [
    "a",
    "b",
    "list",
    "_e1",
    "item",
    "long-tag.name_1",
    "fourteen_bytes",
];
// "xx" and "x " are concatenations of other entries: a field of several
// texts then has the value of a field of one. The last four are 15, 16, 17
// and 33 bytes long, around the serializer's 16-byte chunk: the 17-byte one
// has a two-byte character across the chunk boundary, the 33-byte one needs
// escapes.
const TEXTS: [&str; 15] = [
    "",
    "x",
    "a&b",
    "<tag>",
    "1 > 0",
    " padded ",
    "&amp;",
    "é…√",
    " ",
    "xx",
    "x ",
    "fifteen bytes..",
    "sixteen bytes...",
    "fifteen bytes..é",
    "x < y & y > z: thirty-four bytes!",
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
        check_everything(&tree, &model, &ids, &elements, &mut rng, seed);
    }
}

#[test]
fn a_tree_in_document_order_walks_like_its_out_of_order_twin() {
    let (mut branching, mut valid) = (0, 0);
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0xd0c + seed);
        let (mut tree, mut model) = (XmlTree::new("root"), new_model("root"));
        let (mut ids, mut elements) = (vec![tree.root()], vec![0usize]);
        // The open path: the root and the elements the next node may go
        // under, innermost last.
        let mut open = vec![0usize];
        // The same build as a writer's opens, texts and closes.
        let mut log = Vec::new();
        // Every fourth tree small, so that some conform to the DTD read off
        // them below.
        let size = [8, 120, 120, 120][seed as usize % 4];
        for _ in 0..rng.gen_range(1..size) {
            let keep = rng.gen_range(1..open.len() + 1);
            log.extend((keep..open.len()).map(|_| Write::Close));
            open.truncate(keep);
            let parent = *open.last().unwrap();
            if rng.gen_range(0..10u32) < 6 {
                let tag = *rng.pick(&TAGS);
                ids.push(tree.add_element(ids[parent], tag));
                let node = model.add(parent, Some(tag), "");
                elements.push(node);
                open.push(node);
                log.push(Write::Open(tag));
            } else {
                let text = *rng.pick(&TEXTS);
                ids.push(tree.add_text(ids[parent], text));
                model.add(parent, None, text);
                log.push(Write::Text(text));
            }
        }
        log.extend(open.iter().map(|_| Write::Close));
        let what = format!("seed {seed}, document order");
        assert!(tree.in_document_order(), "{what}");
        check_everything(&tree, &model, &ids, &elements, &mut rng, seed);

        let n = tree.len();
        for hint in [0, n / 2, n, 2 * n] {
            let what = format!("{what}, written with a hint of {hint} for {n} nodes");
            let written = write_tree(&log, hint, seed);
            assert!(written == tree, "{what}: ==");
            assert!(written.in_document_order(), "{what}");
            for node in tree.iter() {
                let ids = |t: &XmlTree| (t.elem_tag(node), t.text_id(node));
                assert_eq!(ids(&written), ids(&tree), "{what}: ids of {node}");
            }
            assert_eq!(to_string(&written), to_string(&tree), "{what}: to_string");
            assert_agree(&written, &model, &what);
        }

        let (twin, twin_ids) = out_of_order_twin(&model, &mut rng);
        if model.0.iter().any(|(_, _, kids)| kids.len() > 1) {
            branching += 1;
            assert!(
                !twin.in_document_order(),
                "{what}: the twin takes the index"
            );
        }
        assert_agree(
            &twin,
            &model_renumbered(&model, &twin_ids),
            &format!("{what}, twin"),
        );
        // Walk events of every subtree, as model nodes.
        let mut model_of = vec![0; model.0.len()];
        twin_ids
            .iter()
            .enumerate()
            .for_each(|(m, id)| model_of[id.index()] = m);
        for &node in &elements {
            let ordered: Vec<(usize, bool)> =
                tree.walk(ids[node]).map(|(n, e)| (n.index(), e)).collect();
            let twin_walk = twin
                .walk(twin_ids[node])
                .map(|(n, e)| (model_of[n.index()], e));
            assert_eq!(
                ordered,
                twin_walk.collect::<Vec<_>>(),
                "{what}: walk of {node}"
            );
        }
        assert_eq!(to_string(&tree), to_string(&twin), "{what}: to_string");
        assert_eq!(
            to_pretty_string(&tree),
            to_pretty_string(&twin),
            "{what}: pretty"
        );
        assert!(tree == twin, "{what}: ==");

        for dtd in [random_dtd(&mut rng), observed_dtd(&tree, &model)] {
            let verdict = validate(&tree, &dtd);
            valid += usize::from(verdict.is_ok());
            assert_eq!(verdict, validate(&twin, &dtd), "{what}: validate");
            assert_eq!(verdict, validate_by_node(&tree, &dtd), "{what}: per node");
        }
        let constraints = random_constraints(&mut rng);
        let violations = constraints.check(&tree);
        assert_eq!(
            violations,
            constraints.check(&twin),
            "{what}: {constraints:?}"
        );
        assert_eq!(
            violations,
            model.check(&constraints),
            "{what}: {constraints:?}"
        );
        assert_eq!(
            constraints.check_first(&tree),
            constraints.check_first(&twin),
            "{what}: check_first"
        );
    }
    assert!(
        branching > 30 && valid > 3,
        "{branching} branching, {valid} valid"
    );
}

/// One step of a pre-order write.
enum Write {
    Open(&'static str),
    Text(&'static str),
    Close,
}

/// `log` written through a `TreeWriter` sized for `hint` nodes: a text
/// written before goes by its id or is written again, at random.
fn write_tree(log: &[Write], hint: usize, seed: u64) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = XmlTree::new("root");
    let mut out = tree.writer(hint);
    let mut texts: HashMap<&str, TextId> = HashMap::new();
    for step in log {
        match *step {
            Write::Open(tag) => {
                let tag = out.intern_tag(tag);
                out.open(tag);
            }
            Write::Text(text) => match texts.get(text) {
                Some(&id) if rng.gen_bool(0.5) => drop(out.text_id(id)),
                _ => drop(texts.insert(text, out.text_with(|buf| buf.push_str(text)))),
            },
            Write::Close => out.close(),
        }
    }
    assert_eq!(out.open_tag(), None, "the log closes the root");
    tree
}

/// Everything the model can check of a tree whose ids are the model's.
fn check_everything(
    tree: &XmlTree,
    model: &Model,
    ids: &[NodeId],
    elements: &[usize],
    rng: &mut StdRng,
    seed: u64,
) {
    let what = format!("seed {seed}");
    assert_agree(tree, model, &what);
    assert_eq!(tree.clone(), *tree, "{what}: clone");
    assert_agree(&tree.clone(), model, &format!("{what}, cloned"));

    // parse(to_string(t)): t itself up to merged / dropped text nodes.
    let mut reparsed = new_model("root");
    model.reparsed(0, &mut reparsed, 0);
    let parsed = parse(&to_string(tree)).unwrap();
    assert_agree(&parsed, &reparsed, &format!("{what}, reparsed"));
    let same_shape = tree_shape(&parsed, parsed.root()) == tree_shape(tree, tree.root());
    assert_eq!(parsed == *tree, same_shape, "{what}: ==");
    assert_eq!(
        same_shape,
        parsed.len() == tree.len(),
        "{what}: only text nodes go"
    );

    // A subtree copy into a tree whose tag table is numbered differently,
    // skipping one node's subtree.
    let (from, skipped) = (*rng.pick(elements), rng.gen_range(0..model.0.len()));
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
    let internal = |n: usize| u8::from(model.0[n].0.as_deref().is_some_and(|t| t.starts_with('_')));
    model.copy_children(0, &mut stripped, 0, &internal);
    assert_agree(
        &tree.strip_elements(|tag| tag.starts_with('_')),
        &stripped,
        &format!("{what}, stripped"),
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
        &format!("{what}, star children sorted"),
    );
    assert_eq!(canonical.sort_star_children(|tag| tag == "list"), canonical);
}

/// `model` built again with each node's children appended in shuffled order
/// (never the model's, where there are two) and then put back in order with
/// `set_children`, breadth first; and the new id of each model node.
fn out_of_order_twin(model: &Model, rng: &mut StdRng) -> (XmlTree, Vec<NodeId>) {
    let mut twin = XmlTree::new(model.0[0].0.clone().unwrap());
    let mut ids = vec![twin.root(); model.0.len()];
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(node) = queue.pop_front() {
        let kids = &model.0[node].2;
        let mut shuffled = kids.clone();
        rng.shuffle(&mut shuffled);
        if kids.len() > 1 && shuffled == *kids {
            shuffled.rotate_left(1);
        }
        for &kid in &shuffled {
            ids[kid] = match &model.0[kid] {
                (Some(tag), _, _) => twin.add_element(ids[node], tag.as_str()),
                (None, text, _) => twin.add_text(ids[node], text.as_str()),
            };
        }
        twin.set_children(ids[node], kids.iter().map(|&k| ids[k]).collect());
        queue.extend(kids.iter().filter(|&&k| model.0[k].0.is_some()));
    }
    (twin, ids)
}

/// `model` with its nodes numbered as `ids` numbers them.
fn model_renumbered(model: &Model, ids: &[NodeId]) -> Model {
    let mut out = model.clone();
    for (m, node) in model.0.iter().enumerate() {
        let kids = node.2.iter().map(|&k| ids[k].index()).collect();
        out.0[ids[m].index()] = (node.0.clone(), node.1.clone(), kids);
    }
    out
}

/// A restricted DTD declaring every tag with a random production.
fn random_dtd(rng: &mut StdRng) -> Dtd {
    let mut dtd = DtdBuilder::new();
    for tag in std::iter::once("root").chain(TAGS) {
        let (kind, len) = (rng.gen_range(0..5u32), rng.gen_range(1..4));
        let kids: Vec<&str> = (0..len + 1).map(|_| *rng.pick(&TAGS)).collect();
        match kind {
            0 => dtd.pcdata(tag),
            1 => dtd.empty(tag),
            2 => dtd.star(tag, kids[0]),
            3 => dtd.seq(tag, &kids[1..]),
            _ => dtd.choice(tag, &kids),
        };
    }
    dtd.build("root").unwrap()
}

/// A restricted DTD that each tag's first element in `model` satisfies:
/// `S` for a single text child, `ε` for none, a star of one repeated child
/// tag, else the sequence of its element children.
fn observed_dtd(tree: &XmlTree, model: &Model) -> Dtd {
    let mut dtd = DtdBuilder::new();
    let mut declared = HashSet::new();
    for node in tree.iter().filter(|&n| tree.is_element(n)) {
        let (tag, _, kids) = &model.0[node.index()];
        let tag = tag.as_deref().unwrap();
        if !declared.insert(tag) {
            continue;
        }
        let kid_tags: Vec<&str> = kids
            .iter()
            .filter_map(|&k| model.0[k].0.as_deref())
            .collect();
        match kids.as_slice() {
            [] => dtd.empty(tag),
            [only] if model.0[*only].0.is_none() => dtd.pcdata(tag),
            _ if kid_tags.len() > 1 && kid_tags.iter().all(|t| *t == kid_tags[0]) => {
                dtd.star(tag, kid_tags[0])
            }
            _ => dtd.seq(tag, &kid_tags),
        };
    }
    for tag in TAGS.iter().filter(|t| !declared.contains(*t)) {
        dtd.empty(tag);
    }
    dtd.build("root").unwrap()
}

/// Three keys or inclusions over random tags, the root a likely context.
fn random_constraints(rng: &mut StdRng) -> ConstraintSet {
    let tags: Vec<&str> = std::iter::once("root").chain(TAGS).collect();
    let constraints = (0..3)
        .map(|_| {
            let key = rng.gen_bool(0.5);
            let mut tag = || rng.pick(&tags).to_string();
            let (context, target, field) = (tag(), tag(), tag());
            match key {
                true => Constraint::Key(Key {
                    context,
                    target,
                    field,
                }),
                false => Constraint::Inclusion(Inclusion {
                    context,
                    lhs_elem: target,
                    lhs_field: field,
                    rhs_elem: tag(),
                    rhs_field: tag(),
                }),
            }
        })
        .collect();
    ConstraintSet::new(constraints)
}
