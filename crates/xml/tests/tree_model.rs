//! Model-based property test of [`XmlTree`]: a naive tree of owned strings
//! and child vectors (the [`Model`] below, written for obviousness only) is
//! driven through the same seeded sequence of `add_element` / `add_text`
//! calls as the columnar tree — each parent drawn from the open path, the
//! last node and its ancestors, and children read between appends — and
//! every accessor, both serializers, the parser round trip, `Clone`, `copy`
//! (with a random skip, a random splice and every child list shuffled),
//! `strip_elements` and `sort_star_children` must agree with it. Each tree
//! is also written again through a `TreeWriter` — the same opens, texts and
//! closes in pre-order, with a node-count hint too small, exact and too
//! large — and must come out `==` to it, with the same tag and text ids and
//! the same `to_string`. `validate` against random restricted DTDs must
//! agree with `validate_by_node`, and `ConstraintSet::check` and
//! `check_first` with a naive checker over the model.

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
    /// [`CopyStep`] (0 keep, 1 splice, 2 skip). Copied with `step` 0
    /// throughout from the root, a model is renumbered in pre-order.
    fn copy_into(&self, node: usize, out: &mut Model, to: usize, step: &dyn Fn(usize) -> u8) {
        for &kid in &self.0[node].2 {
            match step(kid) {
                0 => {
                    let (tag, text, _) = &self.0[kid];
                    let copy = out.add(to, tag.as_deref(), text);
                    self.copy_into(kid, out, copy, step);
                }
                1 => self.copy_into(kid, out, to, step),
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

/// A random tree appended in document order, the model beside it.
struct Build {
    tree: XmlTree,
    model: Model,
    /// Model index → tree id (the same number).
    ids: Vec<NodeId>,
    /// The element indices.
    elements: Vec<usize>,
    /// The same build as a writer's opens, texts and closes.
    log: Vec<Write>,
}

/// Up to `size` nodes, each under a node of the open path — the root and
/// the elements the next node may go under, innermost last — with every
/// accessor checked against the model every 17 appends.
fn build(rng: &mut StdRng, size: usize, seed: u64) -> Build {
    let (mut tree, mut model) = (XmlTree::new("root"), new_model("root"));
    let (mut ids, mut elements) = (vec![tree.root()], vec![0usize]);
    let (mut open, mut log) = (vec![0usize], Vec::new());
    for op in 0..rng.gen_range(1..size) {
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
        assert_eq!(ids.last().map(|id| id.index()), Some(model.0.len() - 1));
        // Reading between appends must see every append so far.
        if op % 17 == 0 {
            assert_agree(&tree, &model, &format!("seed {seed} after op {op}"));
        }
    }
    log.extend(open.iter().map(|_| Write::Close));
    Build {
        tree,
        model,
        ids,
        elements,
        log,
    }
}

#[test]
fn the_columnar_tree_agrees_with_a_naive_model() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x7ee5 + seed);
        let build = build(&mut rng, 120, seed);
        check_everything(&build, &mut rng, seed);
    }
}

#[test]
fn validation_and_constraints_agree_with_the_model() {
    let (mut branching, mut valid) = (0, 0);
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0xd0c + seed);
        // Every fourth tree small, so that some conform to the DTD read off
        // them below.
        let build = build(&mut rng, [8, 120, 120, 120][seed as usize % 4], seed);
        check_everything(&build, &mut rng, seed);
        let (tree, model) = (&build.tree, &build.model);
        let what = format!("seed {seed}");
        branching += usize::from(model.0.iter().any(|(_, _, kids)| kids.len() > 1));
        for dtd in [random_dtd(&mut rng), observed_dtd(tree, model)] {
            let verdict = validate(tree, &dtd);
            valid += usize::from(verdict.is_ok());
            assert_eq!(verdict, validate_by_node(tree, &dtd), "{what}: per node");
        }
        let constraints = random_constraints(&mut rng);
        let violations = constraints.check(tree);
        assert_eq!(
            violations,
            model.check(&constraints),
            "{what}: {constraints:?}"
        );
        assert_eq!(
            constraints.check_first(tree).as_ref(),
            violations.first(),
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
fn check_everything(build: &Build, rng: &mut StdRng, seed: u64) {
    let Build {
        tree,
        model,
        ids,
        elements,
        log,
    } = build;
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

    // The same build through a writer, whatever its node-count hint.
    let n = tree.len();
    for hint in [0, n / 2, n, 2 * n] {
        let what = format!("{what}, written with a hint of {hint} for {n} nodes");
        let written = write_tree(log, hint, seed);
        assert!(written == *tree, "{what}: ==");
        for node in tree.iter() {
            let ids = |t: &XmlTree| (t.elem_tag(node), t.text_id(node));
            assert_eq!(ids(&written), ids(tree), "{what}: ids of {node}");
        }
        assert_eq!(to_string(&written), to_string(tree), "{what}: to_string");
        assert_agree(&written, model, &what);
    }

    // A copy with every child list shuffled, one element spliced out and
    // one node's subtree skipped (either may be the root: never touched).
    let mut shuffled = model.clone();
    for (_, _, kids) in &mut shuffled.0 {
        rng.shuffle(kids);
    }
    let (spliced, skipped) = (*rng.pick(elements), rng.gen_range(0..model.0.len()));
    let step = |n: usize| match n {
        _ if n == skipped => 2,
        _ if n == spliced => 1,
        _ => 0,
    };
    let copy = tree.copy(
        |node, children| {
            for (child, &kid) in children.iter_mut().zip(&shuffled.0[node.index()].2) {
                *child = ids[kid];
            }
        },
        |node| [CopyStep::Keep, CopyStep::Splice, CopyStep::Skip][step(node.index()) as usize],
    );
    let mut expected = new_model("root");
    shuffled.copy_into(0, &mut expected, 0, &step);
    assert_agree(
        &copy,
        &expected,
        &format!("{what}, shuffled copy without {spliced} and {skipped}'s subtree"),
    );

    // strip_elements: `_`-tags spliced out, the root kept.
    let mut stripped = new_model("root");
    let internal = |n: usize| u8::from(model.0[n].0.as_deref().is_some_and(|t| t.starts_with('_')));
    model.copy_into(0, &mut stripped, 0, &internal);
    assert_agree(
        &tree.strip_elements(|tag| tag.starts_with('_')),
        &stripped,
        &format!("{what}, stripped"),
    );

    // sort_star_children: each `list`'s children sorted (stably) by
    // content, descendants before ancestors — so the result is canonical:
    // sorting it again changes nothing.
    let mut sorted = model.clone();
    sort_lists(&mut sorted, 0);
    let mut renumbered = new_model("root");
    sorted.copy_into(0, &mut renumbered, 0, &|_| 0);
    let canonical = tree.sort_star_children(|tag| tag == "list");
    assert_agree(
        &canonical,
        &renumbered,
        &format!("{what}, star children sorted"),
    );
    assert_eq!(canonical.sort_star_children(|tag| tag == "list"), canonical);
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
