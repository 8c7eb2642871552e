//! Columnar XML document trees.
//!
//! Documents are ordered trees whose internal nodes are *elements* (tagged
//! with an element-type name) and whose leaves may be *text* nodes carrying
//! PCDATA, exactly as in the paper's data model (§2). A tree is two columns
//! indexed by [`NodeId`] — the parent, and an element's id into a per-tree
//! tag table or a text node's id into a per-tree text table — and the two
//! tables. The text table stores each distinct PCDATA once, so within one
//! tree equal text is equal [`TextId`]. Child lists are an offsets + ids
//! index derived from the parent column on the first read after an append,
//! a cache the next append drops. Adding a node pushes one entry on each
//! column — the columns grow by doubling unless sized up front — `Clone` is
//! a few `memcpy`s, and nothing is allocated per node.
//!
//! Every tree is in document order: a node is appended under the last node
//! or one of its ancestors, so node ids *are* the pre-order and walks scan
//! ids with no index and no stack. `add_element` / `add_text` name the
//! parent and panic if it is closed; a [`TreeWriter`] ([`XmlTree::writer`])
//! writes in pre-order — open an element, write its content, close it —
//! into columns sized once from a node-count hint. A tree in another order
//! is a copy ([`XmlTree::copy`]).

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// Handle to a node inside an [`XmlTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The payload of a node, borrowed from its tree: an element with a tag, or
/// a text leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element node labeled with an element-type name.
    Element(&'a str),
    /// A text (PCDATA) node. Always a leaf.
    Text(&'a str),
}

/// An element tag registered in one tree's tag table
/// ([`XmlTree::intern_tag`]); meaningless in any other tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagId(pub(crate) u32);

/// A text registered in one tree's text table ([`XmlTree::intern_text`]);
/// meaningless in any other tree. Two texts of one tree are equal exactly
/// when their ids are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextId(pub(crate) u32);

/// The root's parent, an empty slot of the text index, and an id a copy
/// has not mapped yet.
pub(crate) const NONE: u32 = u32::MAX;

/// The bit that marks a text node's entry in the item column.
const TEXT: u32 = 1 << 31;

/// Each distinct text of a tree once: text `i` is `buf[ends[i - 1]..ends[i]]`.
/// The index is open addressing over the ids, keyed by the std library's
/// randomly seeded SipHash — the parser feeds it untrusted text — with no
/// allocation per entry.
#[derive(Debug, Clone, Default)]
struct TextTable {
    buf: String,
    ends: Vec<u32>,
    /// A text id per slot, `NONE` if empty: a power of two, under 3/4 full.
    slots: Vec<u32>,
    keys: RandomState,
}

impl TextTable {
    fn get(&self, id: u32) -> &str {
        &self.buf[self.span(id)]
    }

    fn span(&self, id: u32) -> std::ops::Range<usize> {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev as usize]);
        start as usize..self.ends[id as usize] as usize
    }

    /// The slot holding `text`, or the empty one it would take.
    fn slot(&self, text: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.keys.hash_one(text) as usize & mask;
        // Triangular probing visits every slot of a power-of-two table.
        for step in 1.. {
            match self.slots[at] {
                id if id == NONE || self.get(id) == text => break,
                _ => at = (at + step) & mask,
            }
        }
        at
    }

    fn find(&self, text: &str) -> Option<TextId> {
        if self.slots.is_empty() {
            return None;
        }
        Some(self.slots[self.slot(text)])
            .filter(|&id| id != NONE)
            .map(TextId)
    }

    /// The id of the text `write` appends to `buf`, taken off again if the
    /// table already holds it.
    fn intern(&mut self, write: impl FnOnce(&mut String)) -> TextId {
        let start = self.buf.len();
        write(&mut self.buf);
        assert!(
            self.buf.len() >= start && self.buf.is_char_boundary(start),
            "the text buffer only grows"
        );
        if 4 * (self.ends.len() + 1) > 3 * self.slots.len() {
            // The ends grow with the index: one allocation each per doubling.
            let size = (2 * self.slots.len()).max(256);
            self.ends.reserve_exact(3 * size / 4 - self.ends.len());
            self.slots = vec![NONE; size];
            for id in 0..self.ends.len() as u32 {
                let slot = self.slot(self.get(id));
                self.slots[slot] = id;
            }
        }
        let slot = self.slot(&self.buf[start..]);
        if self.slots[slot] != NONE {
            self.buf.truncate(start);
            return TextId(self.slots[slot]);
        }
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id < TEXT)
            .expect("tree exceeds 2^31 texts");
        let end = u32::try_from(self.buf.len()).expect("document text exceeds u32 bytes");
        self.ends.push(end);
        self.slots[slot] = id;
        TextId(id)
    }
}

/// Child lists in CSR form: node `n`'s children are
/// `ids[start[n]..start[n + 1]]`.
#[derive(Debug, Clone)]
struct ChildIndex {
    start: Vec<u32>,
    ids: Vec<NodeId>,
}

/// An ordered XML document tree.
///
/// The root is always an element node. Children are kept in document order.
#[derive(Debug, Clone)]
pub struct XmlTree {
    /// The tag table, and its inverse.
    tags: Vec<Arc<str>>,
    tag_ids: HashMap<Arc<str>, u32>,
    texts: TextTable,
    /// Per node, in pre-order: the tag id of an element or `TEXT |` the text
    /// id of a text node, and the parent (`NONE` for the root).
    item: Vec<u32>,
    parent: Vec<u32>,
    index: OnceLock<ChildIndex>,
}

impl XmlTree {
    /// Creates a tree consisting of a single root element.
    pub fn new(root_tag: impl Into<String>) -> Self {
        let mut tree = XmlTree {
            tags: Vec::new(),
            tag_ids: HashMap::new(),
            texts: TextTable::default(),
            item: Vec::new(),
            parent: vec![NONE],
            index: OnceLock::new(),
        };
        let root = tree.intern_tag(&root_tag.into());
        tree.item.push(root.0);
        tree
    }

    /// The root element of the document.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes (elements and text) in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.item.len()
    }

    /// True if the tree contains only the root node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.item.len() <= 1
    }

    /// Registers `tag` in this tree's tag table (once) and returns its id,
    /// so a producer that emits the same few tags many times resolves each
    /// string once ([`TreeWriter::open`]).
    pub fn intern_tag(&mut self, tag: &str) -> TagId {
        if let Some(&id) = self.tag_ids.get(tag) {
            return TagId(id);
        }
        let id = u32::try_from(self.tags.len())
            .ok()
            .filter(|&id| id < TEXT)
            .expect("tree exceeds 2^31 tags");
        let tag: Arc<str> = Arc::from(tag);
        self.tags.push(Arc::clone(&tag));
        self.tag_ids.insert(tag, id);
        TagId(id)
    }

    /// The id of `tag` if any element of this tree was ever given it.
    pub(crate) fn tag_id(&self, tag: &str) -> Option<TagId> {
        self.tag_ids.get(tag).map(|&id| TagId(id))
    }

    /// The tag table, indexed by [`TagId`].
    pub(crate) fn tags(&self) -> &[Arc<str>] {
        &self.tags
    }

    /// Registers `text` in this tree's text table (once) and returns its id
    /// ([`TreeWriter::text_id`]).
    pub fn intern_text(&mut self, text: &str) -> TextId {
        self.texts.intern(|buf| buf.push_str(text))
    }

    /// The text of `id`.
    #[inline]
    pub(crate) fn text_of(&self, id: TextId) -> &str {
        self.texts.get(id.0)
    }

    /// The number of distinct texts in the text table.
    pub fn distinct_texts(&self) -> usize {
        self.texts.ends.len()
    }

    /// The bytes the text table holds: its text, its ends and its index
    /// (lengths, not the capacities the buffers have grown to).
    pub fn text_table_bytes(&self) -> usize {
        let TextTable {
            buf, ends, slots, ..
        } = &self.texts;
        buf.len() + 4 * (ends.len() + slots.len())
    }

    /// The text table's buffer: text `id` is the `text_span(id)` of it.
    #[inline]
    pub(crate) fn text_buf(&self) -> &[u8] {
        self.texts.buf.as_bytes()
    }

    /// Where the text of `id` lies in [`XmlTree::text_buf`].
    #[inline]
    pub(crate) fn text_span(&self, id: TextId) -> std::ops::Range<usize> {
        self.texts.span(id.0)
    }

    /// The tag id of `node`, or `None` for a text node.
    #[inline]
    pub fn elem_tag(&self, node: NodeId) -> Option<TagId> {
        Some(self.item[node.index()])
            .filter(|&item| item & TEXT == 0)
            .map(TagId)
    }

    /// The text id of `node`, or `None` for an element node.
    #[inline]
    pub fn text_id(&self, node: NodeId) -> Option<TextId> {
        Some(self.item[node.index()])
            .filter(|&item| item & TEXT != 0)
            .map(|item| TextId(item & !TEXT))
    }

    /// Appends a node (`item`, under `parent`) to the columns.
    #[inline]
    fn append(&mut self, parent: u32, item: u32) -> NodeId {
        let id = u32::try_from(self.item.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("tree exceeds u32 nodes");
        self.item.push(item);
        self.parent.push(parent);
        NodeId(id)
    }

    /// Appends `item` under `parent`, which must be the last node or one of
    /// its ancestors. Every node climbed past is closed for good, so the
    /// climbs of a whole build cost one step per node.
    fn push_node(&mut self, parent: NodeId, item: u32) -> NodeId {
        assert!(self.is_element(parent), "text nodes are leaves");
        let mut open = self.len() as u32 - 1;
        while open != parent.0 && open != NONE {
            open = self.parent[open as usize];
        }
        assert!(
            open == parent.0,
            "appending under the closed element {parent} is out of document order"
        );
        self.index.take();
        self.append(parent.0, item)
    }

    /// Appends a new element child with tag `tag` to `parent`: the last node
    /// or one of its ancestors, else this panics (out of document order).
    pub fn add_element(&mut self, parent: NodeId, tag: impl Into<String>) -> NodeId {
        let tag = self.intern_tag(&tag.into());
        self.push_node(parent, tag.0)
    }

    /// Appends a new text child to `parent`, as [`XmlTree::add_element`]
    /// appends an element.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        let text = self.intern_text(&text.into());
        self.push_node(parent, self.text_item(text))
    }

    /// The item column's entry of a text node carrying `text`.
    #[inline]
    fn text_item(&self, text: TextId) -> u32 {
        assert!(
            (text.0 as usize) < self.texts.ends.len(),
            "text id of another tree"
        );
        TEXT | text.0
    }

    /// A writer of this tree's next nodes in pre-order, starting under the
    /// root, with the node columns sized for `nodes` nodes in all (a hint:
    /// a tree that outgrows it grows as the `add_*` calls grow it).
    pub fn writer(&mut self, nodes: usize) -> TreeWriter<'_> {
        let more = nodes.saturating_sub(self.len());
        self.item.reserve_exact(more);
        self.parent.reserve_exact(more);
        self.index.take();
        TreeWriter {
            tree: self,
            open: 0,
        }
    }

    /// The node's kind (element tag or text payload).
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind<'_> {
        match self.elem_tag(node) {
            None => NodeKind::Text(self.pcdata(node)),
            Some(tag) => NodeKind::Element(&self.tags[tag.0 as usize]),
        }
    }

    /// The PCDATA of a text node (nothing for an element).
    #[inline]
    pub(crate) fn pcdata(&self, node: NodeId) -> &str {
        self.text_id(node).map_or("", |id| self.text_of(id))
    }

    /// The element tag of `node`, or `None` for a text node.
    #[inline]
    pub fn tag(&self, node: NodeId) -> Option<&str> {
        self.elem_tag(node).map(|id| &*self.tags[id.0 as usize])
    }

    /// The text payload of `node`, or `None` for an element node.
    #[inline]
    pub fn text(&self, node: NodeId) -> Option<&str> {
        (!self.is_element(node)).then(|| self.pcdata(node))
    }

    /// True if `node` is an element node.
    #[inline]
    pub fn is_element(&self, node: NodeId) -> bool {
        self.item[node.index()] & TEXT == 0
    }

    /// The parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        Some(self.parent[node.index()])
            .filter(|&p| p != NONE)
            .map(NodeId)
    }

    /// The parent column's entry of `node`: the parent's id, [`NONE`] for
    /// the root.
    #[inline]
    pub(crate) fn parent_id(&self, node: NodeId) -> u32 {
        self.parent[node.index()]
    }

    /// The child index: a counting sort of the nodes by parent, siblings in
    /// id order, which is document order.
    fn index(&self) -> &ChildIndex {
        self.index.get_or_init(|| {
            let n = self.len();
            // `start[p + 1]` walks from the begin of `p`'s list to its end,
            // which is the begin of `p + 1`'s.
            let mut start = vec![0u32; n + 2];
            for &p in &self.parent[1..] {
                start[p as usize + 2] += 1;
            }
            for i in 2..n + 2 {
                start[i] += start[i - 1];
            }
            let mut ids = vec![NodeId(0); n - 1];
            for child in 1..n {
                let slot = &mut start[self.parent[child] as usize + 1];
                ids[*slot as usize] = NodeId(child as u32);
                *slot += 1;
            }
            start.truncate(n + 1);
            ChildIndex { start, ids }
        })
    }

    /// The ordered children of `node`.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let index = self.index();
        let (from, to) = (index.start[node.index()], index.start[node.index() + 1]);
        &index.ids[from as usize..to as usize]
    }

    /// The first child of `node`: the next id, if `node` is its parent.
    pub(crate) fn first_child(&self, node: NodeId) -> Option<NodeId> {
        let next = node.0 + 1;
        (self.parent.get(next as usize) == Some(&node.0)).then_some(NodeId(next))
    }

    /// The ordered element children of `node` (text nodes skipped).
    pub fn element_children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node)
            .iter()
            .copied()
            .filter(|&c| self.is_element(c))
    }

    /// The first child of `node` with tag `tag`, if any.
    pub fn child_by_tag(&self, node: NodeId, tag: &str) -> Option<NodeId> {
        let tag = self.tag_id(tag)?;
        let mut children = self.children(node).iter().copied();
        children.find(|&c| self.item[c.index()] == tag.0)
    }

    /// The concatenated PCDATA of `node`'s *direct* text children.
    ///
    /// For a string-typed element `l` with `P(l) = S` this is the value of
    /// the `l` subelement in the sense of the paper's constraints (§2).
    pub fn text_value(&self, node: NodeId) -> String {
        match self.value_id(node) {
            Ok(id) => self.text_of(id).to_string(),
            Err(value) => value.into_owned(),
        }
    }

    /// The id of `node`'s [`XmlTree::text_value`] if a text of this tree
    /// spells it, else the value itself: empty, or several texts
    /// concatenated.
    pub(crate) fn value_id(&self, node: NodeId) -> Result<TextId, Cow<'_, str>> {
        // The children follow `node`, and a text child is a leaf: if `node`
        // closes after a run of text, that run is all of them.
        let is_child = |i: usize| self.parent.get(i) == Some(&node.0);
        let mut end = node.index() + 1;
        while is_child(end) && self.item[end] & TEXT != 0 {
            end += 1;
        }
        if !is_child(end) {
            return self.spell(self.item[node.index() + 1..end].iter().copied());
        }
        // Mixed content: texts after an element child too.
        let children = self.children(node).iter().map(|&c| self.item[c.index()]);
        self.spell(children.filter(|&item| item & TEXT != 0))
    }

    /// The id of the texts of `items` (text nodes) concatenated, if the
    /// table holds it.
    fn spell(&self, mut items: impl Iterator<Item = u32>) -> Result<TextId, Cow<'_, str>> {
        let text = |item: u32| self.texts.get(item & !TEXT);
        let spelled = match (items.next(), items.next()) {
            (Some(one), None) => return Ok(TextId(one & !TEXT)),
            (None, _) => Cow::Borrowed(""),
            (Some(a), Some(b)) => Cow::Owned([a, b].into_iter().chain(items).map(text).collect()),
        };
        self.texts.find(&spelled).ok_or(spelled)
    }

    /// The value of the `field` subelement of `node`: the PCDATA of the first
    /// child element tagged `field`, or `None` if there is no such child.
    pub fn subelement_value(&self, node: NodeId, field: &str) -> Option<String> {
        self.child_by_tag(node, field).map(|c| self.text_value(c))
    }

    /// Pre-order traversal of the subtree rooted at `node` (inclusive).
    pub fn descendants(&self, node: NodeId) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self.walk(node).filter_map(|(n, enter)| enter.then_some(n))
    }

    /// Pre-order traversal of the whole document.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants(self.root())
    }

    /// Depth-first traversal of the subtree rooted at `node` yielding every
    /// node twice: `(n, true)` on the way down, `(n, false)` on the way up.
    /// Every whole-tree walk of this crate is a loop over it, so document
    /// depth never becomes call-stack depth. It is a scan of ids: the
    /// subtree is the run of ids from `node` on that ends where it closes,
    /// and the open path is the parent chain of the last node entered.
    pub fn walk(&self, node: NodeId) -> Walk<'_> {
        Walk {
            tree: self,
            root: node.0,
            next: node.0,
            open: NONE,
            depth: 0,
        }
    }

    /// The depth of `node` (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        std::iter::successors(self.parent(node), |&p| self.parent(p)).count()
    }

    /// The maximum depth of any node in the subtree rooted at `node`.
    pub fn height(&self, node: NodeId) -> usize {
        let step = |(depth, height): (usize, usize), (_, enter)| match enter {
            true => (depth + 1, height.max(depth)),
            false => (depth - 1, height),
        };
        self.walk(node).fold((0, 0), step).1
    }

    /// A `/`-separated tag path from the root to `node` (for diagnostics).
    pub fn path(&self, node: NodeId) -> String {
        let mut parts: Vec<&str> = std::iter::successors(Some(node), |&n| self.parent(n))
            .map(|n| self.tag(n).unwrap_or("#text"))
            .collect();
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// Counts reachable nodes (elements + text) in the subtree of `node`.
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.descendants(node).count()
    }

    /// A new tree with this one's root tag and the rest copied in document
    /// order, as the two hooks direct: `step` keeps, splices or skips each
    /// node but the root, and `order(node, children)` may permute the
    /// children of each node kept or spliced, the root's included, before
    /// they are copied. The one way to reorder or filter a tree: it writes
    /// through a [`TreeWriter`] from an explicit stack, translating each tag
    /// and text once.
    pub fn copy(
        &self,
        mut order: impl FnMut(NodeId, &mut [NodeId]),
        mut step: impl FnMut(NodeId) -> CopyStep,
    ) -> XmlTree {
        let mut out = XmlTree::new(&*self.tags[self.item[0] as usize]);
        // Destination tag id per source tag id, and text id per source text
        // id, `NONE` until first needed.
        let mut tags = vec![NONE; self.tags.len()];
        let mut texts = vec![NONE; self.texts.ends.len()];
        let mut writer = out.writer(self.len());
        // Source nodes to enter, and `None` for each copied element to close,
        // the next one last; and the children of one element. The root, the
        // new tree's already, is spliced.
        let (mut stack, mut children) = (vec![Some(self.root())], Vec::new());
        while let Some(next) = stack.pop() {
            let Some(node) = next else {
                writer.close();
                continue;
            };
            let step = match node == self.root() {
                true => CopyStep::Splice,
                false => step(node),
            };
            match (step, self.text_id(node)) {
                (CopyStep::Skip, _) => continue,
                (CopyStep::Splice, _) => {}
                (CopyStep::Keep, Some(TextId(text))) => match texts[text as usize] {
                    NONE => {
                        texts[text as usize] =
                            writer.text_with(|buf| buf.push_str(self.texts.get(text))).0
                    }
                    mapped => drop(writer.text_id(TextId(mapped))),
                },
                (CopyStep::Keep, None) => {
                    let tag = self.item[node.index()] as usize;
                    if tags[tag] == NONE {
                        tags[tag] = writer.intern_tag(&self.tags[tag]).0;
                    }
                    writer.open(TagId(tags[tag]));
                    stack.push(None);
                }
            }
            children.clear();
            children.extend_from_slice(self.children(node));
            order(node, &mut children);
            stack.extend(children.iter().rev().map(|&child| Some(child)));
        }
        out
    }

    /// Rewrites the tree, removing every element whose tag satisfies
    /// `is_internal` by splicing its children into its parent's child list in
    /// place. Used to erase the synthetic "entity" wrapper elements introduced
    /// by DTD normalization and the internal computation states of
    /// specialized AIGs (§3.4): both "serve for computation purpose" only and
    /// must not appear in the final document.
    ///
    /// The root is never removed.
    pub fn strip_elements(&self, is_internal: impl Fn(&str) -> bool) -> XmlTree {
        let internal: Vec<bool> = self.tags.iter().map(|tag| is_internal(tag)).collect();
        self.copy(
            |_, _| {},
            |node| match self.elem_tag(node) {
                Some(tag) if internal[tag.0 as usize] => CopyStep::Splice,
                _ => CopyStep::Keep,
            },
        )
    }

    /// Returns a copy in which the children of every element whose tag
    /// satisfies `is_star_parent` are sorted by their serialized content.
    /// Star children carry no inherent document order across evaluation
    /// strategies (the paper's optimized pipeline emits them by sort-merging
    /// key paths, §5.1), so comparisons between the conceptual and the
    /// set-oriented evaluator are made on this canonical form.
    pub fn sort_star_children(&self, is_star_parent: impl Fn(&str) -> bool) -> XmlTree {
        let star: Vec<bool> = self.tags.iter().map(|tag| is_star_parent(tag)).collect();
        let orders = self.star_orders(&star);
        self.copy(
            |node, children| {
                if let Some(order) = orders.get(&node) {
                    children.copy_from_slice(order);
                }
            },
            |_| CopyStep::Keep,
        )
    }

    /// The children of each element tagged `star` (of two or more) in
    /// canonical order: stably sorted by the spelling of their own canonical
    /// forms — `<t>`, text and `</>` per node. One walk spells the document
    /// and sorts a star element's children's spellings in place as it
    /// closes, so the only spellings kept are those of the children of the
    /// open star elements, and nothing recurses on depth.
    fn star_orders(&self, star: &[bool]) -> HashMap<NodeId, Vec<NodeId>> {
        let (mut key, mut orders) = (String::new(), HashMap::new());
        // Per open element, for a star element, where its children's entries
        // begin in `starts`: each child with the offset its spelling starts
        // at. Nothing before the first entry is read again.
        let (mut open, mut starts) = (Vec::new(), Vec::new());
        for (node, enter) in self.walk(self.root()) {
            match (self.elem_tag(node), enter) {
                (tag, true) => {
                    if let Some(Some(_)) = open.last() {
                        starts.push((key.len(), node));
                    }
                    let Some(tag) = tag else {
                        key.push_str(self.pcdata(node));
                        continue;
                    };
                    key.extend(["<", &self.tags[tag.0 as usize], ">"]);
                    open.push(star[tag.0 as usize].then_some(starts.len()));
                }
                (Some(_), false) => {
                    if let Some(from) = open.pop().flatten() {
                        if starts.len() - from > 1 {
                            orders.insert(node, sort_spans(&mut key, &starts[from..]));
                        }
                        starts.truncate(from);
                    }
                    match starts.is_empty() {
                        true => key.clear(),
                        false => key.push_str("</>"),
                    }
                }
                (None, false) => {}
            }
        }
        orders
    }
}

impl PartialEq for XmlTree {
    /// The same document: ids are the pre-order on both sides, so the
    /// parent columns are equal and so is each node's kind.
    fn eq(&self, other: &Self) -> bool {
        self.parent == other.parent
            && (0..self.len() as u32).all(|n| self.kind(NodeId(n)) == other.kind(NodeId(n)))
    }
}

impl Eq for XmlTree {}

/// Sorts the spellings in `key` that start at `starts` — each ending where
/// the next starts, the last at the end of `key` — stably, and returns
/// their nodes in the new order.
fn sort_spans(key: &mut String, starts: &[(usize, NodeId)]) -> Vec<NodeId> {
    let ends = starts[1..].iter().map(|&(at, _)| at).chain([key.len()]);
    let mut spans: Vec<_> = (starts.iter().zip(ends))
        .map(|(&(at, node), end)| (at..end, node))
        .collect();
    spans.sort_by(|(a, _), (b, _)| key[a.clone()].cmp(&key[b.clone()]));
    let sorted: String = spans.iter().map(|(span, _)| &key[span.clone()]).collect();
    key.replace_range(starts[0].0.., &sorted);
    spans.into_iter().map(|(_, node)| node).collect()
}

/// The events of [`XmlTree::walk`].
#[derive(Clone)]
pub struct Walk<'a> {
    tree: &'a XmlTree,
    root: u32,
    /// The next id to enter, the innermost open node and the number of open
    /// nodes — `0` before `root` is entered and after it closes.
    next: u32,
    open: u32,
    depth: u32,
}

impl Iterator for Walk<'_> {
    type Item = (NodeId, bool);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, bool)> {
        let parents = &self.tree.parent;
        let enters = match self.depth {
            0 if self.next != self.root => return None,
            0 => true,
            _ => parents.get(self.next as usize) == Some(&self.open),
        };
        if enters {
            (self.open, self.depth) = (self.next, self.depth + 1);
            self.next += 1;
            return Some((NodeId(self.open), true));
        }
        let closed = self.open;
        (self.open, self.depth) = (parents[closed as usize], self.depth - 1);
        Some((NodeId(closed), false))
    }

    /// The id scan as nested loops — enter a node, then close the open
    /// nodes the next one is not a child of — so that a consumer's test of
    /// `enter` folds away.
    fn fold<B, F>(self, mut acc: B, mut f: F) -> B
    where
        F: FnMut(B, (NodeId, bool)) -> B,
    {
        let Walk {
            tree,
            root,
            mut next,
            mut open,
            mut depth,
        } = self;
        let parents = &tree.parent;
        if depth == 0 && next == root {
            acc = f(acc, (NodeId(next), true));
            (open, depth, next) = (next, 1, next + 1);
        }
        while depth > 0 {
            let parent = parents.get(next as usize).copied().unwrap_or(NONE);
            while depth > 0 && open != parent {
                acc = f(acc, (NodeId(open), false));
                (open, depth) = (parents[open as usize], depth - 1);
            }
            if depth > 0 {
                acc = f(acc, (NodeId(next), true));
                (open, depth, next) = (next, depth + 1, next + 1);
            }
        }
        acc
    }
}

/// Writes nodes into a tree in pre-order ([`XmlTree::writer`]): each one the
/// next child of the innermost open element. The root starts open; once it
/// is closed the document is complete. The open elements are the innermost
/// one and its ancestors, so the parent column is the writer's stack — no
/// climb, and no check that a parent is an element.
pub struct TreeWriter<'a> {
    tree: &'a mut XmlTree,
    /// The innermost open element, `NONE` once the root is closed.
    open: u32,
}

impl TreeWriter<'_> {
    /// [`XmlTree::intern_tag`] of the tree being written.
    pub fn intern_tag(&mut self, tag: &str) -> TagId {
        self.tree.intern_tag(tag)
    }

    /// The tag of the innermost open element, `None` once the root is
    /// closed.
    pub fn open_tag(&self) -> Option<&str> {
        let item = *self.tree.item.get(self.open as usize)?;
        Some(&self.tree.tags[item as usize])
    }

    /// Writes an element tagged `tag` and opens it: what follows is its
    /// content until the matching [`TreeWriter::close`].
    #[inline]
    pub fn open(&mut self, tag: TagId) -> NodeId {
        assert!(
            (tag.0 as usize) < self.tree.tags.len(),
            "tag id of another tree"
        );
        let node = self.append(tag.0);
        self.open = node.0;
        node
    }

    /// Closes the innermost open element.
    #[inline]
    pub fn close(&mut self) {
        assert!(self.open != NONE, "closing past the root");
        self.open = self.tree.parent[self.open as usize];
    }

    /// Writes a text node carrying `text`, a text of the tree's table.
    #[inline]
    pub fn text_id(&mut self, text: TextId) -> NodeId {
        let item = self.tree.text_item(text);
        self.append(item)
    }

    /// Writes a text node whose PCDATA is whatever `write` appends to the
    /// text table's buffer — taken off again if the table already holds that
    /// text — and returns the id of that text.
    pub fn text_with(&mut self, write: impl FnOnce(&mut String)) -> TextId {
        let text = self.tree.texts.intern(write);
        self.text_id(text);
        text
    }

    #[inline]
    fn append(&mut self, item: u32) -> NodeId {
        assert!(self.open != NONE, "the document is closed");
        self.tree.append(self.open, item)
    }
}

/// What [`XmlTree::copy`] does with one source node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyStep {
    /// Copy the node and walk on into its children.
    Keep,
    /// Drop the node but copy its children in its place.
    Splice,
    /// Drop the node and its whole subtree.
    Skip,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (XmlTree, NodeId, NodeId) {
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let ssn = t.add_element(p, "SSN");
        t.add_text(ssn, "123-45-6789");
        (t, p, ssn)
    }

    #[test]
    fn build_and_navigate() {
        let (t, p, ssn) = sample();
        assert_eq!(t.tag(t.root()), Some("report"));
        assert_eq!(t.parent(p), Some(t.root()));
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(t.children(t.root()), &[p]);
        assert_eq!(t.tag(ssn), Some("SSN"));
        assert!(t.is_element(p));
        assert!(!t.is_element(t.children(ssn)[0]));
    }

    #[test]
    fn text_value_concatenates_direct_text() {
        let mut t = XmlTree::new("a");
        let b = t.add_element(t.root(), "b");
        t.add_text(b, "he");
        t.add_text(b, "llo");
        let c = t.add_element(b, "c");
        t.add_text(c, "IGNORED");
        assert_eq!(t.text_value(b), "hello");
        assert_eq!(t.subelement_value(t.root(), "b").as_deref(), Some("hello"));
        assert_eq!(t.subelement_value(t.root(), "zzz"), None);
    }

    #[test]
    fn preorder_iteration_follows_the_document() {
        let (t, _, _) = sample();
        let tags: Vec<String> = t
            .iter()
            .map(|n| match t.kind(n) {
                NodeKind::Element(tag) => tag.to_string(),
                NodeKind::Text(_) => "#text".to_string(),
            })
            .collect();
        assert_eq!(tags, vec!["report", "patient", "SSN", "#text"]);
    }

    #[test]
    fn depth_height_path() {
        let (t, p, ssn) = sample();
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.depth(ssn), 2);
        assert_eq!(t.height(t.root()), 3);
        assert_eq!(t.path(p), "/report/patient");
    }

    #[test]
    fn strip_elements_splices_children() {
        let mut t = XmlTree::new("r");
        let st = t.add_element(t.root(), "__st");
        let a = t.add_element(st, "a");
        t.add_text(a, "x");
        t.add_element(t.root(), "b");

        let stripped = t.strip_elements(|tag| tag.starts_with("__"));
        let tags: Vec<Option<&str>> = stripped
            .children(stripped.root())
            .iter()
            .map(|&c| stripped.tag(c))
            .collect();
        assert_eq!(tags, vec![Some("a"), Some("b")]);
        let a2 = stripped.children(stripped.root())[0];
        assert_eq!(stripped.text_value(a2), "x");
    }

    #[test]
    fn strip_never_removes_root() {
        let t = XmlTree::new("r");
        let stripped = t.strip_elements(|_| true);
        assert_eq!(stripped.tag(stripped.root()), Some("r"));
    }

    #[test]
    fn tree_equality_is_structural() {
        let (t1, _, _) = sample();
        let (t2, _, _) = sample();
        assert_eq!(t1, t2);
        let mut t3 = t2.clone();
        t3.add_element(t3.root(), "extra");
        assert_ne!(t1, t3);
    }

    #[test]
    #[should_panic(expected = "out of document order")]
    fn adding_under_a_closed_element_panics() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        t.add_element(t.root(), "b");
        t.add_element(a, "c");
    }

    /// The order hook sees the children of kept and spliced elements alike.
    #[test]
    fn a_copy_reorders_splices_and_skips() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        let w = t.add_element(a, "w");
        t.add_text(w, "x");
        t.add_text(w, "y");
        let b = t.add_element(t.root(), "b");
        t.add_element(t.root(), "c");
        let copy = t.copy(
            |_, children| children.reverse(),
            |node| match node {
                _ if node == w => CopyStep::Splice,
                _ if node == b => CopyStep::Skip,
                _ => CopyStep::Keep,
            },
        );
        assert_eq!(crate::serialize::to_string(&copy), "<r><c/><a>yx</a></r>");
        assert_eq!(t.copy(|_, _| {}, |_| CopyStep::Keep), t);
    }

    #[test]
    fn sort_star_children_is_canonical() {
        // Children of `list` sort by content; `pair`'s (sequence) order is
        // untouched.
        let mut t = XmlTree::new("list");
        for v in ["zeta", "alpha", "mid"] {
            let e = t.add_element(t.root(), "entry");
            let pair = t.add_element(e, "pair");
            t.add_text(pair, v);
        }
        let sorted = t.sort_star_children(|tag| tag == "list");
        let values: Vec<String> = sorted
            .element_children(sorted.root())
            .map(|e| {
                let pair = sorted.children(e)[0];
                sorted.text_value(pair)
            })
            .collect();
        assert_eq!(values, vec!["alpha", "mid", "zeta"]);
        // Sorting twice is idempotent.
        let twice = sorted.sort_star_children(|tag| tag == "list");
        assert_eq!(twice, sorted);
        // Non-star parents keep their order.
        let untouched = t.sort_star_children(|_| false);
        assert_eq!(untouched, t);
    }

    #[test]
    fn equal_texts_share_one_id() {
        let mut t = XmlTree::new("r");
        let (tag, v1) = (t.intern_tag("a"), t.intern_text("v1"));
        let mut out = t.writer(0);
        let a = out.open(tag);
        let written = [
            out.text_with(|buf| buf.push_str("v1")),
            out.text_with(|buf| buf.push('v')),
        ];
        out.text_id(v1);
        t.add_text(a, "v1");
        t.add_text(a, "1");
        assert_eq!(written, [v1, TextId(1)]);
        let texts = t.children(a).to_vec();
        let ids: Vec<TextId> = texts.iter().map(|&n| t.text_id(n).unwrap()).collect();
        assert_eq!(ids, [v1, TextId(1), v1, v1, TextId(2)]);
        assert_eq!(t.distinct_texts(), 3);
        let pcdata: Vec<&str> = texts.iter().map(|&n| t.text(n).unwrap()).collect();
        assert_eq!(pcdata, ["v1", "v", "v1", "v1", "1"]);
        assert_eq!(t.text_value(a), "v1vv1v11");
        assert_eq!(t.text_id(a), None);

        // The parser: one id per distinct text, escaped or not.
        let parsed =
            crate::parse::parse("<r><a>v1</a><b>&lt;</b><c>v1</c><d>&lt;</d></r>").unwrap();
        let leaves: Vec<NodeId> = parsed.iter().filter(|&n| !parsed.is_element(n)).collect();
        let ids: Vec<TextId> = leaves.iter().map(|&n| parsed.text_id(n).unwrap()).collect();
        assert!(ids[0] == ids[2] && ids[1] == ids[3] && ids[0] != ids[1]);
        assert_eq!(parsed.text(leaves[1]), Some("<"));
        assert_eq!(parsed.distinct_texts(), 2);

        // A copy maps ids the way it maps tags, numbering them as it meets
        // them: without `<a>`, `<` comes first.
        let a = parsed.children(parsed.root())[0];
        let dst = parsed.copy(
            |_, _| {},
            |n| match n == a {
                true => CopyStep::Skip,
                false => CopyStep::Keep,
            },
        );
        let leaves: Vec<NodeId> = dst.iter().filter(|&n| !dst.is_element(n)).collect();
        let ids: Vec<TextId> = leaves.iter().map(|&n| dst.text_id(n).unwrap()).collect();
        assert_eq!(ids, [TextId(0), TextId(1), TextId(0)]);
        assert_eq!(dst.distinct_texts(), 2);
        let pcdata: Vec<&str> = leaves.iter().map(|&n| dst.text(n).unwrap()).collect();
        assert_eq!(pcdata, ["<", "v1", "<"]);
    }

    #[test]
    fn a_writer_writes_what_the_add_calls_add() {
        let (built, _, _) = sample();
        let mut t = XmlTree::new("report");
        let (patient, ssn) = (t.intern_tag("patient"), t.intern_tag("SSN"));
        let mut out = t.writer(100);
        assert_eq!(out.open_tag(), Some("report"));
        out.open(patient);
        out.open(ssn);
        out.text_with(|buf| buf.push_str("123-45-6789"));
        out.close();
        assert_eq!(out.open_tag(), Some("patient"));
        out.close();
        out.close();
        assert_eq!(out.open_tag(), None);
        assert!(t == built);
        assert!(t.item.capacity() >= 100 && t.parent.capacity() >= 100);

        // On a built tree, the writer appends under the root.
        let mut more = built.clone();
        let tag = more.intern_tag("patient");
        let mut out = more.writer(0);
        let p = out.open(tag);
        out.text_id(TextId(0));
        out.close();
        assert_eq!(more.children(more.root()).len(), 2);
        assert_eq!(more.text_value(p), "123-45-6789");
    }

    #[test]
    #[should_panic(expected = "closing past the root")]
    fn a_writer_does_not_close_past_the_root() {
        let mut t = XmlTree::new("r");
        let mut out = t.writer(1);
        out.close();
        out.close();
    }

    #[test]
    #[should_panic(expected = "the document is closed")]
    fn a_writer_writes_nothing_after_the_root_closes() {
        let mut t = XmlTree::new("r");
        let a = t.intern_tag("a");
        let mut out = t.writer(2);
        out.close();
        out.open(a);
    }

    #[test]
    #[should_panic(expected = "text id of another tree")]
    fn a_writer_rejects_a_text_id_of_another_tree() {
        let mut other = XmlTree::new("r");
        other.intern_text("x");
        let text = other.intern_text("y");
        let mut t = XmlTree::new("r");
        t.writer(2).text_id(text);
    }

    #[test]
    #[should_panic(expected = "tag id of another tree")]
    fn a_writer_rejects_a_tag_id_of_another_tree() {
        let mut other = XmlTree::new("r");
        let tag = other.intern_tag("a");
        let mut t = XmlTree::new("r");
        t.writer(2).open(tag);
    }

    #[test]
    fn subtree_size_counts_elements_and_text() {
        let (t, p, _) = sample();
        assert_eq!(t.subtree_size(t.root()), 4);
        assert_eq!(t.subtree_size(p), 3);
    }
}
