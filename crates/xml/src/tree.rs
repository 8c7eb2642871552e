//! Columnar XML document trees.
//!
//! Documents are ordered trees whose internal nodes are *elements* (tagged
//! with an element-type name) and whose leaves may be *text* nodes carrying
//! PCDATA, exactly as in the paper's data model (§2). A tree is two columns
//! indexed by [`NodeId`] — the parent, and an element's id into a per-tree
//! tag table or a text node's id into a per-tree text table — and the two
//! tables. The text table stores each distinct PCDATA once, so within one
//! tree equal text is equal [`TextId`]. Child lists are an offsets + ids
//! index derived from the parent column on the first read after a mutation
//! — build, then read. Adding a node pushes one entry on each column — the
//! columns grow by doubling unless sized up front — `Clone` is a few
//! `memcpy`s, and nothing is allocated per node.
//!
//! A tree built in document order — every node added under the previous
//! node or one of its open ancestors, as the tagger, the parser and the
//! subtree copier do — has ids that *are* its pre-order. Its walks then scan
//! ids with no index and no stack; only random access ([`XmlTree::children`])
//! and trees built out of order pay for the child index.
//!
//! A tree is built in one of two ways. The `add_*` calls append a node
//! under any element and check, node by node, whether document order still
//! holds. A [`TreeWriter`] ([`XmlTree::writer`]) writes in pre-order — open
//! an element, write its content, close it — into columns sized once from
//! a node-count hint: the open elements are the parent chain of its
//! innermost one, so document order holds by construction and a node costs
//! its two column entries and nothing else.

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

/// The root's parent, an empty slot of the text index, and an id a
/// copier has not mapped yet.
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

    /// The id of the text appended to `buf` since `start`, taken off again
    /// if the table already holds it.
    fn intern_tail(&mut self, start: usize) -> TextId {
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
    /// Per node: the tag id of an element or `TEXT |` the text id of a text
    /// node, and the parent (`NONE` for the root).
    item: Vec<u32>,
    parent: Vec<u32>,
    /// Child orders imposed by [`XmlTree::set_children`], replayed whenever
    /// the index is rebuilt.
    reorders: Vec<(NodeId, Vec<NodeId>)>,
    index: OnceLock<ChildIndex>,
    /// True while node ids are a pre-order of the document: every node was
    /// added under the previous node or one of its ancestors, and no
    /// reorder was recorded.
    preorder: bool,
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
            reorders: Vec::new(),
            index: OnceLock::new(),
            preorder: true,
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

    /// True while node ids are the document's pre-order (see the module
    /// docs): walks then scan ids instead of building the child index.
    #[inline]
    pub fn in_document_order(&self) -> bool {
        self.preorder
    }

    /// Registers `tag` in this tree's tag table (once) and returns its id,
    /// so a producer that emits the same few tags many times resolves each
    /// string once ([`XmlTree::add_tagged`]).
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
    /// ([`XmlTree::add_text_id`]).
    pub fn intern_text(&mut self, text: &str) -> TextId {
        let start = self.texts.buf.len();
        self.texts.buf.push_str(text);
        self.texts.intern_tail(start)
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

    fn push_node(&mut self, parent: NodeId, item: u32) -> NodeId {
        assert!(self.is_element(parent), "text nodes are leaves");
        let id = self.append(parent.0, item);
        // Document order holds if `parent` is the previous node or one of
        // its ancestors. Every node climbed past is closed for good, so the
        // climbs of a whole build cost one step per node.
        if self.preorder {
            let mut open = id.0 - 1;
            while open != parent.0 && open != NONE {
                open = self.parent[open as usize];
            }
            self.preorder = open == parent.0;
        }
        self.index.take();
        id
    }

    /// Appends a new element child with tag `tag` to `parent`.
    pub fn add_element(&mut self, parent: NodeId, tag: impl Into<String>) -> NodeId {
        let tag = self.intern_tag(&tag.into());
        self.push_node(parent, tag.0)
    }

    /// Appends a new element child to `parent`, its tag given by id.
    pub fn add_tagged(&mut self, parent: NodeId, tag: TagId) -> NodeId {
        assert!((tag.0 as usize) < self.tags.len(), "tag id of another tree");
        self.push_node(parent, tag.0)
    }

    /// Appends a new text child to `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        let text = self.intern_text(&text.into());
        self.add_text_id(parent, text)
    }

    /// Appends a new text child to `parent` whose PCDATA is whatever `write`
    /// appends to the text table's buffer — taken off again if the table
    /// already holds that text.
    pub fn add_text_with(&mut self, parent: NodeId, write: impl FnOnce(&mut String)) -> NodeId {
        let text = self.intern_written(write);
        self.add_text_id(parent, text)
    }

    /// Registers whatever `write` appends to the text table's buffer, taken
    /// off again if the table already holds that text.
    fn intern_written(&mut self, write: impl FnOnce(&mut String)) -> TextId {
        let start = self.texts.buf.len();
        write(&mut self.texts.buf);
        assert!(
            self.texts.buf.len() >= start && self.texts.buf.is_char_boundary(start),
            "the text buffer only grows"
        );
        self.texts.intern_tail(start)
    }

    /// Appends a new text child to `parent`, its text given by id.
    pub fn add_text_id(&mut self, parent: NodeId, text: TextId) -> NodeId {
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

    /// The child index: a counting sort of the nodes by parent — siblings
    /// stay in insertion order — with every recorded reorder replayed over
    /// the children its parent had at the time (always its first ones).
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
            for (parent, order) in &self.reorders {
                let at = start[parent.index()] as usize;
                ids[at..at + order.len()].copy_from_slice(order);
            }
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

    /// The first child of `node`: on a tree in document order the next id,
    /// if `node` is its parent.
    pub(crate) fn first_child(&self, node: NodeId) -> Option<NodeId> {
        if self.preorder {
            let next = node.0 + 1;
            return (self.parent.get(next as usize) == Some(&node.0)).then_some(NodeId(next));
        }
        self.children(node).first().copied()
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
        if self.preorder {
            // The children follow `node`, and a text child is a leaf: if
            // `node` closes after a run of text, that run is all of them.
            let is_child = |i: usize| self.parent.get(i) == Some(&node.0);
            let mut end = node.index() + 1;
            while is_child(end) && self.item[end] & TEXT != 0 {
                end += 1;
            }
            if !is_child(end) {
                return self.spell(self.item[node.index() + 1..end].iter().copied());
            }
        }
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
    /// depth never becomes call-stack depth.
    ///
    /// On a tree [in document order](XmlTree::in_document_order) this is a
    /// scan of ids: the subtree is the run of ids from `node` on that ends
    /// where it closes, and the open path is the parent chain of the last
    /// node entered — no index, no stack, no allocation. Any other tree is
    /// walked through the child index, the only order that is right there.
    pub fn walk(&self, node: NodeId) -> Walk<'_> {
        Walk {
            tree: self,
            root: node.0,
            next: node.0,
            open: NONE,
            depth: 0,
            index: (!self.preorder).then(|| vec![(node, true)]),
        }
    }

    /// Runs `scan` over the ids of the whole document in pre-order — a
    /// sequence that keeps no open path: a scan that needs one keeps it
    /// through the parent column. On a tree [in document
    /// order](XmlTree::in_document_order) the sequence is a plain range,
    /// otherwise the enters of the walk through the child index; `scan` is
    /// generic over it, so each kind of tree runs its own loop.
    pub(crate) fn scan_preorder<S: PreorderScan>(&self, scan: S) -> S::Output {
        match self.preorder {
            true => scan.scan((0..self.len() as u32).map(NodeId)),
            false => scan.scan(self.descendants(self.root())),
        }
    }

    /// The depth of `node` (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        std::iter::successors(self.parent(node), |&p| self.parent(p)).count()
    }

    /// The maximum depth of any node in the subtree rooted at `node`.
    pub fn height(&self, node: NodeId) -> usize {
        let (mut depth, mut height) = (0usize, 0);
        for (_, enter) in self.walk(node) {
            match enter {
                true => depth += 1,
                false => depth -= 1,
            }
            height = height.max(depth);
        }
        height - 1
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

    /// A copier of this tree's subtrees into one other tree.
    pub fn copier(&self) -> SubtreeCopier<'_> {
        SubtreeCopier {
            src: self,
            tag_map: vec![NONE; self.tags.len()],
            text_map: vec![NONE; self.texts.ends.len()],
            stack: Vec::new(),
        }
    }

    /// A tree with this one's root tag and `keep`'s selection of the rest.
    pub(crate) fn filtered(&self, keep: impl FnMut(NodeId) -> CopyStep) -> XmlTree {
        let mut out = XmlTree::new(&*self.tags[self.item[0] as usize]);
        let root = out.root();
        self.copier()
            .copy_children(&mut out, root, self.root(), keep);
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
        self.filtered(|node| match self.elem_tag(node) {
            Some(tag) if internal[tag.0 as usize] => CopyStep::Splice,
            _ => CopyStep::Keep,
        })
    }

    /// Replaces the child order of `parent`. The new order must be a
    /// permutation of the current children. Used by the AIG evaluator, which
    /// evaluates children in dependency order (§3.2) but must emit them in
    /// document order.
    pub fn set_children(&mut self, parent: NodeId, order: Vec<NodeId>) {
        debug_assert!({
            let mut a = self.children(parent).to_vec();
            let mut b = order.clone();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        });
        // In document order, a node's children are in id order: ascending
        // ids change nothing, anything else ends document order.
        if self.preorder && order.is_sorted() {
            return;
        }
        self.preorder = false;
        // Patch a built index in place: a reorder must not cost a rebuild.
        if let Some(index) = self.index.get_mut() {
            let at = index.start[parent.index()] as usize;
            index.ids[at..at + order.len()].copy_from_slice(&order);
        }
        self.reorders.push((parent, order));
    }

    /// Returns a copy in which the children of every element whose tag
    /// satisfies `is_star_parent` are sorted by their serialized content.
    /// Star children carry no inherent document order across evaluation
    /// strategies (the paper's optimized pipeline emits them by sort-merging
    /// key paths, §5.1), so comparisons between the conceptual and the
    /// set-oriented evaluator are made on this canonical form.
    pub fn sort_star_children(&self, is_star_parent: impl Fn(&str) -> bool) -> XmlTree {
        let mut out = self.clone();
        let star: Vec<bool> = self.tags.iter().map(|tag| is_star_parent(tag)).collect();
        // Descendants first: a child's key is that of its canonical form.
        for (node, enter) in self.walk(self.root()) {
            let sort = !enter && self.elem_tag(node).is_some_and(|tag| star[tag.0 as usize]);
            if sort && out.children(node).len() > 1 {
                let mut children = out.children(node).to_vec();
                children.sort_by_cached_key(|&c| out.content_key(c));
                out.set_children(node, children);
            }
        }
        out
    }

    /// The walk of `node`'s subtree with each node's kind in place of its id.
    fn events(&self, node: NodeId) -> impl Iterator<Item = (NodeKind<'_>, bool)> {
        self.walk(node).map(|(n, enter)| (self.kind(n), enter))
    }

    /// The subtree of `node` spelled out unambiguously, as a sort key.
    fn content_key(&self, node: NodeId) -> String {
        let mut key = String::new();
        for event in self.events(node) {
            match event {
                (NodeKind::Text(text), true) => key.push_str(text),
                (NodeKind::Element(tag), true) => key.extend(["<", tag, ">"]),
                (NodeKind::Element(_), false) => key.push_str("</>"),
                (NodeKind::Text(_), false) => {}
            }
        }
        key
    }

    /// Structural equality of the subtrees rooted at `a` (in `self`) and `b`
    /// (in `other`): same tags, same text, same child order — i.e. the same
    /// sequence of walk events.
    pub fn subtree_eq(&self, a: NodeId, other: &XmlTree, b: NodeId) -> bool {
        self.events(a).eq(other.events(b))
    }
}

impl PartialEq for XmlTree {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.subtree_eq(self.root(), other, other.root())
    }
}

impl Eq for XmlTree {}

/// The events of [`XmlTree::walk`].
#[derive(Clone)]
pub struct Walk<'a> {
    tree: &'a XmlTree,
    root: u32,
    /// In document order: the next id to enter, the innermost open node and
    /// the number of open nodes — `0` before `root` is entered and after it
    /// closes.
    next: u32,
    open: u32,
    depth: u32,
    /// Otherwise, the nodes still to enter or leave, through the child index.
    index: Option<Vec<(NodeId, bool)>>,
}

impl Iterator for Walk<'_> {
    type Item = (NodeId, bool);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, bool)> {
        if let Some(stack) = &mut self.index {
            let (node, enter) = stack.pop()?;
            if enter {
                stack.push((node, false));
                let children = self.tree.children(node).iter().rev();
                stack.extend(children.map(|&c| (c, true)));
            }
            return Some((node, enter));
        }
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
    fn fold<B, F>(mut self, mut acc: B, mut f: F) -> B
    where
        F: FnMut(B, (NodeId, bool)) -> B,
    {
        if self.index.is_some() {
            for event in self.by_ref() {
                acc = f(acc, event);
            }
            return acc;
        }
        let Walk {
            tree,
            root,
            mut next,
            mut open,
            mut depth,
            ..
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

/// A pass over the ids of a whole document in pre-order
/// ([`XmlTree::scan_preorder`]).
pub(crate) trait PreorderScan {
    type Output;

    /// Runs over `ids`: every node of the tree once, each after its parent
    /// and before its next sibling. A clone replays the sequence.
    fn scan(self, ids: impl Iterator<Item = NodeId> + Clone) -> Self::Output;
}

/// Writes nodes into a tree in pre-order ([`XmlTree::writer`]): each one the
/// next child of the innermost open element. The root starts open; once it
/// is closed the document is complete.
///
/// The open elements are the innermost one and its ancestors, so the parent
/// column is the writer's stack: a node goes under the previous node or one
/// of its ancestors, which is document order by construction — no climb, and
/// no check that its parent is an element. A tree in document order stays
/// in it (its root is an ancestor of every node).
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
    /// text table's buffer, as [`XmlTree::add_text_with`] does, and returns
    /// the id of that text.
    pub fn text_with(&mut self, write: impl FnOnce(&mut String)) -> TextId {
        let text = self.tree.intern_written(write);
        self.text_id(text);
        text
    }

    #[inline]
    fn append(&mut self, item: u32) -> NodeId {
        assert!(self.open != NONE, "the document is closed");
        self.tree.append(self.open, item)
    }
}

/// What [`SubtreeCopier::copy_children`] does with one source node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyStep {
    /// Copy the node and walk on into its children.
    Keep,
    /// Drop the node but copy its children in its place.
    Splice,
    /// Drop the node and its whole subtree.
    Skip,
}

/// Copies subtrees of one tree into one other tree with no allocation per
/// node or per call: the source → destination tag and text translations and
/// the walk stack are kept between calls. See [`XmlTree::copier`].
pub struct SubtreeCopier<'a> {
    src: &'a XmlTree,
    /// Destination tag id per source tag id, and text id per source text
    /// id, `NONE` until first needed. They are what ties a copier to a
    /// single destination tree.
    tag_map: Vec<u32>,
    text_map: Vec<u32>,
    /// Source nodes still to visit, each with its destination parent.
    stack: Vec<(NodeId, NodeId)>,
}

impl SubtreeCopier<'_> {
    /// Appends copies of the children of `node` (a node of the source tree),
    /// subtrees included and filtered through `step`, under `parent` in
    /// `dst`. Returns the number of nodes copied.
    pub fn copy_children(
        &mut self,
        dst: &mut XmlTree,
        parent: NodeId,
        node: NodeId,
        mut step: impl FnMut(NodeId) -> CopyStep,
    ) -> usize {
        let SubtreeCopier {
            src,
            tag_map,
            text_map,
            stack,
        } = self;
        let before = dst.len();
        // Reversed, so that the stack pops them in document order.
        let children_under =
            |node, parent| src.children(node).iter().rev().map(move |&c| (c, parent));
        stack.clear();
        stack.extend(children_under(node, parent));
        while let Some((node, parent)) = stack.pop() {
            let copied = match step(node) {
                CopyStep::Skip => continue,
                CopyStep::Splice => parent,
                CopyStep::Keep => match src.text_id(node) {
                    None => {
                        let tag = src.item[node.index()];
                        let mapped = &mut tag_map[tag as usize];
                        if *mapped == NONE {
                            *mapped = dst.intern_tag(&src.tags[tag as usize]).0;
                        }
                        dst.add_tagged(parent, TagId(*mapped))
                    }
                    Some(TextId(text)) => {
                        let mapped = &mut text_map[text as usize];
                        if *mapped == NONE {
                            *mapped = dst.intern_text(src.texts.get(text)).0;
                        }
                        dst.add_text_id(parent, TextId(*mapped))
                    }
                },
            };
            stack.extend(children_under(node, copied));
        }
        dst.len() - before
    }
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
    fn preorder_iteration_in_document_order() {
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
    fn set_children_reorders() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        let b = t.add_element(t.root(), "b");
        t.set_children(t.root(), vec![b, a]);
        let tags: Vec<&str> = t
            .children(t.root())
            .iter()
            .filter_map(|&c| t.tag(c))
            .collect();
        assert_eq!(tags, vec!["b", "a"]);
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
        let a = t.add_element(t.root(), "a");
        let v1 = t.intern_text("v1");
        let texts = [
            t.add_text(a, "v1"),
            t.add_text_with(a, |buf| buf.push_str("v1")),
            t.add_text_id(a, v1),
            t.add_text_with(a, |buf| buf.push('v')),
            t.add_text(a, "1"),
        ];
        let ids = texts.map(|n| t.text_id(n).unwrap());
        assert!(ids[0] == ids[1] && ids[1] == ids[2]);
        assert!(ids[3] != ids[0] && ids[4] != ids[3]);
        assert_eq!(t.distinct_texts(), 3);
        let pcdata = texts.map(|n| t.text(n).unwrap());
        assert_eq!(pcdata, ["v1", "v1", "v1", "v", "1"]);
        assert_eq!(t.text_value(a), "v1v1v1v1");
        assert_eq!(t.text_id(a), None);

        // The parser: one id per distinct text, escaped or not.
        let parsed =
            crate::parse::parse("<r><a>v1</a><b>&lt;</b><c>v1</c><d>&lt;</d></r>").unwrap();
        let leaves: Vec<NodeId> = parsed.iter().filter(|&n| !parsed.is_element(n)).collect();
        let ids: Vec<TextId> = leaves.iter().map(|&n| parsed.text_id(n).unwrap()).collect();
        assert!(ids[0] == ids[2] && ids[1] == ids[3] && ids[0] != ids[1]);
        assert_eq!(parsed.text(leaves[1]), Some("<"));
        assert_eq!(parsed.distinct_texts(), 2);

        // A copy into another tree maps ids the way it maps tags: the
        // destination's own `v1` is the copies' too.
        let mut dst = XmlTree::new("r");
        let root = dst.root();
        dst.add_text(root, "v1");
        let n = parsed
            .copier()
            .copy_children(&mut dst, root, parsed.root(), |_| CopyStep::Keep);
        assert_eq!(n, 8);
        let leaves: Vec<NodeId> = dst.iter().filter(|&n| !dst.is_element(n)).collect();
        let ids: Vec<TextId> = leaves.iter().map(|&n| dst.text_id(n).unwrap()).collect();
        assert_eq!(ids.len(), 5);
        assert!(ids[0] == ids[1] && ids[1] == ids[3] && ids[2] == ids[4] && ids[0] != ids[2]);
        assert_eq!(dst.distinct_texts(), 2);
        let pcdata: Vec<&str> = leaves.iter().map(|&n| dst.text(n).unwrap()).collect();
        assert_eq!(pcdata, ["v1", "v1", "<", "v1", "<"]);
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
        assert!(t == built && t.in_document_order());
        assert!(t.item.capacity() >= 100 && t.parent.capacity() >= 100);

        // On a built tree, the writer appends under the root.
        let mut more = built.clone();
        let tag = more.intern_tag("patient");
        let mut out = more.writer(0);
        let p = out.open(tag);
        out.text_id(TextId(0));
        out.close();
        assert!(more.in_document_order());
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
