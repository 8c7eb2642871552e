//! XML serialization with entity escaping.
//!
//! [`to_string`], the compact serializer on the request path, is one scan
//! of the node ids `0..n`, the document order: tags are spelled once per
//! tree, texts are copied straight from the tree's text table, and both go
//! into the output in fixed-width chunks, the output allocated once at the
//! size a first scan counts. [`to_pretty_string`] is a loop over the walk
//! events.

use crate::tree::{NodeId, NodeKind, TagId, TextId, XmlTree, NONE};
use std::ops::Range;

/// Escapes text content (`&`, `<`, `>`), copying the runs between them.
pub fn escape_text(text: &str, out: &mut String) {
    let mut run = 0;
    for (at, byte) in text.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => continue,
        };
        out.push_str(&text[run..at]);
        out.push_str(entity);
        run = at + 1;
    }
    out.push_str(&text[run..]);
}

/// Serializes the document compactly (no whitespace between elements).
/// Parsing the output back yields the same tree up to text nodes: adjacent
/// ones merge, and empty or whitespace-only ones are dropped (an element
/// holding one empty text node serializes to `<e></e>`, which parses back
/// with no child).
///
/// One scan of the ids in pre-order, with the open elements as a chain
/// through the parent column: a node first closes the open elements it is
/// not inside, and an element is written `<t>` and opened if the next node
/// is its child, else `<t/>`. Each tag is spelled once as `<t>`, `<t/>` and
/// `</t>`, each text is decided once whether it needs escaping, and every
/// spelling and unescaped text is copied 16 bytes at a time into an
/// output allocated once: a first scan counts the bytes, escapes included,
/// and one chunk of slack takes the last copy's overrun.
pub fn to_string(tree: &XmlTree) -> String {
    Markup::spell(tree).write()
}

/// The width of one copy: a spelling or an unescaped text of `n` bytes is
/// `n.div_ceil(CHUNK)` fixed-width copies.
const CHUNK: usize = 16;

/// The escape decision of every text and the spellings of every tag of one
/// tree, in one buffer: per text id a byte, 1 if the text needs escaping;
/// per tag id eight bytes, the little-endian `u32` offset of its spellings
/// `<t>`, `<t/>`, `</t>` and the `u32` length of its name; the spellings,
/// one tag after another; then a chunk of padding, so that a chunk read at
/// any spelling stays in the buffer.
struct Markup<'t> {
    tree: &'t XmlTree,
    /// The number of texts: where the per-tag entries start.
    texts: usize,
    bytes: Vec<u8>,
}

impl<'t> Markup<'t> {
    fn spell(tree: &'t XmlTree) -> Self {
        let (tags, texts) = (tree.tags(), tree.distinct_texts());
        let spelled: usize = tags.iter().map(|tag| 3 * tag.len() + 8).sum();
        let mut bytes = Vec::with_capacity(texts + 8 * tags.len() + spelled + CHUNK);
        let text = tree.text_buf();
        let escapes = |id| {
            text[tree.text_span(TextId(id))]
                .iter()
                .any(|&b| escaped(b) > 0)
        };
        bytes.extend((0..texts as u32).map(|id| u8::from(escapes(id))));
        let mut at = bytes.len() + 8 * tags.len();
        for tag in tags {
            let entry = [at, tag.len()].map(|n| u32::try_from(n).expect("tags exceed u32 bytes"));
            bytes.extend(entry.map(u32::to_le_bytes).as_flattened());
            at += 3 * tag.len() + 8;
        }
        for tag in tags.iter().map(|tag| tag.as_bytes()) {
            for part in [b"<", tag, b">", b"<", tag, b"/>", b"</", tag, b">"] {
                bytes.extend_from_slice(part);
            }
        }
        bytes.resize(bytes.len() + CHUNK, 0);
        Markup { tree, texts, bytes }
    }

    #[inline]
    fn escapes(&self, text: TextId) -> bool {
        self.bytes[text.0 as usize] != 0
    }

    /// Where the spellings of `tag` start, and its name's length.
    #[inline]
    fn spelled(&self, tag: TagId) -> (usize, usize) {
        let at = self.texts + 8 * tag.0 as usize;
        let entry: &[u8; 8] = self.bytes[at..].first_chunk().expect("eight bytes");
        let word = u64::from_le_bytes(*entry);
        ((word as u32) as usize, (word >> 32) as usize)
    }

    /// `<t>`.
    #[inline]
    fn start(&self, tag: TagId) -> Range<usize> {
        let (at, name) = self.spelled(tag);
        at..at + name + 2
    }

    /// `<t/>`.
    #[inline]
    fn empty(&self, tag: TagId) -> Range<usize> {
        let (at, name) = self.spelled(tag);
        at + name + 2..at + 2 * name + 5
    }

    /// `</t>` of the element `node`.
    #[inline]
    fn close(&self, node: NodeId) -> Range<usize> {
        let tag = self.tree.elem_tag(node).expect("only elements are open");
        let (at, name) = self.spelled(tag);
        at + 2 * name + 5..at + 3 * name + 8
    }

    /// Counts the bytes, then writes them.
    fn write(self) -> String {
        let tree = self.tree;
        let mut ids = (0..tree.len() as u32).map(NodeId);
        let text = tree.text_buf();
        // The bytes: every element's `<t/>`, lengthened to `<t></t>` if the
        // next node is its child, and every text, escaped or not.
        let mut len = 0;
        let (mut last, mut more) = (NONE, 0);
        for node in ids.clone() {
            if tree.parent_id(node) == last {
                len += more;
            }
            (last, more) = (node.0, 0);
            len += match tree.elem_tag(node) {
                Some(tag) => {
                    let (_, name) = self.spelled(tag);
                    more = name + 2;
                    name + 3
                }
                None => {
                    let id = tree.text_id(node).expect("a node is an element or a text");
                    let span = tree.text_span(id);
                    match self.escapes(id) {
                        false => span.len(),
                        true => text[span].iter().map(|&b| 1 + escaped(b)).sum(),
                    }
                }
            };
        }
        // A chunk of slack: the last copy may spill past the last byte.
        let mut out = Out {
            bytes: vec![0; len + CHUNK],
            at: 0,
        };
        let markup = &self.bytes;
        let mut open = NONE;
        let mut next = ids.next();
        while let Some(node) = next {
            next = ids.next();
            let parent = tree.parent_id(node);
            while open != parent {
                out.copy(markup, self.close(NodeId(open)));
                open = tree.parent_id(NodeId(open));
            }
            match tree.elem_tag(node) {
                Some(tag) => match next.is_some_and(|next| tree.parent_id(next) == node.0) {
                    true => {
                        out.copy(markup, self.start(tag));
                        open = node.0;
                    }
                    false => out.copy(markup, self.empty(tag)),
                },
                None => {
                    let id = tree.text_id(node).expect("a node is an element or a text");
                    match self.escapes(id) {
                        false => out.copy(text, tree.text_span(id)),
                        true => out.escape(&text[tree.text_span(id)]),
                    }
                }
            }
        }
        while open != NONE {
            out.copy(markup, self.close(NodeId(open)));
            open = tree.parent_id(NodeId(open));
        }
        debug_assert_eq!(out.at, len, "the first scan counts every byte");
        out.bytes.truncate(out.at);
        String::from_utf8(out.bytes).expect("whole spellings and texts of UTF-8")
    }
}

/// The bytes an escaped text adds for `byte`.
#[inline]
fn escaped(byte: u8) -> usize {
    match byte {
        b'&' => 4,
        b'<' | b'>' => 3,
        _ => 0,
    }
}

/// The output of [`to_string`], written up to `at`.
struct Out {
    bytes: Vec<u8>,
    at: usize,
}

impl Out {
    /// Appends `src[span]` a chunk at a time. A chunk spills past the span
    /// into bytes the next write overwrites (or the slack); the last chunk
    /// of a source that ends within it is copied exactly.
    #[inline(always)]
    fn copy(&mut self, src: &[u8], span: Range<usize>) {
        let (mut from, mut to) = (span.start, self.at);
        self.at += span.len();
        while from < span.end {
            let dst = self.bytes[to..].first_chunk_mut::<CHUNK>();
            match (dst, src[from..].first_chunk::<CHUNK>()) {
                (Some(dst), Some(chunk)) => *dst = *chunk,
                _ => self.bytes[to..to + span.end - from].copy_from_slice(&src[from..span.end]),
            }
            (from, to) = (from + CHUNK, to + CHUNK);
        }
    }

    /// Appends `text` with `&`, `<` and `>` escaped.
    fn escape(&mut self, text: &[u8]) {
        for byte in text {
            let entity: &[u8] = match byte {
                b'&' => b"&amp;",
                b'<' => b"&lt;",
                b'>' => b"&gt;",
                _ => std::slice::from_ref(byte),
            };
            self.bytes[self.at..self.at + entity.len()].copy_from_slice(entity);
            self.at += entity.len();
        }
    }
}

/// Serializes the document with two-space indentation. Text content is kept
/// inline with its parent element so PCDATA is not polluted with whitespace.
pub fn to_pretty_string(tree: &XmlTree) -> String {
    // An element with a single text child stays on one line.
    let inline = |node| matches!(tree.children(node), [only] if !tree.is_element(*only));
    let (mut out, mut pad, mut depth) = (String::new(), String::new(), 0);
    for (node, enter) in tree.walk(tree.root()) {
        let joins_parent = tree.parent(node).is_some_and(inline);
        let (empty, inline) = (tree.children(node).is_empty(), inline(node));
        depth -= usize::from(!enter);
        while pad.len() < 2 * depth {
            pad.push_str("  ");
        }
        // A node opens its own line unless it joins its parent's; only an
        // element spread over several lines closes on a fresh one.
        if !joins_parent && (enter || !(empty || inline)) {
            out.push_str(&pad[..2 * depth]);
        }
        match (tree.kind(node), enter) {
            (NodeKind::Text(text), true) => escape_text(text, &mut out),
            (NodeKind::Element(tag), true) if empty => out.extend(["<", tag, "/>"]),
            (NodeKind::Element(tag), true) if inline => out.extend(["<", tag, ">"]),
            (NodeKind::Element(tag), true) => out.extend(["<", tag, ">\n"]),
            (NodeKind::Element(tag), false) if !empty => out.extend(["</", tag, ">"]),
            (_, false) => {}
        }
        depth += usize::from(enter);
        if !enter && !joins_parent {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XmlTree {
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let ssn = t.add_element(p, "SSN");
        t.add_text(ssn, "12<3&4>5");
        t.add_element(p, "bill");
        t
    }

    #[test]
    fn compact_serialization_escapes() {
        let s = to_string(&sample());
        assert_eq!(
            s,
            "<report><patient><SSN>12&lt;3&amp;4&gt;5</SSN><bill/></patient></report>"
        );
    }

    #[test]
    fn pretty_keeps_pcdata_inline() {
        let s = to_pretty_string(&sample());
        assert!(s.contains("<SSN>12&lt;3&amp;4&gt;5</SSN>"));
        assert!(s.contains("    <bill/>"));
        assert!(s.ends_with("</report>\n"));
    }

    #[test]
    fn an_empty_text_node_does_not_survive_a_round_trip() {
        let mut t = XmlTree::new("r");
        let e = t.add_element(t.root(), "e");
        t.add_text(e, "");
        assert_eq!(to_string(&t), "<r><e></e></r>");
        let parsed = crate::parse::parse(&to_string(&t)).unwrap();
        assert_eq!((t.len(), parsed.len()), (3, 2));
    }

    /// The document ends with the text table's last text and close tags:
    /// every copy near the end of its source or of the output stays in
    /// bounds, appended or parsed.
    #[test]
    fn the_last_text_and_close_tags_end_the_document() {
        let last = "fifteen bytes..é and ten";
        let want = format!("<r><a>x</a><fourteen_bytes>{last}</fourteen_bytes></r>");
        let mut appended = XmlTree::new("r");
        let a = appended.add_element(appended.root(), "a");
        appended.add_text(a, "x");
        let f = appended.add_element(appended.root(), "fourteen_bytes");
        appended.add_text(f, last);
        let parsed = crate::parse::parse(&want).unwrap();

        for tree in [&appended, &parsed] {
            assert_eq!(tree.text_of(TextId(tree.distinct_texts() as u32 - 1)), last);
            let xml = to_string(tree);
            assert_eq!(xml, want);
            assert!(
                xml.capacity() - xml.len() <= CHUNK,
                "sized to the bytes written"
            );
        }
    }

    #[test]
    fn empty_root() {
        let t = XmlTree::new("r");
        assert_eq!(to_string(&t), "<r/>");
        assert_eq!(to_pretty_string(&t), "<r/>\n");
    }
}
