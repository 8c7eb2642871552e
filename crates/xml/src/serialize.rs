//! XML serialization with entity escaping.

use crate::tree::{NodeKind, XmlTree};

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
/// One pass over the walk events: an element's start tag stays open until
/// the next event says whether a child follows (`>`) or it closes (`/>`).
/// Whether a text needs escaping is decided once per distinct text.
pub fn to_string(tree: &XmlTree) -> String {
    let names = tree.tags();
    let mut out = String::with_capacity(tree.markup_len());
    // Per text id: 0 undecided, 1 copied as is, 2 escaped.
    let mut escapes = vec![0u8; tree.distinct_texts()];
    let mut start_open = false;
    tree.walk(tree.root()).for_each(|(node, enter)| {
        if std::mem::take(&mut start_open) {
            match enter {
                true => out.push('>'),
                false => return out.push_str("/>"),
            }
        }
        match (tree.elem_tag(node), enter) {
            (Some(tag), true) => {
                out.push('<');
                out.push_str(&names[tag.0 as usize]);
                start_open = true;
            }
            (Some(tag), false) => {
                out.push_str("</");
                out.push_str(&names[tag.0 as usize]);
                out.push('>');
            }
            (None, true) => {
                let id = tree.text_id(node).expect("a node is an element or a text");
                let text = tree.text_of(id);
                let escape = &mut escapes[id.0 as usize];
                if *escape == 0 {
                    *escape = 1 + u8::from(text.bytes().any(|b| matches!(b, b'&' | b'<' | b'>')));
                }
                match escape {
                    1 => out.push_str(text),
                    _ => escape_text(text, &mut out),
                }
            }
            (None, false) => {}
        }
    });
    out
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

    #[test]
    fn empty_root() {
        let t = XmlTree::new("r");
        assert_eq!(to_string(&t), "<r/>");
        assert_eq!(to_pretty_string(&t), "<r/>\n");
    }
}
