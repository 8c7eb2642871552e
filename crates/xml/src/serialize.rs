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

/// Serializes the document compactly (no whitespace between elements), so
/// that parsing it back yields a structurally equal tree.
pub fn to_string(tree: &XmlTree) -> String {
    let mut out = String::with_capacity(tree.markup_len());
    for (node, enter) in tree.walk(tree.root()) {
        match (tree.kind(node), enter, tree.children(node).is_empty()) {
            (NodeKind::Text(text), true, _) => escape_text(text, &mut out),
            (NodeKind::Element(tag), true, true) => out.extend(["<", tag, "/>"]),
            (NodeKind::Element(tag), true, false) => out.extend(["<", tag, ">"]),
            (NodeKind::Element(tag), false, false) => out.extend(["</", tag, ">"]),
            (_, false, _) => {}
        }
    }
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
    fn empty_root() {
        let t = XmlTree::new("r");
        assert_eq!(to_string(&t), "<r/>");
        assert_eq!(to_pretty_string(&t), "<r/>\n");
    }
}
