//! A small XML parser sufficient for round-tripping documents produced by
//! [`crate::serialize`]: elements, text, entity references, comments, and
//! processing instructions / XML declarations (ignored). Attributes are
//! rejected — the paper's data model has none (§2).

use crate::error::XmlError;
use crate::tree::{TreeWriter, XmlTree};

/// Parses an XML document into a tree. Nesting is bounded by memory only:
/// the tree's writer keeps the open elements, not the call stack.
pub fn parse(src: &str) -> Result<XmlTree, XmlError> {
    Parser {
        text: src,
        src: src.as_bytes(),
        pos: 0,
    }
    .document()
}

struct Parser<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::XmlSyntax {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Skips `lead`…`end` (a comment or processing instruction) if one
    /// starts here, saying whether its `end` was found; an unterminated one
    /// swallows the rest of the input.
    fn skip_past(&mut self, lead: &[u8], end: &[u8]) -> Option<bool> {
        let rest = &self.src[self.pos..];
        if !rest.starts_with(lead) {
            return None;
        }
        let found = rest.windows(end.len()).position(|w| w == end);
        self.pos = found.map_or(self.src.len(), |off| self.pos + off + end.len());
        Some(found.is_some())
    }

    fn skip_misc(&mut self) {
        self.skip_ws();
        while self
            .skip_past(b"<!--", b"-->")
            .or_else(|| self.skip_past(b"<?", b"?>"))
            .is_some()
        {
            self.skip_ws();
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected an element name"));
        }
        // Name bytes are ASCII, so both ends are character boundaries.
        Ok(&self.text[start..self.pos])
    }

    fn document(&mut self) -> Result<XmlTree, XmlError> {
        self.skip_misc();
        if !self.src[self.pos..].starts_with(b"<") {
            return Err(self.err("expected root element"));
        }
        self.pos += 1;
        let tag = self.name()?;
        let mut tree = XmlTree::new(tag);
        let mut out = tree.writer(0);
        if !self.finish_start_tag(tag)? {
            out.close();
        }
        let mut text = String::new();
        while out.open_tag().is_some() {
            match self.src.get(self.pos) {
                None => return Err(self.err("unexpected end of input inside element")),
                Some(b'<') => {
                    Self::flush_text(&mut out, &mut text);
                    if let Some(terminated) = self.skip_past(b"<!--", b"-->") {
                        if !terminated {
                            return Err(self.err("unterminated comment"));
                        }
                    } else if self.src[self.pos..].starts_with(b"</") {
                        self.pos += 2;
                        let (close, tag) = (self.name()?, out.open_tag().unwrap_or_default());
                        if close != tag {
                            return Err(
                                self.err(format!("mismatched close tag `{close}` for `{tag}`"))
                            );
                        }
                        self.skip_ws();
                        if !self.src[self.pos..].starts_with(b">") {
                            return Err(self.err("expected `>`"));
                        }
                        self.pos += 1;
                        out.close();
                    } else {
                        self.pos += 1;
                        let tag = self.name()?;
                        let tag_id = out.intern_tag(tag);
                        out.open(tag_id);
                        if !self.finish_start_tag(tag)? {
                            out.close();
                        }
                    }
                }
                Some(b'&') => text.push(self.entity()?),
                Some(_) => {
                    // Accumulate raw text up to the next markup byte; both
                    // ends are ASCII or the input's, so character boundaries.
                    let start = self.pos;
                    while !matches!(self.src.get(self.pos), None | Some(b'<' | b'&')) {
                        self.pos += 1;
                    }
                    text.push_str(&self.text[start..self.pos]);
                }
            }
        }
        self.skip_misc();
        if self.pos < self.src.len() {
            return Err(self.err("trailing content after root element"));
        }
        Ok(tree)
    }

    /// Called just after `<name` has been consumed; consumes `/>` (returning
    /// false) or `>` (true: the element's content follows).
    fn finish_start_tag(&mut self, tag: &str) -> Result<bool, XmlError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let has_content = rest.starts_with(b">");
        if !has_content && !rest.starts_with(b"/>") {
            return Err(self.err(format!(
                "malformed start tag for `{tag}` (attributes are not supported)"
            )));
        }
        self.pos += if has_content { 1 } else { 2 };
        Ok(has_content)
    }

    /// Emits accumulated text as a text node if it contains any
    /// non-whitespace character; whitespace-only runs between elements are
    /// treated as formatting and dropped.
    fn flush_text(out: &mut TreeWriter, text: &mut String) {
        if text.chars().any(|c| !c.is_whitespace()) {
            out.text_with(|buf| buf.push_str(text));
        }
        text.clear();
    }

    fn entity(&mut self) -> Result<char, XmlError> {
        let rest = &self.src[self.pos..];
        for (lit, ch) in [
            (&b"&amp;"[..], '&'),
            (&b"&lt;"[..], '<'),
            (&b"&gt;"[..], '>'),
            (&b"&quot;"[..], '"'),
            (&b"&apos;"[..], '\''),
        ] {
            if rest.starts_with(lit) {
                self.pos += lit.len();
                return Ok(ch);
            }
        }
        Err(self.err("unknown entity reference"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{to_pretty_string, to_string};

    #[test]
    fn parse_simple_document() {
        let t = parse("<report><patient><SSN>123</SSN></patient></report>").unwrap();
        assert_eq!(t.tag(t.root()), Some("report"));
        let p = t.children(t.root())[0];
        assert_eq!(t.subelement_value(p, "SSN").as_deref(), Some("123"));
    }

    #[test]
    fn parse_self_closing_and_entities() {
        let t = parse("<a><b/>x &amp; y &lt;z&gt;</a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
        assert_eq!(t.text(t.children(t.root())[1]), Some("x & y <z>"));
    }

    #[test]
    fn parse_skips_declaration_and_comments() {
        let t = parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 1);
    }

    #[test]
    fn parse_rejects_mismatched_tags() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a attr=\"x\"/>").is_err());
    }

    #[test]
    fn round_trip_compact() {
        let src = "<report><patient><SSN>12&lt;3&amp;45</SSN><bill/></patient></report>";
        let t = parse(src).unwrap();
        assert_eq!(to_string(&t), src);
    }

    #[test]
    fn round_trip_pretty() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        t.add_text(a, "v1");
        t.add_element(t.root(), "b");
        let pretty = to_pretty_string(&t);
        let parsed = parse(&pretty).unwrap();
        assert_eq!(parsed, t);
    }
}
