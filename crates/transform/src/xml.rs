//! A minimal XML parser (elements, attributes, text; no DTDs/namespaces).
//! Enough for the paper's Fig. 4 "transform XML documents into relational
//! tables" scenario.

/// An XML element.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlNode {
    /// Tag name.
    pub tag: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements.
    pub children: Vec<XmlNode>,
    /// Concatenated direct text content, trimmed.
    pub text: String,
}

impl XmlNode {
    /// Parse a document; returns the root element.
    pub fn parse(input: &str) -> Result<XmlNode, String> {
        let mut p = XmlParser { input, pos: 0 };
        p.skip_ws_and_prolog();
        let node = p.element()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(node)
    }

    /// First child with the tag.
    pub fn child(&self, tag: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.tag == tag)
    }

    /// All children with the tag.
    pub fn children_named<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.tag == tag)
    }
}

struct XmlParser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += self.rest().chars().next().map(|c| c.len_utf8()).unwrap_or(1);
        }
    }

    fn skip_ws_and_prolog(&mut self) {
        loop {
            self.skip_ws();
            if self.rest().starts_with("<?") {
                match self.rest().find("?>") {
                    Some(end) => self.pos += end + 2,
                    None => return,
                }
            } else if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(end) => self.pos += end + 3,
                    None => return,
                }
            } else {
                return;
            }
        }
    }

    fn element(&mut self) -> Result<XmlNode, String> {
        if !self.rest().starts_with('<') {
            return Err(format!("expected < at byte {}", self.pos));
        }
        self.pos += 1;
        let tag = self.name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            if self.rest().starts_with("/>") {
                self.pos += 2;
                return Ok(XmlNode { tag, attributes, children: Vec::new(), text: String::new() });
            }
            if self.rest().starts_with('>') {
                self.pos += 1;
                break;
            }
            let key = self.name()?;
            self.skip_ws();
            if !self.rest().starts_with('=') {
                return Err(format!("expected = after attribute at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = self
                .rest()
                .chars()
                .next()
                .filter(|c| *c == '"' || *c == '\'')
                .ok_or_else(|| format!("expected quoted attribute value at byte {}", self.pos))?;
            self.pos += 1;
            let end = self
                .rest()
                .find(quote)
                .ok_or_else(|| format!("unterminated attribute at byte {}", self.pos))?;
            let value = unescape(&self.rest()[..end]);
            self.pos += end + 1;
            attributes.push((key, value));
        }
        // Content: text and child elements until </tag>.
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(end) => {
                        self.pos += end + 3;
                        continue;
                    }
                    None => return Err("unterminated comment".into()),
                }
            }
            if self.rest().starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != tag {
                    return Err(format!("mismatched </{close}> for <{tag}>"));
                }
                self.skip_ws();
                if !self.rest().starts_with('>') {
                    return Err(format!("expected > at byte {}", self.pos));
                }
                self.pos += 1;
                return Ok(XmlNode { tag, attributes, children, text: text.trim().to_string() });
            }
            if self.rest().starts_with('<') {
                children.push(self.element()?);
                continue;
            }
            match self.rest().find('<') {
                Some(next) => {
                    text.push_str(&unescape(&self.rest()[..next]));
                    self.pos += next;
                }
                None => return Err(format!("unterminated element <{tag}>")),
            }
        }
    }

    fn name(&mut self) -> Result<String, String> {
        let start = self.pos;
        for c in self.rest().chars() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == ':' || c == '.' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(format!("expected name at byte {start}"))
        } else {
            Ok(self.input[start..self.pos].to_string())
        }
    }
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = r#"<?xml version="1.0"?>
            <patients hospital="BIT">
              <patient id="1"><name>Alice</name><age>34</age></patient>
              <patient id="2"><name>Bob</name><age>40</age></patient>
            </patients>"#;
        let root = XmlNode::parse(doc).unwrap();
        assert_eq!(root.tag, "patients");
        assert_eq!(root.attributes, [("hospital".to_string(), "BIT".to_string())]);
        let patients: Vec<&XmlNode> = root.children_named("patient").collect();
        assert_eq!(patients.len(), 2);
        assert_eq!(patients[0].child("name").unwrap().text, "Alice");
        assert_eq!(patients[1].attributes, [("id".to_string(), "2".to_string())]);
    }

    #[test]
    fn self_closing_and_empty() {
        let root = XmlNode::parse("<r><a x='1'/><b></b></r>").unwrap();
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].attributes, [("x".to_string(), "1".to_string())]);
        assert!(root.children[1].text.is_empty());
    }

    #[test]
    fn entities_unescaped() {
        let root = XmlNode::parse("<r>a &lt; b &amp; c</r>").unwrap();
        assert_eq!(root.text, "a < b & c");
    }

    #[test]
    fn comments_skipped() {
        let root = XmlNode::parse("<r><!-- note --><a>1</a></r>").unwrap();
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(XmlNode::parse("<a><b></a></b>").is_err());
        assert!(XmlNode::parse("<a>").is_err());
        assert!(XmlNode::parse("no xml").is_err());
    }

    #[test]
    fn unicode_text() {
        let root = XmlNode::parse("<名前>北京</名前>").unwrap();
        assert_eq!(root.text, "北京");
    }
}
