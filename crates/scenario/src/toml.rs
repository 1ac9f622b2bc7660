//! Dependency-free parser for the TOML subset the scenario format uses.
//!
//! Supported grammar (a deliberate subset of TOML 1.0):
//!
//! * `[table]` and `[[array-of-tables]]` headers with dotted bare-key paths,
//! * `key = value` entries with bare keys,
//! * values: basic strings (`"..."` with `\"
//!   \\ \n \t` escapes), integers (optional sign, `_` separators), booleans,
//!   and single-line arrays of those scalars,
//! * `#` comments (full-line and trailing).
//!
//! Crucially the parser preserves **document order** of the section headers:
//! `[[host]]` / `[[switch]]` interleaving determines component build order
//! (and therefore event-log fingerprints), so the document is represented as
//! an ordered list of [`Section`]s rather than a tree. Sub-tables such as
//! `[link.impairment]` appear as their own sections immediately after the
//! array element they belong to; [`crate::spec`] attaches them to the most
//! recent matching parent.
//!
//! Every error carries the 1-based source line and an actionable message.

use std::fmt;

/// A scalar or single-line-array TOML value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Basic string (escapes already resolved).
    Str(String),
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Single-line array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn emit(&self, out: &mut String) {
        match self {
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Array(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    e.emit(out);
                }
                out.push(']');
            }
        }
    }
}

/// One `[header]` or `[[header]]` block with its `key = value` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Dotted header path, e.g. `["link", "impairment"]`.
    pub path: Vec<String>,
    /// `true` for `[[array-of-tables]]` headers.
    pub is_array: bool,
    /// 1-based line of the header (0 for the implicit root section).
    pub line: usize,
    /// Entries in document order: `(key, value, line)`.
    pub entries: Vec<(String, Value, usize)>,
}

impl Section {
    /// Look up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v)
    }

    /// Source line of an entry, for error reporting (header line if absent).
    pub fn line_of(&self, key: &str) -> usize {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, _, l)| *l)
            .unwrap_or(self.line)
    }

    /// Replace the value of `key`, or append the entry if it is missing.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _, _)| k == key) {
            e.1 = value;
        } else {
            self.entries.push((key.to_string(), value, self.line));
        }
    }

    /// Dotted header path as a display string.
    pub fn path_str(&self) -> String {
        self.path.join(".")
    }
}

/// A parsed document: top-level entries plus ordered sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doc {
    /// `key = value` entries that appear before the first section header.
    pub root: Vec<(String, Value, usize)>,
    /// All section blocks in document order.
    pub sections: Vec<Section>,
}

/// Parse failure with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on (0 = whole document).
    pub line: usize,
    /// Actionable description.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for TomlError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        msg: msg.into(),
    })
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Strip a trailing `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a basic string starting at `s[0] == '"'`; returns (value, rest).
fn parse_string(s: &str, line: usize) -> Result<(String, &str), TomlError> {
    debug_assert!(s.starts_with('"'));
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1);
    let mut escaped = false;
    for (i, c) in &mut chars {
        if escaped {
            match c {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => return err(line, format!("unknown string escape `\\{other}`")),
            }
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Ok((out, &s[i + 1..])),
            c => out.push(c),
        }
    }
    err(line, "unterminated string literal (missing closing `\"`)")
}

/// Parse one scalar/array value from a trimmed string; must consume it all.
fn parse_value(s: &str, line: usize) -> Result<Value, TomlError> {
    let s = s.trim();
    if s.is_empty() {
        return err(line, "missing value after `=`");
    }
    if s.starts_with('"') {
        let (v, rest) = parse_string(s, line)?;
        if !rest.trim().is_empty() {
            return err(line, format!("unexpected trailing text `{}`", rest.trim()));
        }
        return Ok(Value::Str(v));
    }
    if s.starts_with('[') {
        if !s.ends_with(']') {
            return err(line, "arrays must open and close on one line: `[a, b, c]`");
        }
        let inner = &s[1..s.len() - 1];
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            // Find the end of the next element: a top-level comma.
            let elem_end = if rest.starts_with('"') {
                let (v, after) = parse_string(rest, line)?;
                items.push(Value::Str(v));
                rest = after.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                    continue;
                } else if rest.is_empty() {
                    break;
                } else {
                    return err(
                        line,
                        format!("expected `,` between array elements, found `{rest}`"),
                    );
                }
            } else {
                rest.find(',').unwrap_or(rest.len())
            };
            let (elem, after) = rest.split_at(elem_end);
            items.push(parse_value(elem, line)?);
            rest = after.strip_prefix(',').unwrap_or(after).trim_start();
        }
        return Ok(Value::Array(items));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits: String = s.chars().filter(|&c| c != '_').collect();
    if let Ok(i) = digits.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if s.contains('.') || s.eq_ignore_ascii_case("inf") || s.eq_ignore_ascii_case("nan") {
        return err(
            line,
            format!(
                "floats are not supported (value `{s}`): use integers or suffixed \
                 strings like \"500ns\" / \"10Gbps\" so results stay bit-deterministic"
            ),
        );
    }
    err(
        line,
        format!("cannot parse value `{s}` (expected string, integer, boolean, or array)"),
    )
}

/// Parse a `[header]` / `[[header]]` dotted path.
fn parse_header(line_text: &str, line: usize) -> Result<(Vec<String>, bool), TomlError> {
    let (inner, is_array) = if let Some(i) = line_text.strip_prefix("[[") {
        match i.strip_suffix("]]") {
            Some(i) => (i, true),
            None => return err(line, "array-of-tables header must end with `]]`"),
        }
    } else {
        let i = line_text.strip_prefix('[').unwrap();
        match i.strip_suffix(']') {
            Some(i) => (i, false),
            None => return err(line, "table header must end with `]`"),
        }
    };
    let mut path = Vec::new();
    for seg in inner.split('.') {
        let seg = seg.trim();
        if !is_bare_key(seg) {
            return err(
                line,
                format!(
                    "invalid header segment `{seg}` (use bare keys: letters, digits, `_`, `-`)"
                ),
            );
        }
        path.push(seg.to_string());
    }
    Ok((path, is_array))
}

impl Doc {
    /// Parse a scenario document.
    pub fn parse(text: &str) -> Result<Doc, TomlError> {
        let mut doc = Doc::default();
        let mut current: Option<Section> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let t = strip_comment(raw).trim();
            if t.is_empty() {
                continue;
            }
            if t.starts_with('[') {
                let (path, is_array) = parse_header(t, line)?;
                if let Some(s) = current.take() {
                    doc.sections.push(s);
                }
                current = Some(Section {
                    path,
                    is_array,
                    line,
                    entries: Vec::new(),
                });
                continue;
            }
            let Some(eq) = t.find('=') else {
                return err(
                    line,
                    format!("expected `key = value` or a `[section]` header, found `{t}`"),
                );
            };
            let key = t[..eq].trim();
            if !is_bare_key(key) {
                return err(
                    line,
                    format!("invalid key `{key}` (use bare keys: letters, digits, `_`, `-`)"),
                );
            }
            let value = parse_value(&t[eq + 1..], line)?;
            let entry = (key.to_string(), value, line);
            match &mut current {
                Some(s) => {
                    if s.entries.iter().any(|(k, _, _)| k == key) {
                        return err(line, format!("duplicate key `{key}` in [{}]", s.path_str()));
                    }
                    s.entries.push(entry);
                }
                None => {
                    if doc.root.iter().any(|(k, _, _)| k == key) {
                        return err(line, format!("duplicate top-level key `{key}`"));
                    }
                    doc.root.push(entry);
                }
            }
        }
        if let Some(s) = current.take() {
            doc.sections.push(s);
        }
        Ok(doc)
    }

    /// Serialize back to TOML text (used to re-emit sweep-modified
    /// scenarios, e.g. as the scenario string shipped to dist workers).
    pub fn to_toml_string(&self) -> String {
        let mut out = String::new();
        for (k, v, _) in &self.root {
            out.push_str(k);
            out.push_str(" = ");
            v.emit(&mut out);
            out.push('\n');
        }
        for s in &self.sections {
            if !out.is_empty() {
                out.push('\n');
            }
            if s.is_array {
                out.push('[');
            }
            out.push('[');
            out.push_str(&s.path_str());
            out.push(']');
            if s.is_array {
                out.push(']');
            }
            out.push('\n');
            for (k, v, _) in &s.entries {
                out.push_str(k);
                out.push_str(" = ");
                v.emit(&mut out);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_in_document_order() {
        let text = r#"
# a scenario
[scenario]
name = "demo"
seed = 42

[[host]]
name = "s0"

[host.app]
type = "iperf_tcp_server"
port = 5000

[[switch]]
name = "sw"

[[host]]
name = "c0"
"#;
        let d = Doc::parse(text).unwrap();
        let paths: Vec<String> = d.sections.iter().map(|s| s.path_str()).collect();
        assert_eq!(paths, ["scenario", "host", "host.app", "switch", "host"]);
        assert_eq!(d.sections[0].get("seed"), Some(&Value::Int(42)));
        assert_eq!(
            d.sections[2].get("type").and_then(|v| v.as_str()),
            Some("iperf_tcp_server")
        );
        assert!(d.sections[1].is_array && d.sections[3].is_array);
        assert!(!d.sections[2].is_array);
    }

    #[test]
    fn value_forms() {
        let d = Doc::parse(
            "a = \"x \\\"y\\\" z\"\nb = -3\nc = 1_000_000\nd = true\ne = [1, 2, 3]\nf = [\"p\", \"q\"]\ng = [] # empty\n",
        )
        .unwrap();
        assert_eq!(d.root[0].1, Value::Str("x \"y\" z".into()));
        assert_eq!(d.root[1].1, Value::Int(-3));
        assert_eq!(d.root[2].1, Value::Int(1_000_000));
        assert_eq!(d.root[3].1, Value::Bool(true));
        assert_eq!(
            d.root[4].1,
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            d.root[5].1,
            Value::Array(vec![Value::Str("p".into()), Value::Str("q".into())])
        );
        assert_eq!(d.root[6].1, Value::Array(vec![]));
    }

    #[test]
    fn errors_carry_line_numbers_and_hints() {
        let e = Doc::parse("x = 1\ny = 2.5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("floats are not supported"), "{}", e.msg);

        let e = Doc::parse("[bad\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = Doc::parse("k = \"unterminated\n").unwrap_err();
        assert!(e.msg.contains("unterminated"), "{}", e.msg);

        let e = Doc::parse("[s]\na = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate"), "{}", e.msg);

        let e = Doc::parse("just a sentence\n").unwrap_err();
        assert!(e.msg.contains("key = value"), "{}", e.msg);
    }

    #[test]
    fn comments_are_stripped_but_not_inside_strings() {
        let d = Doc::parse("a = \"has # hash\" # real comment\nb = 1 # tail\n").unwrap();
        assert_eq!(d.root[0].1, Value::Str("has # hash".into()));
        assert_eq!(d.root[1].1, Value::Int(1));
    }

    #[test]
    fn roundtrip_through_serializer() {
        let text =
            "top = 1\n\n[scenario]\nname = \"x\"\n\n[[host]]\nname = \"h0\"\nports = [1, 2]\n";
        let d = Doc::parse(text).unwrap();
        let out = d.to_toml_string();
        let d2 = Doc::parse(&out).unwrap();
        // Line numbers differ; compare structure.
        assert_eq!(d.root.len(), d2.root.len());
        assert_eq!(d.sections.len(), d2.sections.len());
        for (a, b) in d.sections.iter().zip(&d2.sections) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.is_array, b.is_array);
            let ae: Vec<_> = a.entries.iter().map(|(k, v, _)| (k, v)).collect();
            let be: Vec<_> = b.entries.iter().map(|(k, v, _)| (k, v)).collect();
            assert_eq!(ae, be);
        }
    }
}
