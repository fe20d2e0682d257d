//! The workspace's one JSON module: a value type, an escaping writer and
//! a small recursive-descent parser.
//!
//! The workspace is deliberately serde-free. The diagnostics report,
//! the Chrome trace export, the weight report and the daemon protocol
//! all escape strings through [`escape_into`]; the daemon also parses
//! with [`parse`], and the `BENCH_*.json` records are written with
//! [`Json::render_pretty`]. Only what those need: no comments, no
//! trailing commas, numbers as `f64`.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order (the protocol
/// never relies on it, but rendering stays stable for tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text. Non-finite numbers render
    /// as `null` (JSON has no inf/NaN).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Renders the value as indented JSON text: one array element or
    /// object field per line, two spaces per level, so a committed file
    /// diffs one field at a time. Parses back to the same value as
    /// [`render`](Json::render).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// `depth` is `None` for compact output, else the current indent level.
    fn render_into(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => quote_into(s, out),
            Json::Arr(items) => {
                render_seq(out, ('[', ']'), items.iter().map(|v| (None, v)), depth);
            }
            Json::Obj(pairs) => {
                let fields = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                render_seq(out, ('{', '}'), fields, depth);
            }
        }
    }
}

/// Renders an array (no keys) or an object (every item keyed) between
/// `brackets`: compact when `depth` is `None`, else indented below level
/// `depth`.
fn render_seq<'a>(
    out: &mut String,
    brackets: (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    depth: Option<usize>,
) {
    let empty = items.len() == 0;
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    };
    out.push(brackets.0);
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = depth {
            newline(out, d + 1);
        }
        if let Some(k) = key {
            quote_into(k, out);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        v.render_into(out, depth.map(|d| d + 1));
    }
    if let (Some(d), false) = (depth, empty) {
        newline(out, d);
    }
    out.push(brackets.1);
}

// Counts and sizes convert to `Num`; integers above 2^53 round.
macro_rules! json_num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_num_from!(f64, u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn quote_into(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Escapes `s` for use inside a JSON string literal (quotes, backslash,
/// control characters), without the surrounding quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// [`escape`], appending to `out`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Parses one JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let v = value_at(&chars, &mut i)?;
    skip_ws(&chars, &mut i);
    if i != chars.len() {
        return Err(format!("trailing garbage at offset {i}"));
    }
    Ok(v)
}

fn skip_ws(c: &[char], i: &mut usize) {
    while *i < c.len() && c[*i].is_whitespace() {
        *i += 1;
    }
}

fn value_at(c: &[char], i: &mut usize) -> Result<Json, String> {
    skip_ws(c, i);
    match c.get(*i) {
        Some('[') => {
            *i += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(c, i);
                if c.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    if c.get(*i) != Some(&',') {
                        return Err(format!("expected , at offset {i}"));
                    }
                    *i += 1;
                }
                items.push(value_at(c, i)?);
            }
        }
        Some('{') => {
            *i += 1;
            let mut pairs = Vec::new();
            loop {
                skip_ws(c, i);
                if c.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(Json::Obj(pairs));
                }
                if !pairs.is_empty() {
                    if c.get(*i) != Some(&',') {
                        return Err(format!("expected , at offset {i}"));
                    }
                    *i += 1;
                    skip_ws(c, i);
                }
                let Json::Str(key) = value_at(c, i)? else {
                    return Err(format!("expected string key at offset {i}"));
                };
                skip_ws(c, i);
                if c.get(*i) != Some(&':') {
                    return Err(format!("expected : at offset {i}"));
                }
                *i += 1;
                pairs.push((key, value_at(c, i)?));
            }
        }
        Some('"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match c.get(*i) {
                    None => return Err("unterminated string".into()),
                    Some('"') => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    Some('\\') => {
                        *i += 1;
                        match c.get(*i) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('n') => s.push('\n'),
                            Some('r') => s.push('\r'),
                            Some('t') => s.push('\t'),
                            Some('b') => s.push('\u{8}'),
                            Some('f') => s.push('\u{c}'),
                            Some('u') => {
                                if *i + 4 >= c.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex: String = c[*i + 1..*i + 5].iter().collect();
                                let n = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(n).ok_or("bad \\u codepoint")?);
                                *i += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *i += 1;
                    }
                    Some(&ch) => {
                        s.push(ch);
                        *i += 1;
                    }
                }
            }
        }
        Some('t') if c[*i..].starts_with(&['t', 'r', 'u', 'e']) => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if c[*i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if c[*i..].starts_with(&['n', 'u', 'l', 'l']) => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < c.len() && (c[*i].is_ascii_digit() || "+-.eE".contains(c[*i])) {
                *i += 1;
            }
            let s: String = c[start..*i].iter().collect();
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {s:?} at offset {start}"))
        }
        None => Err("empty input".into()),
    }
}
