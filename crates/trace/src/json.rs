//! JSON reader for the documents this crate writes — the one a `/trace`
//! client pays for on every chunk it tails, and the self-check the tests
//! and `report trace` run on every export (CI runs `jq empty` on the
//! same artifact).
//!
//! [`parse`] validates a whole document in one pass, without recursion,
//! and records it as a flat *tape*: one fixed-size node per value and per
//! object key, in document order. A scalar's node is a byte range into
//! the source; a container's node carries its child count and the tape
//! index one past its last descendant, so stepping over a member that is
//! not the one asked for is O(1) however much it holds. The tape is the
//! only allocation.
//!
//! Nothing is copied out of the input. Strings stay borrowed from it and
//! are decoded only when read through [`Value::as_str`], and only if they
//! hold an escape; numbers are checked against the RFC 8259 grammar while
//! parsing (no leading zeros, digits after `.` and after the exponent
//! marker) and converted on [`Value::as_f64`]. A `\u` surrogate pair
//! decodes to its one scalar, a lone surrogate to U+FFFD.
//!
//! Containers nested deeper than [`MAX_DEPTH`] are an error, so hostile
//! nesting costs a fixed-size stack of open containers, not the thread's.

use std::borrow::Cow;
use std::fmt;

/// Deepest container nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Why a document was refused, and the byte offset where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    pub at: usize,
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    True,
    False,
    /// `lo..hi` is the number's text.
    Num,
    /// `lo..hi` is the text between the quotes; `StrEsc` holds an escape.
    Str,
    StrEsc,
    /// `lo` counts items (members for an object), `hi` is the tape index
    /// one past the last descendant. An object's members are a key node
    /// (`Str` / `StrEsc`) followed by the value's nodes.
    Arr,
    Obj,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    lo: u32,
    hi: u32,
}

/// A parsed document: the source text and its tape.
#[derive(Debug)]
pub struct Doc<'a> {
    src: &'a str,
    tape: Vec<Node>,
}

impl<'a> Doc<'a> {
    /// The document's top-level value.
    pub fn root(&self) -> Value<'_> {
        Value {
            src: self.src,
            tape: &self.tape,
            at: 0,
        }
    }

    /// Member `key` of a top-level object; see [`Value::get`].
    pub fn get(&self, key: &str) -> Option<Value<'_>> {
        self.root().get(key)
    }
}

/// One value of a [`Doc`].
#[derive(Debug, Clone, Copy)]
pub struct Value<'d> {
    src: &'d str,
    tape: &'d [Node],
    at: usize,
}

impl<'d> Value<'d> {
    fn node(self) -> Node {
        self.tape[self.at]
    }

    fn text(self) -> &'d str {
        let Node { lo, hi, .. } = self.node();
        &self.src[lo as usize..hi as usize]
    }

    /// The value's direct children: an array's items, or an object's
    /// keys and values in turn. Empty for a scalar.
    fn children(self) -> Items<'d> {
        let n = self.node();
        Items {
            next: Value {
                at: self.at + 1,
                ..self
            },
            left: match n.kind {
                Kind::Arr => n.lo as usize,
                Kind::Obj => 2 * n.lo as usize,
                _ => 0,
            },
        }
    }

    /// Member lookup for objects (the first member named `key`); `None`
    /// otherwise.
    pub fn get(self, key: &str) -> Option<Value<'d>> {
        if self.node().kind != Kind::Obj {
            return None;
        }
        let mut members = self.children();
        while let (Some(k), Some(v)) = (members.next(), members.next()) {
            if k.as_str().as_deref() == Some(key) {
                return Some(v);
            }
        }
        None
    }

    pub fn as_f64(self) -> Option<f64> {
        match self.node().kind {
            // Every number the grammar admits is one `f64::from_str` reads.
            Kind::Num => self.text().parse().ok(),
            _ => None,
        }
    }

    /// A string's text: borrowed from the input unless it holds an escape.
    pub fn as_str(self) -> Option<Cow<'d, str>> {
        match self.node().kind {
            Kind::Str => Some(Cow::Borrowed(self.text())),
            Kind::StrEsc => Some(Cow::Owned(unescape(self.text()))),
            _ => None,
        }
    }

    /// An array's items, in order.
    pub fn as_arr(self) -> Option<Items<'d>> {
        (self.node().kind == Kind::Arr).then(|| self.children())
    }
}

/// Iterator over an array's items; `len()` is the number left.
#[derive(Debug, Clone)]
pub struct Items<'d> {
    next: Value<'d>,
    left: usize,
}

impl<'d> Iterator for Items<'d> {
    type Item = Value<'d>;

    fn next(&mut self) -> Option<Value<'d>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = self.next;
        let n = item.node();
        self.next.at = match n.kind {
            Kind::Arr | Kind::Obj => n.hi as usize,
            _ => item.at + 1,
        };
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// Decode the escapes of a string body [`parse`] has validated.
fn unescape(raw: &str) -> String {
    let hex4 = |s: &str| u32::from_str_radix(&s[..4], 16).expect("validated by parse");
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let esc = rest.as_bytes()[i + 1];
        rest = &rest[i + 2..];
        out.push(match esc {
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = hex4(rest);
                rest = &rest[4..];
                if (0xd800..0xdc00).contains(&code) && rest.starts_with("\\u") {
                    let low = hex4(&rest[2..]);
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        rest = &rest[6..];
                    }
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            // `"`, `\` and `/` stand for themselves.
            other => other as char,
        });
    }
    out.push_str(rest);
    out
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// The string whose opening quote is at `start`, as a node; returns the
/// offset past its closing quote. The input is a `str`, so multibyte
/// sequences are already well formed.
fn string(b: &[u8], tape: &mut Vec<Node>, start: usize) -> Result<usize, ParseError> {
    let (mut i, mut kind) = (start + 1, Kind::Str);
    loop {
        match b.get(i) {
            Some(b'"') => {
                push(tape, kind, start + 1, i);
                return Ok(i + 1);
            }
            Some(b'\\') => {
                kind = Kind::StrEsc;
                i += match b.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 2,
                    Some(b'u')
                        if b.len() >= i + 6
                            && b[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit) =>
                    {
                        6
                    }
                    _ => return err(i, "invalid escape"),
                };
            }
            Some(0..=0x1f) => return err(i, "unescaped control character"),
            Some(_) => i += 1,
            None => return err(i, "unterminated string"),
        }
    }
}

/// Scan a number from `start` (a `-` or a digit); returns the offset past it.
fn number(b: &[u8], start: usize) -> Result<usize, ParseError> {
    let digits = |mut i: usize| {
        let from = i;
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
        if i == from {
            err(i, "expected a digit")
        } else {
            Ok(i)
        }
    };
    let mut i = start + usize::from(b[start] == b'-');
    i = match b.get(i) {
        Some(b'0') => i + 1,
        _ => digits(i)?,
    };
    if b.get(i) == Some(&b'.') {
        i = digits(i + 1)?;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits(i)?;
    }
    Ok(i)
}

fn err<T>(at: usize, what: &'static str) -> Result<T, ParseError> {
    Err(ParseError { at, what })
}

fn push(tape: &mut Vec<Node>, kind: Kind, lo: usize, hi: usize) {
    // `parse` has checked that every offset fits.
    tape.push(Node {
        kind,
        lo: lo as u32,
        hi: hi as u32,
    });
}

/// An object key at `i`, through its colon; returns the offset of the
/// member's value.
fn key(b: &[u8], tape: &mut Vec<Node>, i: usize) -> Result<usize, ParseError> {
    if b.get(i) != Some(&b'"') {
        return err(i, "expected a member name");
    }
    let colon = skip_ws(b, string(b, tape, i)?);
    if b.get(colon) != Some(&b':') {
        return err(colon, "expected ':'");
    }
    Ok(skip_ws(b, colon + 1))
}

/// Parse a complete JSON document; trailing whitespace only.
pub fn parse(src: &str) -> Result<Doc<'_>, ParseError> {
    let b = src.as_bytes();
    if u32::try_from(b.len()).is_err() {
        return err(0, "document larger than 4 GiB");
    }
    // The Chrome rows this crate writes come to just under six bytes a
    // node; a denser document grows the tape.
    let mut tape: Vec<Node> = Vec::with_capacity(b.len() / 5 + 4);
    // Tape indices of the containers still open, outermost first.
    let mut open = [0usize; MAX_DEPTH];
    let mut depth = 0;

    let mut i = skip_ws(b, 0);
    'value: loop {
        match b.get(i) {
            Some(&c @ (b'[' | b'{')) => {
                if depth == MAX_DEPTH {
                    return err(i, "nested too deep");
                }
                let (kind, close) = if c == b'[' {
                    (Kind::Arr, b']')
                } else {
                    (Kind::Obj, b'}')
                };
                let at = tape.len();
                push(&mut tape, kind, 0, 0);
                i = skip_ws(b, i + 1);
                if b.get(i) != Some(&close) {
                    open[depth] = at;
                    depth += 1;
                    if kind == Kind::Obj {
                        i = key(b, &mut tape, i)?;
                    }
                    continue 'value;
                }
                i += 1;
                tape[at].hi = tape.len() as u32;
            }
            Some(b'"') => i = string(b, &mut tape, i)?,
            Some(b'-' | b'0'..=b'9') => {
                let end = number(b, i)?;
                push(&mut tape, Kind::Num, i, end);
                i = end;
            }
            Some(&c) => {
                let (kind, word) = match c {
                    b't' => (Kind::True, "true"),
                    b'f' => (Kind::False, "false"),
                    b'n' => (Kind::Null, "null"),
                    _ => return err(i, "expected a value"),
                };
                if !b[i..].starts_with(word.as_bytes()) {
                    return err(i, "invalid literal");
                }
                push(&mut tape, kind, 0, 0);
                i += word.len();
            }
            None => return err(i, "unexpected end of input"),
        }
        // A value just ended: it is one more child of the innermost open
        // container, which a `,` continues and a bracket closes (making
        // the container itself the value that just ended).
        while depth > 0 {
            let top = open[depth - 1];
            tape[top].lo += 1;
            i = skip_ws(b, i);
            match (b.get(i), tape[top].kind) {
                (Some(b','), Kind::Arr) => {
                    i = skip_ws(b, i + 1);
                    continue 'value;
                }
                (Some(b','), _) => {
                    i = key(b, &mut tape, skip_ws(b, i + 1))?;
                    continue 'value;
                }
                (Some(b']'), Kind::Arr) | (Some(b'}'), Kind::Obj) => {
                    i += 1;
                    tape[top].hi = tape.len() as u32;
                    depth -= 1;
                }
                (_, Kind::Arr) => return err(i, "expected ',' or ']'"),
                _ => return err(i, "expected ',' or '}'"),
            }
        }
        break;
    }
    i = skip_ws(b, i);
    if i != b.len() {
        return err(i, "trailing data");
    }
    Ok(Doc { src, tape })
}

/// The recursive tree parser this module used to be, kept as the
/// differential reference for the tape: the same grammar, written the
/// other way round (owned values, one call frame per container).
#[cfg(test)]
mod reference {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Result<u8, String> {
            let b = self.peek().ok_or("unexpected end of input")?;
            self.pos += 1;
            Ok(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            let got = self.bump()?;
            if got != b {
                return Err(format!("expected '{}' at byte {}", b as char, self.pos - 1));
            }
            Ok(())
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Json, String> {
            match self.peek().ok_or("unexpected end of input")? {
                b'{' | b'[' if depth == super::MAX_DEPTH => Err("nested too deep".into()),
                b'{' => self.object(depth + 1),
                b'[' => self.array(depth + 1),
                b'"' => Ok(Json::Str(self.string()?)),
                b't' => self.literal("true", Json::Bool(true)),
                b'f' => self.literal("false", Json::Bool(false)),
                b'n' => self.literal("null", Json::Null),
                b'-' | b'0'..=b'9' => self.number(),
                other => Err(format!(
                    "unexpected '{}' at byte {}",
                    other as char, self.pos
                )),
            }
        }

        fn object(&mut self, depth: usize) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value(depth)?;
                members.push((key, val));
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b'}' => return Ok(Json::Obj(members)),
                    _ => return Err("expected ',' or '}'".into()),
                }
            }
        }

        fn array(&mut self, depth: usize) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth)?);
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b']' => return Ok(Json::Arr(items)),
                    _ => return Err("expected ',' or ']'".into()),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let mut code = 0;
            for _ in 0..4 {
                let d = self.bump()?;
                code = code * 16 + (d as char).to_digit(16).ok_or("invalid \\u escape")?;
            }
            Ok(code)
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump()? {
                    b'"' => return Ok(out),
                    b'\\' => match self.bump()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate takes the low one that follows it.
                            let after = self.pos;
                            if code >> 10 == 0x36 && self.bytes[after..].starts_with(b"\\u") {
                                self.pos += 2;
                                match self.hex4() {
                                    Ok(low) if low >> 10 == 0x37 => {
                                        code = 0x10000 + ((code & 0x3ff) << 10 | (low & 0x3ff));
                                    }
                                    _ => self.pos = after,
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    },
                    b if b < 0x20 => return Err("unescaped control character".into()),
                    b => {
                        // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                        let start = self.pos - 1;
                        self.pos = start + utf8_len(b);
                        let s = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        out.push_str(s);
                    }
                }
            }
        }

        /// Take every byte a number could be made of, then check the
        /// pieces: `-? int frac? exp?`.
        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while matches!(
                self.peek(),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
            let unsigned = text.strip_prefix('-').unwrap_or(text);
            let (mantissa, exp) = match unsigned.find(['e', 'E']) {
                Some(i) => (&unsigned[..i], Some(&unsigned[i + 1..])),
                None => (unsigned, None),
            };
            let (int, frac) = match mantissa.split_once('.') {
                Some((int, frac)) => (int, Some(frac)),
                None => (mantissa, None),
            };
            let ok = all_digits(int)
                && (int == "0" || !int.starts_with('0'))
                && frac.is_none_or(all_digits)
                && exp.is_none_or(|e| all_digits(e.strip_prefix(['+', '-']).unwrap_or(e)));
            if !ok {
                return Err(format!("bad number '{text}'"));
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Json;
    use super::*;
    use crate::Recorder;
    use des::rng::Rng;

    fn str_of(doc: &str) -> String {
        let doc = parse(doc).unwrap();
        doc.root().as_str().expect("a string").into_owned()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap().root().node().kind, Kind::Null);
        assert_eq!(parse(" true ").unwrap().root().node().kind, Kind::True);
        assert_eq!(parse("-12.5e2").unwrap().root().as_f64(), Some(-1250.0));
        assert_eq!(str_of("\"a\\nb\""), "a\nb");
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":[1,{"b":"x->y"},null],"c":{}, "a":2}"#).unwrap();
        let mut arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        let second = arr.nth(1).unwrap();
        assert_eq!(second.get("b").unwrap().as_str().as_deref(), Some("x->y"));
        assert_eq!(arr.len(), 1);
        let c = doc.get("c").unwrap();
        assert_eq!((c.node().kind, c.node().lo), (Kind::Obj, 0));
        assert!(c.get("a").is_none() && c.as_arr().is_none() && c.as_f64().is_none());
        assert!(doc.get("b").is_none(), "members of a nested object");
        assert!(doc.root().as_arr().is_none());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let doc = parse(r#"["plain µs","a\tb"]"#).unwrap();
        let items: Vec<_> = doc.root().as_arr().unwrap().map(Value::as_str).collect();
        assert!(matches!(items[0], Some(Cow::Borrowed("plain µs"))));
        assert!(matches!(&items[1], Some(Cow::Owned(s)) if s == "a\tb"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "[,1]",
            "{,}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{1:1}",
            "\"unterminated",
            "{} extra",
            "01x",
            "[1 2]",
            "[1}",
            "{\"a\":1]",
            "tru",
            "nul",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\u12\"",
            "\"a\u{1}b\"",
            "\"\\",
        ] {
            assert!(parse(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for doc in [
            "01", "-01.50", "1.", "1.e3", ".5", "-", "-.5", "1e", "1e+", "+1", "0x10", "1.5.2",
            "--1",
        ] {
            assert!(parse(doc).is_err(), "accepted {doc:?}");
            assert!(parse(&format!("[{doc}]")).is_err(), "accepted [{doc}]");
        }
        for (doc, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-0.5", -0.5),
            ("0.0", 0.0),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("25e-1", 2.5),
            ("0e0", 0.0),
            ("18446744073709551615", u64::MAX as f64),
            ("1e999", f64::INFINITY),
        ] {
            let got = parse(doc).unwrap().root().as_f64().unwrap();
            assert_eq!(got.to_bits(), f64::to_bits(want), "{doc}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_multibyte() {
        assert_eq!(str_of("\"\\u0041\""), "A");
        assert_eq!(str_of("\"µs\""), "µs");
        assert_eq!(str_of(r#""\"\\\/\b\f\n\r\t""#), "\"\\/\u{8}\u{c}\n\r\t");
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_read_as_fffd() {
        assert_eq!(str_of(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(str_of(r#""\uD83D\uDE00!""#), "\u{1f600}!");
        assert_eq!(str_of(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(str_of(r#""\ude00""#), "\u{fffd}");
        assert_eq!(str_of(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(str_of(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(str_of(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        // A key is compared decoded.
        let doc = parse(r#"{"\ud83d\ude00":1}"#).unwrap();
        assert_eq!(doc.get("\u{1f600}").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", MAX_DEPTH - 1).replace(":}", ":{}}")).is_ok());
        let err = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.at, err.what), (MAX_DEPTH, "nested too deep"));
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
        // Breadth is not depth.
        assert!(parse(&format!("[{}[]]", "[[]],".repeat(1_000))).is_ok());
    }

    /// The tape against the reference tree, at every path.
    fn assert_same(v: Value<'_>, want: &Json, path: &str) {
        let kind = v.node().kind;
        match want {
            Json::Null => assert_eq!(kind, Kind::Null, "{path}"),
            Json::Bool(b) => assert_eq!(kind, if *b { Kind::True } else { Kind::False }, "{path}"),
            Json::Num(n) => assert_eq!(v.as_f64().map(f64::to_bits), Some(n.to_bits()), "{path}"),
            Json::Str(s) => assert_eq!(v.as_str().as_deref(), Some(s.as_str()), "{path}"),
            Json::Arr(items) => {
                let got = v.as_arr().unwrap_or_else(|| panic!("{path}: not an array"));
                assert_eq!(got.len(), items.len(), "{path}");
                for (i, (got, want)) in got.zip(items).enumerate() {
                    assert_same(got, want, &format!("{path}[{i}]"));
                }
            }
            Json::Obj(members) => {
                assert_eq!(kind, Kind::Obj, "{path}");
                let mut got = v.children();
                assert_eq!(got.len(), 2 * members.len(), "{path}");
                for (key, want) in members {
                    let path = format!("{path}.{key}");
                    assert_eq!(got.next().unwrap().as_str().as_deref(), Some(key.as_str()));
                    assert_same(got.next().unwrap(), want, &path);
                    // Lookup by name finds the first member of that name.
                    let first = &members.iter().find(|(k, _)| k == key).unwrap().1;
                    assert_same(v.get(key).unwrap(), first, &path);
                }
            }
        }
    }

    /// Same accept / reject decision; on accept, the same document.
    fn differential(doc: &str) -> bool {
        match (parse(doc), reference::parse(doc)) {
            (Ok(tape), Ok(tree)) => {
                assert_same(tape.root(), &tree, "$");
                true
            }
            (Err(_), Err(_)) => false,
            (tape, tree) => panic!("{doc:?}: tape {tape:?}, reference {tree:?}"),
        }
    }

    const NUMBERS: &[&str] = &[
        "0",
        "-0",
        "7",
        "12",
        "-7.25",
        "0.5",
        "1e3",
        "2.5E-3",
        "1e+2",
        "123456789012345678901",
        "1e400",
        "-1E-400",
        "3.000",
        "0e0",
        // Refused: leading zeros, a bare point or exponent, stray signs.
        "01",
        "-01.50",
        "1.",
        "1.e3",
        ".5",
        "-",
        "1e",
        "1e-",
        "+1",
        "00",
        "1-2",
        "1.2.3",
        "1ee3",
    ];
    const STR_PIECES: &[&str] = &[
        "a",
        "node 7",
        "send->1",
        " ",
        "µs",
        "日本",
        "😀",
        "/",
        "}",
        "[",
        ",",
        ":",
        "\\n",
        "\\t",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\r",
        "\\u0041",
        "\\u00e9",
        "\\u0000",
        "\\ud83d\\ude00",
        "\\uD83D\\uDE00",
        "\\ud83d",
        "\\ude00",
        "\\ud83d\\u0041",
        "\\ude00\\ud83d",
        // Refused: unknown escapes, short or non-hex \u, a raw control byte.
        "\\x",
        "\\u12g4",
        "\\u12",
        "\\U0041",
        "\u{1}",
        "\n",
    ];
    const KEYS: &[&str] = &["a", "b", "ph", "name", "k\\n", "\\u0061", "µ", ""];
    const WS: &[&str] = &["", "", "", " ", "\n", "\t", "\r\n", "  "];
    const STRAY: &[&str] = &[",", ":", "]", "}", "[", "{", "\"", "x", "nul", "tru", "-"];

    /// A document from the grammar, with a refused piece or a structural
    /// slip now and then.
    fn gen_value(rng: &mut Rng, depth: usize, out: &mut String) {
        out.push_str(rng.choose::<&str>(WS));
        if rng.chance(0.01) {
            out.push_str(rng.choose::<&str>(STRAY));
        }
        let scalar_only = depth >= 6;
        match rng.below(if scalar_only { 6 } else { 10 }) {
            0 => out.push_str(rng.choose::<&str>(&["null", "true", "false"])),
            1 | 2 => {
                // The refused numbers are the pool's tail; draw them less often.
                let pool = if rng.chance(0.97) {
                    &NUMBERS[..14]
                } else {
                    NUMBERS
                };
                out.push_str(rng.choose::<&str>(pool));
            }
            3..=5 => gen_string(rng, STR_PIECES, out),
            6 | 7 => {
                out.push('[');
                for i in 0..rng.below(5) {
                    if i > 0 && !rng.chance(0.005) {
                        out.push(',');
                    }
                    gen_value(rng, depth + 1, out);
                }
                out.push_str(rng.choose::<&str>(WS));
                out.push_str(if rng.chance(0.995) { "]" } else { "}" });
            }
            _ => {
                out.push('{');
                for i in 0..rng.below(5) {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(rng.choose::<&str>(WS));
                    gen_string(rng, KEYS, out);
                    out.push_str(rng.choose::<&str>(WS));
                    if !rng.chance(0.005) {
                        out.push(':');
                    }
                    gen_value(rng, depth + 1, out);
                }
                out.push_str(rng.choose::<&str>(WS));
                out.push('}');
            }
        }
        out.push_str(rng.choose::<&str>(WS));
    }

    fn gen_string(rng: &mut Rng, pieces: &[&str], out: &mut String) {
        out.push('"');
        for _ in 0..rng.below(4) {
            // The refused pieces are the pool's tail; draw them less often.
            let pool = if rng.chance(0.98) {
                &pieces[..pieces.len().min(29)]
            } else {
                pieces
            };
            out.push_str(rng.choose::<&str>(pool));
        }
        out.push('"');
    }

    #[test]
    fn generated_documents_read_as_the_reference_reads_them() {
        let mut rng = Rng::new(1992);
        let (mut accepted, mut doc) = (0, String::new());
        for _ in 0..10_000 {
            doc.clear();
            gen_value(&mut rng, 0, &mut doc);
            accepted += usize::from(differential(&doc));
        }
        assert!(
            (8_000..9_800).contains(&accepted),
            "{accepted} of 10,000 accepted: the generator leans one way"
        );
    }

    #[test]
    fn mutated_trace_chunks_read_as_the_reference_reads_them() {
        let rec = crate::StreamRecorder::with_ring(8, 8);
        let t = rec.track("mesh nodes", "node \"0\"");
        let u = rec.track("mesh links", "link µ\\1");
        for i in 0..12u64 {
            rec.span(t, "compute", "dgemm\n", i * 1_000, i * 1_000 + 250);
            rec.counter(u, "occupancy", i * 1_500, i as f64 / 4.0);
            rec.instant(u, "fault", "crash\u{1}", i * 999);
        }
        rec.flush_ring();
        let (body, _) = rec.trace_chunk(0, usize::MAX);
        assert!(differential(&body), "the chunk itself is valid");

        const BYTES: &[u8] = b"\"\\,:[]{}0123.eE-+ utn\n\x01";
        let mut rng = Rng::new(1992);
        let mut accepted = 0;
        for _ in 0..5_000 {
            let mut doc = body.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                // Only ASCII is touched, so the text stays UTF-8.
                let at = rng.below(doc.len() as u64) as usize;
                if !doc[at].is_ascii() {
                    continue;
                }
                match rng.below(4) {
                    0 => doc[at] = *rng.choose(BYTES),
                    1 => doc.insert(at, *rng.choose(BYTES)),
                    2 => drop(doc.remove(at)),
                    _ => doc.truncate(at),
                }
            }
            let doc = String::from_utf8(doc).expect("ASCII edits");
            accepted += usize::from(differential(&doc));
        }
        assert!(
            (500..2_500).contains(&accepted),
            "{accepted} of 5,000 mutants accepted"
        );
    }
}
