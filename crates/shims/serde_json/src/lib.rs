//! JSON rendering/parsing over the `serde` shim's `Value` data model.

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deepest array/object nesting [`from_str`] accepts (the real
/// serde_json's recursion limit is 128 too). The parser recurses once
/// per level, so input nested past this bound is refused with an error
/// instead of overflowing the thread's stack; nothing this workspace
/// writes nests more than a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parse a JSON string into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_value(&v)
}

fn write_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                let s = f.to_string();
                out.push_str(&s);
            } else {
                // JSON has no NaN/Infinity; serde_json emits null.
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space
                    }
                }
                write_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parse one value enclosed by `depth` arrays/objects.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::custom("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(Error::custom("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self
                .src
                .get(self.pos..)
                .ok_or_else(|| Error::custom("invalid UTF-8"))?;
            // Copy the run of plain characters up to the next quote or
            // backslash in one slice. Both are ASCII, so the run ends on
            // a char boundary, and the input is already valid UTF-8.
            let Some(run) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                return Err(Error::custom("unterminated string"));
            };
            out.push_str(rest.get(..run).unwrap_or_default());
            let closing = rest.as_bytes().get(run) == Some(&b'"');
            self.pos += run + 1;
            if closing {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| Error::custom("bad escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let code = self.hex4()?;
                    // A high surrogate followed by an escaped low one is
                    // one UTF-16 pair; a lone surrogate of either kind
                    // becomes the replacement character.
                    let code = if (0xD800..0xDC00).contains(&code) {
                        self.low_surrogate()?
                            .map(|lo| 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        Some(code)
                    };
                    out.push(code.and_then(char::from_u32).unwrap_or('\u{fffd}'));
                }
                _ => return Err(Error::custom("unknown escape")),
            }
        }
    }

    /// The four hex digits of a `\u` escape, after the `u`. Exactly
    /// four: `from_str_radix` alone would also take a sign.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| Error::custom("bad \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::custom("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| Error::custom("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// After a high surrogate: take a following `\uDC00`–`\uDFFF`
    /// escape and return its code; leave anything else to the string
    /// loop.
    fn low_surrogate(&mut self) -> Result<Option<u32>, Error> {
        if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
            return Ok(None);
        }
        let save = self.pos;
        self.pos += 2;
        let lo = self.hex4()?;
        if (0xDC00..0xE000).contains(&lo) {
            Ok(Some(lo))
        } else {
            self.pos = save;
            Ok(None)
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("bad float `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::custom(format!("bad integer `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-1.5f64).unwrap(), "-1.5");
        assert_eq!(from_str::<f64>("-1.5").unwrap(), -1.5);
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<String>(r#""a\"b\n""#).unwrap(), "a\"b\n");
    }

    #[test]
    fn roundtrip_collections() {
        let v = vec![(1u32, "x".to_string()), (2, "y".to_string())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn u64_extremes_roundtrip() {
        for x in [0u64, u64::MAX, 0xC0FFEE] {
            let json = to_string(&x).unwrap();
            assert_eq!(from_str::<u64>(&json).unwrap(), x);
        }
    }

    #[test]
    fn strings_roundtrip_non_ascii_escapes_and_controls() {
        let cases = [
            "",
            "plain ascii",
            "café — naïve 日本語 🦀",
            "quote \" backslash \\ slash /",
            "tab\tnewline\nreturn\r",
            "controls \u{0}\u{1}\u{8}\u{c}\u{1f} end",
            "🦀\"🦀\\é\n",
        ];
        for s in cases {
            let json = to_string(&s).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s, "{json}");
        }
        // Escapes the writer never emits still decode.
        let parsed: String = from_str(r#""\u00e9\u0041\/\b\f""#).unwrap();
        assert_eq!(parsed, "éA/\u{8}\u{c}");
        let keyed: Vec<(String, u32)> = from_str(r#"[["ключ", 1], ["\u00fcber", 2]]"#).unwrap();
        assert_eq!(
            keyed,
            vec![("ключ".to_string(), 1), ("über".to_string(), 2)]
        );
        for bad in [
            r#""unterminated"#,
            r#""bad \q escape""#,
            r#""\u12""#,
            r#""\u+041""#,
            r#""\é""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_char() {
        let crab: String = from_str(r#""\ud83e\udd80 \uD83E\uDD80""#).unwrap();
        assert_eq!(crab, "🦀 🦀");
        assert_eq!(
            from_str::<String>(&to_string(&crab).unwrap()).unwrap(),
            crab
        );
    }

    #[test]
    fn lone_surrogates_decode_to_replacement_chars() {
        for (json, want) in [
            (r#""\ud83e""#, "\u{fffd}"),
            (r#""\udd80""#, "\u{fffd}"),
            (r#""\ud83e\u0041""#, "\u{fffd}A"),
            (r#""\ud83e\ud83e\udd80""#, "\u{fffd}🦀"),
            (r#""\udd80\ud83e""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83ex""#, "\u{fffd}x"),
        ] {
            let parsed: String = from_str(json).unwrap();
            assert_eq!(parsed, want, "{json}");
            assert_eq!(
                from_str::<String>(&to_string(&parsed).unwrap()).unwrap(),
                want
            );
        }
        assert!(from_str::<String>(r#""\ud83e\udd8""#).is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&objects).is_err());
        // Far past any stack: refused at the bound, never recursed into.
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1i64, 2], vec![3]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<i64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
