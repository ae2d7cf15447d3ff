//! JSON text parsing and rendering for the [`Json`](crate::Json) model.

use crate::{Error, Json};

/// Renders a [`Json`] tree as JSON text.
///
/// Matches `serde_json`'s conventions where they matter for round-trips:
/// non-finite floats render as `null`, and integral floats keep a `.0` so
/// they re-parse as floats.
#[must_use]
pub fn render_json(value: &Json, pretty: bool) -> String {
    let mut out = String::new();
    write_value(&mut out, value, pretty, 0);
    out
}

fn write_value(out: &mut String, value: &Json, pretty: bool, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::I64(v) => out.push_str(&v.to_string()),
        Json::U64(v) => out.push_str(&v.to_string()),
        Json::F64(v) => write_f64(out, *v),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            write_seq(
                out,
                pretty,
                depth,
                '[',
                ']',
                items.iter(),
                |out, item, d| {
                    write_value(out, item, pretty, d);
                },
            );
        }
        Json::Obj(entries) => {
            write_seq(
                out,
                pretty,
                depth,
                '{',
                '}',
                entries.iter(),
                |out, (k, v), d| {
                    write_string(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    write_value(out, v, pretty, d);
                },
            );
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    pretty: bool,
    depth: usize,
    open: char,
    close: char,
    items: I,
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        write_item(out, item, depth + 1);
    }
    if pretty && !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e16 {
        out.push_str(&format!("{v:.1}"));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per bracket, so without a cap a line of `[[[[…` from a
/// pipe or socket overflows the stack and aborts the process. Real
/// documents (shard specs, bench reports) nest only a few levels.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Json`] tree, in time linear in its length.
///
/// # Errors
///
/// Returns an error describing the first syntax problem found, or when
/// arrays/objects nest more than 128 levels deep.
pub fn parse_json(input: &str) -> Result<Json, Error> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
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

    fn parse_value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, Error>) -> Result<Json, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.parse_unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                // RFC 8259 admits control characters only escaped.
                Some(0..=0x1f) => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control character in one go. All are ASCII, and
                    // UTF-8 never uses an ASCII byte inside a multi-byte
                    // character, so the run starts and ends on character
                    // boundaries.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // A high surrogate must be followed by a \uXXXX low one.
            if !self.eat_keyword("\\u") {
                return Err(self.error("lone surrogate"));
            }
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("bad surrogate pair"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.error("bad surrogate pair"));
        }
        char::from_u32(hi).ok_or_else(|| self.error("bad unicode escape"))
    }

    /// Four hex digits, exactly: no sign, no other character.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.error("truncated unicode escape"));
        };
        let mut v = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.error("bad unicode escape"))?;
            v = v * 16 + d;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let run = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += run;
        run
    }

    /// RFC 8259's `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`:
    /// no leading zero, and a digit on each side of the point and after
    /// the exponent mark.
    fn parse_number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error("bad number")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("bad number"));
            }
            fractional = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("bad number"));
            }
            fractional = true;
        }
        let s = &self.text[start..self.pos];
        if !fractional {
            if let Ok(v) = s.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = s.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        s.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        assert_eq!(render_json(&Json::F64(1.0), false), "1.0");
        assert_eq!(render_json(&Json::F64(0.75), false), "0.75");
        assert_eq!(render_json(&Json::U64(42), false), "42");
        assert_eq!(render_json(&Json::F64(f64::NAN), false), "null");
        assert_eq!(parse_json("42").unwrap(), Json::U64(42));
        assert_eq!(parse_json("-7").unwrap(), Json::I64(-7));
        assert_eq!(parse_json("0.75").unwrap(), Json::F64(0.75));
        assert_eq!(parse_json("1e3").unwrap(), Json::F64(1000.0));
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Json::Obj(vec![
            ("label".to_string(), Json::Str("PBBF-0.5 \"q\"".to_string())),
            (
                "points".to_string(),
                Json::Arr(vec![Json::F64(0.5), Json::Null, Json::Bool(true)]),
            ),
        ]);
        for pretty in [false, true] {
            let text = render_json(&v, pretty);
            assert_eq!(parse_json(&text).unwrap(), v);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"\\q\"").is_err());
    }

    #[test]
    fn caps_nesting_depth() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(format!("{err:?}").contains("nesting"), "{err:?}");
        // Objects count too, and hostile input far past the cap is an
        // error, not a stack overflow.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_json(&objects).is_err());
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        // Depth is nesting, not count: many siblings at depth 1 are fine.
        let wide = format!("[{}]", vec!["[]"; 10_000].join(","));
        assert!(parse_json(&wide).is_ok());
    }

    #[test]
    fn parses_escapes() {
        assert_eq!(
            parse_json(r#""a\n\u0041\ud83d\ude00""#).unwrap(),
            Json::Str("a\nA😀".to_string())
        );
        assert_eq!(
            parse_json(r#""é\u00e9€\"𝄞\\""#).unwrap(),
            Json::Str("éé€\"𝄞\\".to_string())
        );
        assert_eq!(
            parse_json(r#""\udbff\udfff\uFFFF""#).unwrap(),
            Json::Str("\u{10FFFF}\u{FFFF}".to_string())
        );
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Each character of a string is copied once: a string at the
        // fabric's 1 MiB line cap parses in milliseconds, where
        // re-validating the rest of the input per character took minutes.
        for c in ['a', 'é', '€'] {
            let body = c.to_string().repeat((1 << 20) / c.len_utf8());
            let text = format!("[\"{body}\", \"{body}\\n\"]");
            let Json::Arr(items) = parse_json(&text).unwrap() else {
                panic!("an array");
            };
            assert_eq!(items[0], Json::Str(body.clone()));
            assert_eq!(items[1], Json::Str(body + "\n"));
        }
        assert!(parse_json(&format!("\"{}", "é".repeat(1 << 19))).is_err());
    }

    #[test]
    fn surrogate_escapes_must_pair_high_with_low() {
        for bad in [
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\udbff\ue000""#,
            r#""\ud800\uffff""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\n""#,
            r#""\udc00""#,
            r#""\udfff\ud800""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in r#"01 -01 00 1. 1.e5 - .5 +1 -.5 1e 1e+ 1E- 0x10 [01] {"id":01}"#.split(' ') {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
        assert_eq!(parse_json("0").unwrap(), Json::U64(0));
        assert_eq!(parse_json("-0").unwrap(), Json::I64(0));
        assert_eq!(parse_json("10").unwrap(), Json::U64(10));
        assert_eq!(parse_json("0.5").unwrap(), Json::F64(0.5));
        assert_eq!(parse_json("-0.0e0").unwrap(), Json::F64(-0.0));
        assert_eq!(parse_json("1E+2").unwrap(), Json::F64(100.0));
        assert_eq!(parse_json("25e-1").unwrap(), Json::F64(2.5));
        assert_eq!(
            parse_json("[0,10,-3]").unwrap(),
            Json::Arr(vec![Json::U64(0), Json::U64(10), Json::I64(-3)])
        );
    }

    #[test]
    fn strings_refuse_raw_control_characters() {
        for c in (0u8..0x20).map(char::from) {
            assert!(parse_json(&format!("\"a{c}b\"")).is_err(), "raw {c:?}");
            let escaped = render_json(&Json::Str(format!("a{c}b")), false);
            assert_eq!(parse_json(&escaped).unwrap(), Json::Str(format!("a{c}b")));
        }
        assert_eq!(
            parse_json("\"a\u{7f}b\"").unwrap(),
            Json::Str("a\u{7f}b".to_string())
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            r#""\u0é1""#,
            r#""\u""#,
            r#""\ud800\u+c00""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }
}
