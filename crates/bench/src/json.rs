//! The harness's one JSON reader and string escaper, shared by the
//! checkpoint and the bench records.
//!
//! The workspace builds offline, without serde, so this is a hand-rolled
//! subset of JSON: objects, arrays, strings and numbers — no `true`,
//! `false` or `null`, which no writer here emits. An integer token stays an
//! exact `u64`, because checkpoint counters and `f64` bit patterns need all
//! 64 bits; a token with a sign, fraction or exponent is read as an `f64`.

/// One parsed JSON value.
#[derive(Debug)]
pub(crate) enum Json {
    /// An integer token without sign, fraction or exponent that fits `u64`.
    Int(u64),
    /// Any other number token.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in file order; a lookup takes the first of a repeated name.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as exactly one value, surrounding whitespace allowed;
    /// `None` on any malformation, trailing garbage included.
    pub(crate) fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(value)
    }

    /// The value of an integer token.
    pub(crate) fn num(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of any number token.
    pub(crate) fn float(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// An object's field by name.
    pub(crate) fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Appends `value` as a quoted JSON string: `"` and `\` escaped, the
/// common control characters as short escapes, the rest as `\u00XX`.
pub(crate) fn push_string(s: &mut String, value: &str) {
    s.push('"');
    for ch in value.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let ch = rest.chars().next()?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"-+.eE".contains(b))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        // A plain digit run too large for `u64` falls through to `f64`, so
        // `num` rejects it rather than wrapping.
        if token.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = token.parse() {
                return Some(Json::Int(n));
            }
        }
        token.parse().ok().map(Json::Float)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_stay_exact_and_fractions_parse() {
        let v =
            Json::parse(r#"{"bits":18446744073709551615,"ms":10.734186999999999,"neg":-2.5e-3}"#)
                .expect("parses");
        assert_eq!(v.field("bits").and_then(Json::num), Some(u64::MAX));
        assert_eq!(
            v.field("ms").and_then(Json::float),
            Some(10.734186999999999)
        );
        assert_eq!(v.field("ms").and_then(Json::num), None, "not an integer");
        assert_eq!(v.field("neg").and_then(Json::float), Some(-2.5e-3));
        // One past u64::MAX is no longer an exact integer.
        let big = Json::parse("18446744073709551616").expect("parses");
        assert_eq!(big.num(), None);
        for bad in [
            "", "1.2.3", "-", "[1,]", "{\"a\":1", "\"open", "[1] x", "true",
        ] {
            assert!(Json::parse(bad).is_none(), "accepted {bad:?}");
        }
    }
}
