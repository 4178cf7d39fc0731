//! A minimal JSON parser for run-journal records.
//!
//! The workspace vendors no serde, so the resume path parses the
//! journal's own output with a small recursive-descent parser. It
//! accepts the full JSON value grammar (objects, arrays, strings
//! with escapes, numbers, booleans, null) and is tolerant by
//! construction at the line level: [`parse_object`] returns `None`
//! on anything malformed, and the journal reader simply skips such
//! lines (a crash can corrupt at most the quarantined torn tail —
//! see `qsm_obs::journal`).

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// A string literal, unescaped.
    Str(String),
    /// Any JSON number (journal integers are exact up to 2^53).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of values.
    Arr(Vec<Json>),
    /// An object, in source order (journal records have few keys, so
    /// linear lookup beats a map).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer.
    pub(crate) fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a vector of strings (an all-string array).
    pub(crate) fn as_str_vec(&self) -> Option<Vec<String>> {
        match self {
            Json::Arr(items) => items.iter().map(|v| v.as_str().map(str::to_string)).collect(),
            _ => None,
        }
    }
}

/// Arrays and objects nested deeper than this are rejected: a level is
/// a native stack frame, and journal records nest 2 deep.
const MAX_DEPTH: usize = 64;

/// Parse one journal line as a JSON object. `None` on malformed or
/// trailing input, or nesting past [`MAX_DEPTH`].
pub(crate) fn parse_object(line: &str) -> Option<Json> {
    let mut p = Parser { chars: line.chars().collect(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    (p.pos == p.chars.len() && matches!(v, Json::Obj(_))).then_some(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> Option<()> {
        (self.bump()? == c).then_some(())
    }

    fn literal(&mut self, word: &str, v: Json) -> Option<Json> {
        for c in word.chars() {
            self.eat(c)?;
        }
        Some(v)
    }

    /// A value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            '"' => self.string().map(Json::Str),
            '{' if depth < MAX_DEPTH => self.object(depth + 1),
            '[' if depth < MAX_DEPTH => self.array(depth + 1),
            't' => self.literal("true", Json::Bool(true)),
            'f' => self.literal("false", Json::Bool(false)),
            'n' => self.literal("null", Json::Null),
            '-' | '0'..='9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self, depth: usize) -> Option<Json> {
        self.eat('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Some(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(':')?;
            let val = self.value(depth)?;
            members.push((key, val));
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Some(Json::Obj(members)),
                _ => return None,
            }
        }
    }

    fn array(&mut self, depth: usize) -> Option<Json> {
        self.eat('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Some(Json::Arr(items)),
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Some(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.bump()?.to_digit(16)?;
                        }
                        // The journal writer only escapes BMP control
                        // characters; an unpaired surrogate from a
                        // foreign writer degrades to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse().ok().map(Json::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_journal_record() {
        let line = r#"{"v":1,"kind":"sweep_point","figure":"fig1","p":16,"fast":true,
                       "duration_ms":12.345,"result":["1.0","-0.0","x\"y"],"err":null}"#;
        let rec = parse_object(line).expect("record should parse");
        assert_eq!(rec.get("v").unwrap().as_usize(), Some(1));
        assert_eq!(rec.get("kind").unwrap().as_str(), Some("sweep_point"));
        assert_eq!(rec.get("fast"), Some(&Json::Bool(true)));
        assert_eq!(rec.get("duration_ms"), Some(&Json::Num(12.345)));
        assert_eq!(rec.get("err"), Some(&Json::Null));
        assert_eq!(
            rec.get("result").unwrap().as_str_vec(),
            Some(vec!["1.0".into(), "-0.0".into(), "x\"y".into()])
        );
        assert_eq!(rec.get("missing"), None);
    }

    #[test]
    fn roundtrips_every_json_escape() {
        let line = r#"{"s":"a\"b\\c\/d\n\r\t\u0001é"}"#;
        let rec = parse_object(line).unwrap();
        assert_eq!(rec.get("s").unwrap().as_str(), Some("a\"b\\c/d\n\r\t\u{1}\u{e9}"));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a":1} trailing"#,
            r#"{"a":01x}"#,
            r#"[1,2,3]"#, // not an object
            r#"{"a":"unterminated}"#,
        ] {
            assert_eq!(parse_object(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_with_integer_exactness() {
        let rec = parse_object(r#"{"i":9007199254740992,"neg":-3,"f":1.5e3,"frac":0.5}"#).unwrap();
        assert_eq!(rec.get("i").unwrap().as_usize(), Some(1 << 53));
        assert_eq!(rec.get("neg").unwrap().as_usize(), None);
        assert_eq!(rec.get("f").unwrap().as_usize(), Some(1500));
        assert_eq!(rec.get("frac").unwrap().as_usize(), None);
    }

    #[test]
    fn nested_structures_parse() {
        let rec = parse_object(r#"{"a":[{"b":[true,false,null]},[]],"c":{}}"#).unwrap();
        let a = rec.get("a").unwrap();
        match a {
            Json::Arr(items) => assert_eq!(items.len(), 2),
            _ => panic!("a should be an array"),
        }
        assert_eq!(rec.get("c"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // A million open brackets once aborted the process.
        assert_eq!(parse_object(&format!(r#"{{"a":{}"#, "[".repeat(1_000_000))), None);
        let nested = |levels: usize| {
            format!(r#"{{"a":{}{}}}"#, "[".repeat(levels - 1), "]".repeat(levels - 1))
        };
        assert!(parse_object(&nested(MAX_DEPTH)).is_some());
        assert_eq!(parse_object(&nested(MAX_DEPTH + 1)), None);
    }

    #[test]
    fn arbitrary_bytes_give_an_object_or_none() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let record = br#"{"v":1,"kind":"sweep_point","p":16,"result":["1.0","x\"y"],"err":null}"#;
        let alphabet = br#"{}[]":,.-+eE0123456789tfnrul\ u"#;
        let mut rng = SmallRng::seed_from_u64(0x15_0A);
        for _ in 0..20_000 {
            let mut bytes = Vec::new();
            if rng.gen_bool(0.5) {
                // Text from JSON's own alphabet, with the odd stray byte.
                for _ in 0..rng.gen_range(0..200) {
                    let stray = rng.gen_bool(0.05);
                    bytes.push(if stray {
                        rng.gen()
                    } else {
                        alphabet[rng.gen_range(0..alphabet.len())]
                    });
                }
            } else {
                // A journal record with a few bytes overwritten, cut or doubled.
                bytes.extend_from_slice(record);
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..bytes.len());
                    match rng.gen_range(0..3) {
                        0 => bytes[at] = rng.gen(),
                        1 => bytes.truncate(at.max(1)),
                        _ => bytes.insert(at, bytes[at]),
                    }
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            let parsed = parse_object(&line);
            assert!(parsed.is_none_or(|v| matches!(v, Json::Obj(_))), "{line:?}");
        }
    }
}
