//! The workspace's one JSON reader.
//!
//! Two inputs arrive as JSON: the experiment service's `POST /jobs` spec (a
//! flat object of strings, unsigned integers, booleans and arrays of
//! strings) and result tables written by [`crate::table::Table::to_json`]
//! (manifests, `BENCH_*.json` baselines), which
//! [`crate::table::Table::from_json`] reads back through this parser. It
//! covers exactly that value grammar (objects, arrays, strings with the
//! standard escapes, unsigned decimal integers, `true`/`false`/`null`) and
//! rejects everything else with a positioned error. Output encoding is
//! [`crate::table::json_string`] — nothing needs a general-purpose emitter.

/// A parsed JSON value (the subset this reader accepts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned decimal integer. Floats and negative numbers are
    /// rejected — no field of a job spec needs them, and refusing keeps
    /// seeds exact (a seed routed through `f64` would silently lose bits).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON value (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Looks a key up in an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest accepted container nesting. A job spec needs two levels and a
/// table three; the cap exists because the parser recurses per `[`/`{`, and
/// an adversarial body of 100k brackets (well under the request-size limit)
/// would otherwise overflow the handler thread's stack and abort the whole
/// resident server.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn try_consume(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => self.uint(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') => Err(format!(
                "negative numbers are not accepted (byte {})",
                self.pos
            )),
            _ => Err(format!("expected a JSON value at byte {}", self.pos)),
        }
    }

    /// Runs a container parser one nesting level deeper, enforcing the
    /// recursion cap.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn uint(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if let Some(b'.' | b'e' | b'E') = self.bytes.get(self.pos) {
            return Err(format!(
                "only unsigned integers are accepted (byte {start})"
            ));
        }
        // The slice holds only ASCII digits, so UTF-8 re-validation cannot
        // fail; routed through the error path anyway — the parser never
        // panics on request bytes.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("malformed number at byte {start}"))?
            .parse()
            .map(Json::UInt)
            .map_err(|_| format!("integer out of range at byte {start}"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.try_consume(b'}') {
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.consume(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            if !self.try_consume(b',') {
                self.consume(b'}')?;
                return Ok(Json::Object(fields));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.try_consume(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            if !self.try_consume(b',') {
                self.consume(b']')?;
                return Ok(Json::Array(items));
            }
        }
    }

    /// Reads the four hex digits of one `\u` escape (cursor already past
    /// the `\u`) and advances over them.
    fn hex_unit(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or("truncated \\u escape")?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape \"{hex}\""))?;
        self.pos += 4;
        Ok(unit)
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_owned());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let escape = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex_unit()?;
                            let code = match unit {
                                // High surrogate: JSON encodes non-BMP
                                // characters as a \uD800-\uDBFF,
                                // \uDC00-\uDFFF pair.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(format!(
                                            "unpaired high surrogate \\u{unit:04x}"
                                        ));
                                    }
                                    self.pos += 2;
                                    let low = self.hex_unit()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(format!(
                                            "high surrogate \\u{unit:04x} not followed by a \
                                             low surrogate"
                                        ));
                                    }
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!("unpaired low surrogate \\u{unit:04x}"));
                                }
                                code => code,
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", char::from(other)));
                        }
                    }
                }
                _ => {
                    // O(1) per character: the input arrived as `&str`, so
                    // slicing at the cursor (always a char boundary) is
                    // valid by construction. Re-validating the whole
                    // remainder per character would make one long string
                    // O(n²) — a cheap CPU-exhaustion vector against the
                    // resident server.
                    let Some(c) = self.text[self.pos..].chars().next() else {
                        return Err("unterminated string".to_owned());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_spec_shape() {
        let json = Json::parse(
            "{\"scenarios\": [\"table*\", \"fig6\"], \"scale\": \"quick\", \
             \"seed\": 2022, \"threads\": 4}",
        )
        .unwrap();
        assert_eq!(json.get("scale").and_then(Json::as_str), Some("quick"));
        assert_eq!(json.get("seed").and_then(Json::as_u64), Some(2022));
        assert_eq!(json.get("threads").and_then(Json::as_u64), Some(4));
        let patterns: Vec<&str> = json
            .get("scenarios")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(patterns, ["table*", "fig6"]);
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".to_owned())
        );
        assert_eq!(
            Json::parse("\"\\b\\f\\/\"").unwrap(),
            Json::Str("\u{8}\u{c}/".to_owned())
        );
        // Non-BMP characters arrive as UTF-16 surrogate pairs.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_owned())
        );
        assert!(Json::parse("\"\\ud83d\"")
            .unwrap_err()
            .contains("surrogate"));
        assert!(Json::parse("\"\\ud83dx\"")
            .unwrap_err()
            .contains("surrogate"));
        assert!(Json::parse("\"\\ude00\"")
            .unwrap_err()
            .contains("surrogate"));
        assert!(Json::parse("\"\\ud83d\\u0041\"")
            .unwrap_err()
            .contains("surrogate"));
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(Vec::new()));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(Vec::new()));
    }

    #[test]
    fn rejects_what_a_seed_cannot_survive() {
        // Floats and negatives would corrupt a u64 seed — refuse loudly.
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("1e9").is_err());
        assert!(Json::parse("18446744073709551616").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A request-limit-sized string must parse promptly (the quadratic
        // re-validation this guards against took tens of seconds here).
        let long = format!("\"{}ünïcödé{}\"", "x".repeat(100_000), "y".repeat(100_000));
        let parsed = Json::parse(&long).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some(long.len() - 2));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // An adversarial body of brackets must come back as Err, never
        // recurse the handler thread's stack into an abort.
        let deep_arrays = "[".repeat(100_000);
        assert!(Json::parse(&deep_arrays).unwrap_err().contains("nesting"));
        let deep_objects = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_objects).unwrap_err().contains("nesting"));
        // The cap still admits far more nesting than any job spec uses.
        let fine = format!("{}1{}", "[".repeat(30), "]".repeat(30));
        assert!(Json::parse(&fine).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(33), "]".repeat(33));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{\"a\":1} junk").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let json = Json::parse("{\"a\": 1}").unwrap();
        assert!(json.get("missing").is_none());
        assert!(json.get("a").unwrap().as_str().is_none());
        assert!(json.as_u64().is_none());
        assert!(Json::UInt(1).get("a").is_none());
        assert!(Json::Null.as_array().is_none());
    }
}
