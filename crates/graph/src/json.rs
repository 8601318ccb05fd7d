//! The workspace's one JSON codec: a value tree, a reader and a writer,
//! shared by the plan cache, the tuner's report, every
//! `BENCH_*.json` emitter and the `bench_check` gate (`bconv_bench::check`
//! re-exports [`Json`]).
//!
//! No serde (the workspace builds offline), no options, no streaming: the
//! traffic is small documents this workspace writes itself.
//!
//! * **Value** — [`Json`]: numbers are `f64` (integers are exact below
//!   2⁵³; hashes travel as hex strings), objects are ordered
//!   `Vec<(String, Json)>` pairs with linear lookup.
//! * **Reader** — [`Json::parse`]: strict RFC 8259 grammar, every escape
//!   including `\uXXXX` surrogate pairs, nesting capped at [`MAX_DEPTH`],
//!   numbers that overflow `f64` rejected. Every malformed byte is a
//!   [`JsonError`] carrying its offset — never a panic, never unbounded
//!   recursion.
//! * **Writer** — `Display` (so `to_string()`): one fixed layout. A
//!   container whose children are all scalars prints on one line; any
//!   other prints one child per line, indented two spaces — which is the
//!   "one result row per line" shape of the committed bench files. Strings
//!   escape `"`, `\` and U+0000–U+001F; a non-finite number is written as
//!   `null` (JSON has no token for it, and a reader then reports the field
//!   missing instead of failing on the whole file).
//!
//! `parse(v.to_string()) == v` for every tree of finite numbers no deeper
//! than [`MAX_DEPTH`].
//!
//! Two emitters stay outside this module on purpose. `bconv-analyze`
//! keeps its write-only `render_json`: it must build and run when the
//! crates it lints do not compile, so it cannot depend on them. The repo
//! benchmark (`benchmark/src/json.rs`) is its own workspace, frozen by
//! `BENCHMARK.json`. The module lives here rather than in a crate of its
//! own because `benchmark/Cargo.lock` pins this crate's dependency list.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`Json::parse`] follows. Plan files nest 8
/// deep and bench files 3; a file of 100 000 `[` must be a parse error,
/// not a stack overflow.
pub const MAX_DEPTH: usize = 16;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

/// Why a document is not JSON, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed input, trailing bytes, nesting deeper
    /// than [`MAX_DEPTH`], or a number outside `f64` range.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.error("trailing bytes after the document"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible to values.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A measured quantity rounded to `decimals` places, so timing columns
    /// print as short fixed-precision numbers and files stay diff-friendly.
    pub fn fixed(value: f64, decimals: i32) -> Json {
        let scale = 10f64.powi(decimals);
        Json::Num((value * scale).round() / scale)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, rejecting fractions.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // `u64::MAX as f64` rounds up to 2^64, which a saturating cast
        // would silently accept as `u64::MAX`.
        if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
            return None;
        }
        Some(n as u64)
    }

    /// [`Self::as_u64`], narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Null | Json::Num(_) => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => write_container(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => {
                write_container(f, indent, "{}", pairs.iter().map(|(k, v)| (Some(k.as_str()), v)))
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

/// Integers enter the tree as `f64`: exact below 2⁵³, which every counter
/// this workspace records is.
macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_int!(u8, u64, usize);

/// The one string escape: `"`, `\` and every control character.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if c < '\u{20}' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// The one layout rule: all-scalar children share the container's line,
/// anything else gets one child per line.
fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    brackets: &str,
    children: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    let inline = children.clone().all(|(_, v)| v.is_scalar());
    let (open, close) = brackets.split_at(1);
    f.write_str(open)?;
    for (i, (key, value)) in children.enumerate() {
        match (inline, i) {
            (true, 0) => {}
            (true, _) => f.write_str(", ")?,
            (false, 0) => write!(f, "\n{:1$}", "", indent + 2)?,
            (false, _) => write!(f, ",\n{:1$}", "", indent + 2)?,
        }
        if let Some(key) = key {
            write_string(f, key)?;
            f.write_str(": ")?;
        }
        value.write(f, indent + 2)?;
    }
    if !inline {
        write!(f, "\n{:indent$}", "")?;
    }
    f.write_str(close)
}

/// Recursive-descent reader over the document's bytes. `text` is valid
/// UTF-8 and the reader only ever stops on ASCII bytes, so every slice it
/// takes falls on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError { offset: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses the value at the cursor, itself inside `depth` containers.
    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected byte")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes().get(self.pos..self.pos + lit.len()) != Some(lit.as_bytes()) {
            return Err(self.error("invalid literal"));
        }
        self.pos += lit.len();
        Ok(value)
    }

    /// Consumes a run of ASCII digits, returning its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut well_formed = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.eat(b'.') {
            well_formed &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            well_formed &= self.digits() > 0;
        }
        let invalid = JsonError { offset: start, reason: "invalid number" };
        if !well_formed {
            return Err(invalid);
        }
        let n: f64 = self.text.get(start..self.pos).and_then(|t| t.parse().ok()).ok_or(invalid)?;
        if !n.is_finite() {
            return Err(JsonError { offset: start, reason: "number outside f64 range" });
        }
        Ok(Json::Num(n))
    }

    /// Parses the string whose opening quote is at the cursor.
    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.text.get(run..self.pos).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.parse_escape()?),
                Some(_) => return Err(self.error("raw control byte in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Parses the escape whose backslash is at the cursor.
    fn parse_escape(&mut self) -> Result<char, JsonError> {
        let invalid = self.error("invalid escape");
        self.pos += 1;
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                return self.parse_unicode(invalid.offset);
            }
            _ => return Err(invalid),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// Four hex digits at the cursor.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4)?;
        let mut code = 0u32;
        for &d in digits {
            code = code * 16 + (d as char).to_digit(16)?;
        }
        self.pos += 4;
        Some(code)
    }

    /// The code point of a `\u` escape (cursor past the `u`), joining a
    /// surrogate pair; `at` is the escape's offset for errors.
    fn parse_unicode(&mut self, at: usize) -> Result<char, JsonError> {
        let bad_hex = JsonError { offset: at, reason: "invalid \\u escape" };
        let lone = JsonError { offset: at, reason: "lone surrogate in \\u escape" };
        let hi = self.hex4().ok_or(bad_hex)?;
        if !(0xD800..0xDC00).contains(&hi) {
            // A low surrogate on its own is not a scalar value.
            return char::from_u32(hi).ok_or(lone);
        }
        if !(self.eat(b'\\') && self.eat(b'u')) {
            return Err(lone);
        }
        let lo = self.hex4().ok_or(bad_hex)?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(lone);
        }
        char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)).ok_or(lone)
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected object key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected ':'"));
            }
            pairs.push((key, self.parse_value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_plan_file_shapes() {
        let doc = Json::parse(
            "{\"version\": 1, \"arr\": [[0,16],[16,16]], \"s\": \"a|b\", \"neg\": -1, \
             \"none\": null, \"t\": true}",
        )
        .unwrap();
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None, "negatives are not u64");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a|b"));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        assert_eq!(doc.get("t").and_then(Json::as_bool), Some(true));
        let arr = doc.get("arr").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].as_array().unwrap()[0].as_usize(), Some(16));
    }

    #[test]
    fn reads_a_real_bench_document() {
        let j = Json::parse(
            r#"{
  "bench": "kernels",
  "reps": 30,
  "quick": false,
  "threaded_configs_skipped": true,
  "results": [
    {"name": "direct_t1", "median_us": 1228.8, "speedup_vs_direct_t1": 1.000,
     "output_matches_baseline": true},
    {"name": "gemm_t1", "median_us": 293.5, "negative": -4.2e-1, "nothing": null}
  ]
}"#,
        )
        .unwrap();
        assert_eq!(j.get("bench").and_then(Json::as_str), Some("kernels"));
        assert_eq!(j.get("reps").and_then(Json::as_f64), Some(30.0));
        let results = j.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("nothing"), Some(&Json::Null));
        assert_eq!(results[1].get("negative").and_then(Json::as_f64), Some(-0.42));
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        let bad = [
            "",
            "{",
            "{\"a\":}",
            "[1,",
            "[1,]",
            "{\"a\" 1}",
            "{} trailing",
            "nul",
            "1e999",
            "-1e999",
            "+1",
            ".5",
            "5.",
            "01",
            "-",
            "1e",
            "1e+",
            "0x10",
            "NaN",
            "Infinity",
            "\"open",
            "{\"a\":1,}",
            "[\"\\",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\q\"",
        ];
        for bad in bad {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        for good in ["0", "-0", "10", "1.5", "1e5", "1E-5", "-0.0e+0", " [ ] ", "{ }"] {
            assert!(Json::parse(good).is_ok(), "{good:?} should parse");
        }
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        let err = Json::parse("{\"a\": [1, 2, x]}").unwrap_err();
        assert_eq!(err, JsonError { offset: 13, reason: "unexpected byte" });
        assert_eq!(err.to_string(), "unexpected byte at byte 13");
        assert_eq!(Json::parse("[1] 2").unwrap_err().offset, 4);
        assert_eq!(Json::parse("[1e999]").unwrap_err().offset, 1);
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        // One recursion per `[` used to overflow the stack and abort the
        // process (20 kB sufficed in the cache, 100 kB in `bench_check`).
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert_eq!(err.reason, "nesting too deep", "{err}");
        }
        // A real plan document's depth stays well inside the cap.
        let nested = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&nested).is_ok());
        assert!(Json::parse(&format!("[{nested}]")).is_err());
    }

    #[test]
    fn integers_past_u64_are_rejected_not_saturated() {
        // 2^64 parses to exactly `u64::MAX as f64`; the cast would saturate.
        for big in ["18446744073709551616", "18446744073709551615", "1e300"] {
            let doc = Json::parse(big).unwrap();
            assert_eq!(doc.as_u64(), None, "{big}");
            assert_eq!(doc.as_usize(), None, "{big}");
        }
        // The largest integer below 2^64 an f64 holds still converts.
        assert_eq!(Json::parse("18446744073709549568").unwrap().as_u64(), Some(u64::MAX - 2047));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let j = Json::parse(r#""a\"b\\c\nd\u0041\/\b\f\r\t""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndA/\u{8}\u{c}\r\t"));
        let s = "quote\" slash\\ newline\n tab\t bell\u{7} nul\u{0} esc\u{1b} é 😀";
        let text = Json::object([(s, Json::from(s))]).to_string();
        assert!(text.bytes().all(|b| b >= 0x20), "no raw control byte is written: {text:?}");
        assert!(text.contains("\\u0007") && text.contains("\\u0000") && text.contains("\\u001b"));
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get(s).and_then(Json::as_str), Some(s));
    }

    #[test]
    fn unicode_escapes_join_surrogate_pairs_and_reject_lone_ones() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(Json::parse(r#""\u00e9\uFFFF""#).unwrap().as_str(), Some("é\u{ffff}"));
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83d\u0041""#] {
            let err = Json::parse(lone).unwrap_err();
            assert_eq!(err, JsonError { offset: 1, reason: "lone surrogate in \\u escape" });
        }
        // Raw control bytes inside a string are not JSON.
        for raw in ["\"a\u{1}b\"", "\"a\nb\"", "{\"k\u{0}\": 1}"] {
            assert_eq!(Json::parse(raw).unwrap_err().reason, "raw control byte in string");
        }
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let doc = Json::object([
            ("nan", Json::Num(f64::NAN)),
            ("inf", Json::fixed(f64::INFINITY, 1)),
            ("ok", Json::fixed(1333.94, 1)),
        ]);
        let text = doc.to_string();
        assert_eq!(text, "{\"nan\": null, \"inf\": null, \"ok\": 1333.9}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("ok").and_then(Json::as_f64), Some(1333.9));
    }

    #[test]
    fn layout_is_one_row_per_line() {
        let doc = Json::object([
            ("bench", Json::from("kernels")),
            ("reps", 30usize.into()),
            ("quick", false.into()),
            ("empty", Json::Arr(Vec::new())),
            (
                "results",
                Json::array([
                    Json::object([("name", Json::from("a")), ("min_us", Json::fixed(269.07, 1))]),
                    Json::object([("name", Json::from("b")), ("grid", Json::array([0u8, 16]))]),
                ]),
            ),
        ]);
        let want = "{\n  \"bench\": \"kernels\",\n  \"reps\": 30,\n  \"quick\": false,\n  \
                    \"empty\": [],\n  \"results\": [\n    {\"name\": \"a\", \"min_us\": 269.1},\n    \
                    {\n      \"name\": \"b\",\n      \"grid\": [0, 16]\n    }\n  ]\n}";
        assert_eq!(doc.to_string(), want);
        assert_eq!(Json::parse(want).unwrap(), doc);
        // Integers print without a fraction, fractions in shortest form.
        assert_eq!(
            Json::array([1.0, 0.5, -2.0, 1e21]).to_string(),
            "[1, 0.5, -2, 1000000000000000000000]"
        );
    }
}
