//! Minimal JSON formatting and validation for the benchmark's report lines.
//!
//! `upecbench` prints its report and result lines through the object
//! builder below — stable field order, so runs diff readably — and checks
//! them with the validating parser before printing; the trace test uses
//! the same parser on every JSONL line the `obs` file sink writes.

use std::fmt::Write as _;

/// Returns `value` JSON-escaped (no surrounding quotes). Delegates to the
/// telemetry crate's escaper so bench output and trace output agree on the
/// wire format.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    obs::json_escape_into(&mut out, value);
    out
}

/// Builder for a single-line JSON object in the bench house style:
/// `{"key": value, "key2": value2}` with fields emitted in insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, name: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push('"');
        obs::json_escape_into(&mut self.body, name);
        self.body.push_str("\": ");
        &mut self.body
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(mut self, name: &str, value: u64) -> Self {
        let _ = write!(self.key(name), "{value}");
        self
    }

    /// Adds a `usize` field.
    pub fn field_usize(self, name: &str, value: usize) -> Self {
        self.field_u64(name, value as u64)
    }

    /// Adds a float field rendered with a fixed number of decimals.
    pub fn field_f64(mut self, name: &str, value: f64, decimals: usize) -> Self {
        let _ = write!(self.key(name), "{value:.decimals$}");
        self
    }

    /// Adds a string field (escaped and quoted).
    pub fn field_str(mut self, name: &str, value: &str) -> Self {
        let body = self.key(name);
        body.push('"');
        obs::json_escape_into(body, value);
        body.push('"');
        self
    }

    /// Adds a field whose value is already-rendered JSON (a nested object
    /// or array).
    pub fn field_raw(mut self, name: &str, value: &str) -> Self {
        self.key(name).push_str(value);
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Validates that `input` is one complete JSON value (with optional
/// surrounding whitespace). Returns a description of the first syntax error.
///
/// This is a validator, not a parser: it builds no value tree, which keeps
/// it dependency-free and fast enough to run over every line of a trace.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", byte as char, *pos))
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(bytes, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at byte {}", *pos)),
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control character at byte {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| -> bool {
        let before = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > before
    };
    if !digits(bytes, pos) {
        return Err(format!("malformed number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    Ok(())
}

fn literal(bytes: &[u8], pos: &mut usize, expected: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + expected.len() && &bytes[*pos..*pos + expected.len()] == expected {
        *pos += expected.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_matches_house_style() {
        let obj = JsonObject::new()
            .field_str("id", "orc")
            .field_u64("k", 2)
            .field_f64("solve_seconds", 1.2345, 3)
            .field_raw("nested", "{\"a\": 1}")
            .finish();
        assert_eq!(
            obj,
            "{\"id\": \"orc\", \"k\": 2, \"solve_seconds\": 1.234, \"nested\": {\"a\": 1}}"
        );
        validate(&obj).expect("builder output parses");
    }

    #[test]
    fn escape_handles_special_characters() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn validator_accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            "\"a\\u0041\"",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": \"x\"}",
            " { \"spaced\" : 1 } ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\": 1,}",
            "[1 2]",
            "01e",
            "{\"a\": 1} extra",
            "\"unterminated",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn escape_round_trips_control_and_unicode_characters() {
        // Control characters must come out as escapes the validator accepts
        // again — a raw control byte inside a string is invalid JSON.
        let hostile = "tab\there\nnewline\r\x08\x0c\x00\x1f and \"quotes\" \\ end";
        let escaped = escape(hostile);
        assert!(
            !escaped.bytes().any(|b| b < 0x20),
            "raw control byte leaked"
        );
        validate(&format!("\"{escaped}\"")).expect("escaped string parses");
        // Non-ASCII passes through unescaped (JSON strings are UTF-8).
        let unicode = "μarch ∀k≤5 → P-alert 🔒";
        validate(&format!("\"{}\"", escape(unicode))).expect("unicode parses");
        assert_eq!(escape(unicode), unicode);
    }

    #[test]
    fn builder_escapes_hostile_keys_and_values() {
        let obj = JsonObject::new()
            .field_str("new\nline", "value with \"quotes\"")
            .field_str("", "")
            .finish();
        validate(&obj).expect("hostile keys/values parse");
        assert_eq!(
            obj,
            "{\"new\\nline\": \"value with \\\"quotes\\\"\", \"\": \"\"}"
        );
    }

    #[test]
    fn builder_handles_empty_and_deeply_nested_raw_fields() {
        assert_eq!(JsonObject::new().finish(), "{}");
        validate(&JsonObject::new().finish()).expect("empty object parses");
        let inner = JsonObject::new().field_u64("depth", 3).finish();
        let middle = JsonObject::new()
            .field_raw("inner", &inner)
            .field_raw("list", "[{}, [], [[1, 2], {\"a\": []}]]")
            .finish();
        let outer = JsonObject::new().field_raw("middle", &middle).finish();
        validate(&outer).expect("nested builder output parses");
        assert!(outer.contains("\"depth\": 3"));
    }

    #[test]
    fn large_u64_values_survive_formatting_and_validation() {
        // u64::MAX exceeds an f64's integer range; the formatter must print
        // full precision and the validator must accept all 20 digits.
        let obj = JsonObject::new()
            .field_u64("max", u64::MAX)
            .field_usize("big", usize::MAX)
            .finish();
        validate(&obj).expect("large integers parse");
        assert!(obj.contains("\"max\": 18446744073709551615"));
    }

    #[test]
    fn validator_rejects_structural_edge_cases() {
        for bad in [
            "{\"a\" 1}",              // missing colon
            "{1: 2}",                 // non-string key
            "[,]",                    // empty slot
            "\"raw \u{0} control\"",  // unescaped control character
            "\"bad \\u12zz escape\"", // malformed \u escape
            "1.",                     // digitless fraction
            "- 1",                    // spaced minus
            "{\"a\": {\"b\": [1, }}", // mismatched close
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn validator_accepts_real_trace_lines() {
        let span = obs::SpanRecord {
            id: 3,
            parent: None,
            name: "upec.check_bound",
            start_ns: 17,
            duration_ns: 9000,
            attrs: vec![
                ("verdict", obs::AttrValue::Str("proven".to_string())),
                ("window", obs::AttrValue::U64(2)),
            ],
        };
        validate(&obs::span_to_jsonl(&span)).expect("span line parses");
        let counter = obs::CounterRecord {
            span: Some(3),
            name: "propagations",
            value: 12,
        };
        validate(&obs::counter_to_jsonl(&counter)).expect("counter line parses");
    }
}
