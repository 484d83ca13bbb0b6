//! The JSON decoder against its reference, and its totality.
//!
//! `serde_json::from_str` copies each run of unescaped string bytes in
//! one slice and caps nesting at 128 levels. The reference below is the
//! char-at-a-time decoder it replaced, kept verbatim as the oracle:
//! every document must decode to the same value, or fail with the same
//! message, under both. Raw control characters inside strings are
//! accepted by both; the grammar is not tightened here.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use cais::common::frame::{read_frame, write_frame};
use cais::common::serve::{NoServeMetrics, ServeConfig};
use cais::taxii::{Request, Response, TaxiiServer};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::{Map, Number, Value};

/// The char-at-a-time decoder: for every unescaped string character it
/// re-validates the rest of the input and takes its first char, so it
/// runs in time quadratic in the input. No nesting limit.
mod reference {
    use super::{Map, Number, Value};

    pub fn parse(input: &str) -> Result<Value, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", byte as char, self.pos))
            }
        }

        fn eat_literal(&mut self, word: &str) -> bool {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                true
            } else {
                false
            }
        }

        fn parse_value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => Ok(Value::String(self.parse_string()?)),
                Some(b'[') => self.parse_array(),
                Some(b'{') => self.parse_object(),
                Some(b'-' | b'0'..=b'9') => self.parse_number(),
                _ => Err(format!("unexpected character at byte {}", self.pos)),
            }
        }

        fn parse_array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn parse_object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = Map::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.parse_value()?;
                map.insert(key, value);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn parse_string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
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
                            Some(b'b') => out.push('\u{08}'),
                            Some(b'f') => out.push('\u{0C}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let unit = self.parse_hex4()?;
                                let ch = if (0xD800..0xDC00).contains(&unit) {
                                    if !(self.eat_literal("\\u")) {
                                        return Err("unpaired surrogate".into());
                                    }
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let combined =
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| "invalid surrogate pair".to_owned())?
                                } else {
                                    char::from_u32(unit)
                                        .ok_or_else(|| "invalid \\u escape".to_owned())?
                                };
                                out.push(ch);
                                continue;
                            }
                            _ => return Err("invalid escape sequence".into()),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        let rest = &self.bytes[self.pos..];
                        let text = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                        let ch = text.chars().next().expect("non-empty");
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }

        fn parse_hex4(&mut self) -> Result<u32, String> {
            let end = self.pos + 4;
            if end > self.bytes.len() {
                return Err("truncated \\u escape".into());
            }
            let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
            let unit = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_owned())?;
            self.pos = end;
            Ok(unit)
        }

        fn parse_number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
            if !is_float {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Value::Number(Number::from(v)));
                }
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::Number(Number::from(v)));
                }
            }
            let v: f64 = text
                .parse()
                .map_err(|_| format!("invalid number `{text}`"))?;
            Ok(Value::Number(Number::from(v)))
        }
    }
}

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

/// One piece of a string literal's body: plain and multibyte text, raw
/// control characters, every escape form, and now and then a malformed
/// escape.
fn string_piece(rng: &mut TestRng, out: &mut String) {
    match rng.below(12) {
        0..=3 => {
            for _ in 0..rng.below(12) {
                let c = (0x20 + rng.below(0x5F) as u8) as char;
                if c != '"' && c != '\\' {
                    out.push(c);
                }
            }
        }
        4 => out.push(pick(
            rng,
            &[
                'é',
                'ß',
                'Ω',
                '中',
                '😀',
                '\u{7FF}',
                '\u{800}',
                '\u{FFFF}',
                '\u{10FFFF}',
            ],
        )),
        5 => out.push(char::from(rng.below(0x20) as u8)),
        6 => out.push_str(pick(
            rng,
            &["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"],
        )),
        7 => {
            let unit = rng.below(0xD800) as u32;
            if rng.below(2) == 0 {
                out.push_str(&format!("\\u{unit:04x}"));
            } else {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }
        8 => {
            let high = 0xD800 + rng.below(0x400);
            let low = 0xDC00 + rng.below(0x400);
            out.push_str(&format!("\\u{high:04x}\\u{low:04x}"));
        }
        9 => {
            let unit = 0xE000 + rng.below(0x2000);
            out.push_str(&format!("\\u{unit:04x}"));
        }
        10 => out.push_str("\\u+041"),
        _ => out.push_str(pick(
            rng,
            &[
                "\\ud800",
                "\\ud800x",
                "\\ud800\\u0041",
                "\\udc00",
                "\\u12",
                "\\uzzzz",
                "\\x",
                "\\",
                "\\u00é",
            ],
        )),
    }
}

fn string_literal(rng: &mut TestRng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(6) {
        string_piece(rng, out);
    }
    out.push('"');
}

fn whitespace(rng: &mut TestRng, out: &mut String) {
    if rng.below(4) == 0 {
        out.push_str(pick(rng, &[" ", "\n", "\t ", "\r\n  "]));
    }
}

fn value(rng: &mut TestRng, depth: u32, out: &mut String) {
    whitespace(rng, out);
    let kinds = if depth >= 5 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => out.push_str(pick(rng, &["null", "true", "false", "nul", "tru"])),
        1 => out.push_str(pick(
            rng,
            &[
                "0",
                "-7",
                "42",
                "3.25",
                "-0.5e3",
                "1E-2",
                "18446744073709551615",
                "-9223372036854775808",
                "99999999999999999999",
                "-",
                "1.",
                "2e",
            ],
        )),
        2 | 3 => string_literal(rng, out),
        4 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                value(rng, depth + 1, out);
            }
            whitespace(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                string_literal(rng, out);
                whitespace(rng, out);
                out.push(':');
                value(rng, depth + 1, out);
            }
            whitespace(rng, out);
            out.push('}');
        }
    }
    whitespace(rng, out);
}

/// JSON-ish documents: mostly well formed, some cut short or with a
/// stray character spliced in at a char boundary.
struct JsonText;

impl Strategy for JsonText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut text = String::new();
        value(rng, 0, &mut text);
        let boundaries: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(text.len()))
            .collect();
        let at = pick(rng, &boundaries);
        match rng.below(8) {
            0 => text.truncate(at),
            1 => text.insert(
                at,
                pick(rng, &['"', '\\', ',', ']', '}', '{', ':', 'x', 'é']),
            ),
            _ => {}
        }
        text
    }
}

fn decoded(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

proptest! {
    #[test]
    fn decoder_agrees_with_the_char_at_a_time_reference(text in JsonText) {
        prop_assert_eq!(decoded(&text), reference::parse(&text), "input {:?}", text);
    }

    #[test]
    fn decoder_is_total_over_arbitrary_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        text in JsonText,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        // Pure noise, and a document with a few bytes overwritten (which
        // may break UTF-8 in the middle of a string).
        let _ = serde_json::from_slice::<Value>(&noise);
        let mut bytes = text.into_bytes();
        for (at, byte) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
        }
        let result = serde_json::from_slice::<Value>(&bytes).map_err(|e| e.to_string());
        if let Ok(text) = std::str::from_utf8(&bytes) {
            prop_assert_eq!(result, reference::parse(text), "input {:?}", text);
        } else {
            prop_assert!(result.is_err());
        }
    }
}

#[test]
fn every_escape_form_decodes() {
    let text = "\"a\u{1}\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\\u+041é中\"";
    assert_eq!(decoded(text), reference::parse(text));
    assert_eq!(decoded(text).unwrap(), "a\u{1}\"\\/\u{8}\u{c}\n\r\té😀Aé中");
}

#[test]
fn a_megabyte_string_decodes() {
    // One unescaped run of 1 MiB with multibyte text: the reference
    // would re-validate the remaining input a million times here.
    let body = "abcdefgé中😀".repeat(1 << 16);
    let text = format!("[\"{body}\",\"tail\\n\"]");
    let value: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(value[0], body.as_str());
    assert_eq!(value[1], "tail\n");
}

/// `depth` nested arrays, or objects, around one value.
fn nested(depth: usize, objects: bool) -> String {
    if objects {
        format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth))
    } else {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    }
}

#[test]
fn nesting_is_capped_at_128_on_a_small_stack() {
    let handle = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            for objects in [false, true] {
                let ok = nested(128, objects);
                assert!(serde_json::from_str::<Value>(&ok).is_ok(), "depth 128");
                assert!(serde_json::from_slice::<Value>(ok.as_bytes()).is_ok());
                let deep = nested(129, objects);
                let err = serde_json::from_str::<Value>(&deep).unwrap_err();
                assert!(err.to_string().contains("recursion limit"), "{err}");
            }
            // Mixed nesting counts arrays and objects alike.
            let mixed = format!("{}0{}", "[{\"k\":".repeat(64), "}]".repeat(64));
            assert!(serde_json::from_str::<Value>(&mixed).is_ok());
            let mixed = format!("[{mixed}]");
            assert!(serde_json::from_str::<Value>(&mixed).is_err());
            // A megabyte of `[` fails fast instead of overflowing.
            let flood = vec![b'['; 1 << 20];
            assert!(serde_json::from_slice::<Value>(&flood).is_err());
        })
        .expect("spawn small-stack thread");
    handle
        .join()
        .expect("decoder stayed within a 256 KiB stack");
}

#[test]
fn a_live_taxii_server_rejects_a_megabyte_of_brackets_and_keeps_serving() {
    let server = TaxiiServer::new("depth probe");
    let handle = server
        .serve_on_core("127.0.0.1:0", ServeConfig::default(), NoServeMetrics)
        .expect("bind");
    let connect = || {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream
    };
    let request = |stream: &mut TcpStream, body: &[u8]| -> Response {
        write_frame(stream, body).expect("write");
        stream.flush().expect("flush");
        serde_json::from_slice(&read_frame(stream).expect("read")).expect("decode")
    };
    let discovery = serde_json::to_vec(&Request::Discovery).unwrap();

    let mut stream = connect();
    let flood = vec![b'['; 1 << 20];
    match request(&mut stream, &flood) {
        Response::Error { message } => assert!(message.contains("malformed"), "{message}"),
        other => panic!("expected an error response, got {other:?}"),
    }
    // The same connection, and a new one, are still served.
    assert!(matches!(
        request(&mut stream, &discovery),
        Response::Discovery { .. }
    ));
    assert!(matches!(
        request(&mut connect(), &discovery),
        Response::Discovery { .. }
    ));
    handle.shutdown();
}
