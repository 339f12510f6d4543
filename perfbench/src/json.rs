//! A small JSON value, writer and parser (no registry access, so no serde).
//! Objects keep insertion order, so written files are stable run to run.

use std::fmt::{self, Write};

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Multi-line rendering with two-space indentation (for files people
    /// read, such as `BENCHMARK.json`); `Display` is the one-line form.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true, 0).expect("writing to a String");
        out.push('\n');
        out
    }

    fn write(&self, out: &mut impl Write, pretty: bool, depth: usize) -> fmt::Result {
        let nested = |v: &Value| matches!(v, Value::Arr(_) | Value::Obj(_));
        let (open, close, len, multiline) = match self {
            Value::Null => return out.write_str("null"),
            Value::Bool(b) => return write!(out, "{b}"),
            // Display prints the shortest digits that read back to the same
            // f64, never an exponent: every measured digit survives.
            Value::Num(n) if n.is_finite() => return write!(out, "{n}"),
            Value::Num(_) => return out.write_str("null"),
            Value::Str(s) => return write_str(out, s),
            // Containers of scalars stay on one line even when pretty.
            Value::Arr(items) => ('[', ']', items.len(), pretty && items.iter().any(nested)),
            Value::Obj(fields) => (
                '{',
                '}',
                fields.len(),
                pretty && fields.iter().any(|(_, v)| nested(v)),
            ),
        };
        out.write_char(open)?;
        for i in 0..len {
            if i > 0 {
                out.write_str(if pretty && !multiline { ", " } else { "," })?;
            }
            if multiline {
                write!(out, "\n{:width$}", "", width = 2 * (depth + 1))?;
            }
            match self {
                Value::Arr(items) => items[i].write(out, pretty, depth + 1)?,
                Value::Obj(fields) => {
                    write_str(out, &fields[i].0)?;
                    out.write_str(if pretty { ": " } else { ":" })?;
                    fields[i].1.write(out, pretty, depth + 1)?;
                }
                _ => unreachable!("scalars returned above"),
            }
        }
        if multiline {
            write!(out, "\n{:width$}", "", width = 2 * depth)?;
        }
        out.write_char(close)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, false, 0)
    }
}

fn write_str(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            '\r' => out.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Shorthand for the `{"value": v, "unit": u}` record metrics are printed as.
pub fn metric(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b']')?;
                        return Ok(Value::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b'}')?;
                        return Ok(Value::Obj(fields));
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let esc = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_both_renderings() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("a \"quoted\"\nline".into())),
            ("n".into(), Value::Num(1.2034)),
            ("tiny".into(), Value::Num(2.5e-9)),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "list".into(),
                Value::Arr(vec![metric(3.0, "ms"), Value::Arr(vec![])]),
            ),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert!(!v.to_string().contains('\n'));
    }

    #[test]
    fn keeps_every_digit_of_a_measurement() {
        let x = 0.123_456_789_012_345_68_f64;
        let text = Value::Num(x).to_string();
        assert_eq!(parse(&text).unwrap().as_f64(), Some(x));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "\"open", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
