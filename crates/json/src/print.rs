//! Deterministic JSON printers.
//!
//! [`Emitter`] is the one home of the compact formats: every number and
//! every string the crate prints, in [`Value`]'s compact and pretty forms
//! alike, goes through its [`Scalar`] formats, so a document written field
//! by field is byte-identical to the printed `Value` of the same shape.
//! [`Indenter`] is the one pretty layout: the pretty form of a `Value` is
//! its compact text laid out, and a document written entry by entry is
//! laid out the same way as it goes.
//!
//! Number output: integers, and integral floats below 1e15, are formatted
//! here without `fmt` (the floats with a trailing `.0`, so they read back
//! as floats); every other finite float uses Rust's shortest-round-trip
//! `f64` formatting, which never writes an exponent. `NaN` and infinities
//! are unrepresentable and rejected upstream by the parser; when printing
//! they map to `null` defensively.

use crate::value::{Number, Value};
use std::fmt::Write as _;

/// Compact JSON written straight into a caller's `String`, with no
/// [`Value`] built on the way.
///
/// The emitter allocates nothing of its own: into a buffer with room to
/// spare, a whole document costs no allocation. It tracks only whether the
/// next key or element needs a comma, so the caller balances every
/// `begin_*` with its `end_*` (or uses [`Emitter::object`]). A caller that
/// has already written an object's opening — `{`, or `{` plus fields and a
/// trailing comma — can emit the remaining fields through a new emitter and
/// close the object itself.
///
/// ```
/// use qre_json::{parse, Emitter, ObjectBuilder};
///
/// let mut out = String::with_capacity(64);
/// Emitter::new(&mut out)
///     .object(|w| {
///         w.field("name", "surface_code")
///             .field("codeDistance", 15u64)
///             .field_opt("cap", None::<u64>)
///             .key("rates")
///             .begin_array()
///             .value(1e-3)
///             .value(4.0)
///             .end_array();
///     });
/// assert_eq!(out, r#"{"name":"surface_code","codeDistance":15,"rates":[0.001,4.0]}"#);
/// let same = ObjectBuilder::new()
///     .field("name", "surface_code")
///     .field("codeDistance", 15u64)
///     .field("rates", vec![1e-3, 4.0])
///     .build();
/// assert_eq!(same.to_string_compact(), out);
/// assert_eq!(parse(&out).unwrap(), same);
/// ```
#[derive(Debug)]
pub struct Emitter<'a> {
    out: &'a mut String,
    /// A value just ended at the current level: the next key or element
    /// needs a comma first.
    comma: bool,
}

impl<'a> Emitter<'a> {
    /// An emitter appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Emitter { out, comma: false }
    }

    #[inline]
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Open an object (a value, or an element of an array).
    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Close the innermost open object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Open an array (a value, or an element of an array).
    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Close the innermost open array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// An object whose fields `fields` emits: [`Emitter::begin_object`],
    /// then `fields`, then [`Emitter::end_object`].
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) -> &mut Self {
        self.begin_object();
        fields(self);
        self.end_object()
    }

    /// The key of the next field of the innermost open object; its value
    /// follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        write_string(key, self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A scalar value (a field's value after [`Emitter::key`], or an
    /// element of an array).
    pub fn value(&mut self, value: impl Scalar) -> &mut Self {
        self.separate();
        value.write(self.out);
        self.comma = true;
        self
    }

    /// `null` (a field's value after [`Emitter::key`], or an element of an
    /// array).
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self.comma = true;
        self
    }

    /// A field with a scalar value.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key).value(value)
    }

    /// A field only when `value` is `Some`, as
    /// [`ObjectBuilder::field_opt`](crate::ObjectBuilder::field_opt) adds
    /// one.
    pub fn field_opt(&mut self, key: &str, value: Option<impl Scalar>) -> &mut Self {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }
}

/// A JSON scalar an [`Emitter`] writes: a number, a string or a bool, in
/// the form [`Value`]'s printers give the matching [`Value`].
pub trait Scalar {
    /// Append the scalar's compact JSON form to `out`.
    fn write(self, out: &mut String);
}

impl Scalar for bool {
    fn write(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

impl Scalar for u64 {
    fn write(self, out: &mut String) {
        write_u64(self, out);
    }
}

impl Scalar for u32 {
    fn write(self, out: &mut String) {
        write_u64(u64::from(self), out);
    }
}

impl Scalar for usize {
    fn write(self, out: &mut String) {
        write_u64(self as u64, out);
    }
}

impl Scalar for i64 {
    fn write(self, out: &mut String) {
        if self < 0 {
            out.push('-');
        }
        write_u64(self.unsigned_abs(), out);
    }
}

impl Scalar for f64 {
    fn write(self, out: &mut String) {
        if !self.is_finite() {
            // JSON cannot represent these; degrade to null rather than
            // emit an invalid document.
            out.push_str("null");
        } else if self == self.trunc() && self.abs() < 1e15 {
            // Small integral floats print with a ".0" so they survive a
            // round-trip as floats (important for duration fields). Below
            // 1e15 the value converts to `u64` exactly; `-0.0` keeps its
            // sign, as `fmt` writes it.
            if self.is_sign_negative() {
                out.push('-');
            }
            write_u64(self.abs() as u64, out);
            out.push_str(".0");
        } else {
            let _ = write!(out, "{self}");
        }
    }
}

impl Scalar for Number {
    fn write(self, out: &mut String) {
        match self {
            Number::UInt(u) => u.write(out),
            Number::Int(i) => i.write(out),
            Number::Float(f) => f.write(out),
        }
    }
}

impl Scalar for &str {
    fn write(self, out: &mut String) {
        write_string(self, out);
    }
}

/// Decimal digits of `u`, through a stack buffer.
fn write_u64(mut u: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// `s` as a JSON string literal. Runs that need no escape are copied
/// whole; only `"`, `\` and the control characters below U+0020 are
/// escaped (the five with a short form use it, the rest `\u00xx`).
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so it is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Compact rendering of `value` through `w`.
pub(crate) fn write_compact(value: &Value, w: &mut Emitter<'_>) {
    match value {
        Value::Null => {
            w.null();
        }
        Value::Bool(b) => {
            w.value(*b);
        }
        Value::Num(n) => {
            w.value(*n);
        }
        Value::Str(s) => {
            w.value(s.as_str());
        }
        Value::Array(items) => {
            w.begin_array();
            for item in items {
                write_compact(item, w);
            }
            w.end_array();
        }
        Value::Object(pairs) => {
            w.begin_object();
            for (k, v) in pairs {
                w.key(k);
                write_compact(v, w);
            }
            w.end_object();
        }
    }
}

/// The pretty layout of compact JSON text (as [`Emitter`] writes it):
/// two-space indentation, one element or field per line, `": "` after each
/// key, and `[]` and `{}` kept whole. [`Value::to_string_pretty`] is this
/// layout. The indenter keeps only its depth and whether it is inside a
/// string, so the text may arrive cut anywhere between characters, and a
/// large document can be written pretty one entry at a time.
///
/// ```
/// let (mut indenter, mut out) = (qre_json::Indenter::default(), String::new());
/// indenter.write(r#"{"a":[1,"#, &mut out);
/// indenter.write(r#"2],"b":{}}"#, &mut out);
/// assert_eq!(out, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}");
/// ```
#[derive(Debug, Default)]
pub struct Indenter {
    depth: usize,
    /// An array or object has just opened: its first element goes on a new
    /// line, unless it closes at once.
    opened: bool,
    in_string: bool,
    /// The previous character was a backslash inside a string.
    escaped: bool,
}

impl Indenter {
    /// Lay out the next piece of compact text, appending it to `out`.
    pub fn write(&mut self, compact: &str, out: &mut String) {
        // Runs between structural characters are copied whole. Every
        // character examined is ASCII, so each cut is a char boundary.
        let mut run = 0;
        for (i, &byte) in compact.as_bytes().iter().enumerate() {
            if self.in_string {
                match byte {
                    _ if self.escaped => self.escaped = false,
                    b'\\' => self.escaped = true,
                    b'"' => self.in_string = false,
                    _ => {}
                }
                continue;
            }
            let close = matches!(byte, b']' | b'}');
            if close {
                self.depth = self.depth.saturating_sub(1);
            }
            // Each element starts a line, and so does each close after its
            // last element; an empty array or object stays on its line.
            if std::mem::take(&mut self.opened) != close {
                out.push_str(&compact[run..i]);
                run = i;
                self.newline(out);
            }
            match byte {
                b'"' => self.in_string = true,
                b'[' | b'{' => {
                    self.depth += 1;
                    self.opened = true;
                }
                b',' => {
                    out.push_str(&compact[run..=i]);
                    run = i + 1;
                    self.newline(out);
                }
                b':' => {
                    out.push_str(&compact[run..=i]);
                    run = i + 1;
                    out.push(' ');
                }
                _ => {}
            }
        }
        out.push_str(&compact[run..]);
    }

    fn newline(&self, out: &mut String) {
        out.push('\n');
        for _ in 0..self.depth {
            out.push_str("  ");
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse, ObjectBuilder, Value};

    #[test]
    fn compact_round_trip() {
        let v = ObjectBuilder::new()
            .field("int", 12u64)
            .field("neg", -5i64)
            .field("float", 0.015625f64)
            .field("sci", 1.12e11f64)
            .field("s", "line\nbreak\t\"quote\"")
            .field("arr", vec![1u64, 2, 3])
            .field("nested", ObjectBuilder::new().field("x", true).build())
            .build();
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_round_trip_and_shape() {
        let v = ObjectBuilder::new()
            .field("a", Vec::<u64>::new())
            .field("b", vec![1u64])
            .build();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\"a\": []"));
        assert!(pretty.contains("\"b\": [\n"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integral_float_keeps_decimal_point() {
        let v: Value = 100.0f64.into();
        assert_eq!(v.to_string_compact(), "100.0");
        // ...and large magnitudes use scientific notation from Rust's fmt.
        let v: Value = 1e300f64.into();
        let s = v.to_string_compact();
        assert_eq!(parse(&s).unwrap().as_f64(), Some(1e300));
    }

    #[test]
    fn non_finite_degrades_to_null() {
        let v: Value = f64::NAN.into();
        assert_eq!(v.to_string_compact(), "null");
        let v: Value = f64::INFINITY.into();
        assert_eq!(v.to_string_compact(), "null");
    }

    #[test]
    fn control_characters_escaped() {
        let v: Value = "\u{0001}\u{001f}".into();
        assert_eq!(v.to_string_compact(), "\"\\u0001\\u001f\"");
        let round = parse(&v.to_string_compact()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn unicode_passes_through() {
        let v: Value = "héllo 😀".into();
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("héllo"));
    }
}
