//! Property-based tests: print∘parse identity over arbitrary documents, the
//! printer's byte equality with the per-`char`, `fmt`-based reference
//! printer it replaced, and the [`Indenter`]'s with the recursive pretty
//! printer it replaced.

use crate::{parse, Emitter, Indenter, Number, Value};
use proptest::prelude::*;
use std::fmt::Write as _;

/// The reference printers: the compact printer as it was before strings
/// were copied in runs and numbers formatted without `fmt`, and the
/// recursive pretty printer as it was before the [`Indenter`] laid out
/// compact text. Test-only; the laws below hold the current printers to
/// their bytes.
mod reference {
    use super::*;

    pub fn compact(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => number(*n, out),
            Value::Str(s) => string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    compact(item, out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    compact(v, out);
                }
                out.push('}');
            }
        }
    }

    pub fn number(n: Number, out: &mut String) {
        match n {
            Number::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Number::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Number::Float(f) => {
                if !f.is_finite() {
                    out.push_str("null");
                    return;
                }
                if f == f.trunc() && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            }
        }
    }

    pub fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{0008}' => out.push_str("\\b"),
                '\u{000C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    pub fn render(value: &Value) -> String {
        let mut out = String::new();
        compact(value, &mut out);
        out
    }

    pub fn pretty(value: &Value, indent: usize, out: &mut String) {
        match value {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(indent + 1, out);
                    pretty(item, indent + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(indent, out);
                out.push(']');
            }
            Value::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    push_indent(indent + 1, out);
                    string(k, out);
                    out.push_str(": ");
                    pretty(v, indent + 1, out);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(indent, out);
                out.push('}');
            }
            other => compact(other, out),
        }
    }

    fn push_indent(level: usize, out: &mut String) {
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

/// Strings heavy in what the printer escapes: every control character,
/// quotes, backslashes, DEL and U+2028, between ASCII and multi-byte text.
fn arb_escapable() -> impl Strategy<Value = String> {
    prop_oneof![
        "[\u{0}-\u{1f}\"\\a-z \u{7f}\u{e9}\u{2028}\u{1f600}]{0,32}",
        "\\PC{0,6}[\u{0}-\u{1f}\"\\]{0,3}\\PC{0,6}[\"\\]{0,2}",
    ]
}

/// Floats around every branch of the number format: integral ones on both
/// sides of 1e15 and of 2^53, signed zeros, subnormals, and every bit
/// pattern.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-2e15f64..2e15).prop_map(f64::trunc),
        (-4e15f64..4e15).prop_map(f64::trunc),
        (-1e300f64..1e300).prop_map(f64::trunc),
        any::<i64>().prop_map(|i| i as f64),
        -1e6f64..1e6,
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1e15),
            Just(-1e15),
            Just(1e15 - 1.0),
            Just(-(1e15 - 1.0)),
            Just(1e15 + 2.0),
            Just(9_007_199_254_740_992.0),
            Just(-9_007_199_254_740_992.0),
            Just(9_007_199_254_740_991.0),
            Just(9_007_199_254_740_994.0),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
            Just(f64::MIN),
        ],
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|bits| -f64::from_bits(bits)),
        any::<f64>(),
    ]
}

/// Strategy generating arbitrary JSON values of bounded depth/size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|u| Value::Num(Number::UInt(u))),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        // Finite floats only; non-finite are not representable in JSON.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(|f| Value::Num(Number::Float(f))),
        "[ -~]{0,24}".prop_map(Value::Str), // printable ASCII
        "\\PC{0,8}".prop_map(Value::Str),   // arbitrary printable unicode
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| { Value::Object(m.into_iter().collect()) }),
        ]
    })
}

/// Numbers compare equal through a round trip even when the integer/float
/// representation changes (e.g. a `u64` above 2^53 may come back as float).
fn approx_same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => match (x, y) {
            (Number::UInt(u), Number::UInt(v)) => u == v,
            (Number::Int(u), Number::Int(v)) => u == v,
            _ => x.as_f64() == y.as_f64() || (x.as_f64().is_nan() && y.as_f64().is_nan()),
        },
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| approx_same(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && approx_same(va, vb))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strings: the run-copying printer writes the reference's bytes,
    /// through `Value` and through the emitter alike.
    #[test]
    fn strings_print_as_the_reference(s in arb_escapable()) {
        let want = reference::render(&Value::Str(s.clone()));
        prop_assert_eq!(Value::Str(s.clone()).to_string_compact(), want.clone());
        let mut emitted = String::new();
        Emitter::new(&mut emitted).value(s.as_str());
        prop_assert_eq!(emitted, want);
    }

    /// Numbers: the `fmt`-free integer and integral-float formats write
    /// the reference's bytes.
    #[test]
    fn numbers_print_as_the_reference(
        f in arb_float(),
        u in prop_oneof![any::<u64>(), Just(0u64), Just(u64::MAX), 0u64..1000],
        i in prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -1000i64..1000],
    ) {
        for n in [Number::Float(f), Number::UInt(u), Number::Int(i)] {
            let mut want = String::new();
            reference::number(n, &mut want);
            prop_assert_eq!(Value::Num(n).to_string_compact(), want.clone(), "{:?}", n);
            let mut emitted = String::new();
            Emitter::new(&mut emitted).value(n);
            prop_assert_eq!(emitted, want, "{:?}", n);
        }
    }

    /// Whole documents: the emitter-driven compact printer writes the
    /// reference's bytes, structure included.
    #[test]
    fn documents_print_as_the_reference(v in arb_value()) {
        prop_assert_eq!(v.to_string_compact(), reference::render(&v));
    }

    /// Pretty documents: the indenter, fed the compact text whole, cut
    /// into pieces anywhere between characters, or one character at a
    /// time, lays it out as the recursive printer did.
    #[test]
    fn indenter_lays_out_as_the_reference(
        v in arb_value(),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut want = String::new();
        reference::pretty(&v, 0, &mut want);
        prop_assert_eq!(v.to_string_pretty(), want.clone());
        let text = v.to_string_compact();
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|c| c % (text.len() + 1))
            .filter(|&c| text.is_char_boundary(c))
            .collect();
        bounds.sort_unstable();
        let every_char: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        for bounds in [bounds, every_char] {
            let (mut indenter, mut pieces, mut start) = (Indenter::default(), String::new(), 0);
            for end in bounds.into_iter().chain([text.len()]) {
                indenter.write(&text[start..end], &mut pieces);
                start = end;
            }
            prop_assert_eq!(pieces, want.clone(), "{} cut at {:?}", text, cuts);
        }
    }

    #[test]
    fn compact_print_parse_identity(v in arb_value()) {
        let text = v.to_string_compact();
        let back = parse(&text).unwrap();
        prop_assert!(approx_same(&v, &back), "{v:?} -> {text} -> {back:?}");
    }

    #[test]
    fn pretty_print_parse_identity(v in arb_value()) {
        let text = v.to_string_pretty();
        let back = parse(&text).unwrap();
        prop_assert!(approx_same(&v, &back));
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = parse(&s);
    }

    #[test]
    fn float_round_trip_exact(f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
        let v: Value = f.into();
        let back = parse(&v.to_string_compact()).unwrap();
        prop_assert_eq!(back.as_f64().unwrap(), f);
    }
}
