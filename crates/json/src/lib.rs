//! # qre-json
//!
//! A small, dependency-free JSON implementation used throughout `qre` for the
//! job-specification and result-report I/O contract described in Section IV of
//! the paper (the estimator "acts like a cloud target" consuming and producing
//! JSON documents).
//!
//! The crate provides:
//!
//! * [`Value`] — an owned JSON document model with ergonomic accessors,
//! * [`parse()`] — a strict recursive-descent parser with precise error positions,
//! * [`Value::to_string_pretty`] / [`Value::to_string_compact`] — deterministic
//!   printers whose number formatting round-trips `f64` exactly,
//! * [`Emitter`] — the compact printer without a [`Value`]: it writes a
//!   document field by field straight into a `String`, allocating nothing,
//!   with the printers' own number and string formats ([`Scalar`]),
//! * [`Indenter`] — the pretty layout of compact text, fed in pieces, so a
//!   document written entry by entry can be laid out as it goes,
//! * [`ObjectBuilder`] — an order-preserving object builder, so emitted result
//!   groups appear in the same order the paper lists them.
//!
//! Keys keep **insertion order** (stored as a `Vec` of pairs) because the
//! result report of Section IV-D is organised as an ordered sequence of
//! groups; a hash map would scramble them.
//!
//! ## Example
//!
//! ```
//! use qre_json::{parse, Value};
//!
//! let doc = parse(r#"{"qubits": 12, "runtime": 4.5e6, "ok": true}"#).unwrap();
//! assert_eq!(doc.get("qubits").and_then(Value::as_u64), Some(12));
//! assert_eq!(doc.get("runtime").and_then(Value::as_f64), Some(4.5e6));
//! let text = doc.to_string_compact();
//! assert_eq!(parse(&text).unwrap(), doc);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod parse;
mod print;
mod value;

pub use parse::{parse, ParseError};
pub use print::{Emitter, Indenter, Scalar};
pub use value::{Number, ObjectBuilder, Value};

// Property-based tests, on the in-repo `qre-proptest` harness (its library
// target is named `proptest`, keeping the upstream-compatible imports).
#[cfg(test)]
mod proptests;
