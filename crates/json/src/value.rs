//! The owned JSON document model.

use std::fmt;

/// A JSON number.
///
/// JSON itself has a single number type; we preserve whether the value was an
/// integer so that counts (qubit numbers, gate counts) print without a decimal
/// point while physical quantities (error rates, durations in fractional
/// nanoseconds) keep full `f64` precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer (all counts in `qre` are unsigned).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A double-precision float.
    Float(f64),
}

impl Number {
    /// The value as `f64`, lossy for very large integers.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::UInt(u) => u as f64,
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    #[inline]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::UInt(u) => Some(u),
            Number::Int(i) if i >= 0 => Some(i as u64),
            Number::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::UInt(u) if u <= i64::MAX as u64 => Some(u as i64),
            Number::UInt(_) => None,
            Number::Int(i) => Some(i),
            Number::Float(f)
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }
}

/// An owned JSON value.
///
/// Objects preserve key insertion order; duplicate keys are rejected at parse
/// time and overwritten by [`ObjectBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Number`]).
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object. Returns `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a dotted path, e.g. `"physicalCounts.breakdown.numTfactories"`.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// Index into an array. Returns `None` for non-arrays or out of range.
    pub fn at(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as the ordered key/value pairs of an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// `true` if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        crate::print::write_compact(self, &mut crate::Emitter::new(&mut out));
        out
    }

    /// Human-readable rendering with two-space indentation: the compact
    /// text laid out by an [`Indenter`](crate::Indenter).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        crate::Indenter::default().write(&self.to_string_compact(), &mut out);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Self {
        Value::Num(Number::UInt(u))
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Self {
        Value::Num(Number::UInt(u64::from(u)))
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::Num(Number::UInt(u as u64))
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Num(Number::Int(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Num(Number::Float(f))
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Order-preserving builder for JSON objects.
///
/// ```
/// use qre_json::ObjectBuilder;
/// let v = ObjectBuilder::new()
///     .field("name", "surface_code")
///     .field("codeDistance", 15u64)
///     .build();
/// assert_eq!(v.get("codeDistance").unwrap().as_u64(), Some(15));
/// ```
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    pairs: Vec<(String, Value)>,
}

impl ObjectBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or overwrite) a field. Insertion order is preserved; overwriting
    /// keeps the original position.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        let value = value.into();
        if let Some(slot) = self.pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.pairs.push((key.to_owned(), value));
        }
        self
    }

    /// Add a field only when `value` is `Some`.
    pub fn field_opt(self, key: &str, value: Option<impl Into<Value>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finish, producing a [`Value::Object`].
    pub fn build(self) -> Value {
        Value::Object(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_conversions() {
        assert_eq!(Number::UInt(7).as_f64(), 7.0);
        assert_eq!(Number::Int(-3).as_f64(), -3.0);
        assert_eq!(Number::Float(2.5).as_f64(), 2.5);
        assert_eq!(Number::UInt(7).as_u64(), Some(7));
        assert_eq!(Number::Int(-3).as_u64(), None);
        assert_eq!(Number::Float(4.0).as_u64(), Some(4));
        assert_eq!(Number::Float(4.5).as_u64(), None);
        assert_eq!(Number::Float(-1.0).as_u64(), None);
        assert_eq!(Number::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Number::Int(-9).as_i64(), Some(-9));
        assert_eq!(Number::Float(-9.0).as_i64(), Some(-9));
    }

    #[test]
    fn object_get_and_path() {
        let v = ObjectBuilder::new()
            .field("outer", ObjectBuilder::new().field("inner", 42u64).build())
            .build();
        assert_eq!(v.get_path("outer.inner").unwrap().as_u64(), Some(42));
        assert!(v.get_path("outer.missing").is_none());
        assert!(v.get_path("missing.inner").is_none());
        assert!(v.get("outer").unwrap().get("inner").is_some());
    }

    #[test]
    fn array_access() {
        let v: Value = vec![1u64, 2, 3].into();
        assert_eq!(v.at(0).unwrap().as_u64(), Some(1));
        assert_eq!(v.at(2).unwrap().as_u64(), Some(3));
        assert!(v.at(3).is_none());
        assert_eq!(v.as_array().unwrap().len(), 3);
    }

    #[test]
    fn builder_overwrites_in_place() {
        let v = ObjectBuilder::new()
            .field("a", 1u64)
            .field("b", 2u64)
            .field("a", 3u64)
            .build();
        let pairs = v.as_object().unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "a");
        assert_eq!(pairs[0].1.as_u64(), Some(3));
    }

    #[test]
    fn field_opt_skips_none() {
        let v = ObjectBuilder::new()
            .field_opt("present", Some(1u64))
            .field_opt("absent", None::<u64>)
            .build();
        assert!(v.get("present").is_some());
        assert!(v.get("absent").is_none());
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = Value::Str("hi".into());
        assert!(v.as_f64().is_none());
        assert!(v.as_bool().is_none());
        assert!(v.as_array().is_none());
        assert!(v.as_object().is_none());
        assert!(v.get("x").is_none());
        assert_eq!(v.as_str(), Some("hi"));
        assert!(Value::Null.is_null());
    }
}
