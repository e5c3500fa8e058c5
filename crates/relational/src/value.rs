//! Attribute values and data types.

use cla_storage::{ByteReader, ByteWriter, StorageError};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The data types supported by the substrate.
///
/// The paper's example database only needs text and integers, but floats
/// and booleans round the type system out for the synthetic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Boolean truth value.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 text.
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A single attribute value.
///
/// `Value` implements a *total* order and hash (floats are compared with
/// [`f64::total_cmp`] and hashed by bit pattern) so that values can serve
/// as primary-key index entries.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares less than every non-null value.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value.
    Text(String),
}

impl Value {
    /// The [`DataType`] of this value, or `None` for NULL (NULL inhabits
    /// every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// `true` iff the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value may be stored in an attribute of type `ty`.
    /// NULL matches every type; nullability is checked separately.
    pub fn matches_type(&self, ty: DataType) -> bool {
        self.data_type().is_none_or(|t| t == ty)
    }

    /// The contained integer, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The contained float, if this is a [`Value::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The contained boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The contained text, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Rank used to order values of different types deterministically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }

    /// Append this value to a snapshot section: one tag byte (equal to
    /// the value's rank in the cross-type ordering, which is therefore
    /// part of the file format) followed by the payload. Floats are stored by bit pattern, so a
    /// NaN round-trips to the identical NaN.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            Value::Null => w.u8(0),
            Value::Bool(b) => {
                w.u8(1);
                w.bool(*b);
            }
            Value::Int(i) => {
                w.u8(2);
                w.i64(*i);
            }
            Value::Float(x) => {
                w.u8(3);
                w.f64(*x);
            }
            Value::Text(s) => {
                w.u8(4);
                w.str(s);
            }
        }
    }

    /// Read one [`Value::encode`]d value. Unknown tags are
    /// [`StorageError::Malformed`], never a panic.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Value, StorageError> {
        Ok(ValueView::decode(r)?.to_owned())
    }
}

/// A borrowed view of one encoded [`Value`]: the same five variants,
/// with text borrowing the underlying buffer. Validate-only passes
/// (the zero-copy open path walks every stored row without building a
/// `Database`) decode through this type so that checking a value costs
/// no allocation; [`ValueView::to_owned`] produces the owning `Value`
/// when materialization is actually wanted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueView<'a> {
    /// SQL NULL.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Text value, borrowed from the encoded buffer.
    Text(&'a str),
}

impl<'a> ValueView<'a> {
    /// Read one encoded value without copying its payload. The byte
    /// format (and tag space) is exactly [`Value::encode`]'s.
    pub fn decode(r: &mut ByteReader<'a>) -> Result<ValueView<'a>, StorageError> {
        Ok(match r.u8()? {
            0 => ValueView::Null,
            1 => ValueView::Bool(r.bool()?),
            2 => ValueView::Int(r.i64()?),
            3 => ValueView::Float(r.f64()?),
            4 => ValueView::Text(r.str_view()?),
            tag => return Err(StorageError::Malformed(format!("unknown value tag {tag}"))),
        })
    }

    /// The [`DataType`] of this view, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ValueView::Null => None,
            ValueView::Bool(_) => Some(DataType::Bool),
            ValueView::Int(_) => Some(DataType::Int),
            ValueView::Float(_) => Some(DataType::Float),
            ValueView::Text(_) => Some(DataType::Text),
        }
    }

    /// `true` iff the view is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueView::Null)
    }

    /// Whether this view may be stored in an attribute of type `ty`
    /// (same rule as [`Value::matches_type`]).
    pub fn matches_type(&self, ty: DataType) -> bool {
        self.data_type().is_none_or(|t| t == ty)
    }

    /// Materialize the owning [`Value`].
    pub fn to_owned(&self) -> Value {
        match self {
            ValueView::Null => Value::Null,
            ValueView::Bool(b) => Value::Bool(*b),
            ValueView::Int(i) => Value::Int(*i),
            ValueView::Float(x) => Value::Float(*x),
            ValueView::Text(s) => Value::Text((*s).to_owned()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Value::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_types_of_values() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::from(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::from(7i64).data_type(), Some(DataType::Int));
        assert_eq!(Value::from(1.5).data_type(), Some(DataType::Float));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Text));
    }

    #[test]
    fn null_matches_every_type_for_storage() {
        for ty in [DataType::Bool, DataType::Int, DataType::Float, DataType::Text] {
            assert!(Value::Null.matches_type(ty));
        }
        assert!(Value::from(3i64).matches_type(DataType::Int));
        assert!(!Value::from(3i64).matches_type(DataType::Text));
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from("a").as_text(), Some("a"));
        assert_eq!(Value::from(2.0).as_float(), Some(2.0));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("a").as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn total_order_across_types_is_consistent() {
        let vs = [
            Value::Null,
            Value::from(false),
            Value::from(-3i64),
            Value::from(0.5),
            Value::from("abc"),
        ];
        for (i, a) in vs.iter().enumerate() {
            for (j, b) in vs.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn float_nan_has_total_order_and_stable_hash() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan);
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Float(0.0));
        assert!(Value::Float(0.0) < Value::Float(f64::INFINITY));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::from("xml"), Value::from("xml")),
            (Value::from(42i64), Value::from(42i64)),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn display_renders_sql_like() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("Smith").to_string(), "Smith");
        assert_eq!(Value::from(40i64).to_string(), "40");
    }

    #[test]
    fn from_option_maps_none_to_null() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::from(3i64));
    }

    #[test]
    fn value_view_round_trips_every_variant() {
        let values = [
            Value::Null,
            Value::from(true),
            Value::from(-7i64),
            Value::Float(f64::NAN),
            Value::from("héllo"),
        ];
        let mut w = ByteWriter::new();
        for v in &values {
            v.encode(&mut w);
        }
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        for v in &values {
            let view = ValueView::decode(&mut r).unwrap();
            assert_eq!(&view.to_owned(), v);
            assert_eq!(view.data_type(), v.data_type());
            assert_eq!(view.is_null(), v.is_null());
        }
        r.finish().unwrap();
        // Type checks agree with the owning value's.
        let mut r = ByteReader::new(&buf);
        let null = ValueView::decode(&mut r).unwrap();
        assert!(null.matches_type(DataType::Int) && null.matches_type(DataType::Text));
        let b = ValueView::decode(&mut r).unwrap();
        assert!(b.matches_type(DataType::Bool) && !b.matches_type(DataType::Int));
        // Unknown tags are typed errors through the view path too.
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(ValueView::decode(&mut r), Err(StorageError::Malformed(_))));
    }
}
