//! A minimal JSON value and writer — the workspace has no external crates.

use std::fmt;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    UInt(u64),
    /// Written with every digit `f64` needs to round-trip; non-finite
    /// values become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_valid_compact_json() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::UInt(u64::MAX)),
            ("value", Json::Num(1.2034)),
            ("whole", Json::Num(3.0)),
            ("nan", Json::Num(f64::NAN)),
            ("text", Json::str("a\"b\\c\nd\u{1}")),
            ("list", Json::nums(&[0.5, 2.0])),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"correct\": true, \"attempted\": 18446744073709551615, \"value\": 1.2034, \
             \"whole\": 3, \"nan\": null, \"text\": \"a\\\"b\\\\c\\nd\\u0001\", \
             \"list\": [0.5, 2], \"empty\": {}}"
        );
    }

    #[test]
    fn floats_keep_all_digits() {
        let x = 0.1 + 0.2;
        assert_eq!(Json::Num(x).to_string().parse::<f64>().unwrap(), x);
    }
}
