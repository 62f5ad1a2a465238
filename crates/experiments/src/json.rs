//! The workspace's one JSON writer: a value type whose objects keep their
//! keys in insertion order, and [`Json::render`], which lays every
//! document out the same way. The engine's telemetry, the `tpcp-serve`
//! telemetry and the `tpcp-perf` report are all built as [`Json`] values
//! (the workspace has no serialization dependency).
//!
//! The layout is fixed, so a document is a pure function of its value:
//!
//! - a container whose members are all scalars prints on one line —
//!   `{ "hits": 1, "misses": 0 }`, `[ 1, 2 ]`, `{}`, `[]`;
//! - any other container prints one member per line, indented two
//!   spaces more than its parent;
//! - object members are written `"key": value`;
//! - floats get three decimals, and a non-finite float prints as `0.000`;
//! - strings escape `"`, `\`, `\n`, `\r`, `\t` and other control
//!   characters (as `\u00XX`), and pass everything else through;
//! - the document ends with a newline.

/// A JSON value. Objects are member lists, not maps: keys print in the
/// order they were added.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer, printed exactly.
    UInt(u64),
    /// A float, printed with three decimals.
    Float(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, its members in output order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Self::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// The value as a complete document in the layout of the
    /// [module docs](self), ending with a newline.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Self::Array(_) | Self::Object(_))
    }

    /// Writes the value with no leading indent; `depth` is the nesting
    /// level of the line it starts on.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::UInt(n) => out.push_str(&n.to_string()),
            Self::Float(x) if x.is_finite() => out.push_str(&format!("{x:.3}")),
            Self::Float(_) => out.push_str("0.000"),
            Self::Str(s) => write_string(out, s),
            Self::Array(items) => {
                write_members(out, depth, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Self::Object(members) => write_members(
                out,
                depth,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container's members between its brackets: on one line when
/// every member is a scalar, else one member per line.
fn write_members<'a, I>(out: &mut String, depth: usize, (open, close): (char, char), members: I)
where
    I: Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
{
    let flat = members.clone().all(|(_, v)| !v.is_container());
    // What precedes a member (at `depth + 1`) or the closing bracket.
    let break_to = |out: &mut String, depth: usize| {
        if flat {
            out.push(' ');
        } else {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        break_to(out, depth + 1);
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        break_to(out, depth);
    }
    out.push(close);
}

/// Writes `s` as a quoted, escaped JSON string.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `From` conversions, so members read `("hits", hits.into())`.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $value
            }
        })*
    };
}

json_from!(
    bool => |b| Self::Bool(b),
    u64 => |n| Self::UInt(n),
    u32 => |n| Self::UInt(u64::from(n)),
    usize => |n| Self::UInt(n as u64),
    f64 => |x| Self::Float(x),
    &str => |s| Self::Str(s.to_owned()),
);

#[cfg(test)]
mod tests {
    use super::*;

    /// A scalar rendered alone: the document is the value and a newline.
    fn scalar(value: impl Into<Json>) -> String {
        let doc = value.into().render();
        doc.strip_suffix('\n').unwrap_or(&doc).to_owned()
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(scalar("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(scalar("\r\t"), "\"\\r\\t\"");
        assert_eq!(scalar("\u{1}"), "\"\\u0001\"");
        assert_eq!(scalar("\u{1f}"), "\"\\u001f\"");
        assert_eq!(scalar(f64::NAN), "0.000");
        assert_eq!(scalar(f64::INFINITY), "0.000");
    }

    #[test]
    fn non_ascii_text_passes_through() {
        assert_eq!(scalar("µs — naïve ✓"), "\"µs — naïve ✓\"");
        assert_eq!(scalar("\u{7f}"), "\"\u{7f}\"");
    }

    #[test]
    fn non_finite_floats_print_as_zero() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(scalar(x), "0.000");
        }
        assert_eq!(scalar(2.0 / 3.0), "0.667");
        assert_eq!(scalar(-1.5), "-1.500");
        assert_eq!(scalar(u64::MAX), "18446744073709551615");
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(scalar(true), "true");
    }

    #[test]
    fn empty_containers_print_on_one_line() {
        assert_eq!(Json::object([]).render(), "{}\n");
        assert_eq!(Json::Array(Vec::new()).render(), "[]\n");
        let doc = Json::object([("a", Json::Array(Vec::new())), ("b", Json::object([]))]);
        assert_eq!(doc.render(), "{\n  \"a\": [],\n  \"b\": {}\n}\n");
    }

    #[test]
    fn all_scalar_containers_print_on_one_line() {
        let doc = Json::object([("hits", 1u64.into()), ("misses", 0u64.into())]);
        assert_eq!(doc.render(), "{ \"hits\": 1, \"misses\": 0 }\n");
        let doc = Json::Array(vec![1u64.into(), "x".into(), Json::Null]);
        assert_eq!(doc.render(), "[ 1, \"x\", null ]\n");
    }

    #[test]
    fn nested_containers_print_one_member_per_line_in_key_order() {
        let doc = Json::object([
            ("zeta", "first".into()),
            (
                "cache",
                Json::object([("hits", 1u64.into()), ("misses", 0u64.into())]),
            ),
            (
                "lanes",
                Json::Array(vec![
                    Json::object([("label", "a".into())]),
                    Json::object([("label", "b".into())]),
                ]),
            ),
            (
                "groups",
                Json::object([(
                    "g",
                    Json::object([("rate", 1.25.into()), ("lanes", Json::Array(Vec::new()))]),
                )]),
            ),
            ("alpha", false.into()),
        ]);
        let expected = r#"{
  "zeta": "first",
  "cache": { "hits": 1, "misses": 0 },
  "lanes": [
    { "label": "a" },
    { "label": "b" }
  ],
  "groups": {
    "g": {
      "rate": 1.250,
      "lanes": []
    }
  },
  "alpha": false
}
"#;
        assert_eq!(doc.render(), expected);
    }
}
