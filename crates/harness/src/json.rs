//! The one JSON encoder of the harness and the bench tools: a report is
//! a list of named [`Field`]s, and [`Field::to_json`] turns it into a
//! single-line object with the fields in list order.

/// One value of a report, as both the JSON encoder and the chaos text
/// renderer see it.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned counter or index.
    Num(u64),
    /// A measurement, written with the given number of decimal places.
    Float(f64, usize),
    /// A flag.
    Bool(bool),
    /// A string, escaped on output.
    Str(String),
    /// A transcript hash: full hex in JSON, its first 8 bytes in text.
    Digest([u8; 32]),
    /// An ordered list.
    List(Vec<Field>),
    /// A nested object, fields in order.
    Obj(Vec<(&'static str, Field)>),
}

impl Field {
    /// `strings` as a list of [`Field::Str`].
    pub fn strs(strings: &[String]) -> Field {
        Field::List(strings.iter().map(|s| Field::from(s.as_str())).collect())
    }

    /// Single-line JSON for this value.
    pub fn to_json(&self) -> String {
        match self {
            Field::Num(n) => n.to_string(),
            Field::Float(x, places) => format!("{x:.places$}"),
            Field::Bool(b) => b.to_string(),
            Field::Str(s) => json_str(s),
            Field::Digest(d) => json_str(&hex(d)),
            Field::List(items) => {
                let inner: Vec<String> = items.iter().map(Field::to_json).collect();
                format!("[{}]", inner.join(","))
            }
            Field::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(name, value)| format!("{}:{}", json_str(name), value.to_json()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

impl From<u64> for Field {
    fn from(n: u64) -> Field {
        Field::Num(n)
    }
}

impl From<usize> for Field {
    fn from(n: usize) -> Field {
        Field::Num(n as u64)
    }
}

impl From<bool> for Field {
    fn from(b: bool) -> Field {
        Field::Bool(b)
    }
}

impl From<&str> for Field {
    fn from(s: &str) -> Field {
        Field::Str(s.to_owned())
    }
}

/// Lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// enough for report and bench fields, which are ASCII by construction.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_fields_encode_in_order_on_one_line() {
        let f = Field::Obj(vec![
            ("n", 7u64.into()),
            ("ok", true.into()),
            ("s", "a\"b\n".into()),
            ("xs", Field::strs(&["x".into()])),
            ("o", Field::Obj(vec![("k", 1usize.into())])),
            ("d", Field::Digest([0xab; 32])),
            (
                "f",
                Field::List(vec![Field::Float(2.34567, 3), Field::Float(2.0, 1)]),
            ),
        ]);
        assert_eq!(
            f.to_json(),
            format!(
                "{{\"n\":7,\"ok\":true,\"s\":\"a\\\"b\\n\",\"xs\":[\"x\"],\"o\":{{\"k\":1}},\
                 \"d\":\"{}\",\"f\":[2.346,2.0]}}",
                "ab".repeat(32)
            )
        );
    }

    #[test]
    fn control_bytes_are_escaped() {
        assert_eq!(json_str("\\\t\u{1}"), "\"\\\\\\t\\u0001\"");
        assert_eq!(hex(&[0, 0x0f, 0xff]), "000fff");
    }
}
