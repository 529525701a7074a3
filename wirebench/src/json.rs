//! Helpers for building the result line and run record on the
//! workspace's own JSON data model (`serde::json::Json`).

pub use serde::json::Json as J;

/// An object with fields in the given order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
    J::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(s: impl Into<String>) -> J {
    J::Str(s.into())
}

/// A number, or `null` when there is none.
pub fn opt(v: Option<f64>) -> J {
    v.map_or(J::Null, J::Float)
}

pub fn render(v: &J) -> String {
    let mut out = String::new();
    serde::json::write_json(v, &mut out);
    out
}
