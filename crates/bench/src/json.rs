//! Minimal hand-rolled JSON emission.
//!
//! The offline workspace carries no serde; the `BENCH_*.json` artifacts
//! the harness binaries emit are small and flat enough that a tiny
//! builder suffices. Rendering is deterministic: fields appear in
//! insertion order, integers print exactly, and floats use a fixed
//! 6-decimal format so identical inputs produce identical bytes.

use std::path::PathBuf;

/// Escapes a string for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders a JSON array from already-rendered element values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Self {
        self.fields.push(format!("\"{}\":{rendered}", escape(key)));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape(value));
        self.push(key, rendered)
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a count field.
    pub fn usize(self, key: &str, value: usize) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a float field, fixed at six decimals so rendering is
    /// byte-stable across runs and platforms.
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.push(key, format!("{value:.6}"))
    }

    /// Adds an already-rendered JSON value (nested object or array).
    pub fn raw(self, key: &str, rendered: String) -> Self {
        self.push(key, rendered)
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Writes `body` (with a trailing newline) to `BENCH_<name>.json` in the
/// current directory — the repo root when run via `cargo run` — and
/// returns the path.
pub fn write_bench_json(name: &str, body: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{body}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_in_insertion_order() {
        let inner = Obj::new().u64("a", 1).f64("b", 0.5).render();
        let outer = Obj::new()
            .str("name", "x")
            .raw("inner", inner)
            .raw("list", array(vec!["1".to_string(), "2".to_string()]))
            .render();
        assert_eq!(
            outer,
            r#"{"name":"x","inner":{"a":1,"b":0.500000},"list":[1,2]}"#
        );
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn float_rendering_is_fixed_width() {
        let o = Obj::new().f64("v", 1.0 / 3.0).render();
        assert_eq!(o, r#"{"v":0.333333}"#);
    }
}
