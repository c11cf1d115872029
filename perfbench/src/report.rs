//! The report: a minimal ordered JSON object writer, self-checked through
//! the strict parser in `oaq_serve::report`, and the host facts every
//! report records.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write_str(&mut self.body, key);
        self.body.push(':');
    }

    /// A number with all its digits (non-finite values become `null`).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            // `{:?}` prints the shortest string that round-trips.
            let _ = write!(self.body, "{v:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// An integer.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{v}");
        self
    }

    /// A boolean.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// A string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        write_str(&mut self.body, v);
        self
    }

    /// A nested object.
    pub fn obj(&mut self, key: &str, v: &Obj) -> &mut Self {
        self.key(key);
        self.body.push_str(&v.render());
        self
    }

    /// The rendered object.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }

    /// The rendered object after a round trip through the strict parser.
    ///
    /// # Panics
    ///
    /// Panics if the writer produced invalid JSON (a bug here).
    #[must_use]
    pub fn checked(&self) -> String {
        let s = self.render();
        if let Err(e) = oaq_serve::report::parse(&s) {
            panic!("report writer emitted invalid JSON ({e}): {s}");
        }
        s
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&oaq_engine::report::json_escape(s));
    out.push('"');
}

/// Cores the process may run on.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `"unknown"` outside a git checkout.
#[must_use]
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_and_escapes() {
        let mut inner = Obj::new();
        inner.int("n", 3).num("x", 0.1 + 0.2);
        let mut o = Obj::new();
        o.str("s", "a\"b\\c\nd\u{1}")
            .bool("ok", true)
            .num("nan", f64::NAN)
            .obj("inner", &inner);
        let s = o.checked();
        let v = oaq_serve::report::parse(&s).unwrap();
        let x = v.get("inner").and_then(|i| i.get("x")).unwrap();
        assert_eq!(x.as_f64(), Some(0.1 + 0.2), "all digits survive");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
