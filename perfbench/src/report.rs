//! Named metrics, their JSON rendering and the run metadata.

use std::fmt::Write as _;

/// A metric or unit name: 1 to `max` characters from `[A-Za-z0-9_.-]`
/// (units may also use `/` and `%`), starting with a letter or digit.
fn valid(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `count`, …).
    pub unit: String,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// The metrics of one run, in insertion order, each name once.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Add a metric; rejects a malformed or repeated name, a malformed
    /// unit and a value that is not finite.
    pub fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        samples: usize,
    ) -> Result<(), String> {
        if !valid(name, 64, "") {
            return Err(format!("bad metric name `{name}`"));
        }
        if !valid(unit, 16, "/%") {
            return Err(format!("bad unit `{unit}` for {name}"));
        }
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        if self.items.iter().any(|m| m.name == name) {
            return Err(format!("metric {name} reported twice"));
        }
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
        Ok(())
    }

    /// All metrics in insertion order.
    pub fn items(&self) -> &[Metric] {
        &self.items
    }

    /// `"name": {"value": v, "unit": u}, …` as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust prints for the `f64`.
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escape a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Host and build facts recorded with every result.
pub fn host_meta() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mem_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("mem_total_kb", mem_kb),
        ("rustc", rustc),
        ("git_commit", git_commit()),
        (
            "worker_pool",
            mpq_exec::WorkerPool::global().workers().to_string(),
        ),
    ]
}

/// The commit the checkout was made from: `.git/HEAD` when the
/// checkout is a git repository, else `unknown`.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Metadata pairs as a JSON object.
pub fn meta_json(meta: &[(&str, String)]) -> String {
    let body: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_outside_the_alphabet_are_rejected() {
        let mut m = Metrics::default();
        assert!(m.push("latency_p50_ms", 1.25, "ms", 10).is_ok());
        assert!(m.push("core.requests_per_query", 3.0, "count", 10).is_ok());
        assert!(m.push("dist.max-edge", 2.0, "B", 1).is_ok());
        for bad in [
            "",
            "p50 ms",
            "lat/ms",
            "_lead",
            "é",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(m.push(bad, 1.0, "ms", 1).is_err(), "accepted `{bad}`");
        }
        assert!(m.push("latency_p50_ms", 1.0, "ms", 1).is_err(), "duplicate");
        assert!(m.push("ok_name", 1.0, "m s", 1).is_err(), "bad unit");
        assert!(m.push("per_s", 1.0, "1/s", 1).is_ok());
        assert!(m.push("nan", f64::NAN, "ms", 1).is_err());
        assert_eq!(m.items().len(), 4);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s", 3).unwrap();
        m.push("queries_per_s", 12.0, "1/s", 100).unwrap();
        assert_eq!(
            result_line(true, 100, 0, &m),
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"queries_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
