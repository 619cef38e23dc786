//! Reporting for the `repro` binary: one [`BenchRecord`] per section,
//! printed as aligned text tables and, in full mode, written as
//! `results/BENCH_<section>.json`; plus ASCII series plots. No plotting
//! or serialization dependencies (the vendored `serde` is a no-op).

use std::fmt::Write as _;

/// How much work a `repro` run does. Only a full run writes records, so
/// reduced runs never overwrite the committed full-mode ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No flag: every point at full size.
    Full,
    /// `--quick`: fewer points and repeats.
    Quick,
    /// `--smoke`: the smallest run that still checks every guard;
    /// sections without a smoke size run at their quick size.
    Smoke,
}

impl Mode {
    /// The name a record stores.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
            Mode::Smoke => "smoke",
        }
    }

    /// The value of a size that differs per mode.
    pub fn pick<T>(self, full: T, quick: T, smoke: T) -> T {
        match self {
            Mode::Full => full,
            Mode::Quick => quick,
            Mode::Smoke => smoke,
        }
    }
}

/// A repeated measurement: its count, median, quartiles and range.
/// Quantiles interpolate linearly between the closest ranks, the
/// statistic gatebench reports, so both harnesses speak one language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; panics when there are none.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            n: sorted.len(),
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// Runs `sample` `n` times and summarises the results.
    pub fn sample(n: usize, sample: impl FnMut() -> f64) -> Summary {
        let values: Vec<f64> = std::iter::repeat_with(sample).take(n).collect();
        Summary::of(&values)
    }

    fn fields(&self) -> [(&'static str, f64); 5] {
        [
            ("median", self.median),
            ("q1", self.q1),
            ("q3", self.q3),
            ("min", self.min),
            ("max", self.max),
        ]
    }
}

/// A config value, label cell or metric cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Text(String),
    Bool(bool),
    Num(f64),
    Summary(Summary),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Summary> for Value {
    fn from(s: Summary) -> Self {
        Value::Summary(s)
    }
}

macro_rules! value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
    )*};
}
value_from_number!(f64, usize, u64, u32, i64);

impl Value {
    /// The value as a table cell: integers whole, other numbers to about
    /// three significant digits, a summary as `median (q1..q3)`.
    fn cell(&self) -> String {
        fn num(x: f64) -> String {
            let decimals = match x.abs() {
                a if a.fract() == 0.0 && a < 1e15 => 0,
                a if a >= 100.0 => 0,
                a if a >= 10.0 => 1,
                a if a >= 1.0 => 2,
                a if a > 0.0 => (2 - a.log10().floor() as i32).clamp(3, 9) as usize,
                _ => 3,
            };
            format!("{x:.decimals$}")
        }
        match self {
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Num(x) => num(*x),
            Value::Summary(s) => format!("{} ({}..{})", num(s.median), num(s.q1), num(s.q3)),
        }
    }

    /// The value as JSON; a non-finite number is an error naming `name`.
    fn write_json(&self, name: &str, out: &mut String) -> Result<(), String> {
        let number = |x: f64, out: &mut String| {
            if !x.is_finite() {
                return Err(format!("metric `{name}` is {x}, which JSON cannot hold"));
            }
            let _ = write!(out, "{}", six_digits(x));
            Ok(())
        };
        match self {
            Value::Text(s) => write_json_string(s, out),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(x) => number(*x, out)?,
            Value::Summary(s) => {
                let _ = write!(out, "{{\"n\": {}", s.n);
                for (field, x) in s.fields() {
                    let _ = write!(out, ", \"{field}\": ");
                    number(x, out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// `x` to six significant digits, so that float noise far below any
/// measurement's precision does not print as digits; whole numbers are
/// kept exactly.
fn six_digits(x: f64) -> f64 {
    if x.fract() == 0.0 {
        return x;
    }
    let shift = 5 - x.abs().log10().floor() as i32;
    if shift >= 0 {
        let m = 10f64.powi(shift);
        (x * m).round() / m
    } else {
        let m = 10f64.powi(-shift);
        (x / m).round() * m
    }
}

fn write_json_string(s: &str, out: &mut String) {
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
}

/// Writes `{"k": v, ...}` for named values.
fn write_json_object(pairs: &[(&str, Value)], out: &mut String) -> Result<(), String> {
    out.push('{');
    for (i, (name, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(name, out);
        out.push_str(": ");
        value.write_json(name, out)?;
    }
    out.push('}');
    Ok(())
}

/// One table row: the label cells that say which point it is, then the
/// metric cells measured there.
#[derive(Debug, Clone, Default)]
pub struct Row {
    labels: Vec<(&'static str, Value)>,
    metrics: Vec<(&'static str, Value)>,
}

impl Row {
    pub fn new() -> Row {
        Row::default()
    }

    pub fn label(mut self, name: &'static str, value: impl Into<Value>) -> Row {
        self.labels.push((name, value.into()));
        self
    }

    pub fn metric(mut self, name: &'static str, value: impl Into<Value>) -> Row {
        self.metrics.push((name, value.into()));
        self
    }

    fn columns(&self) -> impl Iterator<Item = &(&'static str, Value)> {
        self.labels.iter().chain(&self.metrics)
    }
}

/// What one `repro` section measured: the experiment and its settings,
/// where and how it ran, and one or more named tables of rows.
#[derive(Debug)]
pub struct BenchRecord {
    experiment: &'static str,
    mode: Mode,
    host_cores: usize,
    commit: String,
    config: Vec<(&'static str, Value)>,
    tables: Vec<(&'static str, Vec<Row>)>,
}

impl BenchRecord {
    /// Starts the record of section `experiment`, stamped with the
    /// host's core count and the checked-out commit (`unknown` outside
    /// a git checkout).
    pub fn new(experiment: &'static str, mode: Mode) -> BenchRecord {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        BenchRecord {
            experiment,
            mode,
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            commit,
            config: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Records one setting of the experiment.
    pub fn config(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        self.config.push((key, value.into()));
        self
    }

    /// Appends `row` to table `table`, which the first row creates; every
    /// later row must have the same columns.
    pub fn push(&mut self, table: &'static str, row: Row) {
        match self.tables.iter_mut().find(|(name, _)| *name == table) {
            Some((_, rows)) => {
                let same = rows[0].labels.len() == row.labels.len()
                    && rows[0]
                        .columns()
                        .map(|c| c.0)
                        .eq(row.columns().map(|c| c.0));
                assert!(same, "row columns differ from table `{table}`'s");
                rows.push(row);
            }
            None => self.tables.push((table, vec![row])),
        }
    }

    /// Every table as aligned text, each under its name.
    fn to_tables(&self) -> String {
        let mut out = String::new();
        for (name, rows) in &self.tables {
            let header: Vec<String> = rows[0].columns().map(|c| c.0.to_string()).collect();
            let cells: Vec<Vec<String>> = rows
                .iter()
                .map(|r| r.columns().map(|c| c.1.cell()).collect())
                .collect();
            let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
            for row in &cells {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.chars().count());
                }
            }
            let _ = writeln!(out, "[{name}]");
            for line in std::iter::once(&header).chain(&cells) {
                for (cell, width) in line.iter().zip(&widths) {
                    let _ = write!(out, "{cell:>width$}  ");
                }
                out.truncate(out.trim_end().len());
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }

    /// The record as JSON, or an error naming the first non-finite
    /// number, which JSON cannot hold and which would otherwise be
    /// written as something it is not.
    fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("{\n  \"experiment\": ");
        write_json_string(self.experiment, &mut out);
        let _ = write!(
            out,
            ",\n  \"mode\": \"{}\",\n  \"host_cores\": {},\n  \"commit\": ",
            self.mode.name(),
            self.host_cores
        );
        write_json_string(&self.commit, &mut out);
        out.push_str(",\n  \"config\": ");
        write_json_object(&self.config, &mut out)?;
        out.push_str(",\n  \"tables\": {");
        for (t, (name, rows)) in self.tables.iter().enumerate() {
            out.push_str(if t == 0 { "\n    " } else { ",\n    " });
            write_json_string(name, &mut out);
            out.push_str(": [");
            for (r, row) in rows.iter().enumerate() {
                out.push_str(if r == 0 { "\n      " } else { ",\n      " });
                out.push_str("{\"labels\": ");
                write_json_object(&row.labels, &mut out)?;
                out.push_str(", \"metrics\": ");
                write_json_object(&row.metrics, &mut out)?;
                out.push('}');
            }
            out.push_str("\n    ]");
        }
        out.push_str("\n  }\n}\n");
        Ok(out)
    }

    /// Prints the tables and, in full mode, writes
    /// `results/BENCH_<experiment>.json`.
    pub fn finish(&self) {
        print!("\n{}", self.to_tables());
        if self.mode != Mode::Full {
            return;
        }
        let json = self
            .to_json()
            .unwrap_or_else(|e| panic!("{}: {e}", self.experiment));
        let path = format!("results/BENCH_{}.json", self.experiment);
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, json))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("Wrote {path}");
    }
}

/// Renders one or more labeled series as a crude ASCII chart: one line per
/// x value, bars proportional to y.
pub fn ascii_series(title: &str, series: &[(&str, Vec<(f64, f64)>)], unit: &str) -> String {
    let mut out = format!("{title}\n");
    let max_y = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(_, y)| *y))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for (label, pts) in series {
        let _ = writeln!(out, "  [{label}]");
        for (x, y) in pts {
            let bar_len = ((y / max_y) * 50.0).round() as usize;
            let _ = writeln!(
                out,
                "  {x:>10.1} | {:<50} {y:.2} {unit}",
                "#".repeat(bar_len)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        let mut rec = BenchRecord::new("demo", Mode::Quick);
        rec.config("messages", 10usize);
        rec
    }

    #[test]
    fn summary_matches_gatebench_quantiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.min, s.max), (1.0, 4.0));
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        // An odd count's median is its middle value, as sort-and-index gave.
        assert_eq!(Summary::of(&[9.0, 1.0, 5.0, 7.0, 3.0]).median, 5.0);
    }

    #[test]
    fn json_escapes_quotes_and_backslashes_in_labels() {
        let mut rec = record();
        rec.push(
            "t",
            Row::new().label("name", r#"a "b" \c"#).metric("x", 1.5),
        );
        let json = rec.to_json().expect("finite");
        assert!(json.contains(r#"{"labels": {"name": "a \"b\" \\c"}, "metrics": {"x": 1.5}}"#));
        assert!(json.contains(r#""config": {"messages": 10}"#));
        assert!(json.contains(r#""mode": "quick""#));
        rec.push(
            "t",
            Row::new()
                .label("name", "x")
                .metric("x", 38.013999999999996),
        );
        assert!(rec.to_json().expect("finite").contains(r#""x": 38.014}"#));
    }

    #[test]
    fn non_finite_metric_is_an_error_not_a_number() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut rec = record();
            rec.push("t", Row::new().label("k", 1usize).metric("ratio", bad));
            let err = rec.to_json().expect_err("non-finite must not be written");
            assert!(err.contains("ratio"), "{err}");
        }
        let mut rec = record();
        let s = Summary::of(&[1.0, f64::NAN]);
        rec.push("t", Row::new().metric("spread", s));
        assert!(rec.to_json().is_err());
    }

    #[test]
    #[should_panic(expected = "columns differ")]
    fn rows_of_one_table_share_columns() {
        let mut rec = record();
        rec.push("t", Row::new().label("k", 1usize).metric("a", 1.0));
        rec.push("t", Row::new().label("k", 2usize).metric("b", 1.0));
    }

    #[test]
    fn tables_align_and_summaries_show_their_quartiles() {
        let mut rec = record();
        rec.push("t", Row::new().label("k", 1usize).metric("us", 12.5));
        let s = Summary::of(&[100.0, 200.0, 300.0]);
        rec.push("t", Row::new().label("k", 10usize).metric("us", s));
        let text = rec.to_tables();
        assert!(text.starts_with("[t]\n"));
        assert!(text.contains("200 (150..250)"));
        assert!(text.contains("12.5"));
    }

    #[test]
    fn ascii_series_scales_bars() {
        let chart = ascii_series("demo", &[("s", vec![(1.0, 10.0), (2.0, 20.0)])], "ms");
        assert!(chart.contains("demo"));
        // The 20.0 bar is the max → 50 hashes.
        assert!(chart.contains(&"#".repeat(50)));
    }
}
