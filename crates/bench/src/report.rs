//! The report plane: a result is a value, and only this module lays one out.
//!
//! An experiment driver or a bench builds [`Table`]s and [`Report`]s out of
//! [`Cell`]s and never formats: the two renderers here — `Display` (aligned
//! text, widths derived from the contents) and [`Report::to_json`] (one scalar
//! per line, keys in insertion order) — are the only code that knows how a
//! result looks, so a person and a program read the same numbers.

use std::fmt::{self, Write as _};

/// One value of a table or report.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count.
    Int(u64),
    /// A yes/no outcome.
    Bool(bool),
    /// A measurement and the decimals it prints with.
    Num(f64, usize),
}

/// A measurement cell printing `decimals` digits after the point.
pub fn num(value: f64, decimals: usize) -> Cell {
    Cell::Num(value, decimals)
}

impl From<&str> for Cell {
    fn from(text: &str) -> Self {
        Cell::Text(text.to_string())
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Self {
        Cell::Text(text)
    }
}

impl From<u64> for Cell {
    fn from(count: u64) -> Self {
        Cell::Int(count)
    }
}

impl From<usize> for Cell {
    fn from(count: usize) -> Self {
        Cell::Int(count as u64)
    }
}

impl From<bool> for Cell {
    fn from(flag: bool) -> Self {
        Cell::Bool(flag)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Int(count) => write!(f, "{count}"),
            Cell::Bool(flag) => write!(f, "{flag}"),
            Cell::Num(value, decimals) => write!(f, "{value:.decimals$}"),
        }
    }
}

impl Cell {
    /// The value at full precision, if this cell is a count or a measurement.
    pub fn number(&self) -> Option<f64> {
        match self {
            Cell::Int(count) => Some(*count as f64),
            Cell::Num(value, _) => Some(*value),
            Cell::Text(_) | Cell::Bool(_) => None,
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Text(text) => json_string(text),
            // JSON has no NaN or infinity.
            Cell::Num(value, _) if !value.is_finite() => "null".to_string(),
            other => other.to_string(),
        }
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A titled grid: named columns, rows of cells, an optional note on how to
/// read it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// What the table shows.
    pub title: String,
    /// Column names; every row has one cell per column.
    pub columns: Vec<String>,
    /// The data.
    pub rows: Vec<Vec<Cell>>,
    /// A caveat the reader needs (empty: none).
    pub note: String,
}

impl Table {
    /// An empty table that needs no title (its experiment's description says
    /// what it shows).
    pub fn new(columns: &[&str]) -> Self {
        Self::titled("", columns)
    }

    /// An empty titled table.
    pub fn titled(title: &str, columns: &[&str]) -> Self {
        let columns = columns.iter().map(ToString::to_string).collect();
        Self { title: title.to_string(), columns, ..Self::default() }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Appends the row of a leading cell and measurements that all print
    /// `decimals` digits (a count is a measurement with none).
    pub fn push(
        &mut self,
        first: impl Into<Cell>,
        decimals: usize,
        values: impl IntoIterator<Item = f64>,
    ) {
        let values = values.into_iter().map(|value| num(value, decimals));
        self.row(std::iter::once(first.into()).chain(values));
    }

    fn column_index(&self, column: &str) -> Result<usize, String> {
        self.columns
            .iter()
            .position(|name| name == column)
            .ok_or_else(|| format!("table {:?} has no column {column:?}", self.title))
    }

    /// The number in `column` of the row whose first cell prints as `key`.
    pub fn lookup(&self, key: &str, column: &str) -> Result<f64, String> {
        let index = self.column_index(column)?;
        self.rows
            .iter()
            .find(|row| row.first().is_some_and(|first| first.to_string() == key))
            .and_then(|row| row.get(index))
            .and_then(Cell::number)
            .ok_or_else(|| format!("table {:?} has no number at ({key:?}, {column:?})", self.title))
    }

    /// Header and rows, each line behind `pad`: a column is as wide as its
    /// widest entry, labels flush left and everything else flush right.
    fn write_grid(&self, f: &mut fmt::Formatter<'_>, pad: &str) -> fmt::Result {
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|row| row.iter().map(ToString::to_string).collect()).collect();
        let cell_at = |row: &Vec<String>, at: usize| row.get(at).map_or(0, |c| c.chars().count());
        let layout: Vec<(usize, bool)> = (self.columns.iter().enumerate())
            .map(|(at, name)| {
                let width = rendered.iter().map(|row| cell_at(row, at)).max().unwrap_or(0);
                let labels = self.rows.iter().all(|row| matches!(row.get(at), Some(Cell::Text(_))));
                (width.max(name.chars().count()), labels)
            })
            .collect();
        for line in std::iter::once(&self.columns).chain(&rendered) {
            let mut text = String::new();
            for (entry, (width, labels)) in line.iter().zip(&layout) {
                let _ = if *labels {
                    write!(text, "{entry:<width$}  ")
                } else {
                    write!(text, "{entry:>width$}  ")
                };
            }
            writeln!(f, "{pad}{}", text.trim_end())?;
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.title.is_empty() {
            writeln!(f, "-- {} --", self.title)?;
        }
        self.write_grid(f, "")?;
        if !self.note.is_empty() {
            writeln!(f, "note: {}", self.note)?;
        }
        Ok(())
    }
}

/// What a report holds under one key.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Cell(Cell),
    Table(Table),
    Report(Report),
    List(Vec<Report>),
}

/// An ordered tree of named cells, tables, sub-reports and lists of
/// sub-reports; both renderers walk it in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    entries: Vec<(String, Node)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first two lines of every committed `BENCH_<bench>.json`: the
    /// command that regenerates the file, and whether this was a smoke run.
    pub fn bench(bench: &str, smoke: bool) -> Self {
        let flag = if smoke { " -- --smoke" } else { "" };
        let command = format!("cargo bench -p netshed-bench --bench {bench}{flag}");
        Self::new().cell("generated_by", command).cell("smoke", smoke)
    }

    /// One record: `columns[i]` names `cells[i]`.
    pub fn record(columns: &[String], cells: impl IntoIterator<Item = Cell>) -> Self {
        let entries = columns.iter().cloned().zip(cells.into_iter().map(Node::Cell)).collect();
        Self { entries }
    }

    fn with(mut self, key: &str, node: Node) -> Self {
        self.entries.push((key.to_string(), node));
        self
    }

    /// Appends every entry of `other`, in its order.
    pub fn extend(mut self, other: Report) -> Self {
        self.entries.extend(other.entries);
        self
    }

    /// Appends a scalar.
    pub fn cell(self, key: &str, cell: impl Into<Cell>) -> Self {
        self.with(key, Node::Cell(cell.into()))
    }

    /// Appends a table (in JSON: the array of its rows, keyed by column).
    pub fn table(self, key: &str, table: Table) -> Self {
        self.with(key, Node::Table(table))
    }

    /// Appends a sub-report.
    pub fn report(self, key: &str, report: Report) -> Self {
        self.with(key, Node::Report(report))
    }

    /// Appends a list of sub-reports.
    pub fn list(self, key: &str, reports: Vec<Report>) -> Self {
        self.with(key, Node::List(reports))
    }

    /// The report as JSON, newline-terminated: one scalar `"key": value` per
    /// line, keys in insertion order, a non-finite number written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        out.push('{');
        for (at, (key, node)) in self.entries.iter().enumerate() {
            out.push_str(if at == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "{pad}{}: ", json_string(key));
            match node {
                Node::Cell(cell) => out.push_str(&cell.json()),
                Node::Report(report) => report.write_json(out, depth + 1),
                Node::List(reports) => write_json_list(out, depth + 1, reports),
                Node::Table(table) => {
                    let records: Vec<Report> = (table.rows.iter())
                        .map(|row| Report::record(&table.columns, row.iter().cloned()))
                        .collect();
                    write_json_list(out, depth + 1, &records);
                }
            }
        }
        let _ = write!(out, "\n{}}}", "  ".repeat(depth));
    }

    fn write_text(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        for (key, node) in &self.entries {
            match node {
                Node::Cell(cell) => writeln!(f, "{pad}{key}: {cell}")?,
                Node::Report(report) => {
                    writeln!(f, "{pad}{key}:")?;
                    report.write_text(f, depth + 1)?;
                }
                Node::Table(table) => {
                    writeln!(f, "{pad}{key}:")?;
                    table.write_grid(f, &"  ".repeat(depth + 1))?;
                }
                Node::List(reports) => {
                    for (at, report) in reports.iter().enumerate() {
                        writeln!(f, "{pad}{key}[{at}]:")?;
                        report.write_text(f, depth + 1)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes the report where a bench's trajectory lives — `$BENCH_OUT`, or
    /// `file` at the workspace root (cargo runs a bench with the package
    /// directory as CWD, so the default is anchored to the manifest) — and
    /// echoes the JSON on stdout.
    pub fn publish(&self, file: &str) {
        let default_out = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let out = std::env::var("BENCH_OUT").unwrap_or(default_out);
        let json = self.to_json();
        // lint:allow(no-unwrap): a bench that cannot write its one output has nothing left to do
        std::fs::write(&out, &json).expect("write benchmark JSON");
        print!("{json}");
        eprintln!("wrote {out}");
    }
}

fn write_json_list(out: &mut String, depth: usize, reports: &[Report]) {
    let pad = "  ".repeat(depth + 1);
    out.push('[');
    for (at, report) in reports.iter().enumerate() {
        out.push_str(if at == 0 { "\n" } else { ",\n" });
        out.push_str(&pad);
        report.write_json(out, depth + 1);
    }
    let _ = write!(out, "\n{}]", "  ".repeat(depth));
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut views = Table::titled("views", &["name", "kept", "ns"]);
        views.row(["a".into(), 51usize.into(), num(5503.4, 0)]);
        views.row(["longer".into(), 1069usize.into(), num(19.25, 1)]);
        Report::new()
            .cell("zeta", "first in, first out")
            .cell("alpha", true)
            .table("views", views)
            .report("nested", Report::new().cell("share", num(0.5, 3)))
            .list("runs", vec![Report::new().cell("seed", 1u64), Report::new().cell("seed", 2u64)])
    }

    #[test]
    fn a_fixed_report_renders_to_pinned_text_and_json() {
        let text = [
            "zeta: first in, first out",
            "alpha: true",
            "views:",
            "  name    kept    ns",
            "  a         51  5503",
            "  longer  1069  19.2",
            "nested:",
            "  share: 0.500",
            "runs[0]:",
            "  seed: 1",
            "runs[1]:",
            "  seed: 2",
            "",
        ];
        assert_eq!(sample().to_string(), text.join("\n"));
        let json = r#"{
  "zeta": "first in, first out",
  "alpha": true,
  "views": [
    {
      "name": "a",
      "kept": 51,
      "ns": 5503
    },
    {
      "name": "longer",
      "kept": 1069,
      "ns": 19.2
    }
  ],
  "nested": {
    "share": 0.500
  },
  "runs": [
    {
      "seed": 1
    },
    {
      "seed": 2
    }
  ]
}
"#;
        assert_eq!(sample().to_json(), json);
    }

    #[test]
    fn text_aligns_ragged_rows_to_the_widest_entry() {
        let mut table = Table::titled("ragged", &["query", "error %", "n"]);
        table.row(["counter".into(), num(3.136, 2), 7usize.into()]);
        table.row(["p2p-detector".into(), num(123.4, 2)]);
        table.row(["x".into()]);
        table.note = "one row is short".to_string();
        let rendered = table.to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(
            lines,
            [
                "-- ragged --",
                "query         error %  n",
                "counter          3.14  7",
                "p2p-detector   123.40",
                "x",
                "note: one row is short",
            ]
        );
    }

    #[test]
    fn json_escapes_strings_and_writes_non_finite_numbers_as_null() {
        let report = Report::new()
            .cell("quote\"back\\slash", "line\nbreak\ttab\u{1}bell\u{7f}")
            .cell("nan", num(f64::NAN, 2))
            .cell("inf", num(f64::INFINITY, 2))
            .cell("neg_inf", num(f64::NEG_INFINITY, 0))
            .cell("finite", num(-0.5, 2));
        let json = report.to_json();
        let escaped = r#""quote\"back\\slash": "line\nbreak\ttab\u0001bell\u007f""#;
        assert!(json.contains(escaped), "{json}");
        for key in ["nan", "inf", "neg_inf"] {
            assert!(json.contains(&format!("\"{key}\": null")), "{key}: {json}");
        }
        assert!(json.contains("\"finite\": -0.50"), "{json}");
        // The text renderer shows what was measured.
        assert!(report.to_string().contains("nan: NaN"));
    }

    #[test]
    fn keys_keep_their_insertion_order_in_both_renderers() {
        let report = Report::new().cell("b", 1u64).cell("a", 2u64).cell("c", 3u64);
        let position = |text: &str, key: &str| text.find(key).expect("key rendered");
        for text in [report.to_json(), report.to_string()] {
            assert!(position(&text, "b") < position(&text, "a"));
            assert!(position(&text, "a") < position(&text, "c"));
        }
    }

    #[test]
    fn tables_answer_lookups_and_explain_misses() {
        let mut table = Table::titled("t", &["system", "drops", "share"]);
        table.row(["predictive".into(), 0u64.into(), num(0.25, 2)]);
        table.row(["original".into(), 120u64.into(), num(0.5, 2)]);
        assert_eq!(table.lookup("original", "drops"), Ok(120.0));
        table.push(num(0.4, 1), 0, [7.0, 1.0]);
        assert_eq!(table.lookup("0.4", "drops"), Ok(7.0), "rows are found by what they print");
        assert!(table.lookup("reactive", "drops").expect_err("no such row").contains("reactive"));
        assert!(table.lookup("original", "system").is_err(), "a label is not a number");
        assert!(table.lookup("original", "nope").expect_err("no such column").contains("nope"));
    }
}
