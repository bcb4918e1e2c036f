//! Plain-text and CSV rendering of experiment results.

use std::fmt::Write as _;

/// A simple aligned text table with CSV export.
///
/// # Examples
///
/// ```
/// use dcm_bench::format::TextTable;
///
/// let mut t = TextTable::new(["n", "throughput"]);
/// t.row(["36", "169.2"]);
/// let text = t.render();
/// assert!(text.contains("throughput"));
/// assert!(t.to_csv().starts_with("n,throughput"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (no quoting needed for numeric tables).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats an `f64` with fixed decimals, rendering non-finite values as
/// `-`.
pub fn num(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "-".to_string()
    }
}

/// One field of a result row: its column name and its value, formatted
/// once so the row's JSON object and its CSV line cannot disagree.
pub type Field = (&'static str, Value);

/// A formatted field value. JSON quotes [`Value::Text`]; CSV writes both
/// kinds bare.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A name (controller, trace).
    Text(&'static str),
    /// A number, already formatted.
    Num(String),
}

impl Value {
    /// An `f64` with the six decimals the result files carry.
    pub fn fixed(value: f64) -> Self {
        Value::Num(format!("{value:.6}"))
    }

    /// An integer count.
    pub fn int(value: impl std::fmt::Display) -> Self {
        Value::Num(value.to_string())
    }
}

/// Renders rows as indented one-line JSON objects, comma-separated, one
/// per line: the body of a JSON array.
pub fn json_rows<const N: usize>(rows: &[[Field; N]]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .iter()
            .map(|(key, value)| match value {
                Value::Text(s) => format!("\"{key}\": \"{s}\""),
                Value::Num(s) => format!("\"{key}\": {s}"),
            })
            .collect();
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {{{}}}{sep}", fields.join(", "));
    }
    out
}

/// Renders rows as CSV with the first row's keys as the header (empty
/// when there are no rows).
pub fn csv_rows<const N: usize>(rows: &[[Field; N]]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut table = TextTable::new(first.iter().map(|(key, _)| *key));
    for row in rows {
        table.row(row.iter().map(|(_, value)| match value {
            Value::Text(s) => (*s).to_string(),
            Value::Num(s) => s.clone(),
        }));
    }
    table.to_csv()
}

/// Asserts that each JSON cell row (a [`json_rows`] line with a `trace`
/// key) carries the same keys and values, in the same order, as the CSV
/// header and the matching CSV line.
#[cfg(test)]
pub(crate) fn assert_json_cells_match_csv(json: &str, csv: &str) {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"trace\"")).collect();
    assert_eq!(rows.len(), lines.clone().count(), "one CSV line per row");
    for (row, line) in rows.into_iter().zip(lines) {
        let body = row.trim().trim_end_matches(',');
        let body = body.strip_prefix('{').and_then(|b| b.strip_suffix('}'));
        let json_pairs: Vec<(&str, &str)> = body
            .expect("a one-line JSON object")
            .split(", ")
            .map(|kv| kv.split_once(": ").expect("key: value"))
            .map(|(k, v)| (k.trim_matches('"'), v.trim_matches('"')))
            .collect();
        let values: Vec<&str> = line.split(',').collect();
        assert_eq!(values.len(), header.len());
        let csv_pairs: Vec<(&str, &str)> = header.iter().copied().zip(values).collect();
        assert_eq!(json_pairs, csv_pairs, "JSON row and CSV line disagree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "long-header"]);
        t.row(["1", "2"]).row(["300", "4"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = TextTable::new(["x", "y"]);
        t.row(["1", "2.5"]);
        assert_eq!(t.to_csv(), "x,y\n1,2.5\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(f64::NAN, 2), "-");
        assert_eq!(num(f64::INFINITY, 1), "-");
    }
}
