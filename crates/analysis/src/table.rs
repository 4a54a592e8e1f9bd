//! Result tables.
//!
//! Every experiment in the `repro` harness produces a [`Table`] which can be
//! rendered as Markdown (for reading), CSV (for plotting) or JSON
//! (for machine comparison against the paper's numbers).

use crate::json::Json;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A simple rectangular results table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Table title (e.g. `"Table II: probability of line 0 being evicted"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each row should have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the row width does not match the headers.
    pub fn push_row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} does not match {} headers",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Appends already-formatted rows (e.g. the per-point rows collected by
    /// the parallel scenario runner) in iteration order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any row width does not match the headers.
    pub fn extend_rows<I>(&mut self, rows: I) -> &mut Self
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        for row in rows {
            self.push_row(row);
        }
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (headers first, comma separated, quoting cells
    /// that contain commas or quotes).
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Serialises the table as pretty JSON.
    ///
    /// Hand-rolled (no `serde_json` in the offline build): a `Table` is just
    /// strings, string arrays and arrays of string arrays, so the encoder
    /// fits in a screen of code and [`Table::from_json`] round-trips it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"headers\": [\n");
        for (i, h) in self.headers.iter().enumerate() {
            let comma = if i + 1 < self.headers.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", json_string(h), comma));
        }
        out.push_str("  ],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    [{}]{}\n", cells.join(", "), comma));
        }
        out.push_str("  ]\n}");
        out
    }

    /// Renders the table as NDJSON (newline-delimited JSON): one compact
    /// `{"type":"table",...}` header line carrying the stem, title and
    /// column headers, then one `{"type":"row",...}` line per data row.
    ///
    /// This is the streaming row format of the experiment service: rows can
    /// be concatenated across tables (each line names its `stem`), consumed
    /// line-by-line without a JSON parser that handles nesting, and — being
    /// a pure function of the table — compared byte-for-byte across runs.
    pub fn to_ndjson(&self, stem: &str) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| json_string(h)).collect();
        let mut out = format!(
            "{{\"type\":\"table\",\"stem\":{},\"title\":{},\"headers\":[{}]}}\n",
            json_string(stem),
            json_string(&self.title),
            headers.join(",")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
            out.push_str(&format!(
                "{{\"type\":\"row\",\"stem\":{},\"cells\":[{}]}}\n",
                json_string(stem),
                cells.join(",")
            ));
        }
        out
    }

    /// Parses a table from the JSON produced by [`Table::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the JSON reader's message for a malformed document (see
    /// [`Json::parse`]), or names the shape problem: the document must be an
    /// object with exactly the keys `title` (a string), `headers` (an array
    /// of strings) and `rows` (an array of arrays of strings), each once, in
    /// any order.
    pub fn from_json(json: &str) -> Result<Table, String> {
        let json = Json::parse(json)?;
        let Json::Object(fields) = &json else {
            return Err("a table must be a JSON object".to_owned());
        };
        // Three keys that include all three names: each once, nothing else.
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        if keys.len() != 3
            || ["title", "headers", "rows"]
                .iter()
                .any(|k| !keys.contains(k))
        {
            return Err(format!(
                "a table has exactly the keys \"title\", \"headers\" and \"rows\", found {keys:?}"
            ));
        }
        let strings = |value: &Json| -> Option<Vec<String>> {
            value
                .as_array()?
                .iter()
                .map(|v| v.as_str().map(str::to_owned))
                .collect()
        };
        Ok(Table {
            title: json
                .get("title")
                .and_then(Json::as_str)
                .ok_or("\"title\" must be a string")?
                .to_owned(),
            headers: json
                .get("headers")
                .and_then(strings)
                .ok_or("\"headers\" must be an array of strings")?,
            rows: json
                .get("rows")
                .and_then(Json::as_array)
                .and_then(|rows| rows.iter().map(strings).collect())
                .ok_or("\"rows\" must be an array of arrays of strings")?,
        })
    }

    /// Writes the Markdown, CSV and JSON renderings next to each other:
    /// `<stem>.md`, `<stem>.csv` and `<stem>.json`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the parent directory or writing
    /// the files.
    pub fn write_all_formats(&self, stem: &Path) -> io::Result<()> {
        if let Some(parent) = stem.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(stem.with_extension("md"), self.to_markdown())?;
        fs::write(stem.with_extension("csv"), self.to_csv())?;
        fs::write(stem.with_extension("json"), self.to_json())?;
        Ok(())
    }
}

/// Encodes a string as a JSON string literal (quotes, escapes, control
/// characters). Public because the hand-rolled JSON emitters elsewhere in
/// the workspace (the experiment service's status lines, the NDJSON rows)
/// share this one escaper rather than growing their own.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fixed-width plain-text rendering for terminal output.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        let render_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| {
                    format!(
                        "{:width$}",
                        cell,
                        width = widths.get(i).copied().unwrap_or(0)
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

/// Formats a probability as a percentage with one decimal, as the paper's
/// tables do (e.g. `68.8%`).
pub fn percent(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

/// Formats a ratio as a percentage with two decimals (Table VII style).
pub fn percent2(p: f64) -> String {
    format!("{:.2}%", p * 100.0)
}

/// Formats a floating value with the given number of decimals.
pub fn fixed(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Demo", &["N", "LRU", "Intel"]);
        t.push_row(["8", "100%", "68.8%"]);
        t.push_row(["9", "100%", "81.7%"]);
        t
    }

    #[test]
    fn markdown_rendering_has_header_separator_and_rows() {
        let md = sample_table().to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| N | LRU | Intel |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 9 | 100% | 81.7% |"));
    }

    #[test]
    fn csv_rendering_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(["1,5", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    fn json_round_trips() {
        let t = sample_table();
        let json = t.to_json();
        let back = Table::from_json(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_round_trips_escapes_and_empty_rows() {
        let mut t = Table::new("quote \" backslash \\ newline \n tab \t", &["a,b", ""]);
        t.push_row(["control \u{1} char", "ünïcödé ✓"]);
        let back = Table::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        let empty = Table::new("", &[]);
        assert_eq!(Table::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn ndjson_has_one_header_line_and_one_line_per_row() {
        let ndjson = sample_table().to_ndjson("table2");
        let lines: Vec<&str> = ndjson.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"table\",\"stem\":\"table2\",\"title\":\"Demo\",\
             \"headers\":[\"N\",\"LRU\",\"Intel\"]}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"row\",\"stem\":\"table2\",\"cells\":[\"8\",\"100%\",\"68.8%\"]}"
        );
        assert!(ndjson.ends_with('\n'));
        // Deterministic: same table, same bytes.
        assert_eq!(ndjson, sample_table().to_ndjson("table2"));
    }

    #[test]
    fn ndjson_escapes_special_characters() {
        let mut t = Table::new("title \"q\"", &["a\nb"]);
        t.push_row(["cell \\ tab\t"]);
        let ndjson = t.to_ndjson("s");
        assert!(ndjson.contains("\"title \\\"q\\\"\""));
        assert!(ndjson.contains("\"a\\nb\""));
        assert!(ndjson.contains("\"cell \\\\ tab\\t\""));
        // Every line is itself minimal JSON: no raw newlines inside a line.
        assert_eq!(ndjson.lines().count(), 2);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(Table::from_json("").is_err());
        assert!(Table::from_json("{\"title\": \"x\"}").is_err());
        assert!(Table::from_json("{\"title\": \"unterminated").is_err());
        let valid = sample_table().to_json();
        assert!(Table::from_json(&format!("{valid} trailing")).is_err());
    }

    #[test]
    fn from_json_accepts_only_the_table_shape() {
        let valid = "{\"title\": \"t\", \"headers\": [\"a\"], \"rows\": [[\"1\"]]}";
        assert_eq!(Table::from_json(valid).unwrap().rows, [["1"]]);
        // Key order and layout are free; `to_json` is only one layout.
        let reordered = "{\"rows\":[],\"headers\":[],\"title\":\"\"}";
        assert_eq!(Table::from_json(reordered).unwrap(), Table::new("", &[]));
        let too_deep = format!(
            "{{\"title\": \"t\", \"headers\": [], \"rows\": [{}{}]}}",
            "[".repeat(40),
            "]".repeat(40)
        );
        for (json, problem) in [
            (
                "{\"title\": \"t\", \"headers\": [\"a\"]}",
                "found [\"title\", \"headers\"]",
            ),
            (
                "{\"title\": \"t\", \"title\": \"u\", \"headers\": [], \"rows\": []}",
                "found [\"title\", \"title\", \"headers\", \"rows\"]",
            ),
            (
                "{\"title\": \"t\", \"headers\": [], \"rows\": [], \"notes\": \"\"}",
                "found [\"title\", \"headers\", \"rows\", \"notes\"]",
            ),
            (
                "{\"title\": 7, \"headers\": [], \"rows\": []}",
                "\"title\" must be a string",
            ),
            (
                "{\"title\": \"t\", \"headers\": [null], \"rows\": []}",
                "\"headers\" must be an array of strings",
            ),
            (
                "{\"title\": \"t\", \"headers\": [\"a\"], \"rows\": [[1]]}",
                "\"rows\" must be an array of arrays of strings",
            ),
            (
                "{\"title\": \"t\", \"headers\": [\"a\"], \"rows\": [\"1\"]}",
                "\"rows\" must be an array of arrays of strings",
            ),
            ("[\"t\", [], []]", "JSON object"),
            (&format!("{valid} {{}}"), "trailing data"),
            (&too_deep, "nesting deeper than 32"),
        ] {
            let error = Table::from_json(json).unwrap_err();
            assert!(error.contains(problem), "{json}: {error}");
        }
    }

    #[test]
    fn a_table_of_half_a_megabyte_round_trips() {
        let mut t = Table::new(
            "large \"quoted\" ünïcödé",
            &["id", "seed", "cells", "status"],
        );
        for i in 0..4_500 {
            t.push_row([
                format!("scenario-{i}"),
                format!("0x{:016x}", i * 7_919),
                format!("a,b \\ \"c\"\t{}", "x".repeat(i % 100)),
                "ok ✓".to_owned(),
            ]);
        }
        let json = t.to_json();
        assert!(json.len() >= 500 * 1024, "{} bytes", json.len());
        assert_eq!(Table::from_json(&json).unwrap(), t);
    }

    #[test]
    fn display_renders_fixed_width() {
        let text = sample_table().to_string();
        assert!(text.contains("Demo"));
        assert!(text.contains("68.8%"));
    }

    #[test]
    fn write_all_formats_creates_three_files() {
        let dir = std::env::temp_dir().join(format!("analysis-table-test-{}", std::process::id()));
        let stem = dir.join("nested").join("table2");
        sample_table().write_all_formats(&stem).unwrap();
        assert!(stem.with_extension("md").exists());
        assert!(stem.with_extension("csv").exists());
        assert!(stem.with_extension("json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extend_rows_appends_in_order() {
        let mut t = sample_table();
        t.extend_rows(vec![vec![
            "10".to_owned(),
            "99%".to_owned(),
            "50%".to_owned(),
        ]]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows[2][0], "10");
    }

    #[test]
    fn ndjson_of_an_empty_table_is_just_the_header_line() {
        // A scenario can legitimately assemble zero rows (e.g. a filtered
        // sweep); the stream must still announce the table so consumers see
        // the stem and columns.
        let headless = Table::new("", &[]);
        assert_eq!(
            headless.to_ndjson("empty"),
            "{\"type\":\"table\",\"stem\":\"empty\",\"title\":\"\",\"headers\":[]}\n"
        );
        let rowless = Table::new("No rows", &["a", "b"]);
        let ndjson = rowless.to_ndjson("rowless");
        assert_eq!(ndjson.lines().count(), 1);
        assert!(ndjson.ends_with('\n'));
        assert!(!ndjson.contains("\"type\":\"row\""));
    }

    #[test]
    fn ndjson_and_json_pass_unicode_cells_through_verbatim() {
        // Non-ASCII is emitted as raw UTF-8, not \u escapes: the NDJSON
        // consumer reads lines as UTF-8 and byte-for-byte determinism must
        // not depend on an escaping pass.
        let mut t = Table::new("BER ≈ 0 — gréât", &["préset", "误码率"]);
        t.push_row(["arm-poc ✓", "0.00 %"]);
        let ndjson = t.to_ndjson("ünïcode");
        assert!(ndjson.contains("\"BER ≈ 0 — gréât\""));
        assert!(ndjson.contains("\"误码率\""));
        assert!(ndjson.contains("\"arm-poc ✓\""));
        assert_eq!(ndjson.lines().count(), 2);
        // And the strict JSON form round-trips the same cells unchanged.
        let parsed = Table::from_json(&t.to_json()).expect("unicode round trip");
        assert_eq!(parsed, t);
    }

    #[test]
    #[should_panic(expected = "row width 2 does not match 3 headers")]
    fn extend_rows_rejects_mismatched_row_widths_in_debug() {
        let mut t = sample_table();
        t.extend_rows(vec![vec!["only".to_owned(), "two".to_owned()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.688), "68.8%");
        assert_eq!(percent2(0.0359), "3.59%");
        assert_eq!(fixed(1.23456, 2), "1.23");
        assert!(sample_table().len() == 2 && !sample_table().is_empty());
    }
}
