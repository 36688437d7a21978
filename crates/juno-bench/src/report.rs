//! Table rows as JSON lines.
//!
//! Every table the `figures` binary reproduces is printed one row per line,
//! `{"figure":"<panel>","table":"<title>","cells":{"<column>":"<cell>",…}}`,
//! with the columns in header order and every cell the string a plain-text
//! table would show. `results/figures.jsonl` records that output and CI diffs
//! a fresh run against it.

/// One table of a figure panel: a title and column headers, each row printed
/// as it is added.
#[derive(Debug, Clone)]
pub struct Table {
    figure: String,
    title: String,
    header: Vec<String>,
}

impl Table {
    /// Creates a table of panel `figure` (`fig13a`) with the given title and
    /// column headers.
    pub fn new(figure: &str, title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            figure: figure.to_string(),
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Prints one row to stdout; the cell count should match the header.
    pub fn row(&self, cells: Vec<String>) {
        print!("{}", self.json_line(&cells));
    }

    /// One row as a JSON line ending in `\n`.
    pub(crate) fn json_line(&self, cells: &[String]) -> String {
        let cells: Vec<String> = (self.header.iter().zip(cells))
            .map(|(h, c)| format!("{}:{}", json_string(h), json_string(c)))
            .collect();
        format!(
            "{{\"figure\":{},\"table\":{},\"cells\":{{{}}}}}\n",
            json_string(&self.figure),
            json_string(&self.title),
            cells.join(",")
        )
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float with a sensible number of significant digits for reports.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_is_one_json_line_in_header_order() {
        let t = Table::new("fig13a", "Fig. \"13\" — a\tb", &["name", "R1@100"]);
        assert_eq!(
            t.json_line(&["a\\b".into(), "1.00".into()]),
            "{\"figure\":\"fig13a\",\"table\":\"Fig. \\\"13\\\" — a\\u0009b\",\
             \"cells\":{\"name\":\"a\\\\b\",\"R1@100\":\"1.00\"}}\n"
        );
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(2.46801), "2.47");
        assert_eq!(fmt_f64(0.12345), "0.1235");
    }
}
