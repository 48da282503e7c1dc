//! Fixed-width text rendering for the report binaries.

/// A simple aligned text table (first column left-aligned, the rest
/// right-aligned), used by the Table I/II/III regenerators.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with padded columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cells[i].chars().count());
                if i == 0 {
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// A figure rendered as aligned data columns: one x column plus one
/// column per named series — the textual equivalent of the paper's
/// plots, and directly plottable.
#[derive(Debug, Clone)]
pub struct Series {
    x_label: String,
    names: Vec<String>,
    points: Vec<(String, Vec<f64>)>,
}

impl Series {
    /// Creates a figure with the x-axis label and series names.
    pub fn new<S: Into<String>>(x_label: S, names: Vec<S>) -> Self {
        Series {
            x_label: x_label.into(),
            names: names.into_iter().map(Into::into).collect(),
            points: Vec::new(),
        }
    }

    /// Appends one x position with a value per series.
    pub fn point<S: Into<String>>(&mut self, x: S, values: Vec<f64>) {
        assert_eq!(values.len(), self.names.len(), "value count mismatch");
        self.points.push((x.into(), values));
    }

    /// Renders as an aligned table with 4-significant-digit values.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            std::iter::once(self.x_label.clone())
                .chain(self.names.iter().cloned())
                .collect(),
        );
        for (x, values) in &self.points {
            table.row(
                std::iter::once(x.clone())
                    .chain(values.iter().map(|v| format!("{v:.4}")))
                    .collect(),
            );
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "12345"]);
        let out = t.render();
        assert_eq!(
            out,
            "name    value\n-------------\na           1\nlonger  12345"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn series_renders_all_columns() {
        let mut s = Series::new("weight", vec!["8p", "16p"]);
        s.point("2", vec![0.01, 0.02]);
        s.point("100", vec![0.005, 0.5]);
        let out = s.render();
        assert!(out.contains("weight"));
        assert!(out.contains("0.0100"));
        assert!(out.contains("0.5000"));
        assert_eq!(out.lines().count(), 4);
    }
}
