//! Plain-text table rendering and parameter sweeps for the experiment
//! binaries.

use regemu_bounds::Params;
use std::fmt;

/// A simple fixed-column text table used by the `regemu-bench` binaries to
/// print paper-style tables on stdout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells should match the headers.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
            writeln!(f, "{}", "=".repeat(self.title.len()))?;
        }
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>width$}  ", width = w));
            }
            writeln!(f, "{}", line.trim_end())
        };
        render_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total.saturating_sub(2)))?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

/// The standard parameter sweep used by the Table 1 experiment: a grid of
/// `k`, `f` and `n` values starting at the minimum `n = 2f + 1`.
pub fn standard_sweep() -> Vec<Params> {
    let mut points = Vec::new();
    for f in 1..=3usize {
        for k in [1usize, 2, 3, 4, 6, 8] {
            for extra in [0usize, 1, f, 2 * f, k * f] {
                let n = 2 * f + 1 + extra;
                if let Ok(p) = Params::new(k, f, n) {
                    points.push(p);
                }
            }
        }
    }
    points.sort_by_key(|p| (p.f, p.k, p.n));
    points.dedup();
    points
}

/// A small sweep (fast enough for CI-style smoke tests of the experiment
/// binaries).
pub fn small_sweep() -> Vec<Params> {
    [
        (1, 1, 3),
        (2, 1, 3),
        (2, 1, 4),
        (3, 1, 5),
        (2, 2, 5),
        (5, 2, 6),
    ]
    .into_iter()
    .map(|(k, f, n)| Params::new(k, f, n).unwrap())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["k", "lower", "upper"]);
        t.push_row(["1", "3", "3"]);
        t.push_row(["10", "30", "33"]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("===="));
        assert!(s.contains("lower"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.headers.len(), 3);
        assert_eq!(t.rows()[1][2], "33");
        // Every rendered line of the body ends without trailing spaces.
        for line in s.lines() {
            assert_eq!(line, line.trim_end());
        }
    }

    #[test]
    fn standard_sweep_is_valid_sorted_and_deduplicated() {
        let sweep = standard_sweep();
        assert!(sweep.len() > 20);
        for p in &sweep {
            assert!(p.n >= 2 * p.f + 1);
            assert!(p.k >= 1);
        }
        let mut sorted = sweep.clone();
        sorted.sort_by_key(|p| (p.f, p.k, p.n));
        sorted.dedup();
        assert_eq!(sweep, sorted);
    }

    #[test]
    fn small_sweep_contains_the_figure_1_point() {
        let sweep = small_sweep();
        assert!(sweep.contains(&Params::new(5, 2, 6).unwrap()));
        assert_eq!(sweep.len(), 6);
    }
}
