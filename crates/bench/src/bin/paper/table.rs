//! The one text-table writer of the harness.

use std::fmt::Display;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// `x` as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A streaming table: a left-aligned label column `first` characters wide
/// followed by right-aligned cells, all of one width sized to the longest
/// column head. Rows print as they are computed — a row of a trained
/// table takes minutes.
pub struct Table {
    first: usize,
    width: usize,
    cols: usize,
}

impl Table {
    /// A table with one column per entry of `heads`; prints nothing.
    pub fn new(first: usize, heads: &[&str]) -> Self {
        let width = heads.iter().map(|h| h.chars().count()).fold(10, usize::max);
        Self { first, width, cols: heads.len() }
    }

    /// [`new`](Self::new), then the head row between two rules.
    pub fn headed(label: &str, first: usize, heads: &[&str]) -> Self {
        let table = Self::new(first, heads);
        table.rule();
        table.row(label, heads);
        table.rule();
        table
    }

    /// A horizontal rule across the table.
    pub fn rule(&self) {
        println!("{}", "-".repeat(self.first + self.cols * (self.width + 1)));
    }

    /// One row: `label`, then the cells.
    pub fn row<C: Display>(&self, label: &str, cells: impl IntoIterator<Item = C>) {
        print!("{label:<first$}", first = self.first);
        for cell in cells {
            print!(" {cell:>width$}", width = self.width);
        }
        println!();
    }
}
