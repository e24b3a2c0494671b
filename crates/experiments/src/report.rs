//! Result reporting: aligned console tables and JSON artifacts.

use std::fmt::Write as _;

use serde::Serialize;

use crate::runner::RunCfg;

/// A simple fixed-layout console table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cell, width = widths[c]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Writes `text` to `file` under `cfg.results_dir`. Failures are reported
/// but not fatal — the console table is the primary output.
pub fn write_artifact(cfg: &RunCfg, file: &str, text: &str) {
    let path = cfg.results_dir.join(file);
    match std::fs::create_dir_all(&cfg.results_dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Serialises `value` as pretty JSON into `<name>.json` under
/// `cfg.results_dir`.
pub fn write_json<T: Serialize>(cfg: &RunCfg, name: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => write_artifact(cfg, &format!("{name}.json"), &json),
        Err(e) => eprintln!("warning: cannot serialise {name}: {e}"),
    }
}

/// Renders a set of CDFs as an ASCII plot (probability 0–1 on the y axis,
/// log-scaled x axis), mirroring the paper's latency CDF figures.
///
/// Each series is `(label, points)` with points as `(value, probability)`
/// sorted by value. Returns the multi-line plot.
pub fn ascii_cdf<S: AsRef<str>>(
    series: &[(S, &[(f64, f64)])],
    width: usize,
    height: usize,
) -> String {
    const MARKS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
    let finite_min = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(v, _)| v))
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    let max = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(v, _)| v))
        .fold(0.0f64, f64::max);
    if !finite_min.is_finite() || max <= finite_min {
        return String::from("(no data)\n");
    }
    let (lo, hi) = (finite_min.ln(), max.ln());
    let col_of = |v: f64| -> usize {
        if v <= finite_min {
            0
        } else {
            (((v.ln() - lo) / (hi - lo)) * (width - 1) as f64).round() as usize
        }
    };
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(v, p) in *pts {
            let col = col_of(v).min(width - 1);
            let row = ((1.0 - p) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col] = mark;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let p = 1.0 - r as f64 / (height - 1) as f64;
        let _ = writeln!(out, "{p:4.2} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "     +{}", "-".repeat(width));
    // Log-scale tick labels at the ends and middle.
    let mid = (finite_min.ln() + (hi - lo) / 2.0).exp();
    let _ = writeln!(
        out,
        "      {:<.3}{:^w$.3}{:>.3}",
        finite_min,
        mid,
        max,
        w = width.saturating_sub(8)
    );
    for (si, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "      {} {}", MARKS[si % MARKS.len()], label.as_ref());
    }
    out
}

/// Writes labelled CDF series as a long-format CSV
/// (`series,value,probability`) into `<name>.csv` under
/// `cfg.results_dir` — directly plottable with gnuplot/matplotlib for
/// paper-style figures.
pub fn write_csv_cdf(cfg: &RunCfg, name: &str, series: &[(String, &[(f64, f64)])]) {
    let mut csv = String::from("series,value,probability\n");
    for (label, pts) in series {
        for (v, p) in *pts {
            let _ = writeln!(csv, "{label},{v},{p}");
        }
    }
    write_artifact(cfg, &format!("{name}.csv"), &csv);
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats bits/s as Mbps with one decimal.
pub fn mbps(bps: f64) -> String {
    format!("{:.1}", bps / 1e6)
}

/// Whether `flag`, the one flag an experiment accepts (its `flag` entry in
/// the `wifiq` table), is among `args`. Any other argument is an error
/// naming it: a typo'd flag must not run the default variant and overwrite
/// that variant's results.
pub fn parse_flag(flag: Option<&str>, args: &[String]) -> Result<bool, String> {
    match args.iter().find(|arg| Some(arg.as_str()) != flag) {
        Some(arg) => Err(match flag {
            Some(flag) => format!("unknown argument {arg:?} (the only flag is {flag})"),
            None => format!("unknown argument {arg:?} (this experiment takes none)"),
        }),
        None => Ok(!args.is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_typod_flag_is_an_error_not_the_default() {
        let of = |flag, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_flag(flag, &args)
        };
        let bidir = Some("--bidir");
        assert_eq!(of(bidir, &[]), Ok(false));
        assert_eq!(of(bidir, &["--bidir"]), Ok(true));
        assert!(of(bidir, &["--bidr"]).unwrap_err().contains("\"--bidr\""));
        assert!(of(bidir, &["--bidir", "x"]).unwrap_err().contains("\"x\""));
        assert_eq!(of(None, &[]), Ok(false));
        assert!(of(None, &["--bidir"]).unwrap_err().contains("\"--bidir\""));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["Scheme", "Value"]);
        t.row(vec!["FIFO", "1.0"]);
        t.row(vec!["Airtime fair FQ", "42.123"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Scheme"));
        assert!(lines[3].starts_with("Airtime fair FQ"));
        // Columns align: "Value" column starts at the same offset.
        let col = lines[0].find("Value").unwrap();
        assert_eq!(lines[2].find("1.0").unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn ascii_cdf_renders() {
        let a: Vec<(f64, f64)> = (1..=20).map(|i| (i as f64, i as f64 / 20.0)).collect();
        let b: Vec<(f64, f64)> = (1..=20)
            .map(|i| (i as f64 * 10.0, i as f64 / 20.0))
            .collect();
        let plot = ascii_cdf(&[("fast", &a), ("slow", &b)], 60, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
        assert!(plot.contains("fast"));
        assert!(plot.contains("1.00 |"));
        assert!(plot.lines().count() >= 14);
    }

    #[test]
    fn ascii_cdf_empty() {
        assert_eq!(ascii_cdf(&[("x", &[])], 40, 8), "(no data)\n");
    }

    #[test]
    fn csv_cdf_writes_long_format() {
        let dir = std::env::temp_dir().join(format!("wifiq_csv_{}", std::process::id()));
        let cfg = RunCfg {
            results_dir: dir.clone(),
            ..RunCfg::new()
        };
        let pts = [(1.0, 0.5), (2.0, 1.0)];
        write_csv_cdf(&cfg, "unit_test_cdf", &[("a".to_string(), &pts[..])]);
        let body = std::fs::read_to_string(dir.join("unit_test_cdf.csv")).unwrap();
        assert!(body.starts_with("series,value,probability\n"));
        assert!(body.contains("a,1,0.5"));
        assert!(body.contains("a,2,1"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.333), "33.3%");
        assert_eq!(mbps(42_000_000.0), "42.0");
    }
}
