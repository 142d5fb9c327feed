//! Rendering helpers: paper-style tables and heatmaps as plain text.

/// Formats seconds with an adaptive engineering unit.
pub fn fmt_time(seconds: f64) -> String {
    let (v, u) = if seconds >= 1.0 {
        (seconds, "s")
    } else if seconds >= 1.0e-3 {
        (seconds * 1.0e3, "ms")
    } else if seconds >= 1.0e-6 {
        (seconds * 1.0e6, "µs")
    } else if seconds >= 1.0e-9 {
        (seconds * 1.0e9, "ns")
    } else {
        (seconds * 1.0e12, "ps")
    };
    format!("{v:.2} {u}")
}

/// Formats hertz with an adaptive engineering unit.
pub fn fmt_freq(hz: f64) -> String {
    let (v, u) = if hz >= 1.0e9 {
        (hz / 1.0e9, "GHz")
    } else if hz >= 1.0e6 {
        (hz / 1.0e6, "MHz")
    } else if hz >= 1.0e3 {
        (hz / 1.0e3, "kHz")
    } else {
        (hz, "Hz")
    };
    format!("{v:.2} {u}")
}

/// Renders a simple aligned table. `header` and every row must share the
/// same column count.
///
/// # Panics
/// Panics if a row's width differs from the header's.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    for r in rows {
        assert_eq!(r.len(), cols, "table row width mismatch");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Renders a width matrix like the paper's Figure 13/14 heatmaps:
/// rows = back-end pipes (3–7), columns = front-end width (1–6).
pub fn render_matrix(title: &str, fe: &[usize], be: &[usize], values: &[Vec<f64>]) -> String {
    let mut out = format!("{title}\n       ");
    for f in fe {
        out.push_str(&format!("fe={f:<5}"));
    }
    out.push('\n');
    for (r, b) in be.iter().enumerate() {
        out.push_str(&format!("be={b}   "));
        for v in values[r].iter().take(fe.len()) {
            out.push_str(&format!("{v:.2}   "));
        }
        out.push('\n');
    }
    out
}

/// Renders a normalized series `(x, y)` as an aligned two-column list.
pub fn render_series(title: &str, xs: &[usize], ys: &[f64]) -> String {
    let mut out = format!("{title}\n");
    for (x, y) in xs.iter().zip(ys) {
        out.push_str(&format!("  {x:>3}  {y:.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_freq_units() {
        assert_eq!(fmt_time(1.5e-3), "1.50 ms");
        assert_eq!(fmt_time(2.0e-11), "20.00 ps");
        assert_eq!(fmt_freq(1.36e9), "1.36 GHz");
        assert_eq!(fmt_freq(198.0), "198.00 Hz");
    }

    #[test]
    fn table_aligns() {
        let t = render_table(
            &["cell", "delay"],
            &[
                vec!["inv".into(), "1.0".into()],
                vec!["nand2".into(), "1.4".into()],
            ],
        );
        assert!(t.contains("nand2"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn series_renders_pairs() {
        let s = render_series("t", &[9, 10], &[1.0, 1.25]);
        assert!(s.contains("10  1.250"));
    }
}
