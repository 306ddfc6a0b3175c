//! Plain-text table rendering for experiment results.

/// Renders a table with a header row and aligned columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:<width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a ratio with two decimal places.
pub fn ratio(value: f64) -> String {
    format!("{value:.2}")
}

/// Geometric-mean helper used for normalized summaries.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut product = 0.0f64;
    let mut count = 0usize;
    for v in values {
        if v > 0.0 {
            product += v.ln();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (product / count as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_header_and_rows() {
        let table = render_table(
            "Demo",
            &["kernel", "cycles"],
            &[
                vec!["atax_u2".into(), "123".into()],
                vec!["gemm_u4".into(), "4567".into()],
            ],
        );
        assert!(table.contains("Demo"));
        assert!(table.contains("kernel"));
        assert!(table.contains("atax_u2"));
        assert!(table.contains("4567"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.379), "1.38");
    }

    #[test]
    fn geomean_of_identical_values() {
        let g = geomean([2.0, 2.0, 2.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(Vec::<f64>::new()), 0.0);
    }
}
