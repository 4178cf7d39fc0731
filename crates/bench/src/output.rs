//! Text-table and CSV rendering.

/// Render an aligned text table: headers plus rows, columns padded to
/// their widest cell, numeric-looking cells right-aligned.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    for r in rows {
        assert_eq!(r.len(), ncols, "row width mismatch");
    }
    if ncols == 0 {
        // The separator width below is `sum + 2*(ncols-1)`, which
        // underflows on a zero-column table; there is nothing to
        // render anyway.
        return String::new();
    }
    let mut width = vec![0usize; ncols];
    for (c, h) in headers.iter().enumerate() {
        width[c] = h.len();
    }
    for r in rows {
        for (c, cell) in r.iter().enumerate() {
            width[c] = width[c].max(cell.len());
        }
    }
    let numeric: Vec<bool> = (0..ncols)
        .map(|c| {
            rows.iter().all(|r| {
                let s = r[c].trim();
                !s.is_empty() && s.chars().all(|ch| ch.is_ascii_digit() || ".,-+%eE".contains(ch))
            }) && !rows.is_empty()
        })
        .collect();
    let mut out = String::new();
    let line = |cells: &[String]| {
        let mut row = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                row.push_str("  ");
            }
            if numeric[c] {
                row.push_str(&format!("{:>w$}", cell, w = width[c]));
            } else {
                row.push_str(&format!("{:<w$}", cell, w = width[c]));
            }
        }
        row.trim_end().to_string()
    };
    out.push_str(&line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    out.push('\n');
    out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&line(r));
        out.push('\n');
    }
    out
}

/// Render CSV (quotes cells containing commas/quotes/newlines).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn field(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Microseconds at the paper's 400 MHz clock ([`qsm_simnet::CLOCK_HZ`]).
pub fn us_at_400mhz(cycles: f64) -> f64 {
    cycles / 400.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "123456".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        // numeric column right-aligned
        assert!(lines[2].ends_with("     1"));
    }

    #[test]
    fn csv_escapes_fields() {
        let c = csv(&["a", "b"], &[vec!["x,y".into(), "q\"r".into()]]);
        assert_eq!(c, "a,b\n\"x,y\",\"q\"\"r\"\n");
    }

    #[test]
    fn us_conversion() {
        assert_eq!(us_at_400mhz(400.0), 1.0);
        assert_eq!(us_at_400mhz(25_500.0), 63.75);
        // The divisor is the simulated clock in MHz.
        assert_eq!(qsm_simnet::CLOCK_HZ / 1e6, 400.0);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        let _ = table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn zero_column_table_is_empty_not_a_panic() {
        // Regression: the separator width `sum + 2*(ncols-1)` used to
        // underflow (debug panic / huge separator in release) on an
        // empty header list.
        assert_eq!(table(&[], &[]), "");
        assert_eq!(table(&[], &[vec![], vec![]]), "");
    }
}
