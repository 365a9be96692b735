//! Presentation layer for the `hotspots` CLI.
//!
//! `hotspots run <preset>` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index) by looking its scenario up in the
//! `hotspots-scenario` registry, executing it through
//! [`hotspots_scenario::run_spec`], and rendering the returned
//! [`Outcome`] with the plain-text helpers here — so output can be
//! diffed, grepped, and pasted into `EXPERIMENTS.md`.
//!
//! Every helper renders into a `String` rather than printing: the CLI
//! writes stdout from one place, so a reader that closes the pipe early
//! ends the process quietly instead of panicking mid-table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;

use hotspots_stats::TimeSeries;

pub use hotspots_scenario::{
    find_preset, presets, run_spec, HotspotsError, Outcome, RunContext, Scale,
};

/// An experiment banner with the figure/table it regenerates and the
/// scale a preset runs at; `None` for a spec file, which states its own
/// sizes.
pub fn banner(artifact: &str, title: &str, scale: Option<Scale>) -> String {
    let rule = "================================================================";
    let scale = match scale {
        Some(Scale::Quick) => "QUICK (pass --quick for a fast smoke run)",
        Some(Scale::Paper) => "paper (pass --quick for a fast smoke run)",
        None => "as the spec file states",
    };
    format!("{rule}\n{artifact} — {title}\nscale: {scale}\n{rule}\n")
}

/// An aligned text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        out.push_str("  ");
        out.push_str(&joined.join("  "));
        out.push('\n');
    };
    line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// A time series as `t<TAB>value` rows resampled onto `points` grid
/// points (gnuplot-ready), preceded by its name.
pub fn series(series: &TimeSeries, points: usize) -> String {
    if series.is_empty() {
        return format!("# {} (empty)\n", series.name());
    }
    series.resample(points.max(2)).to_string()
}

/// A one-line ASCII bar for figure-style rows.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }
}
