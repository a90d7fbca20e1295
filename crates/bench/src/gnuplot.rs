//! Gnuplot script emission — the paper's figures were gnuplot plots;
//! every figure harness leaves a ready-to-run `.gp` script next to its
//! CSVs so `gnuplot results/fig3_harvest.gp` regenerates the figure as
//! the paper drew it.

use langcrawl_core::metrics::CrawlReport;

/// Which column of the report CSVs a plot draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlotKind {
    /// Harvest rate [%] vs pages crawled (CSV column 3).
    Harvest,
    /// Coverage [%] vs pages crawled (CSV column 4).
    Coverage,
    /// URL queue size vs pages crawled (CSV column 5).
    QueueSize,
}

impl PlotKind {
    fn column(self) -> usize {
        match self {
            PlotKind::Harvest => 3,
            PlotKind::Coverage => 4,
            PlotKind::QueueSize => 5,
        }
    }

    fn y_label(self) -> &'static str {
        match self {
            PlotKind::Harvest => "Harvest Rate [%]",
            PlotKind::Coverage => "Coverage [%]",
            PlotKind::QueueSize => "URL Queue Size [URLs]",
        }
    }

    fn scale(self) -> &'static str {
        // Harvest/coverage CSVs store fractions; plot as percent.
        match self {
            PlotKind::Harvest | PlotKind::Coverage => "*100",
            PlotKind::QueueSize => "",
        }
    }
}

/// Render a gnuplot script plotting one curve per report, reading the
/// CSVs written by [`crate::runner::write_csv`] under the given file
/// prefix.
pub fn script(title: &str, kind: PlotKind, reports: &[CrawlReport], file_prefix: &str) -> String {
    let mut out = String::new();
    out.push_str("set datafile separator ','\n");
    out.push_str(&format!("set title \"{title}\"\n"));
    out.push_str("set xlabel \"Number of Pages Crawled\"\n");
    out.push_str(&format!("set ylabel \"{}\"\n", kind.y_label()));
    if kind != PlotKind::QueueSize {
        out.push_str("set yrange [0:100]\n");
    }
    out.push_str("set key bottom right\n");
    out.push_str("plot \\\n");
    let col = kind.column();
    let scale = kind.scale();
    let lines: Vec<String> = reports
        .iter()
        .map(|r| {
            let csv = format!("{file_prefix}_{}.csv", sanitize(&r.strategy));
            format!(
                "  '{csv}' using 1:(${col}{scale}) with lines title \"{}\"",
                r.strategy
            )
        })
        .collect();
    out.push_str(&lines.join(", \\\n"));
    out.push('\n');
    out.push_str("pause -1 \"press enter\"\n");
    out
}

/// File-name mangling matching [`crate::runner::write_csv`] callers.
pub fn sanitize(strategy: &str) -> String {
    strategy.replace([' ', '=', '.'], "_")
}

/// Write the script as `<file_prefix>_<plot>.gp` through
/// [`crate::runner::write_result`].
pub fn write_script(title: &str, kind: PlotKind, reports: &[CrawlReport], file_prefix: &str) {
    let plot = match kind {
        PlotKind::Harvest => "harvest",
        PlotKind::Coverage => "coverage",
        PlotKind::QueueSize => "queue",
    };
    let body = script(title, kind, reports, file_prefix);
    crate::runner::write_result(&format!("{file_prefix}_{plot}.gp"), body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_core::metrics::{CrawlReport, Sample};

    fn report(name: &str) -> CrawlReport {
        CrawlReport {
            strategy: name.into(),
            classifier: "meta".into(),
            samples: vec![Sample {
                crawled: 10,
                relevant: 5,
                queue_size: 3,
            }],
            crawled: 10,
            relevant_crawled: 5,
            total_relevant: 8,
            max_queue: 3,
            total_pushes: 12,
            visited: Vec::new(),
            attempts: 10,
            retries: 0,
            gave_up: 0,
            ticks: 10,
        }
    }

    #[test]
    fn script_references_each_csv() {
        let reports = [report("soft-focused"), report("limited-distance N=2")];
        let s = script("Fig X", PlotKind::Harvest, &reports, "figX");
        assert!(s.contains("figX_soft-focused.csv"));
        assert!(s.contains("figX_limited-distance_N_2.csv"));
        assert!(s.contains("($3*100)"));
        assert!(s.contains("set yrange [0:100]"));
    }

    #[test]
    fn queue_plot_uses_raw_counts() {
        let s = script("q", PlotKind::QueueSize, &[report("a")], "f");
        assert!(s.contains("($5)"));
        assert!(!s.contains("yrange [0:100]"));
    }

    #[test]
    fn sanitize_matches_write_csv_mangling() {
        assert_eq!(
            sanitize("prior. limited-distance N=3"),
            "prior__limited-distance_N_3"
        );
    }
}
