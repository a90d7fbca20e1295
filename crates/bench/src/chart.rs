//! Terminal ASCII charts — so the figure harnesses actually show figures.
//!
//! Renders multiple series into a fixed character grid with axis labels,
//! one glyph per curve, mirroring the gnuplot figures of the paper close
//! enough to eyeball shapes (crossovers, plateaus, ceilings).

/// One plotted series: glyph, legend name, (x, y) points.
type Series = (char, String, Vec<(f64, f64)>);

/// A multi-series ASCII line chart.
#[derive(Debug)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    title: String,
    y_label: String,
    series: Vec<Series>,
    y_max_hint: Option<f64>,
}

/// Glyphs assigned to successive series.
const GLYPHS: &[char] = &['*', '+', 'o', 'x', '#', '@', '%', '&'];

impl AsciiChart {
    /// A chart with the given title and y-axis label.
    pub fn new(title: &str, y_label: &str) -> Self {
        AsciiChart {
            width: 72,
            height: 20,
            title: title.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            y_max_hint: None,
        }
    }

    /// Fix the y-axis maximum (e.g. 100 for percentages).
    pub fn y_max(mut self, m: f64) -> Self {
        self.y_max_hint = Some(m);
        self
    }

    /// Add a named series of (x, y) points.
    pub fn series(&mut self, name: &str, points: Vec<(f64, f64)>) -> &mut Self {
        let glyph = GLYPHS[self.series.len() % GLYPHS.len()];
        self.series.push((glyph, name.to_string(), points));
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("  {}\n", self.title));
        let x_max = self
            .series
            .iter()
            .flat_map(|(_, _, pts)| pts.iter().map(|p| p.0))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let y_max = self.y_max_hint.unwrap_or_else(|| {
            self.series
                .iter()
                .flat_map(|(_, _, pts)| pts.iter().map(|p| p.1))
                .fold(0.0f64, f64::max)
                .max(1e-12)
        });

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (glyph, _, pts) in &self.series {
            for &(x, y) in pts {
                let cx = ((x / x_max) * (self.width - 1) as f64).round() as usize;
                let cy = ((y / y_max) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy.min(self.height - 1);
                let col = cx.min(self.width - 1);
                grid[row][col] = *glyph;
            }
        }
        for (i, row) in grid.iter().enumerate() {
            let y_val = y_max * (self.height - 1 - i) as f64 / (self.height - 1) as f64;
            let label = if i % 5 == 0 || i == self.height - 1 {
                format!("{y_val:>9.1}")
            } else {
                " ".repeat(9)
            };
            out.push_str(&format!("{label} |{}\n", row.iter().collect::<String>()));
        }
        out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(self.width)));
        out.push_str(&format!(
            "{:>9}  0{:>width$.0}\n",
            self.y_label,
            x_max,
            width = self.width - 1
        ));
        out.push_str("  legend:");
        for (glyph, name, _) in &self.series {
            out.push_str(&format!("  {glyph} {name}"));
        }
        out.push('\n');
        out
    }

    /// Render and print.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_series_glyphs() {
        let mut c = AsciiChart::new("t", "y");
        c.series("a", vec![(0.0, 0.0), (10.0, 5.0)]);
        c.series("b", vec![(0.0, 5.0), (10.0, 0.0)]);
        let s = c.render();
        assert!(s.contains('*'));
        assert!(s.contains('+'));
        assert!(s.contains("legend:"));
        assert!(s.contains("a"));
    }

    #[test]
    fn y_max_hint_scales_axis() {
        let mut c = AsciiChart::new("t", "y").y_max(100.0);
        c.series("a", vec![(1.0, 50.0)]);
        let s = c.render();
        assert!(s.contains("100.0"), "{s}");
    }

    #[test]
    fn empty_chart_does_not_panic() {
        let c = AsciiChart::new("empty", "y");
        let _ = c.render();
    }

    #[test]
    fn line_count_is_bounded() {
        let mut c = AsciiChart::new("t", "y");
        c.series("a", (0..100).map(|i| (i as f64, (i % 7) as f64)).collect());
        let s = c.render();
        assert!(s.lines().count() < 28);
    }
}
