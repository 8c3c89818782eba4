//! Shared helpers for the table/figure harness binaries.
//!
//! Every binary regenerates one artifact of the paper's evaluation
//! (DESIGN.md §4 maps them): `table1`, `table2`, `fig8`, `fig11`,
//! `bzip2_results`, `ablations`. Binaries accept `--scale small|full` and
//! workload-size overrides so the full sweep is tractable on any machine.

use std::time::{Duration, Instant};

/// Measures one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// The core counts a speedup sweep visits: 1, 2, 4, … up to the machine
/// (mirroring the x-axis of Figures 8/11).
pub fn core_sweep(max: usize) -> Vec<usize> {
    let mut v = vec![1usize, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32];
    v.retain(|&c| c <= max);
    if v.last() != Some(&max) {
        v.push(max);
    }
    v
}

/// Number of usable cores.
pub fn machine_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Minimal flag parser: `--key value` pairs.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                let val = raw.get(i + 1).cloned().unwrap_or_default();
                pairs.push((key.to_string(), val));
                i += 2;
            } else {
                i += 1;
            }
        }
        Self { pairs }
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Numeric flag with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `--scale small` shrinks workloads for quick runs.
    pub fn is_small(&self) -> bool {
        matches!(self.get("scale"), Some("small"))
            || std::env::var("BENCH_SCALE").as_deref() == Ok("small")
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::parse()
    }
}

/// One series of a speedup figure.
pub struct Series {
    /// Model name as in the paper's legend.
    pub name: &'static str,
    /// (cores, speedup) points.
    pub points: Vec<(usize, f64)>,
}

/// Renders a Figure-8-style speedup table plus a crude ASCII plot.
pub fn render_speedup_figure(title: &str, serial: Duration, series: &[Series]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "serial reference: {:.3}s", serial.as_secs_f64());
    let cores: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    let _ = write!(out, "{:<12}", "cores");
    for c in &cores {
        let _ = write!(out, "{c:>8}");
    }
    let _ = writeln!(out);
    for s in series {
        let _ = write!(out, "{:<12}", s.name);
        for &(_, sp) in &s.points {
            let _ = write!(out, "{sp:>8.2}");
        }
        let _ = writeln!(out);
    }
    // ASCII plot: y = speedup, x = cores.
    let max_sp = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(1.0f64, f64::max);
    let rows = 12usize;
    let _ = writeln!(out, "\n speedup");
    let marks = ["P", "T", "O", "H", "S", "X"]; // per-series markers
    for row in (1..=rows).rev() {
        let y = max_sp * row as f64 / rows as f64;
        let _ = write!(out, "{y:>7.1} |");
        for (ci, _) in cores.iter().enumerate() {
            let mut ch = ' ';
            for (si, s) in series.iter().enumerate() {
                let sp = s.points[ci].1;
                if (sp / max_sp * rows as f64).round() as usize == row {
                    ch = marks[si % marks.len()].chars().next().expect("mark");
                }
            }
            let _ = write!(out, "{ch:>8}");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "        +");
    for _ in &cores {
        let _ = write!(out, "--------");
    }
    let _ = writeln!(out);
    let _ = write!(out, "         ");
    for c in &cores {
        let _ = write!(out, "{c:>8}");
    }
    let _ = writeln!(out, "  (cores)");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "   {} = {}", marks[si % marks.len()], s.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_is_monotonic_and_capped() {
        let v = core_sweep(24);
        assert_eq!(*v.first().unwrap(), 1);
        assert_eq!(*v.last().unwrap(), 24);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(core_sweep(3), vec![1, 2, 3]);
        assert_eq!(core_sweep(1), vec![1]);
    }

    #[test]
    fn figure_rendering_includes_all_series() {
        let s = vec![
            Series {
                name: "Pthreads",
                points: vec![(1, 1.0), (2, 1.9)],
            },
            Series {
                name: "Hyperqueue",
                points: vec![(1, 1.0), (2, 2.0)],
            },
        ];
        let fig = render_speedup_figure("Fig X", Duration::from_secs(1), &s);
        assert!(fig.contains("Pthreads"));
        assert!(fig.contains("Hyperqueue"));
        assert!(fig.contains("cores"));
    }
}
