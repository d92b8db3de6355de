//! Shared machinery for the figure-regeneration harness.
//!
//! Every table and figure of the paper's evaluation section (see
//! `EXPERIMENTS.md`) is regenerated by `src/bin/figures.rs` using the
//! helpers here: workload patterns, curves swept over subgroup sizes,
//! seeded multi-run measurements with mean ± stddev (the paper runs each
//! test 5 times and plots error bars), and CSV/console output.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use spindle_core::{RunReport, SimCluster, SpindleConfig, Workload};
use spindle_membership::{View, ViewBuilder};
use spindle_sim::stats::Summary;

/// Which members of a subgroup send (the paper's three standard patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every member is a sender.
    All,
    /// The first half of the members send (at least one).
    Half,
    /// Only member 0 sends.
    One,
}

impl Pattern {
    /// The sender list for a subgroup of `n` members.
    pub fn senders(self, n: usize) -> Vec<usize> {
        match self {
            Pattern::All => (0..n).collect(),
            Pattern::Half => (0..(n / 2).max(1)).collect(),
            Pattern::One => vec![0],
        }
    }

    /// The pattern's word in the paper's legends ("batching all").
    pub fn label(self) -> &'static str {
        match self {
            Pattern::All => "all",
            Pattern::Half => "half",
            Pattern::One => "one",
        }
    }
}

/// A single-subgroup view of `n` nodes with the given sender pattern.
pub fn single_subgroup(n: usize, pattern: Pattern, window: usize, max_msg: usize) -> View {
    let members: Vec<usize> = (0..n).collect();
    ViewBuilder::new(n)
        .subgroup(&members, &pattern.senders(n), window, max_msg)
        .build()
        .expect("valid single-subgroup view")
}

/// A view where all `n` nodes belong to `groups` identical subgroups
/// (the overlapping-subgroup scenarios of Figures 8, 9, 13).
pub fn overlapping_subgroups(n: usize, groups: usize, window: usize, max_msg: usize) -> View {
    let members: Vec<usize> = (0..n).collect();
    let mut vb = ViewBuilder::new(n);
    for _ in 0..groups {
        vb = vb.subgroup(&members, &members, window, max_msg);
    }
    vb.build().expect("valid overlapping view")
}

/// Harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Paper-scale runs (more points, more messages, 5 seeds).
    pub full: bool,
    /// Seeded repetitions per data point.
    pub runs: usize,
    /// Where CSV output lands.
    pub out_dir: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            full: false,
            runs: 2,
            out_dir: PathBuf::from("target/figures"),
        }
    }
}

impl Opts {
    /// The subgroup sizes to sweep (x-axis of most figures).
    pub fn sizes(&self) -> Vec<usize> {
        if self.full {
            (2..=16).collect()
        } else {
            vec![2, 4, 8, 12, 16]
        }
    }

    /// Messages per sender for the optimized/batched configurations.
    pub fn msgs(&self) -> u64 {
        if self.full {
            20_000
        } else {
            2_500
        }
    }

    /// Messages per sender for baseline runs (the baseline simulates
    /// slowly: ~1 µs of CPU per acknowledgment write).
    pub fn msgs_baseline(&self) -> u64 {
        if self.full {
            4_000
        } else {
            800
        }
    }
}

/// One aggregated data point: mean ± sample stddev over seeded runs.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub mean: f64,
    pub sd: f64,
}

impl Point {
    /// Mean ± sample stddev of `values`, accumulated in order.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Point {
        let mut s = Summary::new();
        values.into_iter().for_each(|v| s.record(v));
        Point {
            mean: s.mean(),
            sd: s.stddev(),
        }
    }

    /// A value with no spread (a cost-model curve, a ratio, one run).
    pub fn exact(v: f64) -> Point {
        Point { mean: v, sd: 0.0 }
    }
}

/// What a figure reads off one simulated run.
pub type Metric = fn(&RunReport) -> f64;

/// Runs `runs` seeded repetitions of a simulation and aggregates each of
/// `metrics` over them, in order.
pub fn measure(
    view: &View,
    cfg: &SpindleConfig,
    workload: &Workload,
    runs: usize,
    metrics: &[Metric],
) -> Vec<Point> {
    let reports = run_seeds(view, cfg, workload, runs);
    metrics
        .iter()
        .map(|m| Point::of(reports.iter().map(m)))
        .collect()
}

/// Runs seeds `1..=runs` of a simulation and returns the full reports.
pub fn run_seeds(
    view: &View,
    cfg: &SpindleConfig,
    workload: &Workload,
    runs: usize,
) -> Vec<RunReport> {
    (1..=runs as u64)
        .map(|seed| {
            SimCluster::new(view.clone(), cfg.clone(), workload.clone())
                .with_seed(seed)
                .run()
        })
        .collect()
}

/// Bandwidth metric in GB/s (the paper's default y-axis).
pub fn bw(r: &RunReport) -> f64 {
    r.bandwidth_gbps()
}

/// Mean latency metric in ms.
pub fn lat(r: &RunReport) -> f64 {
    r.mean_latency_ms()
}

/// One series of a size sweep: a configuration, and the view and workload
/// it runs at each subgroup size.
pub struct Curve {
    pub label: String,
    pub cfg: SpindleConfig,
    pub at: Box<dyn Fn(usize) -> (View, Workload)>,
}

impl Curve {
    /// A curve whose view and workload at size `n` are `at(n)`.
    pub fn new(
        label: impl Into<String>,
        cfg: SpindleConfig,
        at: impl Fn(usize) -> (View, Workload) + 'static,
    ) -> Curve {
        Curve {
            label: label.into(),
            cfg,
            at: Box::new(at),
        }
    }

    /// `<prefix> all`, `<prefix> half` and `<prefix> one`: the paper's
    /// three sender patterns over one subgroup of paper-sized slots.
    pub fn patterns(prefix: &str, cfg: SpindleConfig, workload: Workload) -> Vec<Curve> {
        [Pattern::All, Pattern::Half, Pattern::One]
            .into_iter()
            .map(|pat| {
                let wl = workload.clone();
                Curve::new(format!("{prefix} {}", pat.label()), cfg.clone(), move |n| {
                    (single_subgroup(n, pat, PAPER_WINDOW, PAPER_MSG), wl.clone())
                })
            })
            .collect()
    }
}

/// Measures `metric` for every curve at every size of `opts.sizes()` and
/// emits the table `name`, one column per curve.
pub fn size_sweep(opts: &Opts, name: &str, title: &str, curves: &[Curve], metric: Metric) {
    let mut t = Table::new(
        name,
        title,
        "subgroup size",
        curves.iter().map(|c| c.label.clone()).collect(),
    );
    for n in opts.sizes() {
        let points = curves
            .iter()
            .map(|c| {
                let (view, wl) = (c.at)(n);
                measure(&view, &c.cfg, &wl, opts.runs, &[metric])[0]
            })
            .collect();
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// A rendered results table: header + rows, printed to the console and
/// saved as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub title: String,
    pub x_label: String,
    pub series: Vec<String>,
    pub rows: Vec<(f64, Vec<Point>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        series: Vec<String>,
    ) -> Table {
        Table {
            name: name.into(),
            title: title.into(),
            x_label: x_label.into(),
            series,
            rows: Vec::new(),
        }
    }

    /// Appends one x-row of points (one per series).
    ///
    /// # Panics
    ///
    /// Panics if the number of points differs from the number of series.
    pub fn row(&mut self, x: f64, points: Vec<Point>) {
        assert_eq!(points.len(), self.series.len(), "row width mismatch");
        self.rows.push((x, points));
    }

    /// Renders the console form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.name, self.title);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " | {s:>24}");
        }
        let _ = writeln!(out);
        for (x, points) in &self.rows {
            let _ = write!(out, "{x:>12.0}");
            for p in points {
                let _ = write!(out, " | {:>15.4} ±{:>7.4}", p.mean, p.sd);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV form (`x,series1_mean,series1_sd,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(' ', "_"));
        for s in &self.series {
            let clean = s.replace(' ', "_").replace(',', ";");
            let _ = write!(out, ",{clean}_mean,{clean}_sd");
        }
        let _ = writeln!(out);
        for (x, points) in &self.rows {
            let _ = write!(out, "{x}");
            for p in points {
                let _ = write!(out, ",{},{}", p.mean, p.sd);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints to stdout and writes `<out_dir>/<name>.csv`.
    pub fn emit(&self, opts: &Opts) {
        println!("{}", self.render());
        if std::fs::create_dir_all(&opts.out_dir).is_ok() {
            let path = opts.out_dir.join(format!("{}.csv", self.name));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("   -> {}\n", path.display());
            }
        }
    }
}

/// The standard paper workload: 10 KB messages, window 100.
pub fn paper_workload(msgs: u64) -> Workload {
    Workload::new(msgs, 10 * 1024)
}

/// Window size used throughout the evaluation (§4.1.2 picks 100).
pub const PAPER_WINDOW: usize = 100;

/// Message size used throughout the evaluation.
pub const PAPER_MSG: usize = 10 * 1024;

/// Convenience: a `Duration` from microseconds (used by delay experiments).
pub fn us(micros: u64) -> Duration {
    Duration::from_micros(micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_produce_expected_senders() {
        assert_eq!(Pattern::All.senders(4), vec![0, 1, 2, 3]);
        assert_eq!(Pattern::Half.senders(4), vec![0, 1]);
        assert_eq!(Pattern::Half.senders(2), vec![0]);
        assert_eq!(Pattern::Half.senders(1), vec![0]);
        assert_eq!(Pattern::One.senders(16), vec![0]);
    }

    #[test]
    fn views_build() {
        let v = single_subgroup(5, Pattern::Half, 8, 128);
        assert_eq!(v.subgroups()[0].num_senders(), 2);
        let v = overlapping_subgroups(4, 3, 8, 128);
        assert_eq!(v.subgroups().len(), 3);
        assert!(v.subgroups().iter().all(|sg| sg.size() == 4));
    }

    #[test]
    fn measure_aggregates_over_seeds() {
        let v = single_subgroup(2, Pattern::All, 8, 256);
        let cfg = SpindleConfig::optimized();
        let wl = Workload::new(50, 256);
        let both = measure(&v, &cfg, &wl, 2, &[bw, lat]);
        assert!(both[0].mean > 0.0);
        assert!(both[0].sd >= 0.0);
        // Both metrics off one set of runs equal each measured alone, in order.
        let alone = [bw, lat].map(|m| measure(&v, &cfg, &wl, 2, &[m])[0]);
        for (b, a) in both.iter().zip(&alone) {
            assert_eq!((b.mean, b.sd), (a.mean, a.sd));
        }
    }

    #[test]
    fn pattern_curves_name_and_size_their_senders() {
        let curves = Curve::patterns("x", SpindleConfig::optimized(), Workload::new(1, 8));
        let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["x all", "x half", "x one"]);
        let senders: Vec<usize> = curves
            .iter()
            .map(|c| (c.at)(16).0.subgroups()[0].num_senders())
            .collect();
        assert_eq!(senders, [16, 8, 1]);
    }

    #[test]
    fn table_render_and_csv() {
        let mut t = Table::new("figX", "demo", "size", vec!["a".into(), "b c".into()]);
        t.row(2.0, vec![Point { mean: 1.0, sd: 0.1 }, Point::exact(2.0)]);
        let r = t.render();
        assert!(r.contains("figX"));
        assert!(r.contains("1.0000"));
        let csv = t.to_csv();
        assert!(csv.starts_with("size,a_mean,a_sd,b_c_mean,b_c_sd"));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", "t", "x", vec!["a".into()]);
        t.row(1.0, vec![]);
    }
}
