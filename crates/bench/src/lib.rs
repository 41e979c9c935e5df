//! # paxml-bench — the paper's experimental study, read off the meters
//!
//! The library behind the `experiments` binary. Two drivers mirror §6 of
//! the paper: [`experiment1`] (Fig. 9: evaluation time vs. number of
//! fragments, FT1, constant cumulative size) and [`experiment2`] (Fig. 10
//! *and* Fig. 11: parallel and total time vs. cumulative size, FT2, Q1–Q4 —
//! one sweep, two figures). [`scenarios`] holds three serving scenarios
//! beyond the paper for which the end-to-end benchmark (`BENCHMARK.json`,
//! `benchmark/`) has no workload; every serving metric that has a name there
//! is measured there, not here.
//!
//! Sizes are expressed in virtual megabytes (see `paxml-xmark`); by default
//! the experiments use `1 vMB ≙ 20 paper-MB` so the paper's 100–280 MB
//! x-axis becomes 5–14 vMB and a full sweep runs in seconds. The *shape* of
//! every curve is what is being reproduced, not 2007 wall-clock numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;

use paxml_core::{server::PaxServer, Algorithm, ExecReport};
use paxml_distsim::Placement;
use paxml_fragment::FragmentedTree;
use paxml_xmark::{ft1, ft2, PAPER_QUERIES};

/// Which algorithm/optimization combination a series describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Series {
    /// PaX3 without annotations.
    Pax3Na,
    /// PaX3 with XPath annotations.
    Pax3Xa,
    /// PaX2 without annotations.
    Pax2Na,
    /// PaX2 with XPath annotations.
    Pax2Xa,
    /// The ship-everything baseline.
    Naive,
}

impl Series {
    /// Label used in tables/CSV (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            Series::Pax3Na => "PaX3-NA",
            Series::Pax3Xa => "PaX3-XA",
            Series::Pax2Na => "PaX2-NA",
            Series::Pax2Xa => "PaX2-XA",
            Series::Naive => "Naive",
        }
    }
}

/// A [`PaxServer`] session for one series over a fresh deployment of the
/// given fragmented document.
pub fn server(
    series: Series,
    placement: Placement,
    fragmented: &FragmentedTree,
    sites: usize,
) -> PaxServer {
    let (algorithm, annotations) = match series {
        Series::Pax3Na => (Algorithm::PaX3, false),
        Series::Pax3Xa => (Algorithm::PaX3, true),
        Series::Pax2Na => (Algorithm::PaX2, false),
        Series::Pax2Xa => (Algorithm::PaX2, true),
        Series::Naive => (Algorithm::NaiveCentralized, false),
    };
    PaxServer::builder()
        .algorithm(algorithm)
        .annotations(annotations)
        .placement(placement)
        .sites(sites)
        .deploy(fragmented)
        .expect("valid configuration")
}

/// Run one algorithm/optimization combination over a fresh deployment of the
/// given fragmented document (one-shot, un-amortized — the classic
/// per-query protocol the paper's experiments measure).
pub fn run(series: Series, fragmented: &FragmentedTree, sites: usize, query: &str) -> ExecReport {
    server(series, Placement::RoundRobin, fragmented, sites).query_once(query).unwrap()
}

/// One measured point of an experiment: a row of a figure.
#[derive(Debug, Clone)]
pub struct Point {
    /// Query name (Q1–Q4).
    pub query: &'static str,
    /// Series (algorithm + optimization).
    pub series: Series,
    /// X coordinate: fragment count (Experiment 1) or cumulative vMB
    /// (Experiments 2/3).
    pub x: f64,
    /// The run's own meters: wall-clock times, the deterministic cost model,
    /// traffic, visits, answers.
    pub report: ExecReport,
}

/// Measure one of the paper's queries, by name, at x coordinate `x`.
fn measure(
    query: &'static str,
    series: Series,
    fragmented: &FragmentedTree,
    sites: usize,
    x: f64,
) -> Point {
    Point { query, series, x, report: run(series, fragmented, sites, paper_query(query)) }
}

/// Look up one of the paper's queries (Fig. 7) by name (`"Q1"`…`"Q4"`).
pub fn paper_query(name: &str) -> &'static str {
    PAPER_QUERIES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, q)| *q)
        .unwrap_or_else(|| panic!("unknown paper query {name}"))
}

/// Experiment 1 (Fig. 9): fix the cumulative data size, vary the number of
/// fragments/machines from 1 to `max_fragments`, and measure Q1 (no
/// qualifiers) for PaX3-NA/PaX3-XA and Q4 (qualifiers + `//`) for
/// PaX3-NA/PaX2-NA.
pub fn experiment1(total_vmb: f64, max_fragments: usize, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for k in 1..=max_fragments.max(1) {
        let (_, fragmented) = ft1(k, total_vmb, seed);
        for (query, series) in [
            ("Q1", Series::Pax3Na),
            ("Q1", Series::Pax3Xa),
            ("Q4", Series::Pax3Na),
            ("Q4", Series::Pax2Na),
        ] {
            points.push(measure(query, series, &fragmented, k, k as f64));
        }
    }
    points
}

/// Experiment 2 (Fig. 10 and Fig. 11): FT2 topology on 10 sites, cumulative
/// size swept from `start_vmb` to `end_vmb` in `steps` steps; every query of
/// Fig. 7 is measured for the series the corresponding sub-figure plots.
/// Fig. 10 reads these runs' parallel time, Fig. 11 their total time.
pub fn experiment2(start_vmb: f64, end_vmb: f64, steps: usize, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    let steps = steps.max(2);
    for i in 0..steps {
        let vmb = start_vmb + (end_vmb - start_vmb) * i as f64 / (steps - 1) as f64;
        let (_, fragmented) = ft2(vmb, seed);
        // Fig. 10(a)/(b): Q1 and Q2, PaX3-NA vs PaX3-XA.
        for (query, series) in [
            ("Q1", Series::Pax3Na),
            ("Q1", Series::Pax3Xa),
            ("Q2", Series::Pax3Na),
            ("Q2", Series::Pax3Xa),
            // Fig. 10(c): Q3, PaX3-NA vs PaX2-NA vs PaX2-XA.
            ("Q3", Series::Pax3Na),
            ("Q3", Series::Pax2Na),
            ("Q3", Series::Pax2Xa),
            // Fig. 10(d): Q4, PaX3-NA vs PaX2-NA.
            ("Q4", Series::Pax3Na),
            ("Q4", Series::Pax2Na),
        ] {
            points.push(measure(query, series, &fragmented, 10, vmb));
        }
    }
    points
}

/// Render rows of pre-formatted cells under `(heading, width)` columns as an
/// aligned table: the first `left` columns left-aligned, the rest
/// right-aligned. The one table layout of this crate.
pub fn render_table(
    title: &str,
    columns: &[(&str, usize)],
    left: usize,
    rows: &[Vec<String>],
) -> String {
    let header: Vec<String> = columns.iter().map(|(heading, _)| heading.to_string()).collect();
    let mut out = format!("# {title}\n");
    for row in std::iter::once(&header).chain(rows) {
        let cells = row.iter().zip(columns).enumerate().map(|(i, (cell, &(_, width)))| {
            if i < left {
                format!("{cell:<width$}")
            } else {
                format!("{cell:>width$}")
            }
        });
        out.push_str(&cells.collect::<Vec<_>>().join(" "));
        out.push('\n');
    }
    out
}

/// Render the rows as CSV under `header` (for plotting).
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let lines = rows.iter().map(|row| row.join(",") + "\n");
    std::iter::once(header.join(",") + "\n").chain(lines).collect()
}

/// The columns of a [`Point`] report as `(table heading, width, CSV name)`;
/// the third column is the x axis, named by the caller.
const POINT_COLUMNS: [(&str, usize, &str); 11] = [
    ("qry", 4, "query"),
    ("series", 9, "series"),
    ("x", 10, "x"),
    ("parallel(ms)", 14, "parallel_ms"),
    ("total(ms)", 14, "total_ms"),
    ("parallel(ops)", 13, "parallel_ops"),
    ("total(ops)", 13, "total_ops"),
    ("bytes", 10, "bytes"),
    ("visits", 7, "max_visits"),
    ("answers", 8, "answers"),
    ("fragments", 10, "fragments_evaluated"),
];

/// The cells of each point: times and x rounded for the table, exact for CSV.
fn point_rows(points: &[Point], csv: bool) -> Vec<Vec<String>> {
    let real = |value: f64, digits: usize| {
        if csv {
            value.to_string()
        } else {
            format!("{value:.digits$}")
        }
    };
    let cells = |p: &Point| {
        let report = &p.report;
        vec![
            p.query.to_string(),
            p.series.label().to_string(),
            real(p.x, 2),
            real(report.parallel_time().as_secs_f64() * 1e3, 3),
            real(report.total_computation_time().as_secs_f64() * 1e3, 3),
            report.parallel_ops().to_string(),
            report.total_ops().to_string(),
            report.network_bytes().to_string(),
            report.max_visits_per_site().to_string(),
            report.answers().len().to_string(),
            report.queries[0].fragments_evaluated.to_string(),
        ]
    };
    points.iter().map(cells).collect()
}

/// Format a set of points as an aligned table, one row per (query, series, x).
pub fn format_table(title: &str, points: &[Point], x_label: &str) -> String {
    let mut columns = POINT_COLUMNS.map(|(heading, width, _)| (heading, width));
    columns[2].0 = x_label;
    render_table(title, &columns, 2, &point_rows(points, false))
}

/// Format a set of points as CSV (for plotting).
pub fn format_csv(points: &[Point], x_label: &str) -> String {
    let mut header = POINT_COLUMNS.map(|(_, _, name)| name);
    header[2] = x_label;
    render_csv(&header, &point_rows(points, true))
}

/// One figure of the paper: per query in `points` (in order of first
/// appearance) a sub-figure `(a)`, `(b)`, … titled
/// `"{figure}({letter}) — {query} {caption}"`, as table then CSV. Fig. 10 and
/// Fig. 11 are two captions over the same [`experiment2`] points.
pub fn format_figure(points: &[Point], figure: &str, caption: &str, x_label: &str) -> String {
    let mut queries: Vec<&str> = Vec::new();
    for p in points {
        if !queries.contains(&p.query) {
            queries.push(p.query);
        }
    }
    let mut out = String::new();
    for (letter, query) in ('a'..).zip(queries) {
        let rows: Vec<Point> = points.iter().filter(|p| p.query == query).cloned().collect();
        let title = format!("{figure}({letter}) — {query} {caption}");
        out.push_str(&format_table(&title, &rows, x_label));
        out.push('\n');
        out.push_str(&format_csv(&rows, x_label));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_lookup() {
        assert!(paper_query("Q1").contains("people/person"));
        assert!(paper_query("Q2").contains("annotation"));
        assert!(paper_query("Q3").contains("creditcard"));
        assert!(paper_query("Q4").contains("//people"));
    }

    #[test]
    #[should_panic(expected = "unknown paper query")]
    fn unknown_query_panics() {
        paper_query("Q9");
    }

    #[test]
    fn experiment1_produces_the_expected_grid() {
        let points = experiment1(0.4, 3, 7);
        // 3 fragment counts × (2 series for Q1 + 2 series for Q4).
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.report.max_visits_per_site() <= 3);
            if p.query == "Q1" {
                assert!(!p.report.answers().is_empty(), "Q1 must select persons");
            }
        }
        // All series agree on the answer count for a given query and x.
        for k in 1..=3 {
            let q1: Vec<&Point> =
                points.iter().filter(|p| p.query == "Q1" && p.x == k as f64).collect();
            assert!(q1.windows(2).all(|w| w[0].report.answers() == w[1].report.answers()));
        }
        let table = format_table("experiment 1", &points, "fragments");
        assert!(table.contains("PaX3-XA"));
        let csv = format_csv(&points, "fragments");
        assert_eq!(csv.lines().count(), 13);
    }

    #[test]
    fn experiment2_covers_all_four_queries() {
        let points = experiment2(0.4, 0.8, 2, 7);
        assert_eq!(points.len(), 18);
        for q in ["Q1", "Q2", "Q3", "Q4"] {
            assert!(points.iter().any(|p| p.query == q));
        }
        // Same-query points at the same size agree on answers across series.
        for q in ["Q1", "Q2", "Q3", "Q4"] {
            let xs: Vec<f64> = points.iter().filter(|p| p.query == q).map(|p| p.x).collect();
            for &x in &xs {
                let answers: Vec<_> = points
                    .iter()
                    .filter(|p| p.query == q && p.x == x)
                    .map(|p| p.report.answers())
                    .collect();
                assert!(answers.windows(2).all(|w| w[0] == w[1]), "answer mismatch for {q} at {x}");
            }
        }
    }

    #[test]
    fn fig10_and_fig11_are_two_captions_over_the_same_runs() {
        let points = experiment2(0.4, 0.8, 2, 7);
        let fig10 = format_figure(&points, "Figure 10", "parallel evaluation time", "vMB");
        let fig11 = format_figure(&points, "Figure 11", "total computation time", "vMB");
        assert_eq!(fig10.matches("# Figure 10(").count(), 4, "sub-figures (a)-(d)");
        assert!(fig11.contains("# Figure 11(d) — Q4 total computation time"));
        // Below the titles the two figures are identical down to the
        // wall-clock columns, which two separate sweeps could never be.
        let body = |figure: &str| -> Vec<String> {
            figure.lines().filter(|l| !l.starts_with('#')).map(String::from).collect()
        };
        assert_eq!(body(&fig10), body(&fig11));
        assert_eq!(fig11.lines().filter(|l| l.starts_with("Q3,")).count(), 6);
    }

    #[test]
    fn annotations_reduce_work_for_q1_on_ft2() {
        let points = experiment2(0.6, 0.6, 2, 3);
        let na: Vec<&Point> =
            points.iter().filter(|p| p.query == "Q1" && p.series == Series::Pax3Na).collect();
        let xa: Vec<&Point> =
            points.iter().filter(|p| p.query == "Q1" && p.series == Series::Pax3Xa).collect();
        assert!(!na.is_empty() && !xa.is_empty());
        // The XA run touches fewer fragments (the regions / auctions
        // sub-fragments are pruned), hence less total work.
        let evaluated = |p: &Point| p.report.queries[0].fragments_evaluated;
        assert!(evaluated(xa[0]) < evaluated(na[0]));
    }
}
