//! The paxml benchmark: four serving workloads against `PaxServer`, measured
//! end to end (`run`) and layer by layer from outside the program (`trace`).
//! See `benchmark/README.md` for what each workload and metric is for.

pub mod alloc;
pub mod json;
pub mod layers;
pub mod results;
pub mod rig;
pub mod shadow;
pub mod spans;
pub mod trace;
pub mod workloads;

use json::Json;
use std::collections::BTreeMap;

/// Sites in the cluster under test. The host has two cores; the four site
/// threads belong to the system, not to the load generator.
pub const SITES: usize = 4;

/// The four Fig. 7 queries (`paxml_xmark::PAPER_QUERIES`) followed by four
/// more that all return answers on FT2; three of the eight share the
/// `address/country="US"` qualifier subtree. `PQ4` is the first four.
pub const QMIX8: [&str; 8] = [
    "/sites/site/people/person",
    "/sites/site/open_auctions//annotation",
    "/sites/site/people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
    "/sites/site/people/person/name",
    "//person[address/country=\"US\"]/name",
    "//open_auctions/auction/bidder/increase",
    "/sites/site/regions//item[quantity > 5]/name",
];

/// `PQ4`: the paper's four queries.
pub fn pq4() -> &'static [&'static str] {
    &QMIX8[..4]
}

/// The four workloads. Each stresses a different mix of the same layers; the
/// reasons are in `BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotSim,
    OneshotTcp,
    BatchSim,
    PreparedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::OneshotSim, Workload::OneshotTcp, Workload::BatchSim, Workload::PreparedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotSim => "oneshot-sim",
            Workload::OneshotTcp => "oneshot-tcp",
            Workload::BatchSim => "batch-sim",
            Workload::PreparedRw => "prepared-rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's query list: `PQ4` for the one-shot workloads, `QMIX8`
    /// for the prepared ones.
    pub fn queries(self) -> &'static [&'static str] {
        match self {
            Workload::OneshotSim | Workload::OneshotTcp => pq4(),
            Workload::BatchSim | Workload::PreparedRw => &QMIX8,
        }
    }
}

/// Inputs of one benchmark process.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Document size in virtual megabytes (20 is the benchmark's size; the
    /// smoke test and the update-scaling study in the README use others).
    pub vmb: f64,
    /// Where `trace` writes its spans.
    pub trace_out: std::path::PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub unit: &'static str,
    /// How many samples stand behind the value (1 for a single reading).
    pub samples: usize,
}

/// Named readings, in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Reading>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        let previous = self.0.insert(name, Reading { value, unit, samples });
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, r)| {
            let fields = [
                ("value", Json::Num(r.value)),
                ("unit", Json::Str(r.unit.into())),
                ("samples", Json::Num(r.samples as f64)),
            ];
            (*name, Json::obj(fields))
        }))
    }

    /// One aligned `name value unit (samples)` row per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, r) in &self.0 {
            out.push_str(&format!(
                "  {name:<40} {:>16.4} {:<10} n={}\n",
                r.value, r.unit, r.samples
            ));
        }
        out
    }
}

/// What one `run` or `trace` process reports: the contract's last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Readings worth printing that the contract's line has no place for.
    pub extras: Metrics,
    /// Why `correct` is false (empty otherwise).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Everything, for result files: the contract's fields plus sample
    /// counts, the extra readings and the problems.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
            ("extras", self.extras.to_json()),
            ("problems", Json::Arr(self.problems.iter().cloned().map(Json::Str).collect())),
        ])
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, and in each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        let metrics = Json::obj(self.metrics.0.iter().map(|(name, r)| {
            (*name, Json::obj([("value", Json::Num(r.value)), ("unit", Json::Str(r.unit.into()))]))
        }));
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    }
}

/// The `p`-th percentile (0–100) of `samples` by linear interpolation;
/// NaN when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let paper: Vec<&str> = paxml_xmark::PAPER_QUERIES.iter().map(|q| q.1).collect();
        assert_eq!(&QMIX8[..4], paper.as_slice());
    }
}
