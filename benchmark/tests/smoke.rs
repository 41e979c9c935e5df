//! Every workload at 1 vMB / 1 s: the binary emits exactly the metrics
//! `BENCHMARK.json` names, with finite values and no failed op; a wrong
//! expected answer or a dropped outcome is counted as a failed op;
//! `BENCHMARK.json` itself stays inside the contract's limits and
//! `predictions.json` says for each per-layer metric what it should move.

use paxml_benchmark::json::Json;
use paxml_benchmark::rig::{expected_on_tree, expected_per_lap, lap_is_correct, Doc, Rig};
use paxml_benchmark::{workloads, Config, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {value:?}"))
}

/// `name → unit` of one of the two metric lists.
fn declared(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .expect("the list exists")
        .as_arr()
        .iter()
        .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
        .collect()
}

/// Run the binary the way the driver does and return its last line, parsed.
fn drive(workload: &str, trace: &str) -> Json {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_paxml-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .args(["--vmb", "1", "--trace-out"])
        .arg(&spans)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    if trace == "1" {
        let file = Json::parse(&std::fs::read_to_string(&spans).expect("a span file is written"))
            .expect("the span file is JSON");
        assert!(file.get("spans").expect("spans").as_arr().len() > 100);
    }
    Json::parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON")
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload_with_a_finite_value() {
    let bench = benchmark_json();
    for workload in bench.get("workloads").expect("workloads").as_arr() {
        let workload = text(workload, "name");
        assert!(Workload::parse(workload).is_some(), "BENCHMARK.json names unknown {workload}");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = drive(workload, trace);
            let keys: Vec<&String> = line.as_obj().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}/{trace}");
            assert_eq!(line.get("failed"), Some(&Json::Num(0.0)), "{workload}/{trace}");
            assert!(line.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
            // The line's metrics map holds each name once by construction
            // (the binary panics on a second `put` of one name).
            let emitted: BTreeMap<String, String> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, reading)| {
                    let value = reading.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} is not a finite number: {reading:?}"
                    );
                    (name.clone(), text(reading, "unit").to_owned())
                })
                .collect();
            assert_eq!(emitted, declared(&bench, list), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_corrupted_expected_answer_is_counted_as_a_failed_op() {
    let config = Config {
        workload: Workload::OneshotSim,
        seed: 3,
        seconds: 0.5,
        vmb: 1.0,
        trace_out: PathBuf::new(),
    };
    let doc = Doc::generate(config.vmb, config.seed);
    let (tree, _) = doc.parse_and_fragment();
    let mut expected = expected_on_tree(&tree, config.workload.queries());
    let honest = workloads::run(&config, Some(expected.clone()));
    assert!(honest.correct && honest.failed == 0, "{:?}", honest.problems);

    assert!(expected[0].pop().is_some(), "query 0 has answers to lose at 1 vMB");
    let corrupted = workloads::run(&config, Some(expected));
    assert!(!corrupted.correct);
    // The metered lap, every warm-up and timed lap fail; the update tail and
    // the end-state lap (held to the mirror, not to the override) do not.
    assert!(corrupted.failed >= 2 && corrupted.failed < corrupted.attempted);
}

#[test]
fn a_lap_that_drops_an_outcome_is_not_correct() {
    let doc = Doc::generate(1.0, 3);
    for workload in [Workload::OneshotSim, Workload::BatchSim] {
        let rig = Rig::set_up(&doc, workload).expect("set-up");
        let expected = expected_per_lap(workload, expected_on_tree(&rig.tree, workload.queries()));
        let whole = rig.lap(workload, 0).expect("a lap");
        assert!(lap_is_correct(&whole, &expected, 0), "{workload:?}");
        // Lose the last outcome: a whole report of a one-shot lap, one
        // member of the batch report.
        let mut truncated = whole.clone();
        let last = truncated.last_mut().expect("a lap has reports");
        last.queries.pop();
        assert!(!lap_is_correct(&truncated, &expected, 0), "{workload:?}");
        assert!(!lap_is_correct(&[], &expected, 0), "{workload:?}");
        rig.close();
    }
}

#[test]
fn every_per_layer_metric_says_what_it_is_predicted_to_move() {
    let bench = benchmark_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json");
    let predictions = Json::parse(&std::fs::read_to_string(path).expect("predictions.json"))
        .expect("predictions.json parses");
    let predictions = predictions.as_obj().expect("an object");
    let named: Vec<&String> = predictions.keys().collect();
    let per_layer = declared(&bench, "per_layer");
    assert_eq!(named, per_layer.keys().collect::<Vec<_>>());
    let end_to_end = declared(&bench, "end_to_end");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    for (name, prediction) in predictions {
        let moves = prediction.get("moves").expect("moves").as_arr();
        // A metric that moves nothing end to end says why it is tracked.
        assert_eq!(moves.is_empty(), prediction.get("tracked_because").is_some(), "{name}");
        for pair in moves {
            assert!(end_to_end.contains_key(text(pair, "metric")), "{name}: {pair:?}");
            let on = pair.get("on").expect("on").as_arr();
            assert!(!on.is_empty(), "{name}: {pair:?}");
            for workload in on {
                assert!(workloads.contains(&workload.as_str().expect("a name")), "{name}");
            }
        }
    }
}

#[test]
fn benchmark_json_stays_inside_the_contract() {
    let bench = benchmark_json();
    let keys: Vec<&String> = bench.as_obj().expect("an object").keys().collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert_eq!(bench.get("paths"), Some(&Json::Arr(vec![Json::Str("benchmark".into())])));
    let seconds = bench.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let name_ok = |name: &str| {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = Vec::new();
    let workloads = bench.get("workloads").expect("workloads").as_arr();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        assert_eq!(w.as_obj().expect("object").len(), 2);
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
        names.push(text(w, "name"));
    }
    let end_to_end = bench.get("end_to_end").expect("end_to_end").as_arr();
    assert!((1..=16).contains(&end_to_end.len()));
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("a bound");
    for m in end_to_end {
        assert_eq!(m.as_obj().expect("object").len(), 4);
        assert!((0.0..=0.25).contains(&bound(m)));
    }
    let setup = end_to_end.iter().find(|m| text(m, "name") == "setup_s").expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert!(end_to_end.iter().all(|m| bound(m) <= bound(setup)), "setup_s has the largest bound");
    let per_layer = bench.get("per_layer").expect("per_layer").as_arr();
    assert!((1..=128).contains(&per_layer.len()));
    for m in end_to_end.iter().chain(per_layer) {
        assert!(unit_ok(text(m, "unit")), "{m:?}");
        assert!(matches!(text(m, "better"), "lower" | "higher"), "{m:?}");
        names.push(text(m, "name"));
    }
    assert!(per_layer.iter().all(|m| m.as_obj().expect("object").len() == 3));
    assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
    let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}
