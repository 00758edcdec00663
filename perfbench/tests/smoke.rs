//! The benchmark's own tests: every workload prints every metric that
//! `BENCHMARK.json` names, finite and with its unit, at smoke size; and
//! the output checks fail on a model with one bit flipped.

use std::path::{Path, PathBuf};
use std::process::Command;

use orion_apps::serve::{MfQuery, MfServe};
use orion_apps::sgd_mf::{self, MfConfig, MfRunConfig};
use orion_core::ClusterSpec;
use orion_data::{RatingsConfig, RatingsData};
use orion_serve::{EngineConfig, ServeEngine};
use orion_trace::json::{self, Value};
use perfbench::check;
use perfbench::measure::{Outcome, Tally, END_TO_END, PER_LAYER};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package lives in the repository")
        .to_path_buf()
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let spec = spec();
    let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
        r.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&spec, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
}

#[test]
fn every_workload_prints_every_metric() {
    let spec = spec();
    for workload in perfbench::WORKLOADS
        .iter()
        .chain(perfbench::UNSTEADY_WORKLOADS)
    {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(repo_root())
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            let result = json::parse(line).expect("result line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{line}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            let metrics = result.get("metrics").expect("metrics");
            let Value::Obj(members) = metrics else {
                panic!("metrics is not an object: {line}");
            };
            let names = listed(&spec, key);
            assert_eq!(members.len(), names.len(), "{workload}: {line}");
            for (name, unit) in &names {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} misses {name}"));
                let v = m.get("value").and_then(Value::as_f64).expect("value");
                assert!(v.is_finite(), "{workload} {name} = {v}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
            if trace == "1" {
                let trace_file = perfbench::out_dir().join(format!("{workload}-seed3.trace.json"));
                let text = std::fs::read_to_string(&trace_file).expect("trace written");
                json::validate_trace_events(&text).expect("valid Perfetto JSON");
            }
        }
    }
}

#[test]
fn a_flipped_bit_is_a_failure() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let cfg = MfConfig::new(4);
    let trained = sgd_mf::train_threaded(&data, cfg.clone(), 2, 2, false).0;
    let run = MfRunConfig {
        cluster: ClusterSpec::new(1, 2),
        passes: 2,
        ordered: false,
    };
    let oracle = sgd_mf::train_orion(&data, cfg, &run).0;
    assert!(check::mf_identical(&trained, &oracle));

    // Flip one bit of H's first row.
    let mut flipped = trained.clone();
    let x = &mut flipped.h.dense_values_mut()[1];
    *x = f32::from_bits(x.to_bits() ^ (1 << 22));

    let mut out = Outcome::default();
    out.tally.record(check::mf_identical(&trained, &oracle));
    out.tally.record(check::mf_identical(&flipped, &oracle));
    assert_eq!((out.tally.attempted, out.tally.failed), (2, 1));
    assert!(out.json_line(END_TO_END).starts_with("{\"correct\": false"));

    // Answers served from the flipped model disagree with the oracle
    // on the trained one, for both query kinds.
    let engine = ServeEngine::new(MfServe::from_model(&flipped, 2), EngineConfig::default());
    let n_items = engine.model().n_items() as usize;
    let mut tally = Tally::default();
    for q in [
        MfQuery::Predict { user: 0, item: 0 },
        MfQuery::Recommend {
            user: 0,
            k: n_items,
        },
    ] {
        tally.record(check::mf_answer_ok(&trained, &q, &engine.answer(&q)));
    }
    assert_eq!(tally.failed, 2);
}
