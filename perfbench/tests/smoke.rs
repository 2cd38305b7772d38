//! Tiny-size runs of every workload, untraced and traced, through the
//! same entry point the command line uses.

use std::sync::Mutex;

use perfbench::bed::Scale;
use perfbench::layers::PER_LAYER;
use perfbench::run::{result_line, run, RunConfig, END_TO_END};
use perfbench::workloads::WorkloadName;

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

/// The collector is process-global; runs in this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: WorkloadName, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 17,
        seconds: 0.05,
        trace,
        scale: Scale::tiny(),
    }
}

fn names(metrics: &[perfbench::Metric]) -> Vec<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_runs_correctly_untraced() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WorkloadName::ALL {
        let out = run(&tiny(w, false));
        assert!(out.correct, "{}: {:?}", w.as_str(), out.failures);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 2);
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&out.metrics), want);
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.as_str(),
                m.name,
                m.value
            );
        }
        let line = result_line(&out);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(out.report.contains("\"label\": \"measured\""));
        assert!(out.report.contains("\"obs_enabled\": false"));
    }
}

#[test]
fn every_workload_reports_every_layer_metric_traced() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WorkloadName::ALL {
        let out = run(&tiny(w, true));
        assert!(out.correct, "{}: {:?}", w.as_str(), out.failures);
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&out.metrics), want);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        assert!(out.report.contains("\"obs_enabled\": true"));
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(value("avro.encode_us_per_row") > 0.0);
        assert!(value("sched.empty_job_ms_p50") > 0.0);
        match w {
            WorkloadName::S2vBulk | WorkloadName::StreamTrickle => {
                assert!(value("s2v.job_ms") > 0.0, "{}", w.as_str());
                assert!(value("s2v.phase5_ms") > 0.0, "{}", w.as_str());
            }
            WorkloadName::V2sScan => assert!(value("v2s.piece_ms") > 0.0),
            WorkloadName::SqlAnalytics => assert!(value("md.predictions") > 0.0),
        }
    }
}

/// `BENCHMARK.json` names exactly the workloads and metrics the binary
/// prints.
#[test]
fn benchmark_manifest_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let listed = |name: &str| manifest.contains(&format!("\"name\": \"{name}\""));
    for w in WorkloadName::ALL {
        assert!(listed(w.as_str()), "workload {}", w.as_str());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(listed(name), "metric {name}");
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "unit of {name}"
        );
    }
    let entries = manifest.matches("\"name\": ").count();
    assert_eq!(
        entries,
        WorkloadName::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
