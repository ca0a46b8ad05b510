//! Schema gate for exported observability reports: every `obs_*.json`
//! under the obs directory must satisfy [`qk::obs::validate_report_json`]
//! — the plain-Rust stand-in for a JSON-schema validator — and the
//! pipeline reports must carry a real span rollup.
//!
//! CI points `QK_OBS_DIR` at the artifacts its smoke runs just
//! exported; without the override the gate checks the committed
//! reference reports under `results/`.

use qk::obs::{json, validate_report_json, Json};
use std::path::PathBuf;

fn obs_dir() -> PathBuf {
    match std::env::var("QK_OBS_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"),
    }
}

fn reports() -> Vec<(String, String)> {
    let dir = obs_dir();
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("obs dir {} unreadable: {e}", dir.display()))
    {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("obs_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(entry.path()).expect("report readable");
            found.push((name, text));
        }
    }
    found.sort();
    found
}

fn span_paths(text: &str) -> Vec<String> {
    json::parse(text)
        .expect("report parses")
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .map(|s| {
            s.get("path")
                .and_then(Json::as_str)
                .expect("span path")
                .to_string()
        })
        .collect()
}

/// Every exported report passes the structural schema check.
#[test]
fn every_exported_report_is_schema_valid() {
    let all = reports();
    assert!(
        !all.is_empty(),
        "no obs_*.json reports under {} — run the gram/serve smokes with --obs-dir first",
        obs_dir().display()
    );
    for (name, text) in &all {
        validate_report_json(text).unwrap_or_else(|e| panic!("{name} fails the schema gate: {e}"));
    }
}

/// The gram and serve pipeline reports are not stubs: each carries a
/// span rollup at least five paths deep, with the engine/worker roots
/// the instrumentation promises.
#[test]
fn pipeline_reports_carry_real_span_rollups() {
    for (file, root_span) in [
        ("obs_gram.json", "gram_job"),
        ("obs_serve.json", "serve_worker"),
    ] {
        let path = obs_dir().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
        validate_report_json(&text).unwrap_or_else(|e| panic!("{file} fails schema: {e}"));
        let paths = span_paths(&text);
        assert!(
            paths.len() >= 5,
            "{file}: expected >= 5 distinct span paths, got {paths:?}"
        );
        assert!(
            paths
                .iter()
                .any(|p| p == root_span || p.starts_with(&format!("{root_span}/"))),
            "{file}: missing root span {root_span}: {paths:?}"
        );
    }
}

/// Chaos/recovery counters surface in every pipeline snapshot: each
/// report carries a `robustness` block with the fault-injection and
/// recovery totals for its subsystem, even on a clean (all-zero) run.
#[test]
fn pipeline_reports_surface_robustness_counters() {
    for (file, keys) in [
        (
            "obs_gram.json",
            &[
                "gram.faults_injected",
                "gram.retries",
                "gram.tiles_quarantined",
                "gram.workers_restarted",
            ][..],
        ),
        (
            "obs_serve.json",
            &[
                "serve.faults_injected",
                "serve.requests_shed",
                "serve.workers_restarted",
            ][..],
        ),
        (
            "obs_svm.json",
            &[
                "svm.faults_injected",
                "svm.ckpt.retries",
                "svm.rows_recomputed",
                "svm.resumes",
            ][..],
        ),
    ] {
        let path = obs_dir().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
        let robustness = json::parse(&text)
            .expect("report parses")
            .get("robustness")
            .cloned()
            .unwrap_or_else(|| panic!("{file}: missing robustness block"));
        for key in keys {
            assert!(
                robustness.get(key).and_then(Json::as_u64).is_some(),
                "{file}: robustness block missing counter {key}"
            );
        }
    }
}

/// The trainer report carries how the solver shrank next to what it
/// trained: `svm.shrunk_passes` among the counters; `svm.active_min`
/// (the smallest active set of the run), `svm.support_vectors` and
/// `svm.at_bound` among the gauges.
#[test]
fn svm_report_carries_shrinking_and_model_counts() {
    let path = obs_dir().join("obs_svm.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let report = json::parse(&text).expect("report parses");
    let section = |name: &str| {
        report
            .get(name)
            .cloned()
            .unwrap_or_else(|| panic!("obs_svm.json: missing {name}"))
    };
    let (counters, gauges) = (section("counters"), section("gauges"));
    assert!(
        counters
            .get("svm.shrunk_passes")
            .and_then(Json::as_u64)
            .is_some(),
        "obs_svm.json: counters missing svm.shrunk_passes"
    );
    let gauge = |key: &str| {
        gauges
            .get(key)
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("obs_svm.json: gauges missing {key}"))
    };
    let (active_min, svs, at_bound) = (
        gauge("svm.active_min"),
        gauge("svm.support_vectors"),
        gauge("svm.at_bound"),
    );
    assert!(active_min >= 2, "svm.active_min {active_min}");
    assert!(
        (0..=svs).contains(&at_bound),
        "svm.at_bound {at_bound} vs svm.support_vectors {svs}"
    );
}
