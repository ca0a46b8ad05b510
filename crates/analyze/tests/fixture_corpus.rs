//! Fixture corpus: one passing and one violating case per lint pass
//! (under `tests/fixtures/`, excluded from the workspace scan), plus
//! the live-workspace gate: the real tree must be violation-free.

use std::fs;
use std::path::{Path, PathBuf};

use qk_analyze::passes;
use qk_analyze::policy::Policy;
use qk_analyze::report::Finding;
use qk_analyze::scan::FileModel;

/// Loads a fixture under a virtual workspace-relative path so the
/// policy's path rules apply to it.
fn fixture(name: &str, virtual_path: &str) -> FileModel {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    FileModel::scan(PathBuf::from(virtual_path), &src)
}

fn assert_all_pass(findings: &[Finding], pass: &str) {
    for f in findings {
        assert_eq!(f.pass, pass, "unexpected pass in finding: {f:?}");
    }
}

#[test]
fn determinism_fixtures() {
    let policy = Policy::parse(
        "[determinism]\npinned = [\"pinned.rs\"]\nallow_clock_in = [\"timed_run\"]\n",
    )
    .unwrap();
    let ok = fixture("determinism_ok.rs", "pinned.rs");
    assert!(
        passes::determinism::run(&[ok], &policy).is_empty(),
        "passing determinism fixture must be clean"
    );
    let bad = fixture("determinism_bad.rs", "pinned.rs");
    let findings = passes::determinism::run(&[bad], &policy);
    assert_all_pass(&findings, "determinism");
    // One per construct: `.mul_add` on f64, `f64::mul_add`, the HashMap
    // type (twice: use + field), and the clock read.
    assert!(findings.len() >= 4, "got {findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("mul_add")));
    assert!(findings.iter().any(|f| f.message.contains("HashMap")));
    assert!(findings
        .iter()
        .any(|f| f.function == "Kernel::salted_digest"));
}

#[test]
fn obs_clock_fixtures() {
    // Mirrors the live analyze.toml shape: the whole obs crate pinned by
    // directory prefix, with only the audited entry points allowed to
    // touch the clock.
    let policy = Policy::parse(
        "[determinism]\npinned = [\"crates/obs/src/\", \"crates/gram/src/engine.rs\"]\n\
         allow_clock_in = [\"SpanGuard::enter\", \"Journal::open_bounded\"]\n",
    )
    .unwrap();

    // The qk-obs idiom passes: ambient reads only in allowlisted
    // functions, everything downstream works from stored instants.
    let ok = fixture("obs_clock_ok.rs", "crates/obs/src/span.rs");
    assert!(
        passes::determinism::run(&[ok], &policy).is_empty(),
        "allowlisted obs clock sites must be clean"
    );

    // The same allowlist does NOT grant instrumented kernel files the
    // right to read clocks directly: a timing hack in the engine and a
    // process-id salt in a helper are both still flagged.
    let bad = fixture("obs_clock_bad.rs", "crates/gram/src/engine.rs");
    let findings = passes::determinism::run(&[bad], &policy);
    assert_all_pass(&findings, "determinism");
    assert_eq!(findings.len(), 2, "got {findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.function == "Tile::compute" && f.message.contains("Instant::now")),
        "ambient clock read in a kernel fn must be flagged: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function == "scratch_name" && f.message.contains("process::id")),
        "process-id read outside the allowlist must be flagged: {findings:?}"
    );

    // Directory pinning means the same violations inside the obs crate
    // itself are flagged too — the allowlist names functions, not files.
    let bad_in_obs = fixture("obs_clock_bad.rs", "crates/obs/src/journal.rs");
    assert_eq!(
        passes::determinism::run(&[bad_in_obs], &policy).len(),
        2,
        "un-allowlisted clock reads inside crates/obs/ are not exempt"
    );
}

#[test]
fn trace_clock_fixtures() {
    // Mirrors the live analyze.toml shape for the trace module: the obs
    // crate pinned by directory prefix alongside the instrumented gram
    // engine, with only the tracer's audited entry points allowed to
    // touch the clock.
    let policy = Policy::parse(
        "[determinism]\npinned = [\"crates/obs/src/\", \"crates/gram/src/engine.rs\"]\n\
         allow_clock_in = [\"Tracer::new\", \"Tracer::now_us\", \"Tracer::write_shards\"]\n",
    )
    .unwrap();

    // The tracer idiom passes: the epoch read, the stamp read, and the
    // pid-tagged temp name are all in allowlisted functions; recording
    // takes stamps as arguments.
    let ok = fixture("trace_clock_ok.rs", "crates/obs/src/trace.rs");
    assert!(
        passes::determinism::run(&[ok], &policy).is_empty(),
        "allowlisted tracer clock sites must be clean"
    );

    // The allowlist grants nothing to kernel files that self-instrument:
    // an inline trace stamp in the tile loop and a pid-salted shard name
    // are both flagged.
    let bad = fixture("trace_clock_bad.rs", "crates/gram/src/engine.rs");
    let findings = passes::determinism::run(&[bad], &policy);
    assert_all_pass(&findings, "determinism");
    assert_eq!(findings.len(), 2, "got {findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.function == "TileTimeline::stamp_tile" && f.message.contains("Instant::now")),
        "inline trace stamp in a kernel fn must be flagged: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function == "shard_name" && f.message.contains("process::id")),
        "pid-salted shard name outside the allowlist must be flagged: {findings:?}"
    );

    // Directory pinning applies inside the obs crate too: the same
    // violations in a different obs file are still flagged — the
    // allowlist names functions, not files.
    let bad_in_obs = fixture("trace_clock_bad.rs", "crates/obs/src/trace.rs");
    assert_eq!(
        passes::determinism::run(&[bad_in_obs], &policy).len(),
        2,
        "un-allowlisted clock reads inside crates/obs/ are not exempt"
    );
}

#[test]
fn chaos_clock_fixtures() {
    // Mirrors the live analyze.toml shape: the whole chaos crate pinned
    // by directory prefix, with only the audited backoff loop allowed
    // to read the clock — and the same allowlist granting nothing to
    // kernel files.
    let policy = Policy::parse(
        "[determinism]\npinned = [\"crates/chaos/src/\", \"crates/gram/src/engine.rs\"]\n\
         allow_clock_in = [\"RetryPolicy::run\"]\n",
    )
    .unwrap();

    // The qk-chaos idiom passes: the elapsed cap inside the allowlisted
    // retry loop is fine, fault decisions stay pure.
    let ok = fixture("chaos_clock_ok.rs", "crates/chaos/src/retry.rs");
    assert!(
        passes::determinism::run(&[ok], &policy).is_empty(),
        "allowlisted chaos backoff clock site must be clean"
    );

    // Clock-seeded fault decisions and jitter salts are flagged inside
    // the chaos crate itself...
    let bad = fixture("chaos_clock_bad.rs", "crates/chaos/src/plan.rs");
    let findings = passes::determinism::run(&[bad], &policy);
    assert_all_pass(&findings, "determinism");
    assert_eq!(findings.len(), 2, "got {findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.function == "FaultSite::fire_now" && f.message.contains("Instant::now")),
        "clock-seeded fault decision must be flagged: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function == "jitter_salt" && f.message.contains("process::id")),
        "process-id jitter outside the allowlist must be flagged: {findings:?}"
    );

    // ...and the RetryPolicy::run allowlist entry does not leak into
    // pinned kernel files: the same clock-reading retry loop pasted
    // into the engine is still clean ONLY because the allowlist names
    // functions; the surrounding violations prove the file is checked.
    let bad_in_engine = fixture("chaos_clock_bad.rs", "crates/gram/src/engine.rs");
    assert_eq!(
        passes::determinism::run(&[bad_in_engine], &policy).len(),
        2,
        "un-allowlisted clock reads in a kernel file are not exempt"
    );
}

#[test]
fn trainer_clock_fixtures() {
    // Mirrors the live analyze.toml shape: the crash-safe trainer pinned
    // as a single file, with only the atomic-rename temp naming in
    // `TrainerCkpt::store` allowed to read ambient process state.
    let policy = Policy::parse(
        "[determinism]\npinned = [\"crates/svm/src/trainer.rs\"]\n\
         allow_clock_in = [\"TrainerCkpt::store\"]\n",
    )
    .unwrap();

    // The trainer idiom passes: pid-tagged temp naming inside the
    // allowlisted store, pure fingerprint-equality resume decisions.
    let ok = fixture("trainer_clock_ok.rs", "crates/svm/src/trainer.rs");
    assert!(
        passes::determinism::run(&[ok], &policy).is_empty(),
        "allowlisted trainer temp-naming pid read must be clean"
    );

    // Clock-stamped snapshot bytes, clock-decided resume and a
    // hash-ordered error cache are all flagged.
    let bad = fixture("trainer_clock_bad.rs", "crates/svm/src/trainer.rs");
    let findings = passes::determinism::run(&[bad], &policy);
    assert_all_pass(&findings, "determinism");
    assert!(
        findings
            .iter()
            .any(|f| f.function == "Snapshot::stamp" && f.message.contains("SystemTime")),
        "clock-stamped snapshot contents must be flagged: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.function == "should_adopt" && f.message.contains("Instant")),
        "clock-decided resume must be flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("HashMap")),
        "hash-ordered error cache must be flagged: {findings:?}"
    );

    // The allowlist names functions, not files: the same violations in
    // an unpinned file produce no findings, and the pinned-path check
    // is what put them in scope at all.
    let bad_unpinned = fixture("trainer_clock_bad.rs", "crates/svm/src/smo_helpers.rs");
    assert!(
        passes::determinism::run(&[bad_unpinned], &policy).is_empty(),
        "unpinned files are out of determinism scope"
    );
}

#[test]
fn no_alloc_fixtures() {
    let policy = Policy::parse("[no_alloc]\nfunctions = [\"compute_tile\"]\n").unwrap();
    let ok = fixture("no_alloc_ok.rs", "hot.rs");
    assert!(
        passes::no_alloc::run(&[ok], &policy).is_empty(),
        "passing no-alloc fixture must be clean (orchestration `run` may allocate)"
    );
    let bad = fixture("no_alloc_bad.rs", "hot.rs");
    let findings = passes::no_alloc::run(&[bad], &policy);
    assert_all_pass(&findings, "no_alloc");
    // vec!, to_vec, clone, Box::new, collect.
    assert_eq!(findings.len(), 5, "got {findings:?}");
    assert!(findings.iter().all(|f| f.function == "compute_tile"));
}

#[test]
fn unsafe_audit_fixtures() {
    let policy = Policy::parse("[unsafe_audit]\nallow_paths = [\"crates/tensor/\"]\n").unwrap();
    let ok = fixture("unsafe_ok.rs", "crates/tensor/src/kernel.rs");
    let (findings, inventory) = passes::unsafe_audit::run(&[ok], &policy);
    assert!(findings.is_empty(), "got {findings:?}");
    assert_eq!(inventory.len(), 2);
    assert!(inventory.iter().all(|e| !e.justification.is_empty()));

    let bad = fixture("unsafe_bad.rs", "crates/tensor/src/kernel.rs");
    let (findings, inventory) = passes::unsafe_audit::run(&[bad], &policy);
    assert_eq!(findings.len(), 1, "got {findings:?}");
    assert!(findings[0].message.contains("SAFETY"));
    assert!(inventory[0].justification.is_empty());

    // The same justified fixture outside the allowlist still fails.
    let misplaced = fixture("unsafe_ok.rs", "crates/mps/src/kernel.rs");
    let (findings, _) = passes::unsafe_audit::run(&[misplaced], &policy);
    assert_eq!(findings.len(), 2, "both sites flagged: {findings:?}");
    assert!(findings.iter().all(|f| f.message.contains("allowlisted")));
}

#[test]
fn lock_order_fixtures() {
    let policy = Policy::parse("[lock_order]\nroots = [\"crates/serve/src\"]\n").unwrap();
    let ok = fixture("lock_order_ok.rs", "crates/serve/src/server.rs");
    assert!(
        passes::lock_order::run(&[ok], &policy).is_empty(),
        "passing lock-order fixture must be clean"
    );
    let bad = fixture("lock_order_bad.rs", "crates/serve/src/server.rs");
    let findings = passes::lock_order::run(&[bad], &policy);
    assert_all_pass(&findings, "lock_order");
    assert!(
        findings.iter().any(|f| f.message.contains("cycle")),
        "inverted order must report a cycle: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("send") && f.function == "Server::reply"),
        "send-under-guard must be flagged: {findings:?}"
    );
}

#[test]
fn fingerprint_fixtures() {
    let policy = Policy::parse(
        "[[fingerprint.contract]]\nstruct = \"JobSpec\"\nfunction = \"JobSpec::fingerprint\"\n",
    )
    .unwrap();
    let ok = fixture("fingerprint_ok.rs", "crates/gram/src/fingerprint.rs");
    assert!(
        passes::fingerprint_cov::run(&[ok], &policy).is_empty(),
        "fully-hashed fixture must be clean"
    );
    let bad = fixture("fingerprint_bad.rs", "crates/gram/src/fingerprint.rs");
    let findings = passes::fingerprint_cov::run(&[bad], &policy);
    assert_eq!(findings.len(), 1, "got {findings:?}");
    assert!(findings[0].message.contains("JobSpec.seed"));
}

/// The gate behind `--deny` in CI: the live workspace, under the
/// checked-in `analyze.toml`, has zero findings — and the unsafe
/// surface is pinned to exactly the qk-tensor AVX sites.
#[test]
fn live_workspace_is_violation_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (analysis, policy) =
        qk_analyze::analyze_root(&root, &root.join("analyze.toml")).expect("analyze workspace");
    assert!(
        analysis.findings.is_empty(),
        "live workspace must be violation-free:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        analysis.files_scanned > 100,
        "scan should cover the whole workspace, saw {}",
        analysis.files_scanned
    );
    assert_eq!(
        analysis.unsafe_inventory.len(),
        5,
        "unsafe surface is pinned to the two AVX GEMM kernels, the fused zipper site and \
         the one AVX Jacobi driver: {:?}",
        analysis.unsafe_inventory
    );
    assert!(analysis
        .unsafe_inventory
        .iter()
        .all(|e| e.path.starts_with("crates/tensor/") && !e.justification.is_empty()));
    assert_eq!(policy.contracts.len(), 4, "four fingerprint contracts");
}
