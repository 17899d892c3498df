//! Observability pipeline tests: JSONL export, timelines, telemetry
//! summaries, and the guarantee that observation never changes a run.

use canary_core::ReplicationStrategyKind;
use canary_experiments::load::open_loop_jobs;
use canary_experiments::{chaos, trace_from_jsonl, trace_to_jsonl, Scenario, StrategyKind};
use canary_platform::{JobSpec, Phase, TraceKind};
use canary_workloads::{WorkloadKind, WorkloadSpec};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

/// Small observed scenario with injected node failures: enough load for
/// checkpoints and at least one node-loss recovery, small enough to keep
/// the golden trace reviewable.
fn obs_scenario() -> Scenario {
    let mut s = Scenario::chameleon(
        0.15,
        vec![JobSpec::new(
            WorkloadSpec::paper_default(WorkloadKind::DeepLearning),
            8,
        )],
    );
    s.nodes = 4;
    s.node_failure_rate = 0.6;
    s
}

/// Fixed seed + fixed scenario must reproduce the exact same event
/// sequence run after run, and that sequence must tell the recovery
/// story in the right grammar.
#[test]
fn golden_trace_is_deterministic_and_well_formed() {
    let a = obs_scenario().run_observed(CANARY, 42);
    let b = obs_scenario().run_observed(CANARY, 42);
    let kinds_a: Vec<&str> = a.trace.events.iter().map(|e| e.kind.name()).collect();
    let kinds_b: Vec<&str> = b.trace.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(kinds_a, kinds_b, "same seed must give identical traces");
    assert_eq!(trace_to_jsonl(&a.trace), trace_to_jsonl(&b.trace));

    // The grammar: an arrival followed by a submit opens the run, node
    // loss leads to a recovery plan, and every recovery plan is followed
    // by a restart.
    assert_eq!(kinds_a.first(), Some(&"job_arrived"));
    assert!(kinds_a.contains(&"job_submitted"));
    for needed in [
        "node_failed",
        "checkpoint_written",
        "checkpoint_restored",
        "recovery_planned",
        "warm_pool_spawned",
    ] {
        assert!(
            kinds_a.contains(&needed),
            "expected {needed} in trace: {kinds_a:?}"
        );
    }
    let plans = kinds_a.iter().filter(|k| **k == "recovery_planned").count();
    let restores = kinds_a
        .iter()
        .filter(|k| **k == "checkpoint_restored")
        .count();
    assert_eq!(plans, restores, "each planned recovery restores once");
}

/// Every committed golden trace parses and re-encodes byte-for-byte: the
/// schema table's writer and parser agree on real traces, not just on
/// hand-built fixtures.
#[test]
fn committed_golden_traces_round_trip_byte_for_byte() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let raw = std::fs::read_to_string(&path).unwrap();
        let trace = trace_from_jsonl(&raw)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(!trace.events.is_empty(), "{} is empty", path.display());
        assert!(
            trace_to_jsonl(&trace) == raw,
            "{} does not re-encode byte-for-byte",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 6,
        "expected the 6 committed golden traces, found {checked}"
    );
}

/// Observation is read-only: the same seed with trace+telemetry enabled
/// must produce the identical simulation outcome.
#[test]
fn observed_run_matches_unobserved_run() {
    let scenario = obs_scenario();
    let plain = scenario.run_once(CANARY, 42);
    let observed = scenario.run_observed(CANARY, 42);
    assert!(plain.trace.events.is_empty());
    assert!(!plain.telemetry.enabled);
    assert!(!observed.trace.events.is_empty());
    assert!(observed.telemetry.enabled);
    // RunResult has no PartialEq; compare the simulation-outcome fields
    // through their Debug form.
    assert_eq!(format!("{:?}", plain.fns), format!("{:?}", observed.fns));
    assert_eq!(format!("{:?}", plain.jobs), format!("{:?}", observed.jobs));
    assert_eq!(
        format!("{:?}", plain.containers),
        format!("{:?}", observed.containers)
    );
    assert_eq!(
        format!("{:?}", plain.counters),
        format!("{:?}", observed.counters)
    );
    assert_eq!(
        format!("{:?}", plain.finished_at),
        format!("{:?}", observed.finished_at)
    );
    // Telemetry reads the registry: its counters are exactly the
    // non-zero registry entries, in Counter::ALL order.
    let registry: Vec<_> = observed.counters.iter().filter(|&(_, v)| v > 0).collect();
    assert!(!registry.is_empty());
    assert_eq!(observed.telemetry.counters, registry);
}

/// Every counter with a trace witness equals that witness on the
/// committed mixed-42, controller-crash-42 and migration-42 runs, plus
/// an open-loop overload run for the admission rows. The trace is
/// recorded independently of the counters, so a counter bumped twice,
/// or at a site that emits nothing, fails here.
#[test]
fn counters_tie_out_with_their_trace_witnesses() {
    let chaos_run = |name: &str, strategy: StrategyKind| {
        chaos::demo_scenario(chaos::named(name).expect("scenario")).run_observed(strategy, 42)
    };
    // Sustained overload queues and dequeues jobs; one job larger than
    // the whole gate is rejected on arrival.
    let mut overload = Scenario::chameleon(0.15, open_loop_jobs(4.0, 40, 0xA11));
    overload.max_inflight = Some(8);
    overload
        .jobs
        .push(JobSpec::new(WorkloadSpec::web_service(10), 9));
    let runs = [
        ("mixed-42", chaos_run("mixed", CANARY)),
        ("controller-crash-42", chaos_run("controller-crash", CANARY)),
        (
            "migration-42",
            chaos_run("migration", StrategyKind::CanaryMigrate),
        ),
        ("open-loop-overload", overload.run_observed(CANARY, 42)),
    ];
    let mut exercised = std::collections::BTreeSet::new();
    let mut row_count = 0;
    for (name, r) in &runs {
        let c = &r.counters;
        let n = |pred: fn(&TraceKind) -> bool| r.trace.count(pred) as u64;
        let sum = |field: fn(&TraceKind) -> u64| -> u64 {
            r.trace.events.iter().map(|e| field(&e.kind)).sum()
        };
        let rows = [
            (
                "checkpoints_written",
                c.checkpoints_written,
                n(|k| matches!(k, TraceKind::CheckpointWritten { .. })),
            ),
            (
                "checkpoints_skipped",
                c.checkpoints_skipped,
                n(|k| matches!(k, TraceKind::CheckpointSkipped { .. })),
            ),
            (
                "checkpoints_corrupted",
                c.checkpoints_corrupted,
                n(|k| matches!(k, TraceKind::CheckpointCorrupted { .. })),
            ),
            (
                "restores",
                c.restores,
                n(|k| {
                    matches!(
                        k,
                        TraceKind::CheckpointRestored { .. } | TraceKind::MigrationPlanned { .. }
                    )
                }),
            ),
            (
                "restore_fallbacks",
                c.restore_fallbacks,
                n(|k| {
                    matches!(
                        k,
                        TraceKind::RestoreFallback { .. } | TraceKind::MigrationFallback { .. }
                    )
                }),
            ),
            (
                "migrations",
                c.migrations,
                n(|k| matches!(k, TraceKind::MigrationPlanned { .. })),
            ),
            (
                "chunks_migrated",
                c.chunks_migrated,
                sum(|k| match *k {
                    TraceKind::MigrationPlanned { chunks, .. } => chunks.into(),
                    _ => 0,
                }),
            ),
            (
                "jobs_queued",
                c.jobs_queued,
                n(|k| matches!(k, TraceKind::JobQueued { .. })),
            ),
            (
                "jobs_dequeued",
                c.jobs_dequeued,
                n(|k| matches!(k, TraceKind::JobDequeued { .. })),
            ),
            (
                "jobs_rejected",
                c.jobs_rejected,
                n(|k| matches!(k, TraceKind::JobRejected { .. })),
            ),
            (
                "replicas_consumed",
                c.replicas_consumed,
                n(|k| matches!(k, TraceKind::ReplicaConsumed { .. })),
            ),
            (
                "replicas_refreshed",
                c.replicas_refreshed,
                sum(|k| match *k {
                    TraceKind::ReplicaRefreshed { spawned, .. } => spawned.into(),
                    _ => 0,
                }),
            ),
            (
                "warm_recoveries + cold_recoveries",
                c.warm_recoveries + c.cold_recoveries,
                n(|k| matches!(k, TraceKind::RecoveryPlanned { .. })),
            ),
            (
                "node_failures",
                c.node_failures,
                n(|k| matches!(k, TraceKind::NodeFailed { .. })),
            ),
            (
                "function_failures",
                c.function_failures,
                n(|k| matches!(k, TraceKind::AttemptFailed { .. })),
            ),
            (
                "store_outages",
                c.store_outages,
                n(|k| matches!(k, TraceKind::StoreOutage { .. })),
            ),
            (
                "store_rejoins",
                c.store_rejoins,
                n(|k| matches!(k, TraceKind::StoreRejoined { .. })),
            ),
            (
                "stragglers_injected",
                c.stragglers_injected,
                n(|k| matches!(k, TraceKind::StragglerInjected { .. })),
            ),
            (
                "controller_crashes",
                c.controller_crashes,
                n(|k| matches!(k, TraceKind::ControllerCrashed)),
            ),
            (
                "wal_records_replayed",
                c.wal_records_replayed,
                sum(|k| match *k {
                    TraceKind::ControllerRecovered { replayed, .. } => replayed,
                    _ => 0,
                }),
            ),
            (
                "wal_torn_tails",
                c.wal_torn_tails,
                n(|k| matches!(k, TraceKind::ControllerRecovered { torn: true, .. })),
            ),
        ];
        row_count = rows.len();
        for (counter, value, witness) in rows {
            assert_eq!(value, witness, "{name}: {counter} does not tie out");
            if value > 0 {
                exercised.insert(counter);
            }
        }
    }
    // No row ties out only because it is zero everywhere.
    assert_eq!(exercised.len(), row_count, "exercised only {exercised:?}");
}

/// The observed run's telemetry must cover the recovery-relevant phases
/// with real samples.
#[test]
fn observed_run_records_recovery_histograms() {
    let r = obs_scenario().run_observed(CANARY, 42);
    let snap = &r.telemetry;
    for phase in [Phase::CheckpointWrite, Phase::RecoveryE2E] {
        let p = snap
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .unwrap_or_else(|| panic!("no {} samples in snapshot", phase.label()));
        assert!(p.count > 0);
        assert!(
            p.max.as_micros() > 0,
            "{} max must be non-zero",
            phase.label()
        );
    }
    assert!(!snap.tables.is_empty(), "db table traffic must be reported");
}

/// End-to-end through the CLI: a fixed-seed run with injected node
/// failures exports a parseable JSONL trace, a telemetry JSONL file,
/// and prints the timeline + recovery breakdown + summaries.
#[test]
fn canaryctl_exports_trace_timeline_and_telemetry() {
    let dir = std::env::temp_dir().join(format!("canary-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path: PathBuf = dir.join("trace.jsonl");
    let tel_path: PathBuf = dir.join("telemetry.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
        .args([
            "--strategy",
            "canary",
            "--workload",
            "dl",
            "--invocations",
            "30",
            "--rate",
            "0.15",
            "--nodes",
            "8",
            "--node-failures",
            "0.2",
            "--reps",
            "1",
            "--seed",
            "42",
            "--timeline",
        ])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--telemetry-out")
        .arg(&tel_path)
        .output()
        .expect("canaryctl runs");
    assert!(
        out.status.success(),
        "canaryctl failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // (a) the JSONL trace parses and contains the recovery events.
    let raw = std::fs::read_to_string(&trace_path).unwrap();
    let trace = trace_from_jsonl(&raw).expect("exported trace parses back");
    assert!(!trace.events.is_empty());
    for (name, pred) in [
        (
            "checkpoint_written",
            trace.count(|k| matches!(k, TraceKind::CheckpointWritten { .. })),
        ),
        (
            "checkpoint_restored",
            trace.count(|k| matches!(k, TraceKind::CheckpointRestored { .. })),
        ),
        (
            "recovery_planned",
            trace.count(|k| matches!(k, TraceKind::RecoveryPlanned { .. })),
        ),
    ] {
        assert!(
            pred > 0,
            "expected {name} events in {}",
            trace_path.display()
        );
    }

    // (b) the timeline output shows the critical-path breakdown.
    for needle in [
        "timeline",
        "recovery critical path",
        "detect",
        "restore",
        "resume",
        "run counters",
        "telemetry summary",
        "checkpoint_write",
        "recovery_e2e",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }

    // (c) the telemetry JSONL carries the phase records.
    let tel = std::fs::read_to_string(&tel_path).unwrap();
    assert!(tel.lines().any(|l| l.contains("\"record\":\"meta\"")));
    assert!(tel
        .lines()
        .any(|l| l.contains("\"phase\":\"checkpoint_write\"")));
    assert!(tel
        .lines()
        .any(|l| l.contains("\"phase\":\"recovery_e2e\"")));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn canaryctl_exits_cleanly_when_the_reader_closes_stdout() {
    // `canaryctl wal --in W | head -1`: the reader closes the pipe early,
    // and canaryctl must end with exit 0 instead of panicking on the
    // broken pipe — both in its own printing and in the timeline export.
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/chaos_controller_crash_seed42.wal");
    let golden = golden.to_str().unwrap();
    for args in [
        vec!["wal", "--in", golden],
        vec!["chaos", "--scenario", "mixed", "--seed", "42", "--timeline"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("canaryctl starts");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("canaryctl finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && !stderr.contains("panicked"),
            "canaryctl {args:?} with a closed stdout: {:?}\n{stderr}",
            out.status
        );
    }
}
