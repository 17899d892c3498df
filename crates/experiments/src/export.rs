//! JSONL export of traces and telemetry, plus the shared `--trace-out` /
//! `--telemetry-out` / `--timeline` CLI handling for `canaryctl` and the
//! figure binaries.
//!
//! Every trace event becomes one line, in the wire form that the
//! `trace_kinds!` schema table in `canary_platform::trace` declares
//! (DESIGN.md §16):
//!
//! ```json
//! {"at_us":3000000,"kind":"checkpoint_written","fn":1,"state":2,"bytes":65536,"tier":"ramdisk"}
//! ```
//!
//! and a telemetry snapshot becomes one line per phase summary, counter,
//! and database table. [`trace_from_jsonl`] round-trips every
//! [`TraceKind`] variant, which keeps exported traces usable as test
//! fixtures.

use crate::scenario::{Scenario, StrategyKind};
use canary_platform::{FnId, RunResult, TelemetrySnapshot, Trace, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Export errors (malformed JSONL on the read path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// A line is not a trace event: not a flat JSON object, or an
    /// unknown kind, a missing, duplicate or out-of-range field.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::BadLine { line, reason } => {
                write!(f, "bad JSONL at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ExportError {}

/// Serialize one trace event as a single JSON line (no trailing newline).
pub fn trace_event_to_json(e: &TraceEvent) -> String {
    let mut s = String::new();
    e.write_json(&mut s);
    s
}

/// Serialize a whole trace as JSONL (one event per line).
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for e in &trace.events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Serialize a telemetry snapshot as JSONL: a `meta` line, then one line
/// per phase summary, counter, and database table.
pub fn telemetry_to_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"record\":\"meta\",\"enabled\":{},\"spans_orphaned\":{}}}",
        snap.enabled, snap.spans_orphaned
    );
    for p in &snap.phases {
        let _ = writeln!(
            out,
            "{{\"record\":\"phase\",\"phase\":\"{}\",\"count\":{},\"total_us\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            p.phase.label(),
            p.count,
            p.total.as_micros(),
            p.mean.as_micros(),
            p.p50.as_micros(),
            p.p95.as_micros(),
            p.p99.as_micros(),
            p.max.as_micros(),
        );
    }
    for (c, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"record\":\"counter\",\"counter\":\"{}\",\"value\":{v}}}",
            c.label()
        );
    }
    for t in &snap.tables {
        let _ = writeln!(
            out,
            "{{\"record\":\"table\",\"table\":\"{}\",\"reads\":{},\"writes\":{}}}",
            t.table, t.reads, t.writes
        );
    }
    out
}

/// Parse a JSONL trace written by [`trace_to_jsonl`]. Blank lines are
/// skipped; anything else malformed is an error with its line number.
pub fn trace_from_jsonl(s: &str) -> Result<Trace, ExportError> {
    let mut events = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            TraceEvent::from_json(line).map_err(|reason| ExportError::BadLine {
                line: i + 1,
                reason,
            })?,
        );
    }
    Ok(Trace { events })
}

// ---------------------------------------------------------------------
// Standard-tool exporters: Chrome/Perfetto trace_event JSON and a
// span-per-line JSONL.
// ---------------------------------------------------------------------

/// Track (Perfetto `tid`) an event renders on: job lifecycle on track 1,
/// each function on its own track, cluster-wide faults on track 0.
fn perfetto_tid(kind: &TraceKind) -> u64 {
    match (kind.job(), kind.fn_id()) {
        (Some(_), _) => 1,
        (None, Some(fn_id)) => 10 + fn_id.0,
        (None, None) => 0,
    }
}

/// Human-readable event label: the [`TraceEvent`] display line without
/// its timestamp prefix. Contains no characters that need JSON escaping.
fn event_label(e: &TraceEvent) -> String {
    let line = e.to_string();
    match line.split_once("] ") {
        Some((_, body)) => body.trim().to_string(),
        None => line,
    }
}

/// Convert a trace to Chrome/Perfetto `trace_event` JSON (the
/// `{"traceEvents":[...]}` object form; open with `chrome://tracing` or
/// <https://ui.perfetto.dev>).
///
/// Attempts render as `B`/`E` duration slices on their function's track,
/// recovery windows (plan → restart) likewise, and everything else as
/// instant events. When the trace carries causal links
/// ([`canary_platform::RunConfig::causal`]), each `cause` link becomes a
/// flow arrow (`s`/`f` pair) so a chaos fault visibly points at the
/// attempts it killed and the recovery it triggered. Works on linkless
/// traces too — there are simply no arrows.
pub fn trace_to_perfetto(trace: &Trace) -> String {
    // First pass: where does each span land (for flow-arrow sources)?
    let mut span_site: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // span -> (ts, tid)
    for e in &trace.events {
        if e.span.is_some() {
            span_site.insert(e.span.0, (e.at.as_micros(), perfetto_tid(&e.kind)));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    // Track-name metadata.
    let mut fn_tracks: BTreeMap<u64, FnId> = BTreeMap::new();
    for e in &trace.events {
        let tid = perfetto_tid(&e.kind);
        if tid >= 10 {
            fn_tracks.insert(tid, FnId(tid - 10));
        }
    }
    for (tid, name) in [(0u64, "cluster/faults"), (1, "jobs")] {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    for (tid, fn_id) in &fn_tracks {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{fn_id}\"}}}}"
            ),
        );
    }
    // Open B slices per function track: attempt and recovery windows.
    let mut open_attempt: BTreeMap<u64, ()> = BTreeMap::new();
    let mut open_recovery: BTreeMap<u64, ()> = BTreeMap::new();
    let mut last_ts = 0u64;
    for e in &trace.events {
        let ts = e.at.as_micros();
        last_ts = last_ts.max(ts);
        let tid = perfetto_tid(&e.kind);
        match e.kind {
            TraceKind::AttemptStarted { fn_id, attempt, .. } => {
                if open_recovery.remove(&fn_id.0).is_some() {
                    push(
                        &mut out,
                        &mut first,
                        format!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"),
                    );
                }
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"B\",\"name\":\"attempt {attempt}\",\"cat\":\"attempt\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                    ),
                );
                open_attempt.insert(fn_id.0, ());
            }
            TraceKind::AttemptFailed { fn_id, .. } | TraceKind::FunctionCompleted { fn_id } => {
                if open_attempt.remove(&fn_id.0).is_some() {
                    push(
                        &mut out,
                        &mut first,
                        format!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"),
                    );
                }
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"lifecycle\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\"}}",
                        event_label(e)
                    ),
                );
            }
            TraceKind::RecoveryPlanned { fn_id, .. } => {
                if open_recovery.remove(&fn_id.0).is_some() {
                    push(
                        &mut out,
                        &mut first,
                        format!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"),
                    );
                }
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"B\",\"name\":\"recovery\",\"cat\":\"recovery\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                    ),
                );
                open_recovery.insert(fn_id.0, ());
            }
            _ => {
                let scope = if tid == 0 { "g" } else { "t" };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"event\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"s\":\"{scope}\"}}",
                        event_label(e)
                    ),
                );
            }
        }
        // Cause links become flow arrows, id'd by the target span.
        if e.cause.is_some() {
            if let Some(&(src_ts, src_tid)) = span_site.get(&e.cause.0) {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"s\",\"name\":\"cause\",\"cat\":\"causal\",\"id\":{},\"pid\":0,\"tid\":{src_tid},\"ts\":{src_ts}}}",
                        e.span.0
                    ),
                );
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"cause\",\"cat\":\"causal\",\"id\":{},\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}",
                        e.span.0
                    ),
                );
            }
        }
    }
    // Close anything still open so every B has its E.
    for (fn_raw, ()) in open_recovery {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":{last_ts}}}",
                10 + fn_raw
            ),
        );
    }
    for (fn_raw, ()) in open_attempt {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":{last_ts}}}",
                10 + fn_raw
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Serialize a trace as span-per-line JSONL: every event's span identity,
/// links, timestamp, kind, and human-readable label on one line. The
/// natural input for log-pipeline tooling (`jq`-friendly).
pub fn spans_to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for e in &trace.events {
        let _ = write!(
            out,
            "{{\"span\":{},\"parent\":{},\"cause\":{},\"at_us\":{},\"kind\":\"{}\",\"label\":\"{}\"}}",
            e.span.0,
            e.parent.0,
            e.cause.0,
            e.at.as_micros(),
            e.kind.name(),
            event_label(e),
        );
        out.push('\n');
    }
    out
}

/// Observability CLI options shared by `canaryctl` and figure binaries.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write the run's trace as JSONL here.
    pub trace_out: Option<PathBuf>,
    /// Write the run's telemetry snapshot as JSONL here.
    pub telemetry_out: Option<PathBuf>,
    /// Print the ASCII swimlane, recovery breakdown, and telemetry
    /// summary to stdout.
    pub timeline: bool,
    /// Write the run's trace as Chrome/Perfetto `trace_event` JSON here.
    pub perfetto_out: Option<PathBuf>,
    /// Write the run's trace as span-per-line JSONL here.
    pub spans_out: Option<PathBuf>,
    /// Print the per-job critical-path blame report to stdout.
    pub blame: bool,
}

impl ObsOptions {
    /// Any output requested?
    pub fn any(&self) -> bool {
        self.trace_out.is_some()
            || self.telemetry_out.is_some()
            || self.timeline
            || self.perfetto_out.is_some()
            || self.spans_out.is_some()
            || self.blame
    }

    /// Do the requested outputs want causal span links in the trace?
    /// (Flow arrows, span JSONL, and blame are all link-powered; plain
    /// trace/telemetry exports are not, and must stay byte-identical to
    /// historical goldens.)
    pub fn needs_causal(&self) -> bool {
        self.perfetto_out.is_some() || self.spans_out.is_some() || self.blame
    }

    /// Extract `--trace-out PATH`, `--telemetry-out PATH`, `--timeline`,
    /// `--perfetto-out PATH`, `--spans-out PATH`, and `--blame` from an
    /// argument list, returning the options and the remaining
    /// (unconsumed) arguments.
    pub fn extract(args: &[String]) -> Result<(ObsOptions, Vec<String>), String> {
        let mut opts = ObsOptions::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace-out" => {
                    opts.trace_out = Some(PathBuf::from(
                        it.next().ok_or("missing value for --trace-out")?,
                    ));
                }
                "--telemetry-out" => {
                    opts.telemetry_out = Some(PathBuf::from(
                        it.next().ok_or("missing value for --telemetry-out")?,
                    ));
                }
                "--timeline" => opts.timeline = true,
                "--perfetto-out" => {
                    opts.perfetto_out = Some(PathBuf::from(
                        it.next().ok_or("missing value for --perfetto-out")?,
                    ));
                }
                "--spans-out" => {
                    opts.spans_out = Some(PathBuf::from(
                        it.next().ok_or("missing value for --spans-out")?,
                    ));
                }
                "--blame" => opts.blame = true,
                _ => rest.push(a.clone()),
            }
        }
        Ok((opts, rest))
    }
}

/// Write/print everything [`ObsOptions`] asks for from one run result.
pub fn export_result(result: &RunResult, opts: &ObsOptions) -> std::io::Result<()> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, trace_to_jsonl(&result.trace))?;
        eprintln!(
            "trace: {} events -> {}",
            result.trace.events.len(),
            path.display()
        );
    }
    if let Some(path) = &opts.telemetry_out {
        std::fs::write(path, telemetry_to_jsonl(&result.telemetry))?;
        eprintln!("telemetry -> {}", path.display());
    }
    if let Some(path) = &opts.perfetto_out {
        std::fs::write(path, trace_to_perfetto(&result.trace))?;
        eprintln!("perfetto -> {}", path.display());
    }
    if let Some(path) = &opts.spans_out {
        std::fs::write(path, spans_to_jsonl(&result.trace))?;
        eprintln!("spans -> {}", path.display());
    }
    // Stdout errors propagate (a closed pipe included), so the caller
    // decides how a reader that went away ends the run.
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    if opts.timeline {
        writeln!(out, "{}", canary_metrics::swimlane(&result.trace))?;
        writeln!(out, "{}", canary_metrics::recovery_breakdown(&result.trace))?;
        writeln!(
            out,
            "{}",
            canary_metrics::counters_summary(&result.counters)
        )?;
        write!(
            out,
            "{}",
            canary_metrics::telemetry_summary(&result.telemetry)
        )?;
        if result.profile.enabled {
            writeln!(out)?;
            write!(out, "{}", canary_metrics::hot_path_report(&result.profile))?;
        }
    }
    if opts.blame {
        write!(out, "{}", canary_metrics::blame_report(&result.trace))?;
    }
    Ok(())
}

/// Figure-binary hook: when the process arguments carry any
/// [`ObsOptions`] flags, run one observed run of a representative
/// scenario (100 web-service invocations at 15% errors under Canary,
/// seed 42) and export it. Figures sweep hundreds of runs; this gives
/// their binaries a single inspectable trace without slowing the sweep.
pub fn maybe_export_observed_run() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, _rest) = ObsOptions::extract(&args).map_err(std::io::Error::other)?;
    if !opts.any() {
        return Ok(());
    }
    let scenario = Scenario::chameleon(
        0.15,
        vec![canary_platform::JobSpec::new(
            canary_workloads::WorkloadSpec::paper_default(
                canary_workloads::WorkloadKind::WebService,
            ),
            100,
        )],
    );
    let strategy = StrategyKind::Canary(canary_core::ReplicationStrategyKind::Dynamic);
    let result = if opts.needs_causal() {
        scenario.run_instrumented(strategy, 42)
    } else {
        scenario.run_observed(strategy, 42)
    };
    export_result(&result, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_cluster::{NodeId, StorageTier};
    use canary_container::ContainerId;
    use canary_platform::trace::parse_flat_json;
    use canary_platform::{JobId, RecoveryTarget, SpanId};
    use canary_sim::{SimDuration, SimTime};

    fn all_variants() -> Vec<TraceEvent> {
        let t = |us| SimTime::from_micros(us);
        vec![
            TraceEvent::new(t(0), TraceKind::JobArrived { job: JobId(3) }),
            TraceEvent::new(t(1), TraceKind::JobSubmitted { job: JobId(3) }),
            TraceEvent::new(
                t(2),
                TraceKind::AttemptStarted {
                    fn_id: FnId(7),
                    attempt: 2,
                    node: NodeId(1),
                    warm: true,
                },
            ),
            TraceEvent::new(
                t(3),
                TraceKind::AttemptFailed {
                    fn_id: FnId(7),
                    attempt: 2,
                    node: NodeId(1),
                },
            ),
            TraceEvent::new(t(4), TraceKind::FunctionCompleted { fn_id: FnId(7) }),
            TraceEvent::new(
                t(5),
                TraceKind::WarmPoolSpawned {
                    container: ContainerId(9),
                    node: NodeId(0),
                },
            ),
            TraceEvent::new(
                t(6),
                TraceKind::WarmPoolReady {
                    container: ContainerId(9),
                },
            ),
            TraceEvent::new(t(7), TraceKind::NodeFailed { node: NodeId(4) }),
            TraceEvent::new(
                t(8),
                TraceKind::CheckpointWritten {
                    fn_id: FnId(7),
                    state: 3,
                    bytes: 65_536,
                    tier: StorageTier::Pmem,
                    cost: SimDuration::ZERO,
                },
            ),
            TraceEvent::new(
                t(9),
                TraceKind::CheckpointRestored {
                    fn_id: FnId(7),
                    state: 3,
                    bytes: 65_536,
                    tier: StorageTier::Nfs,
                },
            ),
            TraceEvent::new(t(10), TraceKind::JobQueued { job: JobId(3) }),
            TraceEvent::new(t(11), TraceKind::JobDequeued { job: JobId(3) }),
            TraceEvent::new(t(12), TraceKind::JobRejected { job: JobId(8) }),
            TraceEvent::new(
                t(13),
                TraceKind::ReplicaConsumed {
                    container: ContainerId(9),
                    fn_id: FnId(7),
                },
            ),
            TraceEvent::new(
                t(14),
                TraceKind::ReplicaRefreshed {
                    spawned: 2,
                    reclaimed: 1,
                },
            ),
            TraceEvent::new(
                t(15),
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(7),
                    target: RecoveryTarget::WarmContainer(ContainerId(9)),
                    detect: SimDuration::from_micros(500),
                    restore: SimDuration::from_micros(120),
                },
            ),
            TraceEvent::new(
                t(16),
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(7),
                    target: RecoveryTarget::FreshContainer,
                    detect: SimDuration::from_micros(500),
                    restore: SimDuration::ZERO,
                },
            ),
            TraceEvent::new(
                t(17),
                TraceKind::PartitionStarted {
                    a: NodeId(0),
                    b: NodeId(3),
                },
            ),
            TraceEvent::new(
                t(18),
                TraceKind::PartitionHealed {
                    a: NodeId(0),
                    b: NodeId(3),
                },
            ),
            TraceEvent::new(t(19), TraceKind::NetworkDegraded { pct: 250 }),
            TraceEvent::new(t(20), TraceKind::NetworkRestored),
            TraceEvent::new(t(21), TraceKind::StoreOutage { member: 1 }),
            TraceEvent::new(t(22), TraceKind::StoreRejoined { member: 1 }),
            TraceEvent::new(
                t(23),
                TraceKind::StragglerInjected {
                    fn_id: FnId(7),
                    attempt: 1,
                    pct: 400,
                },
            ),
            TraceEvent::new(
                t(24),
                TraceKind::CheckpointCorrupted {
                    fn_id: FnId(7),
                    ckpt_id: 3,
                },
            ),
            TraceEvent::new(
                t(25),
                TraceKind::CheckpointSkipped {
                    fn_id: FnId(7),
                    state: 5,
                },
            ),
            TraceEvent::new(
                t(26),
                TraceKind::RestoreFallback {
                    fn_id: FnId(7),
                    state: 2,
                },
            ),
            TraceEvent::new(t(27), TraceKind::ControllerCrashed),
            TraceEvent::new(
                t(28),
                TraceKind::ControllerRecovered {
                    snapshot: 12,
                    replayed: 34,
                    torn: true,
                },
            ),
            TraceEvent::new(
                t(29),
                TraceKind::MigrationPlanned {
                    fn_id: FnId(7),
                    container: ContainerId(9),
                    ckpt_id: 4,
                    chunks: 3,
                    bytes: 192,
                },
            ),
            TraceEvent::new(t(30), TraceKind::MigrationFallback { fn_id: FnId(7) }),
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let trace = Trace {
            events: all_variants(),
        };
        let jsonl = trace_to_jsonl(&trace);
        assert_eq!(jsonl.lines().count(), trace.events.len());
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events, trace.events);
        // The fixture covers every row of the schema table.
        let mut covered: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        covered.sort_unstable();
        covered.dedup();
        let mut names = TraceKind::NAMES.to_vec();
        names.sort_unstable();
        assert_eq!(covered, names, "all_variants() misses a TraceKind");
    }

    #[test]
    fn jsonl_lines_are_flat_objects_with_kind() {
        for e in all_variants() {
            let line = trace_event_to_json(&e);
            assert!(line.starts_with("{\"at_us\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""), "{line}");
            parse_flat_json(&line).unwrap();
        }
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = trace_from_jsonl("\n{\"at_us\":1,\"kind\":\"nope\"}\n").unwrap_err();
        match err {
            ExportError::BadLine { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("nope"));
            }
        }
        assert!(trace_from_jsonl("not json").is_err());
        // Input the reader would otherwise silently change is rejected
        // with its line number: a truncated u32, a flag outside 0/1, and
        // a duplicate key.
        let good = "{\"at_us\":1,\"kind\":\"node_failed\",\"node\":2}\n";
        for (bad, needle) in [
            (
                "{\"at_us\":2,\"kind\":\"attempt_failed\",\"fn\":1,\"attempt\":4294967296,\"node\":0}",
                "out of range",
            ),
            (
                "{\"at_us\":2,\"kind\":\"node_failed\",\"node\":4294967296}",
                "out of range",
            ),
            (
                "{\"at_us\":2,\"kind\":\"controller_recovered\",\"snapshot\":1,\"replayed\":2,\"torn\":2}",
                "0 or 1",
            ),
            (
                "{\"at_us\":2,\"kind\":\"function_completed\",\"fn\":1,\"fn\":2}",
                "duplicate key",
            ),
        ] {
            match trace_from_jsonl(&format!("{good}{good}{bad}\n")).unwrap_err() {
                ExportError::BadLine { line, reason } => {
                    assert_eq!(line, 3, "{bad}");
                    assert!(reason.contains(needle), "{bad}: {reason}");
                }
            }
        }
    }

    #[test]
    fn telemetry_jsonl_has_meta_phase_counter_and_table_lines() {
        use canary_platform::{Phase, RunCounters, Telemetry};
        let mut tel = Telemetry::new(true);
        tel.observe(Phase::CheckpointWrite, SimDuration::from_micros(250));
        tel.set_table_stats("worker_info", 1, 16);
        let counters = RunCounters {
            checkpoints_written: 1,
            db_cache_hits: 40,
            db_cache_misses: 10,
            ..RunCounters::default()
        };
        let jsonl = telemetry_to_jsonl(&tel.snapshot(&counters));
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"record\":\"meta\"") && lines[0].contains("true"));
        assert!(lines[1].contains("\"phase\":\"checkpoint_write\""));
        assert!(lines[1].contains("\"count\":1"));
        assert!(lines[2].contains("\"counter\":\"checkpoints_written\""));
        // Non-zero registry counters export under their field names, in
        // Counter::ALL order.
        assert!(lines[3].contains("\"counter\":\"db_cache_hits\"") && lines[3].contains(":40"));
        assert!(lines[4].contains("\"counter\":\"db_cache_misses\"") && lines[4].contains(":10"));
        assert!(lines[5].contains("\"table\":\"worker_info\""));
        for line in lines {
            parse_flat_json(line).unwrap();
        }
    }

    #[test]
    fn obs_options_extract_leaves_other_flags() {
        let args: Vec<String> = ["--seed", "7", "--trace-out", "/tmp/t.jsonl", "--timeline"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, rest) = ObsOptions::extract(&args).unwrap();
        assert_eq!(
            opts.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert!(opts.timeline);
        assert!(opts.telemetry_out.is_none());
        assert_eq!(rest, vec!["--seed".to_string(), "7".to_string()]);
        assert!(ObsOptions::extract(&["--trace-out".to_string()]).is_err());
    }

    #[test]
    fn obs_options_extract_causal_flags() {
        let args: Vec<String> = [
            "--perfetto-out",
            "/tmp/p.json",
            "--spans-out",
            "/tmp/s.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (opts, rest) = ObsOptions::extract(&args).unwrap();
        assert!(rest.is_empty());
        assert!(opts.needs_causal() && opts.any());
        let (opts, _) = ObsOptions::extract(&["--blame".to_string()]).unwrap();
        assert!(opts.blame && opts.needs_causal());
        let (opts, _) = ObsOptions::extract(&["--timeline".to_string()]).unwrap();
        assert!(!opts.needs_causal());
    }

    /// A causal trace: every link field and the checkpoint `cost` make
    /// it through the writer and back.
    fn causal_trace() -> Trace {
        let mut events = all_variants();
        for (i, e) in events.iter_mut().enumerate() {
            e.span = SpanId(i as u64 + 1);
            if i > 0 {
                e.parent = SpanId(i as u64); // previous event's span
            }
            if i > 1 {
                e.cause = SpanId(i as u64 - 1);
            }
        }
        Trace { events }
    }

    #[test]
    fn causal_links_roundtrip_through_jsonl() {
        let trace = causal_trace();
        let jsonl = trace_to_jsonl(&trace);
        assert!(jsonl.contains("\"span\":1"));
        assert!(jsonl.contains("\"parent\":1"));
        assert!(jsonl.contains("\"cause\":1"));
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn linkless_trace_jsonl_omits_link_fields() {
        // Byte-compatibility with pre-causal goldens: with causal off
        // the writer emits no span/parent/cause/cost_us keys at all.
        let trace = Trace {
            events: all_variants(),
        };
        let jsonl = trace_to_jsonl(&trace);
        for key in ["\"span\"", "\"parent\"", "\"cause\"", "\"cost_us\""] {
            assert!(!jsonl.contains(key), "unexpected {key} in linkless JSONL");
        }
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn checkpoint_cost_roundtrips_when_nonzero() {
        let mut e = TraceEvent::new(
            SimTime::from_micros(5),
            TraceKind::CheckpointWritten {
                fn_id: FnId(1),
                state: 2,
                bytes: 64,
                tier: StorageTier::Ramdisk,
                cost: SimDuration::from_micros(1234),
            },
        );
        e.span = SpanId(9);
        let line = trace_event_to_json(&e);
        assert!(line.contains("\"cost_us\":1234"));
        let back = trace_from_jsonl(&format!("{line}\n")).unwrap();
        assert_eq!(back.events[0], e);
    }

    #[test]
    fn perfetto_export_is_balanced_and_arrowed() {
        let out = trace_to_perfetto(&causal_trace());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(out.trim_end().ends_with("]}"));
        // Every B has a matching E and cause links became s/f arrows.
        let count = |ph: &str| out.matches(&format!("\"ph\":\"{ph}\"")).count();
        assert_eq!(count("B"), count("E"));
        assert!(count("s") > 0);
        assert_eq!(count("s"), count("f"));
        assert!(out.contains("thread_name"));
        // Works on a linkless trace too — just no arrows.
        let plain = trace_to_perfetto(&Trace {
            events: all_variants(),
        });
        assert_eq!(plain.matches("\"ph\":\"s\"").count(), 0);
    }

    #[test]
    fn spans_jsonl_is_one_line_per_event() {
        let trace = causal_trace();
        let out = spans_to_jsonl(&trace);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), trace.events.len());
        assert!(lines[0].starts_with("{\"span\":1,\"parent\":0,\"cause\":0,"));
        for line in lines {
            parse_flat_json(line).unwrap();
        }
    }
}
