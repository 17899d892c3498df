//! Property-based tests for the causal span layer: link structure,
//! blame arithmetic, and the seed-42 chaos acceptance check.
//!
//! The invariants here are the contract the causal tracer promises:
//!
//! - every event in a causal trace carries a unique span, and every
//!   `parent`/`cause` link resolves to a span defined by an *earlier*
//!   event (so the link graph is acyclic by construction);
//! - every span belongs to exactly one containment tree;
//! - per-job blame components are disjoint timeline segments, so they
//!   sum *exactly* (integer microseconds, no epsilon) to the job's
//!   measured end-to-end latency, and tie out against the engine's own
//!   [`JobOutcome`](canary_platform::JobOutcome) accounting;
//! - turning causal recording on never changes the simulated outcome;
//! - the indexed blame pass ([`critical_paths`]) equals
//!   [`critical_path_oracle`], a direct per-job scan of the trace kept
//!   here as the test-only reference, on real runs and on hand-built
//!   edge-case traces.

use canary_cluster::{NodeId, StorageTier};
use canary_core::ReplicationStrategyKind;
use canary_experiments::load::open_loop_jobs;
use canary_experiments::{chaos, Scenario, StrategyKind};
use canary_metrics::{
    aggregate_blame, critical_path, critical_paths, span_forest, Blame, CpStep, CriticalPath,
};
use canary_platform::{FnId, JobId, JobSpec, RecoveryTarget, SpanId, Trace, TraceEvent, TraceKind};
use canary_sim::{SimDuration, SimTime};
use canary_workloads::WorkloadSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

fn scenario(rate: f64, invocations: u32) -> Scenario {
    Scenario::chameleon(
        rate,
        vec![JobSpec::new(WorkloadSpec::web_service(10), invocations)],
    )
}

/// The reference blame pass: one job's critical path by direct scans of
/// the whole trace (four passes per job). Slow but obviously faithful to
/// the definition; the shipping indexed pass must equal it exactly.
fn critical_path_oracle(trace: &Trace, job: JobId) -> Option<CriticalPath> {
    let events = &trace.events;
    // Arrival defines the job's root span; submission ends the queue.
    let (arrived_at, root) = events.iter().find_map(|e| match e.kind {
        TraceKind::JobArrived { job: j } if j == job => Some((e.at, e.span)),
        _ => None,
    })?;
    if root.is_none() {
        return None;
    }
    let submitted_at = events.iter().find_map(|e| match e.kind {
        TraceKind::JobSubmitted { job: j } if j == job => Some(e.at),
        _ => None,
    })?;
    // The job's functions: attempts whose parent is the job root span.
    // (fn → job is not derivable from the flat kinds alone; the causal
    // parent link carries it.)
    let mut job_fns: BTreeMap<FnId, SimTime> = BTreeMap::new();
    for e in events {
        if let TraceKind::AttemptStarted { fn_id, .. } = e.kind {
            if e.parent == root {
                job_fns.entry(fn_id).or_insert(e.at);
            }
        }
    }
    // Critical function: the job's last-completing one.
    let (critical_fn, completed_at) = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::FunctionCompleted { fn_id } if job_fns.contains_key(&fn_id) => {
                Some((fn_id, e.at))
            }
            _ => None,
        })
        .max_by_key(|&(f, t)| (t, f))?;

    let mut blame = Blame {
        queue: submitted_at.saturating_since(arrived_at),
        ..Blame::default()
    };
    let mut steps = Vec::new();
    if blame.queue > SimDuration::ZERO {
        steps.push(CpStep {
            from: arrived_at,
            to: submitted_at,
            label: "queue".into(),
        });
    }
    let first_start = job_fns[&critical_fn];
    blame.admission = first_start.saturating_since(submitted_at);
    steps.push(CpStep {
        from: submitted_at,
        to: first_start,
        label: "admission + start".into(),
    });

    // Walk the critical function's own timeline. Attempt windows split
    // into exec + checkpoint; inter-attempt gaps into restore +
    // fault-wait. Segments are contiguous from `first_start` to
    // `completed_at`, so the components sum to the makespan exactly.
    let mut attempt_start: Option<(SimTime, u32)> = None;
    let mut ckpt_us = 0u64;
    let mut gap_start: Option<SimTime> = None;
    let mut pending_restore_us = 0u64;
    for e in events {
        match e.kind {
            TraceKind::AttemptStarted { fn_id, attempt, .. } if fn_id == critical_fn => {
                if let Some(gs) = gap_start.take() {
                    let gap_us = e.at.saturating_since(gs).as_micros();
                    let restore_us = pending_restore_us.min(gap_us);
                    blame.restore += SimDuration::from_micros(restore_us);
                    blame.fault_wait += SimDuration::from_micros(gap_us - restore_us);
                    steps.push(CpStep {
                        from: gs,
                        to: e.at,
                        label: format!(
                            "recovery gap (restore {}, wait {})",
                            SimDuration::from_micros(restore_us),
                            SimDuration::from_micros(gap_us - restore_us)
                        ),
                    });
                }
                attempt_start = Some((e.at, attempt));
                ckpt_us = 0;
                pending_restore_us = 0;
            }
            TraceKind::CheckpointWritten { fn_id, cost, .. } if fn_id == critical_fn => {
                ckpt_us += cost.as_micros();
            }
            TraceKind::RecoveryPlanned { fn_id, restore, .. } if fn_id == critical_fn => {
                pending_restore_us = restore.as_micros();
            }
            TraceKind::AttemptFailed { fn_id, .. } if fn_id == critical_fn => {
                if let Some((start, attempt)) = attempt_start.take() {
                    let span_us = e.at.saturating_since(start).as_micros();
                    let ck = ckpt_us.min(span_us);
                    blame.checkpoint += SimDuration::from_micros(ck);
                    blame.exec += SimDuration::from_micros(span_us - ck);
                    steps.push(CpStep {
                        from: start,
                        to: e.at,
                        label: format!("attempt {attempt} (failed)"),
                    });
                }
                gap_start = Some(e.at);
            }
            TraceKind::FunctionCompleted { fn_id } if fn_id == critical_fn => {
                if let Some((start, attempt)) = attempt_start.take() {
                    let span_us = e.at.saturating_since(start).as_micros();
                    let ck = ckpt_us.min(span_us);
                    blame.checkpoint += SimDuration::from_micros(ck);
                    blame.exec += SimDuration::from_micros(span_us - ck);
                    steps.push(CpStep {
                        from: start,
                        to: e.at,
                        label: format!("attempt {attempt} (completed)"),
                    });
                }
                if e.at == completed_at {
                    break;
                }
            }
            _ => {}
        }
    }

    Some(CriticalPath {
        job,
        critical_fn,
        arrived_at,
        completed_at,
        blame,
        steps,
    })
}

/// Every job that arrived, in `JobId` order.
fn arrived_jobs(trace: &Trace) -> Vec<JobId> {
    let mut jobs: Vec<JobId> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::JobArrived { job } => Some(job),
            _ => None,
        })
        .collect();
    jobs.sort();
    jobs.dedup();
    jobs
}

/// Assert the indexed blame pass equals the oracle on every job of
/// `trace`, for both the whole-run and the one-job entry points.
fn assert_matches_oracle(trace: &Trace) {
    let jobs = arrived_jobs(trace);
    let oracle: Vec<CriticalPath> = jobs
        .iter()
        .filter_map(|&j| critical_path_oracle(trace, j))
        .collect();
    assert_eq!(critical_paths(trace), oracle);
    let absent = JobId(jobs.last().map_or(0, |j| j.0.wrapping_add(1)));
    for job in jobs.into_iter().chain([absent]) {
        assert_eq!(
            critical_path(trace, job),
            critical_path_oracle(trace, job),
            "{job}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every event gets a unique span; every link resolves to an
    /// earlier event; every span lands in exactly one tree.
    #[test]
    fn links_form_a_valid_forest(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..25,
    ) {
        for kind in [StrategyKind::Retry, CANARY] {
            let r = scenario(rate, n).run_instrumented(kind, seed);
            // Spans on every event (unique ids are checked by the
            // forest build below).
            prop_assert!(r.trace.events.iter().all(|e| e.span.is_some()));
            let forest = span_forest(&r.trace).expect("valid forest");
            prop_assert_eq!(forest.defined.len(), r.trace.events.len());
            // Exactly one tree per span: root_of is total over spans
            // and every root maps to itself.
            for (span, root) in &forest.root_of {
                prop_assert!(forest.defined.contains_key(span));
                prop_assert_eq!(forest.root_of[root], *root);
            }
            // Links point strictly backwards in emit order.
            for (i, e) in r.trace.events.iter().enumerate() {
                for link in [e.parent, e.cause] {
                    if link.is_some() {
                        prop_assert!(forest.defined[&link.0] < i);
                    }
                }
            }
        }
    }

    /// Blame components sum exactly to the job's measured end-to-end
    /// latency, and tie out against the engine's own accounting: the
    /// queue component equals `JobOutcome::queue_wait()`, and the job's
    /// earliest attempt launch (recovered from the causal trace) bounds
    /// `time_to_first_exec()` from below (execution begins at or after
    /// launch, never before).
    #[test]
    fn blame_ties_out_against_job_accounting(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..25,
    ) {
        let r = scenario(rate, n).run_instrumented(CANARY, seed);
        let paths = critical_paths(&r.trace);
        prop_assert_eq!(paths.len(), r.jobs.len());
        for cp in &paths {
            let job = &r.jobs[cp.job.0 as usize];
            prop_assert_eq!(job.id, cp.job);
            prop_assert_eq!(cp.blame.total(), job.makespan());
            prop_assert_eq!(cp.blame.queue, job.queue_wait());
            let ttfe = job.time_to_first_exec().expect("completed job ran");
            prop_assert!(ttfe <= job.makespan());
            // fn → job comes from the causal parent link: the job's
            // root span is defined by its JobArrived event.
            let root = r.trace.events.iter().find_map(|e| match e.kind {
                TraceKind::JobArrived { job: j } if j == cp.job => Some(e.span),
                _ => None,
            }).expect("job root span");
            let first_launch = r.trace.events.iter().find_map(|e| match e.kind {
                TraceKind::AttemptStarted { .. } if e.parent == root => Some(e.at),
                _ => None,
            }).expect("job launched at least one attempt");
            prop_assert!(first_launch.saturating_since(job.submitted_at) <= ttfe);
            // Steps are contiguous and cover arrival → completion.
            let mut at = cp.arrived_at;
            for s in &cp.steps {
                prop_assert_eq!(s.from, at);
                at = s.to;
            }
            prop_assert_eq!(at, cp.completed_at);
        }
        let agg = aggregate_blame(&paths);
        let total: canary_sim::SimDuration = r.jobs.iter().map(|j| j.makespan()).sum();
        prop_assert_eq!(agg.total(), total);
    }

    /// The indexed blame pass equals the per-job scan oracle on every job
    /// of a real run: closed batches under Retry and Canary, and an
    /// open-loop run whose admission gate holds jobs in the queue.
    #[test]
    fn indexed_blame_matches_oracle(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..25,
    ) {
        let mut open = Scenario::chameleon(rate, open_loop_jobs(4.0, n as usize, seed));
        open.max_inflight = Some(2);
        let open = open.run_instrumented(CANARY, seed);
        prop_assert!(
            critical_paths(&open.trace).iter().any(|cp| cp.blame.queue > SimDuration::ZERO),
            "the open-loop run must exercise the queue component"
        );
        assert_matches_oracle(&open.trace);
        for kind in [StrategyKind::Retry, CANARY] {
            assert_matches_oracle(&scenario(rate, n).run_instrumented(kind, seed).trace);
        }
    }

    /// Causal recording is observation only: the simulated outcome is
    /// identical with it on or off.
    #[test]
    fn causal_never_perturbs_the_run(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..20,
    ) {
        let s = scenario(rate, n);
        let plain = s.run_once(CANARY, seed);
        let instrumented = s.run_instrumented(CANARY, seed);
        prop_assert_eq!(plain.finished_at, instrumented.finished_at);
        prop_assert_eq!(
            format!("{:?}", plain.jobs),
            format!("{:?}", instrumented.jobs)
        );
        prop_assert_eq!(
            format!("{:?}", plain.fns),
            format!("{:?}", instrumented.fns)
        );
        prop_assert_eq!(
            format!("{:?}", plain.counters),
            format!("{:?}", instrumented.counters)
        );
        // The hot-path profiler sees every dispatch the run loop counts.
        prop_assert!(instrumented.profile.enabled);
        prop_assert_eq!(
            instrumented.profile.total_dispatches(),
            instrumented.counters.events_dispatched
        );
    }
}

/// The issue's acceptance check: for the canonical chaos scenario at
/// seed 42, the causal layer produces a critical path for a job that
/// lived through failures and recovered, and the blame components sum
/// exactly to that job's end-to-end latency.
#[test]
fn chaos_seed42_recovered_job_has_exact_critical_path() {
    let spec = chaos::named("mixed").expect("mixed scenario exists");
    let scenario = chaos::demo_scenario(spec);
    let r = scenario.run_instrumented(CANARY, 42);
    assert!(
        r.counters.function_failures > 0,
        "seed-42 mixed chaos must inject failures"
    );
    span_forest(&r.trace).expect("chaos trace forms a valid span forest");

    let recovered: Vec<_> = r
        .jobs
        .iter()
        .filter(|j| !j.rejected)
        .filter(|j| {
            // A recovered job: one of its functions failed and the job
            // still completed.
            r.fns.iter().any(|f| f.job == j.id && f.failures > 0)
        })
        .collect();
    assert!(!recovered.is_empty(), "no job recovered from a failure");
    assert_matches_oracle(&r.trace);
    for job in recovered {
        let cp = critical_path(&r.trace, job.id).expect("critical path exists");
        assert_eq!(
            cp.blame.total(),
            job.makespan(),
            "blame components must sum exactly to the job's latency"
        );
        assert_eq!(cp.blame.queue, job.queue_wait());
    }

    // Cross-tree causality is present: at least one fault → failure or
    // failure → recovery cause link survived into the trace.
    assert!(
        r.trace.events.iter().any(|e| e.cause.is_some()
            && matches!(
                e.kind,
                TraceKind::AttemptFailed { .. } | TraceKind::AttemptStarted { .. }
            )),
        "expected cause links on failures/recovery attempts"
    );
}

/// With causal off, no event carries any link (the fields stay at the
/// `SpanId::NONE` sentinel and the JSONL writer omits them).
#[test]
fn causal_off_leaves_no_links() {
    let r = scenario(0.3, 10).run_observed(CANARY, 7);
    assert!(r
        .trace
        .events
        .iter()
        .all(|e| e.span == SpanId::NONE && e.parent == SpanId::NONE && e.cause == SpanId::NONE));
    assert!(!canary_experiments::trace_to_jsonl(&r.trace).contains("\"span\""));
}

fn ev(us: u64, span: u64, parent: u64, kind: TraceKind) -> TraceEvent {
    let mut e = TraceEvent::new(SimTime::from_micros(us), kind);
    e.span = SpanId(span);
    e.parent = SpanId(parent);
    e
}

fn start(f: FnId, attempt: u32) -> TraceKind {
    TraceKind::AttemptStarted {
        fn_id: f,
        attempt,
        node: NodeId(0),
        warm: false,
    }
}

/// One job's causal events: arrival (root span `root`), submission, a
/// checkpointed attempt that fails, a planned recovery, and a second
/// attempt that completes. Times start at `t0` microseconds; the other
/// spans are `root + 1 ..`.
fn job_events(job: JobId, f: FnId, root: u64, t0: u64) -> Vec<TraceEvent> {
    let s = |k: u64| root.wrapping_add(k);
    vec![
        ev(t0, root, 0, TraceKind::JobArrived { job }),
        ev(t0 + 1_000, s(1), root, TraceKind::JobSubmitted { job }),
        ev(t0 + 3_000, s(2), root, start(f, 1)),
        ev(
            t0 + 4_000,
            s(3),
            s(2),
            TraceKind::CheckpointWritten {
                fn_id: f,
                state: 0,
                bytes: 64,
                tier: StorageTier::Ramdisk,
                cost: SimDuration::from_micros(300),
            },
        ),
        ev(
            t0 + 5_000,
            s(4),
            s(2),
            TraceKind::AttemptFailed {
                fn_id: f,
                attempt: 1,
                node: NodeId(0),
            },
        ),
        ev(
            t0 + 6_000,
            s(5),
            root,
            TraceKind::RecoveryPlanned {
                fn_id: f,
                target: RecoveryTarget::FreshContainer,
                detect: SimDuration::from_micros(500),
                restore: SimDuration::from_micros(700),
            },
        ),
        ev(t0 + 8_000, s(6), root, start(f, 2)),
        ev(
            t0 + 10_000,
            s(7),
            s(6),
            TraceKind::FunctionCompleted { fn_id: f },
        ),
    ]
}

fn trace_of(events: Vec<TraceEvent>) -> Trace {
    Trace { events }
}

#[test]
fn oracle_agrees_when_a_job_arrives_twice() {
    // The second arrival carries its own span, under which another
    // function runs later than the job's real one: the first arrival
    // wins, so that function is not the job's.
    let mut events = job_events(JobId(0), FnId(0), 1, 0);
    events.push(ev(20_000, 100, 0, TraceKind::JobArrived { job: JobId(0) }));
    events.push(ev(21_000, 101, 100, start(FnId(1), 1)));
    events.push(ev(
        30_000,
        102,
        101,
        TraceKind::FunctionCompleted { fn_id: FnId(1) },
    ));
    let t = trace_of(events);
    let cp = critical_path(&t, JobId(0)).expect("completed job");
    assert_eq!((cp.critical_fn, cp.arrived_at), (FnId(0), SimTime::ZERO));
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_when_submission_precedes_arrival() {
    let mut events = job_events(JobId(0), FnId(0), 1, 5_000);
    let submitted = events.remove(1);
    events.insert(0, ev(2_000, submitted.span.0, 0, submitted.kind));
    let t = trace_of(events);
    let cp = critical_path(&t, JobId(0)).expect("completed job");
    assert_eq!(cp.blame.queue, SimDuration::ZERO);
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_when_an_attempt_hangs_off_a_non_root_span() {
    // FnId(2)'s attempt sits under the job's first attempt, not its root,
    // so it never counts as the job's function however late it ends.
    let mut events = job_events(JobId(0), FnId(0), 1, 0);
    events.push(ev(11_000, 50, 3, start(FnId(2), 1)));
    events.push(ev(
        40_000,
        51,
        50,
        TraceKind::FunctionCompleted { fn_id: FnId(2) },
    ));
    let t = trace_of(events);
    assert_eq!(critical_path(&t, JobId(0)).unwrap().critical_fn, FnId(0));
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_when_a_function_completes_twice() {
    let mut events = job_events(JobId(0), FnId(0), 1, 0);
    events.push(ev(
        12_000,
        60,
        7,
        TraceKind::FunctionCompleted { fn_id: FnId(0) },
    ));
    let t = trace_of(events);
    let cp = critical_path(&t, JobId(0)).expect("completed job");
    assert_eq!(cp.completed_at, SimTime::from_micros(12_000));
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_when_a_root_span_is_none() {
    let mut events = job_events(JobId(0), FnId(0), 1, 0);
    events[0].span = SpanId::NONE;
    let t = trace_of(events);
    assert!(critical_paths(&t).is_empty());
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_when_two_jobs_share_a_root_span() {
    // Both jobs claim root span 1, so both own both functions; the
    // later-completing one gates each.
    let mut events = job_events(JobId(0), FnId(0), 1, 0);
    let mut other = job_events(JobId(1), FnId(1), 200, 2_000);
    other[0].span = SpanId(1);
    for e in &mut other[1..] {
        if e.parent == SpanId(200) {
            e.parent = SpanId(1);
        }
    }
    events.extend(other);
    events.sort_by_key(|e| e.at);
    let t = trace_of(events);
    let paths = critical_paths(&t);
    assert_eq!(paths.len(), 2);
    assert!(paths.iter().all(|cp| cp.critical_fn == FnId(1)));
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_on_extreme_ids() {
    // `job_events` numbers child spans upward from the root, which would
    // wrap to the NONE sentinel; renumber them just below u64::MAX.
    let mut events = job_events(JobId(u32::MAX), FnId(u64::MAX), u64::MAX, 0);
    for (k, e) in events.iter_mut().enumerate().skip(1) {
        e.span = SpanId(u64::MAX - 10 + k as u64);
        if e.parent != SpanId(u64::MAX) {
            e.parent = SpanId(u64::MAX - 10 + 2);
        }
    }
    let t = trace_of(events);
    let cp = critical_path(&t, JobId(u32::MAX)).expect("completed job");
    assert_eq!(cp.critical_fn, FnId(u64::MAX));
    assert_matches_oracle(&t);
}

#[test]
fn oracle_agrees_on_degenerate_traces() {
    assert_matches_oracle(&trace_of(Vec::new()));
    // Arrived but never submitted.
    let mut events = job_events(JobId(0), FnId(0), 1, 0);
    events.remove(1);
    assert_matches_oracle(&trace_of(events));
    // Completion before any start, and a tie on completion time broken
    // by the larger function id.
    let mut events = job_events(JobId(0), FnId(3), 1, 0);
    events.insert(
        2,
        ev(
            2_000,
            70,
            0,
            TraceKind::FunctionCompleted { fn_id: FnId(3) },
        ),
    );
    events.push(ev(10_500, 71, 1, start(FnId(9), 1)));
    events.push(ev(
        10_000,
        72,
        71,
        TraceKind::FunctionCompleted { fn_id: FnId(9) },
    ));
    let t = trace_of(events);
    assert_eq!(critical_path(&t, JobId(0)).unwrap().critical_fn, FnId(9));
    assert_matches_oracle(&t);
}
