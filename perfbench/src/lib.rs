//! The canary-rs benchmark: four workloads driven through the workspace's
//! public APIs, end-to-end metrics from plain runs, per-layer metrics from
//! a separate run whose strategy hooks go through a timing adapter, and
//! correctness checks on every output. See `BENCHMARK.md` beside this
//! crate for the metric and workload definitions.

pub mod adapter;
pub mod alloc;
pub mod checks;
pub mod record;
pub mod spans;
pub mod workloads;

use canary_core::CanaryStrategy;
use spans::{Group, GroupStats, Recorder, StepProfile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{prepare, step, Prepared, Sizes, StepOut, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the measured inputs are built from.
    pub seed: u64,
    /// How long to keep repeating the measured step.
    pub seconds: f64,
    /// `false`: end-to-end metrics from plain runs. `true`: per-layer
    /// metrics from layer-span runs.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// The seed whose run repeats every correctness check beside `seed`'s.
fn second_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Everything one invocation produced.
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Functions submitted over every step run.
    pub attempted: u64,
    /// Of those, functions that did not complete.
    pub failed: u64,
    /// Correctness violations; empty when every check passed.
    pub violations: Vec<String>,
    /// The run record, as one JSON object.
    pub record: String,
    /// Layer-span runs: the per-layer self-time table of the last step.
    pub layer_table: Option<String>,
    /// Layer-span runs: the last step's spans, encoded.
    pub spans: Option<Vec<u8>>,
}

/// Counters read from the Canary strategy after a step, and the timed
/// flush drain and WAL replay.
#[derive(Debug, Clone, Default)]
struct AfterStep {
    drain_ns: u64,
    flushed: u64,
    live_keys: u64,
    wal_records: u64,
    wal_snapshots: u64,
    replay_ns: u64,
    chunks_written: u64,
    chunks_deduped: u64,
    chunk_bytes: u64,
    chunks_live: u64,
    db_reads: u64,
    db_writes: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Wait for the flusher, read the counters, then run the chunk-store and
/// WAL-replay checks (the replay crashes the store, so it goes last).
fn after_step(canary: &CanaryStrategy, violations: &mut Vec<String>) -> AfterStep {
    let ckpt = canary.checkpointing();
    let t = Instant::now();
    ckpt.flush_barrier();
    let drain_ns = t.elapsed().as_nanos() as u64;
    let db = canary.db();
    let wal = db.kv().wal().map(|w| w.stats()).unwrap_or_default();
    let chunks = ckpt.chunk_stats();
    let tables = db.table_stats();
    let (cache_hits, cache_misses) = db.cache_stats();
    let mut a = AfterStep {
        drain_ns,
        flushed: ckpt.flushed_records() as u64,
        live_keys: db.kv().len() as u64,
        wal_records: wal.appended_records,
        wal_snapshots: wal.snapshots_installed,
        replay_ns: 0,
        chunks_written: chunks.written,
        chunks_deduped: chunks.deduped,
        chunk_bytes: chunks.bytes_written,
        chunks_live: ckpt.chunk_store().len() as u64,
        db_reads: tables.iter().map(|t| t.1).sum(),
        db_writes: tables.iter().map(|t| t.2).sum(),
        cache_hits,
        cache_misses,
    };
    if let Err(e) = checks::check_chunks_released(canary) {
        violations.push(e);
    }
    match checks::check_wal_replay(canary) {
        Ok(ns) => a.replay_ns = ns,
        Err(e) => violations.push(e),
    }
    a
}

/// Threads a workload may run: the main thread and the flusher.
const MAX_THREADS: u64 = 2;

/// How a repetition drives the step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// As the workload defines it, no layer spans.
    Plain,
    /// Through the timing adapter, with room for this many spans.
    Spanned(usize),
    /// trace-inspect with the program's trace, telemetry and causal
    /// links off, for the trace-recording cost.
    Untraced,
}

/// One repetition: set-up, step, checks.
struct Rep {
    setup_ns: u64,
    wall_ns: u64,
    sim_ns: u64,
    submitted: u64,
    completed: u64,
    /// Allocations by every thread over the step.
    allocs: u64,
    digest: u64,
    /// Layer-span steps: the per-layer metrics.
    layers: Option<Vec<Metric>>,
    /// Layer-span steps: the spans (kept for the run's last step only).
    profile: Option<StepProfile>,
}

fn one_rep(w: Workload, sizes: &Sizes, seed: u64, mode: Mode, violations: &mut Vec<String>) -> Rep {
    let t = Instant::now();
    let Prepared {
        mut config,
        specs,
        mut strategy,
        submitted,
    } = prepare(w, sizes, seed);
    let setup_ns = t.elapsed().as_nanos() as u64;
    if mode == Mode::Untraced {
        config.trace = false;
        config.telemetry = false;
        config.causal = false;
    }
    let recorder = match mode {
        Mode::Spanned(cap) => Some(Recorder::with_capacity(cap)),
        _ => None,
    };
    let allocs_before = alloc::total();
    let mut out = step(w, config, specs, strategy.as_dyn(), recorder);
    let allocs = alloc::total() - allocs_before;
    // The main thread plus, on Canary workloads, the checkpoint flusher.
    let threads = record::threads();
    if threads > MAX_THREADS {
        violations.push(format!(
            "{threads} threads alive after the step, at most {MAX_THREADS} expected"
        ));
    }
    let digest = checks::outcome_digest(&out.result);
    if let Err(e) = checks::check_completion(&out.result, submitted) {
        violations.push(e);
    }
    if let Err(e) = checks::check_reencode(&out) {
        violations.push(e);
    }
    let after = strategy.canary().map(|c| after_step(c, violations));
    let profile = out.profile.take();
    let layers = profile.as_ref().map(|p| {
        if let Err(e) = p.check_tiling() {
            violations.push(format!("layer spans do not tile the step: {e}"));
        }
        layer_metrics(&out, p, after.as_ref())
    });
    let rep = Rep {
        setup_ns,
        wall_ns: out.wall_ns,
        sim_ns: out.sim_ns,
        submitted,
        completed: out.result.fns.len() as u64,
        allocs,
        digest,
        layers,
        profile,
    };
    // Tear down (flusher join, large frees) outside every timer.
    drop(out);
    drop(strategy);
    rep
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Per-layer metrics of one layer-span step, in `BENCHMARK.json` order.
/// `trace.record_s` and `bench.span_overhead` need other repetitions and
/// are appended by the caller.
fn layer_metrics(out: &StepOut, prof: &StepProfile, after: Option<&AfterStep>) -> Vec<Metric> {
    let c = &out.result.counters;
    let g = prof.groups();
    let grp = |x: Group| -> &GroupStats { &g[x as usize] };
    let events = c.events_dispatched;
    let engine_ns = prof.engine_self_ns();
    let a = after.cloned().unwrap_or_default();
    let jobs = out.result.jobs.len() as u64;
    let queued = out
        .result
        .jobs
        .iter()
        .filter(|j| j.admitted_at.is_some_and(|t| t > j.submitted_at))
        .count() as u64;
    let mut ctrl = prof.ctrl_ns.clone();
    ctrl.sort_unstable();
    let ckpt = grp(Group::Ckpt);
    let recover = grp(Group::Recover);
    let mut m = vec![
        metric("engine.events", "count", events as f64),
        metric("engine.self_s", "s", secs(engine_ns)),
        metric("engine.ns_per_event", "ns", ratio(engine_ns, events)),
        metric(
            "engine.allocs_per_event",
            "allocs/event",
            ratio(prof.engine_allocs(), events),
        ),
        metric("core.ckpt.calls", "count", ckpt.calls as f64),
        metric("core.ckpt.self_s", "s", secs(ckpt.self_ns)),
        metric("core.ckpt.us_p50", "us", ckpt.us_percentile(50.0)),
        metric("core.ckpt.us_p99", "us", ckpt.us_percentile(99.0)),
        metric(
            "core.ckpt.allocs_per_call",
            "allocs/call",
            ratio(ckpt.self_allocs, ckpt.calls),
        ),
        metric(
            "core.ckpt.skipped_frac",
            "ratio",
            ratio(
                c.checkpoints_skipped,
                c.checkpoints_written + c.checkpoints_skipped,
            ),
        ),
        metric("core.plan.calls", "count", grp(Group::Plan).calls as f64),
        metric("core.plan.self_s", "s", secs(grp(Group::Plan).self_ns)),
        metric(
            "core.complete.calls",
            "count",
            grp(Group::Complete).calls as f64,
        ),
        metric(
            "core.complete.self_s",
            "s",
            secs(grp(Group::Complete).self_ns),
        ),
        metric(
            "core.complete.us_p50",
            "us",
            grp(Group::Complete).us_percentile(50.0),
        ),
        metric("core.admit.calls", "count", grp(Group::Admit).calls as f64),
        metric("core.admit.self_s", "s", secs(grp(Group::Admit).self_ns)),
        metric("core.admit.queued_frac", "ratio", ratio(queued, jobs)),
        metric("core.recover.calls", "count", recover.calls as f64),
        metric("core.recover.self_s", "s", secs(recover.self_ns)),
        metric("core.recover.us_p50", "us", recover.us_percentile(50.0)),
        metric("core.recover.us_p99", "us", recover.us_percentile(99.0)),
        metric(
            "core.recover.ctrl_us_p50",
            "us",
            spans::percentile_sorted(&ctrl, 50.0) / 1e3,
        ),
        metric(
            "core.recover.ctrl_us_max",
            "us",
            ctrl.last().copied().unwrap_or(0) as f64 / 1e3,
        ),
        metric(
            "core.recover.fallback_frac",
            "ratio",
            ratio(c.restore_fallbacks, c.restores),
        ),
        metric("core.recover.migrations", "count", c.migrations as f64),
        metric(
            "core.recover.chunks_migrated",
            "count",
            c.chunks_migrated as f64,
        ),
        metric(
            "core.replica.calls",
            "count",
            grp(Group::Replica).calls as f64,
        ),
        metric(
            "core.replica.self_s",
            "s",
            secs(grp(Group::Replica).self_ns),
        ),
        metric(
            "core.replica.consumed_frac",
            "ratio",
            ratio(c.replicas_consumed, c.replicas_refreshed),
        ),
        metric("chunk.written", "count", a.chunks_written as f64),
        metric("chunk.deduped", "count", a.chunks_deduped as f64),
        metric(
            "chunk.dedup_frac",
            "ratio",
            ratio(a.chunks_deduped, a.chunks_written + a.chunks_deduped),
        ),
        metric("chunk.bytes_written", "bytes", a.chunk_bytes as f64),
        metric("chunk.live_at_end", "count", a.chunks_live as f64),
        metric("db.reads", "count", a.db_reads as f64),
        metric("db.writes", "count", a.db_writes as f64),
        metric(
            "db.writes_per_ckpt",
            "writes/ckpt",
            ratio(a.db_writes, c.checkpoints_written),
        ),
        metric(
            "db.cache_hit_frac",
            "ratio",
            ratio(a.cache_hits, a.cache_hits + a.cache_misses),
        ),
        metric("wal.records", "count", a.wal_records as f64),
        metric(
            "wal.records_per_ckpt",
            "records/ckpt",
            ratio(a.wal_records, c.checkpoints_written),
        ),
        metric("wal.snapshots", "count", a.wal_snapshots as f64),
        metric(
            "wal.replayed_records",
            "count",
            c.wal_records_replayed as f64,
        ),
        metric("wal.replay_ms", "ms", a.replay_ns as f64 / 1e6),
        metric("flush.records", "count", a.flushed as f64),
        metric("flush.drain_ms", "ms", a.drain_ns as f64 / 1e6),
        metric("kv.live_keys", "count", a.live_keys as f64),
        metric(
            "trace.events",
            "count",
            out.result.trace.events.len() as f64,
        ),
    ];
    let ins = out.inspected.as_ref();
    m.extend([
        metric("export.emit_s", "s", secs(grp(Group::Emit).self_ns)),
        metric("export.parse_s", "s", secs(grp(Group::Parse).self_ns)),
        metric(
            "export.jsonl_mb",
            "MiB",
            ins.map_or(0.0, |i| i.jsonl.len() as f64 / (1024.0 * 1024.0)),
        ),
        metric("causal.blame_s", "s", secs(grp(Group::Blame).self_ns)),
        metric("causal.paths", "count", ins.map_or(0, |i| i.paths) as f64),
    ]);
    m
}

/// The per-layer self-time table of one step: engine first, then every
/// group with spans, largest self time first among the groups.
fn layer_table(prof: &StepProfile) -> String {
    let groups = prof.groups();
    let mut rows: Vec<(&str, u64, u64, u64)> =
        vec![("engine", 1, prof.engine_self_ns(), prof.engine_allocs())];
    let mut hooks: Vec<_> = Group::ALL
        .iter()
        .zip(&groups)
        .filter(|(_, s)| s.calls > 0)
        .map(|(g, s)| (g.name(), s.calls, s.self_ns, s.self_allocs))
        .collect();
    hooks.sort_by_key(|h| std::cmp::Reverse(h.2));
    rows.extend(hooks);
    let wall = prof.wall_ns.max(1);
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{:<14} {:>10} {:>12} {:>7} {:>12}",
        "layer", "calls", "self_s", "share", "allocs"
    );
    for (name, calls, ns, allocs) in rows {
        let _ = writeln!(
            t,
            "{name:<14} {calls:>10} {:>12.6} {:>6.1}% {allocs:>12}",
            secs(ns),
            100.0 * ns as f64 / wall as f64
        );
    }
    let _ = writeln!(
        t,
        "{:<14} {:>10} {:>12.6} {:>6.1}%",
        "step",
        "",
        secs(prof.wall_ns),
        100.0
    );
    t
}

/// Median (mean of the middle two for an even count); 0 when empty.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn check_digest(expected: &mut Option<u64>, got: u64, what: &str, violations: &mut Vec<String>) {
    match *expected {
        None => *expected = Some(got),
        Some(d) if d != got => violations.push(format!(
            "outcome digest of {what} is {got:016x}, expected {d:016x}"
        )),
        Some(_) => {}
    }
}

/// Run one benchmark invocation.
pub fn run_benchmark(opts: &Options) -> Report {
    let w = opts.workload;
    let mut violations = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut plain_walls = Vec::new();
    let mut untraced_sims = Vec::new();
    let mut traced_sims = Vec::new();
    let mut digest = None;
    let mut span_capacity = 1 << 16;
    while reps.len() < 2 || started.elapsed() < budget {
        if opts.trace {
            let plain = one_rep(w, &opts.sizes, opts.seed, Mode::Plain, &mut violations);
            check_digest(&mut digest, plain.digest, "a plain run", &mut violations);
            plain_walls.push(plain.wall_ns as f64);
            traced_sims.push(plain.sim_ns as f64);
            if w == Workload::TraceInspect {
                let untraced = one_rep(w, &opts.sizes, opts.seed, Mode::Untraced, &mut violations);
                check_digest(
                    &mut digest,
                    untraced.digest,
                    "an untraced run",
                    &mut violations,
                );
                untraced_sims.push(untraced.sim_ns as f64);
            }
            let spanned = one_rep(
                w,
                &opts.sizes,
                opts.seed,
                Mode::Spanned(span_capacity),
                &mut violations,
            );
            check_digest(
                &mut digest,
                spanned.digest,
                "the layer-span run",
                &mut violations,
            );
            if let Some(p) = &spanned.profile {
                span_capacity = p.spans.len() + p.spans.len() / 8 + 1024;
            }
            if let Some(prev) = reps.last_mut() {
                prev.profile = None;
            }
            reps.push(spanned);
        } else {
            let rep = one_rep(w, &opts.sizes, opts.seed, Mode::Plain, &mut violations);
            check_digest(&mut digest, rep.digest, "a repetition", &mut violations);
            eprintln!(
                "rep {}: set-up {:.6} s, step {:.6} s",
                reps.len(),
                secs(rep.setup_ns),
                secs(rep.wall_ns)
            );
            reps.push(rep);
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    // The second seed runs every check once more, on other inputs.
    let seed2 = second_seed(opts.seed);
    let mut digest2 = None;
    let mut extra = Vec::new();
    let mut second = |mode| {
        let rep = one_rep(w, &opts.sizes, seed2, mode, &mut violations);
        check_digest(&mut digest2, rep.digest, "the second seed", &mut violations);
        extra.push(Rep {
            profile: None,
            ..rep
        });
    };
    second(Mode::Plain);
    if opts.trace {
        second(Mode::Spanned(span_capacity));
    }

    let attempted: u64 = reps.iter().chain(&extra).map(|r| r.submitted).sum();
    let completed: u64 = reps.iter().chain(&extra).map(|r| r.completed).sum();
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Vec::new();
    let mut layer_table_text = None;
    let mut spans_bytes = None;
    if opts.trace {
        let per_rep: Vec<&Vec<Metric>> = reps.iter().filter_map(|r| r.layers.as_ref()).collect();
        for (i, m) in per_rep[0].iter().enumerate() {
            let values: Vec<f64> = per_rep.iter().map(|r| r[i].value).collect();
            metrics.push(metric(m.name.clone(), m.unit, median(&values)));
        }
        let record_s = if untraced_sims.is_empty() {
            0.0
        } else {
            (median(&traced_sims) - median(&untraced_sims)) / 1e9
        };
        metrics.push(metric("trace.record_s", "s", record_s));
        metrics.push(metric(
            "bench.span_overhead",
            "ratio",
            med(&|r| r.wall_ns as f64) / median(&plain_walls),
        ));
        if let Some(p) = reps.last().and_then(|r| r.profile.as_ref()) {
            layer_table_text = Some(layer_table(p));
            spans_bytes = Some(p.encode());
        }
    } else {
        metrics.push(metric(
            "fns_per_s",
            "fn/s",
            med(&|r| r.completed as f64 / secs(r.wall_ns)),
        ));
        metrics.push(metric("setup_s", "s", med(&|r| secs(r.setup_ns))));
        metrics.push(metric("peak_rss_mb", "MiB", record::peak_rss_mb()));
        metrics.push(metric(
            "allocs_per_fn",
            "allocs/fn",
            med(&|r| r.allocs as f64 / r.completed.max(1) as f64),
        ));
        metrics.push(metric(
            "completed_frac",
            "ratio",
            ratio(completed, attempted),
        ));
    }

    // Calibrate last: its buffers must not raise the peak resident set.
    let calibration = record::calibrate();
    let sizes = opts.sizes;
    let root = std::env::current_dir().unwrap_or_default();
    let step_walls: Vec<f64> = reps.iter().map(|r| secs(r.wall_ns)).collect();
    let record = format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"second_seed\": {}, \"trace\": {}, ",
            "\"digest\": \"{:016x}\", \"second_digest\": \"{:016x}\", \"git_rev\": \"{}\", \"nproc\": {}, ",
            "\"calibration\": {{\"memcpy_gb_s\": {:.3}, \"fnv1a64_bytes_s\": {:.0}}}, ",
            "\"sizes\": {{\"functions\": {}, \"ckpt_fns\": {}, \"ckpt_nodes\": {}, \"million_invocations\": {}, ",
            "\"million_waves\": {}, \"million_nodes\": {}, \"chaos_jobs\": {}, \"trace_jobs\": {}, ",
            "\"chaos_nodes\": {}, \"chaos_rate_hz\": {}, \"chaos_max_inflight\": {}}}, ",
            "\"reps\": {}, \"measured_s\": {:.3}, \"step_s\": {{\"min\": {:.6}, \"median\": {:.6}, \"max\": {:.6}}}}}"
        ),
        w.name(),
        opts.seed,
        seed2,
        opts.trace as u8,
        digest.unwrap_or(0),
        digest2.unwrap_or(0),
        record::git_rev(&root),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        calibration.memcpy_gb_s,
        calibration.fnv1a64_bytes_s,
        sizes.functions(w),
        sizes.ckpt_fns,
        sizes.ckpt_nodes,
        sizes.million_invocations,
        sizes.million_waves,
        sizes.million_nodes,
        sizes.chaos_jobs,
        sizes.trace_jobs,
        workloads::CHAOS_NODES,
        workloads::CHAOS_RATE_HZ,
        workloads::CHAOS_MAX_INFLIGHT,
        reps.len(),
        measured_s,
        step_walls.iter().copied().fold(f64::MAX, f64::min),
        median(&step_walls),
        step_walls.iter().copied().fold(0.0, f64::max),
    );
    Report {
        metrics,
        attempted,
        failed: attempted - completed,
        violations,
        record,
        layer_table: layer_table_text,
        spans: spans_bytes,
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(report: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.violations.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}
