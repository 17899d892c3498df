//! Observability overhead: the telemetry layer must be (near) free when
//! disabled and cheap when enabled, both at the call-site level and over
//! a whole simulated run.

use canary_core::ReplicationStrategyKind;
use canary_experiments::{Scenario, StrategyKind};
use canary_platform::{Counter, JobSpec, Phase, RunCounters, Telemetry};
use canary_sim::{SimDuration, SimTime};
use canary_workloads::{WorkloadKind, WorkloadSpec};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Hot-path cost of one observe + counter add + span pair, disabled vs
/// enabled.
fn bench_telemetry_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_calls");
    group.throughput(Throughput::Elements(10_000));
    for enabled in [false, true] {
        let label = if enabled { "on_10k" } else { "off_10k" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut tel = Telemetry::new(enabled);
                let mut counters = RunCounters::default();
                for i in 0..10_000u64 {
                    tel.observe(Phase::CheckpointWrite, SimDuration::from_micros(i % 4096));
                    counters.add(Counter::CheckpointsWritten, 1);
                    tel.span_start(Phase::RecoveryE2E, i, SimTime::from_micros(i));
                    tel.span_end(Phase::RecoveryE2E, i, SimTime::from_micros(i + 500));
                }
                black_box(tel.snapshot(&counters))
            })
        });
    }
    group.finish();
}

/// Whole-run cost: the same fixed-seed scenario with observability off
/// (the figure-sweep configuration) vs fully on (trace + telemetry).
fn bench_observed_run(c: &mut Criterion) {
    let mut scenario = Scenario::chameleon(
        0.15,
        vec![JobSpec::new(
            WorkloadSpec::paper_default(WorkloadKind::WebService),
            50,
        )],
    );
    scenario.nodes = 8;
    scenario.node_failure_rate = 0.2;
    let strategy = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

    let mut group = c.benchmark_group("run_web50");
    group.bench_function("observability_off", |b| {
        b.iter(|| black_box(scenario.run_once(strategy, 42)))
    });
    group.bench_function("observability_on", |b| {
        b.iter(|| black_box(scenario.run_observed(strategy, 42)))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_calls, bench_observed_run);
criterion_main!(benches);
