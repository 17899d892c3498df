//! The four workloads: their inputs (built from the seed during set-up)
//! and their measured step (built only from public APIs).

use crate::adapter::Timed;
use crate::spans::{Group, Recorder, StepProfile, NO_ID};
use canary_baselines::IdealStrategy;
use canary_cluster::{
    BurstSpec, ChaosSpec, Cluster, ControllerCrashSpec, DegradeSpec, FailureModel, StoreOutageSpec,
};
use canary_core::{CanaryConfig, CanaryStrategy, ReplicationStrategyKind};
use canary_experiments::{trace_from_jsonl, trace_to_jsonl};
use canary_platform::{run, FtStrategy, JobSpec, RunConfig, RunResult, Trace};
use canary_sim::{ArrivalProcess, SimDuration, SimRng};
use canary_workloads::WorkloadSpec;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Canary with dynamic replication on a closed batch of web-service
    /// functions under container kills: the checkpoint write path.
    CkptSteady,
    /// The failure-free reference strategy on a million short
    /// invocations: the engine's event loop alone.
    EngineMillion,
    /// Canary with live migration under open-loop arrivals and a chaos
    /// plan of store outages, controller crashes and rack bursts: WAL
    /// replay and the recovery paths.
    ChaosRecover,
    /// A smaller chaos-recover run with the trace on, then JSONL emit,
    /// parse-back and critical-path blame.
    TraceInspect,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CkptSteady,
        Workload::EngineMillion,
        Workload::ChaosRecover,
        Workload::TraceInspect,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CkptSteady => "ckpt-steady",
            Workload::EngineMillion => "engine-million",
            Workload::ChaosRecover => "chaos-recover",
            Workload::TraceInspect => "trace-inspect",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// ckpt-steady: `web_service(10)` functions in the closed batch.
    pub ckpt_fns: u32,
    /// ckpt-steady: cluster nodes.
    pub ckpt_nodes: u32,
    /// engine-million: `web_service(2)` invocations in total.
    pub million_invocations: u32,
    /// engine-million: arrival waves the invocations are split into.
    pub million_waves: u32,
    /// engine-million: cluster nodes.
    pub million_nodes: u32,
    /// chaos-recover: single-invocation `spark_mining(3)` jobs.
    pub chaos_jobs: u32,
    /// trace-inspect: jobs of the same scenario.
    pub trace_jobs: u32,
}

impl Sizes {
    /// The sizes the benchmark measures at.
    pub const FULL: Sizes = Sizes {
        ckpt_fns: 2_500,
        ckpt_nodes: 100,
        million_invocations: 250_000,
        million_waves: 250,
        million_nodes: 2_500,
        chaos_jobs: 4_000,
        trace_jobs: 2_000,
    };

    /// Every count multiplied by `factor` (at least one of each), for the
    /// benchmark's own quick tests.
    pub fn scaled(factor: f64) -> Sizes {
        let s = |n: u32| ((n as f64 * factor).round() as u32).max(1);
        let f = Sizes::FULL;
        Sizes {
            ckpt_fns: s(f.ckpt_fns),
            ckpt_nodes: s(f.ckpt_nodes).max(8),
            million_invocations: s(f.million_invocations).max(s(f.million_waves)),
            million_waves: s(f.million_waves),
            million_nodes: s(f.million_nodes).max(8),
            chaos_jobs: s(f.chaos_jobs),
            trace_jobs: s(f.trace_jobs),
        }
    }

    /// Functions a workload submits.
    pub fn functions(&self, w: Workload) -> u64 {
        match w {
            Workload::CkptSteady => self.ckpt_fns as u64,
            Workload::EngineMillion => {
                (self.million_invocations / self.million_waves * self.million_waves) as u64
            }
            Workload::ChaosRecover => self.chaos_jobs as u64,
            Workload::TraceInspect => self.trace_jobs as u64,
        }
    }
}

/// Offered arrival rate of the chaos scenario, jobs per second.
pub const CHAOS_RATE_HZ: f64 = 20.0;
/// Nodes of the chaos scenario's cluster (16 racks of 4).
pub const CHAOS_NODES: u32 = 64;
/// Admission-gate cap on inflight functions in the chaos scenario.
pub const CHAOS_MAX_INFLIGHT: u32 = 256;
/// Length of one chaos cycle, seconds.
pub const CHAOS_CYCLE_S: u64 = 5;

/// The strategy a workload drives.
pub enum Strategy {
    /// Canary (checkpointing, replication, durable control plane).
    Canary(Box<CanaryStrategy>),
    /// The failure-free reference.
    Ideal(IdealStrategy),
}

impl Strategy {
    /// The strategy as the engine sees it.
    pub fn as_dyn(&mut self) -> &mut dyn FtStrategy {
        match self {
            Strategy::Canary(c) => c.as_mut(),
            Strategy::Ideal(i) => i,
        }
    }

    /// The Canary strategy, when the workload drives one.
    pub fn canary(&self) -> Option<&CanaryStrategy> {
        match self {
            Strategy::Canary(c) => Some(c),
            Strategy::Ideal(_) => None,
        }
    }
}

/// Everything built before the measured step.
pub struct Prepared {
    /// The run configuration (cluster, failures, chaos plan, seed).
    pub config: RunConfig,
    /// The job specs with their arrival offsets.
    pub specs: Vec<JobSpec>,
    /// The strategy, with its database, WAL and flusher thread.
    pub strategy: Strategy,
    /// Functions submitted.
    pub submitted: u64,
}

/// The chaos plan of the chaos scenario for an arrival window of
/// `window_s` seconds. Every cycle has a store-member outage with rejoin
/// and, inside it, two controller crashes at odd-microsecond instants (so
/// they never tie with an engine event): with a member down the WAL defers
/// compaction, so each crash replays a long log. Every other cycle a rack
/// burst takes one more node of the next rack, so node-crash migrations
/// happen. Checkpoint corruption, stragglers and one network degradation
/// window run throughout.
pub fn chaos_spec(window_s: u64) -> ChaosSpec {
    let racks = (CHAOS_NODES / 4) as u64;
    let mut spec = ChaosSpec::default();
    for k in 0..(window_s / CHAOS_CYCLE_S).max(1) {
        let t0 = k * CHAOS_CYCLE_S;
        spec.store_outages.push(StoreOutageSpec {
            member: (k % 3) as u32,
            from_s: t0 + 1,
            rejoin_s: Some(t0 + 4),
        });
        for at_s in [t0 + 2, t0 + 3] {
            spec.controller_crashes.push(ControllerCrashSpec {
                at_us: at_s * 1_000_000 + 500_001,
            });
        }
        if k % 2 == 1 {
            let burst = k / 2;
            spec.bursts.push(BurstSpec {
                at_s: t0 + 2,
                rack: (burst % racks) as u32,
                count: 1 + (burst / racks) as u32,
            });
        }
    }
    spec.degrades.push(DegradeSpec {
        factor: 2.0,
        from_s: 8,
        until_s: 25,
    });
    spec.corruption_rate = 0.35;
    spec.straggler_rate = 0.2;
    spec
}

fn canary(migrate: bool) -> Strategy {
    let mut config = CanaryConfig::with_replication(ReplicationStrategyKind::Dynamic);
    config.migrate = migrate;
    Strategy::Canary(Box::new(CanaryStrategy::new(config)))
}

/// Build a workload's inputs from `seed`. This is the set-up the
/// `setup_s` metric times.
pub fn prepare(workload: Workload, sizes: &Sizes, seed: u64) -> Prepared {
    let mut rng = SimRng::seed_from_u64(seed).split(0xBE7C);
    let (config, specs, strategy) = match workload {
        Workload::CkptSteady => {
            let failure = FailureModel::with_error_rate(0.15);
            let config = RunConfig::new(Cluster::heterogeneous(sizes.ckpt_nodes), failure, seed);
            let specs = vec![JobSpec::new(WorkloadSpec::web_service(10), sizes.ckpt_fns)];
            (config, specs, canary(false))
        }
        Workload::EngineMillion => {
            // Staggered waves keep inflight work a small share of the slot
            // supply, so the step measures steady dispatch; the seed moves
            // each wave by up to 40 ms.
            let per_wave = sizes.million_invocations / sizes.million_waves;
            let specs = (0..sizes.million_waves as u64)
                .map(|i| {
                    let at = i * 240 + rng.range_u64(0, 40);
                    JobSpec::new(WorkloadSpec::web_service(2), per_wave)
                        .at(SimDuration::from_millis(at))
                })
                .collect();
            let failure = FailureModel::with_error_rate(0.0);
            let mut config =
                RunConfig::new(Cluster::heterogeneous(sizes.million_nodes), failure, seed);
            // The modeled controller admission delay turns every pending
            // launch into a re-poll storm; the subject here is the loop.
            config.admission_delay = SimDuration::ZERO;
            (config, specs, Strategy::Ideal(IdealStrategy::new()))
        }
        Workload::ChaosRecover | Workload::TraceInspect => {
            let jobs = if workload == Workload::ChaosRecover {
                sizes.chaos_jobs
            } else {
                sizes.trace_jobs
            };
            let offsets = ArrivalProcess::poisson(CHAOS_RATE_HZ).offsets(&rng, jobs as usize);
            let window_s = offsets.last().map_or(1, |d| d.as_micros() / 1_000_000 + 1);
            let specs = offsets
                .into_iter()
                .map(|at| JobSpec::new(WorkloadSpec::spark_mining(3), 1).at(at))
                .collect();
            let failure = FailureModel::with_error_rate(0.3).with_node_failures(0.05);
            let mut config = RunConfig::new(Cluster::heterogeneous(CHAOS_NODES), failure, seed);
            config.node_failure_horizon = SimDuration::from_secs(window_s);
            config.max_inflight = Some(CHAOS_MAX_INFLIGHT);
            config.chaos = chaos_spec(window_s);
            if workload == Workload::TraceInspect {
                config.trace = true;
                config.telemetry = true;
                config.causal = true;
            }
            (config, specs, canary(true))
        }
    };
    Prepared {
        submitted: sizes.functions(workload),
        config,
        specs,
        strategy,
    }
}

/// What trace-inspect's export and blame produced.
pub struct Inspected {
    /// The trace as JSONL.
    pub jsonl: String,
    /// The JSONL parsed back.
    pub parsed: Trace,
    /// Jobs with a critical path.
    pub paths: usize,
}

/// The outcome of one measured step.
pub struct StepOut {
    /// The simulation's result.
    pub result: RunResult,
    /// Wall time of the whole step.
    pub wall_ns: u64,
    /// Wall time of the simulation alone.
    pub sim_ns: u64,
    /// trace-inspect only: export and blame outputs.
    pub inspected: Option<Inspected>,
    /// Layer spans, when the step ran through the timing adapter.
    pub profile: Option<StepProfile>,
}

/// Run `call` inside a span of `group` when there is a recorder.
fn spanned<R>(rec: &mut Option<Recorder>, group: Group, call: impl FnOnce() -> R) -> R {
    let entered = rec.as_mut().map(|r| r.enter(group, NO_ID));
    let out = call();
    if let (Some(r), Some(e)) = (rec.as_mut(), entered) {
        r.exit(e);
    }
    out
}

/// Run the measured step: the simulation and, on trace-inspect, the JSONL
/// emit, parse-back and blame. With a recorder, every strategy hook runs
/// through the timing adapter and the step's layer spans are returned.
/// `strategy` is normally `prepared.strategy.as_dyn()`; the benchmark's
/// tests pass a deliberately broken wrapper instead.
pub fn step(
    workload: Workload,
    config: RunConfig,
    specs: Vec<JobSpec>,
    strategy: &mut dyn FtStrategy,
    recorder: Option<Recorder>,
) -> StepOut {
    let start = Instant::now();
    let (result, mut rec) = match recorder {
        None => (run(config, specs, strategy), None),
        Some(r) => {
            let mut timed = Timed::new(strategy, r);
            let result = run(config, specs, &mut timed);
            (result, Some(timed.into_recorder()))
        }
    };
    let sim_ns = start.elapsed().as_nanos() as u64;
    let inspected = (workload == Workload::TraceInspect).then(|| {
        let jsonl = spanned(&mut rec, Group::Emit, || trace_to_jsonl(&result.trace));
        let parsed = spanned(&mut rec, Group::Parse, || {
            trace_from_jsonl(&jsonl).expect("emitted JSONL parses back")
        });
        let paths = spanned(&mut rec, Group::Blame, || {
            canary_metrics::causal::critical_paths(&parsed).len()
        });
        Inspected {
            jsonl,
            parsed,
            paths,
        }
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let profile = rec.as_mut().map(Recorder::finish);
    StepOut {
        result,
        wall_ns,
        sim_ns,
        inspected,
        profile,
    }
}
