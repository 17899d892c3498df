//! Run outcomes and cost-relevant accounting: per-function and per-job
//! outcomes, container billing records, the counter registry
//! ([`RunCounters`] and [`Counter`], declared by one `run_counters!`
//! table), and the complete [`RunResult`] including the optional trace
//! and telemetry.

use crate::ids::{FnId, JobId};
use crate::profile::HotPathProfile;
use crate::telemetry::TelemetrySnapshot;
use crate::trace::Trace;
use canary_container::ContainerPurpose;
use canary_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Billing record for one container: the GB·s cost model in §V-D.4 prices
/// each container's lifetime × memory allocation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ContainerUsage {
    /// Why the container existed (function / replica / standby).
    pub purpose: ContainerPurpose,
    /// Memory allocated, MB.
    pub memory_mb: u64,
    /// Creation time.
    pub created: SimTime,
    /// Termination time (run end for containers still alive then).
    pub terminated: SimTime,
}

impl ContainerUsage {
    /// Billed container-seconds.
    pub fn seconds(&self) -> f64 {
        self.terminated.saturating_since(self.created).as_secs_f64()
    }

    /// Billed GB·seconds.
    pub fn gb_seconds(&self) -> f64 {
        self.seconds() * self.memory_mb as f64 / 1024.0
    }
}

/// Per-function outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FnOutcome {
    /// Function id.
    pub id: FnId,
    /// Owning job.
    pub job: JobId,
    /// When the launch was first requested.
    pub first_launch: SimTime,
    /// When it completed.
    pub completed_at: SimTime,
    /// Failures suffered.
    pub failures: u32,
    /// Total recovery time (Σ kill → progress-regained).
    pub recovery: SimDuration,
    /// Attempts executed.
    pub attempts: u32,
}

/// Per-job outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Job id.
    pub id: JobId,
    /// When the request arrived at the platform (client submission).
    pub submitted_at: SimTime,
    /// When the admission gate released the job (`None` for rejected
    /// jobs). `admitted_at - submitted_at` is the queue wait.
    pub admitted_at: Option<SimTime>,
    /// When the job's first function began executing (`None` for
    /// rejected jobs).
    pub first_exec_at: Option<SimTime>,
    /// Completion of the last function (the rejection instant for
    /// rejected jobs).
    pub completed_at: SimTime,
    /// True when the request was rejected at arrival and never ran.
    pub rejected: bool,
}

impl JobOutcome {
    /// Job makespan: submission (arrival) to last-function completion.
    /// Under open-loop load this is the job's *response time*, queue
    /// wait included.
    pub fn makespan(&self) -> SimDuration {
        self.completed_at.saturating_since(self.submitted_at)
    }

    /// Time spent held in the admission queue (zero for jobs admitted on
    /// arrival, and for rejected jobs).
    pub fn queue_wait(&self) -> SimDuration {
        self.admitted_at
            .map_or(SimDuration::ZERO, |t| t.saturating_since(self.submitted_at))
    }

    /// Submission to first execution start: queue wait plus controller
    /// admission and cold start (`None` for rejected jobs).
    pub fn time_to_first_exec(&self) -> Option<SimDuration> {
        self.first_exec_at
            .map(|t| t.saturating_since(self.submitted_at))
    }
}

/// Declares the run's counter registry from one table (DESIGN.md §17).
/// Each row is a [`RunCounters`] field with its docs and the [`Counter`]
/// variant that names it; the field name is the counter's only label.
/// From the table come the struct, the enum, `Counter::ALL`, `label()`,
/// and `RunCounters::get` / `add`.
macro_rules! run_counters {
    ($($(#[doc = $doc:literal])* $field:ident: $variant:ident,)*) => {
        /// The run's counters, one per [`Counter`], owned by the engine.
        /// The engine counts its own events; a strategy counts through
        /// `Platform::count`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        #[serde(default)]
        pub struct RunCounters {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        /// Names one [`RunCounters`] field.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),*];

            /// Stable label used in reports and JSONL export: the field name.
            pub fn label(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }
        }

        impl RunCounters {
            /// Current value of `counter`.
            pub fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$field,)*
                }
            }

            /// Add `n` to `counter`.
            #[inline]
            pub fn add(&mut self, counter: Counter, n: u64) {
                match counter {
                    $(Counter::$variant => self.$field += n,)*
                }
            }
        }
    };
}

run_counters! {
    /// Function-level failures injected.
    function_failures: FunctionFailures,
    /// Node crashes that occurred.
    node_failures: NodeFailures,
    /// Containers created over the run.
    containers_created: ContainersCreated,
    /// Recoveries that resumed on a warm container.
    warm_recoveries: WarmRecoveries,
    /// Recoveries that had to cold-start.
    cold_recoveries: ColdRecoveries,
    /// Placement retries due to a full cluster.
    placement_retries: PlacementRetries,
    /// Checkpoint bytes written (strategy-reported).
    checkpoint_bytes: CheckpointBytes,
    /// Checkpoints written (strategy-reported).
    checkpoints_written: CheckpointsWritten,
    /// Restores performed, live migrations included (strategy-reported).
    restores: Restores,
    /// Jobs the validator parked in its admission queue.
    jobs_queued: JobsQueued,
    /// Jobs released from the admission queue.
    jobs_dequeued: JobsDequeued,
    /// Jobs the validator rejected outright.
    jobs_rejected: JobsRejected,
    /// Warm replicas consumed by recoveries.
    replicas_consumed: ReplicasConsumed,
    /// Replicas re-spawned by pool reconciliation after a loss.
    replicas_refreshed: ReplicasRefreshed,
    /// Chaos fault events dispatched by the engine (all classes).
    chaos_events: ChaosEvents,
    /// Replicated-store member outages injected by the chaos plan.
    store_outages: StoreOutages,
    /// Replicated-store members rejoined after an outage.
    store_rejoins: StoreRejoins,
    /// Attempts slowed down by an injected straggler fault.
    stragglers_injected: StragglersInjected,
    /// Checkpoint writes dropped because the store was unavailable.
    checkpoints_skipped: CheckpointsSkipped,
    /// Retained checkpoints found corrupted during restore probing.
    checkpoints_corrupted: CheckpointsCorrupted,
    /// Restores that fell back past the newest retained checkpoint.
    restore_fallbacks: RestoreFallbacks,
    /// Control-plane crash-restarts injected by the chaos plan.
    controller_crashes: ControllerCrashes,
    /// WAL records replayed across all controller recoveries.
    wal_records_replayed: WalRecordsReplayed,
    /// Torn trailing WAL records discarded during controller recoveries.
    wal_torn_tails: WalTornTails,
    /// Events dequeued and dispatched by the run loop. The honest
    /// denominator for events/s and allocs/event throughput claims —
    /// counted in the loop itself, with or without tracing.
    events_dispatched: EventsDispatched,
    /// Node-crash recoveries resolved by live migration to a warm
    /// replica instead of rerun-from-checkpoint.
    migrations: Migrations,
    /// Chunks shipped to warm replicas by those migrations (the deltas).
    chunks_migrated: ChunksMigrated,
    /// Metadata reads served from the db row cache (decode skipped),
    /// reported at run end.
    db_cache_hits: DbCacheHits,
    /// Metadata reads that went through to the store and decoded a row,
    /// reported at run end.
    db_cache_misses: DbCacheMisses,
    /// Chunk bodies physically stored by the content-addressed
    /// checkpoint path (first reference), reported at run end.
    chunks_written: ChunksWritten,
    /// Chunk references satisfied by an already-stored body, reported at
    /// run end.
    chunks_deduped: ChunksDeduped,
}

impl RunCounters {
    /// Every counter with its value, in [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// The complete result of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Strategy label.
    pub strategy: String,
    /// Per-function outcomes, in `FnId` order.
    pub fns: Vec<FnOutcome>,
    /// Per-job outcomes, in `JobId` order.
    pub jobs: Vec<JobOutcome>,
    /// All container usage records.
    pub containers: Vec<ContainerUsage>,
    /// Counters.
    pub counters: RunCounters,
    /// Virtual time at which the run drained.
    pub finished_at: SimTime,
    /// Execution trace (empty unless `RunConfig::trace` was set).
    pub trace: Trace,
    /// Telemetry snapshot (all-zero unless `RunConfig::telemetry` was
    /// set).
    pub telemetry: TelemetrySnapshot,
    /// Engine hot-path profile (empty unless `RunConfig::profile` was
    /// set).
    #[serde(default)]
    pub profile: HotPathProfile,
}

impl RunResult {
    /// Makespan across all jobs (first submit to last completion).
    pub fn makespan(&self) -> SimDuration {
        let start = self
            .jobs
            .iter()
            .map(|j| j.submitted_at)
            .min()
            .unwrap_or(SimTime::ZERO);
        let end = self
            .jobs
            .iter()
            .map(|j| j.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        end.saturating_since(start)
    }

    /// Total recovery time across all functions.
    pub fn total_recovery(&self) -> SimDuration {
        self.fns.iter().map(|f| f.recovery).sum()
    }

    /// Mean recovery time per *failed* function (0 when nothing failed).
    pub fn mean_recovery_per_failure(&self) -> SimDuration {
        let failures: u32 = self.fns.iter().map(|f| f.failures).sum();
        if failures == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.total_recovery().as_secs_f64() / failures as f64)
    }

    /// Total billed GB·seconds over all containers.
    pub fn gb_seconds(&self) -> f64 {
        self.containers.iter().map(ContainerUsage::gb_seconds).sum()
    }

    /// GB·seconds split by container purpose.
    pub fn gb_seconds_for(&self, purpose: ContainerPurpose) -> f64 {
        self.containers
            .iter()
            .filter(|c| c.purpose == purpose)
            .map(ContainerUsage::gb_seconds)
            .sum()
    }

    /// Number of functions that completed.
    pub fn completed_count(&self) -> usize {
        self.fns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_math() {
        let u = ContainerUsage {
            purpose: ContainerPurpose::Function,
            memory_mb: 2048,
            created: SimTime::from_micros(0),
            terminated: SimTime::from_micros(10_000_000),
        };
        assert!((u.seconds() - 10.0).abs() < 1e-9);
        assert!((u.gb_seconds() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_spans_jobs() {
        let r = RunResult {
            strategy: "x".into(),
            fns: vec![],
            jobs: vec![
                JobOutcome {
                    id: JobId(0),
                    submitted_at: SimTime::from_micros(0),
                    admitted_at: Some(SimTime::from_micros(0)),
                    first_exec_at: Some(SimTime::from_micros(100_000)),
                    completed_at: SimTime::from_micros(5_000_000),
                    rejected: false,
                },
                JobOutcome {
                    id: JobId(1),
                    submitted_at: SimTime::from_micros(1_000_000),
                    admitted_at: Some(SimTime::from_micros(2_000_000)),
                    first_exec_at: Some(SimTime::from_micros(2_100_000)),
                    completed_at: SimTime::from_micros(9_000_000),
                    rejected: false,
                },
            ],
            containers: vec![],
            counters: RunCounters::default(),
            finished_at: SimTime::from_micros(9_000_000),
            trace: Trace::default(),
            telemetry: TelemetrySnapshot::default(),
            profile: HotPathProfile::default(),
        };
        assert_eq!(r.makespan(), SimDuration::from_secs(9));
    }

    #[test]
    fn recovery_aggregates() {
        let f = |rec_s: u64, fails: u32| FnOutcome {
            id: FnId(0),
            job: JobId(0),
            first_launch: SimTime::ZERO,
            completed_at: SimTime::ZERO,
            failures: fails,
            recovery: SimDuration::from_secs(rec_s),
            attempts: fails + 1,
        };
        let r = RunResult {
            strategy: "x".into(),
            fns: vec![f(10, 1), f(0, 0), f(20, 3)],
            jobs: vec![],
            containers: vec![],
            counters: RunCounters::default(),
            finished_at: SimTime::ZERO,
            trace: Trace::default(),
            telemetry: TelemetrySnapshot::default(),
            profile: HotPathProfile::default(),
        };
        assert_eq!(r.total_recovery(), SimDuration::from_secs(30));
        assert_eq!(
            r.mean_recovery_per_failure(),
            SimDuration::from_secs_f64(7.5)
        );
    }

    #[test]
    fn mean_recovery_with_no_failures_is_zero() {
        let r = RunResult {
            strategy: "x".into(),
            fns: vec![],
            jobs: vec![],
            containers: vec![],
            counters: RunCounters::default(),
            finished_at: SimTime::ZERO,
            trace: Trace::default(),
            telemetry: TelemetrySnapshot::default(),
            profile: HotPathProfile::default(),
        };
        assert_eq!(r.mean_recovery_per_failure(), SimDuration::ZERO);
    }
}
