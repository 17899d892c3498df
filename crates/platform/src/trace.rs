//! Execution traces: an opt-in, time-ordered log of platform events.
//!
//! Enabled via [`crate::RunConfig::trace`]; the engine then records every
//! noteworthy transition (job admission and validator queueing, attempt
//! starts, failures, recovery plans, checkpoint writes/restores, replica
//! lifecycle, node crashes) into the run result. Traces make recovery
//! behaviour inspectable — e.g. asserting that a failure is followed by a
//! warm resume on a replica — and feed the swimlane renderer in
//! `canary_metrics::timeline` as well as the JSONL exporter in
//! `canary_experiments::export`. Aggregate latency statistics live in the
//! companion [`crate::telemetry`] layer.
//!
//! The JSONL wire form is declared here once: the `trace_kinds!` table
//! below gives every kind its wire name and field keys, and generates the
//! enum, its line writer and its parser from them (DESIGN.md §16).

use crate::ids::{FnId, JobId};
use crate::strategy::RecoveryTarget;
use canary_cluster::{NodeId, StorageTier};
use canary_container::ContainerId;
use canary_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;
use wire::{put_u64, Codec, OmitZero, ZeroOne};

mod wire;

pub use wire::{parse_flat_json, FlatObject, Val};

/// Identity of one trace span. Every emitted [`TraceEvent`] gets a fresh
/// `SpanId` at emit time when [`crate::RunConfig::causal`] is on; the id
/// `0` is reserved as the "no span" sentinel so that links stay `Copy`
/// and cost nothing to carry when causal observation is off.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span / no link" sentinel.
    pub const NONE: SpanId = SpanId(0);

    /// True for the sentinel value.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True for a real span id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span{}", self.0)
    }
}

/// Declares [`TraceKind`] from one schema table (DESIGN.md §16). Each row
/// is a variant with its docs, its snake-case wire name, and its fields;
/// a field's JSON key is its name unless the row gives `= "key"`, and its
/// encoding is its type's [`Codec`] unless the row names a quirk codec in
/// brackets. From the table come the enum, `NAMES`, `name()`, the
/// `fn_id()`/`job()` accessors, and the JSONL field writer and parser.
macro_rules! trace_kinds {
    (
        $(#[$meta:meta])*
        pub enum TraceKind {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $wire:literal $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $(= $key:literal)? $([$codec:ty])?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum TraceKind {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $ty),* })?,
            )*
        }

        impl TraceKind {
            /// Every kind's wire name, in table order.
            pub const NAMES: &'static [&'static str] = &[$($wire),*];

            /// This kind's wire name (the JSONL `kind` value).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceKind::$variant { .. } => $wire,)*
                }
            }

            /// The function this event concerns (the row's `fn_id` field).
            #[allow(unused_variables)]
            pub fn fn_id(&self) -> Option<FnId> {
                match *self {
                    $(TraceKind::$variant { $($($field),*)? } => {
                        None $($(.or(trace_kinds!(@get fn_id $field $field)))*)?
                    })*
                }
            }

            /// The job this event concerns (the row's `job` field).
            #[allow(unused_variables)]
            pub fn job(&self) -> Option<JobId> {
                match *self {
                    $(TraceKind::$variant { $($($field),*)? } => {
                        None $($(.or(trace_kinds!(@get job $field $field)))*)?
                    })*
                }
            }

            /// Append this kind's fields as `,"key":value` pairs.
            fn write_fields(&self, out: &mut String) {
                match *self {
                    $(TraceKind::$variant { $($($field),*)? } => {
                        $($(
                            <trace_kinds!(@codec $ty $(, $codec)?) as Codec<$ty>>::put(
                                $field,
                                trace_kinds!(@key $field $($key)?),
                                out,
                            );
                        )*)?
                    })*
                }
            }

            /// Rebuild the kind named `name` from a parsed line's fields.
            fn from_fields(name: &str, obj: &FlatObject<'_>) -> Result<TraceKind, String> {
                Ok(match name {
                    $($wire => TraceKind::$variant { $($(
                        $field: <trace_kinds!(@codec $ty $(, $codec)?) as Codec<$ty>>::take(
                            obj,
                            trace_kinds!(@key $field $($key)?),
                        )?,
                    )*)? },)*
                    other => return Err(format!("unknown kind {other:?}")),
                })
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@codec $ty:ty, $codec:ty) => { $codec };
    (@codec $ty:ty) => { $ty };
    (@get fn_id fn_id $v:ident) => { Some($v) };
    (@get job job $v:ident) => { Some($v) };
    (@get $want:ident $field:ident $v:ident) => { None };
}

trace_kinds! {
    /// What happened.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum TraceKind {
        /// A job's request arrived at the platform (client submission). Under
        /// open-loop load this precedes admission — the gap to the matching
        /// [`TraceKind::JobSubmitted`] is the job's queue wait.
        JobArrived = "job_arrived" {
            /// The job.
            job: JobId,
        },
        /// A job was admitted by the controller.
        JobSubmitted = "job_submitted" {
            /// The job.
            job: JobId,
        },
        /// A function attempt began executing.
        AttemptStarted = "attempt_started" {
            /// The function.
            fn_id: FnId = "fn",
            /// Attempt number (1-based).
            attempt: u32,
            /// Hosting node.
            node: NodeId,
            /// True when resumed on a warm container.
            warm: bool,
        },
        /// An attempt was killed.
        AttemptFailed = "attempt_failed" {
            /// The function.
            fn_id: FnId = "fn",
            /// Attempt number that died.
            attempt: u32,
            /// Node it died on.
            node: NodeId,
        },
        /// A function completed.
        FunctionCompleted = "function_completed" {
            /// The function.
            fn_id: FnId = "fn",
        },
        /// A replica/standby container was created.
        WarmPoolSpawned = "warm_pool_spawned" {
            /// The container.
            container: ContainerId,
            /// Node hosting it.
            node: NodeId,
        },
        /// A replica/standby finished its cold start.
        WarmPoolReady = "warm_pool_ready" {
            /// The container.
            container: ContainerId,
        },
        /// A node crashed.
        NodeFailed = "node_failed" {
            /// The node.
            node: NodeId,
        },
        /// A checkpoint became durable on a storage tier.
        CheckpointWritten = "checkpoint_written" {
            /// The function whose state was checkpointed.
            fn_id: FnId = "fn",
            /// State index the checkpoint covers.
            state: u32,
            /// Serialized payload size.
            bytes: u64,
            /// Tier it landed on.
            tier: StorageTier,
            /// Synchronous write cost charged to the attempt's execution
            /// timeline. Recorded only under [`crate::RunConfig::causal`]
            /// (zero otherwise) so critical-path blame can split an attempt's
            /// wall time into exec vs checkpoint components.
            #[serde(default)]
            cost: SimDuration = "cost_us" [OmitZero],
        },
        /// A checkpoint was read back during recovery.
        CheckpointRestored = "checkpoint_restored" {
            /// The recovering function.
            fn_id: FnId = "fn",
            /// State index execution resumes from.
            state: u32,
            /// Payload size read.
            bytes: u64,
            /// Tier it was read from.
            tier: StorageTier,
        },
        /// The validator parked a job in its admission queue.
        JobQueued = "job_queued" {
            /// The job.
            job: JobId,
        },
        /// The validator released a queued job for execution.
        JobDequeued = "job_dequeued" {
            /// The job.
            job: JobId,
        },
        /// The validator rejected a job outright.
        JobRejected = "job_rejected" {
            /// The job.
            job: JobId,
        },
        /// A warm replica was consumed by a recovery.
        ReplicaConsumed = "replica_consumed" {
            /// The container now hosting the function.
            container: ContainerId,
            /// The recovered function.
            fn_id: FnId = "fn",
        },
        /// Pool reconciliation refreshed a runtime's replica pool after a
        /// loss or demand change.
        ReplicaRefreshed = "replica_refreshed" {
            /// Replicas spawned this round.
            spawned: u32,
            /// Surplus idle replicas reclaimed this round.
            reclaimed: u32,
        },
        /// The strategy issued a recovery plan for a failed attempt.
        RecoveryPlanned = "recovery_planned" {
            /// The failed function.
            fn_id: FnId = "fn",
            /// Where the recovered attempt runs.
            target: RecoveryTarget,
            /// Failure-detection share of the recovery delay.
            detect: SimDuration = "detect_us",
            /// Restore share of the recovery delay.
            restore: SimDuration = "restore_us",
        },
        /// A chaos fault partitioned a node pair.
        PartitionStarted = "partition_started" {
            /// One endpoint of the pair.
            a: NodeId,
            /// The other endpoint.
            b: NodeId,
        },
        /// A chaos node-pair partition healed.
        PartitionHealed = "partition_healed" {
            /// One endpoint of the pair.
            a: NodeId,
            /// The other endpoint.
            b: NodeId,
        },
        /// Cluster-wide network degradation began.
        NetworkDegraded = "network_degraded" {
            /// Slowdown in percent (250 = 2.5× slower).
            pct: u32,
        },
        /// Cluster-wide network degradation ended.
        NetworkRestored = "network_restored",
        /// A replicated-store member went down (checkpoint store/metadata DB).
        StoreOutage = "store_outage" {
            /// Member index within the replica group.
            member: u32,
        },
        /// A previously-failed store member rejoined the replica group.
        StoreRejoined = "store_rejoined" {
            /// Member index within the replica group.
            member: u32,
        },
        /// An attempt was slowed down by an injected straggler fault.
        StragglerInjected = "straggler_injected" {
            /// The slowed function.
            fn_id: FnId = "fn",
            /// The slowed attempt (1-based).
            attempt: u32,
            /// Slowdown in percent (400 = 4× slower).
            pct: u32,
        },
        /// A retained checkpoint was found corrupted while probing for a
        /// restore point.
        CheckpointCorrupted = "checkpoint_corrupted" {
            /// The recovering function.
            fn_id: FnId = "fn",
            /// The corrupted checkpoint.
            ckpt_id: u64 = "ckpt",
        },
        /// A checkpoint write was dropped because the store was unavailable.
        CheckpointSkipped = "checkpoint_skipped" {
            /// The function whose checkpoint was lost.
            fn_id: FnId = "fn",
            /// State index the dropped checkpoint would have covered.
            state: u32,
        },
        /// A restore fell back past the newest checkpoint (state 0 means a
        /// full rerun from the start).
        RestoreFallback = "restore_fallback" {
            /// The recovering function.
            fn_id: FnId = "fn",
            /// State index execution actually resumes from.
            state: u32,
        },
        /// The control plane's metadata substrate crashed: every in-memory
        /// copy is lost and the write in flight is torn mid-record.
        ControllerCrashed = "controller_crashed",
        /// The control plane restarted, rebuilding its metadata from the
        /// write-ahead log (snapshot + replayed records). With durability off
        /// both counts are 0 and the metadata is simply gone.
        ControllerRecovered = "controller_recovered" {
            /// Rows loaded from the compacted snapshot.
            snapshot: u64,
            /// Log records replayed on top of the snapshot.
            replayed: u64,
            /// Whether a torn trailing record was found and discarded.
            torn: bool [ZeroOne],
        },
        /// Live migration (DESIGN.md §14): a node crash is recovered by
        /// moving the function's manifest-reachable checkpoint state to a
        /// warm replica on a surviving node — only the chunks the replica
        /// lacks travel.
        MigrationPlanned = "migration_planned" {
            /// The migrating function.
            fn_id: FnId = "fn",
            /// The warm replica receiving the state.
            container: ContainerId,
            /// The checkpoint the replica resumes from.
            ckpt_id: u64 = "ckpt",
            /// Chunks actually shipped (the delta).
            chunks: u32,
            /// Bytes actually shipped.
            bytes: u64,
        },
        /// Migration found no usable checkpoint (all retained ones corrupted
        /// or their rows lost): the warm replica reruns from the start.
        MigrationFallback = "migration_fallback" {
            /// The function rerunning from state 0.
            fn_id: FnId = "fn",
        },
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// This event's own span identity. [`SpanId::NONE`] unless the run
    /// recorded causal links ([`crate::RunConfig::causal`]).
    #[serde(default)]
    pub span: SpanId,
    /// Containment link: the span this event belongs under (a job root
    /// for its attempts, an attempt for its checkpoints, ...).
    #[serde(default)]
    pub parent: SpanId,
    /// Trigger link across trees: the earlier span that caused this event
    /// (a chaos fault for the attempts it killed, a recovery plan for the
    /// restarted attempt, ...).
    #[serde(default)]
    pub cause: SpanId,
}

impl TraceEvent {
    /// An event with no causal links (the pre-causal wire form).
    pub fn new(at: SimTime, kind: TraceKind) -> Self {
        TraceEvent {
            at,
            kind,
            span: SpanId::NONE,
            parent: SpanId::NONE,
            cause: SpanId::NONE,
        }
    }

    /// Append this event's JSONL line (no trailing newline):
    /// `{"at_us":N,"kind":"name",<fields>}`, with the causal links at the
    /// end and only when present, so traces recorded without
    /// [`crate::RunConfig::causal`] keep their exact pre-causal bytes.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"at_us\":{},\"kind\":\"", self.at.as_micros());
        out.push_str(self.kind.name());
        out.push('"');
        self.kind.write_fields(out);
        if self.span.is_some() {
            put_u64(self.span.0, "span", out);
            if self.parent.is_some() {
                put_u64(self.parent.0, "parent", out);
            }
            if self.cause.is_some() {
                put_u64(self.cause.0, "cause", out);
            }
        }
        out.push('}');
    }

    /// Parse one line written by [`TraceEvent::write_json`].
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let obj = parse_flat_json(line)?;
        let at = SimTime::from_micros(obj.u64("at_us")?);
        let kind = TraceKind::from_fields(obj.str("kind")?, &obj)?;
        let link = |key| obj.opt_u64(key).map(|v| SpanId(v.unwrap_or(0)));
        Ok(TraceEvent {
            at,
            kind,
            span: link("span")?,
            parent: link("parent")?,
            cause: link("cause")?,
        })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}] ", self.at.to_string())?;
        match self.kind {
            TraceKind::JobArrived { job } => write!(f, "arrive   {job}"),
            TraceKind::JobSubmitted { job } => write!(f, "submit   {job}"),
            TraceKind::AttemptStarted {
                fn_id,
                attempt,
                node,
                warm,
            } => write!(
                f,
                "start    {fn_id} attempt {attempt} on {node}{}",
                if warm { " (warm resume)" } else { "" }
            ),
            TraceKind::AttemptFailed {
                fn_id,
                attempt,
                node,
            } => write!(f, "FAIL     {fn_id} attempt {attempt} on {node}"),
            TraceKind::FunctionCompleted { fn_id } => write!(f, "complete {fn_id}"),
            TraceKind::WarmPoolSpawned { container, node } => {
                write!(f, "replica  {container} spawning on {node}")
            }
            TraceKind::WarmPoolReady { container } => write!(f, "replica  {container} warm"),
            TraceKind::NodeFailed { node } => write!(f, "NODE     {node} crashed"),
            TraceKind::CheckpointWritten {
                fn_id,
                state,
                bytes,
                tier,
                ..
            } => write!(f, "ckpt     {fn_id} state {state} ({bytes} B to {tier:?})"),
            TraceKind::CheckpointRestored {
                fn_id,
                state,
                bytes,
                tier,
            } => write!(
                f,
                "restore  {fn_id} from state {state} ({bytes} B from {tier:?})"
            ),
            TraceKind::JobQueued { job } => write!(f, "queue    {job} held by validator"),
            TraceKind::JobDequeued { job } => write!(f, "dequeue  {job} released by validator"),
            TraceKind::JobRejected { job } => write!(f, "REJECT   {job} by validator"),
            TraceKind::ReplicaConsumed { container, fn_id } => {
                write!(f, "consume  {container} by {fn_id}")
            }
            TraceKind::ReplicaRefreshed { spawned, reclaimed } => {
                write!(f, "refresh  pool +{spawned} -{reclaimed}")
            }
            TraceKind::RecoveryPlanned {
                fn_id,
                target,
                detect,
                restore,
            } => {
                write!(f, "plan     {fn_id} -> ")?;
                match target {
                    RecoveryTarget::FreshContainer => write!(f, "fresh container")?,
                    RecoveryTarget::WarmContainer(c) => write!(f, "warm {c}")?,
                }
                write!(f, " (detect {detect}, restore {restore})")
            }
            TraceKind::PartitionStarted { a, b } => {
                write!(f, "NET      {a} -x- {b} partitioned")
            }
            TraceKind::PartitionHealed { a, b } => write!(f, "net      {a} --- {b} healed"),
            TraceKind::NetworkDegraded { pct } => {
                write!(f, "NET      degraded ({pct}% slowdown)")
            }
            TraceKind::NetworkRestored => write!(f, "net      restored"),
            TraceKind::StoreOutage { member } => write!(f, "STORE    member {member} down"),
            TraceKind::StoreRejoined { member } => {
                write!(f, "store    member {member} rejoined")
            }
            TraceKind::StragglerInjected {
                fn_id,
                attempt,
                pct,
            } => write!(f, "straggle {fn_id} attempt {attempt} ({pct}% slowdown)"),
            TraceKind::CheckpointCorrupted { fn_id, ckpt_id } => {
                write!(f, "CORRUPT  {fn_id} ckpt {ckpt_id} unreadable")
            }
            TraceKind::CheckpointSkipped { fn_id, state } => {
                write!(f, "ckpt     {fn_id} state {state} SKIPPED (store down)")
            }
            TraceKind::RestoreFallback { fn_id, state } => {
                if state == 0 {
                    write!(f, "fallback {fn_id} rerun from start")
                } else {
                    write!(f, "fallback {fn_id} to state {state}")
                }
            }
            TraceKind::ControllerCrashed => {
                write!(f, "CTRL     control plane crashed (metadata lost)")
            }
            TraceKind::ControllerRecovered {
                snapshot,
                replayed,
                torn,
            } => {
                write!(
                    f,
                    "ctrl     recovered from WAL: {snapshot} snapshot rows + {replayed} records"
                )?;
                if torn {
                    write!(f, " (torn tail discarded)")?;
                }
                Ok(())
            }
            TraceKind::MigrationPlanned {
                fn_id,
                container,
                ckpt_id,
                chunks,
                bytes,
            } => write!(
                f,
                "migrate  {fn_id} -> warm {container} (ckpt {ckpt_id}, {chunks} chunks, {bytes} B delta)"
            ),
            TraceKind::MigrationFallback { fn_id } => {
                write!(f, "fallback {fn_id} migration found no usable ckpt")
            }
        }
    }
}

/// A recorded trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Events in simulation-time order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// All events concerning one function, in order.
    pub fn for_function(&self, fn_id: FnId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| match e.kind {
                TraceKind::AttemptStarted { fn_id: f, .. }
                | TraceKind::AttemptFailed { fn_id: f, .. }
                | TraceKind::FunctionCompleted { fn_id: f } => f == fn_id,
                _ => false,
            })
            .copied()
            .collect()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Render the trace (or its first `limit` lines) as text.
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        for e in self.events.iter().take(limit) {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        if self.events.len() > limit {
            out.push_str(&format!(
                "... ({} more events)\n",
                self.events.len() - limit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(SimTime::from_micros(us), kind)
    }

    #[test]
    fn per_function_filter() {
        let trace = Trace {
            events: vec![
                ev(1, TraceKind::JobSubmitted { job: JobId(0) }),
                ev(
                    2,
                    TraceKind::AttemptStarted {
                        fn_id: FnId(1),
                        attempt: 1,
                        node: NodeId(0),
                        warm: false,
                    },
                ),
                ev(
                    3,
                    TraceKind::AttemptFailed {
                        fn_id: FnId(1),
                        attempt: 1,
                        node: NodeId(0),
                    },
                ),
                ev(4, TraceKind::FunctionCompleted { fn_id: FnId(2) }),
            ],
        };
        let f1 = trace.for_function(FnId(1));
        assert_eq!(f1.len(), 2);
        assert!(matches!(f1[1].kind, TraceKind::AttemptFailed { .. }));
        assert_eq!(trace.for_function(FnId(9)).len(), 0);
    }

    #[test]
    fn render_truncates() {
        let trace = Trace {
            events: (0..10)
                .map(|i| ev(i, TraceKind::NodeFailed { node: NodeId(0) }))
                .collect(),
        };
        let s = trace.render(3);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("7 more events"));
    }

    #[test]
    fn display_formats() {
        let e = ev(
            1_500_000,
            TraceKind::AttemptStarted {
                fn_id: FnId(3),
                attempt: 2,
                node: NodeId(1),
                warm: true,
            },
        );
        let s = e.to_string();
        assert!(s.contains("fn3"));
        assert!(s.contains("warm resume"));
        assert!(s.contains("1.500s"));
    }

    /// Pin the rendered form of every variant: these lines are what
    /// operators read, and what doc examples and tests grep for.
    #[test]
    fn display_snapshot_for_every_variant() {
        let cases: Vec<(TraceKind, &str)> = vec![
            (TraceKind::JobArrived { job: JobId(0) }, "arrive   job0"),
            (TraceKind::JobSubmitted { job: JobId(0) }, "submit   job0"),
            (
                TraceKind::JobQueued { job: JobId(1) },
                "queue    job1 held by validator",
            ),
            (
                TraceKind::JobDequeued { job: JobId(1) },
                "dequeue  job1 released by validator",
            ),
            (
                TraceKind::JobRejected { job: JobId(2) },
                "REJECT   job2 by validator",
            ),
            (
                TraceKind::AttemptStarted {
                    fn_id: FnId(3),
                    attempt: 1,
                    node: NodeId(4),
                    warm: false,
                },
                "start    fn3 attempt 1 on node4",
            ),
            (
                TraceKind::AttemptStarted {
                    fn_id: FnId(3),
                    attempt: 2,
                    node: NodeId(5),
                    warm: true,
                },
                "start    fn3 attempt 2 on node5 (warm resume)",
            ),
            (
                TraceKind::AttemptFailed {
                    fn_id: FnId(3),
                    attempt: 1,
                    node: NodeId(4),
                },
                "FAIL     fn3 attempt 1 on node4",
            ),
            (
                TraceKind::FunctionCompleted { fn_id: FnId(3) },
                "complete fn3",
            ),
            (
                TraceKind::NodeFailed { node: NodeId(4) },
                "NODE     node4 crashed",
            ),
            (
                TraceKind::CheckpointWritten {
                    fn_id: FnId(3),
                    state: 7,
                    bytes: 4096,
                    tier: StorageTier::Ramdisk,
                    cost: SimDuration::ZERO,
                },
                "ckpt     fn3 state 7 (4096 B to Ramdisk)",
            ),
            (
                TraceKind::CheckpointRestored {
                    fn_id: FnId(3),
                    state: 7,
                    bytes: 4096,
                    tier: StorageTier::Nfs,
                },
                "restore  fn3 from state 7 (4096 B from Nfs)",
            ),
            (
                TraceKind::WarmPoolSpawned {
                    container: ContainerId(9),
                    node: NodeId(2),
                },
                "replica  ctr9 spawning on node2",
            ),
            (
                TraceKind::WarmPoolReady {
                    container: ContainerId(9),
                },
                "replica  ctr9 warm",
            ),
            (
                TraceKind::ReplicaConsumed {
                    container: ContainerId(9),
                    fn_id: FnId(3),
                },
                "consume  ctr9 by fn3",
            ),
            (
                TraceKind::ReplicaRefreshed {
                    spawned: 2,
                    reclaimed: 1,
                },
                "refresh  pool +2 -1",
            ),
            (
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(3),
                    target: RecoveryTarget::FreshContainer,
                    detect: SimDuration::from_millis(500),
                    restore: SimDuration::from_millis(25),
                },
                "plan     fn3 -> fresh container (detect 0.500s, restore 0.025s)",
            ),
            (
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(3),
                    target: RecoveryTarget::WarmContainer(ContainerId(9)),
                    detect: SimDuration::from_millis(500),
                    restore: SimDuration::from_millis(25),
                },
                "plan     fn3 -> warm ctr9 (detect 0.500s, restore 0.025s)",
            ),
            (
                TraceKind::PartitionStarted {
                    a: NodeId(0),
                    b: NodeId(3),
                },
                "NET      node0 -x- node3 partitioned",
            ),
            (
                TraceKind::PartitionHealed {
                    a: NodeId(0),
                    b: NodeId(3),
                },
                "net      node0 --- node3 healed",
            ),
            (
                TraceKind::NetworkDegraded { pct: 250 },
                "NET      degraded (250% slowdown)",
            ),
            (TraceKind::NetworkRestored, "net      restored"),
            (
                TraceKind::StoreOutage { member: 1 },
                "STORE    member 1 down",
            ),
            (
                TraceKind::StoreRejoined { member: 1 },
                "store    member 1 rejoined",
            ),
            (
                TraceKind::StragglerInjected {
                    fn_id: FnId(3),
                    attempt: 2,
                    pct: 400,
                },
                "straggle fn3 attempt 2 (400% slowdown)",
            ),
            (
                TraceKind::CheckpointCorrupted {
                    fn_id: FnId(3),
                    ckpt_id: 7,
                },
                "CORRUPT  fn3 ckpt 7 unreadable",
            ),
            (
                TraceKind::CheckpointSkipped {
                    fn_id: FnId(3),
                    state: 7,
                },
                "ckpt     fn3 state 7 SKIPPED (store down)",
            ),
            (
                TraceKind::RestoreFallback {
                    fn_id: FnId(3),
                    state: 2,
                },
                "fallback fn3 to state 2",
            ),
            (
                TraceKind::RestoreFallback {
                    fn_id: FnId(3),
                    state: 0,
                },
                "fallback fn3 rerun from start",
            ),
            (
                TraceKind::ControllerCrashed,
                "CTRL     control plane crashed (metadata lost)",
            ),
            (
                TraceKind::ControllerRecovered {
                    snapshot: 12,
                    replayed: 34,
                    torn: false,
                },
                "ctrl     recovered from WAL: 12 snapshot rows + 34 records",
            ),
            (
                TraceKind::ControllerRecovered {
                    snapshot: 12,
                    replayed: 34,
                    torn: true,
                },
                "ctrl     recovered from WAL: 12 snapshot rows + 34 records (torn tail discarded)",
            ),
            (
                TraceKind::MigrationPlanned {
                    fn_id: FnId(3),
                    container: ContainerId(9),
                    ckpt_id: 7,
                    chunks: 4,
                    bytes: 256,
                },
                "migrate  fn3 -> warm ctr9 (ckpt 7, 4 chunks, 256 B delta)",
            ),
            (
                TraceKind::MigrationFallback { fn_id: FnId(3) },
                "fallback fn3 migration found no usable ckpt",
            ),
        ];
        // The fixture covers every row of the schema table.
        for name in TraceKind::NAMES {
            assert!(
                cases.iter().any(|(kind, _)| kind.name() == *name),
                "no display snapshot for {name}"
            );
        }
        for (kind, expect) in cases {
            let line = ev(2_000_000, kind).to_string();
            assert_eq!(
                line,
                format!("[{:>10}] {expect}", "2.000s"),
                "snapshot mismatch for {kind:?}"
            );
        }
    }

    #[test]
    fn count_predicate() {
        let trace = Trace {
            events: vec![
                ev(1, TraceKind::NodeFailed { node: NodeId(0) }),
                ev(2, TraceKind::NodeFailed { node: NodeId(1) }),
                ev(3, TraceKind::FunctionCompleted { fn_id: FnId(0) }),
            ],
        };
        assert_eq!(
            trace.count(|k| matches!(k, TraceKind::NodeFailed { .. })),
            2
        );
    }
}
