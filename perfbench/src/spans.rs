//! Layer spans: wall-clock intervals recorded from outside the program,
//! around each call the benchmark makes (or the engine makes through the
//! timing adapter) into one layer.
//!
//! The measured step is the root. Every span records its group, the
//! function or job id it concerns, its start and end relative to the step
//! start, its parent (the step, or an enclosing span), and its self time
//! and self allocations: duration and main-thread allocations minus those
//! of its child spans. The step's own self time is the engine's, so the
//! engine plus every group's self time tiles the step exactly.

use crate::alloc;
use std::time::Instant;

/// The groups spans are charged to, named after the modules they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Group {
    /// `on_state_durable`: the checkpoint write path.
    Ckpt,
    /// `state_overhead` and `attempt_clones`: attempt planning queries.
    Plan,
    /// `on_function_complete`, `on_run_end` and `name`.
    Complete,
    /// `on_job_arrival` and `on_job_admitted`.
    Admit,
    /// `on_failure`, `on_containers_lost` and `on_chaos`.
    Recover,
    /// `on_replica_warm`.
    Replica,
    /// `trace_to_jsonl` over the run's trace.
    Emit,
    /// `trace_from_jsonl` over the emitted JSONL.
    Parse,
    /// `critical_paths` over the parsed trace.
    Blame,
}

impl Group {
    /// Every group, in report order.
    pub const ALL: [Group; 9] = [
        Group::Ckpt,
        Group::Plan,
        Group::Complete,
        Group::Admit,
        Group::Recover,
        Group::Replica,
        Group::Emit,
        Group::Parse,
        Group::Blame,
    ];

    /// Layer name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Group::Ckpt => "core.ckpt",
            Group::Plan => "core.plan",
            Group::Complete => "core.complete",
            Group::Admit => "core.admit",
            Group::Recover => "core.recover",
            Group::Replica => "core.replica",
            Group::Emit => "export.emit",
            Group::Parse => "export.parse",
            Group::Blame => "causal.blame",
        }
    }
}

/// Parent index of a span whose parent is the step itself.
pub const STEP_PARENT: u32 = u32::MAX;

/// Id of a span whose call concerns no single function or job.
pub const NO_ID: u64 = u64::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Function id, job id, or [`NO_ID`].
    pub id: u64,
    /// Start, nanoseconds after the step start.
    pub start_ns: u64,
    /// End, nanoseconds after the step start.
    pub end_ns: u64,
    /// Duration minus the durations of direct child spans.
    pub self_ns: u64,
    /// Main-thread allocations inside the span minus its children's.
    pub self_allocs: u32,
    /// Index of the enclosing span, or [`STEP_PARENT`].
    pub parent: u32,
    /// Group the span is charged to.
    pub group: Group,
}

struct Open {
    index: usize,
    allocs_at_start: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// In-memory span recorder for one step.
pub struct Recorder {
    epoch: Instant,
    allocs_at_start: u64,
    spans: Vec<Span>,
    stack: Vec<Open>,
    /// Allocations the recorder itself made while the step ran (span
    /// buffer growth); they are taken out of the engine's share.
    own_allocs: u64,
    /// Durations of `on_chaos` calls that handled a controller crash.
    ctrl_ns: Vec<u64>,
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[must_use]
pub struct Entered(usize);

impl Recorder {
    /// A recorder with room for `capacity` spans before it must grow.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            allocs_at_start: alloc::local(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            own_allocs: 0,
            ctrl_ns: Vec::with_capacity(64),
        }
    }

    /// Restart the clock and allocation baseline: the step starts now.
    pub fn start(&mut self) {
        self.allocs_at_start = alloc::local();
        self.epoch = Instant::now();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span of `group` about `id`.
    pub fn enter(&mut self, group: Group, id: u64) -> Entered {
        if self.spans.len() == self.spans.capacity() {
            let before = alloc::local();
            self.spans.reserve(self.spans.capacity().max(1024));
            let grown = alloc::local() - before;
            self.own_allocs += grown;
            // Keep the growth out of the enclosing span's self count too.
            if let Some(parent) = self.stack.last_mut() {
                parent.child_allocs += grown;
            }
        }
        let parent = self.stack.last().map_or(STEP_PARENT, |o| o.index as u32);
        let index = self.spans.len();
        self.spans.push(Span {
            id,
            start_ns: 0,
            end_ns: 0,
            self_ns: 0,
            self_allocs: 0,
            parent,
            group,
        });
        self.stack.push(Open {
            index,
            allocs_at_start: alloc::local(),
            child_ns: 0,
            child_allocs: 0,
        });
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[index].start_ns = self.now_ns();
        Entered(index)
    }

    /// Close the innermost span, which must be `entered`.
    pub fn exit(&mut self, entered: Entered) {
        let end_ns = self.now_ns();
        let allocs_now = alloc::local();
        let open = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(open.index, entered.0, "spans must close innermost-first");
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        let allocs = allocs_now - open.allocs_at_start;
        span.self_ns = dur - open.child_ns.min(dur);
        span.self_allocs = allocs.saturating_sub(open.child_allocs) as u32;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += allocs;
        }
    }

    /// Note that the span just closed handled a controller crash.
    pub fn note_controller_crash(&mut self) {
        if let Some(s) = self.spans.last() {
            self.ctrl_ns.push(s.end_ns - s.start_ns);
        }
    }

    /// Close the step: the table of self times, plus the spans.
    pub fn finish(&mut self) -> StepProfile {
        let wall_ns = self.now_ns();
        let step_allocs = alloc::local() - self.allocs_at_start;
        assert!(self.stack.is_empty(), "a span was left open");
        StepProfile {
            wall_ns,
            step_allocs: step_allocs.saturating_sub(self.own_allocs),
            spans: std::mem::take(&mut self.spans),
            ctrl_ns: std::mem::take(&mut self.ctrl_ns),
        }
    }
}

/// The spans of one finished step.
pub struct StepProfile {
    /// Step wall time.
    pub wall_ns: u64,
    /// Main-thread allocations over the step, recorder growth excluded.
    pub step_allocs: u64,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Controller-crash `on_chaos` durations.
    pub ctrl_ns: Vec<u64>,
}

/// Per-group totals derived from a [`StepProfile`].
#[derive(Debug, Clone, Default)]
pub struct GroupStats {
    /// Spans recorded.
    pub calls: u64,
    /// Σ self time.
    pub self_ns: u64,
    /// Σ self allocations.
    pub self_allocs: u64,
    /// Span durations (not self times), sorted ascending.
    pub durations_ns: Vec<u64>,
}

impl GroupStats {
    /// Duration percentile in microseconds (nearest rank); 0 with no spans.
    pub fn us_percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.durations_ns, p) / 1e3
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

impl StepProfile {
    /// Per-group statistics, indexed like [`Group::ALL`].
    pub fn groups(&self) -> Vec<GroupStats> {
        let mut out = vec![GroupStats::default(); Group::ALL.len()];
        for s in &self.spans {
            let g = &mut out[s.group as usize];
            g.calls += 1;
            g.self_ns += s.self_ns;
            g.self_allocs += s.self_allocs as u64;
            g.durations_ns.push(s.end_ns - s.start_ns);
        }
        for g in &mut out {
            g.durations_ns.sort_unstable();
        }
        out
    }

    /// Time of spans whose parent is the step (their children included).
    fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == STEP_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Engine self time: step wall time minus top-level spans.
    pub fn engine_self_ns(&self) -> u64 {
        self.wall_ns - self.top_level_ns().min(self.wall_ns)
    }

    /// Engine allocations: step allocations minus those inside spans.
    pub fn engine_allocs(&self) -> u64 {
        let in_spans: u64 = self.spans.iter().map(|s| s.self_allocs as u64).sum();
        self.step_allocs.saturating_sub(in_spans)
    }

    /// Check that the spans nest inside the step and one another, and that
    /// engine self time plus every group's self time equals the step's
    /// wall time. Returns a description of the first violation.
    pub fn check_tiling(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns || s.end_ns > self.wall_ns {
                return Err(format!(
                    "span {i} ({}) lies outside the step",
                    s.group.name()
                ));
            }
            if s.parent != STEP_PARENT {
                let p = &self.spans[s.parent as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!("span {i} escapes its parent {}", s.parent));
                }
            }
        }
        if self.top_level_ns() > self.wall_ns {
            return Err("top-level spans overlap".into());
        }
        let groups: u64 = self.spans.iter().map(|s| s.self_ns).sum();
        let tiled = groups + self.engine_self_ns();
        if tiled != self.wall_ns {
            return Err(format!(
                "self times sum to {tiled} ns, step wall time is {} ns",
                self.wall_ns
            ));
        }
        Ok(())
    }

    /// Serialize the spans compactly: the magic `PBSPANS2`, then LEB128
    /// varints — the span count and the step wall time in ns, then per span
    /// its group (index into [`Group::ALL`]), `parent + 1` (0 for the
    /// step), `id + 1` (0 for [`NO_ID`]), start minus the previous span's
    /// start, duration, self time and self allocations.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.spans.len() * 12);
        out.extend_from_slice(b"PBSPANS2");
        put_varint(&mut out, self.spans.len() as u64);
        put_varint(&mut out, self.wall_ns);
        let mut prev_start = 0;
        for s in &self.spans {
            put_varint(&mut out, s.group as u64);
            put_varint(&mut out, s.parent.wrapping_add(1) as u64);
            put_varint(&mut out, s.id.wrapping_add(1));
            put_varint(&mut out, s.start_ns - prev_start);
            put_varint(&mut out, s.end_ns - s.start_ns);
            put_varint(&mut out, s.self_ns);
            put_varint(&mut out, s.self_allocs as u64);
            prev_start = s.start_ns;
        }
        out
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_tile_the_step() {
        let mut r = Recorder::with_capacity(1);
        let a = r.enter(Group::Ckpt, 1);
        let b = r.enter(Group::Plan, 2);
        let _v: Vec<u8> = Vec::with_capacity(std::hint::black_box(64));
        r.exit(b);
        r.exit(a);
        let c = r.enter(Group::Complete, 3);
        r.exit(c);
        let p = r.finish();
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.spans[1].parent, 0);
        assert_eq!(p.spans[1].self_allocs, 1);
        assert_eq!(p.spans[0].self_allocs, 0);
        p.check_tiling().expect("tiles");
        let g = p.groups();
        assert_eq!(g[Group::Plan as usize].calls, 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }
}
