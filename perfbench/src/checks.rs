//! Correctness checks on a step's outputs. Each returns a description of
//! the first violation it finds.

use crate::workloads::StepOut;
use bytes::Bytes;
use canary_core::{fnv1a64, CanaryStrategy};
use canary_experiments::trace_to_jsonl;
use canary_platform::RunResult;
use std::time::Instant;

/// FNV-1a digest of the run's outcome: every function's id, job,
/// completion time, failures and attempts, then every `RunCounters` field.
pub fn outcome_digest(result: &RunResult) -> u64 {
    let mut bytes = Vec::with_capacity(result.fns.len() * 32 + 512);
    for f in &result.fns {
        bytes.extend_from_slice(&f.id.0.to_le_bytes());
        bytes.extend_from_slice(&f.job.0.to_le_bytes());
        bytes.extend_from_slice(&f.completed_at.as_micros().to_le_bytes());
        bytes.extend_from_slice(&f.failures.to_le_bytes());
        bytes.extend_from_slice(&f.attempts.to_le_bytes());
    }
    bytes.extend_from_slice(format!("{:?}", result.counters).as_bytes());
    fnv1a64(&bytes)
}

/// Every submitted function either completed, once, after it launched, or
/// belongs to a rejected job (and is then counted as failed).
pub fn check_completion(result: &RunResult, submitted: u64) -> Result<(), String> {
    let rejected_fns = submitted.saturating_sub(result.fns.len() as u64);
    let rejected_jobs = result.jobs.iter().filter(|j| j.rejected).count() as u64;
    if result.fns.len() as u64 > submitted {
        return Err(format!(
            "{} functions completed but only {submitted} were submitted",
            result.fns.len()
        ));
    }
    if rejected_fns > 0 && rejected_jobs == 0 {
        return Err(format!(
            "{rejected_fns} functions neither completed nor were rejected"
        ));
    }
    for pair in result.fns.windows(2) {
        if pair[0].id.0 >= pair[1].id.0 {
            return Err(format!(
                "function {} reported twice or out of order",
                pair[1].id.0
            ));
        }
    }
    if let Some(f) = result.fns.iter().find(|f| f.completed_at < f.first_launch) {
        return Err(format!("function {} completed before it launched", f.id.0));
    }
    Ok(())
}

/// After the step no checkpoint chunk may stay live: every completed
/// function released its chain.
pub fn check_chunks_released(canary: &CanaryStrategy) -> Result<(), String> {
    let ckpt = canary.checkpointing();
    let store = ckpt.chunk_store();
    if !store.is_empty() || store.total_refs() != 0 || ckpt.retained_entry_count() != 0 {
        return Err(format!(
            "chunk store not empty after the step: {} chunks, {} refs, {} retained manifest entries",
            store.len(),
            store.total_refs(),
            ckpt.retained_entry_count()
        ));
    }
    Ok(())
}

fn kv_image(canary: &CanaryStrategy) -> Result<Vec<(Bytes, Bytes)>, String> {
    let kv = canary.db().kv();
    kv.keys_in_range(&[], None)
        .into_iter()
        .map(|k| {
            let v = kv
                .get(&k)
                .map_err(|e| format!("listed key unreadable: {e}"))?;
            Ok((k, v))
        })
        .collect()
}

/// Crash the control plane after the step and recover it from the final
/// WAL image: the store must come back with exactly the live key/value
/// set. Returns the replay's wall time in nanoseconds.
pub fn check_wal_replay(canary: &CanaryStrategy) -> Result<u64, String> {
    let before = kv_image(canary)?;
    let t = Instant::now();
    canary
        .db()
        .crash_and_recover()
        .map_err(|e| format!("WAL recovery failed: {e}"))?;
    let replay_ns = t.elapsed().as_nanos() as u64;
    let after = kv_image(canary)?;
    if before != after {
        return Err(format!(
            "WAL replay gave {} entries, the live store held {}",
            after.len(),
            before.len()
        ));
    }
    Ok(replay_ns)
}

/// trace-inspect: the parsed JSONL must re-encode byte for byte.
pub fn check_reencode(out: &StepOut) -> Result<(), String> {
    let Some(ins) = &out.inspected else {
        return Ok(());
    };
    if ins.parsed.events.len() != out.result.trace.events.len() {
        return Err(format!(
            "parsed {} trace events, the run recorded {}",
            ins.parsed.events.len(),
            out.result.trace.events.len()
        ));
    }
    if trace_to_jsonl(&ins.parsed) != ins.jsonl {
        return Err("parsed JSONL does not re-encode byte-identically".into());
    }
    Ok(())
}
