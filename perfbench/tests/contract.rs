//! The benchmark's own tests, at reduced input sizes: every metric listed
//! in `BENCHMARK.json` is printed for every workload, and a broken
//! strategy wrapper is caught by the correctness checks.

use canary_cluster::FaultEvent;
use canary_container::ContainerId;
use canary_perfbench::checks;
use canary_perfbench::workloads::{prepare, step, Sizes, Workload};
use canary_platform::{
    ArrivalVerdict, FailureInfo, FnId, FtStrategy, JobId, Platform, RecoveryPlan,
};
use canary_sim::{SimDuration, SimTime};
use std::process::Command;

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`. The file keeps one metric object per line.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| l.trim().strip_prefix("{\"name\": \""))
        .map(|l| l[..l.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Keys of the `metrics` object in the result line.
fn printed(result_line: &str) -> Vec<String> {
    let metrics = &result_line[result_line.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
    // Every chunk but the last ends with the name of the metric after it.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.rsplit_once('"').expect("quoted name").1.to_string())
        .collect()
}

fn run_bench(workload: &str, trace: u8) -> String {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    let out = Command::new(env!("CARGO_BIN_EXE_canary-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.05"])
        .args(["--trace", &trace.to_string(), "--scale", "0.02"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_listed_metric_is_printed_for_every_workload() {
    let sections = [(0u8, listed("end_to_end")), (1u8, listed("per_layer"))];
    assert!(sections[0].1.contains(&"setup_s".to_string()));
    for w in Workload::ALL {
        for (trace, names) in &sections {
            let line = run_bench(w.name(), *trace);
            assert!(
                line.starts_with("{\"correct\": true"),
                "{}: {line}",
                w.name()
            );
            assert_eq!(&printed(&line), names, "{} --trace {trace}", w.name());
        }
    }
}

/// Forwards every hook to the strategy under test except the first
/// `on_function_complete`, which it swallows.
struct SwallowOneCompletion<'a> {
    inner: &'a mut dyn FtStrategy,
    swallowed: bool,
}

impl FtStrategy for SwallowOneCompletion<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_job_arrival(&mut self, p: &mut Platform, job: JobId) -> ArrivalVerdict {
        self.inner.on_job_arrival(p, job)
    }
    fn on_job_admitted(&mut self, p: &mut Platform, job: JobId) {
        self.inner.on_job_admitted(p, job)
    }
    fn attempt_clones(&self, p: &Platform, fn_id: FnId) -> u32 {
        self.inner.attempt_clones(p, fn_id)
    }
    fn state_overhead(&self, p: &Platform, fn_id: FnId, state: u32) -> SimDuration {
        self.inner.state_overhead(p, fn_id, state)
    }
    fn on_state_durable(&mut self, p: &mut Platform, fn_id: FnId, state: u32, at: SimTime) {
        self.inner.on_state_durable(p, fn_id, state, at)
    }
    fn on_failure(&mut self, p: &mut Platform, fn_id: FnId, f: FailureInfo) -> RecoveryPlan {
        self.inner.on_failure(p, fn_id, f)
    }
    fn on_chaos(&mut self, p: &mut Platform, fault: &FaultEvent) {
        self.inner.on_chaos(p, fault)
    }
    fn on_replica_warm(&mut self, p: &mut Platform, c: ContainerId) {
        self.inner.on_replica_warm(p, c)
    }
    fn on_containers_lost(&mut self, p: &mut Platform, lost: &[ContainerId]) {
        self.inner.on_containers_lost(p, lost)
    }
    fn on_function_complete(&mut self, p: &mut Platform, fn_id: FnId) {
        if !std::mem::replace(&mut self.swallowed, true) {
            return;
        }
        self.inner.on_function_complete(p, fn_id)
    }
    fn on_run_end(&mut self, p: &mut Platform) {
        self.inner.on_run_end(p)
    }
}

#[test]
fn swallowed_completion_fails_the_chunk_store_check() {
    let sizes = Sizes::scaled(0.02);
    for broken in [false, true] {
        let mut prepared = prepare(Workload::CkptSteady, &sizes, 7);
        let inner = prepared.strategy.as_dyn();
        let mut wrapper = SwallowOneCompletion {
            inner,
            swallowed: !broken,
        };
        let out = step(
            Workload::CkptSteady,
            prepared.config,
            prepared.specs,
            &mut wrapper,
            None,
        );
        assert_eq!(out.result.fns.len() as u64, prepared.submitted);
        let canary = prepared
            .strategy
            .canary()
            .expect("ckpt-steady drives Canary");
        let verdict = checks::check_chunks_released(canary);
        assert_eq!(verdict.is_err(), broken, "{verdict:?}");
    }
}
