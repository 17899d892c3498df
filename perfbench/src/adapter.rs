//! The timing adapter: an [`FtStrategy`] that forwards every hook to the
//! strategy under test and records one layer span around each call.

use crate::spans::{Group, Recorder, NO_ID};
use canary_cluster::FaultEvent;
use canary_container::ContainerId;
use canary_platform::{
    ArrivalVerdict, FailureInfo, FnId, FtStrategy, JobId, Platform, RecoveryPlan,
};
use canary_sim::{SimDuration, SimTime};
use std::cell::RefCell;

/// Wraps `inner`, timing each hook into the recorder. The recorder sits in
/// a `RefCell` because the engine calls the planning hooks through `&self`;
/// it is borrowed only around the clock reads, never across the forwarded
/// call.
pub struct Timed<'a> {
    inner: &'a mut dyn FtStrategy,
    rec: RefCell<Recorder>,
}

impl<'a> Timed<'a> {
    /// Time `inner`'s hooks into `rec`. The step starts when this returns.
    pub fn new(inner: &'a mut dyn FtStrategy, mut rec: Recorder) -> Self {
        rec.start();
        Timed {
            inner,
            rec: RefCell::new(rec),
        }
    }

    /// The recorder, for closing the step after the run returns.
    pub fn into_recorder(self) -> Recorder {
        self.rec.into_inner()
    }
}

fn timed<R>(rec: &RefCell<Recorder>, group: Group, id: u64, call: impl FnOnce() -> R) -> R {
    let entered = rec.borrow_mut().enter(group, id);
    let out = call();
    rec.borrow_mut().exit(entered);
    out
}

impl FtStrategy for Timed<'_> {
    fn name(&self) -> String {
        timed(&self.rec, Group::Complete, NO_ID, || self.inner.name())
    }

    fn on_job_arrival(&mut self, platform: &mut Platform, job: JobId) -> ArrivalVerdict {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Admit, job.0 as u64, || {
            inner.on_job_arrival(platform, job)
        })
    }

    fn on_job_admitted(&mut self, platform: &mut Platform, job: JobId) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Admit, job.0 as u64, || {
            inner.on_job_admitted(platform, job)
        })
    }

    fn attempt_clones(&self, platform: &Platform, fn_id: FnId) -> u32 {
        timed(&self.rec, Group::Plan, fn_id.0, || {
            self.inner.attempt_clones(platform, fn_id)
        })
    }

    fn state_overhead(&self, platform: &Platform, fn_id: FnId, state_idx: u32) -> SimDuration {
        timed(&self.rec, Group::Plan, fn_id.0, || {
            self.inner.state_overhead(platform, fn_id, state_idx)
        })
    }

    fn on_state_durable(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        state_idx: u32,
        at: SimTime,
    ) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Ckpt, fn_id.0, || {
            inner.on_state_durable(platform, fn_id, state_idx, at)
        })
    }

    fn on_failure(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        failure: FailureInfo,
    ) -> RecoveryPlan {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Recover, fn_id.0, || {
            inner.on_failure(platform, fn_id, failure)
        })
    }

    fn on_chaos(&mut self, platform: &mut Platform, fault: &FaultEvent) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Recover, NO_ID, || {
            inner.on_chaos(platform, fault)
        });
        if matches!(fault, FaultEvent::ControllerCrash) {
            self.rec.borrow_mut().note_controller_crash();
        }
    }

    fn on_replica_warm(&mut self, platform: &mut Platform, container: ContainerId) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Replica, NO_ID, || {
            inner.on_replica_warm(platform, container)
        })
    }

    fn on_containers_lost(&mut self, platform: &mut Platform, lost: &[ContainerId]) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Recover, NO_ID, || {
            inner.on_containers_lost(platform, lost)
        })
    }

    fn on_function_complete(&mut self, platform: &mut Platform, fn_id: FnId) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Complete, fn_id.0, || {
            inner.on_function_complete(platform, fn_id)
        })
    }

    fn on_run_end(&mut self, platform: &mut Platform) {
        let inner = &mut *self.inner;
        timed(&self.rec, Group::Complete, NO_ID, || {
            inner.on_run_end(platform)
        })
    }
}
