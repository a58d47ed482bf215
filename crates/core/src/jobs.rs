//! Multi-job residency: a table of concurrently-resident kernels, each bound
//! to a disjoint cluster subset of one shared machine — and the simulation
//! driver every run goes through.
//!
//! A [`JobTable`] is a *session*: the machine stays up, jobs are admitted
//! onto free cluster slots while others are still running, and every job
//! retires with its own [`SimReport`] sliced out of the shared counters via
//! the residency-window attribution deltas that
//! [`virgo_mem::MemoryBackend::attribution`] and
//! [`virgo_mem::DsmFabric::attribution`] expose. Cross-job contention on the
//! shared L2/DRAM back-end is modelled for free: resident jobs issue into
//! the same [`virgo_mem::MemoryBackend`], so one tenant's DRAM traffic
//! lengthens another's latency exactly as on real hardware. A standalone
//! [`crate::run::Gpu::run`] is a one-job session on every cluster.
//!
//! The session advances time in one of two ways:
//!
//! * [`SimMode::Naive`] ticks the whole machine once per cycle — the
//!   reference loop.
//! * [`SimMode::FastForward`] runs a deterministic event queue over every
//!   component (the DSM fabric, each cluster's devices, each SIMT core).
//!   The queue persists across [`JobTable::advance_until`] calls, so
//!   components of one job stay parked mid-gap while another is admitted or
//!   retires.
//!
//! # Equivalence guarantees
//!
//! * **Single job ≡ standalone.** A job admitted at cycle 0 onto every
//!   cluster of an otherwise-idle table is exactly what
//!   [`crate::run::Gpu::run`] simulates, so both produce the byte-identical
//!   [`SimReport`], scheduler counters included.
//! * **Sequential ≡ standalone.** A job admitted onto an idle table gets a
//!   shared back-end and fabric rebuilt cold, so the i-th job of a
//!   back-to-back sequence sees exactly the cold caches of an i-th
//!   standalone run. All
//!   component timing is relative to request start (`busy_until`
//!   arithmetic), so the admission offset shifts nothing.
//! * **Naive ≡ fast-forward.** Components due at the same cycle are
//!   dispatched in the naive loop's tick order, and a component's parked gap
//!   is bulk-replayed before its next tick (or before its job's report or
//!   timeout diagnosis is built). By the `virgo_sim::activity` contract that
//!   gap holds only time-uniform stall/idle accounting, so every
//!   architectural statistic stays bit-identical. Slots no job owns hold the
//!   empty kernel, whose ticks touch nothing shared, so the driver never
//!   schedules them.

use virgo_isa::{Kernel, KernelInfo};
use virgo_mem::{BackendAttribution, DsmFabric, FabricAttribution};
use virgo_sim::{Cycle, EventQueue, NextActivity};

use crate::config::GpuConfig;
use crate::machine::Machine;
use crate::report::{JobView, SchedStats, SimReport};
use crate::run::{SimError, SimMode, WatchdogVerdict};

/// Identifier of a job admitted to a [`JobTable`], unique within the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// The raw session-unique index (admission order).
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A retired (or timed-out) job, handed back by [`JobTable::advance_until`]
/// at the exact cycle the job left the machine.
#[derive(Debug)]
pub struct JobCompletion {
    /// The job's session-unique id.
    pub id: JobId,
    /// The name given at admission (e.g. `"tenant-a/req3"`).
    pub name: String,
    /// The cluster slots the job owned, in ascending order.
    pub clusters: Vec<u32>,
    /// Absolute session cycle the job was admitted.
    pub admitted: u64,
    /// Absolute session cycle the job retired or timed out.
    pub retired: u64,
    /// The job's report, or [`SimError::Timeout`] with a diagnosis naming
    /// this job if its cycle budget ran out.
    pub result: Result<SimReport, SimError>,
}

impl JobCompletion {
    /// The job's residency duration in cycles.
    pub fn residency(&self) -> u64 {
        self.retired - self.admitted
    }
}

/// One resident job: a kernel bound to its cluster subset, plus the
/// admission-time snapshots its retirement report is sliced against.
#[derive(Debug)]
struct ResidentJob {
    id: JobId,
    name: String,
    info: KernelInfo,
    clusters: Vec<u32>,
    admitted: u64,
    budget: u64,
    backend_base: BackendAttribution,
    fabric_base: FabricAttribution,
    sched_base: SchedStats,
    /// Instructions retired on the job's clusters at its half-budget
    /// checkpoint — the per-job livelock detector.
    watchdog_sample: Option<u64>,
}

impl ResidentJob {
    fn deadline(&self) -> u64 {
        self.admitted.saturating_add(self.budget)
    }

    fn watchdog_at(&self) -> u64 {
        self.admitted + self.budget / 2
    }
}

/// The first cycle after the session clock at which a check that no event
/// signals is due: `target`, a resident deadline, or an unsampled watchdog
/// checkpoint (so the sample reflects exactly the cycles before it).
fn next_check(jobs: &[ResidentJob], target: u64) -> u64 {
    jobs.iter().fold(target, |stop, job| {
        let stop = stop.min(job.deadline());
        match job.watchdog_sample {
            None => stop.min(job.watchdog_at()),
            Some(_) => stop,
        }
    })
}

/// Component id of the DSM fabric; cluster `k`'s devices are
/// `1 + k * span` and its cores follow them.
const FABRIC: usize = 0;

/// The [`SimMode::FastForward`] driver's event-queue state.
///
/// Components are identified by dense ids in the naive loop's tick order,
/// and all components due at a cycle are processed in ascending id order, so
/// execution visits components in exactly the reference sequence.
/// `synced[id]` is the first cycle a component has not yet accounted; the
/// gap up to the dispatched cycle is bulk-replayed (`fast_forward_*`) before
/// the tick.
///
/// Wakes between components are edge-triggered off monotone signatures:
///
/// * a barrier release during core `i`'s tick re-dispatches later cores
///   the same cycle and earlier ones the next cycle (naive timing);
/// * a submission into the devices (`inbox_mark`) wakes the devices next
///   cycle — they tick before the cores, so a same-cycle wake would run
///   too early;
/// * an async completion during a devices tick re-dispatches that
///   cluster's cores the same cycle (they tick after the devices);
/// * new DSM traffic registers the fabric at its next delivery cycle.
#[derive(Debug)]
struct EventDriver {
    queue: EventQueue,
    /// First cycle each component has not yet accounted.
    synced: Vec<u64>,
    /// Components due at the cycle being dispatched.
    due: Vec<bool>,
    /// Components due at the session's current cycle: the common "due again
    /// next cycle" case as a bool per component instead of a heap
    /// round-trip. `any_next` is true iff any flag is set.
    due_next: Vec<bool>,
    any_next: bool,
    /// Components per cluster: the devices, then each core.
    span: usize,
    /// Something that can retire a job happened since the last retirement
    /// check: a warp retiring, a device or fabric tick (engines draining),
    /// a core horizon going dormant, or an admission.
    check_finish: bool,
    stats: SchedStats,
}

impl EventDriver {
    fn new(config: &GpuConfig) -> Self {
        let span = 1 + config.cores as usize;
        let total = 1 + config.clusters.max(1) as usize * span;
        EventDriver {
            queue: EventQueue::new(total),
            synced: vec![0; total],
            due: vec![false; total],
            due_next: vec![false; total],
            any_next: false,
            span,
            check_finish: false,
            stats: SchedStats::default(),
        }
    }

    /// The component ids of cluster slot `k`: its devices, then each core.
    fn slot(&self, k: u32) -> std::ops::Range<usize> {
        let base = 1 + k as usize * self.span;
        base..base + self.span
    }

    /// Registers component `id` for cycle `t`: through `due_next` when that
    /// is the cycle after `now`'s dispatch (`next`) or earlier, through the
    /// heap otherwise.
    fn wake(&mut self, id: usize, t: Cycle, next: Cycle) {
        if t <= next {
            self.due_next[id] = true;
            self.any_next = true;
        } else {
            self.queue.schedule(id as u32, t);
        }
    }

    fn wake_fabric(&mut self, fabric: &DsmFabric, now: Cycle, next: Cycle) {
        if let Some(t) = fabric.next_activity(now) {
            self.wake(FABRIC, t, next);
        }
    }

    /// Schedules every component of freshly loaded cluster slots at the
    /// slot's release from reset. Late-started clusters (fault windows) hold
    /// everything in reset until `start_at`; neither mode accounts the held
    /// cycles.
    fn load(&mut self, machine: &Machine, ids: &[u32]) {
        for &k in ids {
            let start = machine.clusters[k as usize].start_at();
            for id in self.slot(k) {
                self.synced[id] = start;
                self.queue.schedule(id as u32, Cycle::new(start));
            }
        }
        self.check_finish = true;
    }

    /// Forgets every pending wake of the cluster slots in `ids` (and of the
    /// fabric, when `fabric` is set) because their components are being
    /// replaced.
    fn unload(&mut self, ids: &[u32], fabric: bool) {
        for &k in ids {
            self.forget(self.slot(k));
        }
        if fabric {
            self.forget(FABRIC..FABRIC + 1);
        }
        self.any_next = self.due_next.contains(&true);
    }

    fn forget(&mut self, ids: std::ops::Range<usize>) {
        self.queue.cancel(ids.start as u32..ids.end as u32);
        self.due_next[ids].fill(false);
    }

    /// Bulk-replays the parked tail of every component on the cluster slots
    /// in `ids` up to `until` — exactly the ticks the naive loop performed
    /// while they sat in the queue.
    fn replay(&mut self, machine: &mut Machine, ids: &[u32], until: u64) {
        for &k in ids {
            let cluster = &mut machine.clusters[k as usize];
            for (off, id) in self.slot(k).enumerate() {
                let lag = until.saturating_sub(self.synced[id]);
                if lag == 0 {
                    continue;
                }
                let from = Cycle::new(self.synced[id]);
                if off == 0 {
                    cluster.fast_forward_devices(from, lag);
                } else {
                    cluster.fast_forward_core(off - 1, from, lag);
                }
                self.synced[id] = until;
            }
        }
    }

    /// Dispatches events from `*now` on until one of them can retire a job,
    /// or jumps the clock to `limit` once the next event lies at or past it
    /// (a drained queue — a deadlock — jumps straight there).
    fn advance(&mut self, machine: &mut Machine, now: &mut u64, limit: u64) {
        loop {
            let next = if self.any_next {
                Some(*now)
            } else {
                self.queue.next_cycle()
            };
            match next {
                Some(c) if c < limit => {
                    self.stats.skipped_cycles += c - *now;
                    self.dispatch(machine, c);
                    *now = c + 1;
                    if self.check_finish {
                        return;
                    }
                }
                _ => {
                    self.stats.skipped_cycles += limit - *now;
                    *now = limit;
                    return;
                }
            }
        }
    }

    /// Ticks every component due at cycle `c`, in reference order.
    fn dispatch(&mut self, machine: &mut Machine, c: u64) {
        // `due_next` (marks for this cycle) becomes `due`; the recycled
        // buffer is cleared for the upcoming cycle's marks. Heap events
        // landing on the same cycle are merged in.
        std::mem::swap(&mut self.due, &mut self.due_next);
        self.due_next.fill(false);
        self.any_next = false;
        if self.queue.next_cycle() == Some(c) {
            self.queue.pop_due(c, &mut self.due);
        }
        self.stats.processed_cycles += 1;
        let now = Cycle::new(c);
        let next = Cycle::new(c + 1);

        let Machine {
            clusters,
            backend,
            fabric,
        } = machine;
        if self.due[FABRIC] {
            fabric.tick(now);
            self.stats.dsm_events += 1;
            self.check_finish = true;
            self.wake_fabric(fabric, now, next);
        }
        for (k, cluster) in clusters.iter_mut().enumerate() {
            let slot = self.slot(k as u32);
            let base = slot.start;
            if self.due[base] {
                let lag = c.saturating_sub(self.synced[base]);
                if lag > 0 {
                    cluster.fast_forward_devices(Cycle::new(self.synced[base]), lag);
                }
                let (dma, gemmini, tensor) = cluster.due_engines(now);
                self.stats.dma_events += u64::from(dma);
                self.stats.gemmini_events += u64::from(gemmini);
                self.stats.tensor_events += u64::from(tensor);
                let completions = cluster.completion_mark();
                let transfers = fabric.stats().transfers;
                cluster.tick_devices(now, backend, fabric);
                self.synced[base] = c + 1;
                self.check_finish = true;
                if cluster.completion_mark() != completions {
                    self.due[base + 1..slot.end].fill(true);
                }
                if fabric.stats().transfers != transfers {
                    self.wake_fabric(fabric, now, next);
                }
                if let Some(t) = cluster.devices_next_activity(now) {
                    self.wake(base, t, next);
                }
            }
            for id in base + 1..slot.end {
                if !self.due[id] {
                    continue;
                }
                let core = id - base - 1;
                let lag = c.saturating_sub(self.synced[id]);
                if lag > 0 {
                    cluster.fast_forward_core(core, Cycle::new(self.synced[id]), lag);
                }
                self.stats.simt_events += 1;
                let releases = cluster.barrier_release_events();
                let inbox = cluster.inbox_mark();
                let transfers = fabric.stats().transfers;
                let outcome = cluster.tick_core(core, now, backend, fabric);
                self.synced[id] = c + 1;
                self.check_finish |= outcome.warp_retired;
                if outcome.acted {
                    // Only a real issue or a barrier arrival can change
                    // anything outside the core, so the signature checks
                    // are skipped on all other ticks.
                    if cluster.barrier_release_events() != releases {
                        self.due[id + 1..slot.end].fill(true);
                        self.due_next[base + 1..=id].fill(true);
                        self.any_next = true;
                    }
                    if cluster.inbox_mark() != inbox {
                        self.due_next[base] = true;
                        self.any_next = true;
                    }
                    if fabric.stats().transfers != transfers {
                        self.wake_fabric(fabric, now, next);
                    }
                }
                if outcome.retry_next {
                    // A ready warp lost slot arbitration this cycle and
                    // retries next cycle.
                    self.due_next[id] = true;
                    self.any_next = true;
                } else {
                    // The tick folded the core's event horizon from the warp
                    // walk it performed anyway — no separate probe.
                    match outcome.horizon {
                        Some(t) => self.wake(id, t, next),
                        None => self.check_finish = true,
                    }
                }
            }
        }
    }
}

/// A session of concurrently-resident jobs scheduled onto disjoint cluster
/// subsets of one machine.
///
/// ```
/// use virgo::{GpuConfig, JobTable, SimMode};
/// use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};
/// use std::sync::Arc;
///
/// let mut b = ProgramBuilder::new();
/// b.op_n(8, WarpOp::Alu { rf_reads: 2, rf_writes: 1 });
/// let program = Arc::new(b.build());
/// let kernel = Kernel::new(
///     KernelInfo::new("req", 0, DataType::Fp16),
///     vec![WarpAssignment::on_cluster(1, 0, 0, program)],
/// );
///
/// let config = GpuConfig::virgo().with_clusters(2);
/// let mut table = JobTable::new(config, SimMode::FastForward);
/// let id = table.admit("tenant-a/req0", &kernel, &[1], 10_000).unwrap();
/// let done = table.advance_until(10_000);
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].id, id);
/// let report = done[0].result.as_ref().unwrap();
/// assert_eq!(report.instructions_retired(), 8);
/// ```
#[derive(Debug)]
pub struct JobTable {
    config: GpuConfig,
    machine: Machine,
    /// The event-queue driver; `None` runs the naive reference loop.
    driver: Option<EventDriver>,
    jobs: Vec<ResidentJob>,
    /// Slot ownership, indexed by cluster id.
    occupied: Vec<bool>,
    now: u64,
    next_id: u64,
}

impl JobTable {
    /// Creates an idle session: every cluster slot free, shared back-end and
    /// fabric cold, clock at zero.
    pub fn new(config: GpuConfig, mode: SimMode) -> Self {
        let machine = Machine::idle(&config);
        let driver = match mode {
            SimMode::Naive => None,
            SimMode::FastForward => Some(EventDriver::new(&config)),
        };
        let slots = config.clusters.max(1) as usize;
        JobTable {
            config,
            machine,
            driver,
            jobs: Vec::new(),
            occupied: vec![false; slots],
            now: 0,
            next_id: 0,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The time-advance mode the session runs under.
    pub fn mode(&self) -> SimMode {
        match self.driver {
            None => SimMode::Naive,
            Some(_) => SimMode::FastForward,
        }
    }

    /// The current session cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of jobs currently resident.
    pub fn resident(&self) -> usize {
        self.jobs.len()
    }

    /// True when no job is resident.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Cluster slots no resident job owns, in ascending order.
    pub fn free_clusters(&self) -> Vec<u32> {
        self.occupied
            .iter()
            .enumerate()
            .filter(|(_, &taken)| !taken)
            .map(|(id, _)| id as u32)
            .collect()
    }

    /// Admits `kernel` onto the cluster slots in `clusters` with a residency
    /// budget of `budget` cycles, effective at the current session cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyKernel`] if the kernel has no warps,
    /// [`SimError::ClusterOutOfRange`] if a requested slot does not exist,
    /// and [`SimError::ClusterBusy`] if a requested slot is owned by another
    /// resident job, requested twice, or the kernel assigns warps outside
    /// the requested subset.
    pub fn admit(
        &mut self,
        name: &str,
        kernel: &Kernel,
        clusters: &[u32],
        budget: u64,
    ) -> Result<JobId, SimError> {
        if kernel.warps.is_empty() {
            return Err(SimError::EmptyKernel);
        }
        let slots = self.occupied.len() as u32;
        let mut requested = vec![false; self.occupied.len()];
        for &id in clusters {
            if id >= slots {
                return Err(SimError::ClusterOutOfRange {
                    max_cluster: id,
                    clusters: slots,
                });
            }
            if self.occupied[id as usize] || requested[id as usize] {
                return Err(SimError::ClusterBusy { cluster: id });
            }
            requested[id as usize] = true;
        }
        if let Some(w) = kernel
            .warps
            .iter()
            .find(|w| w.cluster >= slots || !requested[w.cluster as usize])
        {
            return Err(SimError::ClusterBusy { cluster: w.cluster });
        }

        if self.jobs.is_empty() && self.next_id > 0 {
            // Earlier jobs used the shared back-end and fabric: rebuild them
            // cold, so a job admitted onto an idle table sees exactly what a
            // standalone run does — the sequential ≡ standalone guarantee.
            self.machine.reset_shared(&self.config);
        }
        let mut owned: Vec<u32> = clusters.to_vec();
        owned.sort_unstable();
        self.machine.load(&self.config, kernel, &owned, self.now);
        for &id in &owned {
            self.occupied[id as usize] = true;
        }
        let mut sched_base = SchedStats::default();
        if let Some(driver) = &mut self.driver {
            driver.load(&self.machine, &owned);
            sched_base = driver.stats;
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.push(ResidentJob {
            id,
            name: name.to_string(),
            info: kernel.info.clone(),
            clusters: owned,
            admitted: self.now,
            budget,
            backend_base: self.machine.backend.attribution(),
            fabric_base: self.machine.fabric.attribution(),
            sched_base,
            watchdog_sample: None,
        });
        Ok(id)
    }

    /// Advances the session clock toward `target`, returning as soon as any
    /// jobs complete (retire or time out) — at the exact cycle they left the
    /// machine, so the caller can admit follow-on work at that same cycle —
    /// or with an empty vector once the clock reaches `target`.
    ///
    /// Per cycle the driver mirrors the naive reference loop: finished jobs
    /// retire *before* the tick (a job finishing at cycle `c` reports
    /// `c - admitted` cycles, exactly the standalone count), then expired
    /// budgets time out, then the machine ticks. Under
    /// [`SimMode::FastForward`] the event queue dispatches only due
    /// components, and the retirement and timeout checks run only on the
    /// cycles that can change them: after an event that can finish a job,
    /// at the earliest resident deadline or watchdog checkpoint, and at
    /// `target`.
    pub fn advance_until(&mut self, target: u64) -> Vec<JobCompletion> {
        loop {
            if self.driver.as_ref().is_none_or(|d| d.check_finish) {
                let done = self.retire_finished();
                if !done.is_empty() {
                    return done;
                }
            }
            if self.now >= target {
                return Vec::new();
            }
            if self.jobs.is_empty() {
                // An idle machine's ticks are no-ops on every counter that
                // can ever be observed again: skip straight to the target in
                // both modes.
                self.now = target;
                return Vec::new();
            }
            self.sample_watchdogs();
            let expired = self.expire_timeouts();
            if !expired.is_empty() {
                return expired;
            }
            match &mut self.driver {
                None => {
                    self.machine.tick(Cycle::new(self.now));
                    self.now += 1;
                }
                Some(driver) => {
                    let stop = next_check(&self.jobs, target);
                    driver.advance(&mut self.machine, &mut self.now, stop);
                }
            }
        }
    }

    /// Takes the half-budget retirement checkpoint for any job that crossed
    /// it.
    fn sample_watchdogs(&mut self) {
        for job in &mut self.jobs {
            if job.watchdog_sample.is_none() && self.now >= job.watchdog_at() {
                job.watchdog_sample = Some(self.machine.retired_on(&job.clusters));
            }
        }
    }

    /// Retires every job whose clusters have finished, building its report
    /// from the residency-window attribution delta before the slots are
    /// returned to idle.
    fn retire_finished(&mut self) -> Vec<JobCompletion> {
        if let Some(driver) = &mut self.driver {
            driver.check_finish = false;
        }
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.jobs.len() {
            if self.machine.finished_on(&self.jobs[i].clusters) {
                let job = self.jobs.remove(i);
                let report = self.job_report(&job);
                self.release(&job.clusters);
                done.push(JobCompletion {
                    id: job.id,
                    name: job.name,
                    clusters: job.clusters,
                    admitted: job.admitted,
                    retired: self.now,
                    result: Ok(report),
                });
            } else {
                i += 1;
            }
        }
        done
    }

    /// Times out every job whose budget has elapsed, with a deadlock /
    /// livelock / slow-progress verdict probed over the job's own clusters
    /// and the diagnosis naming the job.
    pub(crate) fn expire_timeouts(&mut self) -> Vec<JobCompletion> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.jobs.len() {
            if self.now >= self.jobs[i].deadline() {
                let job = self.jobs.remove(i);
                if let Some(driver) = &mut self.driver {
                    driver.replay(&mut self.machine, &job.clusters, self.now);
                }
                let verdict = if self
                    .machine
                    .next_activity_on(&job.clusters, Cycle::new(self.now))
                    .is_none()
                {
                    WatchdogVerdict::Deadlock
                } else {
                    match job.watchdog_sample {
                        Some(sample) if self.machine.retired_on(&job.clusters) == sample => {
                            WatchdogVerdict::Livelock
                        }
                        _ => WatchdogVerdict::SlowProgress,
                    }
                };
                let diagnosis = self.machine.timeout_diagnosis_on(
                    &job.clusters,
                    &job.name,
                    verdict,
                    self.config.faults.active_at(self.now),
                );
                self.release(&job.clusters);
                done.push(JobCompletion {
                    id: job.id,
                    name: job.name,
                    clusters: job.clusters,
                    admitted: job.admitted,
                    retired: self.now,
                    result: Err(SimError::Timeout {
                        limit: job.budget,
                        diagnosis,
                    }),
                });
            } else {
                i += 1;
            }
        }
        done
    }

    /// Returns a departed job's slots to idle. When the whole table
    /// empties, the fabric's wakes are dropped too: the next admission
    /// replaces it.
    fn release(&mut self, clusters: &[u32]) {
        for &id in clusters {
            self.occupied[id as usize] = false;
        }
        self.machine.unload(&self.config, clusters, self.now);
        if let Some(driver) = &mut self.driver {
            driver.unload(clusters, self.jobs.is_empty());
        }
    }

    /// Builds a job's report from its residency window: its cluster slots
    /// (parked tails replayed first) plus the shared-counter and scheduler
    /// deltas since admission.
    fn job_report(&mut self, job: &ResidentJob) -> SimReport {
        let mut sched = SchedStats::default();
        if let Some(driver) = &mut self.driver {
            driver.replay(&mut self.machine, &job.clusters, self.now);
            sched = driver.stats.since(&job.sched_base);
        }
        let view = JobView {
            clusters: job
                .clusters
                .iter()
                .map(|&id| &self.machine.clusters[id as usize])
                .collect(),
            backend: self.machine.backend.attribution().since(&job.backend_base),
            fabric: self.machine.fabric.attribution().since(&job.fabric_base),
            admitted: job.admitted,
            end: self.now,
        };
        SimReport::from_parts(&view, &job.info, Cycle::new(self.now - job.admitted), sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, GpuConfig};
    use crate::run::Gpu;
    use std::sync::Arc;
    use virgo_isa::{AddrExpr, DataType, LaneAccess, ProgramBuilder, WarpAssignment, WarpOp};

    /// A two-cluster kernel with mixed-length ALU streams and a per-cluster
    /// barrier, so the two clusters finish at different times.
    fn two_cluster_kernel() -> Kernel {
        let mut warps = Vec::new();
        for cluster in 0..2u32 {
            for warp in 0..2u32 {
                let mut b = ProgramBuilder::new();
                b.op_n(
                    16 + 16 * cluster + 4 * warp,
                    WarpOp::Alu {
                        rf_reads: 2,
                        rf_writes: 1,
                    },
                );
                b.op(WarpOp::Barrier { id: 0 });
                warps.push(WarpAssignment::on_cluster(
                    cluster,
                    0,
                    warp,
                    Arc::new(b.build()),
                ));
            }
        }
        Kernel::new(KernelInfo::new("two", 0, DataType::Fp16), warps)
    }

    fn one_cluster_kernel(cluster: u32, ops: u32) -> Kernel {
        let mut b = ProgramBuilder::new();
        b.op_n(
            ops,
            WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            },
        );
        Kernel::new(
            KernelInfo::new("one", 0, DataType::Fp16),
            vec![WarpAssignment::on_cluster(
                cluster,
                0,
                0,
                Arc::new(b.build()),
            )],
        )
    }

    /// A load-bound kernel: every warp waits out a global load per step, so
    /// the fast-forward driver has quiescent windows to jump.
    fn load_kernel(clusters: &[u32], loads: u64) -> Kernel {
        let mut b = ProgramBuilder::new();
        b.repeat(loads, |b| {
            b.op(WarpOp::LoadGlobal {
                access: LaneAccess::contiguous_words(AddrExpr::fixed(0x4000), 8),
            });
            b.op(WarpOp::WaitLoads);
        });
        let program = Arc::new(b.build());
        let warps = clusters
            .iter()
            .map(|&c| WarpAssignment::on_cluster(c, 0, 0, Arc::clone(&program)))
            .collect();
        Kernel::new(KernelInfo::new("loads", 0, DataType::Fp16), warps)
    }

    fn assert_reports_match(session: &SimReport, standalone: &SimReport) {
        assert_eq!(session.cycles(), standalone.cycles());
        assert_eq!(
            session.instructions_retired(),
            standalone.instructions_retired()
        );
        assert_eq!(
            session.total_energy_mj().to_bits(),
            standalone.total_energy_mj().to_bits(),
        );
        assert_eq!(session.per_cluster().len(), standalone.per_cluster().len());
        for (s, r) in session.per_cluster().iter().zip(standalone.per_cluster()) {
            assert_eq!(s.cluster, r.cluster);
            assert_eq!(s.core_stats, r.core_stats);
            assert_eq!(s.contention, r.contention);
            assert_eq!(s.energy_mj.to_bits(), r.energy_mj.to_bits());
        }
    }

    #[test]
    fn full_machine_job_matches_standalone_in_both_modes() {
        let config = GpuConfig::virgo().with_clusters(2);
        let kernel = two_cluster_kernel();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let standalone = Gpu::new(config.clone())
                .run_with_mode(&kernel, 100_000, mode)
                .unwrap();
            let mut table = JobTable::new(config.clone(), mode);
            table.admit("solo", &kernel, &[0, 1], 100_000).unwrap();
            let done = table.advance_until(100_000);
            assert_eq!(done.len(), 1, "{mode}");
            let session = done[0].result.as_ref().unwrap();
            assert_reports_match(session, &standalone);
        }
    }

    #[test]
    fn sequential_jobs_each_match_standalone() {
        // Back-to-back full-machine jobs: the table resets the shared
        // back-end between them, so every report matches a cold standalone
        // run even though the session clock keeps counting.
        let config = GpuConfig::virgo().with_clusters(2);
        let kernel = two_cluster_kernel();
        let standalone = Gpu::new(config.clone()).run(&kernel, 100_000).unwrap();
        let mut table = JobTable::new(config.clone(), SimMode::FastForward);
        for round in 0..3 {
            table
                .admit(&format!("round{round}"), &kernel, &[0, 1], 100_000)
                .unwrap();
            let done = table.advance_until(u64::MAX);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].admitted, table.now() - standalone.cycles().get());
            assert_reports_match(done[0].result.as_ref().unwrap(), &standalone);
        }
        assert!(table.is_idle());
    }

    #[test]
    fn concurrent_disjoint_jobs_agree_across_modes() {
        let config = GpuConfig::virgo().with_clusters(2);
        let mut per_mode = Vec::new();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let mut table = JobTable::new(config.clone(), mode);
            table
                .admit("a", &one_cluster_kernel(0, 40), &[0], 100_000)
                .unwrap();
            table
                .admit("b", &one_cluster_kernel(1, 90), &[1], 100_000)
                .unwrap();
            let mut done = Vec::new();
            while !table.is_idle() {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            assert_eq!(done.len(), 2);
            // The short job frees its cluster while the long one runs on.
            assert!(done[0].retired < done[1].retired, "{mode}");
            per_mode.push(
                done.iter()
                    .map(|c| {
                        let r = c.result.as_ref().unwrap();
                        (
                            c.retired,
                            r.cycles().get(),
                            r.instructions_retired(),
                            r.total_energy_mj().to_bits(),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(per_mode[0], per_mode[1]);
    }

    #[test]
    fn fast_forward_jobs_report_residency_window_sched_stats() {
        let config = GpuConfig::for_design(DesignKind::AmpereStyle).with_clusters(2);
        let mut table = JobTable::new(config.clone(), SimMode::FastForward);
        table
            .admit("short", &load_kernel(&[0], 8), &[0], 1_000_000)
            .unwrap();
        table
            .admit("long", &load_kernel(&[1], 32), &[1], 1_000_000)
            .unwrap();
        let mut done = Vec::new();
        while !table.is_idle() {
            done.extend(table.advance_until(u64::MAX));
        }
        done.sort_by_key(|c| c.id);
        let sched: Vec<SchedStats> = done
            .iter()
            .map(|c| *c.result.as_ref().unwrap().sched_stats())
            .collect();
        for (job, s) in done.iter().zip(&sched) {
            assert!(s.skipped_cycles > 0, "{}: {s:?}", job.name);
            // Every cycle of the residency window was either dispatched or
            // jumped over.
            assert_eq!(
                s.processed_cycles + s.skipped_cycles,
                job.residency(),
                "{}",
                job.name
            );
        }

        // A full-machine job admitted after the session went idle reports
        // the counters of a standalone run, not the session totals.
        let kernel = load_kernel(&[0, 1], 16);
        table.admit("full", &kernel, &[0, 1], 1_000_000).unwrap();
        let done = table.advance_until(u64::MAX);
        let standalone = Gpu::new(config).run(&kernel, 1_000_000).unwrap();
        assert_eq!(
            done[0].result.as_ref().unwrap().sched_stats(),
            standalone.sched_stats()
        );
        assert!(standalone.sched_stats().skipped_cycles > 0);
    }

    #[test]
    fn admission_is_validated() {
        let config = GpuConfig::virgo().with_clusters(2);
        let mut table = JobTable::new(config, SimMode::FastForward);
        let empty = Kernel::new(KernelInfo::new("none", 0, DataType::Fp16), Vec::new());
        assert_eq!(
            table.admit("e", &empty, &[0], 100).unwrap_err(),
            SimError::EmptyKernel
        );
        let k0 = one_cluster_kernel(0, 4);
        assert_eq!(
            table.admit("far", &k0, &[7], 100).unwrap_err(),
            SimError::ClusterOutOfRange {
                max_cluster: 7,
                clusters: 2
            }
        );
        assert_eq!(
            table.admit("dup", &k0, &[0, 0], 100).unwrap_err(),
            SimError::ClusterBusy { cluster: 0 }
        );
        // Warps outside the requested subset are rejected.
        assert_eq!(
            table.admit("stray", &k0, &[1], 100).unwrap_err(),
            SimError::ClusterBusy { cluster: 0 }
        );
        table.admit("ok", &k0, &[0], 100_000).unwrap();
        assert_eq!(table.free_clusters(), vec![1]);
        assert_eq!(
            table
                .admit("conflict", &one_cluster_kernel(0, 4), &[0], 100)
                .unwrap_err(),
            SimError::ClusterBusy { cluster: 0 }
        );
    }

    #[test]
    fn timed_out_job_is_diagnosed_and_evicted() {
        // A lone warp at a two-participant barrier deadlocks on cluster 1
        // while an honest job runs on cluster 0.
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Barrier { id: 0 });
        let stuck = Kernel::new(
            KernelInfo::new("stuck", 0, DataType::Fp16),
            vec![
                WarpAssignment::on_cluster(1, 0, 0, Arc::new(b.build())),
                WarpAssignment::on_cluster(1, 0, 1, Arc::new(ProgramBuilder::new().build())),
            ],
        );
        let config = GpuConfig::virgo().with_clusters(2);
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let mut table = JobTable::new(config.clone(), mode);
            table
                .admit("good", &one_cluster_kernel(0, 32), &[0], 100_000)
                .unwrap();
            table.admit("tenant-b/req1", &stuck, &[1], 2_000).unwrap();
            let mut done = Vec::new();
            while !table.is_idle() {
                done.extend(table.advance_until(u64::MAX));
            }
            done.sort_by_key(|c| c.id);
            assert!(done[0].result.is_ok(), "{mode}");
            let Err(SimError::Timeout { limit, diagnosis }) = &done[1].result else {
                panic!("expected a timeout in {mode}");
            };
            assert_eq!(*limit, 2_000, "{mode}");
            assert_eq!(done[1].retired - done[1].admitted, 2_000, "{mode}");
            assert_eq!(diagnosis.verdict, WatchdogVerdict::Deadlock, "{mode}");
            assert_eq!(diagnosis.job.as_deref(), Some("tenant-b/req1"), "{mode}");
            assert_eq!(diagnosis.warps.len(), 1, "{mode}");
            assert_eq!(diagnosis.warps[0].cluster, 1, "{mode}");
            // The slot is reusable after eviction.
            assert_eq!(table.free_clusters(), vec![0, 1], "{mode}");
        }
    }

    #[test]
    fn idle_table_jumps_to_target() {
        let mut table = JobTable::new(GpuConfig::virgo(), SimMode::Naive);
        assert!(table.advance_until(5_000).is_empty());
        assert_eq!(table.now(), 5_000);
        // Admission starts a job mid-session.
        table
            .admit("late", &one_cluster_kernel(0, 8), &[0], 100_000)
            .unwrap();
        let done = table.advance_until(u64::MAX);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].admitted, 5_000);
        assert!(done[0].result.is_ok());
    }
}
