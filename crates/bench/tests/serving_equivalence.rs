//! Digest-level equivalence contracts for the serving layer.
//!
//! The job-table refactor's promise is that multi-job residency is an
//! *extension*, not a semantics change. Two properties pin it at full
//! [`ReportDigest`] granularity (every counter the bench layer ever gates
//! on, bit-for-bit):
//!
//! * **Sequential ≡ standalone.** N requests served one at a time on the
//!   whole machine each produce the digest a standalone [`Gpu::run`] of the
//!   same kernel produces — the single-job path is byte-identical through
//!   the serving stack, with zero re-pins.
//! * **Naive ≡ fast-forward.** A two-tenant concurrent serving run retires
//!   every request with identical digests, admission cycles and makespan
//!   under both time-advance modes: on a 2-cluster Virgo machine at
//!   N ∈ {2, 4} requests per tenant, and on a 4-cluster Ampere-style
//!   machine with a late-started cluster. A scripted session adds the
//!   driver's edge cases: admission while other jobs are parked mid-gap, a
//!   deadlocked job expiring inside a jumped window, and a job admitted onto
//!   a cluster still held in reset.

use std::sync::Arc;

use virgo::{
    DesignKind, FaultKind, FaultPlan, Gpu, GpuConfig, JobTable, SimError, SimMode, WatchdogVerdict,
};
use virgo_bench::ReportDigest;
use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};
use virgo_kernels::GemmShape;
use virgo_serve::{
    generate_trace, BatchingMode, Request, RequestClass, ServeConfig, Server, TenantSpec,
};
use virgo_sim::SplitMix64;

const BUDGET: u64 = 50_000_000;

#[test]
fn sequential_serving_is_bit_identical_to_standalone_runs() {
    let gpu = GpuConfig::virgo().with_clusters(2);
    let classes = [
        RequestClass::Gemm(GemmShape::square(128)),
        RequestClass::Gemm(GemmShape::square(256)),
        RequestClass::Gemm(GemmShape::square(128)),
    ];
    let trace: Vec<Request> = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| Request {
            id: i as u64,
            tenant: "solo".to_string(),
            class,
            arrival: 1 + i as u64,
            clusters: 2,
            budget: BUDGET,
        })
        .collect();
    // Serial batching: each request owns the whole machine in turn, exactly
    // the pre-refactor "one kernel owns the GPU" execution model.
    let report =
        Server::new(ServeConfig::new(gpu.clone()).with_batching(BatchingMode::Serial)).run(&trace);
    assert_eq!(report.completed(), classes.len());

    for (outcome, class) in report.outcomes.iter().zip(&classes) {
        let kernel = class.build(&gpu);
        let standalone = Gpu::new(gpu.clone())
            .run(&kernel, BUDGET)
            .expect("standalone run finishes");
        let served = outcome.report.as_ref().expect("request completed");
        assert_eq!(
            ReportDigest::of(served),
            ReportDigest::of(&standalone),
            "request {} ({}) diverged from its standalone run",
            outcome.id,
            outcome.label,
        );
    }
}

/// Everything a serving run decides, per request in id order: admission
/// and retirement cycles plus the report digest (`None` for a timeout),
/// and the makespan.
type ServeTimeline = (u64, Vec<(u64, u64, u64, Option<ReportDigest>)>);

fn serve_timeline(gpu: &GpuConfig, trace: &[Request], mode: SimMode) -> ServeTimeline {
    let report = Server::new(ServeConfig::new(gpu.clone()).with_mode(mode)).run(trace);
    assert_eq!(report.outcomes.len(), trace.len(), "{mode}");
    let mut outcomes: Vec<_> = report.outcomes.iter().collect();
    outcomes.sort_by_key(|o| o.id);
    let per_request = outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.admitted,
                o.retired,
                o.report.as_ref().map(ReportDigest::of),
            )
        })
        .collect();
    (report.makespan_cycles, per_request)
}

#[test]
fn concurrent_serving_modes_agree_at_two_and_four_requests() {
    let gpu = GpuConfig::virgo().with_clusters(2);
    for per_tenant in [2usize, 4] {
        let tenants = [
            TenantSpec::new("a", 10_000),
            TenantSpec::new("b", 10_000)
                .with_classes(vec![RequestClass::Gemm(GemmShape::square(256))]),
        ];
        let trace = generate_trace(&tenants, per_tenant, 0xC0FFEE);
        let mut digests = Vec::new();
        for mode in [SimMode::Naive, SimMode::FastForward] {
            let report = Server::new(ServeConfig::new(gpu.clone()).with_mode(mode)).run(&trace);
            assert_eq!(report.completed(), trace.len(), "{mode} N={per_tenant}");
            let mut outcomes: Vec<_> = report.outcomes.iter().collect();
            outcomes.sort_by_key(|o| o.id);
            digests.push((
                report.makespan_cycles,
                outcomes
                    .iter()
                    .map(|o| {
                        (
                            o.admitted,
                            o.retired,
                            ReportDigest::of(o.report.as_ref().expect("completed")),
                        )
                    })
                    .collect::<Vec<_>>(),
            ));
        }
        assert_eq!(
            digests[0], digests[1],
            "naive and fast-forward serving diverged at N={per_tenant}"
        );
    }
}

/// A 4-cluster Ampere-style machine — issue-bound, so nearly every cycle
/// dispatches some core — whose cluster 3 is held in reset until
/// `late_until`.
fn late_start_ampere(late_until: u64) -> GpuConfig {
    GpuConfig::for_design(DesignKind::AmpereStyle)
        .with_clusters(4)
        .with_faults(FaultPlan::seeded(7).with_event(
            FaultKind::LateClusterStart { cluster: 3 },
            0,
            late_until,
        ))
}

#[test]
fn concurrent_serving_modes_agree_on_a_four_cluster_ampere_machine() {
    let mut rng = SplitMix64::new(0xA4_5EED);
    for round in 0..2 {
        let gpu = late_start_ampere(1 + rng.next_below(4_000));
        let tenants = [
            TenantSpec::new("a", 1_000 + rng.next_below(3_000)),
            TenantSpec::new("b", 1_000 + rng.next_below(3_000)).with_clusters(2),
        ];
        let trace = generate_trace(&tenants, 3, rng.next_u64());
        let naive = serve_timeline(&gpu, &trace, SimMode::Naive);
        let fast = serve_timeline(&gpu, &trace, SimMode::FastForward);
        assert!(naive.1.iter().all(|r| r.3.is_some()), "round {round}");
        assert_eq!(naive, fast, "round {round}: serving modes diverged");
    }
}

/// A kernel that can never finish: one warp waits at a two-participant
/// barrier the other warp (an empty program) never reaches.
fn deadlocked_kernel(cluster: u32) -> Kernel {
    let mut b = ProgramBuilder::new();
    b.op(WarpOp::Barrier { id: 0 });
    Kernel::new(
        KernelInfo::new("stuck", 0, DataType::Fp16),
        vec![
            WarpAssignment::on_cluster(cluster, 0, 0, Arc::new(b.build())),
            WarpAssignment::on_cluster(cluster, 0, 1, Arc::new(ProgramBuilder::new().build())),
        ],
    )
}

/// One job of a scripted session: admission cycle, name, kernel, cluster
/// slots and budget.
type Admission = (u64, &'static str, Kernel, Vec<u32>, u64);

/// What a job left with: its report digest, or the timeout verdict and the
/// number of stuck warps.
type Departure = Result<ReportDigest, (WatchdogVerdict, usize)>;

/// Replays `script` (sorted by admission cycle) on a session and returns
/// every departure with its admission and retirement cycles, in job order,
/// plus the final session clock.
fn session_timeline(
    gpu: &GpuConfig,
    script: &[Admission],
    mode: SimMode,
) -> (u64, Vec<(String, u64, u64, Departure)>) {
    let mut table = JobTable::new(gpu.clone(), mode);
    let mut done = Vec::new();
    for (at, name, kernel, clusters, budget) in script {
        while table.now() < *at {
            done.extend(table.advance_until(*at));
        }
        table
            .admit(name, kernel, clusters, *budget)
            .expect("slots free");
    }
    while !table.is_idle() {
        done.extend(table.advance_until(u64::MAX));
    }
    done.sort_by_key(|c| c.id);
    let departures = done
        .into_iter()
        .map(|c| {
            let departure = match &c.result {
                Ok(report) => Ok(ReportDigest::of(report)),
                Err(SimError::Timeout { diagnosis, .. }) => {
                    Err((diagnosis.verdict, diagnosis.warps.len()))
                }
                Err(other) => panic!("{}: {other}", c.name),
            };
            (c.name, c.admitted, c.retired, departure)
        })
        .collect();
    (table.now(), departures)
}

#[test]
fn session_modes_agree_on_mid_gap_admission_deadlock_expiry_and_late_start() {
    // A long GEMM parks its components mid-gap while the other jobs are
    // admitted; a deadlocked job's budget runs out while nothing on its
    // cluster can act (inside a window the driver jumps); and a job on the
    // late-started cluster 3 is admitted before the fault releases it.
    let mut rng = SplitMix64::new(0x5E55_1011);
    for round in 0..3 {
        let late = 200 + rng.next_below(3_000);
        let gpu = late_start_ampere(late);
        let gemm = |ids: Vec<u32>| {
            virgo_kernels::build_gemm(&gpu.clone().with_allocation(ids), GemmShape::square(128))
        };
        let mut script: Vec<Admission> = vec![
            (0, "long", gemm(vec![0]), vec![0], BUDGET),
            (
                1 + rng.next_below(2_000),
                "stuck",
                deadlocked_kernel(1),
                vec![1],
                500 + rng.next_below(5_000),
            ),
            (
                rng.next_below(late),
                "late",
                gemm(vec![2, 3]),
                vec![2, 3],
                BUDGET,
            ),
        ];
        script.sort_by_key(|a| a.0);
        let naive = session_timeline(&gpu, &script, SimMode::Naive);
        let fast = session_timeline(&gpu, &script, SimMode::FastForward);
        let stuck = naive.1.iter().find(|d| d.0 == "stuck").expect("stuck job");
        assert_eq!(
            stuck.3,
            Err((WatchdogVerdict::Deadlock, 1)),
            "round {round}"
        );
        assert!(
            naive.1.iter().filter(|d| d.3.is_ok()).count() == 2,
            "round {round}"
        );
        assert_eq!(naive, fast, "round {round}: session modes diverged");
    }
}
