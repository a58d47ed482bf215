//! Naive ≡ FastForward equivalence for the event-queue scheduler.
//!
//! The fast-forward driver must be an *optimization*, never a semantics
//! change: for any design and cluster count, the report it produces has to be
//! bit-identical (via [`ReportDigest`]) to the naive one-cycle loop's. These
//! tests pin that contract on both tensor-core execution paths — the
//! synchronous tightly-coupled HMMA pipeline (Volta/Ampere-style) and the
//! operand-decoupled wgmma path (Hopper-style) — plus the disaggregated
//! Gemmini path, at one and at four clusters, so both the single-cluster fast
//! path and the multi-cluster due/queue interleaving are covered.
//!
//! A second group pins the scheduler's own health counters: with batched
//! Gemmini operand streaming the driver must actually skip (not just
//! re-label) the quiescent cycles of the dense virgo GEMM.

use virgo::{DesignKind, Gpu, GpuConfig, SimMode};
use virgo_bench::ReportDigest;
use virgo_kernels::GemmShape;

const BUDGET: u64 = 50_000_000;

/// Runs one design at one cluster count under both modes and asserts the
/// digests match. Returns the fast-forward report for further checks.
fn assert_modes_agree(design: DesignKind, clusters: u32, size: u32) -> virgo::SimReport {
    let config = GpuConfig::for_design(design).with_clusters(clusters);
    let kernel = virgo_kernels::build_gemm(&config, GemmShape::square(size));
    let naive = Gpu::new(config.clone())
        .run_with_mode(&kernel, BUDGET, SimMode::Naive)
        .expect("naive run finishes");
    let fast = Gpu::new(config)
        .run_with_mode(&kernel, BUDGET, SimMode::FastForward)
        .expect("fast-forward run finishes");
    assert_eq!(
        ReportDigest::of(&naive),
        ReportDigest::of(&fast),
        "{design} N={clusters}: fast-forward diverged from the naive loop"
    );
    fast
}

#[test]
fn tightly_coupled_paths_agree_at_one_and_four_clusters() {
    for design in [DesignKind::VoltaStyle, DesignKind::AmpereStyle] {
        for clusters in [1, 4] {
            assert_modes_agree(design, clusters, 128);
        }
    }
}

#[test]
fn decoupled_and_disaggregated_paths_agree_at_one_and_four_clusters() {
    for design in [DesignKind::HopperStyle, DesignKind::Virgo] {
        for clusters in [1, 4] {
            assert_modes_agree(design, clusters, 128);
        }
    }
}

#[test]
fn dense_virgo_gemm_skips_most_cycles() {
    // Batched operand streaming gives the Gemmini units real block-boundary
    // horizons, so the scheduler must genuinely skip: the dense GEMM spends
    // nearly all its cycles in quiescent DMA/matrix-unit windows.
    let config = GpuConfig::for_design(DesignKind::Virgo);
    let kernel = virgo_kernels::build_gemm(&config, GemmShape::square(256));
    let report = Gpu::new(config)
        .run_with_mode(&kernel, BUDGET, SimMode::FastForward)
        .expect("run finishes");
    let sched = report.sched_stats();
    assert!(
        sched.skipped_cycles > sched.processed_cycles * 10,
        "expected >90% of cycles skipped, got {sched:?}"
    );
}

#[test]
fn naive_mode_reports_zero_sched_stats() {
    // SchedStats describe the event-driven driver; the naive loop has none.
    // They are excluded from the digest, so this is the only place the
    // asymmetry is allowed — and it must stay all-zero, or the digest
    // exclusion would be hiding a real divergence.
    let config = GpuConfig::for_design(DesignKind::Virgo);
    let kernel = virgo_kernels::build_gemm(&config, GemmShape::square(128));
    let report = Gpu::new(config)
        .run_with_mode(&kernel, BUDGET, SimMode::Naive)
        .expect("run finishes");
    assert_eq!(*report.sched_stats(), virgo::SchedStats::default());
}
