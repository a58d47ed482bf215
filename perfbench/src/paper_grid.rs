//! paper_grid: the Table 3 GEMMs at 256³ and 512³ on all four designs plus
//! FlashAttention (paper shape, FP32 configurations) on Virgo and the
//! Ampere-style design, as ten single-cluster `Gpu::run_with_mode` calls on
//! one thread. The paper fixes the inputs, so the seed is unused.

use std::sync::Arc;

use virgo::{DesignKind, Gpu, GpuConfig, SimMode};
use virgo_isa::Kernel;
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_sweep::{Query, DEFAULT_MAX_CYCLES};

use crate::catalog::GRID_CELLS;
use crate::trace::Tracer;
use crate::{check_macs, paper, Pass};

/// The cell's query, built the way the paper benches build theirs.
fn query(cell: &str) -> Query {
    let design = |name: &str| match name {
        "volta" => DesignKind::VoltaStyle,
        "ampere" => DesignKind::AmpereStyle,
        "hopper" => DesignKind::HopperStyle,
        _ => DesignKind::Virgo,
    };
    match cell
        .split_once('_')
        .expect("cells are <design>_<size> or fa_<design>")
    {
        ("fa", d) => Query::new(design(d), AttentionShape::paper_default()),
        (d, size) => Query::new(
            design(d),
            GemmShape::square(size.parse().expect("GEMM size")),
        ),
    }
}

/// Materialized simulation inputs, one per cell.
pub struct Inputs {
    cells: Vec<(&'static str, GpuConfig, Arc<Kernel>, SimMode)>,
}

/// Builds every cell's configuration and kernel with `Query::materialize`.
pub fn setup(tracer: &Tracer) -> Inputs {
    let cells = GRID_CELLS
        .iter()
        .map(|&cell| {
            let (config, kernel, mode) = tracer.span(
                "kernels",
                || format!("Query::materialize {cell}"),
                None,
                |_| query(cell).materialize(),
            );
            (cell, config, kernel, mode)
        })
        .collect();
    Inputs { cells }
}

/// Simulates every cell once and checks each report.
pub fn pass(inputs: Inputs, tracer: &Tracer) -> Pass {
    let mut out = Pass::default();
    let results: Vec<_> = inputs
        .cells
        .iter()
        .map(|(cell, config, kernel, mode)| {
            out.call(cell, || {
                tracer.span(
                    "core",
                    || format!("Gpu::run_with_mode {cell}"),
                    None,
                    |_| Gpu::new(config.clone()).run_with_mode(kernel, DEFAULT_MAX_CYCLES, *mode),
                )
            })
        })
        .collect();

    let mut utilization = Vec::new();
    for ((cell, ..), result) in inputs.cells.iter().zip(results) {
        out.attempted += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.fail(format!("{cell}: {e}"));
                continue;
            }
        };
        check_macs(&mut out, cell, &report);
        let cycles = report.cycles().get();
        out.sim_cycles += cycles;
        let sched = report.sched_stats();
        let ticked = sched.processed_cycles + sched.skipped_cycles;
        let pct = report.mac_utilization().as_fraction() * 100.0;
        utilization.push((*cell, pct));
        out.count(format!("core.sim_cycles.{cell}"), cycles as f64);
        out.count(
            format!("core.processed_frac.{cell}"),
            sched.processed_cycles as f64 / ticked.max(1) as f64,
        );
        out.count(format!("simt.events.{cell}"), sched.simt_events as f64);
        out.count(format!("fidelity.mac_util_pct.{cell}"), pct);
        match report.design() {
            DesignKind::Virgo => out.count(
                format!("gemmini.events.{cell}"),
                sched.gemmini_events as f64,
            ),
            DesignKind::HopperStyle => {
                out.count(format!("tensor.events.{cell}"), sched.tensor_events as f64)
            }
            _ => {}
        }
        if report.dma_stats().is_some() {
            out.count(format!("mem.dma_events.{cell}"), sched.dma_events as f64);
        }
        if cell.starts_with("fa_") {
            out.count(
                format!("simt.fence_wait_frac.{cell}"),
                report.fence_wait_cycles() as f64 / cycles.max(1) as f64,
            );
        }
        if cell.ends_with("_512") {
            let design = cell.trim_end_matches("_512");
            out.count(
                format!("simt.instructions.{design}_512"),
                report.instructions_retired() as f64,
            );
            out.count(
                format!("energy.active_power_mw.{design}_512"),
                report.active_power_mw(),
            );
        }
    }
    if let Some(gap) = paper::mean_abs_gap_pp(&utilization) {
        out.count("fidelity.gap_pp".into(), gap);
    }

    for span in tracer.spans_of_current_run() {
        if let Some(cell) = span.name.strip_prefix("Gpu::run_with_mode ") {
            let seconds = span.dur_ns() as f64 / 1e9;
            out.timing(format!("core.run_s.{cell}"), seconds);
            if let Some(&cycles) = out.counts.get(&format!("core.sim_cycles.{cell}")) {
                out.timing(
                    format!("core.host_ns_per_cycle.{cell}"),
                    seconds * 1e9 / cycles.max(1.0),
                );
            }
        }
    }
    out.timing_sum_ms("kernels.build_ms", tracer, |s| s.layer == "kernels");
    out
}
