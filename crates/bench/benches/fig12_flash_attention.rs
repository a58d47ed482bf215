//! Figure 12 and Section 6.2: FlashAttention-3 power, energy and utilization
//! on Virgo versus the Ampere-style baseline, plus the Section 4.5.1
//! synchronization-overhead measurement.

use virgo::DesignKind;
use virgo_bench::{mw, pct, print_table, sweep_service, uj};
use virgo_energy::Component;
use virgo_kernels::AttentionShape;
use virgo_sweep::Query;

fn main() {
    let designs = [DesignKind::AmpereStyle, DesignKind::Virgo];
    let queries: Vec<Query> = designs
        .into_iter()
        .map(|design| Query::new(design, AttentionShape::paper_default()))
        .collect();
    let results: Vec<_> = sweep_service()
        .run_all(&queries)
        .into_iter()
        .map(|outcome| {
            let design = outcome.point().expect("built from a point").design;
            (design, outcome.report)
        })
        .collect();

    let groups = [
        ("L2 Cache", vec![Component::L2Cache]),
        ("L1 Cache", vec![Component::L1Cache]),
        ("Shared Mem", vec![Component::SharedMem]),
        (
            "Vortex Core",
            vec![
                Component::CoreIssue,
                Component::CoreAlu,
                Component::CoreFpu,
                Component::CoreLsu,
                Component::CoreWriteback,
                Component::CoreOther,
            ],
        ),
        ("Accum Mem", vec![Component::AccumMem]),
        ("Matrix Unit", vec![Component::MatrixUnit]),
        ("DMA & Other", vec![Component::DmaOther]),
    ];

    let mut rows = Vec::new();
    for (design, report) in &results {
        for (label, components) in &groups {
            let power: f64 = components
                .iter()
                .map(|&c| report.power().component_power_mw(c))
                .sum();
            let energy: f64 = components
                .iter()
                .map(|&c| report.power().component_energy(c))
                .sum();
            rows.push(vec![
                design.name().to_string(),
                (*label).to_string(),
                mw(power),
                uj(energy),
            ]);
        }
        rows.push(vec![
            design.name().to_string(),
            "TOTAL".to_string(),
            mw(report.active_power_mw()),
            uj(report.power().total_energy_uj()),
        ]);
    }
    print_table(
        "Figure 12: FlashAttention-3 active power and energy breakdown",
        &["Design", "Component", "Power", "Energy"],
        &rows,
    );

    let util_rows: Vec<Vec<String>> = results
        .iter()
        .map(|(design, report)| {
            vec![
                design.name().to_string(),
                pct(report.mac_utilization().as_fraction()),
                report.cycles().get().to_string(),
                report.instructions_retired().to_string(),
            ]
        })
        .collect();
    print_table(
        "Section 6.2: FlashAttention-3 MAC utilization",
        &["Design", "MAC util", "Cycles", "Instructions"],
        &util_rows,
    );

    let virgo = &results
        .iter()
        .find(|(d, _)| *d == DesignKind::Virgo)
        .unwrap()
        .1;
    let ampere = &results
        .iter()
        .find(|(d, _)| *d == DesignKind::AmpereStyle)
        .unwrap()
        .1;
    println!(
        "\nVirgo vs Ampere-style: energy {:+.1}% (paper: -50.6%), utilization {} vs {} (paper: 65.7% vs 35.1%)",
        (virgo.total_energy_mj() / ampere.total_energy_mj() - 1.0) * 100.0,
        pct(virgo.mac_utilization().as_fraction()),
        pct(ampere.mac_utilization().as_fraction()),
    );

    // Section 4.5.1: synchronization overhead of the virgo_fence polling.
    let fences = virgo.cluster_stats().async_ops_launched.max(1);
    println!(
        "\nSection 4.5.1 synchronization overhead (Virgo): {} fence-wait cycles over {} cycles ({:.1}% of runtime, ~{} cycles per asynchronous operation; paper: ~260 cycles, 2.4% of runtime)",
        virgo.fence_wait_cycles(),
        virgo.cycles().get(),
        virgo.fence_wait_cycles() as f64 / virgo.cycles().get() as f64 * 100.0,
        virgo.fence_wait_cycles() / fences,
    );
}
