//! Figure 8: SoC active power and active energy of the GEMM kernel across
//! the four designs, at 512³ and 1024³.

use virgo::DesignKind;
use virgo_bench::{mw, print_table, run_gemm_all_designs};
use virgo_kernels::GemmShape;

fn main() {
    let sizes: Vec<GemmShape> = match std::env::var("VIRGO_GEMM_SIZES") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse::<u32>().ok())
            .map(GemmShape::square)
            .collect(),
        Err(_) => vec![GemmShape::square(512), GemmShape::square(1024)],
    };

    for shape in sizes {
        let results = run_gemm_all_designs(shape);
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(design, report)| {
                vec![
                    design.name().to_string(),
                    mw(report.active_power_mw()),
                    format!("{:.2} mJ", report.total_energy_mj()),
                    report.cycles().get().to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 8: SoC active power and energy, GEMM {shape}"),
            &["Design", "Active power", "Active energy", "Cycles"],
            &rows,
        );

        let get = |kind: DesignKind| {
            results
                .iter()
                .find(|(d, _)| *d == kind)
                .map(|(_, r)| r)
                .expect("design present")
        };
        let virgo = get(DesignKind::Virgo);
        let ampere = get(DesignKind::AmpereStyle);
        let hopper = get(DesignKind::HopperStyle);
        println!(
            "\nVirgo vs Ampere-style: power {:+.1}%, energy {:+.1}%",
            (virgo.active_power_mw() / ampere.active_power_mw() - 1.0) * 100.0,
            (virgo.total_energy_mj() / ampere.total_energy_mj() - 1.0) * 100.0
        );
        println!(
            "Virgo vs Hopper-style: power {:+.1}%, energy {:+.1}%",
            (virgo.active_power_mw() / hopper.active_power_mw() - 1.0) * 100.0,
            (virgo.total_energy_mj() / hopper.total_energy_mj() - 1.0) * 100.0
        );
    }
    println!("\nPaper reference (Figure 8 / Section 6.1.2): Virgo reduces active power by 67.3%");
    println!("vs the Ampere-style design and 24.2% vs the Hopper-style design, and active");
    println!("energy by 80.3% and 32.5% respectively.");
}
