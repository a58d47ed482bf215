//! The per-layer metric catalogue: every name the traced run reports, with
//! its unit and direction. `BENCHMARK.json`'s `per_layer` list must match it
//! (a unit test checks). A metric whose layer a workload never calls reads
//! 0 on that workload.

/// The paper_grid cells, in run order.
pub const GRID_CELLS: [&str; 10] = [
    "volta_256",
    "volta_512",
    "ampere_256",
    "ampere_512",
    "hopper_256",
    "hopper_512",
    "virgo_256",
    "virgo_512",
    "fa_virgo",
    "fa_ampere",
];

/// Cells whose design has a cluster DMA engine (every design but Volta).
pub const DMA_CELLS: [&str; 8] = [
    "ampere_256",
    "ampere_512",
    "hopper_256",
    "hopper_512",
    "virgo_256",
    "virgo_512",
    "fa_virgo",
    "fa_ampere",
];

/// The serve_mix machines.
pub const SERVE_MACHINES: [&str; 2] = ["virgo", "ampere"];

/// The layers the benchmark records spans for.
pub const SPAN_LAYERS: [&str; 5] = ["kernels", "core", "sweep", "store", "serve"];

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `<layer>.<quantity>[.<cell>]`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn push(out: &mut Vec<Metric>, name: String, unit: &'static str, better: &'static str) {
    out.push(Metric { name, unit, better });
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<Metric> {
    let mut m = Vec::new();
    // paper_grid
    push(&mut m, "kernels.build_ms".into(), "ms", "lower");
    for (series, unit, better) in [
        ("core.run_s", "s", "lower"),
        ("core.host_ns_per_cycle", "ns/cycle", "lower"),
        ("core.sim_cycles", "cycles", "lower"),
        ("core.processed_frac", "ratio", "lower"),
        ("simt.events", "count", "lower"),
        ("fidelity.mac_util_pct", "%", "higher"),
    ] {
        for cell in GRID_CELLS {
            push(&mut m, format!("{series}.{cell}"), unit, better);
        }
    }
    for cell in ["virgo_256", "virgo_512", "fa_virgo"] {
        push(&mut m, format!("gemmini.events.{cell}"), "count", "lower");
    }
    for cell in ["hopper_256", "hopper_512"] {
        push(&mut m, format!("tensor.events.{cell}"), "count", "lower");
    }
    for cell in DMA_CELLS {
        push(&mut m, format!("mem.dma_events.{cell}"), "count", "lower");
    }
    push(&mut m, "fidelity.gap_pp".into(), "pp", "lower");
    for cell in ["fa_virgo", "fa_ampere"] {
        push(
            &mut m,
            format!("simt.fence_wait_frac.{cell}"),
            "ratio",
            "lower",
        );
    }
    for design in ["volta", "ampere", "hopper", "virgo"] {
        push(
            &mut m,
            format!("simt.instructions.{design}_512"),
            "count",
            "lower",
        );
    }
    for design in ["volta", "ampere", "hopper", "virgo"] {
        push(
            &mut m,
            format!("energy.active_power_mw.{design}_512"),
            "mW",
            "lower",
        );
    }
    // sweep_store
    for (name, unit, better) in [
        ("sweep.cold_s", "s", "lower"),
        ("sweep.warm_s", "s", "lower"),
        ("sweep.cold_misses", "count", "lower"),
        ("sweep.warm_remote_hits", "count", "higher"),
        ("sweep.warm_hit_rate", "ratio", "higher"),
        ("sweep.store_unreachable", "count", "lower"),
        ("store.get_ms_p50", "ms", "lower"),
        ("store.get_ms_p75", "ms", "lower"),
        ("store.put_ms_p50", "ms", "lower"),
        ("store.disk_get_ms_p50", "ms", "lower"),
        ("store.bytes_read", "B", "lower"),
        ("store.bytes_written", "B", "lower"),
        ("store.server_protocol_errors", "count", "lower"),
        ("mem.dsm_bytes", "B", "lower"),
        ("mem.dram_contention_stall_cycles", "cycles", "lower"),
        // serve_mix
        ("serve.trace_gen_ms", "ms", "lower"),
    ] {
        push(&mut m, name.into(), unit, better);
    }
    for (series, unit, better) in [
        ("serve.replay_s", "s", "lower"),
        ("serve.host_ns_per_cluster_cycle", "ns/cycle", "lower"),
        ("serve.completed", "count", "higher"),
        ("serve.timed_out", "count", "lower"),
        ("serve.makespan_cycles", "cycles", "lower"),
        ("serve.p50_latency_cycles", "cycles", "lower"),
        ("serve.p99_latency_cycles", "cycles", "lower"),
        ("serve.energy_per_request_mj", "mJ", "lower"),
    ] {
        for machine in SERVE_MACHINES {
            push(&mut m, format!("{series}.{machine}"), unit, better);
        }
    }
    // every workload
    push(&mut m, "host.speed_factor".into(), "ratio", "higher");
    push(&mut m, "host.raw_wall_s".into(), "s", "lower");
    push(&mut m, "trace.overhead_frac".into(), "ratio", "lower");
    for layer in SPAN_LAYERS {
        push(&mut m, format!("self_s.{layer}"), "s", "lower");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all = per_layer();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue, one `{"name": .., "unit": .., "better": ..}` per line.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        let listed = section.matches("{\"name\"").count();
        let expected: Vec<String> = per_layer()
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect();
        let missing: Vec<&String> = expected.iter().filter(|e| !section.contains(*e)).collect();
        assert!(
            missing.is_empty() && listed == expected.len(),
            "BENCHMARK.json per_layer differs from the catalogue ({listed} listed); expected:\n{}",
            expected.join(",\n")
        );
    }
}
