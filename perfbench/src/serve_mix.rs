//! serve_mix: the serving bench's two-tenant trace, generated from the seed
//! and replayed by `Server::run` with continuous FIFO batching on a
//! 4-cluster Virgo and a 4-cluster Ampere-style machine. It is the only
//! workload driven by `JobTable::advance_until`.

use virgo::{DesignKind, GpuConfig, SimMode};
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_serve::{
    generate_trace, ArbitrationPolicy, BatchingMode, Request, RequestClass, ServeConfig, Server,
    TenantSpec,
};
use virgo_sim::SplitMix64;

use crate::catalog::SERVE_MACHINES;
use crate::trace::Tracer;
use crate::{check_macs, shuffle, Pass};

const CLUSTERS: u32 = 4;
const PER_TENANT: usize = 8;
/// Mean inter-arrival gap per tenant, in cycles: the serving bench's
/// heaviest offered load, where requests queue.
const MEAN_INTERARRIVAL: u64 = 20_000;

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("interactive", MEAN_INTERARRIVAL).with_classes(vec![
            RequestClass::Gemm(GemmShape::square(128)),
            RequestClass::Attention(AttentionShape {
                seq_len: 128,
                head_dim: 64,
                heads: 1,
                batch: 1,
            }),
        ]),
        TenantSpec::new("batch", MEAN_INTERARRIVAL)
            .with_classes(vec![RequestClass::Gemm(GemmShape::square(256))])
            .with_clusters(2),
    ]
}

/// Gives each tenant an equal share of each of its classes, in an order
/// drawn from `seed`. `generate_trace` draws every request's class
/// independently, so the number of attention requests, and with it the
/// work of a replay, would otherwise change from seed to seed; the seed
/// still sets every arrival and the class order.
fn balanced(mut trace: Vec<Request>, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ 0x0C1A_55E5);
    for tenant in tenants() {
        let slots: Vec<usize> = (0..trace.len())
            .filter(|&i| trace[i].tenant == tenant.name)
            .collect();
        let mut classes: Vec<RequestClass> = (0..slots.len())
            .map(|i| tenant.classes[i % tenant.classes.len()])
            .collect();
        shuffle(&mut classes, &mut rng);
        for (slot, class) in slots.into_iter().zip(classes) {
            trace[slot].class = class;
        }
    }
    trace
}

/// The generated trace and the two machines it is replayed on.
pub struct Inputs {
    trace: Vec<Request>,
    machines: Vec<(&'static str, GpuConfig)>,
    /// Requests whose kernel does not carry the class's MAC count.
    invalid: Vec<String>,
}

/// Generates the trace from `seed` and validates it: every distinct
/// request kind is built once per machine with `RequestClass::build`, on
/// the allocation the server would give it, and must carry the MACs the
/// class declares.
pub fn setup(seed: u64, tracer: &Tracer) -> Inputs {
    let trace = tracer.span(
        "serve",
        || "generate_trace".to_string(),
        None,
        |_| balanced(generate_trace(&tenants(), PER_TENANT, seed), seed),
    );
    let machines = SERVE_MACHINES
        .iter()
        .map(|&m| {
            let design = if m == "virgo" {
                DesignKind::Virgo
            } else {
                DesignKind::AmpereStyle
            };
            (m, GpuConfig::for_design(design).with_clusters(CLUSTERS))
        })
        .collect::<Vec<_>>();
    let mut kinds: Vec<(RequestClass, u32)> = trace.iter().map(|r| (r.class, r.clusters)).collect();
    kinds.sort_by_key(|(class, clusters)| (class.label(), *clusters));
    kinds.dedup();
    let mut invalid = Vec::new();
    for (m, gpu) in &machines {
        for (class, clusters) in &kinds {
            let allocation = gpu.clone().with_allocation((0..*clusters).collect());
            let kernel = tracer.span(
                "kernels",
                || format!("RequestClass::build {class} x{clusters} {m}"),
                None,
                |_| class.build(&allocation),
            );
            if kernel.info.total_macs != class.cost_macs() {
                invalid.push(format!(
                    "{m}: {class} builds {} MACs",
                    kernel.info.total_macs
                ));
            }
        }
    }
    Inputs {
        trace,
        machines,
        invalid,
    }
}

/// Replays the trace on both machines and checks every request.
pub fn pass(inputs: Inputs, tracer: &Tracer) -> Pass {
    let mut out = Pass::default();
    for error in &inputs.invalid {
        out.fail(error.clone());
    }
    let reports: Vec<_> = inputs
        .machines
        .iter()
        .map(|(m, gpu)| {
            let server = Server::new(
                ServeConfig::new(gpu.clone())
                    .with_mode(SimMode::FastForward)
                    .with_policy(ArbitrationPolicy::Fifo)
                    .with_batching(BatchingMode::Continuous),
            );
            out.call(m, || {
                tracer.span(
                    "serve",
                    || format!("Server::run {m}"),
                    None,
                    |_| server.run(&inputs.trace),
                )
            })
        })
        .collect();

    for ((m, _), report) in inputs.machines.iter().zip(&reports) {
        out.attempted += inputs.trace.len() as u64;
        out.sim_cycles += report.makespan_cycles;
        if report.outcomes.len() != inputs.trace.len() {
            out.fail(format!(
                "{m}: {} of {} requests came back",
                report.outcomes.len(),
                inputs.trace.len()
            ));
        }
        for outcome in &report.outcomes {
            if outcome.timed_out {
                out.fail(format!("{m}: request {} timed out", outcome.id));
            } else if let Some(r) = &outcome.report {
                check_macs(&mut out, &format!("{m} request {}", outcome.id), r);
            }
        }
        out.count(format!("serve.completed.{m}"), report.completed() as f64);
        out.count(format!("serve.timed_out.{m}"), report.timed_out() as f64);
        out.count(
            format!("serve.makespan_cycles.{m}"),
            report.makespan_cycles as f64,
        );
        out.count(
            format!("serve.p50_latency_cycles.{m}"),
            report.p50_latency_cycles as f64,
        );
        out.count(
            format!("serve.p99_latency_cycles.{m}"),
            report.p99_latency_cycles as f64,
        );
        out.count(
            format!("serve.energy_per_request_mj.{m}"),
            report.energy_per_request_mj,
        );
    }

    for span in tracer.spans_of_current_run() {
        if let Some(m) = span.name.strip_prefix("Server::run ") {
            let seconds = span.dur_ns() as f64 / 1e9;
            out.timing(format!("serve.replay_s.{m}"), seconds);
            let makespan = out.counts[&format!("serve.makespan_cycles.{m}")];
            out.timing(
                format!("serve.host_ns_per_cluster_cycle.{m}"),
                seconds * 1e9 / (makespan * f64::from(CLUSTERS)).max(1.0),
            );
        }
    }
    out.timing_sum_ms("serve.trace_gen_ms", tracer, |s| s.name == "generate_trace");
    out.timing_sum_ms("kernels.build_ms", tracer, |s| s.layer == "kernels");
    out
}
