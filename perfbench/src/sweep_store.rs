//! sweep_store: 24 cheap design points swept cold and then warm through a
//! `SweepService` whose report store is memory plus an in-process
//! `virgo-store` server on loopback, bound to an empty directory for every
//! pass. The cold pass is PUT-heavy and the warm pass (a fresh service)
//! GET-heavy; the multi-cluster points exercise the shared L2/DRAM and the
//! DSM fabric.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use virgo::{DesignKind, SimKey};
use virgo_bench::ReportDigest;
use virgo_kernels::GemmShape;
use virgo_sim::SplitMix64;
use virgo_store::{EntryDir, StoreHandle, StoreServer};
use virgo_sweep::{
    host_parallelism, DiskStore, MemoryStore, Query, RemoteStore, ReportCache, ReportStore,
    StoreTier, SweepOutcome, SweepPool, SweepService, SweepWorkload, TieredStore,
    DEFAULT_MAX_CYCLES,
};

use crate::timed_store::{TimedStore, LOAD, SAVE};
use crate::trace::{Span, Tracer};
use crate::{check_macs, paper, shuffle, stats, Pass};

/// The 24 points in an order drawn from `seed`; the set itself is fixed.
pub fn queries(seed: u64) -> Vec<Query> {
    let mut points = Vec::new();
    for design in [DesignKind::Virgo, DesignKind::HopperStyle] {
        for size in [128, 256] {
            for clusters in [1, 2, 4] {
                for channels in [1, 2] {
                    points.push(
                        Query::new(design, GemmShape::square(size))
                            .clusters(clusters)
                            .dram_channels(channels),
                    );
                }
            }
        }
    }
    shuffle(&mut points, &mut SplitMix64::new(seed));
    points
}

/// Pool workers: one per host CPU.
pub fn workers() -> usize {
    host_parallelism()
}

/// A bound store server on an empty directory, and the points to sweep.
pub struct Inputs {
    queries: Vec<Query>,
    keys: Vec<SimKey>,
    server: StoreHandle,
    dir: PathBuf,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Binds a fresh store server on an empty directory under `scratch` and
/// materializes every point's key.
pub fn setup(seed: u64, scratch: &Path, tracer: &Tracer) -> Inputs {
    let dir = scratch.join(format!(
        "store-{}",
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let server = tracer.span(
        "store",
        || "StoreServer::bind".to_string(),
        None,
        |_| {
            StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir))
                .and_then(StoreServer::spawn)
                .expect("bind the in-process store on loopback")
        },
    );
    let queries = queries(seed);
    let keys = queries
        .iter()
        .map(|q| {
            let (config, kernel, mode) = tracer.span(
                "kernels",
                || format!("Query::materialize {q}"),
                None,
                |_| q.materialize(),
            );
            SimKey::digest(&config, &kernel, DEFAULT_MAX_CYCLES, mode)
        })
        .collect();
    Inputs {
        queries,
        keys,
        server,
        dir,
    }
}

fn service(addr: &str, tracer: &Arc<Tracer>) -> SweepService {
    let remote = TimedStore::new(Box::new(RemoteStore::new(addr)), Arc::clone(tracer));
    let store = TieredStore::new(vec![
        Box::new(MemoryStore::new(ReportCache::DEFAULT_CAPACITY)),
        Box::new(remote),
    ]);
    SweepService::new(
        SweepPool::new(workers()),
        ReportCache::with_store(Box::new(store)),
        DEFAULT_MAX_CYCLES,
    )
}

fn sweep(
    service: &SweepService,
    label: &str,
    queries: &[Query],
    tracer: &Tracer,
) -> Vec<Option<SweepOutcome>> {
    tracer
        .span(
            "sweep",
            || format!("SweepService::try_run_all {label}"),
            None,
            |id| tracer.with_context(id, || service.try_run_all(queries)),
        )
        .into_iter()
        .map(Result::ok)
        .collect()
}

fn durations_ms(spans: &[Span], prefix: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Sweeps cold, then warm on a fresh service, and checks cached ≡ fresh.
pub fn pass(inputs: Inputs, tracer: &Arc<Tracer>) -> Pass {
    let mut out = Pass::default();
    let addr = inputs.server.addr().to_string();
    let (cold_service, cold) = out.call("cold", || {
        let service = service(&addr, tracer);
        let outcomes = sweep(&service, "cold", &inputs.queries, tracer);
        (service, outcomes)
    });
    let (warm_service, warm) = out.call("warm", || {
        let service = service(&addr, tracer);
        let outcomes = sweep(&service, "warm", &inputs.queries, tracer);
        (service, outcomes)
    });

    let n = inputs.queries.len();
    let mut utilization = Vec::new();
    let (mut dsm_bytes, mut contention) = (0, 0);
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let query = &inputs.queries[i];
        out.attempted += 1;
        let (Some(c), Some(w)) = (c, w) else {
            out.fail(format!("{query}: the sweep pool gave up on the point"));
            continue;
        };
        check_macs(&mut out, &query.to_string(), &c.report);
        if c.from_cache || !w.from_cache {
            out.fail(format!("{query}: cold pass hit or warm pass missed"));
        }
        if ReportDigest::of(&c.report) != ReportDigest::of(&w.report) {
            out.fail(format!("{query}: warm report differs from the cold one"));
        }
        out.sim_cycles += c.report.cycles().get();
        dsm_bytes += c.report.dsm_bytes();
        contention += c.report.dram_contention_stall_cycles();
        let point = query.point().expect("built from a point");
        let paper_cell = point.clusters == 1
            && point.dram_channels == 1
            && point.workload == SweepWorkload::Gemm(GemmShape::square(256));
        if paper_cell {
            let cell = match point.design {
                DesignKind::Virgo => "virgo_256",
                _ => "hopper_256",
            };
            let pct = c.report.mac_utilization().as_fraction() * 100.0;
            out.count(format!("fidelity.mac_util_pct.{cell}"), pct);
            utilization.push((cell, pct));
        }
    }

    let cold_stats = cold_service.cache_stats();
    let warm_stats = warm_service.cache_stats();
    let cold_remote = cold_service.cache().store_stats_for(StoreTier::Remote);
    let warm_remote = warm_service.cache().store_stats_for(StoreTier::Remote);
    let unreachable = cold_stats.store_unreachable + warm_stats.store_unreachable;
    let protocol_errors = inputs
        .server
        .stats()
        .protocol_errors
        .load(Ordering::Relaxed);
    // Every simulation plus every store operation (a GET per lookup in each
    // pass, a PUT per cold miss) is one attempted operation.
    out.attempted += 3 * n as u64;
    if unreachable + protocol_errors > 0 {
        out.failed += unreachable + protocol_errors;
        out.errors.push(format!(
            "{unreachable} store operations unreachable, {protocol_errors} protocol errors"
        ));
    }
    if warm_stats.remote_hits != n as u64 {
        out.fail(format!(
            "warm pass: {}/{n} remote hits",
            warm_stats.remote_hits
        ));
    }
    out.count("sweep.cold_misses".into(), cold_stats.misses as f64);
    out.count(
        "sweep.warm_remote_hits".into(),
        warm_stats.remote_hits as f64,
    );
    out.count("sweep.warm_hit_rate".into(), warm_stats.hit_rate());
    out.count("sweep.store_unreachable".into(), unreachable as f64);
    out.count(
        "store.bytes_read".into(),
        (cold_remote.bytes_read + warm_remote.bytes_read) as f64,
    );
    out.count(
        "store.bytes_written".into(),
        (cold_remote.bytes_written + warm_remote.bytes_written) as f64,
    );
    out.count(
        "store.server_protocol_errors".into(),
        protocol_errors as f64,
    );
    out.count("mem.dsm_bytes".into(), dsm_bytes as f64);
    out.count("mem.dram_contention_stall_cycles".into(), contention as f64);
    if let Some(gap) = paper::mean_abs_gap_pp(&utilization) {
        out.count("fidelity.gap_pp".into(), gap);
    }

    out.timing_sum_ms("kernels.build_ms", tracer, |s| s.layer == "kernels");
    if tracer.enabled() {
        // Disk probe: the server's own entry directory read directly, which
        // separates disk time from client + wire time in the GETs above.
        let disk = DiskStore::new(&inputs.dir);
        for key in &inputs.keys {
            let hit = tracer.span(
                "store",
                || "DiskStore::load".to_string(),
                None,
                |_| disk.load(*key),
            );
            if hit.is_none() {
                out.fail(format!(
                    "disk probe: {} missing on the server",
                    key.to_hex()
                ));
            }
        }
        let spans = tracer.spans_of_current_run();
        for s in &spans {
            match s.name.as_str() {
                "SweepService::try_run_all cold" => {
                    out.timing("sweep.cold_s".into(), s.dur_ns() as f64 / 1e9)
                }
                "SweepService::try_run_all warm" => {
                    out.timing("sweep.warm_s".into(), s.dur_ns() as f64 / 1e9)
                }
                _ => {}
            }
        }
        let gets = durations_ms(&spans, LOAD);
        out.timing("store.get_ms_p50".into(), stats::percentile(&gets, 0.50));
        out.timing("store.get_ms_p75".into(), stats::percentile(&gets, 0.75));
        let puts = durations_ms(&spans, SAVE);
        out.timing("store.put_ms_p50".into(), stats::percentile(&puts, 0.50));
        let disk_gets = durations_ms(&spans, "DiskStore::load");
        out.timing(
            "store.disk_get_ms_p50".into(),
            stats::percentile(&disk_gets, 0.50),
        );
        if gets.len() != 2 * n || puts.len() != n {
            out.fail(format!("{} GETs and {} PUTs timed", gets.len(), puts.len()));
        }
    }
    out
}
