//! The Virgo simulator workspace's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|sweep_store|serve_mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run sets its workload up several times, then repeats measured passes
//! of it for `--seconds` seconds and checks every pass's outputs. Host-speed
//! probes (`calibrate`) run before every timed call and every set-up. With
//! `--trace 0` it reports the end-to-end metrics, host times in seconds at
//! the reference host's speed; with `--trace 1` it alternates untraced and
//! traced passes, reports the per-layer metrics of `catalog::per_layer` from
//! the traced ones and writes their spans as Chrome trace-event JSON next to
//! the executable.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod calibrate;
mod catalog;
mod paper;
mod paper_grid;
mod serve_mix;
mod stats;
mod sweep_store;
mod timed_store;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use virgo::SimReport;
use virgo_sim::SplitMix64;

use calibrate::{HostTime, Probes};
use trace::Tracer;

/// Set-ups timed before every pass (the last one feeds the pass), so
/// `setup_s` is a median of several samples spread over the run even when
/// a run has only a few passes.
const SETUPS_PER_PASS: usize = 5;

/// What one measured pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// The timed phase as a sequence of named calls into the program, with
    /// their host times; together they are the pass's wall.
    pub calls: Vec<(String, HostTime)>,
    /// Simulated cycles completed in the timed phase.
    pub sim_cycles: u64,
    /// Operations attempted (simulations, store operations, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
    /// Deterministic per-layer outputs; they must repeat exactly across
    /// passes and across runs of one build.
    pub counts: BTreeMap<String, f64>,
    /// Per-layer host times taken from this pass's spans (traced passes).
    pub timings: BTreeMap<String, f64>,
    /// Host-speed probes timed before each call.
    pub probes: Probes,
}

impl Pass {
    /// Runs `f` as one timed call of the timed phase, after a host-speed
    /// probe.
    fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.probes.sample();
        let (out, time) = HostTime::measure(f);
        self.calls.push((name.to_string(), time));
        out
    }

    /// Host wall-clock of the whole timed phase, in seconds.
    fn wall_s(&self) -> f64 {
        self.calls.iter().map(|(_, t)| t.wall).sum()
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    fn count(&mut self, name: String, value: f64) {
        self.counts.insert(name, value);
    }

    fn timing(&mut self, name: String, value: f64) {
        self.timings.insert(name, value);
    }

    /// Records, in milliseconds, the summed duration of this run's spans
    /// that `keep` selects (nothing when tracing is off).
    fn timing_sum_ms(&mut self, name: &str, tracer: &Tracer, keep: impl Fn(&trace::Span) -> bool) {
        if tracer.enabled() {
            let ns: u64 = tracer
                .spans_of_current_run()
                .iter()
                .filter(|s| keep(s))
                .map(trace::Span::dur_ns)
                .sum();
            self.timing(name.to_string(), ns as f64 / 1e6);
        }
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Every report must account for exactly the MACs its kernel asks for.
fn check_macs(out: &mut Pass, what: &str, report: &SimReport) {
    if report.performed_macs() != report.kernel_macs() {
        out.fail(format!(
            "{what}: performed {} MACs, kernel has {}",
            report.performed_macs(),
            report.kernel_macs()
        ));
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper_grid", "sweep_store", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (paper_grid, sweep_store, serve_mix)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Host peak resident memory from `/proc/self/status`, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a of the running executable: the identity of "one build".
fn build_id(exe: &Path) -> std::io::Result<String> {
    let bytes = std::fs::read(exe)?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Ok(format!("{hash:016x}"))
}

/// Compares `counts` with what an earlier run of this build recorded for
/// the same workload and seed, or records them when this is the first.
fn check_counts_across_runs(
    dir: &Path,
    key: &str,
    counts: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let text: String = counts.iter().fold(String::new(), |mut s, (k, v)| {
        let _ = writeln!(s, "{k} {v:?}");
        s
    });
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => {
            let diff: Vec<String> = earlier
                .lines()
                .zip(text.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{a} -> {b}"))
                .collect();
            Err(format!(
                "deterministic counts differ from an earlier run of this build: {}",
                diff.join(", ")
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let tmp = dir.join(format!("{key}.{}.tmp", std::process::id()));
            std::fs::write(&tmp, &text)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("record counts: {e}"))
        }
    }
}

/// Runs the set-up/pass loop of one workload.
struct Runner {
    seconds: u64,
    trace: bool,
    untraced: Arc<Tracer>,
    traced: Arc<Tracer>,
    setups: Vec<HostTime>,
    passes: Vec<(bool, Pass)>,
    probes: Probes,
}

impl Runner {
    fn run<I>(
        &mut self,
        mut setup: impl FnMut(&Tracer) -> I,
        mut pass: impl FnMut(I, &Arc<Tracer>) -> Pass,
    ) {
        let budget = Duration::from_secs(self.seconds);
        let started = Instant::now();
        let mut k = 0u64;
        loop {
            let traced_now = self.trace && k % 2 == 1;
            let tracer = if traced_now {
                &self.traced
            } else {
                &self.untraced
            };
            tracer.set_run(k);
            for _ in 1..SETUPS_PER_PASS {
                self.probes.sample();
                let (inputs, time) = HostTime::measure(|| setup(&self.untraced));
                self.setups.push(time);
                drop(inputs);
            }
            self.probes.sample();
            let (inputs, time) = HostTime::measure(|| setup(tracer));
            self.setups.push(time);
            let done = pass(inputs, tracer);
            self.probes.extend(&done.probes);
            self.passes.push((traced_now, done));
            k += 1;
            // A traced run needs one pass of each kind.
            let both_kinds = !self.trace || k >= 2;
            if started.elapsed() >= budget && both_kinds {
                break;
            }
        }
    }
}

/// Sum over the timed calls of each call's fastest time among `passes`,
/// each time read by `seconds`.
fn fastest(passes: &[&Pass], seconds: impl Fn(&HostTime) -> f64) -> f64 {
    let mut fastest: BTreeMap<&str, f64> = BTreeMap::new();
    for p in passes {
        for (name, time) in &p.calls {
            let best = fastest.entry(name.as_str()).or_insert(f64::INFINITY);
            *best = best.min(seconds(time));
        }
    }
    fastest.values().sum()
}

/// Sum over the timed calls of each call's fastest wall-clock time.
fn fastest_wall(passes: &[&Pass]) -> f64 {
    fastest(passes, |t| t.wall)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("locate the running executable");
    let out_dir = exe.parent().expect("executable directory").to_path_buf();
    let scratch: PathBuf = out_dir.join(format!("perfbench-scratch-{}", std::process::id()));

    let mut runner = Runner {
        seconds: args.seconds,
        trace: args.trace,
        untraced: Arc::new(Tracer::new(false)),
        traced: Arc::new(Tracer::new(true)),
        setups: Vec::new(),
        passes: Vec::new(),
        probes: Probes::default(),
    };
    let seed = args.seed;
    let (threads, connections) = match args.workload.as_str() {
        "paper_grid" => {
            runner.run(paper_grid::setup, |i, t| paper_grid::pass(i, t));
            (1, 0)
        }
        "sweep_store" => {
            runner.run(|t| sweep_store::setup(seed, &scratch, t), sweep_store::pass);
            (sweep_store::workers(), 1)
        }
        _ => {
            runner.run(|t| serve_mix::setup(seed, t), |i, t| serve_mix::pass(i, t));
            (1, 0)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    // ---- checks ---------------------------------------------------------
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (k, (_, p)) in runner.passes.iter().enumerate() {
        attempted += p.attempted;
        failed += p.failed;
        errors.extend(p.errors.iter().map(|e| format!("pass {k}: {e}")));
    }
    let counts = &runner.passes[0].1.counts;
    for (k, (_, p)) in runner.passes.iter().enumerate().skip(1) {
        if &p.counts != counts {
            errors.push(format!("pass {k}: deterministic counts differ from pass 0"));
        }
    }
    let run_key = format!("{}-seed{}", args.workload, args.seed);
    match build_id(&exe) {
        Ok(build) => {
            let dir = out_dir.join("perfbench-counts");
            if let Err(e) = check_counts_across_runs(&dir, &format!("{run_key}-{build}"), counts) {
                errors.push(e);
            }
        }
        Err(e) => errors.push(format!("hash the executable: {e}")),
    }

    // ---- end-to-end metrics (untraced passes) ---------------------------
    let untraced: Vec<&Pass> = runner
        .passes
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, p)| p)
        .collect();
    let wall = fastest_wall(&untraced);
    let speed = runner.probes.speed_factor();
    let ref_wall = fastest(&untraced, |t| t.at_reference(speed));
    let setup_walls: Vec<f64> = runner.setups.iter().map(|t| t.wall).collect();
    let ref_setups: Vec<f64> = runner
        .setups
        .iter()
        .map(|t| t.at_reference(speed))
        .collect();
    let peak_rss = peak_rss_mib().unwrap_or_else(|| {
        errors.push("peak RSS unavailable (/proc/self/status)".to_string());
        0.0
    });
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", stats::median(&ref_setups), "s"),
        ("ref_wall_s", ref_wall, "s"),
        (
            "ref_mcycles_per_s",
            untraced[0].sim_cycles as f64 / ref_wall / 1e6,
            "Mcycle/s",
        ),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];

    let host_cpus = virgo_sweep::host_parallelism();
    println!(
        "perfbench {} seed={} passes={} setups={} host_cpus={host_cpus} threads={threads} \
         connections={connections} trace={}",
        args.workload,
        args.seed,
        runner.passes.len(),
        runner.setups.len(),
        args.trace
    );
    for (k, (traced, p)) in runner.passes.iter().enumerate() {
        let kind = if *traced { "traced" } else { "untraced" };
        println!("  pass {k:<3} {kind:<9} wall {:.6} s", p.wall_s());
    }
    let (hash_s, tree_s) = runner.probes.fastest();
    println!(
        "  host speed factor {speed:.4} from {} probe pairs (fastest hash {hash_s:.6} s, \
         tree {tree_s:.6} s); raw wall {wall:.6} s, raw setup {:.6} s",
        runner.probes.len(),
        stats::median(&setup_walls)
    );
    for (name, value, unit) in &e2e {
        println!("  {name:<18} {value:>14.6} {unit}");
    }
    println!(
        "  {:<18} {:>14.6} ratio ({failed} of {attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(gap) = counts.get("fidelity.gap_pp") {
        println!("  {:<18} {gap:>14.6} pp", "fidelity_gap_pp");
        for r in &paper::REFERENCES {
            if let Some(sim) = counts.get(&format!("fidelity.mac_util_pct.{}", r.cell)) {
                println!(
                    "    {:<10} MAC util {sim:6.2}% vs paper {:5.1}% ({:+.2} pp; {})",
                    r.cell,
                    r.mac_util_pct,
                    sim - r.mac_util_pct,
                    r.source
                );
            }
        }
    }

    // ---- per-layer metrics (traced passes) ------------------------------
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let traced: Vec<&Pass> = runner
            .passes
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, p)| p)
            .collect();
        let mut values: BTreeMap<String, f64> = counts.clone();
        let names: BTreeSet<&String> = traced.iter().flat_map(|p| p.timings.keys()).collect();
        for name in names {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|p| p.timings.get(name).copied())
                .collect();
            values.insert(name.clone(), stats::median(&samples));
        }
        let spans = runner.traced.spans();
        let mut self_by_run: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let runs: BTreeSet<u64> = spans.iter().map(|s| s.run).collect();
        for run in runs {
            let of_run: Vec<trace::Span> = spans.iter().filter(|s| s.run == run).cloned().collect();
            let per_layer = trace::layer_self_ns(&of_run);
            for layer in catalog::SPAN_LAYERS {
                self_by_run
                    .entry(layer)
                    .or_default()
                    .push(per_layer.get(layer).copied().unwrap_or(0) as f64 / 1e9);
            }
        }
        println!("  layer self time (median over traced passes):");
        for (layer, samples) in &self_by_run {
            let seconds = stats::median(samples);
            println!("    {layer:<8} {seconds:>12.6} s");
            values.insert(format!("self_s.{layer}"), seconds);
        }
        values.insert("host.speed_factor".to_string(), speed);
        values.insert("host.raw_wall_s".to_string(), wall);
        values.insert(
            "trace.overhead_frac".to_string(),
            (fastest_wall(&traced) - wall) / wall,
        );
        for m in catalog::per_layer() {
            let value = values.remove(&m.name).unwrap_or(0.0);
            metrics.push((m.name, value, m.unit));
        }
        for name in values.keys() {
            errors.push(format!("metric {name} is missing from the catalogue"));
        }
        let path = out_dir.join(format!("perfbench-trace-{run_key}.json"));
        match std::fs::write(&path, trace::chrome_trace_json(&spans)) {
            Ok(()) => println!("  spans: {} -> {}", spans.len(), path.display()),
            Err(e) => errors.push(format!("write {}: {e}", path.display())),
        }
        for (name, value, unit) in &metrics {
            println!("  {name:<44} {value:>16.6} {unit}");
        }
    } else {
        metrics = e2e
            .iter()
            .map(|(n, v, u)| (n.to_string(), *v, *u))
            .collect();
    }

    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            *value
        } else {
            errors.push(format!("{name} is {value}"));
            0.0
        };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for e in &errors {
        eprintln!("perfbench check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        errors.is_empty()
    );
    ExitCode::SUCCESS
}
