//! Host-speed calibration.
//!
//! A shared host's speed drifts with its other tenants: the simulator's
//! single-threaded passes ran up to 1.8x slower for minutes at a time, and
//! most of that slowdown is cache and core contention, not hypervisor steal,
//! so CPU time does not remove it. The benchmark therefore times two fixed
//! probes, a hash-map and a B-tree churn over a 64 Ki key space, before every
//! timed call and every set-up. Their fastest times in a run,
//! against the times the probes take on a quiet reference host, give the
//! run's speed factor. An end-to-end host time is reported at the reference
//! host's speed: the part of it the process spent on a CPU is multiplied by
//! the factor, and the rest (socket and timer waits, hypervisor steal) is
//! kept as measured. The probes are this package's own code, so a change to
//! the simulator moves the timed calls and not the factor.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Operations per probe (about 25 ms each on the reference host).
const HASH_OPS: u64 = 600_000;
const TREE_OPS: u64 = 150_000;

/// Fastest probe times on the reference host (Intel Xeon VM at 2.0 GHz,
/// 2 vCPUs, quiet phase), in seconds.
const HASH_REF_S: f64 = 0.0210;
const TREE_REF_S: f64 = 0.0300;

/// Key space of both probes: 64 Ki keys, about 1.5 MiB of map.
const KEY_MASK: u64 = 0xFFFF;

/// Host time of one timed call or set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Seconds of that wall the process spent on a CPU (any thread, at
    /// most `wall`).
    pub busy: f64,
}

impl HostTime {
    /// Times `f`.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HostTime) {
        let cpu = process_cpu_s();
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        let busy = (process_cpu_s() - cpu).clamp(0.0, wall);
        (out, HostTime { wall, busy })
    }

    /// The time at the reference host's speed, given the run's speed
    /// factor.
    pub fn at_reference(&self, speed: f64) -> f64 {
        self.wall - self.busy + self.busy * speed
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the whole process (live and exited threads), in seconds.
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C library's 64-bit `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*x >> 40) & KEY_MASK
}

/// Counts pseudo-random keys in a fresh hash map with a fixed hasher and
/// reads each key's neighbour back.
fn hash_probe(ops: u64) -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let (mut x, mut acc) = (12_345u64, 0u64);
    for _ in 0..ops {
        let k = lcg(&mut x);
        *map.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    acc
}

/// The same churn on a B-tree map.
fn tree_probe(ops: u64) -> u64 {
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut x, mut acc) = (54_321u64, 0u64);
    for _ in 0..ops {
        let k = lcg(&mut x);
        *map.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    acc
}

fn timed(f: impl FnOnce() -> u64) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

/// Probe samples of one run.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    hash_s: Vec<f64>,
    tree_s: Vec<f64>,
}

impl Probes {
    /// Times both probes once.
    pub fn sample(&mut self) {
        self.hash_s.push(timed(|| hash_probe(black_box(HASH_OPS))));
        self.tree_s.push(timed(|| tree_probe(black_box(TREE_OPS))));
    }

    pub fn extend(&mut self, other: &Probes) {
        self.hash_s.extend(&other.hash_s);
        self.tree_s.extend(&other.tree_s);
    }

    pub fn len(&self) -> usize {
        self.hash_s.len()
    }

    /// Fastest time of each probe in seconds, `(hash, tree)`.
    pub fn fastest(&self) -> (f64, f64) {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        (min(&self.hash_s), min(&self.tree_s))
    }

    /// Reference-host time per host second: the geometric mean of the two
    /// probes' reference time over their fastest time in this run. Below 1
    /// on a host slower than the reference.
    pub fn speed_factor(&self) -> f64 {
        let (hash, tree) = self.fastest();
        (HASH_REF_S / hash * (TREE_REF_S / tree)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_deterministic() {
        assert_eq!(hash_probe(10_000), hash_probe(10_000));
        assert_eq!(tree_probe(10_000), tree_probe(10_000));
    }

    #[test]
    fn speed_factor_is_one_at_the_reference_times() {
        let probes = Probes {
            hash_s: vec![HASH_REF_S * 2.0, HASH_REF_S],
            tree_s: vec![TREE_REF_S, TREE_REF_S * 3.0],
        };
        assert!((probes.speed_factor() - 1.0).abs() < 1e-12);
        let slow = Probes {
            hash_s: vec![HASH_REF_S * 2.0],
            tree_s: vec![TREE_REF_S * 2.0],
        };
        assert!((slow.speed_factor() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn only_busy_time_is_rescaled() {
        let t = HostTime {
            wall: 3.0,
            busy: 1.0,
        };
        assert!((t.at_reference(0.5) - 2.5).abs() < 1e-12);
        assert!((t.at_reference(1.0) - 3.0).abs() < 1e-12);
        let (_, spin) = HostTime::measure(|| tree_probe(black_box(TREE_OPS)));
        assert!(spin.busy > 0.0 && spin.busy <= spin.wall);
    }
}
