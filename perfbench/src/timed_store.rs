//! A timing decorator for a report-store tier. It implements the public
//! `virgo_sweep::ReportStore` trait around the remote tier handed to
//! `ReportCache::with_store`, so per-operation GET/PUT latency is measured
//! from outside `virgo-sweep`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use virgo::{SimKey, SimReport};
use virgo_sweep::{ReportStore, StoreHit, StoreStats, StoreTier};

use crate::trace::{thread_number, Tracer};

/// Span name of a timed load.
pub const LOAD: &str = "RemoteStore::load";
/// Span name of a timed save.
pub const SAVE: &str = "RemoteStore::save";

/// Wraps a store tier and records a `store` span around every load and
/// save. A miss followed by a save of the same key on the same thread
/// brackets the simulation the cache ran in between; that interval is
/// recorded as a `core` span, which is the only view into the sweep
/// pool's simulations the public API gives.
#[derive(Debug)]
pub struct TimedStore {
    inner: Box<dyn ReportStore>,
    tracer: Arc<Tracer>,
    /// End of the last miss per (thread, key), waiting for its save.
    misses: Mutex<HashMap<(u64, SimKey), u64>>,
}

impl TimedStore {
    /// Decorates `inner`; spans go to `tracer` (nothing is recorded when it
    /// is disabled).
    pub fn new(inner: Box<dyn ReportStore>, tracer: Arc<Tracer>) -> Self {
        TimedStore {
            inner,
            tracer,
            misses: Mutex::new(HashMap::new()),
        }
    }

    fn pending(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, SimKey), u64>> {
        self.misses.lock().expect("timed store miss table lock")
    }
}

impl ReportStore for TimedStore {
    fn tier(&self) -> StoreTier {
        self.inner.tier()
    }

    fn load(&self, key: SimKey) -> Option<StoreHit> {
        if !self.tracer.enabled() {
            return self.inner.load(key);
        }
        let start = self.tracer.now_ns();
        let hit = self.inner.load(key);
        let end = self.tracer.now_ns();
        let outcome = if hit.is_some() { "hit" } else { "miss" };
        self.tracer.record(
            "store",
            format!("{LOAD} {outcome} {}", &key.to_hex()[..8]),
            self.tracer.context(),
            start,
            end,
        );
        if hit.is_none() {
            self.pending().insert((thread_number(), key), end);
        }
        hit
    }

    fn save(&self, key: SimKey, report: &Arc<SimReport>) {
        if !self.tracer.enabled() {
            return self.inner.save(key, report);
        }
        let start = self.tracer.now_ns();
        let short = &key.to_hex()[..8];
        if let Some(miss_end) = self.pending().remove(&(thread_number(), key)) {
            self.tracer.record(
                "core",
                format!("simulate {short} (between miss and save)"),
                self.tracer.context(),
                miss_end,
                start,
            );
        }
        self.inner.save(key, report);
        let end = self.tracer.now_ns();
        self.tracer.record(
            "store",
            format!("{SAVE} {short}"),
            self.tracer.context(),
            start,
            end,
        );
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}
