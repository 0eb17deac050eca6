//! A model registry with memory-residency accounting.
//!
//! Deployed predictors are not free to keep warm: an AutoGluon stack is
//! dozens of serialised fold models, and a fleet that hosts many of them
//! pages artefacts in and out of memory. The registry models exactly that —
//! every registered [`Predictor`] has a byte footprint
//! ([`Predictor::memory_bytes`]); at most `capacity_bytes` of models are
//! resident at once, evicted least-recently-used; fetching a non-resident
//! model is a *cold load* that charges its full footprint as `mem_bytes`
//! through the caller's [`CostTracker`], so registry thrash shows up in the
//! energy report like any other work.
//!
//! ## Multi-tenant determinism
//!
//! A fleet region's registry hosts one model per tenant, and eviction order
//! is part of the deterministic record: which tenant's model gets paged out
//! decides who pays the next cold load. Eviction is therefore a **pure
//! function of (access sequence, tenant id)**: the victim is the resident
//! entry with the smallest `(last_used, tenant, name)` triple. `last_used`
//! ticks are unique for individual [`ModelRegistry::fetch`]es, but
//! [`ModelRegistry::warm_all`] deliberately stamps every model with the
//! *same* access tick (warming is one access event), so ties are real —
//! they break by tenant id (lowest evicts first), then name, never by
//! registration order or any other incidental state.

use std::sync::Arc;

use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};
use green_automl_systems::Predictor;

struct Entry {
    name: String,
    tenant: u32,
    predictor: Arc<Predictor>,
    bytes: f64,
    resident: bool,
    last_used: u64,
}

/// Cumulative registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Fetches answered from resident memory.
    pub hits: usize,
    /// Fetches that had to (re-)load the artefact, charging `mem_bytes`.
    pub cold_loads: usize,
    /// Models evicted to stay under the residency cap.
    pub evictions: usize,
}

/// An LRU-capped store of deployed predictors.
pub struct ModelRegistry {
    capacity_bytes: f64,
    entries: Vec<Entry>,
    tick: u64,
    stats: RegistryStats,
}

impl ModelRegistry {
    /// A registry that keeps at most `capacity_bytes` of models resident.
    ///
    /// A single model larger than the cap is still served: it becomes the
    /// only resident model and every *other* model's next fetch is cold.
    pub fn with_capacity_bytes(capacity_bytes: f64) -> ModelRegistry {
        assert!(
            !capacity_bytes.is_nan() && capacity_bytes > 0.0,
            "capacity must be positive"
        );
        ModelRegistry {
            capacity_bytes,
            entries: Vec::new(),
            tick: 0,
            stats: RegistryStats::default(),
        }
    }

    /// A registry with effectively unlimited residency (every model is cold
    /// exactly once).
    pub fn unbounded() -> ModelRegistry {
        ModelRegistry::with_capacity_bytes(f64::INFINITY)
    }

    /// Register a predictor under `name` for tenant 0, returning its byte
    /// footprint. Registration stores the artefact but does not make it
    /// resident — the first fetch pays the cold load.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register(&mut self, name: &str, predictor: Predictor) -> f64 {
        self.register_for_tenant(name, 0, Arc::new(predictor))
    }

    /// Register a shared predictor under `name` owned by `tenant`. The
    /// tenant id participates in the deterministic eviction order (see the
    /// module docs) and in per-tenant residency accounting. Taking an
    /// [`Arc`] lets one artefact back the registries of many regions
    /// without a copy per region.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn register_for_tenant(
        &mut self,
        name: &str,
        tenant: u32,
        predictor: Arc<Predictor>,
    ) -> f64 {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "model {name:?} already registered"
        );
        let bytes = predictor.memory_bytes();
        self.entries.push(Entry {
            name: name.to_string(),
            tenant,
            predictor,
            bytes,
            resident: false,
            last_used: 0,
        });
        bytes
    }

    /// Fetch a model for serving. A resident model is a hit; otherwise the
    /// artefact's full footprint is charged to `tracker` as a memory
    /// transfer and least-recently-used models are evicted until the cap
    /// holds again.
    ///
    /// Returns `None` for an unknown name.
    pub fn fetch(&mut self, name: &str, tracker: &mut CostTracker) -> Option<Arc<Predictor>> {
        let idx = self.entries.iter().position(|e| e.name == name)?;
        self.tick += 1;
        if self.entries[idx].resident {
            self.stats.hits += 1;
        } else {
            self.stats.cold_loads += 1;
            tracker.charge(
                OpCounts::mem(self.entries[idx].bytes),
                ParallelProfile::serial(),
            );
            self.entries[idx].resident = true;
        }
        self.entries[idx].last_used = self.tick;
        self.evict_over_cap(idx);
        Some(Arc::clone(&self.entries[idx].predictor))
    }

    /// Warm every registered model in one access event: each non-resident
    /// model cold-loads (charged to `tracker`), every entry is stamped with
    /// the **same** access tick, and the cap is enforced afterwards in
    /// registration order. Deliberately creating `last_used` ties is what
    /// makes the tenant-id tie-break observable — a fleet region warms its
    /// tenants' models at startup and the subsequent eviction order must
    /// not depend on incidental registration state.
    pub fn warm_all(&mut self, tracker: &mut CostTracker) {
        self.tick += 1;
        let tick = self.tick;
        for idx in 0..self.entries.len() {
            if !self.entries[idx].resident {
                self.stats.cold_loads += 1;
                tracker.charge(
                    OpCounts::mem(self.entries[idx].bytes),
                    ParallelProfile::serial(),
                );
                self.entries[idx].resident = true;
            }
            self.entries[idx].last_used = tick;
            self.evict_over_cap(idx);
        }
    }

    /// Evict residents (never the just-touched `keep`) until the cap
    /// holds. The victim is the resident entry minimising
    /// `(last_used, tenant, name)` — a pure function of the access
    /// sequence and the tenant ids, so multi-tenant residency is
    /// deterministic even when accesses tie on `last_used` (which
    /// [`ModelRegistry::warm_all`] makes routine).
    fn evict_over_cap(&mut self, keep: usize) {
        while self.resident_bytes() > self.capacity_bytes {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(i, e)| *i != keep && e.resident)
                .min_by_key(|(_, e)| (e.last_used, e.tenant, e.name.as_str()))
                .map(|(i, _)| i);
            match victim {
                Some(v) => {
                    self.entries[v].resident = false;
                    self.stats.evictions += 1;
                }
                // Only the pinned model is left; an over-cap single model
                // stays resident (documented in `with_capacity_bytes`).
                None => break,
            }
        }
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.resident)
            .map(|e| e.bytes)
            .sum()
    }

    /// Bytes currently resident for one tenant.
    pub fn resident_bytes_for(&self, tenant: u32) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.resident && e.tenant == tenant)
            .map(|e| e.bytes)
            .sum()
    }

    /// `true` if `name` is registered and currently resident.
    pub fn is_resident(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name && e.resident)
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative hit/cold-load/eviction counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_energy::Device;

    fn constant() -> Predictor {
        Predictor::Constant {
            class: 0,
            n_classes: 2,
        }
    }

    fn shared() -> Arc<Predictor> {
        Arc::new(constant())
    }

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    #[test]
    fn cold_load_charges_bytes_then_hits_are_free() {
        let mut reg = ModelRegistry::unbounded();
        let bytes = reg.register("m", constant());
        assert!(bytes > 0.0);
        let mut t = tracker();
        let _ = reg.fetch("m", &mut t).expect("registered");
        assert!((t.measurement().ops.mem_bytes - bytes).abs() < 1e-9);
        let before = t.measurement();
        let _ = reg.fetch("m", &mut t).expect("registered");
        assert_eq!(t.measurement().ops.mem_bytes, before.ops.mem_bytes);
        assert_eq!(
            reg.stats(),
            RegistryStats {
                hits: 1,
                cold_loads: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_evicts_the_stalest_model() {
        // Capacity fits exactly two constant predictors.
        let probe = constant().memory_bytes();
        let mut reg = ModelRegistry::with_capacity_bytes(2.0 * probe);
        for name in ["a", "b", "c"] {
            reg.register(name, constant());
        }
        let mut t = tracker();
        let _ = reg.fetch("a", &mut t);
        let _ = reg.fetch("b", &mut t);
        // Touch "a" so "b" is stalest, then load "c" → "b" evicted.
        let _ = reg.fetch("a", &mut t);
        let _ = reg.fetch("c", &mut t);
        assert_eq!(reg.stats().evictions, 1);
        let mem_before = t.measurement().ops.mem_bytes;
        let _ = reg.fetch("a", &mut t); // still resident → hit
        assert_eq!(t.measurement().ops.mem_bytes, mem_before);
        let _ = reg.fetch("b", &mut t); // evicted → cold again
        assert!(t.measurement().ops.mem_bytes > mem_before);
    }

    #[test]
    fn eviction_ties_break_by_tenant_id_then_name() {
        // Regression for the multi-tenant eviction-tie case: warm_all
        // stamps every model with the same access tick, so the next
        // over-cap fetch must pick its victim by tenant id — not by
        // registration order, which here is deliberately adversarial
        // (highest tenant registered first).
        let probe = constant().memory_bytes();
        let mut reg = ModelRegistry::with_capacity_bytes(2.0 * probe);
        reg.register_for_tenant("m2", 2, shared());
        reg.register_for_tenant("m1", 1, shared());
        reg.register_for_tenant("m0", 0, shared());
        let mut t = tracker();
        // Warming enforces the cap in registration order with tied ticks:
        // loading m1 evicts nothing (2 fit), loading m0 ties m2 vs m1 →
        // the lower tenant id (1) evicts.
        reg.warm_all(&mut t);
        assert!(reg.is_resident("m2"));
        assert!(!reg.is_resident("m1"));
        assert!(reg.is_resident("m0"));
        // Next over-cap load ties m2 vs m0 at the warm tick → tenant 0
        // evicts, even though m2 was registered first.
        let _ = reg.fetch("m1", &mut t);
        assert!(reg.is_resident("m2"));
        assert!(reg.is_resident("m1"));
        assert!(!reg.is_resident("m0"));
        assert_eq!(reg.stats().evictions, 2);
        // Per-tenant residency accounting follows.
        assert_eq!(reg.resident_bytes_for(0), 0.0);
        assert!((reg.resident_bytes_for(1) - probe).abs() < 1e-9);
        assert!((reg.resident_bytes_for(2) - probe).abs() < 1e-9);
    }

    #[test]
    fn tied_tenants_break_by_name() {
        let probe = constant().memory_bytes();
        let mut reg = ModelRegistry::with_capacity_bytes(2.0 * probe);
        // Same tenant everywhere: the (last_used, tenant, name) order
        // falls through to the name.
        reg.register_for_tenant("zz", 7, shared());
        reg.register_for_tenant("aa", 7, shared());
        reg.register_for_tenant("mm", 7, shared());
        let mut t = tracker();
        reg.warm_all(&mut t);
        // Warming: zz, aa resident; loading mm ties zz vs aa → "aa"
        // (lexicographically least) evicts.
        assert!(reg.is_resident("zz"));
        assert!(!reg.is_resident("aa"));
        assert!(reg.is_resident("mm"));
    }

    #[test]
    fn warm_all_is_one_access_event_and_idempotent_on_energy() {
        let mut reg = ModelRegistry::unbounded();
        reg.register_for_tenant("a", 0, shared());
        reg.register_for_tenant("b", 1, shared());
        let mut t = tracker();
        reg.warm_all(&mut t);
        assert_eq!(reg.stats().cold_loads, 2);
        let after_first = t.measurement().ops.mem_bytes;
        // Everything already resident: a second warm charges nothing.
        reg.warm_all(&mut t);
        assert_eq!(reg.stats().cold_loads, 2);
        assert_eq!(t.measurement().ops.mem_bytes, after_first);
    }

    #[test]
    fn one_shared_artefact_backs_many_registries() {
        let model = shared();
        let mut regions = [ModelRegistry::unbounded(), ModelRegistry::unbounded()];
        for reg in &mut regions {
            reg.register_for_tenant("m", 0, Arc::clone(&model));
        }
        let mut t = tracker();
        for reg in &mut regions {
            let fetched = reg.fetch("m", &mut t).expect("registered");
            assert!(Arc::ptr_eq(&fetched, &model));
            // Residency is still per registry: each region pays its own
            // cold load.
            assert_eq!(reg.stats().cold_loads, 1);
        }
    }

    #[test]
    fn unknown_model_is_none() {
        let mut reg = ModelRegistry::unbounded();
        let mut t = tracker();
        assert!(reg.fetch("nope", &mut t).is_none());
    }
}
