//! The KV scenario registry: named service shapes for the `bench_kv`
//! binary, mirroring the closed-loop [`rhtm_workloads::Scenario`]
//! registry.  A KV scenario fixes `shards × key space × mix`; the
//! `spec=`, `shards=`, `rate=` and `arrival=` CLI axes sweep around it.

use rhtm_workloads::TmSpec;

use crate::load::KvMix;
use crate::service::{KvConfig, KvService};

/// One named service shape.
#[derive(Clone, Copy, Debug)]
pub struct KvScenario {
    /// Unique registry name (CLI handle and JSON `scenario` field).
    pub name: &'static str,
    /// Default shard count (overridable by the `shards=` axis).
    pub shards: usize,
    /// Global key space.
    pub key_space: u64,
    /// The operation mix the generator draws from.
    pub mix: KvMix,
    /// One-line description shown by `bench_kv --list`.
    pub about: &'static str,
}

/// The registry.  Names must stay unique and stable (they key the
/// `bench_kv` JSON and `benchmark/`'s workloads).
const REGISTRY: &[KvScenario] = &[
    KvScenario {
        name: "kv-point-ops",
        shards: 4,
        key_space: 8_192,
        mix: KvMix {
            get_pct: 70,
            put_pct: 20,
            delete_pct: 10,
            transfer_pct: 0,
        },
        about: "single-key get/put/delete cache shape: every request touches one shard",
    },
    KvScenario {
        name: "kv-transfer",
        shards: 4,
        key_space: 4_096,
        mix: KvMix {
            get_pct: 30,
            put_pct: 0,
            delete_pct: 0,
            transfer_pct: 60,
        },
        about: "transfer-heavy bank shape: the two-shard commit path, conservation-checkable",
    },
    KvScenario {
        name: "kv-transfer-contended",
        shards: 2,
        key_space: 512,
        mix: KvMix {
            get_pct: 10,
            put_pct: 0,
            delete_pct: 0,
            transfer_pct: 85,
        },
        about: "hot transfers over few accounts on two shards: cross-shard traffic dominates",
    },
    KvScenario {
        name: "kv-wide",
        shards: 8,
        key_space: 16_384,
        mix: KvMix {
            get_pct: 60,
            put_pct: 20,
            delete_pct: 10,
            transfer_pct: 5,
        },
        about: "eight-way partition with a trickle of cross-shard work: the scaling shape",
    },
    KvScenario {
        name: "kv-churn-1m",
        shards: 4,
        key_space: 1_000_000,
        mix: KvMix {
            get_pct: 40,
            put_pct: 30,
            delete_pct: 30,
            transfer_pct: 0,
        },
        about: "insert/remove steady state over a million keys: the memory-subsystem shape \
                (segmented heaps, arena allocation, epoch reclamation)",
    },
];

impl KvScenario {
    /// Every registered KV scenario, in display order.
    pub fn all() -> &'static [KvScenario] {
        REGISTRY
    }

    /// Looks a scenario up by its registry name (case-insensitive).
    pub fn find(name: &str) -> Option<&'static KvScenario> {
        let name = name.trim().to_ascii_lowercase();
        REGISTRY.iter().find(|s| s.name == name)
    }

    /// Builds the scenario's service from `spec` with `shards` shards
    /// (pass [`KvScenario::shards`] for the registered default), sized
    /// for `workers` concurrent workers.
    pub fn service(&self, spec: &TmSpec, shards: usize, workers: usize) -> KvService {
        self.service_with_keys(spec, shards, workers, self.key_space)
    }

    /// [`KvScenario::service`] with the key space overridden (the
    /// `keys=` CLI axis): same mix and shape, different footprint.
    pub fn service_with_keys(
        &self,
        spec: &TmSpec,
        shards: usize,
        workers: usize,
        key_space: u64,
    ) -> KvService {
        KvService::new(spec, &KvConfig::new(shards, key_space, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhtm_workloads::AlgoKind;

    #[test]
    fn registry_is_unique_and_findable() {
        let all = KvScenario::all();
        assert!(all.len() >= 4, "at least four KV scenarios");
        for (i, s) in all.iter().enumerate() {
            assert!(KvScenario::find(s.name).is_some(), "{}", s.name);
            assert!(s.name.starts_with("kv-"), "{}", s.name);
            for other in &all[i + 1..] {
                assert_ne!(s.name, other.name, "duplicate scenario name");
            }
        }
        assert!(KvScenario::find("KV-POINT-OPS").is_some(), "case-folded");
        assert!(KvScenario::find("kv-nope").is_none());
    }

    #[test]
    fn transfer_scenarios_are_conservation_checkable() {
        for s in KvScenario::all() {
            if s.name.contains("transfer") {
                assert!(s.mix.conserves_balance(), "{}", s.name);
            }
        }
    }

    #[test]
    fn scenarios_build_runnable_services() {
        let s = KvScenario::find("kv-transfer-contended").unwrap();
        let svc = s.service(&TmSpec::new(AlgoKind::Tl2), s.shards, 1);
        assert_eq!(svc.shard_count(), 2);
        assert_eq!(svc.key_space(), 512);
        let mut w = svc.worker();
        assert_eq!(w.get(0), Some(100));
    }
}
