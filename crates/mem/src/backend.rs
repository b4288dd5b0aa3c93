//! Far-tier memory backends.
//!
//! The far tier is one row of a table: each [`Backend`] names a memory
//! technology and answers, by a plain `match`, everything the rest of the
//! simulator may ask about it — timing shape, the per-access interconnect
//! penalty, what the media-fault model keeps, and patrol capability. PCM
//! is one row among several instead of a baked-in assumption.
//!
//! The contract (DESIGN.md §17, abridged):
//!
//! - [`Backend::timing`] fully determines device timing *and* drain
//!   behavior: the controller derives the banked drain gap from
//!   `write_service_ns / write_banks`, so a backend shapes drains purely
//!   through its returned [`NvmConfig`].
//! - [`Backend::fault_model`] filters the user's requested
//!   [`MediaFaultConfig`] into what the backend physically supports.
//!   STT-RAM zeroes `wear_limit` (effectively unlimited endurance, so
//!   wear-out/retirement no-op through the existing `wear_limit == 0`
//!   fast path rather than scattered `if`s); DRAM-class backends (NUMA,
//!   CXL) drop the model entirely — ordinary DRAM has no NVM media
//!   faults to inject.
//! - [`Backend::patrol_capable`] gates checksum patrol / ECP machinery.
//!   Backends without it report every patrol frame `Clean` by contract,
//!   not by accident.
//! - [`Backend::link_penalty_ns`] is an additive per-access interconnect
//!   cost (CXL link + controller), the same for reads and writes. Zero
//!   for everything that sits on the memory bus directly.
//!
//! PCM is the identity row: identity fault model, zero penalty, patrol
//! enabled. A far tier with other timing is another row, swapped whole;
//! `MemConfig` carries no per-field timing override beside it.

use crate::config::{MediaFaultConfig, NvmConfig};

/// CXL round-trip interconnect cost per access, in ns (link flits both
/// directions plus the far-side controller), on top of the media access.
const CXL_LINK_NS: u64 = 45;
const CXL_CONTROLLER_NS: u64 = 25;

/// Every registered backend, in registry order. The NVM-technology
/// subset is in the order the `nvm_tech` rows print (PCM, STT-MRAM,
/// ReRAM, Optane-DC).
const REGISTRY: &[Backend] = &[
    Backend::Pcm,
    Backend::Numa,
    Backend::SttRam,
    Backend::Cxl,
    Backend::ReRam,
    Backend::OptaneDc,
];

/// A registered far-tier backend. This is the value that travels through
/// configs, snapshots and run settings, and the only home of far-tier
/// semantics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Phase-change memory (the default; Table I timings). Identity
    /// fault model, patrol-capable, no interconnect penalty.
    #[default]
    Pcm,
    /// NUMA-remote-DRAM emulation: the far tier is ordinary DRAM on a
    /// remote socket, following the NUMA-emulation methodology —
    /// symmetric latencies of local DRAM plus one interconnect hop, and
    /// *no* NVM media machinery at all (no wear, no stuck cells, no ECP,
    /// no patrol).
    Numa,
    /// STT-MRAM (HOPE-style): near-DRAM reads, fast asymmetric writes,
    /// and effectively unlimited endurance — the fault filter zeroes
    /// `wear_limit`, so wear-out, retries and frame retirement no-op
    /// while manufacturing stuck-at cells and ECP/patrol still apply.
    SttRam,
    /// CXL-like far tier: load/store-coherent DRAM behind a CXL link.
    /// DRAM-class media timing; every access additionally pays link plus
    /// far-side controller latency.
    Cxl,
    /// ReRAM: between PCM and STT-MRAM on both paths, PCM-like fault
    /// semantics.
    ReRam,
    /// Optane-DC-like: slow loaded reads, writes absorbed by a large
    /// on-DIMM buffer, PCM-like fault semantics.
    OptaneDc,
}

impl Backend {
    /// All registered backends, in a stable order.
    pub fn registry() -> &'static [Backend] {
        REGISTRY
    }

    /// The registered NVM technologies (the `nvm_tech` comparison sweep;
    /// DRAM-class emulation tiers are left out), in registry order.
    pub fn nvm_technologies() -> Vec<Backend> {
        REGISTRY.iter().copied().filter(|b| b.is_nvm_technology()).collect()
    }

    /// Resolves a registry key (as accepted by `--backend`).
    pub fn from_name(name: &str) -> Option<Backend> {
        REGISTRY.iter().copied().find(|b| b.name() == name)
    }

    /// Registry keys, comma-separated — for usage/error lines.
    pub fn names() -> String {
        let keys: Vec<&str> = REGISTRY.iter().map(|b| b.name()).collect();
        keys.join(", ")
    }

    /// Registry key (`pcm`, `numa`, `sttram`, ...), accepted by
    /// [`Backend::from_name`] and echoed in bench JSON envelopes.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Pcm => "pcm",
            Backend::Numa => "numa",
            Backend::SttRam => "sttram",
            Backend::Cxl => "cxl",
            Backend::ReRam => "reram",
            Backend::OptaneDc => "optane",
        }
    }

    /// Human-facing display label (`PCM`, `NUMA-remote-DRAM`, ...).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Pcm => "PCM",
            Backend::Numa => "NUMA-remote-DRAM",
            Backend::SttRam => "STT-MRAM",
            Backend::Cxl => "CXL-far-DRAM",
            Backend::ReRam => "ReRAM",
            Backend::OptaneDc => "Optane-DC",
        }
    }

    /// Device timing for the far tier, including the write-buffer
    /// geometry the drain gap is derived from. Every row keeps Table I's
    /// buffer geometry unless it says otherwise.
    pub fn timing(self) -> NvmConfig {
        let pcm = NvmConfig::pcm();
        match self {
            Backend::Pcm => pcm,
            // Remote-socket DRAM: local row-miss (~50 ns) plus one
            // QPI/UPI hop (~80 ns), symmetric for reads and writes. DRAM
            // has a bank per channel group draining writes as fast as
            // reads, so the drain gap collapses to write_service_ns / 16.
            Backend::Numa => {
                NvmConfig { read_ns: 130, write_service_ns: 130, write_banks: 16, ..pcm }
            }
            Backend::SttRam => NvmConfig { read_ns: 35, write_service_ns: 100, ..pcm },
            // DRAM-class media behind the link; the link itself is
            // charged by `link_penalty_ns`.
            Backend::Cxl => NvmConfig { read_ns: 85, write_service_ns: 85, write_banks: 16, ..pcm },
            Backend::ReRam => NvmConfig { read_ns: 100, write_service_ns: 300, ..pcm },
            Backend::OptaneDc => {
                NvmConfig { read_ns: 300, write_service_ns: 100, write_buffer: 64, ..pcm }
            }
        }
    }

    /// Filters a requested fault model down to what this technology
    /// physically supports. Identity for PCM-class media; `None` for
    /// DRAM-class far tiers.
    pub fn fault_model(self, requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        match self {
            Backend::Pcm | Backend::ReRam | Backend::OptaneDc => requested,
            Backend::SttRam => requested.map(|f| MediaFaultConfig { wear_limit: 0, ..f }),
            Backend::Numa | Backend::Cxl => None,
        }
    }

    /// Whether this backend is a named NVM technology rather than a
    /// DRAM-class emulation tier.
    pub fn is_nvm_technology(self) -> bool {
        !matches!(self, Backend::Numa | Backend::Cxl)
    }

    /// Whether checksummed patrol scrub / ECP correction applies: every
    /// NVM technology has the media machinery, DRAM-class tiers have none.
    pub fn patrol_capable(self) -> bool {
        self.is_nvm_technology()
    }

    /// Additive per-access interconnect latency in ns (link + far
    /// controller), charged alike on reads and writes. Zero for
    /// bus-attached tiers.
    pub fn link_penalty_ns(self) -> u64 {
        match self {
            Backend::Cxl => CXL_LINK_NS + CXL_CONTROLLER_NS,
            _ => 0,
        }
    }

    /// Effective array read latency in ns (timing plus interconnect) —
    /// the KD013-clean way for reporting code to show latency shape.
    pub fn read_latency_ns(self) -> u64 {
        self.timing().read_ns + self.link_penalty_ns()
    }

    /// Effective cell-write service latency in ns (timing plus
    /// interconnect).
    pub fn write_latency_ns(self) -> u64 {
        self.timing().write_service_ns + self.link_penalty_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrips_names() {
        for &b in Backend::registry() {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("flash"), None);
        assert!(Backend::names().contains("pcm"));
        assert_eq!(Backend::default(), Backend::Pcm);
    }

    #[test]
    fn nvm_technologies_are_the_registry_nvm_subset() {
        let labels: Vec<&str> = Backend::nvm_technologies().iter().map(|b| b.label()).collect();
        assert_eq!(labels, ["PCM", "STT-MRAM", "ReRAM", "Optane-DC"]);
    }

    #[test]
    fn pcm_is_the_identity_backend() {
        let pcm = Backend::Pcm;
        assert_eq!(pcm.timing(), NvmConfig::pcm());
        assert_eq!(pcm.link_penalty_ns(), 0);
        assert!(pcm.patrol_capable());
        let req = Some(MediaFaultConfig::with_seed(9));
        assert_eq!(pcm.fault_model(req), req);
    }

    #[test]
    fn sttram_fault_model_zeroes_wear_only() {
        let req = MediaFaultConfig { stuck_cells: 7, ..MediaFaultConfig::with_seed(3) };
        let got = Backend::SttRam.fault_model(Some(req)).unwrap();
        assert_eq!(got.wear_limit, 0);
        assert_eq!(got.stuck_cells, 7);
        assert_eq!(got.seed, 3);
    }

    #[test]
    fn dram_class_backends_drop_fault_model_and_patrol() {
        for b in [Backend::Numa, Backend::Cxl] {
            assert_eq!(b.fault_model(Some(MediaFaultConfig::with_seed(1))), None);
            assert!(!b.patrol_capable());
            assert!(!b.is_nvm_technology());
        }
    }

    #[test]
    fn cxl_link_penalty_adds_to_both_paths() {
        let cxl = Backend::Cxl;
        assert_eq!(cxl.link_penalty_ns(), CXL_LINK_NS + CXL_CONTROLLER_NS);
        assert_eq!(cxl.read_latency_ns(), 85 + CXL_LINK_NS + CXL_CONTROLLER_NS);
        assert_eq!(cxl.write_latency_ns(), 85 + CXL_LINK_NS + CXL_CONTROLLER_NS);
    }
}
