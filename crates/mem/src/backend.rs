//! Pluggable far-tier memory backends.
//!
//! The controller's far tier used to be hard-wired to PCM: `NvmConfig`
//! carried data-only technology presets, and wear/ECP/patrol machinery
//! was armed unconditionally whenever a fault config was present. The
//! [`MemoryBackend`] trait makes the far tier's *semantics* pluggable —
//! timing shape, endurance/wear behavior, fault-model participation,
//! patrol capability, and any per-access interconnect penalty — so PCM
//! becomes one instance among several instead of a baked-in assumption.
//!
//! The contract (DESIGN.md §17, abridged):
//!
//! - [`MemoryBackend::timing`] fully determines device timing *and* drain
//!   behavior: the controller derives the banked drain gap from
//!   `write_service_ns / write_banks` exactly as before, so a backend
//!   shapes drains purely through its returned [`NvmConfig`].
//! - [`MemoryBackend::fault_model`] filters the user's requested
//!   [`MediaFaultConfig`] into what the backend physically supports.
//!   STT-RAM zeroes `wear_limit` (effectively unlimited endurance, so
//!   wear-out/retirement no-op through the existing `wear_limit == 0`
//!   fast path rather than scattered `if`s); DRAM-class backends (NUMA,
//!   CXL) drop the model entirely — ordinary DRAM has no NVM media
//!   faults to inject.
//! - [`MemoryBackend::patrol_capable`] gates checksum patrol / ECP
//!   machinery. Backends without it report every patrol frame `Clean`
//!   by contract, not by accident.
//! - [`MemoryBackend::access_penalty_ns`] is an additive per-access
//!   interconnect cost (CXL link + controller). Zero for everything
//!   that sits on the memory bus directly.
//!
//! The PCM instance is observation-equivalent to the pre-trait direct
//! path: identity fault model, zero penalty, patrol enabled, and the
//! controller keeps honouring `MemConfig::nvm` verbatim for PCM so
//! existing timing overrides (`with_nvm_technology`-style) still work.

use crate::config::{MediaFaultConfig, NvmConfig};

/// Behavioral contract for a far-tier memory technology.
///
/// Implementations are stateless unit-ish structs; the controller holds a
/// `&'static dyn MemoryBackend` resolved from [`Backend::instance`] and
/// consults it once at construction time (timing, fault filter, patrol
/// capability) plus per-access for the interconnect penalty, which it
/// precomputes into [`kindle_types::Cycles`].
pub trait MemoryBackend: Send + Sync {
    /// Registry key (`pcm`, `numa`, `sttram`, ...), accepted by
    /// [`Backend::from_name`] and echoed in bench JSON envelopes.
    fn name(&self) -> &'static str;

    /// Human-facing display label (`PCM`, `NUMA-remote-DRAM`, ...).
    fn label(&self) -> &'static str;

    /// Device timing for the far tier, including the write-buffer
    /// geometry the drain gap is derived from.
    fn timing(&self) -> NvmConfig;

    /// Whether the media wears out under writes. Informational (the
    /// operative no-op path is `fault_model` zeroing `wear_limit`).
    fn endurance_limited(&self) -> bool;

    /// Filters a requested fault model down to what this technology
    /// physically supports. Identity for PCM-class media; `None` for
    /// DRAM-class far tiers.
    fn fault_model(&self, requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig>;

    /// Whether checksummed patrol scrub / ECP correction applies.
    fn patrol_capable(&self) -> bool;

    /// Additive per-access interconnect latency in ns (link + far
    /// controller). Zero for bus-attached tiers.
    fn access_penalty_ns(&self, _write: bool) -> u64 {
        0
    }

    /// Whether this backend is a named NVM technology preset (drives the
    /// `nvm_tech` comparison sweep; DRAM-class emulation tiers opt out).
    fn is_nvm_technology(&self) -> bool;

    /// Effective array read latency in ns (timing plus interconnect) —
    /// the KD013-clean way for reporting code to show latency shape.
    fn read_latency_ns(&self) -> u64 {
        self.timing().read_ns + self.access_penalty_ns(false)
    }

    /// Effective cell-write service latency in ns (timing plus
    /// interconnect).
    fn write_latency_ns(&self) -> u64 {
        self.timing().write_service_ns + self.access_penalty_ns(true)
    }

    /// Write-buffer entries, for reporting code.
    fn write_buffer_entries(&self) -> usize {
        self.timing().write_buffer
    }

    /// Read-buffer entries, for reporting code.
    fn read_buffer_entries(&self) -> usize {
        self.timing().read_buffer
    }
}

/// Phase-change memory — the paper's Table I default. Identity fault
/// model, patrol-capable, no interconnect penalty: byte-identical to the
/// pre-trait direct path.
pub struct PcmBackend;

impl MemoryBackend for PcmBackend {
    fn name(&self) -> &'static str {
        "pcm"
    }
    fn label(&self) -> &'static str {
        "PCM"
    }
    fn timing(&self) -> NvmConfig {
        NvmConfig::pcm()
    }
    fn endurance_limited(&self) -> bool {
        true
    }
    fn fault_model(&self, requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        requested
    }
    fn patrol_capable(&self) -> bool {
        true
    }
    fn is_nvm_technology(&self) -> bool {
        true
    }
}

/// STT-MRAM (HOPE-style): near-DRAM reads, fast asymmetric writes, and
/// effectively unlimited endurance — the fault filter zeroes
/// `wear_limit`, so wear-out, retries and frame retirement cleanly
/// no-op while manufacturing stuck-at cells and ECP/patrol still apply.
pub struct SttRamBackend;

impl MemoryBackend for SttRamBackend {
    fn name(&self) -> &'static str {
        "sttram"
    }
    fn label(&self) -> &'static str {
        "STT-MRAM"
    }
    fn timing(&self) -> NvmConfig {
        NvmConfig::stt_mram()
    }
    fn endurance_limited(&self) -> bool {
        false
    }
    fn fault_model(&self, requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        requested.map(|f| MediaFaultConfig { wear_limit: 0, ..f })
    }
    fn patrol_capable(&self) -> bool {
        true
    }
    fn is_nvm_technology(&self) -> bool {
        true
    }
}

/// ReRAM: between PCM and STT-MRAM on both paths, PCM-like fault
/// semantics.
pub struct ReRamBackend;

impl MemoryBackend for ReRamBackend {
    fn name(&self) -> &'static str {
        "reram"
    }
    fn label(&self) -> &'static str {
        "ReRAM"
    }
    fn timing(&self) -> NvmConfig {
        NvmConfig::reram()
    }
    fn endurance_limited(&self) -> bool {
        true
    }
    fn fault_model(&self, requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        requested
    }
    fn patrol_capable(&self) -> bool {
        true
    }
    fn is_nvm_technology(&self) -> bool {
        true
    }
}

/// Optane-DC-like: slow loaded reads, writes absorbed by a large on-DIMM
/// buffer, PCM-like fault semantics.
pub struct OptaneDcBackend;

impl MemoryBackend for OptaneDcBackend {
    fn name(&self) -> &'static str {
        "optane"
    }
    fn label(&self) -> &'static str {
        "Optane-DC"
    }
    fn timing(&self) -> NvmConfig {
        NvmConfig::optane_dc()
    }
    fn endurance_limited(&self) -> bool {
        true
    }
    fn fault_model(&self, requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        requested
    }
    fn patrol_capable(&self) -> bool {
        true
    }
    fn is_nvm_technology(&self) -> bool {
        true
    }
}

/// NUMA-remote-DRAM emulation: the far tier is ordinary DRAM on a remote
/// socket, following the NUMA-emulation methodology — symmetric
/// latencies of local DRAM plus one interconnect hop, and *no* NVM
/// media machinery at all (no wear, no stuck cells, no ECP, no patrol).
pub struct NumaBackend;

impl MemoryBackend for NumaBackend {
    fn name(&self) -> &'static str {
        "numa"
    }
    fn label(&self) -> &'static str {
        "NUMA-remote-DRAM"
    }
    fn timing(&self) -> NvmConfig {
        // Remote-socket DRAM: local row-miss (~50 ns) plus one QPI/UPI
        // hop (~80 ns), symmetric for reads and writes. DRAM has a bank
        // per channel group draining writes as fast as reads, so the
        // drain gap collapses to write_service_ns / banks.
        NvmConfig {
            read_ns: 130,
            write_service_ns: 130,
            write_buffer: 48,
            write_banks: 16,
            read_buffer: 64,
            buffer_insert_ns: 10,
            forward_ns: 30,
        }
    }
    fn endurance_limited(&self) -> bool {
        false
    }
    fn fault_model(&self, _requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        None
    }
    fn patrol_capable(&self) -> bool {
        false
    }
    fn is_nvm_technology(&self) -> bool {
        false
    }
}

/// CXL-like far tier: load/store-coherent DRAM behind a CXL link. Media
/// timing is DRAM-class; every access additionally pays link + far-side
/// controller latency; a bandwidth-degradation knob divides the
/// effective drain banks to model a congested or narrower link.
pub struct CxlBackend {
    /// Bandwidth-degradation factor: effective write banks are
    /// `base_banks / degrade` (min 1), so a higher factor widens the
    /// banked drain gap proportionally.
    degrade: u32,
}

/// CXL round-trip interconnect cost per access, in ns (link flits both
/// directions plus the far-side controller), on top of the media access.
const CXL_LINK_NS: u64 = 45;
const CXL_CONTROLLER_NS: u64 = 25;

impl CxlBackend {
    /// Undegraded link geometry.
    const BASE_WRITE_BANKS: usize = 16;

    /// A CXL far tier whose write bandwidth is divided by `degrade`
    /// (clamped to at least 1).
    pub const fn with_degradation(degrade: u32) -> Self {
        CxlBackend { degrade }
    }
}

impl MemoryBackend for CxlBackend {
    fn name(&self) -> &'static str {
        "cxl"
    }
    fn label(&self) -> &'static str {
        "CXL-far-DRAM"
    }
    fn timing(&self) -> NvmConfig {
        NvmConfig {
            read_ns: 85,
            write_service_ns: 85,
            write_buffer: 48,
            write_banks: (Self::BASE_WRITE_BANKS / (self.degrade.max(1) as usize)).max(1),
            read_buffer: 64,
            buffer_insert_ns: 10,
            forward_ns: 30,
        }
    }
    fn endurance_limited(&self) -> bool {
        false
    }
    fn fault_model(&self, _requested: Option<MediaFaultConfig>) -> Option<MediaFaultConfig> {
        None
    }
    fn patrol_capable(&self) -> bool {
        false
    }
    fn access_penalty_ns(&self, _write: bool) -> u64 {
        CXL_LINK_NS + CXL_CONTROLLER_NS
    }
    fn is_nvm_technology(&self) -> bool {
        false
    }
}

static PCM: PcmBackend = PcmBackend;
static NUMA: NumaBackend = NumaBackend;
static STTRAM: SttRamBackend = SttRamBackend;
static CXL: CxlBackend = CxlBackend::with_degradation(1);
static RERAM: ReRamBackend = ReRamBackend;
static OPTANE: OptaneDcBackend = OptaneDcBackend;

/// Every registered backend, in registry order. The NVM-technology
/// subset preserves the historical `NvmConfig::technologies()` order
/// (PCM, STT-MRAM, ReRAM, Optane-DC).
const REGISTRY: &[Backend] = &[
    Backend::Pcm,
    Backend::Numa,
    Backend::SttRam,
    Backend::Cxl,
    Backend::ReRam,
    Backend::OptaneDc,
];

/// A registered far-tier backend. This is the value that travels through
/// configs, snapshots and thread-locals; the behavior lives in the
/// `&'static dyn MemoryBackend` it resolves to via [`Backend::instance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Phase-change memory (the default; Table I timings).
    Pcm,
    /// NUMA-remote-DRAM emulation (no media-fault machinery).
    Numa,
    /// STT-MRAM (unlimited endurance; wear paths no-op).
    SttRam,
    /// CXL-attached far DRAM (link + controller penalty per access).
    Cxl,
    /// ReRAM (PCM-like semantics, intermediate timings).
    ReRam,
    /// Optane-DC-like (PCM-like semantics, buffered writes).
    OptaneDc,
}

impl Backend {
    /// All registered backends, in a stable order.
    pub fn registry() -> &'static [Backend] {
        REGISTRY
    }

    /// Resolves a registry key (as accepted by `--backend`).
    pub fn from_name(name: &str) -> Option<Backend> {
        REGISTRY.iter().copied().find(|b| b.name() == name)
    }

    /// The backend's registry key.
    pub fn name(self) -> &'static str {
        self.instance().name()
    }

    /// The behavioral instance behind this registry entry.
    pub fn instance(self) -> &'static dyn MemoryBackend {
        match self {
            Backend::Pcm => &PCM,
            Backend::Numa => &NUMA,
            Backend::SttRam => &STTRAM,
            Backend::Cxl => &CXL,
            Backend::ReRam => &RERAM,
            Backend::OptaneDc => &OPTANE,
        }
    }

    /// Registry keys, comma-separated — for usage/error lines.
    pub fn names() -> String {
        let keys: Vec<&str> = REGISTRY.iter().map(|b| b.name()).collect();
        keys.join(", ")
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Pcm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrips_names() {
        for &b in Backend::registry() {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(b.instance().name(), b.name());
        }
        assert_eq!(Backend::from_name("flash"), None);
        assert!(Backend::names().contains("pcm"));
    }

    #[test]
    fn technologies_are_the_registry_nvm_subset() {
        let techs = NvmConfig::technologies();
        let from_registry: Vec<(&'static str, NvmConfig)> = Backend::registry()
            .iter()
            .map(|b| b.instance())
            .filter(|i| i.is_nvm_technology())
            .map(|i| (i.label(), i.timing()))
            .collect();
        assert_eq!(techs, from_registry);
        let labels: Vec<&str> = techs.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["PCM", "STT-MRAM", "ReRAM", "Optane-DC"]);
    }

    #[test]
    fn pcm_is_the_identity_backend() {
        let pcm = Backend::Pcm.instance();
        assert_eq!(pcm.timing(), NvmConfig::pcm());
        assert_eq!(pcm.access_penalty_ns(false), 0);
        assert_eq!(pcm.access_penalty_ns(true), 0);
        assert!(pcm.patrol_capable());
        let req = Some(MediaFaultConfig::with_seed(9));
        assert_eq!(pcm.fault_model(req), req);
    }

    #[test]
    fn sttram_fault_model_zeroes_wear_only() {
        let req = MediaFaultConfig { stuck_cells: 7, ..MediaFaultConfig::with_seed(3) };
        let got = Backend::SttRam.instance().fault_model(Some(req)).unwrap();
        assert_eq!(got.wear_limit, 0);
        assert_eq!(got.stuck_cells, 7);
        assert_eq!(got.seed, 3);
        assert!(!Backend::SttRam.instance().endurance_limited());
    }

    #[test]
    fn dram_class_backends_drop_fault_model_and_patrol() {
        for b in [Backend::Numa, Backend::Cxl] {
            let i = b.instance();
            assert_eq!(i.fault_model(Some(MediaFaultConfig::with_seed(1))), None);
            assert!(!i.patrol_capable());
            assert!(!i.endurance_limited());
            assert!(!i.is_nvm_technology());
        }
    }

    #[test]
    fn cxl_penalty_and_degradation_shape_the_link() {
        let cxl = Backend::Cxl.instance();
        assert_eq!(cxl.access_penalty_ns(false), CXL_LINK_NS + CXL_CONTROLLER_NS);
        assert_eq!(cxl.read_latency_ns(), 85 + CXL_LINK_NS + CXL_CONTROLLER_NS);

        let full = CxlBackend::with_degradation(1).timing();
        let quarter = CxlBackend::with_degradation(4).timing();
        assert_eq!(quarter.write_banks * 4, full.write_banks);
        // A narrower link widens the banked drain gap proportionally.
        let gap = |t: &NvmConfig| (t.write_service_ns / t.write_banks.max(1) as u64).max(1);
        assert!(gap(&quarter) > gap(&full));
    }
}
