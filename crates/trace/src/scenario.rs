//! Declarative workload scenarios.
//!
//! The paper's evaluation lives on workload diversity: steady traffic,
//! volume DDoS attacks, scans, flash crowds and links going quiet are what
//! stress the predictor and the shedding policies (Sections 2.3 and 5). A
//! [`Scenario`] describes such a workload *declaratively* — one or more
//! links, each a sequence of named phases with a duration, a traffic profile
//! and anomaly injections — and compiles to an ordinary finite
//! [`PacketSource`], so the same description drives examples, benchmarks and
//! the golden-replay conformance corpus. Scenarios are validated before they
//! compile: malformed descriptions (zero-duration phases, overlapping
//! anomaly windows, unknown profile names) come back as typed
//! [`ScenarioError`]s rather than panics or silently-wrong traffic.
//!
//! ```
//! use netshed_trace::scenario::{AnomalyEvent, Phase, Scenario};
//! use netshed_trace::{PacketSource, TraceProfile};
//!
//! let scenario = Scenario::new("ddos-demo")
//!     .seed(7)
//!     .phase(Phase::new("calm", 10).profile(TraceProfile::CescaI).scale(0.1))
//!     .phase(
//!         Phase::new("attack", 10)
//!             .profile(TraceProfile::CescaI)
//!             .scale(0.1)
//!             .anomaly(AnomalyEvent::ddos(0x0a00_0001).over(2, 6).intensity(300)),
//!     );
//! let mut source = scenario.compile().expect("valid scenario");
//! assert_eq!(source.total_bins(), 20);
//! let first = source.next_batch().expect("finite but non-empty");
//! assert_eq!(first.bin_index, 0);
//! ```
//!
//! Multi-link scenarios ([`Scenario::link`]) compile each link to its own
//! phased stream and merge them through [`Interleave`], so a scenario can
//! model several monitored links — including links of different lengths,
//! with the tail semantics documented on [`Interleave`].

use crate::anomaly::{Anomaly, AnomalyKind};
use crate::batch::Batch;
use crate::generator::{TraceConfig, TraceGenerator};
use crate::profiles::TraceProfile;
use crate::source::{Interleave, PacketSource};
use netshed_sketch::mix64;
use std::collections::VecDeque;

/// A malformed scenario description, named precisely enough to fix it.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario has no links (and therefore no phases).
    NoLinks {
        /// Scenario name.
        scenario: String,
    },
    /// A link has no phases.
    EmptyLink {
        /// Link name.
        link: String,
    },
    /// A phase lasts zero bins.
    ZeroDurationPhase {
        /// Link name.
        link: String,
        /// Phase name.
        phase: String,
    },
    /// A phase's traffic scale is not a positive finite number.
    InvalidScale {
        /// Phase name.
        phase: String,
        /// The offending scale.
        scale: f64,
    },
    /// An anomaly window is empty (zero bins).
    EmptyAnomalyWindow {
        /// Phase name.
        phase: String,
    },
    /// An anomaly window reaches past the end of its phase.
    AnomalyOutOfPhase {
        /// Phase name.
        phase: String,
        /// First bin of the window (phase-relative).
        start_bin: u64,
        /// One past the last bin of the window (phase-relative).
        end_bin: u64,
        /// Phase duration in bins.
        duration: u64,
    },
    /// Two anomaly windows of the same phase overlap. Concurrent anomalies
    /// are modelled with separate links, which keeps each injection stream
    /// independently seeded and reproducible.
    OverlappingAnomalies {
        /// Phase name.
        phase: String,
        /// `[start, end)` of the earlier window.
        first: (u64, u64),
        /// `[start, end)` of the later window.
        second: (u64, u64),
    },
    /// A packet-injecting anomaly sits on a silent phase (nothing to inject
    /// into — give the phase a profile, or move the anomaly to another link).
    AnomalyOnSilentPhase {
        /// Phase name.
        phase: String,
    },
    /// A packet-injecting anomaly would inject zero packets per bin.
    ZeroIntensity {
        /// Phase name.
        phase: String,
    },
    /// A link's total duration exceeds the supported maximum — the
    /// compiled source would never terminate on simulation timescales (or
    /// overflow the batch accounting).
    LinkTooLong {
        /// Link name.
        link: String,
        /// Total bins over the link's phases (saturating).
        bins: u64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoLinks { scenario } => {
                write!(f, "scenario {scenario:?} has no links")
            }
            ScenarioError::EmptyLink { link } => write!(f, "link {link:?} has no phases"),
            ScenarioError::ZeroDurationPhase { link, phase } => {
                write!(f, "phase {phase:?} of link {link:?} lasts zero bins")
            }
            ScenarioError::InvalidScale { phase, scale } => {
                write!(f, "phase {phase:?} has invalid traffic scale {scale}")
            }
            ScenarioError::EmptyAnomalyWindow { phase } => {
                write!(f, "phase {phase:?} has an anomaly window of zero bins")
            }
            ScenarioError::AnomalyOutOfPhase { phase, start_bin, end_bin, duration } => write!(
                f,
                "anomaly window [{start_bin}, {end_bin}) reaches past the end of phase \
                 {phase:?} ({duration} bins)"
            ),
            ScenarioError::OverlappingAnomalies { phase, first, second } => write!(
                f,
                "anomaly windows [{}, {}) and [{}, {}) of phase {phase:?} overlap; model \
                 concurrent anomalies as separate links",
                first.0, first.1, second.0, second.1
            ),
            ScenarioError::AnomalyOnSilentPhase { phase } => {
                write!(f, "silent phase {phase:?} cannot carry a packet-injecting anomaly")
            }
            ScenarioError::ZeroIntensity { phase } => {
                write!(f, "anomaly in phase {phase:?} would inject zero packets per bin")
            }
            ScenarioError::LinkTooLong { link, bins } => {
                write!(
                    f,
                    "link {link:?} lasts {bins} bins, more than the supported {MAX_LINK_BINS}"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One anomaly, placed on a window of phase-relative bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// The shape of the injected packets; `None` is a link flap.
    kind: Option<AnomalyKind>,
    start_bin: u64,
    /// `None` = until the end of the phase (resolved at validation time).
    duration_bins: Option<u64>,
    packets_per_bin: usize,
    duty_cycle_bins: u64,
}

impl AnomalyEvent {
    /// An event injecting `kind` packets over its whole phase (narrow it
    /// with [`AnomalyEvent::over`]).
    pub fn new(kind: AnomalyKind) -> Self {
        Self::placed(Some(kind))
    }

    fn placed(kind: Option<AnomalyKind>) -> Self {
        Self { kind, start_bin: 0, duration_bins: None, packets_per_bin: 200, duty_cycle_bins: 0 }
    }

    /// A volume DDoS flood from spoofed sources against `target`.
    pub fn ddos(target: u32) -> Self {
        Self::new(AnomalyKind::DdosFlood { target })
    }

    /// A port scan from `source`.
    pub fn port_scan(source: u32) -> Self {
        Self::new(AnomalyKind::PortScan { source })
    }

    /// A flash crowd towards `target:port`.
    pub fn flash_crowd(target: u32, port: u16) -> Self {
        Self::new(AnomalyKind::FlashCrowd { target, port })
    }

    /// A link flap: the link goes dark for the window — base traffic is
    /// generated but lost, so the affected bins arrive empty (and the
    /// generator state, including any other link's stream, is unaffected).
    pub fn link_flap() -> Self {
        Self::placed(None)
    }

    /// A Boyer–Moore worst-case payload attack (feature mimicry).
    pub fn pattern_stress() -> Self {
        Self::new(AnomalyKind::PatternStress)
    }

    /// A flow-churn attack on stateful queries.
    pub fn flow_churn() -> Self {
        Self::new(AnomalyKind::FlowChurn)
    }

    /// An aggregate-key skew attack on flow sampling.
    pub fn aggregate_skew() -> Self {
        Self::new(AnomalyKind::AggregateSkew)
    }

    /// Places the event on `[start_bin, start_bin + duration_bins)`,
    /// phase-relative.
    pub fn over(mut self, start_bin: u64, duration_bins: u64) -> Self {
        self.start_bin = start_bin;
        self.duration_bins = Some(duration_bins);
        self
    }

    /// Extra packets injected per active bin (ignored by link flaps).
    pub fn intensity(mut self, packets_per_bin: usize) -> Self {
        self.packets_per_bin = packets_per_bin;
        self
    }

    /// On/off duty cycle in bins (the paper's "goes idle every other
    /// second" attack); 0 = always on while in the window.
    pub fn duty_cycle(mut self, cycle_bins: u64) -> Self {
        self.duty_cycle_bins = cycle_bins;
        self
    }

    /// The shape of the injected packets; `None` for a link flap.
    pub fn kind(&self) -> Option<AnomalyKind> {
        self.kind
    }

    /// Resolves the `[start, end)` window against the owning phase.
    fn window(&self, phase_duration: u64) -> (u64, u64) {
        let end = match self.duration_bins {
            Some(duration) => self.start_bin.saturating_add(duration),
            None => phase_duration,
        };
        (self.start_bin, end)
    }
}

/// What base traffic a phase carries. The phase-level
/// [`Phase::scale`] multiplier applies uniformly to every variant except
/// [`TrafficSpec::Silent`].
#[derive(Debug, Clone)]
pub enum TrafficSpec {
    /// A named stand-in for one of the paper's traces.
    Profile(TraceProfile),
    /// A fully explicit generator configuration (seed and time bin are
    /// overridden by the scenario; the mean is multiplied by the phase
    /// scale).
    Config(Box<TraceConfig>),
    /// No base traffic: the phase emits empty bins (a dark link).
    Silent,
}

/// A named phase: duration, base traffic, anomalies.
#[derive(Debug, Clone)]
pub struct Phase {
    name: String,
    duration_bins: u64,
    traffic: TrafficSpec,
    /// Multiplier on the traffic spec's mean packets per batch, applied at
    /// compile time — the same semantics for every traffic variant.
    scale: f64,
    anomalies: Vec<AnomalyEvent>,
}

impl Phase {
    /// A phase of `duration_bins` bins carrying CESCA-I-like traffic at
    /// scale 1.0 (override with the builder methods).
    pub fn new(name: impl Into<String>, duration_bins: u64) -> Self {
        Self {
            name: name.into(),
            duration_bins,
            traffic: TrafficSpec::Profile(TraceProfile::CescaI),
            scale: 1.0,
            anomalies: Vec::new(),
        }
    }

    /// Sets the base traffic to a named profile (the phase scale is kept).
    pub fn profile(mut self, profile: TraceProfile) -> Self {
        self.traffic = TrafficSpec::Profile(profile);
        self
    }

    /// Sets the base traffic to an explicit generator configuration (the
    /// phase scale still multiplies its mean).
    pub fn config(mut self, config: TraceConfig) -> Self {
        self.traffic = TrafficSpec::Config(Box::new(config));
        self
    }

    /// Silences the phase: no base traffic, empty bins.
    pub fn silent(mut self) -> Self {
        self.traffic = TrafficSpec::Silent;
        self
    }

    /// Sets the multiplier on the phase's mean packets per batch. Setting
    /// it twice keeps the last value (it does not compound), and the order
    /// relative to [`Phase::profile`] / [`Phase::config`] does not matter.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Adds an anomaly event to the phase.
    pub fn anomaly(mut self, event: AnomalyEvent) -> Self {
        self.anomalies.push(event);
        self
    }

    /// The phase name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase duration in bins.
    pub fn duration_bins(&self) -> u64 {
        self.duration_bins
    }
}

/// One monitored link: a sequence of phases.
#[derive(Debug, Clone)]
pub struct Link {
    name: String,
    phases: Vec<Phase>,
}

impl Link {
    /// An empty link (add phases with [`Link::phase`]).
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), phases: Vec::new() }
    }

    /// Appends a phase.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// The link name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The link's phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total bins over all phases (saturating; validation rejects links
    /// past [`ScenarioError::LinkTooLong`]'s limit long before that
    /// matters).
    pub fn total_bins(&self) -> u64 {
        self.phases.iter().fold(0u64, |acc, p| acc.saturating_add(p.duration_bins))
    }
}

/// A declarative, validated, compilable workload description.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    seed: u64,
    time_bin_us: u64,
    links: Vec<Link>,
    /// Index into `links` of the link that [`Scenario::phase`] appends to,
    /// once created. Kept separate from explicitly added links so mixing
    /// `.link(...)` and `.phase(...)` never grows a user-built link.
    default_link: Option<usize>,
}

impl Scenario {
    /// A new scenario with the default seed (42) and the paper's 100 ms bins.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            seed: 42,
            time_bin_us: crate::DEFAULT_TIME_BIN_US,
            links: Vec::new(),
            default_link: None,
        }
    }

    /// Sets the scenario seed. Every link and phase derives its own
    /// generator seed from this one, so one number reproduces the whole
    /// workload.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the time-bin duration in microseconds.
    pub fn time_bin_us(mut self, time_bin_us: u64) -> Self {
        self.time_bin_us = time_bin_us;
        self
    }

    /// Appends a phase to the scenario's default link (created on first
    /// use). The default link is always its own link — phases added here
    /// never extend a link that was added explicitly with
    /// [`Scenario::link`].
    pub fn phase(mut self, phase: Phase) -> Self {
        let index = if let Some(index) = self.default_link {
            index
        } else {
            let name = format!("{}-link", self.name);
            self.links.push(Link::new(name));
            let index = self.links.len() - 1;
            self.default_link = Some(index);
            index
        };
        self.links[index].phases.push(phase);
        self
    }

    /// Appends a whole link (multi-link scenarios compile to an
    /// [`Interleave`] merge).
    pub fn link(mut self, link: Link) -> Self {
        self.links.push(link);
        self
    }

    /// The scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The time-bin duration the compiled source produces, in microseconds
    /// (recorders must write this into the trace header rather than
    /// assuming the default).
    pub fn bin_duration_us(&self) -> u64 {
        self.time_bin_us
    }

    /// Bins the compiled source will produce: the longest link wins (see
    /// [`Interleave`] for the tail semantics of shorter links).
    pub fn total_bins(&self) -> u64 {
        self.links.iter().map(Link::total_bins).max().unwrap_or(0)
    }

    /// Checks the description without compiling it.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.links.is_empty() {
            return Err(ScenarioError::NoLinks { scenario: self.name.clone() });
        }
        for link in &self.links {
            if link.phases.is_empty() {
                return Err(ScenarioError::EmptyLink { link: link.name.clone() });
            }
            if link.total_bins() > MAX_LINK_BINS {
                return Err(ScenarioError::LinkTooLong {
                    link: link.name.clone(),
                    bins: link.total_bins(),
                });
            }
            for phase in &link.phases {
                if phase.duration_bins == 0 {
                    return Err(ScenarioError::ZeroDurationPhase {
                        link: link.name.clone(),
                        phase: phase.name.clone(),
                    });
                }
                if !matches!(phase.traffic, TrafficSpec::Silent)
                    && (!phase.scale.is_finite() || phase.scale <= 0.0 || phase.scale > MAX_SCALE)
                {
                    return Err(ScenarioError::InvalidScale {
                        phase: phase.name.clone(),
                        scale: phase.scale,
                    });
                }
                // The guard lands on the *effective* mean (config mean ×
                // phase scale): NaN/∞/non-positive or absurd rates (which
                // would saturate the Poisson draw) must not reach the
                // generator.
                if let TrafficSpec::Config(config) = &phase.traffic {
                    let mean = config.mean_packets_per_batch * phase.scale;
                    if !mean.is_finite() || mean <= 0.0 || mean > MAX_MEAN_PACKETS {
                        return Err(ScenarioError::InvalidScale {
                            phase: phase.name.clone(),
                            scale: mean,
                        });
                    }
                }
                let mut windows: Vec<(u64, u64)> = Vec::with_capacity(phase.anomalies.len());
                for event in &phase.anomalies {
                    let (start, end) = event.window(phase.duration_bins);
                    if end <= start {
                        return Err(ScenarioError::EmptyAnomalyWindow {
                            phase: phase.name.clone(),
                        });
                    }
                    if end > phase.duration_bins {
                        return Err(ScenarioError::AnomalyOutOfPhase {
                            phase: phase.name.clone(),
                            start_bin: start,
                            end_bin: end,
                            duration: phase.duration_bins,
                        });
                    }
                    if event.kind.is_some() {
                        if matches!(phase.traffic, TrafficSpec::Silent) {
                            return Err(ScenarioError::AnomalyOnSilentPhase {
                                phase: phase.name.clone(),
                            });
                        }
                        if event.packets_per_bin == 0 {
                            return Err(ScenarioError::ZeroIntensity { phase: phase.name.clone() });
                        }
                    }
                    for &(s, e) in &windows {
                        if start < e && s < end {
                            return Err(ScenarioError::OverlappingAnomalies {
                                phase: phase.name.clone(),
                                first: (s, e),
                                second: (start, end),
                            });
                        }
                    }
                    windows.push((start, end));
                }
            }
        }
        Ok(())
    }

    /// Validates and compiles the scenario to a finite [`PacketSource`].
    pub fn compile(&self) -> Result<ScenarioSource, ScenarioError> {
        self.validate()?;
        let mut links = Vec::with_capacity(self.links.len());
        for (link_index, link) in self.links.iter().enumerate() {
            links.push(self.compile_link(link, link_index as u64));
        }
        let total_bins = self.total_bins();
        let inner = if links.len() == 1 {
            // lint:allow(no-unwrap): guarded by the len() == 1 branch condition
            SourceInner::Single(links.pop().expect("one link"))
        } else {
            SourceInner::Multi(Interleave::new(
                links.into_iter().map(|l| Box::new(l) as Box<dyn PacketSource>).collect(),
            ))
        };
        Ok(ScenarioSource { inner, total_bins })
    }

    /// Compiles the scenario and materialises every batch.
    pub fn generate(&self) -> Result<Vec<Batch>, ScenarioError> {
        let mut source = self.compile()?;
        let mut batches = Vec::with_capacity(self.total_bins() as usize);
        while let Some(batch) = source.next_batch() {
            batches.push(batch);
        }
        Ok(batches)
    }

    fn compile_link(&self, link: &Link, link_index: u64) -> PhasedLink {
        let mut phases = VecDeque::with_capacity(link.phases.len());
        for (phase_index, phase) in link.phases.iter().enumerate() {
            let seed = derive_seed(self.seed, link_index, phase_index as u64);
            let mut config = match &phase.traffic {
                TrafficSpec::Profile(profile) => Some(profile.config(seed, phase.scale)),
                TrafficSpec::Config(config) => {
                    let mut config = (**config).clone();
                    config.seed = seed;
                    config.mean_packets_per_batch *= phase.scale;
                    Some(config)
                }
                TrafficSpec::Silent => None,
            };
            if let Some(config) = &mut config {
                config.time_bin_us = self.time_bin_us;
            }
            let mut generator = config.map(TraceGenerator::new);
            let mut flaps = Vec::new();
            for event in &phase.anomalies {
                let (start, end) = event.window(phase.duration_bins);
                match event.kind {
                    None => flaps.push((start, end)),
                    Some(kind) => {
                        let anomaly = Anomaly::new(kind, start, end, event.packets_per_bin)
                            .with_duty_cycle(event.duty_cycle_bins);
                        generator
                            .as_mut()
                            // lint:allow(no-unwrap): validation rejects injector anomalies on silent phases, so a generator exists here
                            .expect("injector anomalies are rejected on silent phases")
                            .add_anomaly(anomaly);
                    }
                }
            }
            phases.push_back(CompiledPhase {
                generator,
                duration: phase.duration_bins,
                local_bin: 0,
                flaps,
            });
        }
        PhasedLink { phases, time_bin_us: self.time_bin_us, global_bin: 0 }
    }
}

/// Largest accepted profile scale: profile base means are ~10³ packets per
/// bin, so this bounds the effective mean near [`MAX_MEAN_PACKETS`].
const MAX_SCALE: f64 = 1e6;

/// Largest accepted mean packets per batch for explicit configs. Far above
/// anything a simulation can chew through per 100 ms bin, but low enough
/// that the Poisson draw and the batch allocation stay well-defined.
const MAX_MEAN_PACKETS: f64 = 1e9;

/// Largest accepted link duration: ten million 100 ms bins ≈ 11 days of
/// simulated traffic, far past any experiment while keeping every batch
/// count and capacity allocation comfortably in range.
const MAX_LINK_BINS: u64 = 10_000_000;

/// Derives a per-(link, phase) generator seed from the scenario seed.
fn derive_seed(seed: u64, link_index: u64, phase_index: u64) -> u64 {
    mix64(seed ^ mix64(0x6c69_6e6b ^ (link_index << 32) ^ phase_index))
}

struct CompiledPhase {
    /// `None` for silent phases.
    generator: Option<TraceGenerator>,
    duration: u64,
    local_bin: u64,
    /// Link-flap windows in phase-relative bins, `[start, end)`.
    flaps: Vec<(u64, u64)>,
}

/// One link's compiled phase sequence: a finite [`PacketSource`] producing
/// one batch per bin, with globally contiguous bin indices and timestamps
/// across phase boundaries.
struct PhasedLink {
    phases: VecDeque<CompiledPhase>,
    time_bin_us: u64,
    global_bin: u64,
}

impl PacketSource for PhasedLink {
    fn next_batch(&mut self) -> Option<Batch> {
        loop {
            let phase = self.phases.front_mut()?;
            if phase.local_bin >= phase.duration {
                self.phases.pop_front();
                continue;
            }
            let local = phase.local_bin;
            phase.local_bin += 1;
            let global = self.global_bin;
            self.global_bin += 1;
            let start_ts = global * self.time_bin_us;
            let flapped = phase.flaps.iter().any(|&(s, e)| local >= s && local < e);
            let batch = match &mut phase.generator {
                // The generator always advances, even under a flap: the link
                // went dark, the traffic existed, the bins arrive empty.
                Some(generator) => {
                    let raw = generator.next_batch();
                    if flapped {
                        Batch::empty(global, start_ts, self.time_bin_us)
                    } else {
                        // Re-base the phase-local bin onto the scenario
                        // timeline (the generator restarts at bin 0 each
                        // phase).
                        let shift = start_ts - raw.start_ts;
                        let packets = raw.packets.shifted(shift);
                        Batch::from_store(global, start_ts, self.time_bin_us, packets)
                    }
                }
                None => Batch::empty(global, start_ts, self.time_bin_us),
            };
            return Some(batch);
        }
    }
}

enum SourceInner {
    Single(PhasedLink),
    Multi(Interleave),
}

/// The compiled form of a [`Scenario`]: a finite stream of one batch per
/// time bin.
pub struct ScenarioSource {
    inner: SourceInner,
    total_bins: u64,
}

impl ScenarioSource {
    /// Bins the source produces in total (regardless of position).
    pub fn total_bins(&self) -> u64 {
        self.total_bins
    }
}

impl PacketSource for ScenarioSource {
    fn next_batch(&mut self) -> Option<Batch> {
        match &mut self.inner {
            SourceInner::Single(link) => link.next_batch(),
            SourceInner::Multi(links) => links.next_batch(),
        }
    }
}

/// The built-in conformance scenarios behind the golden-replay corpus
/// (`corpus/` at the repository root) and the `netshed-bench` `scenarios`
/// subcommand.
///
/// They are deliberately small — tens of bins, low packet rates — so the
/// whole corpus replays in seconds while still covering steady load, a DDoS
/// spike, a duty-cycled port scan, a flash crowd, a flapping multi-link mix
/// and payload-bearing traffic with a silent gap. The last three are the
/// adversarial corpus: predictor-gaming workloads (`bm-mimicry`,
/// `flow-churn`, `agg-skew`) that under-predict cost by construction, pinned
/// like everything else so the robustness plane is regression-tested.
pub fn builtins() -> Vec<Scenario> {
    vec![
        Scenario::new("steady-cesca")
            .seed(101)
            .phase(Phase::new("steady", 30).profile(TraceProfile::CescaI).scale(0.15)),
        Scenario::new("ddos-spike")
            .seed(102)
            .phase(Phase::new("calm", 10).profile(TraceProfile::CescaI).scale(0.12))
            .phase(
                Phase::new("attack", 14)
                    .profile(TraceProfile::CescaI)
                    .scale(0.12)
                    .anomaly(AnomalyEvent::ddos(0x0a00_0001).over(2, 10).intensity(350)),
            )
            .phase(Phase::new("recovery", 8).profile(TraceProfile::CescaI).scale(0.12)),
        Scenario::new("port-scan-wave")
            .seed(103)
            .phase(Phase::new("lead-in", 6).profile(TraceProfile::Abilene).scale(0.08))
            .phase(Phase::new("sweep", 24).profile(TraceProfile::Abilene).scale(0.08).anomaly(
                AnomalyEvent::port_scan(0xc0a8_0a0a).over(4, 16).intensity(250).duty_cycle(8),
            )),
        Scenario::new("flash-crowd")
            .seed(104)
            .phase(Phase::new("quiet", 8).profile(TraceProfile::Cenic).scale(0.1))
            .phase(
                Phase::new("crowd", 16)
                    .profile(TraceProfile::Cenic)
                    .scale(0.1)
                    .anomaly(AnomalyEvent::flash_crowd(0x0a00_0050, 80).over(2, 12).intensity(180)),
            )
            .phase(Phase::new("cooldown", 8).profile(TraceProfile::Cenic).scale(0.1)),
        Scenario::new("link-flap")
            .seed(105)
            .link(
                Link::new("core")
                    .phase(Phase::new("steady", 30).profile(TraceProfile::CescaI).scale(0.1)),
            )
            .link(
                Link::new("edge").phase(
                    Phase::new("flapping", 26)
                        .profile(TraceProfile::Abilene)
                        .scale(0.06)
                        .anomaly(AnomalyEvent::link_flap().over(6, 4))
                        .anomaly(AnomalyEvent::link_flap().over(18, 4)),
                ),
            ),
        Scenario::new("payload-shift")
            .seed(106)
            .phase(Phase::new("light", 10).profile(TraceProfile::CescaII).scale(0.035))
            .phase(Phase::new("gap", 4).silent())
            .phase(Phase::new("heavy", 10).profile(TraceProfile::CescaII).scale(0.06)),
        // The adversarial trio: each games the cost predictor a different
        // way (payload pathology, state churn, sampling skew), with a clean
        // lead-in so the MLR history is warm and trusting when the attack
        // lands, and a recovery tail so the guards' hysteresis is exercised.
        // All three are duty-cycled 2-on/2-off and titrated so attacked bins
        // cost a containable few multiples of the corpus capacity: the
        // damage is then the predictor being gamed — the feature-invisible
        // per-packet cost makes the MLR fit the *average* of the two regimes
        // and the feedback loop whipsaw through the flanks — rather than an
        // unsurvivable flood no causal controller could do anything about.
        Scenario::new("bm-mimicry")
            .seed(107)
            .phase(Phase::new("lull", 10).profile(TraceProfile::CescaII).scale(0.035))
            .phase(
                Phase::new("mimicry", 14)
                    .profile(TraceProfile::CescaII)
                    .scale(0.035)
                    // A dozen innocuous-looking packets whose payloads cost
                    // kilocycles each to scan: "looks cheap, runs expensive".
                    .anomaly(
                        AnomalyEvent::pattern_stress().over(2, 10).intensity(12).duty_cycle(4),
                    ),
            )
            .phase(Phase::new("recovery", 6).profile(TraceProfile::CescaII).scale(0.035)),
        Scenario::new("flow-churn")
            .seed(108)
            .phase(Phase::new("lull", 10).profile(TraceProfile::CescaI).scale(0.12))
            .phase(
                Phase::new("churn", 16)
                    .profile(TraceProfile::CescaI)
                    .scale(0.12)
                    // Duty cycle 4 keeps the insert/lookup parity alternation
                    // alive (cycle 2 would pin the churn to one parity) while
                    // the on/off flank keeps the error EWMA phase-lagged.
                    .anomaly(AnomalyEvent::flow_churn().over(2, 12).intensity(260).duty_cycle(4)),
            )
            .phase(Phase::new("recovery", 6).profile(TraceProfile::CescaI).scale(0.12)),
        Scenario::new("agg-skew")
            .seed(109)
            .phase(Phase::new("lull", 8).profile(TraceProfile::Cenic).scale(0.1))
            .phase(
                Phase::new("skew", 16).profile(TraceProfile::Cenic).scale(0.1).anomaly(
                    AnomalyEvent::aggregate_skew().over(2, 12).intensity(24).duty_cycle(4),
                ),
            )
            .phase(Phase::new("recovery", 6).profile(TraceProfile::Cenic).scale(0.1)),
    ]
}

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    builtins().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TCP_SYN;

    fn tiny(name: &str) -> Scenario {
        Scenario::new(name)
            .seed(9)
            .phase(Phase::new("a", 4).profile(TraceProfile::CescaI).scale(0.05))
    }

    #[test]
    fn compiled_scenarios_are_contiguous_and_finite() {
        let scenario =
            tiny("contig").phase(Phase::new("b", 3).profile(TraceProfile::Abilene).scale(0.05));
        let mut source = scenario.compile().expect("valid");
        assert_eq!(source.total_bins(), 7);
        for expected_bin in 0..7u64 {
            let batch = source.next_batch().expect("seven bins");
            assert_eq!(batch.bin_index, expected_bin);
            assert_eq!(batch.start_ts, expected_bin * crate::DEFAULT_TIME_BIN_US);
            for p in batch.packets.iter() {
                assert!(p.ts() >= batch.start_ts && p.ts() < batch.start_ts + batch.duration_us);
            }
        }
        assert!(source.next_batch().is_none());
    }

    #[test]
    fn same_seed_reproduces_the_same_stream() {
        let a = tiny("repro").generate().expect("valid");
        let b = tiny("repro").generate().expect("valid");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packets.as_ref(), y.packets.as_ref());
        }
        let c = tiny("repro").seed(10).generate().expect("valid");
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.packets.as_ref() != y.packets.as_ref()),
            "a different seed must change the traffic"
        );
    }

    #[test]
    fn anomaly_windows_inject_only_inside_their_bins() {
        let target = 0x0a00_0001;
        let scenario = Scenario::new("windowed").seed(3).phase(
            Phase::new("attack", 10)
                .profile(TraceProfile::CescaI)
                .scale(0.05)
                .anomaly(AnomalyEvent::ddos(target).over(4, 3).intensity(500)),
        );
        let batches = scenario.generate().expect("valid");
        for (bin, batch) in batches.iter().enumerate() {
            let attack_packets = batch
                .packets
                .iter()
                .filter(|p| p.tuple().dst_ip == target && p.ip_len() == 60)
                .count();
            if (4..7).contains(&bin) {
                assert!(attack_packets >= 400, "bin {bin} should carry the flood");
            } else {
                assert!(attack_packets < 50, "bin {bin} should be clean");
            }
        }
    }

    #[test]
    fn every_anomaly_kind_schedules_through_the_one_vocabulary() {
        // `AnomalyEvent::new` takes the generator's own `AnomalyKind`, so the
        // kinds without a named constructor schedule like the rest.
        let (target, port) = (0x0a00_0063, 8080);
        let flood = AnomalyEvent::new(AnomalyKind::SynFlood { target, port });
        let scenario = Scenario::new("syn").seed(3).phase(
            Phase::new("p", 6)
                .profile(TraceProfile::CescaI)
                .scale(0.05)
                .anomaly(flood.over(2, 2).intensity(300)),
        );
        for (bin, batch) in scenario.generate().expect("valid").iter().enumerate() {
            let syns = batch
                .packets
                .iter()
                .filter(|p| {
                    let tuple = p.tuple();
                    tuple.dst_ip == target && tuple.dst_port == port && p.tcp_flags() == TCP_SYN
                })
                .count();
            assert_eq!(syns >= 300, (2..4).contains(&bin), "bin {bin}: {syns} SYNs");
        }
        assert_eq!(flood.kind(), Some(AnomalyKind::SynFlood { target, port }));
        assert_eq!(AnomalyEvent::link_flap().kind(), None);
    }

    #[test]
    fn link_flap_darkens_the_window_without_shifting_later_bins() {
        let scenario = Scenario::new("flap").seed(4).phase(
            Phase::new("flapping", 8)
                .profile(TraceProfile::CescaI)
                .scale(0.05)
                .anomaly(AnomalyEvent::link_flap().over(3, 2)),
        );
        let batches = scenario.generate().expect("valid");
        assert_eq!(batches.len(), 8);
        for (bin, batch) in batches.iter().enumerate() {
            if (3..5).contains(&bin) {
                assert!(batch.is_empty(), "bin {bin} must be dark");
            } else {
                assert!(!batch.is_empty(), "bin {bin} must carry traffic");
            }
            assert_eq!(batch.bin_index, bin as u64);
        }
        // The post-flap stream equals the unflapped scenario's: the
        // generator kept running while the link was down.
        let unflapped = Scenario::new("flap")
            .seed(4)
            .phase(Phase::new("flapping", 8).profile(TraceProfile::CescaI).scale(0.05))
            .generate()
            .expect("valid");
        assert_eq!(batches[6].packets.as_ref(), unflapped[6].packets.as_ref());
    }

    #[test]
    fn multi_link_scenarios_interleave_their_links() {
        let two = Scenario::new("two-links")
            .seed(5)
            .link(
                Link::new("a").phase(Phase::new("p", 5).profile(TraceProfile::CescaI).scale(0.05)),
            )
            .link(
                Link::new("b").phase(Phase::new("p", 3).profile(TraceProfile::Cenic).scale(0.05)),
            );
        assert_eq!(two.total_bins(), 5);
        let merged = two.generate().expect("valid");
        assert_eq!(merged.len(), 5, "the interleave runs until the longest link ends");
        let only_a = Scenario::new("two-links")
            .seed(5)
            .link(
                Link::new("a").phase(Phase::new("p", 5).profile(TraceProfile::CescaI).scale(0.05)),
            )
            .generate()
            .expect("valid");
        // Tail bins (after link b ends) carry exactly link a's traffic.
        assert_eq!(merged[4].packets.as_ref(), only_a[4].packets.as_ref());
        // Merged head bins carry more traffic than link a alone.
        assert!(merged[0].len() > only_a[0].len());
    }

    #[test]
    fn silent_phases_emit_empty_bins() {
        let scenario = Scenario::new("gap")
            .seed(6)
            .phase(Phase::new("on", 2).profile(TraceProfile::CescaI).scale(0.05))
            .phase(Phase::new("off", 2).silent())
            .phase(Phase::new("back", 2).profile(TraceProfile::CescaI).scale(0.05));
        let batches = scenario.generate().expect("valid");
        assert_eq!(batches.len(), 6);
        assert!(!batches[1].is_empty());
        assert!(batches[2].is_empty() && batches[3].is_empty());
        assert!(!batches[4].is_empty());
    }

    #[test]
    fn validation_rejects_malformed_scenarios() {
        let no_links = Scenario::new("empty");
        assert_eq!(no_links.validate(), Err(ScenarioError::NoLinks { scenario: "empty".into() }));

        let empty_link = Scenario::new("s").link(Link::new("bare"));
        assert_eq!(empty_link.validate(), Err(ScenarioError::EmptyLink { link: "bare".into() }));

        let zero_phase = Scenario::new("s").phase(Phase::new("nothing", 0));
        assert!(matches!(
            zero_phase.validate(),
            Err(ScenarioError::ZeroDurationPhase { ref phase, .. }) if phase == "nothing"
        ));

        let bad_scale = Scenario::new("s").phase(Phase::new("p", 4).scale(0.0));
        assert!(matches!(bad_scale.validate(), Err(ScenarioError::InvalidScale { .. })));

        let out_of_phase =
            Scenario::new("s").phase(Phase::new("p", 4).anomaly(AnomalyEvent::ddos(1).over(2, 5)));
        assert!(matches!(out_of_phase.validate(), Err(ScenarioError::AnomalyOutOfPhase { .. })));

        let overlapping = Scenario::new("s").phase(
            Phase::new("p", 10)
                .anomaly(AnomalyEvent::ddos(1).over(0, 5))
                .anomaly(AnomalyEvent::port_scan(2).over(4, 3)),
        );
        assert_eq!(
            overlapping.validate(),
            Err(ScenarioError::OverlappingAnomalies {
                phase: "p".into(),
                first: (0, 5),
                second: (4, 7),
            })
        );

        let on_silent = Scenario::new("s")
            .phase(Phase::new("p", 4).silent().anomaly(AnomalyEvent::ddos(1).over(0, 2)));
        assert!(matches!(on_silent.validate(), Err(ScenarioError::AnomalyOnSilentPhase { .. })));

        let zero_intensity = Scenario::new("s")
            .phase(Phase::new("p", 4).anomaly(AnomalyEvent::ddos(1).over(0, 2).intensity(0)));
        assert!(matches!(zero_intensity.validate(), Err(ScenarioError::ZeroIntensity { .. })));

        let empty_window =
            Scenario::new("s").phase(Phase::new("p", 4).anomaly(AnomalyEvent::ddos(1).over(2, 0)));
        assert!(matches!(empty_window.validate(), Err(ScenarioError::EmptyAnomalyWindow { .. })));
    }

    #[test]
    fn config_phases_are_scale_validated_too() {
        // `Phase::config(...).scale(x)` folds the scale into the config's
        // mean, so the validation guard lands on the resulting mean: NaN,
        // non-positive and absurdly huge rates are all typed errors, never
        // panics or silently empty traffic.
        for bad_scale in [f64::NAN, 0.0, -3.0, 1e300] {
            let scenario = Scenario::new("cfg")
                .phase(Phase::new("p", 2).config(TraceConfig::default()).scale(bad_scale));
            assert!(
                matches!(scenario.validate(), Err(ScenarioError::InvalidScale { .. })),
                "config scale {bad_scale} must be rejected"
            );
        }
        // Huge profile scales are bounded the same way.
        let huge = Scenario::new("huge").phase(Phase::new("p", 2).scale(1e300));
        assert!(matches!(huge.validate(), Err(ScenarioError::InvalidScale { .. })));
        // So is an in-range scale applied to an absurd explicit mean: the
        // guard bounds the *effective* mean.
        let absurd = TraceConfig { mean_packets_per_batch: 1e8, ..TraceConfig::default() };
        let product = Scenario::new("prod").phase(Phase::new("p", 2).config(absurd).scale(100.0));
        assert!(matches!(product.validate(), Err(ScenarioError::InvalidScale { .. })));
        // A sane explicit config still validates and runs.
        let ok = Scenario::new("ok")
            .seed(3)
            .phase(Phase::new("p", 2).config(TraceConfig::default()).scale(0.05));
        assert_eq!(ok.generate().expect("valid").len(), 2);
    }

    #[test]
    fn scale_is_idempotent_and_order_independent_across_traffic_specs() {
        // Setting the scale twice keeps the last value for every variant,
        // and `.scale()` before or after the traffic spec is equivalent —
        // switching a phase between a profile and an equivalent explicit
        // config must not silently change the traffic volume.
        let reference = Scenario::new("s")
            .seed(2)
            .phase(Phase::new("p", 2).profile(TraceProfile::CescaI).scale(0.05))
            .generate()
            .expect("valid");
        for phase in [
            Phase::new("p", 2).scale(0.9).profile(TraceProfile::CescaI).scale(0.05),
            Phase::new("p", 2).scale(0.05).profile(TraceProfile::CescaI),
            Phase::new("p", 2).config(TraceProfile::CescaI.default_config(0)).scale(0.05),
            Phase::new("p", 2).scale(0.05).config(TraceProfile::CescaI.default_config(0)),
        ] {
            let batches = Scenario::new("s").seed(2).phase(phase).generate().expect("valid");
            assert_eq!(batches, reference);
        }
    }

    #[test]
    fn absurd_durations_are_typed_errors_not_panics() {
        for bins in [u64::MAX, MAX_LINK_BINS + 1] {
            let scenario = Scenario::new("forever").phase(Phase::new("p", bins).scale(0.05));
            assert!(
                matches!(scenario.validate(), Err(ScenarioError::LinkTooLong { .. })),
                "{bins} bins must be rejected"
            );
            assert!(scenario.compile().is_err());
        }
        // The sum of phases is bounded too, without overflowing.
        let split = Scenario::new("split")
            .phase(Phase::new("a", u64::MAX / 2).scale(0.05))
            .phase(Phase::new("b", u64::MAX / 2 + 5).scale(0.05));
        assert!(matches!(split.validate(), Err(ScenarioError::LinkTooLong { .. })));
    }

    #[test]
    fn default_link_phases_never_extend_an_explicit_link() {
        let scenario = Scenario::new("mixed")
            .link(Link::new("core").phase(Phase::new("a", 3).scale(0.05)))
            .phase(Phase::new("extra", 2).scale(0.05))
            .phase(Phase::new("more", 1).scale(0.05));
        assert_eq!(scenario.links().len(), 2, "phases go to their own default link");
        assert_eq!(scenario.links()[0].name(), "core");
        assert_eq!(scenario.links()[0].phases().len(), 1, "the explicit link is untouched");
        assert_eq!(scenario.links()[1].name(), "mixed-link");
        assert_eq!(scenario.links()[1].phases().len(), 2);
        assert_eq!(scenario.total_bins(), 3);
    }

    #[test]
    fn bin_duration_accessor_reports_the_configured_bin() {
        assert_eq!(tiny("bins").bin_duration_us(), crate::DEFAULT_TIME_BIN_US);
        assert_eq!(tiny("bins").time_bin_us(50_000).bin_duration_us(), 50_000);
    }

    #[test]
    fn compile_surfaces_validation_errors() {
        let err = Scenario::new("broken").compile().err().expect("must fail");
        assert_eq!(err, ScenarioError::NoLinks { scenario: "broken".into() });
    }

    #[test]
    fn builtins_are_valid_and_unique() {
        let scenarios = builtins();
        assert_eq!(scenarios.len(), 9);
        let mut names = std::collections::HashSet::new();
        for scenario in &scenarios {
            scenario.validate().unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
            assert!(names.insert(scenario.name().to_string()), "duplicate {}", scenario.name());
            assert!(scenario.total_bins() >= 20 && scenario.total_bins() <= 60);
        }
        assert!(builtin("ddos-spike").is_some());
        for adversarial in ["bm-mimicry", "flow-churn", "agg-skew"] {
            assert!(builtin(adversarial).is_some(), "{adversarial} must stay in the corpus");
        }
        assert!(builtin("no-such-scenario").is_none());
    }
}
