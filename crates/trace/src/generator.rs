//! Synthetic workload generator.
//!
//! Substitutes the CESCA / UPC / NLANR packet traces used in the paper with a
//! flow-level traffic model that reproduces the properties the load shedding
//! evaluation actually depends on:
//!
//! * **bursty load**: per-bin packet counts follow a log-normal AR(1)
//!   modulation on top of a configurable mean, so peak rates are several times
//!   the average (Section 1.2, "arbitrary input");
//! * **heavy-tailed flows**: flow lengths in packets are Pareto distributed,
//!   so a few flows carry most packets, as in real traffic;
//! * **skewed address/port popularity**: Zipf-distributed hosts and an
//!   application mix, which makes the unique/new/repeated aggregate counters
//!   of the feature extractor behave like they do on ISP traffic;
//! * **optional payloads**: payload-carrying traces (CESCA-II, UPC-I) are
//!   emulated by attaching application-specific payload templates, including
//!   P2P protocol signatures, so signature-matching queries have real work.

use crate::batch::Batch;
use crate::dist::{log_normal, pareto, poisson, Zipf};
use crate::packet::{FiveTuple, Packet, TCP_ACK, TCP_FIN, TCP_SYN};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Application protocols present in the synthetic mix.
///
/// Each protocol determines the transport protocol, the server port, the
/// packet size profile and the payload template used when payload generation
/// is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    /// Plain web traffic (TCP/80).
    Http,
    /// Encrypted web traffic (TCP/443).
    Https,
    /// Domain name lookups (UDP/53), short flows and small packets.
    Dns,
    /// Mail transfer (TCP/25).
    Smtp,
    /// BitTorrent-like P2P traffic (TCP/6881) carrying the well-known
    /// `"BitTorrent protocol"` handshake string in some payloads.
    P2pBitTorrent,
    /// Gnutella-like P2P traffic (TCP/6346) carrying `"GNUTELLA CONNECT"`.
    P2pGnutella,
    /// Interactive SSH (TCP/22), small packets.
    Ssh,
    /// Bulk data transfer (TCP/20), MTU-sized packets.
    Bulk,
    /// Anything else (unclassified UDP high ports).
    Other,
}

impl AppProtocol {
    /// All protocols, used to build the default mix.
    pub const ALL: [AppProtocol; 9] = [
        AppProtocol::Http,
        AppProtocol::Https,
        AppProtocol::Dns,
        AppProtocol::Smtp,
        AppProtocol::P2pBitTorrent,
        AppProtocol::P2pGnutella,
        AppProtocol::Ssh,
        AppProtocol::Bulk,
        AppProtocol::Other,
    ];

    /// Well-known server port of the protocol.
    pub fn server_port(self) -> u16 {
        match self {
            AppProtocol::Http => 80,
            AppProtocol::Https => 443,
            AppProtocol::Dns => 53,
            AppProtocol::Smtp => 25,
            AppProtocol::P2pBitTorrent => 6881,
            AppProtocol::P2pGnutella => 6346,
            AppProtocol::Ssh => 22,
            AppProtocol::Bulk => 20,
            AppProtocol::Other => 40000,
        }
    }

    /// IP protocol number used by the application.
    pub fn ip_proto(self) -> u8 {
        match self {
            AppProtocol::Dns | AppProtocol::Other => 17,
            _ => 6,
        }
    }

    /// Mean packet size in bytes (including headers).
    pub fn mean_packet_size(self) -> f64 {
        match self {
            AppProtocol::Http | AppProtocol::Https => 700.0,
            AppProtocol::Dns => 90.0,
            AppProtocol::Smtp => 500.0,
            AppProtocol::P2pBitTorrent | AppProtocol::P2pGnutella => 900.0,
            AppProtocol::Ssh => 120.0,
            AppProtocol::Bulk => 1400.0,
            AppProtocol::Other => 300.0,
        }
    }

    /// Signature string embedded in some payloads of this protocol, if any.
    ///
    /// These are the strings the `p2p-detector` and `pattern-search` queries
    /// look for.
    pub fn signature(self) -> Option<&'static [u8]> {
        match self {
            AppProtocol::P2pBitTorrent => Some(b"BitTorrent protocol"),
            AppProtocol::P2pGnutella => Some(b"GNUTELLA CONNECT"),
            AppProtocol::Http => Some(b"GET / HTTP/1.1"),
            _ => None,
        }
    }

    /// Human-readable protocol name.
    pub fn name(self) -> &'static str {
        match self {
            AppProtocol::Http => "http",
            AppProtocol::Https => "https",
            AppProtocol::Dns => "dns",
            AppProtocol::Smtp => "smtp",
            AppProtocol::P2pBitTorrent => "bittorrent",
            AppProtocol::P2pGnutella => "gnutella",
            AppProtocol::Ssh => "ssh",
            AppProtocol::Bulk => "bulk",
            AppProtocol::Other => "other",
        }
    }
}

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// PRNG seed; two generators with the same configuration produce the same
    /// packet stream.
    pub seed: u64,
    /// Duration of a time bin (batch) in microseconds.
    pub time_bin_us: u64,
    /// Long-run mean number of packets per batch before modulation.
    pub mean_packets_per_batch: f64,
    /// Standard deviation of the log-normal per-bin load modulation
    /// (0 disables burstiness).
    pub burstiness_sigma: f64,
    /// Autocorrelation coefficient of the per-bin modulation (0..1); higher
    /// values produce longer bursts (closer to self-similar behaviour).
    pub burstiness_rho: f64,
    /// Amplitude of the slow sinusoidal (diurnal-like) load variation, as a
    /// fraction of the mean (0 disables it).
    pub diurnal_amplitude: f64,
    /// Period of the sinusoidal variation, in time bins.
    pub diurnal_period_bins: u64,
    /// Probability that a generated packet starts a brand-new flow.
    pub new_flow_probability: f64,
    /// Pareto shape of the flow length distribution (packets per flow).
    pub flow_length_alpha: f64,
    /// Minimum flow length in packets.
    pub flow_length_min: f64,
    /// Number of distinct "internal" hosts (clients).
    pub internal_hosts: usize,
    /// Number of distinct "external" hosts (servers).
    pub external_hosts: usize,
    /// Zipf exponent for host popularity.
    pub host_zipf_exponent: f64,
    /// Whether packets carry payloads (full-payload traces).
    pub payloads: bool,
    /// Fraction of payload-carrying packets of a P2P flow that embed the
    /// protocol signature (the handshake is only present in some packets).
    pub signature_fraction: f64,
    /// Application mix as (protocol, weight) pairs; weights need not sum to 1.
    pub app_mix: Vec<(AppProtocol, f64)>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            time_bin_us: crate::DEFAULT_TIME_BIN_US,
            mean_packets_per_batch: 1000.0,
            burstiness_sigma: 0.25,
            burstiness_rho: 0.7,
            diurnal_amplitude: 0.2,
            diurnal_period_bins: 6000,
            new_flow_probability: 0.08,
            flow_length_alpha: 1.3,
            flow_length_min: 2.0,
            internal_hosts: 4096,
            external_hosts: 16384,
            host_zipf_exponent: 0.9,
            payloads: false,
            signature_fraction: 0.2,
            app_mix: vec![
                (AppProtocol::Http, 0.32),
                (AppProtocol::Https, 0.18),
                (AppProtocol::Dns, 0.10),
                (AppProtocol::Smtp, 0.05),
                (AppProtocol::P2pBitTorrent, 0.12),
                (AppProtocol::P2pGnutella, 0.04),
                (AppProtocol::Ssh, 0.03),
                (AppProtocol::Bulk, 0.08),
                (AppProtocol::Other, 0.08),
            ],
        }
    }
}

impl TraceConfig {
    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mean number of packets per batch.
    pub fn with_mean_packets_per_batch(mut self, mean: f64) -> Self {
        self.mean_packets_per_batch = mean;
        self
    }

    /// Enables or disables payload generation.
    pub fn with_payloads(mut self, payloads: bool) -> Self {
        self.payloads = payloads;
        self
    }
}

/// State of one active synthetic flow.
#[derive(Debug, Clone)]
struct ActiveFlow {
    tuple: FiveTuple,
    app: AppProtocol,
    remaining: u32,
    sent: u32,
}

/// Pool of payload templates, one set per application protocol.
#[derive(Debug)]
struct PayloadPool {
    templates: Vec<(AppProtocol, Bytes, Bytes)>,
}

impl PayloadPool {
    /// Builds one signature-bearing and one plain template per protocol.
    fn new(rng: &mut StdRng) -> Self {
        let mut templates = Vec::new();
        for &app in &AppProtocol::ALL {
            let mut with_sig = vec![0u8; 1460];
            let mut plain = vec![0u8; 1460];
            rng.fill(&mut with_sig[..]);
            rng.fill(&mut plain[..]);
            // Keep the bytes mostly printable so that string-oriented queries
            // see realistic content.
            for b in with_sig.iter_mut().chain(plain.iter_mut()) {
                *b = 0x20 + (*b % 0x5f);
            }
            if let Some(sig) = app.signature() {
                with_sig[..sig.len()].copy_from_slice(sig);
            }
            templates.push((app, Bytes::from(with_sig), Bytes::from(plain)));
        }
        Self { templates }
    }

    /// Returns a payload slice of `len` bytes for the given application.
    fn payload(&self, app: AppProtocol, len: usize, with_signature: bool) -> Bytes {
        let entry = self
            .templates
            .iter()
            .find(|(a, _, _)| *a == app)
            // lint:allow(no-unwrap): the template table is built over AppProtocol::ALL at construction, so every protocol resolves
            .expect("template exists for every protocol");
        let source = if with_signature { &entry.1 } else { &entry.2 };
        let len = len.min(source.len());
        source.slice(..len)
    }
}

/// Streaming synthetic trace generator.
///
/// Produces one [`Batch`] per call to [`TraceGenerator::next_batch`]. The
/// stream is infinite; callers decide how many batches to consume.
pub struct TraceGenerator {
    config: TraceConfig,
    rng: StdRng,
    bin_index: u64,
    modulation: f64,
    active_flows: Vec<ActiveFlow>,
    host_zipf_internal: Zipf,
    host_zipf_external: Zipf,
    app_cdf: Vec<(AppProtocol, f64)>,
    payloads: PayloadPool,
    /// Anomaly packet injectors consulted at every bin.
    injectors: Vec<crate::anomaly::Anomaly>,
}

impl std::fmt::Debug for TraceGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceGenerator")
            .field("bin_index", &self.bin_index)
            .field("active_flows", &self.active_flows.len())
            .finish_non_exhaustive()
    }
}

impl TraceGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: TraceConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let host_zipf_internal = Zipf::new(config.internal_hosts.max(1), config.host_zipf_exponent);
        let host_zipf_external = Zipf::new(config.external_hosts.max(1), config.host_zipf_exponent);
        let total_weight: f64 = config.app_mix.iter().map(|(_, w)| *w).sum();
        let mut acc = 0.0;
        let app_cdf = config
            .app_mix
            .iter()
            .map(|(app, w)| {
                acc += w / total_weight;
                (*app, acc)
            })
            .collect();
        let payloads = PayloadPool::new(&mut rng);
        Self {
            config,
            rng,
            bin_index: 0,
            modulation: 1.0,
            active_flows: Vec::new(),
            host_zipf_internal,
            host_zipf_external,
            app_cdf,
            payloads,
            injectors: Vec::new(),
        }
    }

    /// Attaches an anomaly that will inject extra packets into the affected bins.
    pub fn add_anomaly(&mut self, anomaly: crate::anomaly::Anomaly) {
        self.injectors.push(anomaly);
    }

    /// Returns the configuration this generator was built from.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generates the next batch of the trace.
    pub fn next_batch(&mut self) -> Batch {
        let bin = self.bin_index;
        self.bin_index += 1;
        let start_ts = bin * self.config.time_bin_us;

        // Update the AR(1) log-normal modulation and the slow diurnal factor.
        let rho = self.config.burstiness_rho.clamp(0.0, 0.999);
        let sigma = self.config.burstiness_sigma.max(0.0);
        let innovation = log_normal(&mut self.rng, -0.5 * sigma * sigma, sigma);
        self.modulation = rho * self.modulation + (1.0 - rho) * innovation;
        let diurnal = 1.0
            + self.config.diurnal_amplitude
                * (2.0 * std::f64::consts::PI * bin as f64
                    / self.config.diurnal_period_bins.max(1) as f64)
                    .sin();
        let mean =
            self.config.mean_packets_per_batch * self.modulation.max(0.05) * diurnal.max(0.1);
        let target = poisson(&mut self.rng, mean) as usize;

        let mut packets = Vec::with_capacity(target + 64);
        for _ in 0..target {
            let packet = self.next_packet(start_ts);
            packets.push(packet);
        }

        // Let every attached anomaly contribute its packets for this bin.
        let injectors = std::mem::take(&mut self.injectors);
        for anomaly in &injectors {
            anomaly.inject(bin, start_ts, self.config.time_bin_us, &mut self.rng, &mut packets);
        }
        self.injectors = injectors;

        packets.sort_by_key(|p| p.ts);
        Batch::new(bin, start_ts, self.config.time_bin_us, packets)
    }

    /// Generates `count` consecutive batches.
    pub fn batches(&mut self, count: usize) -> Vec<Batch> {
        (0..count).map(|_| self.next_batch()).collect()
    }

    fn next_packet(&mut self, start_ts: u64) -> Packet {
        let spawn_new = self.active_flows.is_empty()
            || self.rng.gen::<f64>() < self.config.new_flow_probability;
        let flow_idx = if spawn_new {
            self.spawn_flow();
            self.active_flows.len() - 1
        } else {
            self.rng.gen_range(0..self.active_flows.len())
        };

        let ts = start_ts + self.rng.gen_range(0..self.config.time_bin_us);
        let (tuple, app, flags, exhausted) = {
            let flow = &mut self.active_flows[flow_idx];
            let mut flags = 0u8;
            if flow.tuple.proto == 6 {
                flags = if flow.sent == 0 {
                    TCP_SYN
                } else if flow.remaining == 1 {
                    TCP_ACK | TCP_FIN
                } else {
                    TCP_ACK
                };
            }
            flow.sent += 1;
            flow.remaining = flow.remaining.saturating_sub(1);
            (flow.tuple, flow.app, flags, flow.remaining == 0)
        };
        if exhausted {
            self.active_flows.swap_remove(flow_idx);
        }

        let mean_size = app.mean_packet_size();
        let size = if flags & TCP_SYN != 0 && flags & TCP_ACK == 0 {
            40.0
        } else {
            // Packet sizes roughly bimodal: many small ACK-sized packets plus
            // data packets around the application mean, capped at the MTU.
            if self.rng.gen::<f64>() < 0.3 {
                40.0 + self.rng.gen::<f64>() * 80.0
            } else {
                (mean_size * (0.5 + self.rng.gen::<f64>())).min(1500.0)
            }
        };
        let ip_len = size.max(40.0) as u32;

        let payload = if self.config.payloads && ip_len > 60 {
            let payload_len = (ip_len as usize).saturating_sub(40);
            let with_sig = self.rng.gen::<f64>() < self.config.signature_fraction;
            Some(self.payloads.payload(app, payload_len, with_sig))
        } else {
            None
        };

        Packet { ts, tuple, ip_len, tcp_flags: flags, payload }
    }

    fn spawn_flow(&mut self) {
        let app = self.pick_app();
        let client_rank = self.host_zipf_internal.sample(&mut self.rng) as u32;
        let server_rank = self.host_zipf_external.sample(&mut self.rng) as u32;
        // Internal hosts live in 10.0.0.0/8, external hosts in 128.0.0.0/2.
        let client_ip = 0x0a00_0000 | (client_rank & 0x00ff_ffff);
        let server_ip = 0x8000_0000 | server_rank;
        let client_port = self.rng.gen_range(1024..=65535u16);
        // Half of the flows are outbound (client inside), half inbound.
        let outbound = self.rng.gen::<bool>();
        let tuple = if outbound {
            FiveTuple::new(client_ip, server_ip, client_port, app.server_port(), app.ip_proto())
        } else {
            FiveTuple::new(server_ip, client_ip, app.server_port(), client_port, app.ip_proto())
        };
        let length = pareto(
            &mut self.rng,
            self.config.flow_length_min.max(1.0),
            self.config.flow_length_alpha,
        )
        .min(100_000.0) as u32;
        self.active_flows.push(ActiveFlow { tuple, app, remaining: length.max(1), sent: 0 });
    }

    fn pick_app(&mut self) -> AppProtocol {
        let u: f64 = self.rng.gen();
        for (app, cum) in &self.app_cdf {
            if u <= *cum {
                return *app;
            }
        }
        self.app_cdf.last().map_or(AppProtocol::Other, |(app, _)| *app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        let mut g1 = TraceGenerator::new(TraceConfig::default().with_seed(9));
        let mut g2 = TraceGenerator::new(TraceConfig::default().with_seed(9));
        for _ in 0..5 {
            let b1 = g1.next_batch();
            let b2 = g2.next_batch();
            assert_eq!(b1.len(), b2.len());
            assert_eq!(b1.packets.as_ref(), b2.packets.as_ref());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut g1 = TraceGenerator::new(TraceConfig::default().with_seed(1));
        let mut g2 = TraceGenerator::new(TraceConfig::default().with_seed(2));
        let b1 = g1.next_batch();
        let b2 = g2.next_batch();
        assert_ne!(b1.packets.as_ref(), b2.packets.as_ref());
    }

    #[test]
    fn mean_load_tracks_configuration() {
        let config = TraceConfig::default().with_seed(5).with_mean_packets_per_batch(300.0);
        let config = TraceConfig { burstiness_sigma: 0.1, burstiness_rho: 0.5, ..config };
        let mut g = TraceGenerator::new(config);
        let batches = g.batches(200);
        let mean = batches.iter().map(|b| b.len() as f64).sum::<f64>() / 200.0;
        assert!(
            (mean - 300.0).abs() < 90.0,
            "mean packets per batch {mean} too far from configured 300"
        );
    }

    #[test]
    fn timestamps_are_within_the_bin_and_sorted() {
        let mut g = TraceGenerator::new(TraceConfig::default().with_seed(11));
        for _ in 0..5 {
            let batch = g.next_batch();
            let mut last = batch.start_ts;
            for p in batch.packets.iter() {
                assert!(p.ts() >= batch.start_ts && p.ts() < batch.start_ts + batch.duration_us);
                assert!(p.ts() >= last);
                last = p.ts();
            }
        }
    }

    #[test]
    fn payload_traces_carry_payloads_and_signatures() {
        let config = TraceConfig::default().with_seed(3).with_payloads(true);
        let mut g = TraceGenerator::new(config);
        let batches = g.batches(20);
        let with_payload =
            batches.iter().flat_map(|b| b.packets.iter()).filter(|p| p.payload().is_some()).count();
        assert!(with_payload > 0, "payload-enabled trace produced no payloads");
        let with_sig = batches
            .iter()
            .flat_map(|b| b.packets.iter())
            .filter_map(|p| p.payload())
            .filter(|pl| {
                pl.windows(b"BitTorrent protocol".len()).any(|w| w == b"BitTorrent protocol")
            })
            .count();
        assert!(with_sig > 0, "no BitTorrent signatures found in payload trace");
    }

    #[test]
    fn header_only_traces_have_no_payloads() {
        let mut g = TraceGenerator::new(TraceConfig::default().with_seed(3));
        let batch = g.next_batch();
        assert!(batch.packets.iter().all(|p| p.payload().is_none()));
    }

    #[test]
    fn flows_have_syn_and_fin_for_tcp() {
        let mut g = TraceGenerator::new(TraceConfig::default().with_seed(13));
        let batches = g.batches(50);
        let syns = batches
            .iter()
            .flat_map(|b| b.packets.iter())
            .filter(|p| p.tcp_flags() == crate::packet::TCP_SYN)
            .count();
        assert!(syns > 0, "expected some SYN packets");
    }
}
