//! The four workloads: what traffic each generates from the seed, which
//! queries it registers, and which engine the daemon hosts.
//!
//! The program receives only the generated `.nstr` bytes and the query
//! specs; nothing downstream of [`prepare`] sees the seed.

use crate::sut::{
    encode_batches, measure_total_demand, AllocationPolicy, AnomalyEvent, Batch, Bytes, Monitor,
    MonitorBuilder, Phase, QueryKind, QuerySpec, Scenario, Strategy, TraceConfig, TraceGenerator,
};
use crate::Result;

/// Which engine the daemon hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `Daemon<Monitor>`.
    Solo,
    /// `Daemon<ShardedMonitor>`, [`FLEET_LANES`] lanes.
    Fleet,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Default `TraceConfig`, header-only, this many packets per bin on
    /// average.
    HeaderOnly { mean_packets: u32 },
    /// Full-payload `Scenario` with a DDoS over the middle quarter.
    PayloadDdos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuerySet {
    /// The seven queries of the paper's Chapter 4 evaluation, capacity at
    /// half the measured demand.
    Chapter4,
    /// All ten query kinds, capacity at half the measured demand.
    AllKinds,
    /// This many labelled tenants cycling over five cheap kinds, capacity so
    /// large that nothing is ever shed.
    Tenants(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what this workload is for.
    pub why: &'static str,
    pub engine: EngineKind,
    bins: usize,
    traffic: Traffic,
    queries: QuerySet,
}

/// Lanes of the fleet workload (the repo's `DEFAULT_SHARD_LANES`, pinned here
/// so a change of that default shows up as a digest change, not silently).
pub const FLEET_LANES: usize = 4;

/// The monitor's own seed: fixed, so `--seed` varies the traffic only.
const MONITOR_SEED: u64 = 7;

/// Bins are sized so that, on the 2-core reference host, one pass takes one
/// to two seconds and a `run_seconds` window holds five or more passes; 200
/// is the fewest bins p95 can be taken over (ten samples beyond it).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo-overload",
        why: "Ch. 4 operating point: 7 queries at 2x overload on one Monitor; per-packet stages (decode, extract, shed, re-extract) do most of the work",
        engine: EngineKind::Solo,
        bins: 1000,
        traffic: Traffic::HeaderOnly { mean_packets: 2000 },
        queries: QuerySet::Chapter4,
    },
    Workload {
        name: "fleet-overload",
        why: "the same bytes through a 4-lane ShardedMonitor on one thread: a fleet-path fix shows here and must not move solo-overload",
        engine: EngineKind::Fleet,
        bins: 1000,
        traffic: Traffic::HeaderOnly { mean_packets: 2000 },
        queries: QuerySet::Chapter4,
    },
    Workload {
        name: "tenants-underload",
        why: "200 tenants, nothing shed: per-query fixed costs (predict, run, record, digest) dominate, per-packet stages vanish, snapshots are large",
        engine: EngineKind::Solo,
        bins: 200,
        traffic: Traffic::HeaderOnly { mean_packets: 500 },
        queries: QuerySet::Tenants(200),
    },
    Workload {
        name: "payload-ddos",
        why: "full-payload traffic with a DDoS in the middle, all ten queries: decode moves bytes, payload scanners dominate, rates move bin to bin",
        engine: EngineKind::Solo,
        bins: 400,
        traffic: Traffic::PayloadDdos,
        queries: QuerySet::AllKinds,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// Everything a pass needs, made once per set-up.
pub struct Input {
    /// The encoded `.nstr` container.
    pub bytes: Bytes,
    pub packets: u64,
    pub bins: usize,
    pub specs: Vec<QuerySpec>,
    /// Cycle budget per bin the engines are built with.
    pub capacity: f64,
    /// The capacity is so large that no query is ever shed, so every output
    /// must equal the reference execution's.
    pub unshed: bool,
}

impl Workload {
    /// Bins of a run; a smoke run replays a tenth of them.
    pub fn bins(&self, smoke: bool) -> usize {
        if smoke {
            self.bins / 10
        } else {
            self.bins
        }
    }

    /// The traffic seed. Derived from the traffic shape, not the workload, so
    /// `solo-overload` and `fleet-overload` replay identical bytes.
    fn traffic_seed(&self, seed: u64) -> u64 {
        let salt = match self.traffic {
            Traffic::HeaderOnly { mean_packets } => u64::from(mean_packets),
            Traffic::PayloadDdos => 0xdd05,
        };
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
    }

    fn generate(&self, seed: u64, bins: usize) -> Result<Vec<Batch>> {
        let seed = self.traffic_seed(seed);
        match self.traffic {
            Traffic::HeaderOnly { mean_packets } => {
                let config = TraceConfig::default()
                    .with_seed(seed)
                    .with_mean_packets_per_batch(f64::from(mean_packets));
                Ok(TraceGenerator::new(config).batches(bins))
            }
            Traffic::PayloadDdos => {
                let bins = bins as u64;
                let attack =
                    AnomalyEvent::ddos(0x0a00_0001).over(bins * 3 / 8, bins / 4).intensity(500);
                let phase = Phase::new("payload", bins)
                    .config(TraceConfig::default().with_payloads(true))
                    .anomaly(attack);
                Ok(Scenario::new("payload-ddos").seed(seed).phase(phase).generate()?)
            }
        }
    }

    fn specs(&self) -> Vec<QuerySpec> {
        match self.queries {
            QuerySet::Chapter4 => {
                QueryKind::CHAPTER4_SET.iter().map(|k| QuerySpec::new(*k)).collect()
            }
            QuerySet::AllKinds => QueryKind::ALL.iter().map(|k| QuerySpec::new(*k)).collect(),
            QuerySet::Tenants(count) => {
                const KINDS: [QueryKind; 5] = [
                    QueryKind::Counter,
                    QueryKind::Application,
                    QueryKind::Flows,
                    QueryKind::TopK,
                    QueryKind::HighWatermark,
                ];
                (0..count)
                    .map(|i| {
                        QuerySpec::new(KINDS[i % KINDS.len()]).with_label(format!("tenant-{i:04}"))
                    })
                    .collect()
            }
        }
    }

    /// The builder every engine of this workload starts from: one worker,
    /// one shard thread, the paper's predictive `mmfs_pkt` strategy. The
    /// thread counts are set explicitly because their defaults read the
    /// environment.
    pub fn builder(&self, input: &Input) -> MonitorBuilder {
        Monitor::builder()
            .capacity(input.capacity)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .no_noise()
            .seed(MONITOR_SEED)
            .with_workers(1)
            .with_shards(1)
            .with_shard_lanes(FLEET_LANES)
            .queries(input.specs.clone())
    }

    /// Set-up, part one: generate the traffic from the seed, encode it to
    /// `.nstr` bytes and calibrate the capacity against the measured demand
    /// of the first quarter of the bins. (Part two, building and registering
    /// the first engine, needs the engine type and lives with the passes.)
    pub fn prepare(&self, seed: u64, smoke: bool) -> Result<Input> {
        let bins = self.bins(smoke);
        let batches = self.generate(seed, bins)?;
        if batches.len() != bins || batches.iter().any(Batch::is_empty) {
            // An empty bin is skipped inside a tick, which would shift every
            // later bin's index between the timing passes and the replays.
            return Err(
                format!("{}: generated traffic has missing or empty bins", self.name).into()
            );
        }
        let packets = batches.iter().map(|batch| batch.len() as u64).sum();
        let bytes = Bytes::from(encode_batches(&batches, batches[0].duration_us)?);
        let specs = self.specs();
        let unshed = matches!(self.queries, QuerySet::Tenants(_));
        let capacity = if unshed {
            1e15
        } else {
            measure_total_demand(&specs, &batches[..(bins / 4).max(1)])? / 2.0
        };
        Ok(Input { bytes, packets, bins, specs, capacity, unshed })
    }
}
