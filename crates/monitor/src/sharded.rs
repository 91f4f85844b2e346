//! The shard plane: a fleet is the solo bin with a lane-sharded execute
//! stage.
//!
//! Sharding partitions **query execution**, not the monitor. A
//! [`ShardedMonitor`] is a [`Monitor`] whose lane count is the
//! configuration's `shard_lanes`: every stage up to and including shed runs
//! once per bin on the global post-drop view — one feature extractor, one
//! feature window, one capture buffer, one policy instance, one predictor
//! and one sampled extractor per registered query, one RNG and one noise
//! stream — and the execute stage splits what each query is delivered over
//! the lanes by the symmetric host-pair
//! [`shard_key`](netshed_trace::shard_key) (`lane = key % lanes`, asked once
//! per flow of the batch's flow index), runs each lane's own instance of the
//! query on its share and folds the lane meters back into one measurement —
//! all inside the query's one execute task.
//! A lane owns a shard of each query's interval state and nothing else: at
//! interval close a query's lane-0 instance
//! [absorbs](netshed_queries::Query::absorb) the other lanes' state, in lane
//! order, and reports once, over the link, as the solo monitor's instance
//! does — so an unshed fleet emits the solo monitor's interval outputs.
//!
//! `shard_lanes` is configuration: it decides which instance sees which flow,
//! so changing it changes the output, like changing the seed. `workers` is a
//! pure wall-clock knob — the output stream is bit-identical at any worker
//! count (see DESIGN.md, "Shard plane"). A one-lane fleet *is* the solo
//! monitor: the same code with a lane count of 1.
//!
//! The type exists because `benchmark/src/sut.rs` names it; everything a
//! [`Monitor`] does it does by dereferencing to the monitor inside.

use crate::config::MonitorConfig;
use crate::engine::Engine;
use crate::error::NetshedError;
use crate::monitor::Monitor;
use crate::observer::RunObserver;
use crate::report::BinRecord;
use netshed_trace::Batch;

/// A [`Monitor`] whose execute stage is sharded over the configuration's
/// `shard_lanes` lanes.
///
/// Construct through
/// [`MonitorBuilder::build_sharded`](crate::MonitorBuilder::build_sharded) or
/// [`ShardedMonitor::new`]; drive it like the monitor it dereferences to.
#[derive(Debug)]
pub struct ShardedMonitor {
    monitor: Monitor,
    /// What [`lane_capacities`](Self::lane_capacities) answers.
    shares: Vec<f64>,
}

impl ShardedMonitor {
    /// Builds a fleet from a validated configuration: any configuration a
    /// solo monitor accepts, the fleet accepts too.
    pub fn new(config: MonitorConfig) -> Result<Self, NetshedError> {
        config.validate()?;
        let lanes = config.shard_lanes;
        let shares = vec![config.capacity_cycles_per_bin / lanes as f64; lanes];
        Ok(Self { monitor: Monitor::with_lanes(config, lanes), shares })
    }

    /// [`Engine::ingest`] under the name `benchmark/src/sut.rs` pins, its one
    /// record wrapped the way that file iterates it. Vestigial, like
    /// [`lane_capacities`](Self::lane_capacities): both wait for the
    /// benchmark-only PR of ROADMAP item 2(i).
    #[doc(hidden)]
    pub fn process_bin<O>(
        &mut self,
        batch: &Batch,
        observer: &mut O,
    ) -> Result<[BinRecord; 1], NetshedError>
    where
        O: RunObserver + ?Sized,
    {
        self.monitor.ingest(batch, observer).map(|record| [record])
    }

    /// An equal share of the capacity per lane, constant: no budget is
    /// divided over lanes any more (the one control loop spends the one
    /// capacity), and the benchmark's stand-alone lane replicas read this.
    #[doc(hidden)]
    pub fn lane_capacities(&self) -> &[f64] {
        &self.shares
    }
}

impl std::ops::Deref for ShardedMonitor {
    type Target = Monitor;

    fn deref(&self) -> &Monitor {
        &self.monitor
    }
}

impl std::ops::DerefMut for ShardedMonitor {
    fn deref_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }
}

impl std::borrow::Borrow<Monitor> for ShardedMonitor {
    fn borrow(&self) -> &Monitor {
        &self.monitor
    }
}

impl std::borrow::BorrowMut<Monitor> for ShardedMonitor {
    fn borrow_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::exec::StageStats;
    use crate::monitor::{RegisteredQuery, Role};
    use crate::observer::{NullObserver, RunObserver};
    use netshed_queries::{build_query, QueryKind, QueryOutput, QuerySpec};
    use netshed_trace::{FiveTuple, Packet};

    /// A batch whose packets all belong to one host pair — and therefore all
    /// route to one lane.
    fn single_pair_batch(bin: u64, packets: usize) -> Batch {
        let bin_us = MonitorConfig::default().time_bin_us;
        let start = bin * bin_us;
        let packets = (0..packets)
            .map(|i| {
                let ts = start + (i as u64 * bin_us) / packets as u64;
                let tuple = FiveTuple::new(10, 20, 1000 + (i % 50) as u16, 80, 6);
                Packet::header_only(ts, tuple, 400, 0)
            })
            .collect();
        Batch::new(bin, start, bin_us, packets)
    }

    fn fleet(lanes: usize, kinds: &[QueryKind]) -> ShardedMonitor {
        Monitor::builder()
            .capacity(5.0e8)
            .no_noise()
            .seed(7)
            .with_shard_lanes(lanes)
            .queries(kinds.iter().map(|kind| QuerySpec::new(*kind)))
            .build_sharded()
            .expect("valid sharded configuration")
    }

    #[test]
    fn a_fleet_is_one_control_loop_over_lane_sharded_queries() {
        // Structural: whatever the lane count there is one monitor — one
        // extractor, window, capture buffer, policy, RNG pair — holding one
        // registered query (one predictor, one sampled extractor, one slot)
        // per spec, and only the query *instances* multiply by the lanes.
        let mut fleet = fleet(4, &QueryKind::CHAPTER4_SET);
        assert_eq!(fleet.lane_count(), 4);
        assert_eq!(fleet.queries.len(), 7, "seven predictors, not twenty-eight");
        let lanes = |query: &RegisteredQuery| match &query.role {
            Role::Owns { lanes, .. } => lanes.len(),
            Role::Follows(_) => 0,
        };
        assert!(fleet.queries.iter().all(|query| lanes(query) == 4));
        assert_eq!(fleet.lane_capacities(), [1.25e8; 4]);

        let id = fleet.register(&QuerySpec::new(QueryKind::TopK).with_label("late")).expect("ok");
        let runs = fleet.queries[7].head().unwrap_or(7);
        assert_eq!(lanes(&fleet.queries[runs]), 4);
        fleet.deregister(id).expect("deregister");
        assert_eq!(fleet.query_names().len(), 7);

        // One record per bin, and two dispatches of seven tasks a bin — the
        // lanes run inside each query's execute task.
        for bin in 0..3 {
            let [record] =
                fleet.process_bin(&single_pair_batch(bin, 200), &mut NullObserver).expect("bin");
            assert_eq!((record.bin_index, record.queries.len()), (bin, 7));
        }
        let StageStats { bins, tasks, .. } = fleet.stage_stats();
        assert_eq!((bins, tasks), (3, 3 * (7 + 7)));

        fleet.set_policy(Strategy::NoShedding.into());
        assert_eq!(
            (fleet.policy_name().as_str(), fleet.config().policy.name()),
            ("no_lshed", "no_lshed")
        );
    }

    #[test]
    fn a_bare_instance_has_no_spec_to_build_the_other_lanes_from() {
        let mut fleet = fleet(2, &[]);
        let error = fleet.register_instance(build_query(QueryKind::Counter), None, None);
        match error {
            Err(NetshedError::InvalidConfig(message)) => {
                assert!(message.contains("counter") && message.contains("2 lanes"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // One lane needs no second instance: the solo monitor's behaviour.
        let mut one_lane = self::fleet(1, &[]);
        one_lane.register_instance(build_query(QueryKind::Counter), None, None).expect("one lane");
    }

    #[derive(Default)]
    struct IntervalCapture(Vec<Vec<(String, QueryOutput)>>);

    impl RunObserver for IntervalCapture {
        fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
            self.0.push(outputs.to_vec());
        }
    }

    #[test]
    fn lanes_with_nothing_to_run_still_merge_into_every_interval() {
        // Single-pair traffic leaves three of the four lane instances with an
        // empty view every bin; the interval outputs are still the fold over
        // all four (25 bins of 100 ms: closes at bins 10 and 20, plus the
        // final flush) and count every packet exactly once.
        let mut fleet = fleet(4, &[QueryKind::Counter]);
        let batches: Vec<Batch> = (0..25).map(|bin| single_pair_batch(bin, 120)).collect();
        let mut observer = IntervalCapture::default();
        let summary = fleet.run(&mut batches.into_iter(), &mut observer).expect("run");

        assert_eq!((summary.bins, summary.total_uncontrolled_drops), (25, 0));
        assert_eq!(observer.0.len(), 3, "two closes plus the final flush");
        let packets: Vec<f64> = observer
            .0
            .iter()
            .map(|interval| match interval.as_slice() {
                [(_, QueryOutput::Counter { packets, .. })] => *packets,
                other => panic!("one counter output expected, got {other:?}"),
            })
            .collect();
        assert_eq!(packets, [1200.0, 1200.0, 600.0]);
    }
}
