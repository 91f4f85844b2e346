//! The control loop's per-member passes, before they ran once per row: the
//! prediction fold, the demands, the plan, the followers' completion and
//! the merge, one query at a time — a follower folded, planned, completed
//! and merged on its own copy of its head's prediction, control state and
//! measurement, every bin.
//!
//! Unlike the rest of `tests/oracle/`, this file is compiled into the
//! monitor crate's own tests (`crates/monitor/src/bin.rs` names it as a
//! child module), because the loop it restates works on the monitor's
//! private state. It calls what the rows left as it was — admit, extract,
//! the two dispatches' task bodies, the policy, the packet cut, the nested
//! re-extraction, [`plan_followers`] and the close of the bin — and restates
//! the rest. The property at the bottom drives one engine through each
//! loop and wants the same records and the same run digest from both.

use super::*;
use crate::digest::{DigestObserver, RunDigest};
use crate::observer::RunObserver;

impl BinSlot {
    /// Whether the query's lane instances were fed what `other`'s were: both
    /// sat the bin out, or both ran at a rate of the same bits on the same
    /// number of packets.
    fn delivered_alike(&self, other: &BinSlot) -> bool {
        match (self.run, other.run) {
            (None, None) => true,
            (Some(rate), Some(other_rate)) => {
                rate.to_bits() == other_rate.to_bits()
                    && self.delivered_packets == other.delivered_packets
            }
            _ => false,
        }
    }
}

impl Monitor {
    /// [`Monitor::process_batch`] over the per-member passes (no stage
    /// clock).
    pub(crate) fn process_batch_per_member(
        &mut self,
        batch: &Batch,
    ) -> Result<BinRecord, NetshedError> {
        let post_drop = self.admit(batch)?;
        self.extract(&post_drop);
        self.predict_per_member(&post_drop);
        self.decide_per_member();
        self.shed_per_member(&post_drop);
        self.execute_per_member(&post_drop);
        let (queries, query_cycles) = self.merge_per_member(post_drop.len() as u64);
        Ok(self.close_bin(queries, query_cycles))
    }

    /// Every query's prediction and cost, folded one query at a time: a
    /// follower copies its head's into its own slot.
    fn predict_per_member(&mut self, post_drop: &BatchView) {
        let features = self.bin.features;
        self.dispatch_per_member(
            |query| query.head().is_none() || query.shadow.is_some(),
            |query, window, _| query.predict(window, &features, post_drop),
        );
        self.window.push(&features);
        let shadows = self.policy.needs_measured_cycles();
        let (bin, mut predictions) = (&mut self.bin, 0);
        for position in 0..self.queries.len() {
            let (earlier, rest) = self.queries.split_at_mut(position);
            let registered = &mut rest[0];
            match registered.role {
                Role::Owns { .. } => {
                    predictions += usize::from(registered.control.penalty_remaining == 0);
                }
                Role::Follows(head) => {
                    let head = &earlier[head].slot;
                    (registered.slot.predicted, registered.slot.predict_ops) =
                        (head.predicted, head.predict_ops);
                }
            }
            let slot = &registered.slot;
            bin.prediction_cycles += slot.predict_ops * PREDICT_OP_CYCLES;
            bin.predictions.push(slot.predicted);
            if shadows {
                let measured =
                    if registered.shadow.is_some() { slot.shadow_cycles } else { slot.predicted };
                bin.measured_full.push(measured);
            }
        }
        self.predictions = predictions;
    }

    /// Every query's demand from its own enforcement state.
    fn decide_per_member(&mut self) {
        let bin = &mut self.bin;
        bin.demands.extend(bin.predictions.iter().zip(&self.queries).map(
            |(&prediction, registered)| {
                let corrected = if registered.shedding == SheddingMethod::Custom {
                    prediction * registered.control.overuse_ratio.max(1.0)
                } else {
                    prediction
                };
                QueryDemand::new(corrected, registered.min_rate)
            },
        ));
        self.consult_policy();
    }

    /// The plan, one query at a time on its own control state, then who
    /// keeps following whom and the noise.
    fn shed_per_member(&mut self, post_drop: &BatchView) {
        self.fresh.clear();
        let bin = &mut self.bin;
        let packets = post_drop.len() as u64;
        let queries = self.queries.iter_mut().enumerate();
        for ((position, registered), &rate) in queries.zip(&bin.decision.rates) {
            registered.slot.run = None;
            let control = &mut registered.control;
            if control.penalty_remaining > 0 {
                control.penalty_remaining -= 1;
                continue;
            }
            if rate <= 0.0 {
                bin.unsampled_accumulator += packets;
                continue;
            }
            if registered.shedding == SheddingMethod::FlowSampling {
                control.hasher_generation = bin.interval;
            }
            if rate < 1.0 {
                match registered.shedding {
                    SheddingMethod::PacketSampling => {
                        bin.nested.push((keep_threshold(rate), position));
                        bin.shedding_cycles += packets * SAMPLING_TEST_CYCLES;
                    }
                    SheddingMethod::FlowSampling => {
                        registered
                            .sampled_extractor
                            .get_or_insert_with(|| Box::new(extractor(&self.config)));
                        let generation = control.hasher_generation;
                        if !matches!(registered.flow_hasher, Some((built, _)) if built == generation)
                        {
                            let hasher = flow_hasher(self.config.seed, registered.id, generation);
                            registered.flow_hasher = Some((generation, hasher));
                        }
                        bin.shedding_cycles += packets * SAMPLING_TEST_CYCLES;
                        bin.flow_walks += 1;
                    }
                    SheddingMethod::Custom => {}
                }
            }
            registered.slot.run = Some(rate);
        }
        plan_followers(&mut self.queries, &mut self.noise, &self.config.predictor);
        self.cut_packet_samples(post_drop);
    }

    /// Execute, then every running follower completed from its head's slot.
    fn execute_per_member(&mut self, post_drop: &BatchView) {
        self.reextract_nested();
        if self.lane_count > 1 {
            post_drop.store().flow_lanes(self.lane_count, &mut self.lane_of_flow);
        }
        let lane_of_flow = std::mem::take(&mut self.lane_of_flow);
        let reextracted = std::mem::take(&mut self.bin.reextracted);
        self.dispatch_per_member(
            |query| query.head().is_none(),
            |query, window, scratch| {
                query.execute(post_drop, &lane_of_flow, &reextracted, window, scratch);
            },
        );
        (self.lane_of_flow, self.bin.reextracted) = (lane_of_flow, reextracted);
        let packets = post_drop.len() as u64;
        for position in 0..self.queries.len() {
            let (earlier, rest) = self.queries.split_at_mut(position);
            let follower = &mut rest[0];
            let (Role::Follows(head), Some(_)) = (&follower.role, follower.slot.run) else {
                continue;
            };
            let (head, slot) = (&earlier[*head].slot, &mut follower.slot);
            (slot.cycles, slot.measured, slot.outlier) = (head.cycles, head.measured, head.outlier);
            (slot.delivered_packets, slot.reextract_ops) = (packets, 0);
        }
    }

    /// Every query's record and enforcement from its own slot and state.
    fn merge_per_member(&mut self, packets: u64) -> (Vec<QueryBinRecord>, f64) {
        assert!(
            self.queries.iter().enumerate().all(|(position, follower)| match follower.role {
                Role::Follows(head) => {
                    head < position && follower.slot.delivered_alike(&self.queries[head].slot)
                }
                Role::Owns { .. } => true,
            }),
            "a follower's head does not precede it, or was delivered another run"
        );
        let bin = &mut self.bin;
        let (mut query_cycles, mut runs) = (0.0, 0);
        let mut records = Vec::with_capacity(self.queries.len());
        for (position, registered) in self.queries.iter_mut().enumerate() {
            let slot = &registered.slot;
            runs += usize::from(registered.head().is_none() && slot.run.is_some());
            let (sampling_rate, measured_cycles, delivered_packets) = match slot.run {
                Some(rate) => (rate, slot.measured, slot.delivered_packets),
                None => (0.0, 0.0, 0),
            };
            records.push(QueryBinRecord {
                id: registered.id,
                label: position as u32,
                sampling_rate,
                predicted_cycles: slot.predicted,
                measured_cycles,
                delivered_packets,
                disabled: slot.run.is_none(),
            });
            if let Some(rate) = slot.run {
                bin.shedding_cycles += slot.reextract_ops * REEXTRACT_OP_CYCLES;
                bin.unsampled_accumulator += packets - slot.delivered_packets;
                query_cycles += slot.measured;

                let expected = slot.predicted * rate;
                if registered.shedding == SheddingMethod::Custom && expected > 0.0 && !slot.outlier
                {
                    let overuse = slot.measured / expected;
                    let control = &mut registered.control;
                    control.overuse_ratio = 0.3 * overuse + 0.7 * control.overuse_ratio;
                    if overuse > 1.0 + self.config.enforcement.tolerance {
                        control.violations += 1;
                        if control.violations >= self.config.enforcement.max_violations {
                            control.penalty_remaining = self.config.enforcement.penalty_bins;
                            control.violations = 0;
                        }
                    } else {
                        control.violations = 0;
                    }
                }
            }
        }
        self.query_runs = runs;
        (records, query_cycles)
    }

    /// The dispatch over the queries `dispatched` picks from their roles.
    fn dispatch_per_member(
        &mut self,
        dispatched: fn(&RegisteredQuery) -> bool,
        run: impl Fn(&mut RegisteredQuery, &FeatureWindow, &mut ExtractScratch) + Sync,
    ) {
        let tasks = self.queries.iter().filter(|query| dispatched(query)).count();
        let (window, workers) = (&self.window, self.config.workers.min(tasks));
        let queries = self.queries.iter_mut().filter(|query| dispatched(query));
        exec::run_tasks(workers, &mut self.scratch, queries, |query, scratch| {
            run(query, window, scratch);
        });
    }
}

mod property {
    use super::*;
    use crate::config::PolicySpec;
    use crate::policy::{ControlPolicy, PredictivePolicy};
    use crate::reference::measure_total_demand;
    use netshed_fairness::MmfsPkt;
    use netshed_queries::{CustomBehavior, QueryKind, QuerySpec};
    use netshed_sketch::mix64;
    use netshed_trace::{TraceConfig, TraceGenerator};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The predictive `mmfs_pkt` policy, with some bins' rate of one query
    /// halved — the one a hash of the bin picks, on about one bin in three —
    /// so that followers part from their heads and heads from their rows.
    struct Parting(PredictivePolicy);

    impl ControlPolicy for Parting {
        fn decide(&mut self, context: &ControlContext<'_>) -> ControlDecision {
            let mut decision = self.0.decide(context);
            let draw = mix64(context.bin_index ^ 0x5eed);
            if draw.is_multiple_of(3) && !decision.rates.is_empty() {
                let picked = (draw >> 8) as usize % decision.rates.len();
                decision.rates[picked] *= 0.5;
            }
            decision
        }

        fn name(&self) -> String {
            "parting".into()
        }
    }

    /// The specs tenants are drawn from: cohorts form among equal ones.
    /// The selfish `p2p-detector` overuses every rate below 1 it is granted
    /// and so earns penalties.
    fn spec(kind: usize, label: usize) -> QuerySpec {
        let spec = match kind {
            0 => QuerySpec::new(QueryKind::Counter),
            1 => QuerySpec::new(QueryKind::Flows),
            2 => QuerySpec::new(QueryKind::TopK),
            3 => QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Selfish),
            _ => QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest),
        };
        spec.with_label(format!("tenant-{label}"))
    }

    /// Before some bins: registrations of drawn specs (several at once form
    /// a cohort) and the deregistration of a drawn live tenant.
    struct Script {
        tenants: Vec<QuerySpec>,
        changes: Vec<(usize, Vec<QuerySpec>, Option<usize>)>,
    }

    fn script(rng: &mut StdRng, bins: usize) -> Script {
        let mut label = 0;
        let mut draw = |rng: &mut StdRng, count: usize| -> Vec<QuerySpec> {
            (0..count)
                .map(|_| {
                    label += 1;
                    spec(rng.gen_range(0..5), label)
                })
                .collect()
        };
        let count = rng.gen_range(4..10);
        let tenants = draw(rng, count);
        let mut changes = Vec::new();
        for bin in 1..bins {
            if rng.gen_range(0..4) == 0 {
                let count = rng.gen_range(0..3);
                let joining = draw(rng, count);
                let leaving = (rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..64));
                changes.push((bin, joining, leaving));
            }
        }
        Script { tenants, changes }
    }

    /// What a run went through: the bins in which some member parted from
    /// its row, and those that left some query serving a penalty.
    #[derive(Default)]
    struct Events {
        parted: usize,
        penalised: usize,
    }

    /// Runs `script` over `batches` through one of the two loops and returns
    /// every bin's record, the run digest and what the run went through.
    fn run(
        config: &MonitorConfig,
        script: &Script,
        batches: &[Batch],
        per_member: bool,
    ) -> (Vec<BinRecord>, RunDigest, Events) {
        let mut monitor = Monitor::new(config.clone());
        for spec in &script.tenants {
            monitor.register(spec).expect("valid spec");
        }
        let (mut digest, mut records) = (DigestObserver::new(), Vec::new());
        let mut events = Events::default();
        for (bin, batch) in batches.iter().enumerate() {
            for (_, joining, leaving) in script.changes.iter().filter(|(at, ..)| *at == bin) {
                if let Some(pick) = leaving.filter(|_| !monitor.queries.is_empty()) {
                    let id = monitor.queries[pick % monitor.queries.len()].id;
                    monitor.deregister(id).expect("registered");
                }
                for spec in joining {
                    monitor.register(spec).expect("valid spec");
                }
            }
            let owners = monitor.queries.iter().filter(|query| query.head().is_none()).count();
            let record = if per_member {
                monitor.process_batch_per_member(batch)
            } else {
                monitor.process_batch(batch)
            };
            let record = record.expect("bin");
            let queries = &monitor.queries;
            events.parted +=
                usize::from(queries.iter().filter(|query| query.head().is_none()).count() > owners);
            events.penalised +=
                usize::from(queries.iter().any(|query| query.control.penalty_remaining > 0));
            if let Some(outputs) = &record.interval_outputs {
                digest.on_interval(outputs);
            }
            digest.on_decision(record.bin_index, &record.decision);
            digest.on_bin(&record);
            records.push(record);
        }
        digest.on_interval(&monitor.finish_interval());
        (records, digest.digest(), events)
    }

    /// Over random registrations, deregistrations, partings and custom
    /// penalties, shed (capacity at half the demand) and unshed, with noise
    /// and without: the per-row loop at workers {1, 2, 4} emits the
    /// per-member loop's records and digest, bit for bit.
    #[test]
    fn the_per_row_loop_is_the_per_member_loop() {
        const BINS: usize = 24;
        let mut rng = proptest::test_rng("the_per_row_loop_is_the_per_member_loop");
        let (mut parted, mut penalised) = (0, 0);
        for case in 0..16 {
            let (shed, noise) = (case % 2 == 1, case / 2 % 2 == 1);
            let traffic = TraceConfig::default()
                .with_seed(rng.gen_range(0..1000))
                .with_mean_packets_per_batch(200.0)
                .with_payloads(true);
            let batches = TraceGenerator::new(traffic).batches(BINS);
            let script = script(&mut rng, BINS);
            let demand = measure_total_demand(&script.tenants, &batches[..4]).expect("demand");
            let base = MonitorConfig::default()
                .with_seed(rng.gen_range(0..1000))
                .with_capacity(if shed { demand / 2.0 } else { 1e15 })
                .with_strategy(PolicySpec::new(|| Parting(PredictivePolicy::new(MmfsPkt))));
            let config = if noise { base } else { base.without_noise() };
            let (expected, digest, events) = run(&config, &script, &batches, true);
            let context = format!("case {case} (shed {shed}, noise {noise})");
            (parted, penalised) = (parted + events.parted, penalised + events.penalised);
            for workers in [1, 2, 4] {
                let (records, rows_digest, _) =
                    run(&config.clone().with_workers(workers), &script, &batches, false);
                for (bin, (record, expected)) in records.iter().zip(&expected).enumerate() {
                    assert!(record == expected, "{context}, workers {workers}: bin {bin} differs");
                }
                assert_eq!(records.len(), expected.len(), "{context}");
                assert_eq!(rows_digest, digest, "{context}, workers {workers}");
            }
        }
        assert!(parted > 0 && penalised > 0, "parted {parted}, penalised {penalised}");
    }
}
