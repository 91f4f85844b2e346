//! The bin: Algorithm 1 of the paper as seven stage functions.
//!
//! [`Monitor::process_batch`] drives **admit → extract → predict → decide →
//! shed → execute → account** over one [`Bin`] context the monitor owns and
//! reuses — admit clears it, the stages fill it, nothing in it is read
//! across bins — and, per query, the query's own [`BinSlot`]. Determinism is
//! the execution plane's plan → dispatch → merge (DESIGN.md): shed is the
//! plan (every draw, sequentially, in registration order, on the caller's
//! thread), predict and execute are the dispatches (one task per query,
//! touching only that query), account is the merge (every sum folds in
//! registration order).
//!
//! This is the bin of every engine. Everything up to and including shed
//! works on the global post-drop view whatever the lane count; execute is
//! the one stage that knows about lanes, and with one lane it only skips the
//! split.

use crate::error::NetshedError;
use crate::exec::{self, Stage};
use crate::monitor::{flow_hasher, Monitor, RegisteredQuery};
use crate::policy::{ControlContext, ControlDecision};
use crate::report::{BinRecord, QueryBinRecord};
use crate::shedder::{flow_sample_with, packet_sample_with};
use netshed_fairness::QueryDemand;
use netshed_features::{ExtractScratch, FeatureVector};
use netshed_predict::FeatureWindow;
use netshed_queries::{CycleMeter, NoiseDraw, Query, QueryOutput, SheddingMethod};
use netshed_trace::{Batch, BatchView};
use std::sync::Arc;

/// Cycles charged per feature-extraction elementary operation (one hash plus
/// one bitmap update). Keeps the prediction overhead in the ~10% range of
/// Table 3.4 for the default workloads.
const FEATURE_OP_CYCLES: u64 = 25;
/// Cycles charged per feature-extraction operation when features are
/// *re-extracted* over a query's sampled stream. The paper (Section 5.5.4)
/// notes that this overhead can be reduced by only recomputing the features
/// actually selected as predictors; the reduced constant models that
/// optimisation.
const REEXTRACT_OP_CYCLES: u64 = 6;
/// Cycles charged per predictor elementary operation (correlation / OLS step).
const PREDICT_OP_CYCLES: u64 = 4;
/// Cycles charged per packet examined by a sampler.
const SAMPLING_TEST_CYCLES: u64 = 12;
/// Fraction of the capture buffer occupation above which the buffer
/// discovery algorithm considers the system unstable and resets `rtthresh`.
const BUFFER_UNSTABLE_OCCUPATION: f64 = 0.3;
/// Maximum fraction of the per-bin capacity that `rtthresh` may reach.
const RTTHRESH_MAX_FRACTION: f64 = 0.25;
/// Floor of the reactive family's global sampling rate, and of the mean rate
/// the next bin is told the previous one ran with.
const REACTIVE_MIN_RATE: f64 = 0.05;

/// One bin's plan and results for one query — the per-query hand-off between
/// the stages: shed fills the plan on the caller's thread, the two dispatches
/// complete it inside the query's own task, and account reads it back in
/// registration order.
#[derive(Default)]
pub(crate) struct BinSlot {
    /// Predicted full-batch cycles (0 while the query serves a penalty).
    predicted: f64,
    /// Elementary operations the prediction cost.
    predict_ops: u64,
    /// Full-batch cycles measured on the shadow twin (the prediction when
    /// the query has no twin); written only under oracle-style policies.
    shadow_cycles: f64,
    /// The granted sampling rate and the pre-drawn measurement noise when
    /// the query runs this bin; `None` when it sits the bin out (penalised,
    /// or granted rate 0).
    run: Option<(f64, NoiseDraw)>,
    /// The packet-sampled view, drawn in the shed stage because it consumes
    /// the shared RNG. `None` for every other shedding outcome: the tail
    /// works from the post-drop view (flow sampling is deterministic per
    /// query, so it happens inside the task).
    sampled: Option<BatchView>,
    // Outputs of the tail, valid when `run` is `Some`.
    measured: f64,
    outlier: bool,
    delivered_packets: u64,
    reextract_ops: u64,
}

/// What one stage of a bin hands the next. The monitor owns one and reuses
/// it: [`Monitor::admit`] clears it, so the per-query vectors are refilled
/// in place instead of allocated, and nothing is ever read across bins.
#[derive(Default)]
pub(crate) struct Bin {
    // Admit.
    index: u64,
    incoming_packets: u64,
    uncontrolled_drops: u64,
    interval: u64,
    interval_outputs: Option<Vec<(String, QueryOutput)>>,
    // Extract; predict adds the predictors' share to the cycles.
    features: FeatureVector,
    prediction_cycles: u64,
    // Predict; `measured_full` only under a policy that needs it.
    predictions: Vec<f64>,
    measured_full: Vec<f64>,
    // Decide.
    demands: Vec<QueryDemand>,
    available_cycles: f64,
    decision: ControlDecision,
    // Shed; account adds the re-extraction and delivery shares.
    shedding_cycles: u64,
    unsampled_accumulator: u64,
}

impl RegisteredQuery {
    /// Predict task: the full-batch cost from the shared feature vector,
    /// against the window of the bins before this one. A penalised query is
    /// not predicted (and charged nothing for it).
    fn predict(&mut self, window: &FeatureWindow, features: &FeatureVector) {
        (self.slot.predicted, self.slot.predict_ops) = if self.penalty_remaining > 0 {
            (0.0, 0)
        } else {
            let predicted = self.predictor.predict_shared(window, features);
            (predicted, self.predictor.last_cost_operations())
        };
    }

    /// Shadow, the rest of the predict task under a policy that needs
    /// measured cycles: the bin's true full-batch cycles, measured on the
    /// twin fed the unsampled stream (the prediction when there is no twin).
    fn measure_shadow(&mut self, post_drop: &BatchView) {
        self.slot.shadow_cycles = match self.shadow.as_mut() {
            Some(shadow) => metered(shadow.as_mut(), post_drop, 1.0) as f64,
            None => self.slot.predicted,
        };
    }

    /// Execute task, the whole tail of one query. Shed and re-extract once
    /// on the global view; run every lane instance on its share of what was
    /// delivered — split by the lane of each packet's flow (`lane_of_flow`),
    /// or, with one lane, the delivered view as it is — summing the
    /// instances' meters in lane order into the query's one measured cost;
    /// apply the pre-drawn noise and feed the observation back into the
    /// prediction history, against `window`, whose newest row is this bin's
    /// full-batch vector. A query the plan sat out is walked and left
    /// untouched.
    fn execute(
        &mut self,
        post_drop: &BatchView,
        lane_of_flow: &[u32],
        window: &FeatureWindow,
        scratch: &mut ExtractScratch,
    ) {
        let Some((rate, noise)) = self.slot.run else { return };
        let (delivered, resampled) = match (self.slot.sampled.take(), &self.flow_hasher) {
            (Some(sampled), _) => (sampled, true),
            // The plan built the table of this interval's generation.
            (None, Some((_, hasher)))
                if rate < 1.0 && self.shedding == SheddingMethod::FlowSampling =>
            {
                let (sampled, _) = flow_sample_with(post_drop, rate, hasher, &mut self.shed_pool);
                (sampled, true)
            }
            // Full rate, or custom shedding (the query scales its own work).
            (None, _) => (post_drop.clone(), false),
        };
        self.slot.delivered_packets = delivered.len() as u64;

        // Recompute the features over the sampled stream so the MLR history
        // stays consistent (Section 4.3); the per-query extractor belongs to
        // this task alone, the scratch to the worker running it.
        let sampled_features = if resampled {
            let (extracted, ops) = self.sampled_extractor.extract_view_with(&delivered, scratch);
            self.slot.reextract_ops = ops;
            Some(extracted)
        } else {
            self.slot.reextract_ops = 0;
            None
        };

        let cycles = match self.lanes.as_mut_slice() {
            [only] => metered(only.as_mut(), &delivered, rate),
            lanes => {
                let (count, mut cycles) = (lanes.len(), 0);
                delivered.split_lanes_with(
                    &mut self.shed_pool,
                    lane_of_flow,
                    count,
                    |lane, view| cycles += metered(lanes[lane].as_mut(), &view, rate),
                );
                cycles
            }
        };
        let (measured, outlier) = noise.apply(cycles);
        let measured = measured as f64;

        // For custom shedding the assigned rate plays the same role as a
        // sampling rate: the query is expected to scale its work by it.
        let (cycles, corrupted) = if outlier {
            // Replace corrupted measurements with the prediction
            // (Section 3.2.4 / 4.4).
            ((self.slot.predicted * rate).max(0.0), true)
        } else if self.shedding == SheddingMethod::Custom && rate < 1.0 {
            // Custom shedding: the history models the full-batch cost, so
            // scale the measurement by the requested rate.
            (measured / rate.max(1e-6), false)
        } else {
            (measured, false)
        };
        match sampled_features {
            // Nothing was re-extracted (full rate, or custom shedding): the
            // row to store is the bin's shared vector, taken from the window.
            None => self.predictor.observe_shared(window, cycles, corrupted),
            Some(row) if corrupted => self.predictor.observe_corrupted(&row, cycles),
            Some(row) => self.predictor.observe(&row, cycles),
        }
        self.slot.measured = measured;
        self.slot.outlier = outlier;
    }
}

/// Runs one query instance on `view` at `rate` and returns the cycles it
/// metered, on a meter of its own.
fn metered(query: &mut dyn Query, view: &BatchView, rate: f64) -> u64 {
    let mut meter = CycleMeter::new();
    query.process_batch(view, rate, &mut meter);
    meter.cycles()
}

impl Monitor {
    /// Processes one incoming batch and returns the record of what happened.
    ///
    /// Returns [`NetshedError::EmptyBatch`] for a batch with no packets and
    /// [`NetshedError::CapacityUnderflow`] when the configured capacity is
    /// not positive (possible only for monitors built by [`Monitor::new`]
    /// from an unvalidated configuration).
    pub fn process_batch(&mut self, batch: &Batch) -> Result<BinRecord, NetshedError> {
        self.clock.start();
        let post_drop = self.admit(batch)?;
        self.clock.lap(Stage::Admit);
        self.extract(&post_drop);
        self.clock.lap(Stage::Extract);
        self.predict(&post_drop);
        self.clock.lap(Stage::Predict);
        self.decide();
        self.clock.lap(Stage::Decide);
        self.shed(&post_drop);
        self.clock.lap(Stage::Shed);
        self.execute(&post_drop);
        self.clock.lap(Stage::Execute);
        let record = self.account(&post_drop);
        self.clock.lap(Stage::Account);
        self.clock.stats.bins += 1;
        Ok(record)
    }

    /// Admit: validates the bin, rolls the measurement interval, clears the
    /// context and drops the capture buffer's overflow fraction without
    /// control. Returns the post-drop view the other stages work from, a
    /// zero-copy view sharing the incoming batch's packet store — except
    /// that the overflow path materialises the admitted packets into a fresh
    /// store (one copy), so the per-batch flow index built later does not
    /// hash traffic that was just dropped.
    fn admit(&mut self, batch: &Batch) -> Result<BatchView, NetshedError> {
        if batch.is_empty() {
            return Err(NetshedError::EmptyBatch { bin_index: batch.bin_index });
        }
        let capacity = self.config.capacity_cycles_per_bin;
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(NetshedError::CapacityUnderflow {
                capacity,
                required: self.config.platform_overhead_cycles.max(f64::MIN_POSITIVE),
            });
        }
        let interval = batch.measurement_interval(self.config.measurement_interval_us);
        let interval_outputs = self.roll_interval(interval);

        // Clear the context: what the stages append to or accumulate into
        // is emptied here, everything else is overwritten before it is read.
        let bin = &mut self.bin;
        bin.predictions.clear();
        bin.measured_full.clear();
        bin.demands.clear();
        (bin.shedding_cycles, bin.unsampled_accumulator) = (0, 0);
        bin.index = batch.bin_index;
        bin.interval = interval;
        bin.interval_outputs = interval_outputs;
        bin.incoming_packets = batch.len() as u64;

        let drop_fraction = self.buffer.admit(bin.incoming_packets);
        let post_drop = if drop_fraction > 0.0 {
            let keep = 1.0 - drop_fraction;
            let (kept, _) =
                packet_sample_with(&batch.view(), keep, &mut self.rng, &mut self.shed_pool);
            kept.materialize().view()
        } else {
            batch.view()
        };
        bin.uncontrolled_drops = bin.incoming_packets - post_drop.len() as u64;
        Ok(post_drop)
    }

    /// Extract: the full (post-drop) batch's feature vector, on this thread
    /// — the one fused pass every sampled re-extraction also makes. This is
    /// where the batch's flow index (packets grouped by 5-tuple, ten located
    /// slots per flow) is built and cached on the batch; every per-query
    /// re-extraction, flow sample and flow-keyed query later reuses it.
    fn extract(&mut self, post_drop: &BatchView) {
        let (features, extraction_ops) =
            self.extractor.extract_view_with(post_drop, &mut self.scratch[0]);
        self.bin.features = features;
        self.bin.prediction_cycles = extraction_ops * FEATURE_OP_CYCLES;
    }

    /// Predict: per-query predictions of the full-batch cost. Every
    /// predictor owns its history and otherwise only reads — the shared
    /// feature vector, and the feature window, whose lazily cached moments
    /// hold the same value whichever task fills them — so the predictions
    /// are dispatched, then folded (values and cost) in registration order.
    /// The window takes this bin's vector only after the predictions: they
    /// regress over the bins before it.
    ///
    /// For oracle-style policies the same task also measures its query's
    /// true full-batch cycles on a shadow twin fed the unsampled stream — an
    /// idealised upper bound, not charged to the bin; twins are independent
    /// deterministic state, folded beside the predictions.
    fn predict(&mut self, post_drop: &BatchView) {
        let features = self.bin.features;
        let shadows = self.policy.needs_measured_cycles();
        self.dispatch(|query, window, _| {
            query.predict(window, &features);
            if shadows {
                query.measure_shadow(post_drop);
            }
        });
        self.window.push(&features);
        let bin = &mut self.bin;
        for registered in &self.queries {
            bin.prediction_cycles += registered.slot.predict_ops * PREDICT_OP_CYCLES;
            bin.predictions.push(registered.slot.predicted);
            if shadows {
                bin.measured_full.push(registered.slot.shadow_cycles);
            }
        }
    }

    /// Decide: hands the control policy everything the monitor knows about
    /// the bin and keeps its (sanitised) per-query sampling rates.
    fn decide(&mut self) {
        let bin = &mut self.bin;
        let delay = self.buffer.delay_cycles();
        let rtthresh = if self.config.buffer_discovery { self.rtthresh } else { 0.0 };
        bin.available_cycles = self.config.capacity_cycles_per_bin
            - (self.config.platform_overhead_cycles + bin.prediction_cycles as f64)
            + (rtthresh - delay);
        bin.demands.extend(bin.predictions.iter().zip(&self.queries).map(
            |(&prediction, registered)| {
                // Chapter 6 correction: custom queries that habitually
                // overuse their allocation are charged for it.
                let corrected = if registered.shedding == SheddingMethod::Custom {
                    prediction * registered.overuse_ratio.max(1.0)
                } else {
                    prediction
                };
                QueryDemand::new(corrected, registered.min_rate)
            },
        ));
        let measured = self.policy.needs_measured_cycles();
        let context = ControlContext {
            bin_index: bin.index,
            predictions: &bin.predictions,
            demands: &bin.demands,
            available_cycles: bin.available_cycles,
            error_ewma: self.error_ewma,
            shed_cycles_ewma: self.shed_cycles_ewma,
            prev_mean_rate: self.reactive_rate,
            prev_total_cycles: self.reactive_consumed,
            prev_query_cycles: self.reactive_query_cycles,
            uncontrolled_drops: bin.uncontrolled_drops,
            rate_floor: REACTIVE_MIN_RATE,
            measured_cycles: measured.then_some(bin.measured_full.as_slice()),
        };
        bin.decision = self.policy.decide(&context).sanitized(&bin.demands);
    }

    /// Shed — the *plan*: sequentially, in registration order, on the
    /// caller's thread, everything whose stream order matters — penalty
    /// accounting, the flow-hasher refresh, RNG-driven packet sampling and
    /// the measurement-noise pre-draw. Execute then receives fully
    /// determined inputs and only writes per-query state, which is why the
    /// merged output is bit-identical for any worker count.
    fn shed(&mut self, post_drop: &BatchView) {
        let bin = &mut self.bin;
        let packets = post_drop.len() as u64;
        for (registered, &rate) in self.queries.iter_mut().zip(&bin.decision.rates) {
            registered.slot.run = None;
            if registered.penalty_remaining > 0 {
                registered.penalty_remaining -= 1;
                continue;
            }
            if rate <= 0.0 {
                bin.unsampled_accumulator += packets;
                continue;
            }
            // A new flow-sampling hash function every interval, so selection
            // cannot be evaded and is unbiased (Section 4.2): the generation
            // moves here, the table is drawn below if the query samples.
            // Keyed by the stable handle, not the position, so
            // deregistrations do not reshuffle the selection of the
            // surviving queries.
            if registered.shedding == SheddingMethod::FlowSampling {
                registered.hasher_generation = bin.interval;
            }
            if rate < 1.0 {
                match registered.shedding {
                    // Packet sampling draws from the shared RNG, so it stays
                    // in the plan in registration order — the stream is
                    // consumed exactly as the sequential path does.
                    SheddingMethod::PacketSampling => {
                        let (sampled, _) =
                            packet_sample_with(post_drop, rate, &mut self.rng, &mut self.shed_pool);
                        registered.slot.sampled = Some(sampled);
                        bin.shedding_cycles += packets * SAMPLING_TEST_CYCLES;
                    }
                    // Flow sampling is deterministic per query and happens
                    // inside the query's own task, with the table of this
                    // generation — a pure function of it, so it is built the
                    // first time the generation samples, not before.
                    SheddingMethod::FlowSampling => {
                        let generation = registered.hasher_generation;
                        if !matches!(registered.flow_hasher, Some((built, _)) if built == generation)
                        {
                            let hasher = flow_hasher(self.config.seed, registered.id, generation);
                            registered.flow_hasher = Some((generation, hasher));
                        }
                        bin.shedding_cycles += packets * SAMPLING_TEST_CYCLES;
                    }
                    SheddingMethod::Custom => {}
                }
            }
            // Pre-drawn in registration order: the noise RNG consumes a
            // configuration-fixed number of samples per running query, so
            // the stream matches the sequential path bit for bit.
            registered.slot.run = Some((rate, self.noise.draw()));
        }
    }

    /// Execute: the expensive tail, one dispatch of one task per query (see
    /// [`RegisteredQuery::execute`]). The lane verdict is asked once per flow
    /// of the batch's index, here, for every query's task to share; the
    /// window was pushed in predict and is only read.
    fn execute(&mut self, post_drop: &BatchView) {
        if self.lane_count > 1 {
            post_drop.store().flow_lanes(self.lane_count, &mut self.lane_of_flow);
        }
        let lane_of_flow = std::mem::take(&mut self.lane_of_flow);
        self.dispatch(|query, window, scratch| {
            query.execute(post_drop, &lane_of_flow, window, scratch)
        });
        self.lane_of_flow = lane_of_flow;
    }

    /// Account — the *merge*: folds the queries' slots in registration
    /// order, closes the control loop (the EWMAs, the capture buffer, buffer
    /// discovery, the next bin's reactive state) and assembles the record,
    /// which takes the decision and the interval outputs out of the context.
    fn account(&mut self, post_drop: &BatchView) -> BinRecord {
        let (queries, query_cycles) = self.merge_queries(post_drop.len() as u64);
        let rates = &self.bin.decision.rates;
        let shedding_cycles = self.bin.shedding_cycles as f64;
        let alpha = self.config.ewma_alpha;
        self.shed_cycles_ewma = alpha * shedding_cycles + (1.0 - alpha) * self.shed_cycles_ewma;
        let expected_total: f64 = self
            .bin
            .predictions
            .iter()
            .zip(rates)
            .map(|(prediction, rate)| prediction * rate)
            .sum();
        if query_cycles > 0.0 && expected_total > 0.0 {
            let observed_error = (1.0 - expected_total / query_cycles).max(0.0);
            self.error_ewma = alpha * observed_error + (1.0 - alpha) * self.error_ewma;
        }

        let platform_cycles = self.config.platform_overhead_cycles;
        let total_cycles =
            query_cycles + self.bin.prediction_cycles as f64 + shedding_cycles + platform_cycles;
        // Remember the reactive state for the next bin.
        let mean_rate =
            if rates.is_empty() { 1.0 } else { rates.iter().sum::<f64>() / rates.len() as f64 };
        self.reactive_rate = mean_rate.max(REACTIVE_MIN_RATE);
        self.reactive_consumed = total_cycles;
        self.reactive_query_cycles = query_cycles;
        self.buffer.account_bin(total_cycles);
        self.update_buffer_discovery(total_cycles);

        let bin = &mut self.bin;
        let unsampled_packets = if self.queries.is_empty() {
            0
        } else {
            bin.unsampled_accumulator / self.queries.len() as u64
        };
        BinRecord {
            bin_index: bin.index,
            incoming_packets: bin.incoming_packets,
            uncontrolled_drops: bin.uncontrolled_drops,
            unsampled_packets,
            available_cycles: bin.available_cycles,
            predicted_cycles: bin.predictions.iter().sum(),
            query_cycles,
            prediction_cycles: bin.prediction_cycles as f64,
            shedding_cycles,
            platform_cycles,
            buffer_occupation: self.buffer.occupation(),
            queries,
            interval_outputs: bin.interval_outputs.take(),
            decision: std::mem::take(&mut bin.decision),
        }
    }

    /// The registration-order merge of the queries' slots: the per-query
    /// records (the one vector the bin body allocates — the record owns it)
    /// and the query-cycle total, with Chapter 6 enforcement for custom load
    /// shedding queries on the same pass.
    fn merge_queries(&mut self, packets: u64) -> (Vec<QueryBinRecord>, f64) {
        let bin = &mut self.bin;
        let mut query_cycles = 0.0;
        let mut records = Vec::with_capacity(self.queries.len());
        for registered in &mut self.queries {
            let slot = &registered.slot;
            let (sampling_rate, measured_cycles, delivered_packets) = match slot.run {
                Some((rate, _)) => (rate, slot.measured, slot.delivered_packets),
                None => (0.0, 0.0, 0),
            };
            records.push(QueryBinRecord {
                id: registered.id,
                name: Arc::clone(&registered.label),
                sampling_rate,
                predicted_cycles: slot.predicted,
                measured_cycles,
                delivered_packets,
                disabled: slot.run.is_none(),
            });
            if let Some((rate, _)) = slot.run {
                bin.shedding_cycles += slot.reextract_ops * REEXTRACT_OP_CYCLES;
                bin.unsampled_accumulator += packets - slot.delivered_packets;
                query_cycles += slot.measured;

                let expected = slot.predicted * rate;
                if registered.shedding == SheddingMethod::Custom && expected > 0.0 && !slot.outlier
                {
                    let overuse = slot.measured / expected;
                    registered.overuse_ratio = 0.3 * overuse + 0.7 * registered.overuse_ratio;
                    if overuse > 1.0 + self.config.enforcement.tolerance {
                        registered.violations += 1;
                        if registered.violations >= self.config.enforcement.max_violations {
                            registered.penalty_remaining = self.config.enforcement.penalty_bins;
                            registered.violations = 0;
                        }
                    } else {
                        registered.violations = 0;
                    }
                }
            }
        }
        (records, query_cycles)
    }

    /// Fans `run` out over the registered queries on the execution plane,
    /// each beside the shared feature window and lent the extraction scratch
    /// of the worker it runs on.
    fn dispatch(
        &mut self,
        run: impl Fn(&mut RegisteredQuery, &FeatureWindow, &mut ExtractScratch) + Sync,
    ) {
        let (window, workers) = (&self.window, self.config.workers.min(self.queries.len()));
        let queries = self.queries.iter_mut();
        exec::run_tasks(workers, &mut self.scratch, queries, |query, scratch| {
            run(query, window, scratch)
        });
        self.clock.stats.tasks += self.queries.len() as u64;
    }

    /// Slow-start-like buffer discovery (Section 4.1).
    fn update_buffer_discovery(&mut self, total_cycles: f64) {
        if !self.config.buffer_discovery {
            return;
        }
        let capacity = self.config.capacity_cycles_per_bin;
        if self.buffer.occupation() > BUFFER_UNSTABLE_OCCUPATION {
            // The system is turning unstable: back off.
            self.rtthresh_ssthresh = (self.rtthresh / 2.0).max(capacity * 0.01);
            self.rtthresh = 0.0;
            return;
        }
        if total_cycles < capacity {
            let increment = capacity * 0.01;
            if self.rtthresh < self.rtthresh_ssthresh {
                // Exponential growth while below the slow-start threshold.
                self.rtthresh = (self.rtthresh * 2.0).max(increment);
            } else {
                self.rtthresh += increment;
            }
            self.rtthresh = self.rtthresh.min(capacity * RTTHRESH_MAX_FRACTION);
        }
    }
}

#[cfg(test)]
/// Properties of the slow-start-like buffer discovery (Section 4.1),
/// exercised directly against `update_buffer_discovery`.
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use crate::monitor::BUFFER_CAPACITY_BINS;
    use proptest::prelude::*;

    fn quiet_monitor(capacity: f64) -> Monitor {
        Monitor::new(MonitorConfig::default().with_capacity(capacity).without_noise())
    }

    /// Lanes shard the execute stage and nothing before it: whatever the
    /// lane count the control loop extracts the same full-batch vector from
    /// the same global view, once, and asks the lane verdict once per flow.
    #[test]
    fn every_lane_count_extracts_the_same_feature_vector_once_per_bin() {
        use netshed_queries::{QueryKind, QuerySpec};
        use netshed_trace::{TraceConfig, TraceGenerator};

        let batches = TraceGenerator::new(TraceConfig::default().with_seed(9)).batches(12);
        let config = MonitorConfig::default().with_capacity(1e15).without_noise();
        let mut engines: Vec<Monitor> =
            [1, 2, 4, 8].map(|lanes| Monitor::with_lanes(config.clone(), lanes)).into();
        for engine in &mut engines {
            for kind in QueryKind::CHAPTER4_SET {
                engine.register(&QuerySpec::new(kind)).expect("valid spec");
            }
        }
        for batch in &batches {
            for engine in &mut engines {
                engine.process_batch(batch).expect("bin");
            }
            let (solo, fleets) = engines.split_first().expect("four engines");
            assert!(solo.lane_of_flow.is_empty(), "one lane asks no verdict");
            for fleet in fleets {
                assert_eq!(fleet.bin.features, solo.bin.features, "{} lanes", fleet.lane_count);
                assert_eq!(
                    fleet.window.newest(),
                    solo.window.newest(),
                    "{} lanes",
                    fleet.lane_count
                );
                assert_eq!(fleet.lane_of_flow.len(), batch.packets.flow_index().flows());
                assert_eq!(fleet.bin.predictions.len(), 7, "one prediction per query");
            }
        }
    }

    proptest! {
        /// `rtthresh` never exceeds `capacity × RTTHRESH_MAX_FRACTION`,
        /// whatever load sequence drives it.
        #[test]
        fn rtthresh_never_exceeds_the_capacity_fraction(
            capacity in 1e6f64..1e10,
            loads in proptest::collection::vec(0.0f64..2.0, 1..300),
        ) {
            let mut monitor = quiet_monitor(capacity);
            for load_factor in loads {
                monitor.buffer.account_bin(capacity * load_factor);
                monitor.update_buffer_discovery(capacity * load_factor);
                prop_assert!(monitor.rtthresh <= capacity * RTTHRESH_MAX_FRACTION + 1e-9);
                prop_assert!(monitor.rtthresh >= 0.0);
            }
        }

        /// When the buffer occupation crosses the instability threshold,
        /// `rtthresh` resets to zero and the slow-start threshold halves.
        #[test]
        fn instability_resets_rtthresh_and_halves_ssthresh(
            capacity in 1e6f64..1e10,
            underloaded_bins in 1usize..200,
        ) {
            let mut monitor = quiet_monitor(capacity);
            for _ in 0..underloaded_bins {
                monitor.update_buffer_discovery(capacity * 0.5);
            }
            let grown = monitor.rtthresh;
            prop_assert!(grown > 0.0);

            // Push the buffer past the instability occupation.
            let past = BUFFER_CAPACITY_BINS * (BUFFER_UNSTABLE_OCCUPATION + 0.1);
            monitor.buffer.account_bin(capacity * (1.0 + past));
            monitor.update_buffer_discovery(capacity * 2.0);
            prop_assert_eq!(monitor.rtthresh, 0.0);
            prop_assert!(monitor.rtthresh_ssthresh >= capacity * 0.01 - 1e-9);
            prop_assert!(monitor.rtthresh_ssthresh <= (grown / 2.0).max(capacity * 0.01) + 1e-9);
        }

        /// Below the slow-start threshold growth is exponential
        /// (doubling per underloaded bin); above it, linear.
        #[test]
        fn growth_doubles_below_ssthresh_and_is_linear_above(
            capacity in 1e6f64..1e10,
        ) {
            let mut monitor = quiet_monitor(capacity);
            let increment = capacity * 0.01;

            // Slow-start phase: ssthresh is infinite, growth must double.
            monitor.update_buffer_discovery(capacity * 0.5);
            prop_assert!((monitor.rtthresh - increment).abs() < 1e-9);
            let mut previous = monitor.rtthresh;
            for _ in 0..3 {
                monitor.update_buffer_discovery(capacity * 0.5);
                prop_assert!((monitor.rtthresh - 2.0 * previous).abs() < 1e-6 * capacity);
                previous = monitor.rtthresh;
            }

            // Force congestion avoidance: drop ssthresh below rtthresh.
            monitor.rtthresh_ssthresh = monitor.rtthresh / 2.0;
            let before = monitor.rtthresh;
            monitor.update_buffer_discovery(capacity * 0.5);
            let expected = (before + increment).min(capacity * RTTHRESH_MAX_FRACTION);
            prop_assert!((monitor.rtthresh - expected).abs() < 1e-9 * capacity.max(1.0));

            // Overloaded bins leave the threshold untouched (no growth).
            let held = monitor.rtthresh;
            monitor.update_buffer_discovery(capacity * 1.5);
            prop_assert_eq!(monitor.rtthresh, held);
        }
    }
}
