//! The bin: Algorithm 1 of the paper as seven stage functions.
//!
//! [`Monitor::process_batch`] drives **admit → extract → predict → decide →
//! shed → execute → account** over one [`Bin`] context the monitor owns and
//! reuses — admit clears it, the stages fill it, nothing in it is read
//! across bins — and, per query, the query's own [`BinSlot`]. Determinism is
//! the execution plane's plan → dispatch → merge (DESIGN.md): shed is the
//! plan (every draw, sequentially, in registration order, on the caller's
//! thread), predict and execute are the dispatches (one task per query that
//! owns what the stage advances, touching only that query), account is the
//! merge (every sum folds in registration order). Execute opens with one
//! sequential step on the caller's thread, the nested re-extraction of every
//! packet-sampled query.
//!
//! A follower (`monitor.rs`) borrows its cohort head's lane instances,
//! predictor and control state by position; only owners are dispatched. The
//! control loop works on rows — an owner and the followers that name it —
//! and runs each pass once per row while every row holds: the plan, the
//! noise draw (a follower takes its head's), the prediction's cost and the
//! enforcement. A bin whose decision tells a follower apart from its owner
//! is planned query by query instead, and its plan's last step detaches
//! every follower whose delivery differs from its head's onto copies of
//! both. So the two runs are one: a follower is not predicted, and the
//! head's execute task runs the instances, measures the run and stores its
//! observation; the fold and the merge read a follower's prediction and
//! measurement off its row's owner, and its record is the owner's with its
//! own handle and label.
//!
//! This is the bin of every engine. Everything up to and including shed
//! works on the global post-drop view whatever the lane count; execute is
//! the one stage that knows about lanes, and with one lane it only skips the
//! split.

use crate::config::MonitorConfig;
use crate::error::NetshedError;
use crate::exec::{self, Stage};
use crate::monitor::{extractor, flow_hasher, plan_followers, Monitor, RegisteredQuery, Role};
use crate::policy::{ControlContext, ControlDecision};
use crate::report::{BinRecord, QueryBinRecord};
use crate::shedder::{draw_keys, flow_sample_with, keep_threshold, packet_sample_with};
use netshed_fairness::QueryDemand;
use netshed_features::{ExtractScratch, FeatureVector};
use netshed_predict::FeatureWindow;
use netshed_queries::{CycleMeter, NoiseDraw, Query, QueryOutput, SheddingMethod};
use netshed_trace::{Batch, BatchView, KeepListPool};

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
/// registration order. A follower's is left behind while its row holds:
/// every stage reads its row owner's instead (the plan copies the owner's
/// prediction into it in a bin where the row may break).
#[derive(Default)]
pub(crate) struct BinSlot {
    /// Predicted full-batch cycles (0 while the query serves a penalty).
    predicted: f64,
    /// Elementary operations the prediction cost.
    predict_ops: u64,
    /// Full-batch cycles measured on the shadow twin (the prediction when
    /// the query has no twin); written only under oracle-style policies.
    shadow_cycles: f64,
    /// The granted sampling rate when the query runs this bin; `None` when
    /// it sits the bin out (penalised, or granted rate 0).
    pub(crate) run: Option<f64>,
    /// The measurement noise the plan drew for the run — an owner's own
    /// draw, a follower's its head's — and `None` with the run.
    pub(crate) noise: Option<NoiseDraw>,
    /// The packet-sampled view, cut in the shed stage because its keys
    /// consume the shared RNG. `None` for every other shedding outcome: the
    /// tail works from the post-drop view (flow sampling is deterministic per
    /// query, so it happens inside the task).
    sampled: Option<BatchView>,
    /// Where the nested pass that opens the execute stage filed the
    /// packet-sampled view's feature vector and operations in the bin's
    /// `reextracted` — kept apart from the slot, so a query that is never
    /// packet-sampled, a cohort member above all, does not carry a feature
    /// vector's room.
    reextracted: Option<usize>,
    // Outputs of the tail, valid when `run` is `Some`: the lane instances'
    // raw metered cycles and what the query made of them, which account
    // reads for the owner and every follower of its row.
    cycles: u64,
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
    /// Queries that re-extract a flow sample of their own in execute.
    flow_walks: usize,
    /// The packet-sampled queries by (key threshold, position), ascending,
    /// and the distinct thresholds: what the plan cut and the nested pass
    /// re-extracts.
    nested: Vec<(u64, usize)>,
    thresholds: Vec<u64>,
    /// What the nested pass re-extracted, in its order: each packet-sampled
    /// query's feature vector and operations, which its execute task reads.
    reextracted: Vec<(FeatureVector, u64)>,
}

impl Bin {
    /// Plans the query at `position` on its granted rate — for `members`
    /// queries, its own and those of the followers its row plans with it,
    /// where that counts: the packets a rate of 0 leaves unsampled. A
    /// penalised query serves a bin of its penalty; a flow-sampled one that
    /// runs moves its hash function to this interval's generation — and,
    /// sampled below rate 1, builds the table and the extractor it needs, the
    /// first time the generation (the query) is sampled; a packet-sampled
    /// one below rate 1 joins the cut of the packet samples.
    fn plan(
        &mut self,
        registered: &mut RegisteredQuery,
        position: usize,
        members: u64,
        packets: u64,
        config: &MonitorConfig,
    ) {
        let rate = self.decision.rates[position];
        registered.slot.run = None;
        let control = &mut registered.control;
        if control.penalty_remaining > 0 {
            control.penalty_remaining -= 1;
            return;
        }
        if rate <= 0.0 {
            self.unsampled_accumulator += packets * members;
            return;
        }
        // A new flow-sampling hash function every interval, so selection
        // cannot be evaded and is unbiased (Section 4.2): the generation
        // moves here, the table is drawn below if the query samples. Keyed
        // by the stable handle, not the position, so deregistrations do not
        // reshuffle the selection of the surviving queries.
        if registered.shedding == SheddingMethod::FlowSampling {
            control.hasher_generation = self.interval;
        }
        if rate < 1.0 {
            match registered.shedding {
                // Packet sampling is cut after the plan, from keys the shared
                // RNG draws once for every such query.
                SheddingMethod::PacketSampling => {
                    self.nested.push((keep_threshold(rate), position));
                    self.shedding_cycles += packets * SAMPLING_TEST_CYCLES;
                }
                // Flow sampling is deterministic per query and happens inside
                // the query's own task, with the table of this generation — a
                // pure function of it, so it is built the first time the
                // generation samples, not before. So is the extractor that
                // re-extracts the sample, the first time the plan
                // flow-samples the query.
                SheddingMethod::FlowSampling => {
                    registered.sampled_extractor.get_or_insert_with(|| Box::new(extractor(config)));
                    let generation = control.hasher_generation;
                    if !matches!(registered.flow_hasher, Some((built, _)) if built == generation) {
                        let hasher = flow_hasher(config.seed, registered.id, generation);
                        registered.flow_hasher = Some((generation, hasher));
                    }
                    self.shedding_cycles += packets * SAMPLING_TEST_CYCLES;
                    self.flow_walks += 1;
                }
                SheddingMethod::Custom => {}
            }
        }
        registered.slot.run = Some(rate);
    }
}

impl RegisteredQuery {
    /// What the plan feeds the query's lane instances this bin, as far as a
    /// cohort can tell: the bits of the rate they run at on the post-drop
    /// view — 0 when the query sits the bin out — or `None` for a sample of
    /// its own (packet or flow sampling below rate 1), which no other query
    /// sees.
    pub(crate) fn delivery(&self) -> Option<u64> {
        match self.slot.run {
            None => Some(0f64.to_bits()),
            Some(rate) if rate < 1.0 && self.shedding != SheddingMethod::Custom => None,
            Some(rate) => Some(rate.to_bits()),
        }
    }

    /// Predict task: the full-batch cost from the shared feature vector,
    /// against the window of the bins before this one, and under a policy
    /// that needs measured cycles the bin's true full-batch cycles, measured
    /// on the shadow twin fed the unsampled stream. A penalised query is not
    /// predicted (and charged nothing for it); a follower is not predicted
    /// either — the fold reads its row owner's slot.
    fn predict(&mut self, window: &FeatureWindow, features: &FeatureVector, post_drop: &BatchView) {
        if let Role::Owns { predictor, .. } = &mut self.role {
            (self.slot.predicted, self.slot.predict_ops) = if self.control.penalty_remaining > 0 {
                (0.0, 0)
            } else {
                let predicted = predictor.predict_shared(window, features);
                (predicted, predictor.last_cost_operations())
            };
        }
        if let Some(shadow) = self.shadow.as_mut() {
            self.slot.shadow_cycles = metered(shadow.as_mut(), post_drop, 1.0) as f64;
        }
    }

    /// Execute task of an owner, the whole tail of one query. Shed and
    /// re-extract once on the global view; run every lane instance on its
    /// share of what was delivered — split by the lane of each packet's flow
    /// (`lane_of_flow`), or, with one lane, the delivered view as it is —
    /// filing the instances' meters, summed in lane order, as the query's raw
    /// cycles; then [`observe`](Self::observe) them, against `window`, whose
    /// newest row is this bin's full-batch vector. A packet sample's
    /// re-extraction is the query's entry of the nested pass's
    /// `reextracted`. A query the plan sat out is walked and left untouched,
    /// and so is a follower, which is never dispatched.
    fn execute(
        &mut self,
        post_drop: &BatchView,
        lane_of_flow: &[u32],
        reextracted: &[(FeatureVector, u64)],
        window: &FeatureWindow,
        scratch: &mut ExtractScratch,
    ) {
        let (Some(rate), Some(noise), Role::Owns { lanes, .. }) =
            (self.slot.run, self.slot.noise, &mut self.role)
        else {
            return;
        };
        // The features recomputed over the sampled stream, so the MLR history
        // stays consistent (Section 4.3): a packet sample's by the nested
        // pass, a flow sample's here — the per-query extractor belongs to
        // this task alone, the scratch to the worker running it.
        let plan = (self.slot.sampled.take(), &self.flow_hasher, &mut self.sampled_extractor);
        let (delivered, reextracted) = match plan {
            (Some(sampled), ..) => {
                (sampled, self.slot.reextracted.take().map(|at| reextracted[at]))
            }
            // The plan built the table of this interval's generation, and the
            // extractor.
            (None, Some((_, hasher)), Some(own))
                if rate < 1.0 && self.shedding == SheddingMethod::FlowSampling =>
            {
                let (sampled, _) = flow_sample_with(post_drop, rate, hasher, &mut self.shed_pool);
                let extracted = own.extract_view_with(&sampled, scratch);
                (sampled, Some(extracted))
            }
            // Full rate, or custom shedding (the query scales its own work).
            (None, ..) => (post_drop.clone(), None),
        };
        self.slot.delivered_packets = delivered.len() as u64;
        self.slot.reextract_ops = reextracted.map_or(0, |(_, ops)| ops);
        let pool = &mut self.shed_pool;
        self.slot.cycles = meter_lanes(lanes, &delivered, rate, lane_of_flow, pool);
        self.observe(rate, noise, window, reextracted.as_ref().map(|(row, _)| row));
    }

    /// The rest of an owner's tail once its raw cycles are in its slot: apply
    /// the pre-drawn `noise` to the run at `rate` and feed the observation
    /// back into the query's predictor. `sampled_features` is the row
    /// re-extracted over the query's own sample, if it has one.
    fn observe(
        &mut self,
        rate: f64,
        noise: NoiseDraw,
        window: &FeatureWindow,
        sampled_features: Option<&FeatureVector>,
    ) {
        let (measured, outlier) = noise.apply(self.slot.cycles);
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
        if let Role::Owns { predictor, .. } = &mut self.role {
            match sampled_features {
                // Nothing was re-extracted (full rate, or custom shedding): the
                // row to store is the bin's shared vector, taken from the
                // window.
                None => predictor.observe_shared(window, cycles, corrupted),
                Some(row) if corrupted => predictor.observe_corrupted(row, cycles),
                Some(row) => predictor.observe(row, cycles),
            }
        }
        self.slot.measured = measured;
        self.slot.outlier = outlier;
    }
}

/// Runs every lane instance on its share of `delivered` — split by the lane
/// of each packet's flow (`lane_of_flow`), or, with one lane, the delivered
/// view as it is — and sums their meters in lane order.
fn meter_lanes(
    lanes: &mut [Box<dyn Query>],
    delivered: &BatchView,
    rate: f64,
    lane_of_flow: &[u32],
    pool: &mut KeepListPool,
) -> u64 {
    match lanes {
        [only] => metered(only.as_mut(), delivered, rate),
        lanes => {
            let (count, mut cycles) = (lanes.len(), 0);
            delivered.split_lanes_with(pool, lane_of_flow, count, |lane, view| {
                cycles += metered(lanes[lane].as_mut(), &view, rate);
            });
            cycles
        }
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
        (bin.shedding_cycles, bin.unsampled_accumulator, bin.flow_walks) = (0, 0, 0);
        bin.nested.clear();
        bin.reextracted.clear();
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
    /// hold the same value whichever task fills them — so the owners are
    /// dispatched, then the fold reads each query's prediction off its row's
    /// owner, in registration order, and each row's cost once. The window
    /// takes this bin's vector only after the predictions: they regress over
    /// the bins before it.
    ///
    /// For oracle-style policies the task of every query with a shadow twin,
    /// followers included, also measures the query's true full-batch cycles
    /// on the twin, fed the unsampled stream — an idealised upper bound, not
    /// charged to the bin; twins are independent deterministic state, folded
    /// beside the predictions (a query without one, a bare instance, is
    /// folded its prediction).
    fn predict(&mut self, post_drop: &BatchView) {
        let features = self.bin.features;
        self.rows.refresh(&self.queries);
        let shadows = self.policy.needs_measured_cycles();
        self.dispatch(shadows, |query, window, _| query.predict(window, &features, post_drop));
        self.window.push(&features);
        let (bin, queries, mut predictions) = (&mut self.bin, &self.queries, 0);
        for &(owner, members) in &self.rows.owners {
            let registered = &queries[owner];
            predictions += usize::from(registered.control.penalty_remaining == 0);
            bin.prediction_cycles +=
                registered.slot.predict_ops * PREDICT_OP_CYCLES * members as u64;
        }
        for (position, &(_, owner)) in self.rows.members.iter().enumerate() {
            let predicted = queries[owner].slot.predicted;
            bin.predictions.push(predicted);
            if shadows {
                let registered = &queries[position];
                let measured = if registered.shadow.is_some() {
                    registered.slot.shadow_cycles
                } else {
                    predicted
                };
                bin.measured_full.push(measured);
            }
        }
        self.predictions = predictions;
    }

    /// Decide: hands the control policy everything the monitor knows about
    /// the bin and keeps its (sanitised) per-query sampling rates. A
    /// policy decides per query ([`ControlContext`]), so each query gets its
    /// own demand: its prediction, corrected by its row owner's enforcement
    /// state, at the row's minimum rate.
    fn decide(&mut self) {
        let (queries, members) = (&self.queries, &self.rows.members);
        let demands = self.bin.predictions.iter().zip(members).map(|(&prediction, &(_, owner))| {
            let registered = &queries[owner];
            // Chapter 6 correction: custom queries that habitually overuse
            // their allocation are charged for it.
            let corrected = if registered.shedding == SheddingMethod::Custom {
                prediction * registered.control.overuse_ratio.max(1.0)
            } else {
                prediction
            };
            QueryDemand::new(corrected, registered.min_rate)
        });
        self.bin.demands.extend(demands);
        self.consult_policy();
    }

    /// The policy's half of [`decide`](Self::decide), once the bin's demands
    /// are in: the cycles available to the queries, the policy's decision,
    /// sanitised against the demands.
    fn consult_policy(&mut self) {
        let bin = &mut self.bin;
        let delay = self.buffer.delay_cycles();
        let rtthresh = if self.config.buffer_discovery { self.rtthresh } else { 0.0 };
        bin.available_cycles = self.config.capacity_cycles_per_bin
            - (self.config.platform_overhead_cycles + bin.prediction_cycles as f64)
            + (rtthresh - delay);
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
    /// accounting, the flow-hasher refresh, the packet keys, who keeps
    /// following whom and the measurement-noise pre-draw. Execute then
    /// receives fully determined inputs and only writes per-query state (an
    /// owner's instances and predictor, on a run and a measurement equal for
    /// its followers), which is why the merged output is bit-identical for
    /// any worker count.
    ///
    /// When every row holds ([`rows_hold`](Self::rows_hold)) the plan is one
    /// step per row: its owner is planned for all its members and draws the
    /// row's noise, in registration order. Otherwise some follower parts from
    /// its owner, and the bin is planned query by query: every follower takes
    /// its owner's control state and prediction, each query is planned on
    /// its own rate, and [`plan_followers`] settles who follows whom and
    /// draws the noise; the rows are rebuilt from the roles it leaves.
    fn shed(&mut self, post_drop: &BatchView) {
        // Nothing is fresh once a bin runs.
        self.fresh.clear();
        let packets = post_drop.len() as u64;
        let rows_hold = self.rows_hold();
        let (bin, config) = (&mut self.bin, &self.config);
        if rows_hold {
            for &(owner, members) in &self.rows.owners {
                let registered = &mut self.queries[owner];
                bin.plan(registered, owner, members as u64, packets, config);
                let slot = &mut registered.slot;
                slot.noise = slot.run.map(|_| self.noise.draw());
            }
        } else {
            for position in 0..self.queries.len() {
                let (earlier, rest) = self.queries.split_at_mut(position);
                if let Role::Follows(head) = rest[0].role {
                    let (head, follower) = (&earlier[head], &mut rest[0]);
                    follower.control = head.control;
                    (follower.slot.predicted, follower.slot.predict_ops) =
                        (head.slot.predicted, head.slot.predict_ops);
                }
            }
            for (position, registered) in self.queries.iter_mut().enumerate() {
                bin.plan(registered, position, 1, packets, config);
            }
            plan_followers(&mut self.queries, &mut self.noise, &config.predictor);
            self.rows.invalidate();
            self.rows.refresh(&self.queries);
        }
        self.cut_packet_samples(post_drop);
    }

    /// Whether every row holds through this bin's plan: each follower was
    /// granted its owner's rate, bit for bit, and no owner that leads a row
    /// is fed a sample of its own, which no follower could share. A
    /// follower's control state is its owner's, so then it is planned what
    /// its owner is, and nobody parts.
    fn rows_hold(&self) -> bool {
        let rates = &self.bin.decision.rates;
        let granted_alike = self
            .rows
            .members
            .iter()
            .enumerate()
            .all(|(position, &(_, owner))| rates[position].to_bits() == rates[owner].to_bits());
        granted_alike
            && self.rows.owners.iter().all(|&(owner, members)| {
                let registered = &self.queries[owner];
                let rate = rates[owner];
                members == 1
                    || registered.control.penalty_remaining > 0
                    || rate <= 0.0
                    || rate >= 1.0
                    || registered.shedding == SheddingMethod::Custom
            })
    }

    /// The packet samples of the plan: one key per packet of the bin, drawn
    /// from the shared RNG only if some query packet-samples — and then
    /// exactly where the first such query's own draws stood, since nothing
    /// else in the plan reads this generator — and each query keeps the
    /// packets whose key is below its threshold. Samples nest, so each
    /// distinct threshold's view is cut from the next larger one, largest
    /// first, and queries with equal thresholds share one keep list.
    fn cut_packet_samples(&mut self, post_drop: &BatchView) {
        let bin = &mut self.bin;
        bin.thresholds.clear();
        if bin.nested.is_empty() {
            return;
        }
        let mut keys = std::mem::take(self.shed_pool.keys());
        draw_keys(post_drop, &mut self.rng, &mut keys);
        bin.nested.sort_unstable();
        bin.thresholds.extend(bin.nested.iter().map(|&(threshold, _)| threshold));
        bin.thresholds.dedup();
        let (mut within, mut cut) = (post_drop.clone(), None);
        for &(threshold, position) in bin.nested.iter().rev() {
            if cut != Some(threshold) {
                within = within.filter_keys_below_with(&mut self.shed_pool, &keys, threshold);
                cut = Some(threshold);
            }
            self.queries[position].slot.sampled = Some(within.clone());
        }
        *self.shed_pool.keys() = keys;
    }

    /// Execute: the nested re-extraction, then the expensive tail, one
    /// dispatch of one task per owner of lane instances (see
    /// [`RegisteredQuery::execute`]). A follower's run is its owner's, which
    /// account reads off the owner's slot. The lane verdict is asked once
    /// per flow of the batch's index, here, for every task to share; the
    /// window was pushed in predict and is only read.
    fn execute(&mut self, post_drop: &BatchView) {
        self.reextract_nested();
        if self.lane_count > 1 {
            post_drop.store().flow_lanes(self.lane_count, &mut self.lane_of_flow);
        }
        let lane_of_flow = std::mem::take(&mut self.lane_of_flow);
        let reextracted = std::mem::take(&mut self.bin.reextracted);
        self.dispatch(false, |query, window, scratch| {
            query.execute(post_drop, &lane_of_flow, &reextracted, window, scratch);
        });
        (self.lane_of_flow, self.bin.reextracted) = (lane_of_flow, reextracted);
    }

    /// The packet-sampled queries' re-extraction, on the caller's thread
    /// before the dispatch: their samples nest, so one
    /// [`NestedPass`](netshed_features::NestedPass) walks the largest sample
    /// once and each query's extractor folds the scratch at its threshold,
    /// smallest first — bit for bit what `extract_view_with` makes of each
    /// sample. Each extractor is its own query's; the order they fold in
    /// moves nothing, the thresholds' order only saves the walks.
    fn reextract_nested(&mut self) {
        let bin = &mut self.bin;
        self.reextraction_walks = bin.flow_walks + usize::from(!bin.nested.is_empty());
        // The largest sample holds every packet any query keeps: the pass
        // walks it, not the post-drop view.
        let Some(largest) = bin
            .nested
            .last()
            .and_then(|&(_, position)| self.queries[position].slot.sampled.clone())
        else {
            return;
        };
        let mut pass = self.scratch[0].nested(&largest, self.shed_pool.keys(), &bin.thresholds);
        let rows = &mut bin.reextracted;
        for &(threshold, position) in &bin.nested {
            // A query's extractor is built the first time it is sampled.
            let registered = &mut self.queries[position];
            let own = registered
                .sampled_extractor
                .get_or_insert_with(|| Box::new(extractor(&self.config)));
            registered.slot.reextracted = Some(rows.len());
            rows.push(pass.extract(own, threshold));
        }
    }

    /// Account — the *merge*: folds the queries' slots in registration
    /// order (see [`merge_queries`](Self::merge_queries)) and closes the bin
    /// ([`close_bin`](Self::close_bin)).
    fn account(&mut self, post_drop: &BatchView) -> BinRecord {
        let (queries, query_cycles) = self.merge_queries(post_drop.len() as u64);
        self.close_bin(queries, query_cycles)
    }

    /// The rest of account once the per-query records and the query-cycle
    /// total are in: closes the control loop (the EWMAs, the capture buffer,
    /// buffer discovery, the next bin's reactive state) and assembles the
    /// record, which takes the decision and the interval outputs out of the
    /// context and shares the registry's label table.
    fn close_bin(&mut self, queries: Vec<QueryBinRecord>, query_cycles: f64) -> BinRecord {
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
            labels: self.labels.clone(),
            interval_outputs: bin.interval_outputs.take(),
            decision: std::mem::take(&mut bin.decision),
        }
    }

    /// The registration-order merge of the queries' slots: the per-query
    /// records (the one vector the bin body allocates — the record owns it)
    /// and the query-cycle total, then, once per row, what its owner's run
    /// adds — the re-extraction and the packets it did not deliver (a
    /// follower delivers the whole view and re-extracts nothing), the Chapter
    /// 6 enforcement for custom load shedding queries, and the count of lane
    /// runs. A follower's record is its owner's with its own handle and
    /// label; each running query adds its measurement to the total.
    fn merge_queries(&mut self, packets: u64) -> (Vec<QueryBinRecord>, f64) {
        let (queries, rows) = (&self.queries, &self.rows);
        debug_assert!(
            rows.members.iter().enumerate().all(|(position, &(_, owner))| {
                let (rates, head) = (&self.bin.decision.rates, &queries[owner]);
                owner == position
                    || (owner < position
                        && rates[position].to_bits() == rates[owner].to_bits()
                        && head.delivery().is_some()
                        && head.slot.run.is_none_or(|_| head.slot.delivered_packets == packets))
            }),
            "a follower's owner does not precede it, or was delivered another run"
        );
        let mut query_cycles = 0.0;
        let mut records = Vec::with_capacity(rows.members.len());
        records.extend(rows.members.iter().enumerate().map(|(position, &(id, owner))| {
            let slot = &queries[owner].slot;
            let (sampling_rate, measured_cycles, delivered_packets) = match slot.run {
                Some(rate) => {
                    query_cycles += slot.measured;
                    (rate, slot.measured, slot.delivered_packets)
                }
                None => (0.0, 0.0, 0),
            };
            QueryBinRecord {
                id,
                label: position as u32,
                sampling_rate,
                predicted_cycles: slot.predicted,
                measured_cycles,
                delivered_packets,
                disabled: slot.run.is_none(),
            }
        }));
        let (bin, mut runs) = (&mut self.bin, 0);
        for &(owner, _) in &self.rows.owners {
            let registered = &mut self.queries[owner];
            let (slot, control) = (&registered.slot, &mut registered.control);
            let Some(rate) = slot.run else { continue };
            runs += 1;
            bin.shedding_cycles += slot.reextract_ops * REEXTRACT_OP_CYCLES;
            bin.unsampled_accumulator += packets - slot.delivered_packets;
            let expected = slot.predicted * rate;
            if registered.shedding == SheddingMethod::Custom && expected > 0.0 && !slot.outlier {
                control.enforce(slot.measured / expected, &self.config.enforcement);
            }
        }
        self.query_runs = runs;
        (records, query_cycles)
    }

    /// Fans `run` out on the execution plane over the owners — and, with
    /// `shadows`, every query with a shadow twin, followers included — each
    /// beside the shared feature window and lent the extraction scratch of
    /// the worker it runs on.
    fn dispatch(
        &mut self,
        shadows: bool,
        run: impl Fn(&mut RegisteredQuery, &FeatureWindow, &mut ExtractScratch) + Sync,
    ) {
        let members = &self.rows.members;
        let dispatched = |position: usize, query: &RegisteredQuery| {
            members[position].1 == position || (shadows && query.shadow.is_some())
        };
        let tasks = if shadows {
            self.queries.iter().enumerate().filter(|&(at, query)| dispatched(at, query)).count()
        } else {
            self.rows.owners.len()
        };
        let (window, workers) = (&self.window, self.config.workers.min(tasks));
        let queries = self.queries.iter_mut().enumerate();
        let queries = queries.filter(|(at, query)| dispatched(*at, query)).map(|(_, query)| query);
        exec::run_tasks(workers, &mut self.scratch, queries, |query, scratch| {
            run(query, window, scratch);
        });
        self.clock.stats.tasks += tasks as u64;
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

/// The per-member passes the rows replaced, and the property that holds
/// the two loops equal.
#[cfg(test)]
#[path = "../../../tests/oracle/per_member.rs"]
mod per_member;
