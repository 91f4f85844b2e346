//! A cohort equals its members registered apart, sharing one measurement per
//! run. Queries registered from specs that are equal but for the label follow
//! the first of them, their head: they borrow its lane instances and
//! predictor until the plan gives them different deliveries, and take its
//! measurement of every run they share (DESIGN.md, "Cohorts").
//!
//! Without measurement noise a shared measurement is the one each member
//! would make, so the oracle needs no knob: an engine whose queries were
//! registered as bare instances of the same specs, under the same labels and
//! minimum rates, has no specs to compare, so nobody follows anybody in it —
//! and it must emit the same three digest streams, bit for bit, at any worker
//! count. With noise, an unshed cohort is its first member alone: every
//! member's records and outputs equal those of the lone tenant of its spec in
//! an engine that registers only that one.

use netshed::features::FeatureVector;
use netshed::monitor::{flow_sample_with, packet_sample_with};
use netshed::predict::MlrPredictor;
use netshed::prelude::*;
use netshed::queries::{build_query_from_spec, CycleMeter, Query};
use netshed::sketch::{H3Hasher, StateReader, StateWriter};
use netshed::trace::KeepListPool;
use netshed_bench::corpus::CORPUS_SEED;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A run: the tenants registered before the first bin, and the registry's
/// changes before given bins — a registration, or the deregistration of the
/// tenant at an index of `tenants`.
struct Script {
    tenants: Vec<QuerySpec>,
    late: Vec<(usize, QuerySpec)>,
    leave: Vec<(usize, usize)>,
}

/// Registers `spec` from the spec, or — the oracle — as a bare instance of
/// it under the same label and minimum rate.
fn register(engine: &mut Monitor, spec: &QuerySpec, bare: bool) -> QueryId {
    let registered = if bare {
        let label = Some(spec.resolved_label());
        engine.register_instance(build_query_from_spec(spec), label, spec.min_sampling_rate)
    } else {
        engine.register(spec)
    };
    registered.expect("valid spec")
}

/// What a bin shared: its [`Monitor::query_runs`] and its
/// [`Monitor::predictions`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shared {
    runs: usize,
    predictions: usize,
}

impl Shared {
    fn of(engine: &Monitor) -> Self {
        Self { runs: engine.query_runs(), predictions: engine.predictions() }
    }
}

/// Runs `script` over `batches` and returns the digest and what each bin
/// shared.
fn run(
    config: &MonitorConfig,
    script: &Script,
    batches: &[Batch],
    bare: bool,
) -> (RunDigest, Vec<Shared>) {
    let mut engine = Monitor::new(config.clone());
    let ids: Vec<QueryId> =
        script.tenants.iter().map(|spec| register(&mut engine, spec, bare)).collect();
    let (mut digest, mut runs) = (DigestObserver::new(), Vec::new());
    for (bin, batch) in batches.iter().enumerate() {
        for (_, spec) in script.late.iter().filter(|(at, _)| *at == bin) {
            register(&mut engine, spec, bare);
        }
        for (_, index) in script.leave.iter().filter(|(at, _)| *at == bin) {
            engine.deregister(ids[*index]).expect("registered");
        }
        engine.ingest(batch, &mut digest).expect("bin");
        runs.push(Shared::of(&engine));
    }
    digest.on_interval(&engine.finish_interval());
    (digest.digest(), runs)
}

/// The spec'd engine at workers {1, 2, 4}: returns its digest and what
/// each of its bins shared, the same at every worker count.
fn assert_worker_invariant(
    config: &MonitorConfig,
    script: &Script,
    batches: &[Batch],
) -> (RunDigest, Vec<Shared>) {
    let mut first = None;
    for workers in [1, 2, 4] {
        let ran = run(&config.clone().with_workers(workers), script, batches, false);
        assert!(first.as_ref().is_none_or(|first| *first == ran), "workers {workers}");
        first = Some(ran);
    }
    first.expect("three worker counts")
}

/// The spec'd engine at workers {1, 2, 4} against the bare oracle; returns
/// what each bin of the spec'd engine shared, the same at every worker count.
fn assert_cohorts_change_nothing(
    config: &MonitorConfig,
    script: &Script,
    batches: &[Batch],
) -> Vec<Shared> {
    let (oracle, alone) = run(config, script, batches, true);
    let (digest, shared) = assert_worker_invariant(config, script, batches);
    assert_eq!(digest, oracle);
    assert!(shared.iter().zip(&alone).all(|(cohorts, queries)| {
        cohorts.runs <= queries.runs && cohorts.predictions <= queries.predictions
    }));
    shared
}

/// What two registrations' specs agree on when they form a cohort: all but
/// the label.
fn cohort_key(spec: &QuerySpec) -> (QueryKind, Option<u64>, Option<CustomBehavior>) {
    (spec.kind, spec.min_sampling_rate.map(f64::to_bits), spec.custom_behavior)
}

/// A tenant's bin, as its record says: the rate, the predicted and the
/// measured cycles (as bits), the delivered packets, and whether it sat the
/// bin out.
type Row = (u64, u64, u64, u64, bool);

/// What a tenant emitted: its record of every bin it was registered for,
/// and its output at every interval close.
type Emitted = (Vec<Row>, Vec<QueryOutput>);

/// Runs `script` over `batches` and returns what each tenant emitted, by
/// label, and what each bin shared. With `lone`, the engine registers only
/// the first tenant of each spec (but for the label) and the late arrivals,
/// and nobody leaves.
fn emitted(
    config: &MonitorConfig,
    script: &Script,
    batches: &[Batch],
    lone: bool,
) -> (BTreeMap<String, Emitted>, Vec<Shared>) {
    let mut engine = Monitor::new(config.clone());
    let mut ids = Vec::new();
    for (index, spec) in script.tenants.iter().enumerate() {
        let first = script.tenants.iter().position(|other| cohort_key(other) == cohort_key(spec));
        if !lone || first == Some(index) {
            ids.push(engine.register(spec).expect("valid spec"));
        }
    }
    let (mut tenants, mut shared) = (BTreeMap::<String, Emitted>::new(), Vec::new());
    let close = |tenants: &mut BTreeMap<String, Emitted>, outputs| {
        for (label, output) in outputs {
            tenants.entry(label).or_default().1.push(output);
        }
    };
    for (bin, batch) in batches.iter().enumerate() {
        for (_, spec) in script.late.iter().filter(|(at, _)| *at == bin) {
            engine.register(spec).expect("valid spec");
        }
        for (_, index) in script.leave.iter().filter(|(at, _)| *at == bin && !lone) {
            engine.deregister(ids[*index]).expect("registered");
        }
        let record = engine.process_batch(batch).expect("bin");
        shared.push(Shared::of(&engine));
        for query in &record.queries {
            tenants.entry(record.label(query).to_string()).or_default().0.push((
                query.sampling_rate.to_bits(),
                query.predicted_cycles.to_bits(),
                query.measured_cycles.to_bits(),
                query.delivered_packets,
                query.disabled,
            ));
        }
        close(&mut tenants, record.interval_outputs.unwrap_or_default());
    }
    close(&mut tenants, engine.finish_interval());
    (tenants, shared)
}

/// The spec'd engine at workers {1, 2, 4} against the lone oracle of an
/// unshed run: every tenant's records and interval outputs equal, bit for
/// bit, those of the lone tenant of its spec (the late arrivals' own) over
/// the bins it was registered for. Returns what each bin of the spec'd
/// engine shared, the same at every worker count.
fn assert_members_measure_as_one(
    config: &MonitorConfig,
    script: &Script,
    batches: &[Batch],
) -> Vec<Shared> {
    let (lone, _) = emitted(config, script, batches, true);
    let mut first = None;
    for workers in [1, 2, 4] {
        let (tenants, shared) =
            emitted(&config.clone().with_workers(workers), script, batches, false);
        assert_eq!(tenants.len(), script.tenants.len() + script.late.len());
        for (label, (bins, outputs)) in &tenants {
            let spec = script.tenants.iter().find(|spec| spec.resolved_label() == *label);
            let alone = match spec {
                Some(spec) => script
                    .tenants
                    .iter()
                    .find(|other| cohort_key(other) == cohort_key(spec))
                    .map(QuerySpec::resolved_label),
                None => Some(label.clone()),
            };
            let (lone_bins, lone_outputs) = &lone[&alone.expect("a lone tenant")];
            let context = format!("workers {workers}, {label}");
            assert!(lone_bins.get(..bins.len()) == Some(&bins[..]), "{context}: records differ");
            assert!(
                lone_outputs.get(..outputs.len()) == Some(&outputs[..]),
                "{context}: outputs differ"
            );
        }
        assert!(first.as_ref().is_none_or(|first| *first == shared), "workers {workers}");
        first = Some(shared);
    }
    first.expect("three worker counts")
}

/// Every bin's query runs and predictions, one vector each.
fn counts(shared: &[Shared]) -> (Vec<usize>, Vec<usize>) {
    shared.iter().map(|bin| (bin.runs, bin.predictions)).unzip()
}

fn tenants(kinds: &[QueryKind], count: usize) -> Vec<QuerySpec> {
    (0..count)
        .map(|index| {
            QuerySpec::new(kinds[index % kinds.len()]).with_label(format!("tenant-{index:02}"))
        })
        .collect()
}

const FIVE: [QueryKind; 5] = [
    QueryKind::Counter,
    QueryKind::Application,
    QueryKind::Flows,
    QueryKind::TopK,
    QueryKind::HighWatermark,
];

fn unshed() -> MonitorConfig {
    MonitorConfig::default()
        .with_capacity(1e15)
        .with_seed(CORPUS_SEED)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .without_noise()
}

fn traffic(seed: u64, bins: usize, payloads: bool) -> Vec<Batch> {
    let config = TraceConfig::default()
        .with_seed(seed)
        .with_mean_packets_per_batch(300.0)
        .with_payloads(payloads);
    TraceGenerator::new(config).batches(bins)
}

/// The 25-tenant unshed run of `tests/engine.rs`: five cohorts of five run
/// five times a bin and make five predictions, and a same-spec tenant
/// registered after bin 40 — whose instances and predictor would have to
/// have seen the 40 bins it missed — runs and predicts alone.
#[test]
fn an_unshed_tenant_run_runs_one_instance_set_per_kind() {
    let (runs, predictions) = counts(&assert_cohorts_change_nothing(
        &unshed(),
        &late_tenant_script(),
        &traffic(29, 80, false),
    ));
    for counts in [&runs, &predictions] {
        assert!(counts[..40].iter().all(|&count| count == 5), "{counts:?}");
        assert!(counts[40..].iter().all(|&count| count == 6), "{counts:?}");
    }
}

fn late_tenant_script() -> Script {
    Script {
        tenants: tenants(&FIVE, 25),
        late: vec![(40, QuerySpec::new(QueryKind::Counter).with_label("tenant-25"))],
        leave: Vec::new(),
    }
}

/// The same run with the default measurement noise: a cohort draws one
/// noise sample a run, its head's, so every tenant reports what the lone
/// tenant of its kind reports in an engine of five (six after bin 40) — the
/// same rates, predictions, measurements and outputs — and the five cohorts
/// still run and predict five times a bin.
#[test]
fn an_unshed_noisy_tenant_run_measures_each_cohort_once() {
    let noisy = MonitorConfig::default();
    let config = MonitorConfig {
        noise_jitter: noisy.noise_jitter,
        noise_outlier_probability: noisy.noise_outlier_probability,
        ..unshed()
    };
    let (runs, predictions) = counts(&assert_members_measure_as_one(
        &config,
        &late_tenant_script(),
        &traffic(29, 60, false),
    ));
    for counts in [&runs, &predictions] {
        assert!(counts[..40].iter().all(|&count| count == 5), "{counts:?}");
        assert!(counts[40..].iter().all(|&count| count == 6), "{counts:?}");
    }
}

/// The engine's MLR predictor without its checkpoint, which the trait's
/// default declines.
struct Uncopyable(MlrPredictor);

impl Predictor for Uncopyable {
    fn predict(&mut self, features: &FeatureVector) -> f64 {
        self.0.predict(features)
    }

    fn observe(&mut self, features: &FeatureVector, actual_cycles: f64) {
        self.0.observe(features, actual_cycles);
    }

    fn observe_corrupted(&mut self, features: &FeatureVector, predicted_cycles: f64) {
        self.0.observe_corrupted(features, predicted_cycles);
    }

    fn name(&self) -> &'static str {
        "uncopyable-mlr"
    }

    fn last_cost_operations(&self) -> u64 {
        self.0.last_cost_operations()
    }
}

/// The engine's MLR predictor, made [`Uncopyable`].
fn uncopyable() -> PredictorSpec {
    PredictorSpec::new(|| Box::new(Uncopyable(MlrPredictor::with_defaults())) as Box<dyn Predictor>)
}

/// A follower that detaches needs a copy of its head's predictor, so a
/// tenant whose predictor cannot be checkpointed never follows: the same run
/// runs every tenant's instances, and every tenant predicts for itself.
#[test]
fn tenants_whose_predictor_declines_its_checkpoint_never_follow() {
    let config = unshed().with_predictor(uncopyable());
    let (runs, predictions) = counts(&assert_cohorts_change_nothing(
        &config,
        &late_tenant_script(),
        &traffic(29, 50, false),
    ));
    for counts in [&runs, &predictions] {
        assert!(counts[..40].iter().all(|&count| count == 25), "{counts:?}");
        assert!(counts[40..].iter().all(|&count| count == 26), "{counts:?}");
    }
}

/// A registration that joins a fresh cohort builds neither instances nor a
/// predictor: it borrows its head's — the ones a follower that detaches
/// copies — unless the head's predictor cannot be copied; then it owns both.
/// A tenant that arrives after the first bin heads a cohort of its own and
/// makes a predictor too.
#[test]
fn a_follower_of_a_fresh_head_builds_no_predictor() {
    for copyable in [true, false] {
        let made = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&made);
        let spec = PredictorSpec::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            let predictor = MlrPredictor::with_defaults();
            if copyable {
                Box::new(predictor) as Box<dyn Predictor>
            } else {
                Box::new(Uncopyable(predictor))
            }
        });
        let mut engine = Monitor::new(unshed().with_predictor(spec));
        let before = made.load(Ordering::Relaxed);
        for spec in tenants(&FIVE, 25) {
            register(&mut engine, &spec, false);
        }
        let heads = if copyable { 5 } else { 25 };
        assert_eq!(made.load(Ordering::Relaxed) - before, heads, "copyable {copyable}");
        engine.ingest(&traffic(29, 1, false)[0], &mut DigestObserver::new()).expect("bin");
        assert_eq!(engine.query_runs(), heads, "instance sets, copyable {copyable}");
        register(&mut engine, &late_tenant_script().late[0].1, false);
        assert_eq!(made.load(Ordering::Relaxed) - before, heads + 1, "copyable {copyable}");
    }
}

/// A checkpoint cut mid-interval restores the cohorts and the followers
/// (DESIGN.md, "Cohorts"): every bin after the restore runs and predicts as
/// often as in the uninterrupted run, the restored engine writes the bytes it
/// read, and the run ends on the uninterrupted digest.
#[test]
fn a_mid_interval_restore_re_forms_the_followers() {
    let config = unshed();
    let script = late_tenant_script();
    let batches = traffic(47, 60, false);
    let (digest, uninterrupted) = run(&config, &script, &batches, false);

    // Mid-interval, with five cohorts of followers; the late tenant
    // registers on the restored engine.
    const CUT: usize = 23;
    let (mut observer, mut shared) = (DigestObserver::new(), Vec::new());
    let mut engine = Monitor::new(config.clone());
    for spec in &script.tenants {
        register(&mut engine, spec, false);
    }
    for batch in &batches[..CUT] {
        engine.ingest(batch, &mut observer).expect("bin");
        shared.push(Shared::of(&engine));
    }
    let mut writer = StateWriter::new();
    engine.save_state(&mut writer).expect("save");
    observer.save_state(&mut writer);
    let bytes = writer.into_bytes();
    drop(engine);

    let mut restored = Monitor::new(config);
    let mut reader = StateReader::new(&bytes);
    restored.load_state(&mut reader).expect("load");
    let mut observer = DigestObserver::new();
    observer.load_state(&mut reader).expect("digest state");
    reader.finish().expect("no trailing bytes");
    let mut resaved = StateWriter::new();
    restored.save_state(&mut resaved).expect("save");
    observer.save_state(&mut resaved);
    assert!(resaved.into_bytes() == bytes, "the restored engine writes the bytes it read");

    for (bin, batch) in batches.iter().enumerate().skip(CUT) {
        for (_, spec) in script.late.iter().filter(|(at, _)| *at == bin) {
            register(&mut restored, spec, false);
        }
        restored.ingest(batch, &mut observer).expect("bin");
        shared.push(Shared::of(&restored));
    }
    observer.on_interval(&restored.finish_interval());
    assert_eq!(shared, uninterrupted);
    assert_eq!(observer.digest(), digest);
}

/// A restore keeps the relation the checkpoint saved — who follows whom —
/// whenever it is cut: the shed run, with noise or without, restored after
/// any of its bins, runs and predicts every later bin as often as the
/// uninterrupted run, and ends on its digest.
#[test]
fn a_restore_after_any_bin_keeps_the_saved_relation() {
    for noise in [true, false] {
        let (config, script, batches) = shed_twins(noise);
        let (digest, uninterrupted) = run(&config, &script, &batches, false);
        let (mut engine, mut observer) = (Monitor::new(config.clone()), DigestObserver::new());
        for spec in &script.tenants {
            register(&mut engine, spec, false);
        }
        for cut in 1..batches.len() {
            engine.ingest(&batches[cut - 1], &mut observer).expect("bin");
            let mut writer = StateWriter::new();
            engine.save_state(&mut writer).expect("save");
            observer.save_state(&mut writer);
            let bytes = writer.into_bytes();

            let mut restored = Monitor::new(config.clone());
            let mut reader = StateReader::new(&bytes);
            restored.load_state(&mut reader).expect("load");
            let mut resumed = DigestObserver::new();
            resumed.load_state(&mut reader).expect("digest state");
            for (bin, batch) in batches.iter().enumerate().skip(cut) {
                restored.ingest(batch, &mut resumed).expect("bin");
                let context = format!("noise {noise}, cut {cut}, bin {bin}");
                assert_eq!(Shared::of(&restored), uninterrupted[bin], "{context}");
            }
            resumed.on_interval(&restored.finish_interval());
            assert_eq!(resumed.digest(), digest, "noise {noise}, cut {cut}");
        }
    }
}

/// Four tenants of each of the ten kinds, the `p2p-detector`s under custom
/// shedding, and a CPU-fair capacity — nine tenths of the mean unshed
/// demand — that sheds some bins and not others, with the default
/// measurement noise or without it.
fn shed_twins(noise: bool) -> (MonitorConfig, Script, Vec<Batch>) {
    let specs: Vec<QuerySpec> = tenants(&QueryKind::ALL, 40)
        .into_iter()
        .map(|spec| match spec.kind {
            QueryKind::P2pDetector => spec.with_custom(CustomBehavior::Honest),
            _ => spec,
        })
        .collect();
    let batches = traffic(31, 60, true);
    let script = Script { tenants: specs, late: Vec::new(), leave: Vec::new() };

    // The capacity: nine tenths of the mean unshed demand, in cycles a bin.
    let mut demand = 0.0;
    let mut probe = Monitor::new(unshed());
    for spec in &script.tenants {
        probe.register(spec).expect("valid spec");
    }
    for batch in &batches {
        demand += probe.process_batch(batch).expect("bin").total_cycles();
    }
    let config = MonitorConfig::default()
        .with_capacity(0.9 * demand / batches.len() as f64)
        .with_seed(CORPUS_SEED)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsCpu));
    let config = if noise { config } else { config.without_noise() };

    let mut engine = Monitor::new(config.clone());
    for spec in &script.tenants {
        engine.register(spec).expect("valid spec");
    }
    let (mut shed, mut unshed_bins) = (0, 0);
    for batch in &batches {
        let record = engine.process_batch(batch).expect("bin");
        if record.queries.iter().all(|query| query.sampling_rate == 1.0) {
            unshed_bins += 1;
        } else {
            shed += 1;
        }
    }
    assert!(shed > 5 && unshed_bins > 5, "{shed} shed bins, {unshed_bins} unshed");
    (config, script, batches)
}

/// The shed run with noise on: packet- and flow-sampled twins detach the
/// first time they are sampled, custom twins the first time the plan gives
/// them different rates — partway through the run's first interval. A
/// follower takes its head's noise draw, so, as without noise, it detaches
/// from the predictor only with the instances, and nobody re-follows. Its
/// runs differ from its registered-apart twin's in the noise alone, so the
/// checks are the worker invariance here, the restore at every cut
/// (`a_restore_after_any_bin_keeps_the_saved_relation`) and the engine's
/// debug check that a follower's head precedes it and was delivered its run.
#[test]
fn twins_that_the_plan_tells_apart_detach_and_change_nothing() {
    let (config, script, batches) = shed_twins(true);
    let (runs, predictions) = counts(&assert_worker_invariant(&config, &script, &batches).1);
    assert_eq!(runs[0], 10, "one instance set per kind until the plan tells twins apart");
    assert!(runs[..10].iter().any(|&runs| runs > 10 && runs < 40), "{runs:?}");
    assert_eq!(predictions[0], 10, "one prediction per kind before the first run");
    assert!(predictions.iter().any(|&count| count > 10 && count < 40), "{predictions:?}");
    assert!(predictions.windows(2).all(|pair| pair[0] <= pair[1]), "nobody re-follows");
}

/// The shed run without noise: followers detach from their heads' predictors
/// only when the plan tells them apart — a sample of their own, or another
/// rate — and until then make one prediction for all.
#[test]
fn followers_detach_when_the_plan_tells_them_apart_and_change_nothing() {
    let (config, script, batches) = shed_twins(false);
    let (_, predictions) = counts(&assert_cohorts_change_nothing(&config, &script, &batches));
    assert_eq!(predictions[0], 10, "one prediction per kind before the first run");
    assert!(predictions.iter().any(|&count| count > 10 && count < 40), "{predictions:?}");
    assert!(predictions.windows(2).all(|pair| pair[0] <= pair[1]), "nobody re-follows");
}

/// A cohort's first-registered member, its head, leaves mid-interval: its
/// instances and predictor pass to the first of the other members — tenant
/// 5, which the others follow from then on and which leaves in turn.
#[test]
fn deregistering_a_cohorts_first_member_changes_nothing() {
    let script = Script {
        tenants: tenants(&FIVE, 15),
        late: Vec::new(),
        leave: vec![(25, 0), (25, 1), (33, 5)],
    };
    let (runs, predictions) =
        counts(&assert_cohorts_change_nothing(&unshed(), &script, &traffic(37, 50, false)));
    assert!(runs.iter().all(|&runs| runs == 5), "{runs:?}");
    assert!(predictions.iter().all(|&count| count == 5), "{predictions:?}");
}

/// With outlier noise on — no jitter, so a context-switch outlier is the
/// only noise — the cohorts' heads leave at bin 8: each first follower
/// inherits its head's instances and predictor and the others follow it. A
/// cohort measures each run once, before the hand-off and after it, so
/// every member reports what the lone tenant of its kind — who never
/// leaves — reports in an engine of five, and the cohorts run and predict
/// five times a bin throughout.
#[test]
fn deregistering_the_heads_of_noisy_cohorts_keeps_one_measurement_per_run() {
    const LEAVE: usize = 8;
    let config = MonitorConfig { noise_outlier_probability: 0.05, ..unshed() };
    let script = Script {
        tenants: tenants(&FIVE, 15),
        late: Vec::new(),
        leave: (0..5).map(|head| (LEAVE, head)).collect(),
    };
    let (runs, predictions) =
        counts(&assert_members_measure_as_one(&config, &script, &traffic(41, 30, false)));
    assert!(runs.iter().all(|&runs| runs == 5), "{runs:?}");
    assert!(predictions.iter().all(|&count| count == 5), "{predictions:?}");
}

/// Only owners are dispatched: the unshed 25-tenant run's five cohorts make
/// five predict tasks and five execute tasks a bin, at any worker count.
#[test]
fn an_unshed_tenant_run_dispatches_one_task_per_cohort_and_dispatch() {
    for workers in [1, 2] {
        let mut engine = Monitor::new(unshed().with_workers(workers));
        for spec in &tenants(&FIVE, 25) {
            engine.register(spec).expect("valid spec");
        }
        for batch in &traffic(29, 20, false) {
            engine.process_batch(batch).expect("bin");
        }
        let stats = engine.stage_stats();
        assert_eq!((stats.bins, stats.tasks), (20, 20 * 10), "workers {workers}");
    }
}

/// What detaching rests on: a mid-interval `save_state` → `load_state` copy
/// of a query continues bit-identically — the same cycles every bin, the
/// same bytes, the same output at every close — for every kind, on full
/// views and packet- and flow-sampled ones, at full rate and below.
#[test]
fn a_mid_interval_state_copy_continues_bit_identically_for_every_kind() {
    let batches = traffic(43, 36, true);
    let hasher = H3Hasher::new(13, 5);
    let (mut rng, mut pool) = (StdRng::seed_from_u64(3), KeepListPool::new());
    let state = |query: &dyn Query| {
        let mut writer = StateWriter::new();
        query.save_state(&mut writer).expect("saves");
        writer.into_bytes()
    };
    let specs = QueryKind::ALL
        .into_iter()
        .map(QuerySpec::new)
        .chain([QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest)]);
    for spec in specs {
        let context = format!("{} ({:?})", spec.kind.name(), spec.custom_behavior);
        let mut original = build_query_from_spec(&spec);
        let mut copy = None::<Box<dyn Query>>;
        for (bin, batch) in batches.iter().enumerate() {
            if bin % 10 == 0 && bin > 0 {
                let output = original.end_interval();
                if let Some(copy) = copy.as_mut() {
                    assert_eq!(copy.end_interval(), output, "{context}, close at bin {bin}");
                }
            }
            if bin == 14 {
                let mut restored = build_query_from_spec(&spec);
                restored
                    .load_state(&mut StateReader::new(&state(original.as_ref())))
                    .expect("loads");
                copy = Some(restored);
            }
            let (view, rate) = match bin % 4 {
                0 => (batch.view(), 1.0),
                1 => (batch.view(), 0.6),
                2 => (packet_sample_with(&batch.view(), 0.5, &mut rng, &mut pool).0, 0.5),
                _ => (flow_sample_with(&batch.view(), 0.4, &hasher, &mut pool).0, 0.4),
            };
            let mut meter = CycleMeter::new();
            original.process_batch(&view, rate, &mut meter);
            if let Some(copy) = copy.as_mut() {
                let mut copied = CycleMeter::new();
                copy.process_batch(&view, rate, &mut copied);
                assert_eq!(copied.cycles(), meter.cycles(), "{context}, bin {bin}");
                assert!(state(copy.as_ref()) == state(original.as_ref()), "{context}, bin {bin}");
            }
        }
        let copy = copy.as_mut().expect("copied at bin 14");
        assert_eq!(copy.end_interval(), original.end_interval(), "{context}, last close");
    }
}
