//! Scenario subsystem integration: compiled scenarios drive `Monitor::run`
//! directly, recordings replay through the binary format, and malformed
//! descriptions surface as typed errors at the facade level.

use netshed::prelude::*;
use netshed_trace::scenario::builtin;
use netshed_trace::{decode_batches_shared, encode_batches, Bytes};

fn specs() -> Vec<QuerySpec> {
    vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)]
}

fn demo_scenario() -> Scenario {
    Scenario::new("demo")
        .seed(11)
        .phase(Phase::new("calm", 8).profile(TraceProfile::CescaI).scale(0.06))
        .phase(
            Phase::new("attack", 8)
                .profile(TraceProfile::CescaI)
                .scale(0.06)
                .anomaly(AnomalyEvent::ddos(0x0a00_0001).over(1, 5).intensity(200)),
        )
}

#[test]
fn a_compiled_scenario_drives_a_monitor_run() {
    let scenario = demo_scenario();
    let mut source = scenario.compile().expect("valid scenario");
    let mut monitor =
        Monitor::builder().capacity(1e12).no_noise().queries(specs()).build().expect("build");
    let summary = monitor.run(&mut source, &mut NullObserver).expect("run");
    assert_eq!(summary.bins + summary.empty_bins, scenario.total_bins());
    assert!(summary.total_packets > 0);
}

#[test]
fn scenario_runs_equal_their_recorded_replays() {
    // The streaming path (monitor fed by the compiled source) and the
    // recorded path (monitor fed by a SharedTraceReader over the encoded
    // bytes) must produce identical summaries and digests.
    let scenario = demo_scenario();
    let batches = scenario.generate().expect("valid scenario");
    let bytes = Bytes::from(encode_batches(&batches, scenario.bin_duration_us()).expect("encode"));

    let run = |source: &mut dyn PacketSource| {
        let mut monitor = Monitor::builder()
            .capacity(2e6)
            .seed(3)
            .with_workers(1)
            .queries(specs())
            .build()
            .expect("build");
        let mut digest = DigestObserver::new();
        let summary = monitor.run(&mut &mut *source, &mut digest).expect("run");
        (summary, digest.digest())
    };

    let mut live = scenario.compile().expect("valid scenario");
    let (live_summary, live_digest) = run(&mut live);
    let mut replay =
        SharedTraceReader::new(bytes.clone()).expect("header").into_replay().expect("decode");
    let (replay_summary, replay_digest) = run(&mut replay);
    assert_eq!(live_summary, replay_summary);
    assert_eq!(live_digest, replay_digest);

    // Streaming straight from the reader (no materialised Vec) matches too.
    let mut streamed = SharedTraceReader::new(bytes).expect("header");
    let (streamed_summary, streamed_digest) = run(&mut streamed);
    assert!(streamed.error().is_none(), "clean stream must not latch an error");
    assert_eq!(streamed_summary, live_summary);
    assert_eq!(streamed_digest, live_digest);
}

#[test]
fn scenario_validation_errors_convert_to_typed_netshed_errors() {
    // Zero-duration phase.
    let zero = Scenario::new("zero").phase(Phase::new("empty", 0));
    let error: NetshedError = zero.validate().expect_err("must fail").into();
    assert!(matches!(error, NetshedError::InvalidScenario(_)));
    assert!(error.to_string().contains("empty"), "names the phase: {error}");

    // Overlapping anomalies.
    let overlapping = Scenario::new("overlap").phase(
        Phase::new("p", 10)
            .anomaly(AnomalyEvent::ddos(1).over(0, 6))
            .anomaly(AnomalyEvent::flash_crowd(2, 80).over(5, 3)),
    );
    let error: NetshedError = overlapping.validate().expect_err("must fail").into();
    assert!(matches!(error, NetshedError::InvalidScenario(_)));
    assert!(error.to_string().contains("overlap"), "{error}");

    // Unknown profile name.
    let unknown = Scenario::new("typo").phase(Phase::new("p", 5).profile_named("CESCA-III"));
    let error: NetshedError = unknown.validate().expect_err("must fail").into();
    assert!(error.to_string().contains("CESCA-III"), "{error}");

    // And format errors convert too.
    let garbage = Bytes::from_static(b"not a trace at all");
    let error: NetshedError = decode_batches_shared(&garbage).expect_err("must fail").into();
    assert!(matches!(error, NetshedError::TraceFormat(_)));
    assert!(error.to_string().contains("NSTR"), "{error}");
}

#[test]
fn compile_does_not_panic_on_malformed_scenarios() {
    for broken in [
        Scenario::new("no-links"),
        Scenario::new("zero").phase(Phase::new("p", 0)),
        Scenario::new("silent-anomaly")
            .phase(Phase::new("p", 4).silent().anomaly(AnomalyEvent::ddos(1).over(0, 2))),
        Scenario::new("oob").phase(Phase::new("p", 4).anomaly(AnomalyEvent::ddos(1).over(3, 4))),
    ] {
        assert!(broken.compile().is_err(), "{} must not compile", broken.name());
    }
}

#[test]
fn builtin_scenarios_are_reachable_from_the_facade() {
    let scenario = builtin("link-flap").expect("built-in exists");
    assert_eq!(scenario.links().len(), 2, "link-flap is the multi-link builtin");
    let batches = scenario.generate().expect("valid");
    assert_eq!(batches.len() as u64, scenario.total_bins());
    // The edge link flaps over bins 6..10 and 18..22; the core link keeps
    // the merged bins non-empty throughout.
    assert!(batches.iter().all(|b| !b.is_empty()));
}

#[test]
fn multi_link_tail_runs_to_the_end_of_the_longest_link() {
    let scenario = Scenario::new("tails")
        .seed(8)
        .link(Link::new("long").phase(Phase::new("p", 6).profile(TraceProfile::CescaI).scale(0.05)))
        .link(
            Link::new("short").phase(Phase::new("p", 2).profile(TraceProfile::Cenic).scale(0.05)),
        );
    let mut source = scenario.compile().expect("valid");
    let mut seen = 0;
    while let Some(batch) = source.next_batch() {
        assert_eq!(batch.bin_index, seen);
        seen += 1;
    }
    assert_eq!(seen, source.total_bins());
    assert_eq!(seen, 6);
}
