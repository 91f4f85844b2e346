//! Robustness against traffic anomalies (Sections 3.4.3 and 4.5.5).
//!
//! A synthetic SYN-flood / DDoS attack is injected into the trace. The same
//! query set is run once without load shedding (the original CoMo behaviour:
//! uncontrolled drops once the capture buffer fills), once with the
//! predictive load shedder, and once with the `OraclePolicy` — a control
//! policy that allocates from the bin's *actual* measured cycles, the upper
//! bound every predictor is chasing. The example prints the per-interval
//! error of the `flows` query — the one most affected by a flood of spoofed
//! sources — under all three systems.
//!
//! ```sh
//! cargo run --release --example ddos_resilience
//! ```

use netshed::fairness::MmfsPkt;
use netshed::prelude::*;

/// Batch count, overridable for quick CI runs (`NETSHED_BATCHES=60`).
fn batch_count(default: usize) -> usize {
    std::env::var("NETSHED_BATCHES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn attack_trace(seed: u64, batches: usize) -> BatchReplay {
    let mut generator = TraceGenerator::new(TraceProfile::CescaI.default_config(seed));
    // A DDoS flood with spoofed sources over the middle third of the run,
    // going idle every other second to make the workload hard to predict
    // (Section 3.4.3).
    generator.add_anomaly(
        Anomaly::new(
            AnomalyKind::DdosFlood { target: 0x0a00_0001 },
            batches as u64 / 3,
            2 * batches as u64 / 3,
            1500,
        )
        .with_duty_cycle(20),
    );
    BatchReplay::record(&mut generator, batches)
}

fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::TopK),
    ]
}

fn flows_errors(
    builder: MonitorBuilder,
    capacity: f64,
    recording: &BatchReplay,
) -> Result<Vec<f64>, NetshedError> {
    let specs = specs();
    let mut monitor = builder.capacity(capacity).queries(specs.clone()).build()?;
    let mut accuracy = AccuracyTracker::new(&specs, monitor.config().measurement_interval_us);
    monitor.run(&mut recording.clone(), &mut accuracy)?;
    Ok(accuracy.error_series().get("flows").cloned().unwrap_or_default())
}

fn main() -> Result<(), NetshedError> {
    let batches = batch_count(300);
    let recording = attack_trace(7, batches);
    // Capacity sized for normal traffic: the attack pushes demand well above it.
    let warmup = (batches / 4).clamp(1, 80);
    let normal_demand =
        netshed::monitor::reference::measure_total_demand(&specs(), &recording.batches()[..warmup])
            .expect("valid query specs");
    let capacity = normal_demand * 1.1;

    let without =
        flows_errors(Monitor::builder().strategy(Strategy::NoShedding), capacity, &recording)?;
    let with = flows_errors(
        Monitor::builder().strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt)),
        capacity,
        &recording,
    )?;
    // The oracle is not deployable (it measures each bin's true cost on a
    // shadow execution) but bounds what any predictor could achieve.
    let oracle = flows_errors(
        Monitor::builder().with_policy(|| OraclePolicy::new(MmfsPkt)),
        capacity,
        &recording,
    )?;

    let attack_from = batches / 30;
    let attack_to = 2 * batches / 30;
    println!(
        "flows query error per 1 s interval (DDoS active from t={attack_from} s to t={attack_to} s)\n"
    );
    println!("{:>4}  {:>12}  {:>12}  {:>12}", "t(s)", "no shedding", "predictive", "oracle");
    for (i, ((a, b), c)) in without.iter().zip(&with).zip(&oracle).enumerate() {
        println!("{:>4}  {:>11.1}%  {:>11.1}%  {:>11.1}%", i + 1, a * 100.0, b * 100.0, c * 100.0);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 * 100.0;
    println!(
        "\nmean error: no shedding {:.1}%  |  predictive {:.1}%  |  oracle {:.1}%",
        mean(&without),
        mean(&with),
        mean(&oracle)
    );
    Ok(())
}
