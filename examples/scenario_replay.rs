//! Scenario record & replay: declare a workload, record it to the binary
//! trace format, replay the recording, and prove the replay is
//! bit-identical to the live run.
//!
//! ```sh
//! cargo run --release --example scenario_replay
//! ```

use netshed::prelude::*;
use netshed_trace::scenario::builtin;
use netshed_trace::{encode_batches, Bytes};

fn main() -> Result<(), NetshedError> {
    // 1. A declarative workload: the built-in DDoS scenario (calm traffic,
    //    a flood window, recovery). Any hand-built `Scenario` works the
    //    same way.
    let scenario = builtin("ddos-spike").expect("built-in scenario");
    println!("scenario {:?}: {} bins over {} link(s)", scenario.name(), scenario.total_bins(), {
        scenario.links().len()
    });
    for phase in scenario.links().iter().flat_map(netshed::Link::phases) {
        println!("  phase {:<10} {:>3} bins", phase.name(), phase.duration_bins());
    }

    // 2. Record it: scenario → batches → `.nstr` bytes (a file on disk in
    //    real deployments; in-memory here).
    let batches = scenario.generate()?;
    let recording = Bytes::from(encode_batches(&batches, scenario.bin_duration_us())?);
    println!(
        "\nrecorded {} packets into {} bytes (checksummed, versioned)",
        batches.iter().map(Batch::len).sum::<usize>(),
        recording.len()
    );

    // 3. Run the monitor twice — once on the live scenario source, once on
    //    the decoded recording — and fingerprint both runs.
    let specs = vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::TopK),
    ];
    let demand = netshed::monitor::reference::measure_total_demand(&specs, &batches[..10])
        .expect("valid query specs");
    let capacity = demand / 2.0;
    let mut fingerprints = Vec::new();
    for (label, replayed) in [("live", false), ("replayed", true)] {
        let mut monitor =
            Monitor::builder().capacity(capacity).seed(7).queries(specs.clone()).build()?;
        let mut digest = DigestObserver::new();
        let summary = if replayed {
            let mut source = SharedTraceReader::new(recording.clone())?.into_replay()?;
            monitor.run(&mut source, &mut digest)?
        } else {
            let mut source = scenario.compile()?;
            monitor.run(&mut source, &mut digest)?
        };
        println!(
            "{label:<9} bins {:>3}  packets {:>6}  mean cycles/bin {:>9.0}",
            summary.bins,
            summary.total_packets,
            summary.mean_cycles_per_bin()
        );
        fingerprints.push(digest.digest());
    }

    // 4. The replay contract: both fingerprints are identical.
    println!("\nlive     {}", fingerprints[0]);
    println!("replayed {}", fingerprints[1]);
    assert_eq!(fingerprints[0], fingerprints[1], "replay must be bit-identical");
    println!("replay is bit-identical to the live run");
    Ok(())
}
