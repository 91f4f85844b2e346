//! Digest epoch 5 moved the corpus's fingerprints, not its runs.
//!
//! The epoch replaced the one-chain run digest by one that spreads its words
//! over four rotating chains and absorbs each emitted value once (a bin
//! record no longer re-absorbs its decision and interval outputs). Every
//! manifest row is replayed once with both digests attached to the one run:
//! the one-chain digest (`tests/oracle/`) must land on the row epoch 4
//! recorded and the four-lane one on the row `corpus/GOLDEN.digests` holds
//! now — so each epoch-5 row fingerprints exactly the run its epoch-4 row
//! did. (`tests/engine.rs` does the same for its digest pins.)

mod oracle;

use netshed::prelude::*;
use netshed_bench::corpus::{
    all_strategies, corpus_capacity, corpus_config, corpus_engine, parse_manifest, MANIFEST_NAME,
};
use netshed_trace::scenario::builtins;
use oracle::{epoch4_manifest, WordSerialDigestObserver};

#[test]
fn every_manifest_row_moved_only_its_fingerprint_at_digest_epoch_5() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus").join(MANIFEST_NAME);
    let manifest = std::fs::read_to_string(path).expect("committed manifest");
    let epoch5 = parse_manifest(&manifest).expect("a manifest of this epoch");
    let epoch4 = epoch4_manifest();
    assert_eq!(epoch4.len(), 63);
    assert_eq!(epoch5.len(), epoch4.len());

    let mut rows = epoch5.iter().zip(&epoch4);
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        for (strategy_name, strategy) in all_strategies() {
            let (now, then) = rows.next().expect("a row per scenario and strategy");
            let row = format!("{} / {strategy_name}", scenario.name());
            assert_eq!(
                (now.scenario.as_str(), now.strategy.as_str()),
                (scenario.name(), &*strategy_name)
            );
            assert_eq!((then.0.as_str(), then.1.as_str()), (scenario.name(), &*strategy_name));

            let mut observers = (DigestObserver::new(), WordSerialDigestObserver::default());
            corpus_engine::<Monitor>(corpus_config(strategy, capacity, 1))
                .expect("valid corpus configuration")
                .run(&mut BatchReplay::new(batches.clone()), &mut observers)
                .expect("corpus run");
            assert_eq!(observers.1.digest(), then.2, "{row}: the one-chain digest left epoch 4");
            assert_eq!(
                observers.0.digest(),
                now.digest,
                "{row}: the four-lane digest left epoch 5"
            );
        }
    }
    assert!(rows.next().is_none(), "a manifest row no scenario replayed");
}
