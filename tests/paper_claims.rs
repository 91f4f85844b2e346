//! The paper's qualitative claims, executed.
//!
//! Every claim in `netshed_bench::claims::ALL` is judged over its
//! experiment's tables at one seed and the tier-1 size (`--batches 300
//! --scale 0.25`), and its verdict must be the recorded expectation — a claim
//! that stops holding fails here, and so does a recorded deviation that
//! starts holding: flip it in the change that fixes it (Fig. 6.1–3 was the
//! last, flipped when the p2p-detector's custom method learned to follow
//! its rate).
//! `BENCH_accuracy.json` carries the same verdicts on seeds 1–3 at the default
//! size.

use netshed_bench::claims::{self, Claim, Expectation};
use netshed_bench::experiments::{find, Options};
use netshed_bench::report::Table;

const TIER1: Options = Options { batches: 300, scale: 0.25, seed: 42 };

#[test]
fn every_claim_gets_its_expected_verdict() {
    assert!(claims::ALL.len() >= 9, "the nine claims of ROADMAP item 1 are all registered");
    let deviations = claims::ALL.iter().filter(|claim| claim.expectation != Expectation::Holds);
    assert_eq!(deviations.count(), 0, "no recorded deviation since Fig. 6.1-3 flipped");
    for claim in claims::ALL {
        let experiment = find(claim.id).expect("every claim names a registered experiment");
        let verdict = claim.judge(&experiment.run(&TIER1));
        assert!(
            verdict.as_expected,
            "{} ({}): {} — {} — compared: {}",
            claim.reference, claim.id, claim.statement, verdict.label, verdict.compared
        );
    }
}

fn claim(expectation: Expectation, check: fn(&[Table]) -> Result<String, String>) -> Claim {
    Claim { id: "fig2_2", reference: "Fig. 0", statement: "a test statement", expectation, check }
}

fn one_cell_table(value: f64) -> Vec<Table> {
    let mut table = Table::new(&["row", "x"]);
    table.push("only", 1, [value]);
    vec![table]
}

fn x_is_positive(tables: &[Table]) -> Result<String, String> {
    let x = tables.first().ok_or("no table")?.lookup("only", "x")?;
    if x > 0.0 {
        Ok(format!("x = {x}"))
    } else {
        Err(format!("x = {x}"))
    }
}

#[test]
fn evaluation_is_strict_in_both_directions() {
    let (positive, negative) = (one_cell_table(1.0), one_cell_table(-1.0));

    let holds = claim(Expectation::Holds, x_is_positive);
    assert!(holds.judge(&positive).as_expected);
    // A deliberately wrong predicate (or a regression) fails, with the values.
    let failed = holds.judge(&negative);
    assert!(!failed.as_expected);
    assert_eq!((failed.label, failed.compared.as_str()), ("FAILS", "x = -1"));

    let deviates = claim(Expectation::Deviates("known bug, since PR 0"), x_is_positive);
    assert!(deviates.judge(&negative).as_expected);
    // A stale deviation — the statement holds again — fails too.
    let stale = deviates.judge(&positive);
    assert!(!stale.as_expected);
    assert!(stale.label.starts_with("HOLDS NOW"), "{}", stale.label);

    // A check that cannot find its table does not hold, whatever is expected.
    let missing = holds.judge(&[]);
    assert!(!missing.as_expected, "{missing:?}");
    let (table, as_expected) = claims::verdicts([&holds, &deviates].into_iter(), &positive);
    assert!(!as_expected);
    assert_eq!(table.rows.len(), 2);
    assert!(table.note.contains("known bug, since PR 0"), "{}", table.note);
}
