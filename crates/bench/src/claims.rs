//! What the paper says the experiment tables should show, as predicates.
//!
//! A [`Claim`] names an experiment, the figure it restates, one sentence, a
//! check over that experiment's tables and what the check is expected to
//! find. Evaluation is strict both ways: a claim expected to hold that fails
//! is an error, and so is a recorded deviation that starts holding — flip the
//! expectation in the change that fixes it. Margins are no tighter than half
//! the gap observed over seeds 1–3 at the default size, and loose enough for
//! the tier-1 size (`--batches 300 --scale 0.25`).

use crate::report::{Cell, Table};

/// What a claim's check is expected to find on this tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The paper's statement holds.
    Holds,
    /// It does not, for the recorded reason (why, since when).
    Deviates(&'static str),
}

/// The compared values, as `Ok` when the statement holds and `Err` when not
/// (or when a table it reads is missing).
type Checked = Result<String, String>;

/// One statement of the paper about one experiment's tables.
#[derive(Debug)]
pub struct Claim {
    /// The experiment whose tables the check reads.
    pub id: &'static str,
    /// The figure or table of the paper.
    pub reference: &'static str,
    /// The statement, in one sentence.
    pub statement: &'static str,
    /// What the check should find.
    pub expectation: Expectation,
    /// The predicate.
    pub check: fn(&[Table]) -> Checked,
}

/// What a claim's check found.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `holds`, `deviates, as recorded`, or — contradicting the expectation —
    /// `FAILS` / `HOLDS NOW`.
    pub label: &'static str,
    /// Whether the verdict is the expected one.
    pub as_expected: bool,
    /// The values the check compared.
    pub compared: String,
}

impl Claim {
    /// Runs the check over the experiment's tables, strictly.
    pub fn judge(&self, tables: &[Table]) -> Verdict {
        let (holds, compared) = match (self.check)(tables) {
            Ok(compared) => (true, compared),
            Err(compared) => (false, compared),
        };
        let label = match (holds, self.expectation) {
            (true, Expectation::Holds) => "holds",
            (false, Expectation::Deviates(_)) => "deviates, as recorded",
            (false, Expectation::Holds) => "FAILS",
            (true, Expectation::Deviates(_)) => "HOLDS NOW: flip the recorded deviation",
        };
        Verdict { label, as_expected: holds == (self.expectation == Expectation::Holds), compared }
    }
}

/// The verdict table of `claims` over `tables` (its note carries the reason
/// of each recorded deviation), and whether every verdict is the expected one.
pub fn verdicts<'a>(claims: impl Iterator<Item = &'a Claim>, tables: &[Table]) -> (Table, bool) {
    let columns = ["claim", "expected", "verdict", "compared values", "statement"];
    let mut table = Table::titled("the paper's claims", &columns);
    let (mut as_expected, mut deviations) = (true, Vec::new());
    for claim in claims {
        let verdict = claim.judge(tables);
        as_expected &= verdict.as_expected;
        let expected = if claim.expectation == HOLDS { "holds" } else { "deviates" };
        let row = [claim.reference, expected, verdict.label, &verdict.compared, claim.statement];
        table.row(row.map(Cell::from));
        if let Expectation::Deviates(why) = claim.expectation {
            deviations.push(format!("{} is a recorded deviation: {why}", claim.reference));
        }
    }
    table.note = deviations.join("; ");
    (table, as_expected)
}

/// The claims attached to experiment `id`.
pub fn claims_of(id: &str) -> impl Iterator<Item = &'static Claim> + '_ {
    ALL.iter().filter(move |claim| claim.id == id)
}

const HOLDS: Expectation = Expectation::Holds;

/// Every claim, in the paper's order.
pub const ALL: &[Claim] = &[
    Claim {
        id: "fig3_13_15",
        reference: "Fig. 3.13-15",
        expectation: HOLDS,
        statement: "under a DDoS the mean error orders 2 x MLR+FCBF <= SLR and 10 x SLR <= EWMA",
        check: |tables| ordered(table(tables, 0)?, "mean", [("mlr+fcbf", 2.0), ("slr", 10.0), ("ewma", 1.0)]),
    },
    Claim {
        id: "fig4_2",
        reference: "Fig. 4.2",
        expectation: HOLDS,
        statement: "predictive shedding loses no packet uncontrolled; the original system loses >= 40 % of them",
        check: |tables| {
            let packets = table(tables, 0)?;
            let predictive = packets.lookup("predictive", "uncontrolled")?;
            let original = packets.lookup("original", "uncontrolled")?
                / packets.lookup("original", "total packets")?;
            let compared = format!("predictive drops {predictive:.0}, original loses {original:.3}");
            judge(predictive == 0.0 && original >= 0.4, compared)
        },
    },
    Claim {
        id: "fig4_3",
        reference: "Fig. 4.3",
        expectation: HOLDS,
        statement: "the mean error in the answers orders predictive <= reactive <= original",
        check: |tables| {
            let systems = [("predictive", 1.0), ("reactive", 1.0), ("original", 1.0)];
            ordered(table(tables, 0)?, "mean error %", systems)
        },
    },
    Claim {
        id: "fig5_4",
        reference: "Fig. 5.4",
        expectation: HOLDS,
        statement: "mmfs_pkt's minimum accuracy is >= eq_srates' + 0.10 at K <= 0.4 and >= - 0.01 beyond",
        check: |tables| {
            let accuracy = table(tables, 0)?;
            let margins = [("0.0", 0.10), ("0.2", 0.10), ("0.4", 0.10), ("0.6", -0.01), ("0.8", -0.01)];
            all(margins.map(|(k, margin)| {
                let pkt = accuracy.lookup(k, "mmfs_pkt min")?;
                let eq = accuracy.lookup(k, "eq_srates min")?;
                judge(pkt >= eq + margin, format!("K={k}: {pkt:.3} vs {eq:.3}"))
            }))
        },
    },
    Claim {
        id: "tab5_2",
        reference: "Table 5.2 / Section 5.3",
        expectation: HOLDS,
        statement: "every query demanding C/|Q| is a Nash equilibrium of the allocation game",
        check: |tables| {
            let nash = table(tables, 1)?.rows.first().and_then(|row| row.get(1));
            let shown = nash.map_or("missing".to_string(), ToString::to_string);
            judge(nash == Some(&Cell::Bool(true)), format!("equilibrium check: {shown}"))
        },
    },
    Claim {
        id: "fig6_1_3",
        reference: "Fig. 6.1-3",
        expectation: HOLDS,
        statement: "the p2p-detector is at least as accurate under its custom shedding as under packet sampling",
        check: |tables| {
            let methods = [("packet sampling", 1.0), ("custom shedding", 1.0)];
            ordered(table(tables, 0)?, "p2p accuracy", methods)
        },
    },
    Claim {
        id: "fig6_6_7",
        reference: "Fig. 6.6-7",
        expectation: HOLDS,
        statement: "mmfs_pkt with custom shedding is at least as accurate as eq_srates without, on the \
         mean and on the minimum over queries",
        check: |tables| {
            let systems =
                [("eq_srates, no custom shedding", 1.0), ("mmfs_pkt with custom shedding", 1.0)];
            let accuracy = table(tables, 0)?;
            all(["avg accuracy", "min accuracy"].map(|column| ordered(accuracy, column, systems)))
        },
    },
    Claim {
        id: "fig6_10",
        reference: "Fig. 6.10",
        expectation: HOLDS,
        statement: "a selfish query is disabled and every honest query keeps >= 0.85 accuracy with no \
         uncontrolled drop",
        check: |tables| offender_is_contained(tables, "selfish"),
    },
    Claim {
        id: "fig6_11",
        reference: "Fig. 6.11",
        expectation: HOLDS,
        statement: "a buggy query is disabled and every honest query keeps >= 0.85 accuracy with no \
         uncontrolled drop",
        check: |tables| offender_is_contained(tables, "buggy"),
    },
    Claim {
        id: "fleet_quality",
        reference: "ROADMAP aim 2",
        expectation: HOLDS,
        statement: "under load a 1-lane fleet's row is the solo monitor's, cell for cell, a 4-lane \
         fleet's mean accuracy is within 0.0321 of solo's and an 8-lane fleet's at most 0.0321 below it",
        check: |tables| all([0, 1, 2].map(|at| fleet_tracks_solo(table(tables, at)?))),
    },
    Claim {
        id: "fleet_quality",
        reference: "ROADMAP aim 2, unshed",
        expectation: HOLDS,
        statement: "with nothing shed a fleet's row is the solo monitor's, cell for cell, at every lane count",
        check: |tables| {
            let unshed = table(tables, 3)?;
            let solo = engine_row(unshed, "solo")?;
            let differing: Vec<String> = (unshed.rows.iter())
                .filter(|row| &row[1..] != solo)
                .map(|row| row[0].to_string())
                .collect();
            let compared = format!("{} rows, differing from solo: {differing:?}", unshed.rows.len());
            judge(unshed.rows.len() == 5 && differing.is_empty(), compared)
        },
    },
];

fn table(tables: &[Table], at: usize) -> Result<&Table, String> {
    tables.get(at).ok_or_else(|| format!("the experiment returned no table {at}"))
}

fn judge(holds: bool, compared: String) -> Checked {
    if holds {
        Ok(compared)
    } else {
        Err(compared)
    }
}

/// Holds when every check does; compares everything they compared.
fn all<const N: usize>(checks: [Checked; N]) -> Checked {
    let holds = checks.iter().all(Result::is_ok);
    let compared = checks.map(|check| check.unwrap_or_else(|compared| compared));
    judge(holds, compared.join("; "))
}

/// `column`'s values in the named rows ascend, each times its factor staying
/// at or below the next: `factor[i] x value[i] <= value[i + 1]`.
fn ordered<const N: usize>(table: &Table, column: &str, rows: [(&str, f64); N]) -> Checked {
    let mut values = Vec::new();
    for (row, _) in rows {
        values.push(table.lookup(row, column)?);
    }
    let holds =
        (rows.iter().zip(values.windows(2))).all(|((_, factor), pair)| factor * pair[0] <= pair[1]);
    let compared: Vec<String> =
        rows.iter().zip(&values).map(|((row, _), value)| format!("{row} {value:.4}")).collect();
    judge(holds, compared.join(", "))
}

/// Widest |4-lane − solo| mean accuracy `fleet_quality` may show under load.
/// Measured over seeds 1–3: at most 0.0214 (`steady-cesca`, seed 2; 0.0208 on
/// seed 3 there, under 0.010 on the Chapter 4 mix and on `ddos-spike`) — that
/// plus half of it. What is left is trajectory, not merging: the lane
/// instances meter other cycles than one instance does, so the one control
/// loop grants other rates; unshed, the rows are equal (the claim above).
const FLEET_ACCURACY_BAND: f64 = 0.0321;

/// The cells of `engine`'s row of a `fleet_quality` table, after its name.
fn engine_row<'a>(workload: &'a Table, engine: &str) -> Result<&'a [Cell], String> {
    let named = |row: &&Vec<Cell>| row.first().is_some_and(|name| name.to_string() == engine);
    let found = workload.rows.iter().find(named).map(|row| &row[1..]);
    found.ok_or_else(|| format!("{:?} has no {engine} row", workload.title))
}

/// One loaded `fleet_quality` table: the `1 lane` row repeats the `solo` row
/// exactly, the `4 lanes` row's mean accuracy is inside the band around it
/// and the `8 lanes` row's not below the band. The last is held from below
/// only: on `steady-cesca`, seed 2, eight lanes score 0.093 *above* solo
/// (`p2p-detector` 0.69 against 0.22 over the scenario's two intervals) —
/// trajectory again, and not a cost.
fn fleet_tracks_solo(workload: &Table) -> Checked {
    let one_lane_is_solo = engine_row(workload, "1 lane")? == engine_row(workload, "solo")?;
    let solo = workload.lookup("solo", "mean accuracy")?;
    let four = workload.lookup("4 lanes", "mean accuracy")?;
    let eight = workload.lookup("8 lanes", "mean accuracy")?;
    let compared = format!(
        "{}: 1 lane {} solo, 4 lanes {four:.4} and 8 lanes {eight:.4} vs solo {solo:.4}",
        workload.title,
        if one_lane_is_solo { "==" } else { "!=" }
    );
    let tracks = (four - solo).abs() <= FLEET_ACCURACY_BAND && solo - eight <= FLEET_ACCURACY_BAND;
    judge(one_lane_is_solo && tracks, compared)
}

/// Figures 6.10 and 6.11 make the same statement about a different offender.
fn offender_is_contained(tables: &[Table], variant: &str) -> Checked {
    let honest = table(tables, 0)?;
    let enforcement = table(tables, 1)?;
    let disabled = enforcement.lookup(variant, "p2p-detector bins disabled")?;
    let drops = enforcement.lookup(variant, "uncontrolled drops")?;
    let enforced = judge(
        disabled >= 1.0 && drops == 0.0,
        format!("offender disabled {disabled:.0} bins, {drops:.0} drops"),
    );
    let kept = ["application", "counter", "flows"].map(|query| {
        let accuracy = honest.lookup(query, "mean accuracy")?;
        judge(accuracy >= 0.85, format!("{query} {accuracy:.3}"))
    });
    all([enforced, all(kept)])
}
