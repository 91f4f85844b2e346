//! The prediction plane against its oracles.
//!
//! `fcbf_select_with` correlates all 42 features at once while walking the
//! history's rows; `OlsWorkspace` solves in caller-owned memory. Both promise
//! the *bits* of the column-at-a-time code they replaced, and every golden
//! digest leans on that promise. The replaced selection lives in
//! `tests/oracle/` (one gathered column and one Pearson pass at a time); this
//! file restates the predictor around it — a from-scratch solve over
//! `Matrix::from_columns` per prediction — and checks the promise on
//! synthetic histories built to hit the edge cases, on real extracted
//! features end to end, on known-answer vectors captured before the rewrite,
//! and checks that a crafted snapshot cannot smuggle a value into the history
//! that `push` would have clamped, nor a selection age no run writes, and
//! pins the MLR predictors' checkpoint bytes. Last, predictors reading an
//! engine's shared `FeatureWindow` are held, by bits, to stand-alone twins
//! that never saw one, and the window to one factorisation per distinct
//! selection.

mod oracle;

use netshed::features::{FeatureExtractor, FeatureId, FeatureVector, FEATURE_COUNT};
use netshed::linalg::stats::mean;
use netshed::linalg::{Matrix, OlsWorkspace, SvdWorkspace};
use netshed::monitor::packet_sample_with;
use netshed::predict::{
    clamp_sample, fcbf_select_with, FcbfConfig, FcbfScratch, FeatureWindow, History, MlrConfig,
    MlrPredictor, Predictor, RobustMlrPredictor, SlrPredictor, MAX_SAMPLE, OLS_RCOND,
};
use netshed::queries::{build_query, CycleMeter, QueryKind};
use netshed::sketch::{StateError, StateReader, StateWriter};
use netshed::trace::{KeepListPool, TraceConfig, TraceGenerator};
use oracle::{fcbf as oracle_fcbf, pearson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A least-squares fit on a workspace nothing else has used.
fn fresh_fit(x: &Matrix, y: &[f64], rcond: f64) -> (OlsWorkspace, usize) {
    let mut workspace = OlsWorkspace::default();
    let rank = workspace.solve(x, y, rcond);
    (workspace, rank)
}

/// `MlrPredictor::predict` restated over the oracle FCBF and a from-scratch
/// solve. It reads the history of the predictor under test, so it
/// follows whatever that predictor (or its robust wrapper) stored.
struct OracleMlr {
    config: MlrConfig,
    selected: Vec<usize>,
    last_cost: u64,
}

impl OracleMlr {
    fn new(config: MlrConfig) -> Self {
        Self { config, selected: Vec::new(), last_cost: 0 }
    }

    fn predict(&mut self, history: &History, features: &FeatureVector) -> f64 {
        let n = history.len();
        if n < 3 {
            return mean(&history.responses());
        }
        self.selected = oracle_fcbf(history, &self.config.fcbf, FEATURE_COUNT).0;
        if self.selected.is_empty() {
            self.selected = vec![FeatureId::Packets.index()];
        }

        let mut columns = vec![vec![1.0; n]];
        columns.extend(self.selected.iter().map(|&feature| history.feature_column(feature)));
        let (fit, _) = fresh_fit(&Matrix::from_columns(&columns), &history.responses(), OLS_RCOND);

        let k = self.selected.len() as u64 + 1;
        self.last_cost = n as u64 * FEATURE_COUNT as u64 + n as u64 * k * k;

        let mut row = vec![1.0];
        row.extend(self.selected.iter().map(|&i| clamp_sample(features.get_index(i))));
        fit.predict(&row).max(0.0)
    }
}

// ---------------------------------------------------------------------------
// (a) FCBF ≡ oracle on histories built to hit the edges.
// ---------------------------------------------------------------------------

/// What one column of a synthetic history holds.
#[derive(Clone, Copy)]
enum Column {
    /// Independent uniform noise at some scale.
    Noise(f64),
    /// Whole-number counts, as the extractor produces.
    Counts,
    Constant(f64),
    /// Bit-for-bit copy of an earlier column.
    CopyOf(usize),
    /// An earlier column times a constant.
    ScaledCopyOf(usize, f64),
    /// An earlier column perturbed in its last few bits.
    NearlyCollinearWith(usize),
}

fn draw_column(rng: &mut StdRng, index: usize) -> Column {
    let earlier = |rng: &mut StdRng| rng.gen_range(0..index.max(1));
    match rng.gen_range(0..12) {
        0 => Column::Constant(7.0),
        1 => Column::Constant(0.0),
        2 => Column::Constant(-0.0),
        3 if index > 0 => Column::CopyOf(earlier(rng)),
        4 if index > 0 => Column::ScaledCopyOf(earlier(rng), 512.5),
        5 if index > 0 => Column::NearlyCollinearWith(earlier(rng)),
        6 => Column::Noise(1e15),
        7 | 8 => Column::Counts,
        _ => Column::Noise(1000.0),
    }
}

/// A history of `len` observations in a window of capacity 60. More than 60
/// are pushed so the ring buffer wraps, and the window is cut down to `len`
/// by `forget_oldest`, as the robust predictor does.
fn edge_case_history(seed: u64, len: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let layout: Vec<Column> =
        (0..FEATURE_COUNT).map(|index| draw_column(&mut rng, index)).collect();
    let drivers = [rng.gen_range(0..FEATURE_COUNT), rng.gen_range(0..FEATURE_COUNT)];
    let mut history = History::new(60);
    for _ in 0..60 + 23 {
        let mut values = [0.0; FEATURE_COUNT];
        for index in 0..FEATURE_COUNT {
            values[index] = match layout[index] {
                Column::Noise(scale) => rng.gen_range(0.0..scale),
                Column::Counts => rng.gen_range(0.0f64..5000.0).round(),
                Column::Constant(value) => value,
                Column::CopyOf(source) => values[source],
                Column::ScaledCopyOf(source, factor) => values[source] * factor,
                Column::NearlyCollinearWith(source) => {
                    values[source] * (1.0 + rng.gen_range(0.0..4.0) * f64::EPSILON)
                }
            };
        }
        let response = 3.0 * values[drivers[0]]
            + 0.5 * values[drivers[1]]
            + rng.gen_range(0.0..1.0) * (1.0 + values[drivers[0]]);
        history.push(FeatureVector::from_values(values), response);
    }
    history.forget_oldest(len);
    assert_eq!(history.len(), len);
    history
}

#[test]
fn fcbf_selects_what_the_column_at_a_time_oracle_selects() {
    let mut scratch = FcbfScratch::default();
    let mut selections = 0usize;
    for len in [2, 3, 17, 59, 60] {
        for seed in 0..6 {
            let history = edge_case_history(1000 * len as u64 + seed, len);
            for feature_count in [1, 10, FEATURE_COUNT] {
                for threshold in [0.0, 0.3, 0.6, 0.95] {
                    for max_features in [1, 3, 8, 42] {
                        let config = FcbfConfig { threshold, max_features };
                        let (expected, expected_relevance) =
                            oracle_fcbf(&history, &config, feature_count);
                        let context = format!(
                            "len {len} seed {seed} features {feature_count} \
                             threshold {threshold} max {max_features}"
                        );
                        let selected =
                            fcbf_select_with(&history, &config, feature_count, &mut scratch);
                        assert_eq!(selected, &expected[..], "{context}");
                        selections += selected.len();
                        let relevance = scratch.relevance();
                        assert_eq!(relevance.len(), expected_relevance.len(), "{context}");
                        for (index, (got, want)) in
                            relevance.iter().zip(&expected_relevance).enumerate()
                        {
                            assert_eq!(got.to_bits(), want.to_bits(), "{context} feature {index}");
                        }
                    }
                }
            }
        }
    }
    assert!(selections > 1000, "the sweep must exercise real selections, got {selections}");
}

/// Re-homed from `netshed-predict` with the column-at-a-time Pearson pass it
/// compared against.
#[test]
fn relevance_is_bit_identical_to_a_column_at_a_time_pearson() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut history = History::new(60);
    for _ in 0..60 {
        let mut f = FeatureVector::zeros();
        f.set(FeatureId::Packets, rng.gen_range(100.0..2000.0));
        f.set(FeatureId::Bytes, rng.gen_range(10_000.0..1_000_000.0));
        f.set(FeatureId::from_index(2), rng.gen_range(0.0..500.0));
        f.set(FeatureId::from_index(6), rng.gen_range(0.0..300.0));
        history.push(f, 4.0 * f.packets() + 0.01 * f.bytes());
    }
    let mut scratch = FcbfScratch::default();
    fcbf_select_with(&history, &FcbfConfig::default(), 42, &mut scratch);
    let responses = history.responses();
    for (index, got) in scratch.relevance().iter().enumerate() {
        let expected = pearson(&history.feature_column(index), &responses).abs();
        assert_eq!(got.to_bits(), expected.to_bits(), "feature {index}");
    }
}

/// Re-homed from `netshed-linalg` with `stats::pearson`: the oracle's own
/// known answers.
#[test]
fn pearson_detects_perfect_and_no_correlation() {
    let x = [1.0, 2.0, 3.0, 4.0];
    let y_pos = [2.0, 4.0, 6.0, 8.0];
    let y_neg = [8.0, 6.0, 4.0, 2.0];
    let y_const = [5.0, 5.0, 5.0, 5.0];
    assert!((pearson(&x, &y_pos) - 1.0).abs() < 1e-12);
    assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
    assert_eq!(pearson(&x, &y_const), 0.0);
}

#[test]
fn fcbf_on_a_window_too_short_to_correlate_selects_nothing() {
    let mut scratch = FcbfScratch::default();
    // Dirty the scratch first: a short window must not return stale state.
    let warm = edge_case_history(5, 60);
    fcbf_select_with(&warm, &FcbfConfig { threshold: 0.0, max_features: 8 }, 42, &mut scratch);
    for len in [0, 1] {
        let history = edge_case_history(9, len);
        let selected = fcbf_select_with(&history, &FcbfConfig::default(), 42, &mut scratch);
        assert!(selected.is_empty());
        assert!(scratch.relevance().is_empty());
    }
}

// ---------------------------------------------------------------------------
// (b) End to end on real features, across a mid-run checkpoint.
// ---------------------------------------------------------------------------

/// Features and measured cycles per bin: generated traffic through the real
/// extractor, full views alternating with 0.37 packet-sampled ones, costed by
/// the flows query. `surge` multiplies the cycles from bin 70 on — enough to
/// trip the robust predictor's outlier defence and shorten its window.
fn real_feature_stream(seed: u64, bins: usize, surge: f64) -> Vec<(FeatureVector, f64)> {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(600.0),
    );
    let mut extractor = FeatureExtractor::with_defaults();
    let mut query = build_query(QueryKind::Flows);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
    let mut pool = KeepListPool::new();
    (0..bins)
        .map(|bin| {
            let batch = generator.next_batch();
            let full = batch.view();
            let view = if bin % 2 == 0 {
                full
            } else {
                packet_sample_with(&full, 0.37, &mut rng, &mut pool).0
            };
            let (features, _) = extractor.extract_view(&view);
            let mut meter = CycleMeter::new();
            query.process_batch(&view, 1.0, &mut meter);
            let cycles = meter.cycles() as f64 * if bin >= 70 { surge } else { 1.0 };
            (features, cycles)
        })
        .collect()
}

/// Drives `predictor` over the stream next to the oracle, swapping in a
/// restored copy (built by `fresh`) half way.
fn assert_matches_the_oracle<P: Predictor>(
    mut predictor: P,
    fresh: impl Fn() -> P,
    history_of: impl Fn(&P) -> &History,
    config: MlrConfig,
    stream: &[(FeatureVector, f64)],
) {
    let mut oracle = OracleMlr::new(config);
    for (bin, (features, cycles)) in stream.iter().enumerate() {
        if bin == stream.len() / 2 {
            let mut writer = StateWriter::new();
            predictor.save_state(&mut writer).expect("predictor checkpoints");
            let bytes = writer.into_bytes();
            let mut restored = fresh();
            let mut reader = StateReader::new(&bytes);
            restored.load_state(&mut reader).expect("own snapshot restores");
            reader.finish().expect("snapshot fully consumed");
            let mut again = StateWriter::new();
            restored.save_state(&mut again).expect("restored predictor checkpoints");
            assert_eq!(again.into_bytes(), bytes, "a valid snapshot round-trips byte for byte");
            predictor = restored;
        }
        let expected = oracle.predict(history_of(&predictor), features);
        let got = predictor.predict(features);
        assert_eq!(got.to_bits(), expected.to_bits(), "bin {bin}: {got} vs {expected}");
        if history_of(&predictor).len() >= 3 {
            assert_eq!(predictor.selected_features(), oracle.selected, "bin {bin}");
            assert_eq!(predictor.last_cost_operations(), oracle.last_cost, "bin {bin}");
        }
        predictor.observe(features, *cycles);
    }
}

#[test]
fn mlr_predictions_match_the_oracle_bit_for_bit() {
    let stream = real_feature_stream(11, 140, 1.0);
    for config in [
        MlrConfig::default(),
        MlrConfig { fcbf: FcbfConfig { threshold: 0.2, max_features: 8 }, history: 25 },
    ] {
        assert_matches_the_oracle(
            MlrPredictor::new(config),
            || MlrPredictor::new(config),
            MlrPredictor::history,
            config,
            &stream,
        );
    }
}

#[test]
fn robust_mlr_predictions_match_the_oracle_bit_for_bit() {
    // The surge trips the outlier defence, so the oracle also follows the
    // window through `forget_oldest` (short, wide design matrices included).
    let stream = real_feature_stream(12, 140, 9.0);
    let mut tripped = RobustMlrPredictor::with_defaults();
    for (features, cycles) in &stream {
        tripped.predict(features);
        tripped.observe(features, *cycles);
    }
    assert!(tripped.tripped_observations() > 0, "the surge must trip the defence");

    assert_matches_the_oracle(
        RobustMlrPredictor::with_defaults(),
        RobustMlrPredictor::with_defaults,
        RobustMlrPredictor::history,
        MlrConfig::default(),
        &stream,
    );
}

#[test]
fn slr_predictions_match_a_from_scratch_solve() {
    let stream = real_feature_stream(13, 90, 1.0);
    let mut slr = SlrPredictor::on_packets();
    let mut history = History::new(60);
    for (bin, (features, cycles)) in stream.iter().enumerate() {
        let expected = if history.len() < 3 {
            mean(&history.responses())
        } else {
            let design = Matrix::from_columns(&[
                vec![1.0; history.len()],
                history.feature_column(FeatureId::Packets.index()),
            ]);
            let (fit, _) = fresh_fit(&design, &history.responses(), 1e-9);
            fit.predict(&[1.0, clamp_sample(features.packets())]).max(0.0)
        };
        let got = slr.predict(features);
        assert_eq!(got.to_bits(), expected.to_bits(), "bin {bin}: {got} vs {expected}");
        slr.observe(features, *cycles);
        history.push(*features, *cycles);
    }
}

// ---------------------------------------------------------------------------
// (c) Known answers for the SVD and the least-squares solve, captured before
// the kernels moved into caller-owned workspaces.
// ---------------------------------------------------------------------------

struct KnownAnswer {
    name: &'static str,
    singular_values: &'static [u64],
    /// Right singular vectors, column-major.
    v: &'static [u64],
    coefficients: &'static [u64],
    rank: usize,
}

#[rustfmt::skip]
const KNOWN_ANSWERS: [KnownAnswer; 5] = [
    KnownAnswer {
        name: "small_4x3",
        singular_values: &[
            0x4015b804b452c2f1, 0x4012ff9fc5e6f025, 0x3fef57808464c693,
        ],
        v: &[
            0x3fe2d501e32baef1, 0x3fda50e9aa975342, 0x3fe646a7382fb92a, 0x3fd87d1aba79af43,
            0x3fe3bd1313a948b8, 0xbfe602b41d8d68d2, 0x3fe6ca7ec64c9c99, 0xbfe57a129d225cd6,
            0xbfca5368647f6e0c,
        ],
        coefficients: &[
            0xc0032282019ae1e8, 0x4007f99476c56b54, 0x3ff4100cd71273fc,
        ],
        rank: 3,
    },
    KnownAnswer {
        name: "rank_deficient_4x3",
        singular_values: &[
            0x40131b5182137c24, 0x3ff167b2f764324b, 0x3c730004a19cac3d,
        ],
        v: &[
            0x3fdf693eae1ef147, 0x3fd475f80c761628, 0x3fe9ef9b5d4a83b7, 0xbfe4e17341505091,
            0x3fe80aafaf04b38a, 0x3fb949e36da317be, 0x3fe279a74590331c, 0x3fe279a74590331d,
            0xbfe279a74590331d,
        ],
        coefficients: &[
            0x3fcc71c71c71c72a, 0x3fec71c71c71c71a, 0x3ff1c71c71c71c72,
        ],
        rank: 2,
    },
    KnownAnswer {
        name: "wide_2x4",
        singular_values: &[
            0x402c746ebe904282, 0x3ff41e05e3b3d040,
        ],
        v: &[
            0x3fd6882dc3da8abd, 0x3fdc645d64f899ee, 0x3fe12046830b548f, 0x3fe40e5e539a5c28,
            0xbfe84993155e1fc0, 0xbfd48f38ec9c93d0, 0x3fbdd2d1460c5f85, 0x3fe1bc50c7d161cb,
        ],
        coefficients: &[
            0x3fd333333333333e, 0x3feb333333333333, 0x3ff6666666666662, 0x3fff33333333332d,
        ],
        rank: 2,
    },
    KnownAnswer {
        name: "badly_scaled_60x9",
        singular_values: &[
            0x42331bd10c79e456, 0x41b1f09ab83c58d0, 0x41449ca09a4b04e8, 0x40d877913d740880,
            0x406c8a3eaa593ba2, 0x3ff04ce17a837741, 0x3f93d4220eb556ec, 0x3f2b74065b50a5c6,
            0x3e90585bb9171568,
        ],
        v: &[
            0x3dd8feab66974d5e, 0x3d03599869e45c9a, 0x3d707aef8221dd59, 0x3ddb7c9860aab5ba,
            0x3e430c2c7b5150bf, 0x3eaf4f69d38f5acc, 0x3f17730ad95bcf05, 0x3f823b5172e3de10,
            0x3feffface4217179, 0x3e33379b7a57a4a9, 0x3d62573e4af1fefa, 0x3dc60652472b689a,
            0xbd6f51c4c44fa605, 0x3ea4fd5c29bf287e, 0x3f10bdcd0be9fb93, 0x3f695f50a7572eb9,
            0x3fefffa2d4ef95fe, 0xbf823b70e9825d7f, 0x3e95eb449d5d2f4a, 0x3dbefdbdcddd85fa,
            0x3e09b8274071f8ff, 0xbcf4476c1668ea1e, 0x3efb1b27ab0dcfec, 0x3f73854304e7f4d0,
            0x3fefffde1d4d9006, 0xbf69614ad49bce8a, 0xbf10388583060d82, 0x3efc7aaf99f45ffd,
            0x3e275784ab203e8c, 0x3e815a5fac4cb3fc, 0x3d55e31452be755f, 0x3f579b6750a0af88,
            0x3fefffe60075405a, 0xbf73857aabfb6d44, 0xbf09bec7790a1a27, 0xbe72b254da03a516,
            0x3f609a262375f7ac, 0x3e80d792508f7309, 0x3ed068277a46bf08, 0xbde247200994c000,
            0x3feffff983f4c673, 0xbf579c11fed45a0c, 0xbef3e84b6d909f36, 0xbe9fdc386a68e2dd,
            0xbe1b7fc8185450a7, 0x3fefff4c2953ee8d, 0x3f1765433fb2d848, 0x3f8a7f177df4a980,
            0xbe37a1b0faf8fc0d, 0xbf6099fa216b28fd, 0xbef96af857a62c1e, 0xbe854cc06601fadf,
            0xbe140eb56b89efb8, 0xbdbc50cdabf4c00c, 0xbf8a7f097e657353, 0xbf4d8a0f4b9b1370,
            0x3fefff4fa09525f7, 0xbeb37a34353c2c8f, 0x3ef7647b734adfa3, 0x3e897f85323e7a81,
            0x3e21235d192ce87b, 0xbdafc1557821f922, 0xbd4a11a92aad3f08, 0xbf1a7372fc9834ee,
            0x3fefffff197b9c34, 0x3f4d7fbe2155d6fe, 0x3f2998728dd79e72, 0x3e744370116e65f3,
            0xbdebc3006fdd3e40, 0x3d8b551fe41c8f73, 0xbd4515bbe7e7027a, 0xbd15a230aaf44f31,
            0x3e45dfeb84545357, 0xbf29987ad9f581b7, 0x3eb0870c8803e049, 0x3feffffff5c363b3,
            0x3de2475f19751bfe, 0xbd5a768a51763bcf, 0xbce1090420b7028b, 0xbca29c138f19a1a6,
            0xbddb7cdfba3bf70b,
        ],
        coefficients: &[
            0x3ff3ccd85a31300c, 0x3f1416aae82395dc, 0x3f6392899db0e3cf, 0xbe75cb4714b80eab,
            0x408314348dc79ca1, 0x401d2dc5484f2c1d, 0x3fd30a7b75087680, 0x3f36e3e768404478,
            0x3ee4706fa015479d,
        ],
        rank: 5,
    },
    KnownAnswer {
        name: "typical_60x3",
        singular_values: &[
            0x415c3d4e3fd56699, 0x40b931a5d7673f6f, 0x4000bdadb118072a,
        ],
        v: &[
            0x3eaf93f575b446c1, 0x3f57715b59c49407, 0x3feffffdda6f4216, 0x3f3b0c0f489fb9a6,
            0x3feffffdacb68462, 0xbf57715ba308d066, 0x3fefffffd24733a0, 0xbf3b0c1340abd1e7,
            0xbe9786f0c3dc7b7a,
        ],
        coefficients: &[
            0x41124f8000000008, 0x409c2000000002a4, 0x3fd9999999998efe,
        ],
        rank: 3,
    },
];

/// A 64-bit LCG mapped to [0, 1): the known-answer inputs must not depend on
/// any RNG crate's stream.
fn lcg_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// The five fixed inputs of the SVD / least-squares known-answer test:
/// (name, design matrix, response, rcond).
fn known_answer_inputs() -> Vec<(&'static str, Matrix, Vec<f64>, f64)> {
    let small = Matrix::from_rows(&[
        vec![3.0, 2.0, 2.0],
        vec![2.0, 3.0, -2.0],
        vec![1.0, 0.0, 4.0],
        vec![0.0, 1.0, 1.0],
    ]);
    // Third column is the sum of the first two: rank 2.
    let rank_deficient = Matrix::from_rows(&[
        vec![1.0, 0.0, 1.0],
        vec![0.0, 1.0, 1.0],
        vec![1.0, 1.0, 2.0],
        vec![2.0, 1.0, 3.0],
    ]);
    let wide = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]);

    // 60 x 9, column scales from 1e-4 to 1e10, last column nearly collinear
    // with the fourth: the shape of an MLR design matrix at its worst.
    let mut state = 0x5eed_u64;
    let mut columns: Vec<Vec<f64>> = vec![vec![1.0; 60]];
    for scale in [1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8, 1e10] {
        columns.push((0..60).map(|_| scale * (0.5 + lcg_unit(&mut state))).collect());
    }
    columns[8] =
        columns[3].iter().map(|x| 1e10 * x * (1.0 + 1e-7 * lcg_unit(&mut state))).collect();
    let badly_scaled_y: Vec<f64> = (0..60)
        .map(|i| 3e5 + 2e4 * columns[3][i] + 0.25 * columns[6][i] + 1e3 * lcg_unit(&mut state))
        .collect();
    let badly_scaled = Matrix::from_columns(&columns);

    // 60 x 3: intercept, packets, bytes — the common case.
    let mut state = 0xfeed_u64;
    let packets: Vec<f64> =
        (0..60).map(|_| (500.0 + 2000.0 * lcg_unit(&mut state)).round()).collect();
    let bytes: Vec<f64> = (0..60).map(|_| (1e5 + 1.4e6 * lcg_unit(&mut state)).round()).collect();
    let typical_y: Vec<f64> = (0..60).map(|i| 1800.0 * packets[i] + 0.4 * bytes[i] + 3e5).collect();
    let typical = Matrix::from_columns(&[vec![1.0; 60], packets, bytes]);

    vec![
        ("small_4x3", small, vec![1.0, 2.0, 3.0, 4.0], 1e-9),
        ("rank_deficient_4x3", rank_deficient, vec![1.0, 2.0, 3.0, 5.0], 1e-9),
        ("wide_2x4", wide, vec![14.0, 32.0], 1e-12),
        ("badly_scaled_60x9", badly_scaled, badly_scaled_y, 1e-9),
        ("typical_60x3", typical, typical_y, 1e-9),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|value| value.to_bits()).collect()
}

#[test]
fn svd_and_ols_reproduce_the_known_answers() {
    let inputs = known_answer_inputs();
    assert_eq!(inputs.len(), KNOWN_ANSWERS.len());
    for ((name, x, y, rcond), answer) in inputs.iter().zip(&KNOWN_ANSWERS) {
        assert_eq!(*name, answer.name);
        let mut workspace = SvdWorkspace::default();
        let decomposition = workspace.decompose(x);
        assert_eq!(bits(&decomposition.singular_values), answer.singular_values, "{name}: s");
        let v: Vec<f64> =
            (0..decomposition.v.cols()).flat_map(|j| decomposition.v.column(j).to_vec()).collect();
        assert_eq!(bits(&v), answer.v, "{name}: v");
        let (fit, rank) = fresh_fit(x, y, *rcond);
        assert_eq!(bits(fit.coefficients()), answer.coefficients, "{name}: coefficients");
        assert_eq!(rank, answer.rank, "{name}: rank");
    }
}

// ---------------------------------------------------------------------------
// (d) A crafted snapshot cannot put into the history what `push` would clamp.
// ---------------------------------------------------------------------------

/// A constructor a snapshot restores into.
type MakePredictor = fn() -> Box<dyn Predictor>;

#[test]
fn crafted_snapshots_are_rejected_by_every_history_backed_predictor() {
    let stream = real_feature_stream(14, 12, 1.0);
    let predictors: [(&str, MakePredictor); 3] = [
        ("mlr", || Box::new(MlrPredictor::with_defaults())),
        ("slr", || Box::new(SlrPredictor::on_packets())),
        ("robust_mlr", || Box::new(RobustMlrPredictor::with_defaults())),
    ];
    for (name, build) in predictors {
        let mut predictor = build();
        for (features, cycles) in &stream {
            predictor.predict(features);
            predictor.observe(features, *cycles);
        }
        let mut writer = StateWriter::new();
        predictor.save_state(&mut writer).expect("predictor checkpoints");
        let bytes = writer.into_bytes();
        build().load_state(&mut StateReader::new(&bytes)).expect("the honest snapshot restores");

        // Every predictor's state opens with its history: capacity, length,
        // then per observation 42 features and the response.
        let slot_offset = |observation: usize, slot: usize| {
            2 * std::mem::size_of::<u64>() + (observation * (FEATURE_COUNT + 1) + slot) * 8
        };
        for (observation, slot, label) in
            [(0, 0, "feature 0"), (5, 17, "feature 17"), (11, FEATURE_COUNT, "response")]
        {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, MAX_SAMPLE * 1.5] {
                let mut crafted = bytes.clone();
                let at = slot_offset(observation, slot);
                crafted[at..at + 8].copy_from_slice(&poison.to_le_bytes());
                let error = build()
                    .load_state(&mut StateReader::new(&crafted))
                    .expect_err("a value push() cannot store must not restore");
                let StateError::Corrupt(message) = &error else {
                    panic!("{name}: expected a corrupt-state error, got {error}");
                };
                assert!(
                    message.contains(&format!("observation {observation} {label}")),
                    "{name}: {poison} at {label}: {message}"
                );
            }
        }
        if name == "slr" {
            // Its history, then the modelled cost: at most 4 per row.
            let mut crafted = bytes.clone();
            let at = crafted.len() - 8;
            crafted[at..].copy_from_slice(&(60u64 * 4).to_le_bytes());
            build().load_state(&mut StateReader::new(&crafted)).expect("the largest cost restores");
            crafted[at..].copy_from_slice(&(60u64 * 4 + 1).to_le_bytes());
            let error = build().load_state(&mut StateReader::new(&crafted)).unwrap_err();
            assert!(matches!(&error, StateError::Corrupt(m) if m.contains("last_cost")), "{error}");
        } else {
            crafted_selection_and_cost_are_rejected(name, build, &bytes);
        }
    }
}

/// An MLR state (plain or robust) re-encoded with the selection and the
/// modelled cost that follow the history replaced: what FCBF and `predict`
/// could not have produced must not restore, naming the field; the largest
/// cost they could have must.
fn crafted_selection_and_cost_are_rejected(name: &str, build: MakePredictor, honest: &[u8]) {
    let mut reader = StateReader::new(honest);
    History::new(60).load_state(&mut reader).expect("history");
    let history = &honest[..honest.len() - reader.remaining()];
    let selected: Vec<usize> =
        (0..reader.usize().expect("length")).map(|_| reader.usize().expect("index")).collect();
    assert!(!selected.is_empty(), "{name}: the honest state holds a selection");
    assert_eq!(reader.usize().expect("selection age"), 1, "{name}: a warm selection's age");
    let cost = reader.u64().expect("last cost");
    let tail = &honest[honest.len() - reader.remaining()..];
    let craft = |selected: &[usize], cost: u64| {
        let mut writer = StateWriter::new();
        writer.usize(selected.len());
        for &feature in selected {
            writer.usize(feature);
        }
        // The age the selection implies: a wrong one is refused on its own
        // (`a_selection_age_no_run_writes_does_not_restore`).
        writer.usize(usize::from(!selected.is_empty()));
        writer.u64(cost);
        [history, &writer.into_bytes(), tail].concat()
    };
    assert_eq!(craft(&selected, cost), honest, "{name}: re-encoding is exact");

    // The defaults: at most 8 features over a history of 60.
    let largest_cost = 60 * (FEATURE_COUNT as u64 + 9 * 9);
    build()
        .load_state(&mut StateReader::new(&craft(&(0..8).collect::<Vec<_>>(), largest_cost)))
        .expect("the widest selection and its cost restore");
    for (selected, cost, field) in [
        ((0..9).collect(), cost, "selected features"),
        (vec![0; 500], cost, "selected features"),
        (vec![3, 7, 3], cost, "selected features"),
        (vec![FEATURE_COUNT], cost, "selected features"),
        (selected.clone(), largest_cost + 1, "last_cost"),
        (Vec::new(), u64::MAX, "last_cost"),
    ] {
        let context = format!("{name}: {selected:?} costing {cost}");
        let error = build()
            .load_state(&mut StateReader::new(&craft(&selected, cost)))
            .expect_err("a state no run produces must not restore");
        let StateError::Corrupt(message) = &error else {
            panic!("{context}: expected a corrupt-state error, got {error}");
        };
        assert!(message.contains(field), "{context}: {message}");
    }
}

/// FNV-1a over a checkpoint: a pin that moves with any one of its bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The checkpoints of a plain and a robust MLR predictor, each fresh, cold
/// (two observations: too few to regress, so nothing selected yet) and warm
/// (80 bins: the ring has wrapped, and the surge from bin 70 has tripped the
/// robust defence), with the constructor each restores into.
fn mlr_snapshots() -> Vec<(String, MakePredictor, Vec<u8>)> {
    let stream = real_feature_stream(15, 80, 9.0);
    let predictors: [(&str, MakePredictor); 2] = [
        ("mlr", || Box::new(MlrPredictor::with_defaults())),
        ("robust_mlr", || Box::new(RobustMlrPredictor::with_defaults())),
    ];
    let mut snapshots = Vec::new();
    for (name, build) in predictors {
        for (stage, bins) in [("fresh", 0), ("cold", 2), ("warm", stream.len())] {
            let mut predictor = build();
            for (features, cycles) in &stream[..bins] {
                predictor.predict(features);
                predictor.observe(features, *cycles);
            }
            let mut writer = StateWriter::new();
            predictor.save_state(&mut writer).expect("predictor checkpoints");
            snapshots.push((format!("{name} {stage}"), build, writer.into_bytes()));
        }
    }
    snapshots
}

#[test]
fn mlr_checkpoint_bytes_are_pinned() {
    // (snapshot, length, FNV-1a) as recorded while the selection could still
    // be kept for several bins: the checkpoint format did not move with it.
    const PINNED: [(&str, usize, u64); 6] = [
        ("mlr fresh", 40, 0xd186_348f_8f17_1cb9),
        ("mlr cold", 728, 0x6c59_6273_1f44_734d),
        ("mlr warm", 20_688, 0xe268_d53c_bbf5_069a),
        ("robust_mlr fresh", 65, 0x8b4a_f019_5f65_5e7b),
        ("robust_mlr cold", 753, 0x74eb_90d0_2309_e277),
        ("robust_mlr warm", 4_553, 0x1c43_7625_2194_daa8),
    ];
    let snapshots = mlr_snapshots();
    let got: Vec<(&str, usize, u64)> = snapshots
        .iter()
        .map(|(name, _, bytes)| (name.as_str(), bytes.len(), fnv1a(bytes)))
        .collect();
    assert_eq!(got, PINNED);
}

/// The offset of an MLR checkpoint's selection-age word, and the number of
/// features selected before it.
fn selection_age_at(bytes: &[u8]) -> (usize, usize) {
    let mut reader = StateReader::new(bytes);
    History::new(60).load_state(&mut reader).expect("history");
    let selected = reader.usize().expect("selection length");
    for _ in 0..selected {
        reader.usize().expect("selected feature");
    }
    (bytes.len() - reader.remaining(), selected)
}

#[test]
fn a_selection_age_no_run_writes_does_not_restore() {
    // A selection is made anew every bin that regresses, so a checkpoint
    // holds age 1 beside a selection and 0 before the first one; any other
    // word is a state no run stores.
    for (name, build, bytes) in mlr_snapshots() {
        let (at, selected) = selection_age_at(&bytes);
        let honest = usize::from(selected > 0);
        assert_eq!(bytes[at..at + 8], (honest as u64).to_le_bytes(), "{name}: honest age");
        assert_eq!(selected > 0, name.ends_with("warm"), "{name}: selects once warm");
        build().load_state(&mut StateReader::new(&bytes)).expect("the honest snapshot restores");
        for age in [0u64, 1, 2].into_iter().filter(|&age| age != honest as u64) {
            let mut crafted = bytes.clone();
            crafted[at..at + 8].copy_from_slice(&age.to_le_bytes());
            let error = build()
                .load_state(&mut StateReader::new(&crafted))
                .expect_err("a selection age no run writes must not restore");
            assert!(
                matches!(&error, StateError::Corrupt(m) if m.contains("selection age")),
                "{name} at age {age}: {error}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (e) Shared ≡ private: a predictor reading the engine's feature window is
// its stand-alone twin, by bits.
// ---------------------------------------------------------------------------

/// A history-backed predictor, so one loop can hold plain and robust ones.
trait Tenant: Predictor {
    fn history(&self) -> &History;
}

impl Tenant for MlrPredictor {
    fn history(&self) -> &History {
        MlrPredictor::history(self)
    }
}

impl Tenant for RobustMlrPredictor {
    fn history(&self) -> &History {
        RobustMlrPredictor::history(self)
    }
}

/// How a tenant's predictor is built.
#[derive(Clone, Copy)]
enum Build {
    Plain(MlrConfig),
    Robust,
}

impl Build {
    fn fresh(self) -> Box<dyn Tenant> {
        match self {
            Build::Plain(config) => Box::new(MlrPredictor::new(config)),
            Build::Robust => Box::new(RobustMlrPredictor::with_defaults()),
        }
    }
}

/// A predictor driven against the shared window, and its twin driven through
/// plain `predict` / `observe` / `observe_corrupted` on the same rows.
struct Pair {
    name: &'static str,
    /// First bin the pair exists in (a tenant may register late).
    from_bin: usize,
    build: Build,
    shared: Box<dyn Tenant>,
    twin: Box<dyn Tenant>,
    /// The cost model of this tenant's query: cycles per unit of each of
    /// these features, on top of a fixed 10 000.
    terms: &'static [(usize, f64)],
    /// From this bin on the cost is ninefold (never, for most).
    surge_from: usize,
}

impl Pair {
    fn cost(&self, row: &FeatureVector, bin: usize) -> f64 {
        let calm = 1e4
            + self.terms.iter().map(|&(feature, per)| per * row.get_index(feature)).sum::<f64>();
        if bin >= self.surge_from {
            9.0 * calm
        } else {
            calm
        }
    }
}

/// What happens to a pair in one bin.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Action {
    /// Nothing shed: the history takes the bin's shared row.
    Shared,
    /// The measurement was an outlier: the prediction is stored instead,
    /// beside the shared row.
    CorruptedShared,
    /// The query was sampled: the history takes its own re-extracted row.
    Private,
    /// Granted rate 0: predicted, never run, nothing observed.
    PredictOnly,
    /// Serving a penalty: neither predicted nor observed.
    Skipped,
    /// Checkpointed and restored between the prediction and the feedback.
    Restored,
}

fn draw_action(rng: &mut StdRng) -> Action {
    match rng.gen_range(0..1000) {
        0..=3 => Action::Private,
        4..=5 => Action::PredictOnly,
        6..=7 => Action::Skipped,
        8..=11 => Action::Restored,
        12..=61 => Action::CorruptedShared,
        _ => Action::Shared,
    }
}

fn state_bytes(predictor: &dyn Tenant) -> Vec<u8> {
    let mut writer = StateWriter::new();
    predictor.save_state(&mut writer).expect("predictor checkpoints");
    writer.into_bytes()
}

/// Two features the test writes itself, over what the extractor produced:
/// independent noise until `COPIED_FROM`, then `B` a bit-for-bit copy of `A`,
/// then from `CONSTANT_FROM` both a constant — so selections made on the
/// window's moments meet an exact copy, which FCBF must drop as redundant,
/// then a zero-variance column.
const A: usize = 40;
const B: usize = 41;
const COPIED_FROM: usize = 100;
const CONSTANT_FROM: usize = 200;

fn overwrite_synthetic(row: &mut FeatureVector, bin: usize, rng: &mut StdRng) {
    let (a, b) = if bin >= CONSTANT_FROM {
        (7.0, 7.0)
    } else {
        let a = rng.gen_range(0.0f64..1000.0).round();
        (a, if bin >= COPIED_FROM { a } else { rng.gen_range(0.0f64..1000.0).round() })
    };
    row.set(FeatureId::from_index(A), a);
    row.set(FeatureId::from_index(B), b);
}

#[test]
fn predictors_on_a_shared_window_match_their_stand_alone_twins_bit_for_bit() {
    // Long enough for a 60-row ring to wrap twice after the latest event
    // below (the surge at bin 170), and to cross both synthetic phases.
    const BINS: usize = 320;
    const NEVER: usize = usize::MAX;

    // Per bin: the full-batch vector every unshed query stores, and the
    // vector a sampled query would re-extract for itself.
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(41).with_mean_packets_per_batch(500.0),
    );
    let mut full_extractor = FeatureExtractor::with_defaults();
    let mut sampled_extractor = FeatureExtractor::with_defaults();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut pool = KeepListPool::new();
    let rows: Vec<(FeatureVector, FeatureVector)> = (0..BINS)
        .map(|bin| {
            let batch = generator.next_batch();
            let (mut full, _) = full_extractor.extract_view(&batch.view());
            let sampled = packet_sample_with(&batch.view(), 0.4, &mut rng, &mut pool).0;
            let (mut sampled, _) = sampled_extractor.extract_view(&sampled);
            overwrite_synthetic(&mut full, bin, &mut rng);
            overwrite_synthetic(&mut sampled, bin, &mut rng);
            (full, sampled)
        })
        .collect();

    let plain = Build::Plain(MlrConfig::default());
    let with_fcbf = |threshold| {
        let fcbf = FcbfConfig { threshold, max_features: 8 };
        Build::Plain(MlrConfig { fcbf, ..MlrConfig::default() })
    };
    let loose = with_fcbf(0.2);
    // Selects both synthetic features while they are independent, in the
    // order of their weights.
    let paired = with_fcbf(0.45);
    // A history shorter than the window aligns only until it first evicts.
    let short = Build::Plain(MlrConfig { history: 25, ..MlrConfig::default() });
    let robust = Build::Robust;
    let pair = |name, from_bin, build: Build, terms, surge_from| Pair {
        name,
        from_bin,
        build,
        shared: build.fresh(),
        twin: build.fresh(),
        terms,
        surge_from,
    };
    let mut pairs = [
        // Three tenants driven by the packet count alone: one selection,
        // three responses.
        pair("packets", 0, plain, &[(0, 300.0)], NEVER),
        pair("packets-cheap", 0, plain, &[(0, 40.0)], NEVER),
        pair("packets-dear", 0, plain, &[(0, 2500.0)], NEVER),
        pair("bytes", 0, plain, &[(0, 5.0), (1 /* bytes */, 0.4)], NEVER),
        pair("flows", 0, plain, &[(0, 40.0), (6, 2500.0)], NEVER),
        pair("mixed", 0, loose, &[(0, 120.0), (14, 900.0)], NEVER),
        pair("short", 0, short, &[(0, 250.0), (2, 300.0)], NEVER),
        pair("late", 25, plain, &[(0, 150.0), (18, 1200.0)], NEVER),
        pair("robust", 0, robust, &[(0, 220.0), (6, 800.0)], 170),
        // The same two features, selected in opposite orders.
        pair("a-then-b", 0, paired, &[(A, 1000.0), (B, 600.0)], NEVER),
        pair("b-then-a", 0, paired, &[(B, 1000.0), (A, 600.0)], NEVER),
    ];

    let mut window = FeatureWindow::new();
    let mut rng = StdRng::seed_from_u64(0xa119);
    let (mut predictor_bins, mut aligned_bins) = (0usize, 0usize);
    let mut actions_seen = Vec::new();
    let mut late_aligned = false;
    let (mut robust_forgot, mut robust_realigned) = (false, false);
    // What the shared moments and fits were exercised on: window lengths,
    // an exact copy dropped, a zero-variance column, a selection read by
    // more than one tenant and one read reversed by another.
    let mut shared_lengths = BTreeSet::new();
    let (mut copy_dropped, mut constant, mut shared_by_many, mut reversed) =
        (false, false, false, false);
    for (bin, (full, sampled)) in rows.iter().enumerate() {
        // Predict phase, against the window of the bins before this one.
        let mut planned: Vec<Option<(Action, f64)>> = Vec::new();
        let mut selections: Vec<Vec<usize>> = Vec::new();
        for pair in &mut pairs {
            if bin < pair.from_bin {
                planned.push(None);
                continue;
            }
            let context = format!("bin {bin} pair {}", pair.name);
            let aligned = pair.shared.history().aligned_with(&window);
            assert!(!pair.twin.history().aligned_with(&window), "{context}: twins stand alone");
            let regresses = pair.shared.history().len() >= 3;
            if regresses {
                predictor_bins += 1;
                aligned_bins += usize::from(aligned);
                late_aligned |= aligned && pair.name == "late";
                robust_realigned |= aligned && robust_forgot && pair.name == "robust";
            }
            let action = draw_action(&mut rng);
            actions_seen.push(action);
            if action == Action::Skipped {
                planned.push(Some((action, 0.0)));
                continue;
            }
            let got = pair.shared.predict_shared(&window, full);
            let want = pair.twin.predict(full);
            assert_eq!(got.to_bits(), want.to_bits(), "{context}: {got} vs {want}");
            assert_eq!(pair.shared.selected_features(), pair.twin.selected_features(), "{context}");
            assert_eq!(
                pair.shared.last_cost_operations(),
                pair.twin.last_cost_operations(),
                "{context}"
            );
            if aligned && regresses {
                let selected = pair.shared.selected_features();
                let column = |feature: usize| pair.shared.history().feature_column(feature);
                copy_dropped |=
                    selected.contains(&A) != selected.contains(&B) && column(A) == column(B);
                constant |= column(A).iter().all(|&value| value == 7.0);
                shared_lengths.insert(window.len());
                selections.push(selected);
            }
            planned.push(Some((action, got)));
        }

        // One factorisation per distinct ordered selection, however many
        // aligned tenants regressed on it.
        let distinct: BTreeSet<&Vec<usize>> = selections.iter().collect();
        assert_eq!(window.decompositions(), distinct.len(), "bin {bin}: {selections:?}");
        shared_by_many |= distinct.len() < selections.len();
        reversed |= distinct.iter().any(|selected| {
            let reverse: Vec<usize> = selected.iter().rev().copied().collect();
            selected.len() > 1 && distinct.contains(&reverse)
        });

        window.push(full);

        // Feedback phase: the window's newest row is this bin's vector.
        for (pair, plan) in pairs.iter_mut().zip(planned) {
            let Some((action, predicted)) = plan else { continue };
            match action {
                Action::Shared | Action::Restored => {
                    if action == Action::Restored {
                        let mut restored = pair.build.fresh();
                        let bytes = state_bytes(pair.shared.as_ref());
                        restored.load_state(&mut StateReader::new(&bytes)).expect("restores");
                        pair.shared = restored;
                    }
                    let cycles = pair.cost(full, bin);
                    pair.shared.observe_shared(&window, cycles, false);
                    pair.twin.observe(full, cycles);
                }
                Action::CorruptedShared => {
                    pair.shared.observe_shared(&window, predicted, true);
                    pair.twin.observe_corrupted(full, predicted);
                }
                Action::Private => {
                    let cycles = pair.cost(sampled, bin);
                    pair.shared.observe(sampled, cycles);
                    pair.twin.observe(sampled, cycles);
                }
                Action::PredictOnly | Action::Skipped => {}
            }
            assert_eq!(
                state_bytes(pair.shared.as_ref()),
                state_bytes(pair.twin.as_ref()),
                "bin {bin} pair {}: state after {action:?}",
                pair.name
            );
            if pair.name == "robust" && bin > 170 {
                robust_forgot |= pair.shared.history().len() < 10;
            }
        }
    }

    // The comparison must not pass for want of anything to compare: every
    // action occurred, the defence fired, and the window was actually read —
    // by the late tenant and by the robust one after its history regrew too.
    for action in [
        Action::Shared,
        Action::CorruptedShared,
        Action::Private,
        Action::PredictOnly,
        Action::Skipped,
        Action::Restored,
    ] {
        assert!(actions_seen.contains(&action), "{action:?} never drawn");
    }
    assert!(robust_forgot, "the surge must make the robust predictor forget");
    assert!(robust_realigned, "the robust predictor must align again once its history regrew");
    assert!(late_aligned, "the late tenant must align once its history fills the window");
    assert!(
        aligned_bins * 100 >= predictor_bins * 40,
        "{aligned_bins} of {predictor_bins} predictor-bins read the shared window"
    );
    // And the shared fits were read at every warm-up length, by several
    // tenants at once and in both orders of one pair of features, and the
    // shared moments across an exact copy and a zero-variance column.
    assert_eq!(shared_lengths, (3..=FeatureWindow::ROWS).collect(), "warm-up lengths");
    assert!(shared_by_many, "some selection must be shared by several tenants");
    assert!(reversed, "some selection must be read in both orders in one bin");
    assert!(copy_dropped, "a selection on the window must drop an exact copy");
    assert!(constant, "a selection on the window must meet a zero-variance column");
}
