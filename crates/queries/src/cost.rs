//! The deterministic cycle cost model and the measurement noise model.
//!
//! The paper measures per-batch CPU usage with the TSC register on a 3 GHz
//! Pentium 4 (Section 3.2.4). Reproducing those absolute numbers is neither
//! possible nor necessary: the prediction subsystem only sees (features,
//! cycles) pairs, so what matters is that per-query cost is dominated by a
//! small number of feature-linear terms plus noise — which is exactly what
//! this model produces. Each query charges cycles per elementary operation
//! (per packet touched, per byte scanned, per hash-table entry created, ...)
//! to a [`CycleMeter`]; the monitor then passes the deterministic total
//! through a [`MeasurementNoise`] model that adds the same disturbances the
//! paper had to engineer around: small multiplicative jitter (cache effects)
//! and rare large outliers (context switches, competing disk DMA).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-operation cycle costs shared by all query implementations.
///
/// The constants are calibrated so the per-query average cost over the
/// default synthetic trace reproduces the ordering and rough magnitude
/// spread of Figure 2.2 (counter cheapest, pattern-search / p2p-detector two
/// or three orders of magnitude more expensive).
pub mod costs {
    /// Fixed cost of delivering one packet to a query (filter + callback).
    pub const PER_PACKET_BASE: u64 = 80;
    /// Updating a plain array counter.
    pub const COUNTER_UPDATE: u64 = 20;
    /// Port-classification table lookup.
    pub const PORT_LOOKUP: u64 = 45;
    /// Hash-table lookup of an existing entry.
    pub const HASH_LOOKUP: u64 = 120;
    /// Creation of a new hash-table entry (allocate + insert + rehash share).
    pub const HASH_INSERT: u64 = 650;
    /// Per level of the autofocus prefix hierarchy touched per packet.
    pub const PREFIX_LEVEL: u64 = 90;
    /// Copying one byte of payload to the storage buffer (trace query).
    pub const STORE_BYTE: u64 = 2;
    /// Scanning one byte of payload with Boyer–Moore (pattern-search).
    pub const SCAN_BYTE: u64 = 6;
    /// Scanning one byte of payload with the P2P signature set.
    pub const P2P_SCAN_BYTE: u64 = 9;
    /// Per-flow classification work of the P2P detector for a new flow.
    pub const P2P_FLOW_SETUP: u64 = 900;
    /// Per-packet work of maintaining a top-k ranking entry.
    pub const RANKING_UPDATE: u64 = 60;
    /// Distinct-counting update (super-sources fan-out sketch).
    pub const DISTINCT_UPDATE: u64 = 140;
}

/// Accumulates the cycles charged by a query while processing one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleMeter {
    cycles: u64,
    operations: u64,
}

impl CycleMeter {
    /// Creates a meter reading zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` for one logical operation.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.operations += 1;
    }

    /// Charges `cycles` for `count` identical operations.
    #[inline]
    pub fn charge_n(&mut self, cycles: u64, count: u64) {
        self.cycles += cycles * count;
        self.operations += count;
    }

    /// Total cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total logical operations charged so far.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Resets the meter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Models the disturbances that affect real TSC measurements
/// (Section 3.2.4): multiplicative jitter from cache and bus contention and
/// rare additive outliers from context switches.
#[derive(Debug)]
pub struct MeasurementNoise {
    rng: StdRng,
    /// Standard deviation of the multiplicative jitter (e.g. 0.02 = 2%).
    pub jitter_stdev: f64,
    /// Probability that a batch measurement is hit by a context switch.
    pub outlier_probability: f64,
    /// Cycles added by a context-switch outlier.
    pub outlier_cycles: u64,
}

impl MeasurementNoise {
    /// Creates a noise model with the given parameters.
    pub fn new(
        seed: u64,
        jitter_stdev: f64,
        outlier_probability: f64,
        outlier_cycles: u64,
    ) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), jitter_stdev, outlier_probability, outlier_cycles }
    }

    /// A model with realistic defaults: 2% jitter, 0.5% outlier probability.
    pub fn realistic(seed: u64) -> Self {
        Self::new(seed, 0.02, 0.005, 3_000_000)
    }

    /// A silent model that returns measurements unchanged (for tests that
    /// need exact numbers).
    pub fn none(seed: u64) -> Self {
        Self::new(seed, 0.0, 0.0, 0)
    }

    /// The raw RNG state, for checkpointing the noise stream mid-run.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the stream captured by [`MeasurementNoise::rng_state`]; the
    /// restored model continues drawing the exact same disturbances.
    pub fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Applies the noise model to a deterministic cycle count and reports
    /// whether this measurement was disturbed by a context switch.
    pub fn measure(&mut self, cycles: u64) -> (u64, bool) {
        self.draw().apply(cycles)
    }

    /// Draws the disturbances for one measurement *without* applying them.
    ///
    /// The number of RNG samples consumed per draw depends only on the model
    /// configuration, never on the measured value, so a caller may pre-draw
    /// the noise for a set of measurements in a fixed order and apply each
    /// [`NoiseDraw`] later (possibly on another thread) — the RNG stream, and
    /// therefore every disturbed value, is bit-identical to calling
    /// [`MeasurementNoise::measure`] in that same order.
    pub fn draw(&mut self) -> NoiseDraw {
        let jitter_factor = if self.jitter_stdev > 0.0 {
            // Box–Muller normal sample.
            let u1: f64 = 1.0 - self.rng.gen::<f64>();
            let u2: f64 = self.rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (1.0 + self.jitter_stdev * z).max(0.5)
        } else {
            1.0
        };
        let outlier =
            self.outlier_probability > 0.0 && self.rng.gen::<f64>() < self.outlier_probability;
        NoiseDraw { jitter_factor, outlier, outlier_cycles: self.outlier_cycles }
    }
}

/// The disturbances [`MeasurementNoise`] drew for one measurement, decoupled
/// from the value they disturb (see [`MeasurementNoise::draw`]).
#[derive(Debug, Clone, Copy)]
pub struct NoiseDraw {
    /// Multiplicative cache/bus-contention jitter (1.0 when disabled).
    jitter_factor: f64,
    /// Whether a context switch hit this measurement.
    outlier: bool,
    /// Cycles a context switch adds.
    outlier_cycles: u64,
}

impl NoiseDraw {
    /// Applies the drawn disturbances to a deterministic cycle count,
    /// returning the disturbed value and whether it was hit by an outlier.
    pub fn apply(&self, cycles: u64) -> (u64, bool) {
        let mut measured = cycles as f64 * self.jitter_factor;
        if self.outlier {
            measured += self.outlier_cycles as f64;
        }
        (measured.max(0.0) as u64, self.outlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_charges() {
        let mut m = CycleMeter::new();
        m.charge(100);
        m.charge_n(10, 5);
        assert_eq!(m.cycles(), 150);
        assert_eq!(m.operations(), 6);
        m.reset();
        assert_eq!(m.cycles(), 0);
    }

    #[test]
    fn silent_noise_is_identity() {
        let mut noise = MeasurementNoise::none(1);
        let (measured, outlier) = noise.measure(123_456);
        assert_eq!(measured, 123_456);
        assert!(!outlier);
    }

    #[test]
    fn realistic_noise_stays_close_on_average() {
        let mut noise = MeasurementNoise::new(2, 0.02, 0.0, 0);
        let n = 2000;
        let total: u64 = (0..n).map(|_| noise.measure(1_000_000).0).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1_000_000.0).abs() < 20_000.0, "mean {mean}");
    }

    #[test]
    fn outliers_occur_at_configured_rate() {
        let mut noise = MeasurementNoise::new(3, 0.0, 0.1, 1_000_000);
        let n = 5000;
        let outliers = (0..n).filter(|_| noise.measure(100).1).count();
        let rate = outliers as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.03, "outlier rate {rate}");
    }
}
