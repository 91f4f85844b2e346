//! Capture buffer model (the DAG card buffers of the testbed).
//!
//! The real system runs against wall-clock time: if processing a batch takes
//! longer than a time bin, the capture card's memory buffers absorb the
//! backlog; once they fill up, packets are dropped without control
//! (the "DAG drops" of Figure 4.2). This model tracks the backlog in cycles:
//! every bin adds the cycles actually spent and removes one bin's worth of
//! capacity; when the backlog exceeds the buffer size, the overflow fraction
//! of the next incoming batch is dropped before the system ever sees it.

use netshed_sketch::{StateError, StateReader, StateWriter};

/// Admits a control-loop `f64` read from a snapshot if the save side could
/// have written it: inside `[0, max]` (`f64::MAX` for "finite"). A snapshot
/// is outside input and its checksum is not cryptographic: a NaN (it fails
/// both comparisons) or an out-of-range value would otherwise restore
/// cleanly and reach every later `ControlContext`, so it is a corrupt
/// section naming `field`.
pub(crate) fn bounded(value: f64, field: &str, max: f64) -> Result<f64, StateError> {
    if (0.0..=max).contains(&value) {
        return Ok(value);
    }
    let domain = if max == 1.0 {
        "a rate in [0, 1]"
    } else if max.is_finite() {
        "finite and non-negative"
    } else {
        "non-negative"
    };
    Err(StateError::corrupt(format!("{field} holds {value}, not {domain}")))
}

/// Capture-side backlog and drop model.
#[derive(Debug, Clone)]
pub struct CaptureBuffer {
    /// Cycles of backlog currently queued.
    backlog_cycles: f64,
    /// Maximum backlog the buffer can absorb, in cycles.
    capacity_cycles: f64,
    /// Cycles of capacity per time bin (used to convert backlog to "bins of
    /// delay").
    cycles_per_bin: f64,
    /// Total packets dropped because the buffer was full.
    dropped_packets: u64,
}

impl CaptureBuffer {
    /// Creates a buffer able to absorb `capacity_bins` time bins of backlog.
    pub fn new(cycles_per_bin: f64, capacity_bins: f64) -> Self {
        Self {
            backlog_cycles: 0.0,
            capacity_cycles: (cycles_per_bin * capacity_bins).max(0.0),
            cycles_per_bin: cycles_per_bin.max(1.0),
            dropped_packets: 0,
        }
    }

    /// Current backlog in cycles (the `delay` of Algorithm 1).
    pub fn delay_cycles(&self) -> f64 {
        self.backlog_cycles
    }

    /// Buffer occupation as a fraction of its capacity (0..1).
    pub fn occupation(&self) -> f64 {
        if self.capacity_cycles <= 0.0 {
            return if self.backlog_cycles > 0.0 { 1.0 } else { 0.0 };
        }
        (self.backlog_cycles / self.capacity_cycles).clamp(0.0, 1.0)
    }

    /// Total packets dropped so far because of buffer overflow.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Returns the fraction of the incoming batch that must be dropped given
    /// the current backlog (0 when the buffer still has room), and accounts
    /// the drops.
    ///
    /// `incoming_packets` is the size of the arriving batch.
    pub fn admit(&mut self, incoming_packets: u64) -> f64 {
        if self.backlog_cycles <= self.capacity_cycles {
            return 0.0;
        }
        // The buffer is over capacity: the excess backlog (in bins) maps to a
        // fraction of the incoming traffic that cannot be stored.
        let excess_bins = (self.backlog_cycles - self.capacity_cycles) / self.cycles_per_bin;
        let drop_fraction = excess_bins.clamp(0.0, 1.0);
        self.dropped_packets += (incoming_packets as f64 * drop_fraction).round() as u64;
        drop_fraction
    }

    /// Accounts the cycles actually spent on a bin and drains one bin of
    /// capacity from the backlog.
    pub fn account_bin(&mut self, cycles_spent: f64) {
        self.backlog_cycles = (self.backlog_cycles + cycles_spent - self.cycles_per_bin).max(0.0);
    }

    /// Resets the backlog (used when a run is restarted).
    pub fn reset(&mut self) {
        self.backlog_cycles = 0.0;
        self.dropped_packets = 0;
    }

    /// Serializes the buffer's mutable state (backlog and drop counter); the
    /// geometry is derived from the monitor configuration and not stored.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.f64(self.backlog_cycles);
        writer.u64(self.dropped_packets);
    }

    /// Restores state written by [`CaptureBuffer::save_state`] into a buffer
    /// built from the same configuration.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.backlog_cycles = bounded(reader.f64()?, "capture backlog_cycles", f64::MAX)?;
        self.dropped_packets = reader.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_drops_while_keeping_up() {
        let mut buffer = CaptureBuffer::new(1000.0, 2.0);
        for _ in 0..100 {
            assert_eq!(buffer.admit(500), 0.0);
            buffer.account_bin(900.0);
        }
        assert_eq!(buffer.dropped_packets(), 0);
        assert_eq!(buffer.delay_cycles(), 0.0);
    }

    #[test]
    fn sustained_overload_fills_the_buffer_then_drops() {
        let mut buffer = CaptureBuffer::new(1000.0, 2.0);
        let mut saw_drop = false;
        for _ in 0..20 {
            let fraction = buffer.admit(1000);
            if fraction > 0.0 {
                saw_drop = true;
            }
            // Spending 1.5 bins of cycles per bin: backlog grows 500/bin.
            buffer.account_bin(1500.0);
        }
        assert!(saw_drop, "sustained overload must eventually drop packets");
        assert!(buffer.dropped_packets() > 0);
        assert!(buffer.occupation() > 0.9);
    }

    #[test]
    fn short_burst_is_absorbed_without_drops() {
        let mut buffer = CaptureBuffer::new(1000.0, 3.0);
        // One expensive bin followed by idle bins.
        assert_eq!(buffer.admit(100), 0.0);
        buffer.account_bin(2500.0);
        for _ in 0..5 {
            assert_eq!(buffer.admit(100), 0.0, "burst within buffer capacity must not drop");
            buffer.account_bin(100.0);
        }
        assert_eq!(buffer.dropped_packets(), 0);
        assert_eq!(buffer.delay_cycles(), 0.0);
    }

    #[test]
    fn delay_reporting_matches_backlog() {
        let mut buffer = CaptureBuffer::new(1000.0, 10.0);
        buffer.account_bin(3000.0);
        assert!((buffer.delay_cycles() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut buffer = CaptureBuffer::new(1000.0, 1.0);
        buffer.account_bin(5000.0);
        buffer.admit(100);
        buffer.reset();
        assert_eq!(buffer.delay_cycles(), 0.0);
        assert_eq!(buffer.dropped_packets(), 0);
    }
}
