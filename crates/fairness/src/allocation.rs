//! Sampling-rate allocation strategies (Section 5.2).
//!
//! Each strategy answers one question: given per-query demands (predicted
//! cycles plus a minimum sampling rate) and a cycle budget, what sampling
//! rate does every query get? The three schemes of the paper ship as free
//! functions ([`eq_srates`], [`mmfs_cpu`], [`mmfs_pkt`]) and, for callers
//! that need to choose a scheme at runtime or plug in their own, as unit
//! structs ([`EqualRates`], [`MmfsCpu`], [`MmfsPkt`]) implementing the
//! object-safe [`AllocationStrategy`] trait.

/// A pluggable sampling-rate allocation scheme.
///
/// Implementations are pure functions of their inputs: the same demands and
/// capacity must always produce the same allocations (the monitor's
/// replay-equivalence guarantees depend on it). Stateful schemes belong at
/// the control-policy layer, which owns the per-bin feedback loop.
pub trait AllocationStrategy: Send + Sync {
    /// Computes one [`Allocation`] per demand under the given cycle budget.
    fn allocate(&self, demands: &[QueryDemand], capacity: f64) -> Vec<Allocation>;

    /// Short name used in reports and composed strategy names.
    fn name(&self) -> &'static str;
}

/// [`eq_srates`] as a pluggable strategy: one common sampling rate for every
/// query (Chapter 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualRates;

impl AllocationStrategy for EqualRates {
    fn allocate(&self, demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
        eq_srates(demands, capacity)
    }

    fn name(&self) -> &'static str {
        "eq_srates"
    }
}

/// [`mmfs_cpu`] as a pluggable strategy: max-min fairness in allocated CPU
/// cycles (Section 5.2.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MmfsCpu;

impl AllocationStrategy for MmfsCpu {
    fn allocate(&self, demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
        mmfs_cpu(demands, capacity)
    }

    fn name(&self) -> &'static str {
        "mmfs_cpu"
    }
}

/// [`mmfs_pkt`] as a pluggable strategy: max-min fairness in access to the
/// packet stream (Section 5.2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct MmfsPkt;

impl AllocationStrategy for MmfsPkt {
    fn allocate(&self, demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
        mmfs_pkt(demands, capacity)
    }

    fn name(&self) -> &'static str {
        "mmfs_pkt"
    }
}

impl AllocationStrategy for Box<dyn AllocationStrategy> {
    fn allocate(&self, demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
        self.as_ref().allocate(demands, capacity)
    }

    fn name(&self) -> &'static str {
        self.as_ref().name()
    }
}

/// A query's resource demand for the next batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDemand {
    /// Predicted cycles needed to process the full batch (`d̂_q`).
    pub predicted_cycles: f64,
    /// Minimum sampling rate the query tolerates (`m_q`, in `[0, 1]`).
    pub min_rate: f64,
}

impl QueryDemand {
    /// Creates a demand.
    pub fn new(predicted_cycles: f64, min_rate: f64) -> Self {
        Self { predicted_cycles: predicted_cycles.max(0.0), min_rate: min_rate.clamp(0.0, 1.0) }
    }

    /// The query's minimum cycle demand (`m_q × d̂_q`).
    pub fn min_cycles(&self) -> f64 {
        self.min_rate * self.predicted_cycles
    }
}

/// The allocation decided for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Allocation {
    /// The query is disabled for this batch (gets no packets).
    Disabled,
    /// The query runs with the given sampling rate in `(0, 1]`.
    Rate(f64),
}

impl Allocation {
    /// The sampling rate of the allocation (0 when disabled).
    pub fn rate(&self) -> f64 {
        match self {
            Allocation::Disabled => 0.0,
            Allocation::Rate(rate) => *rate,
        }
    }

    /// Returns `true` if the query was disabled.
    pub fn is_disabled(&self) -> bool {
        matches!(self, Allocation::Disabled)
    }
}

/// Phase 1 of the online algorithm (Section 5.2.3), common to both
/// strategies: disable the queries with the largest minimum demands until the
/// remaining minimum demands fit in the capacity. Returns the indices of the
/// queries that stay enabled.
fn enabled_after_phase1(demands: &[QueryDemand], capacity: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..demands.len()).collect();
    // Sort ascending by minimum demand; we keep a prefix of this order.
    order.sort_by(|&a, &b| demands[a].min_cycles().total_cmp(&demands[b].min_cycles()));
    let mut enabled: Vec<usize> = order;
    loop {
        let total: f64 = enabled.iter().map(|&i| demands[i].min_cycles()).sum();
        if total <= capacity || enabled.is_empty() {
            break;
        }
        // Disable the query with the largest minimum demand.
        enabled.pop();
    }
    enabled.sort_unstable();
    enabled
}

/// Max-min fair share in terms of CPU cycles (Section 5.2.1).
///
/// Returns one [`Allocation`] per input demand. The allocation maximises the
/// minimum number of cycles allocated to any enabled query, subject to
/// `m_q d̂_q ≤ c_q ≤ d̂_q` and `Σ c_q ≤ capacity`.
pub fn mmfs_cpu(demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
    let enabled = enabled_after_phase1(demands, capacity);
    let mut allocations = vec![Allocation::Disabled; demands.len()];
    if enabled.is_empty() {
        return allocations;
    }

    // Water-filling with lower bounds (min cycles) and upper bounds (full
    // demand): every enabled query gets clamp(level, lower, upper); find the
    // level that exactly exhausts the capacity by bisection.
    let lowers: Vec<f64> = enabled.iter().map(|&i| demands[i].min_cycles()).collect();
    let uppers: Vec<f64> = enabled.iter().map(|&i| demands[i].predicted_cycles).collect();
    let total_at = |level: f64| -> f64 {
        lowers.iter().zip(&uppers).map(|(&lo, &up)| level.clamp(lo, up.max(lo))).sum()
    };
    let max_upper = uppers.iter().copied().fold(0.0f64, f64::max);
    let (mut lo, mut hi) = (0.0f64, max_upper);
    // If even the full demands fit, everyone gets their full demand.
    let level = if total_at(max_upper) <= capacity {
        max_upper
    } else {
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if total_at(mid) > capacity {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    };

    for (slot, &query) in enabled.iter().enumerate() {
        let demand = demands[query];
        if demand.predicted_cycles <= 0.0 {
            allocations[query] = Allocation::Rate(1.0);
            continue;
        }
        let cycles = level.clamp(lowers[slot], uppers[slot].max(lowers[slot]));
        let rate = (cycles / demand.predicted_cycles).clamp(0.0, 1.0);
        allocations[query] = Allocation::Rate(rate.max(demand.min_rate).min(1.0));
    }
    allocations
}

/// Max-min fair share in terms of access to the packet stream (Section 5.2.2).
///
/// Maximises the minimum sampling rate across enabled queries, subject to
/// `m_q ≤ p_q ≤ 1` and `Σ p_q d̂_q ≤ capacity`.
pub fn mmfs_pkt(demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
    let enabled = enabled_after_phase1(demands, capacity);
    let mut allocations = vec![Allocation::Disabled; demands.len()];
    if enabled.is_empty() {
        return allocations;
    }

    // Iterative algorithm of Section 5.2.3: give everyone the common rate
    // r = remaining capacity / remaining demand; queries whose minimum rate
    // exceeds r are pinned at their minimum and removed, then r is
    // recomputed.
    let mut remaining: Vec<usize> = enabled.clone();
    let mut remaining_capacity = capacity;
    let mut rates = vec![0.0f64; demands.len()];
    loop {
        let total_demand: f64 = remaining.iter().map(|&i| demands[i].predicted_cycles).sum();
        let r = if total_demand > 0.0 { (remaining_capacity / total_demand).min(1.0) } else { 1.0 };
        let mut pinned = Vec::new();
        for &i in &remaining {
            if demands[i].min_rate > r {
                pinned.push(i);
            }
        }
        if pinned.is_empty() {
            for &i in &remaining {
                rates[i] = r.max(demands[i].min_rate);
            }
            break;
        }
        for &i in &pinned {
            rates[i] = demands[i].min_rate;
            remaining_capacity -= demands[i].min_cycles();
            remaining.retain(|&j| j != i);
        }
        if remaining.is_empty() {
            break;
        }
        remaining_capacity = remaining_capacity.max(0.0);
    }

    for &i in &enabled {
        allocations[i] =
            Allocation::Rate(rates[i].clamp(0.0, 1.0).max(demands[i].min_rate).min(1.0));
    }
    allocations
}

/// The equal-sampling-rate strategy used by the Chapter 4 load shedder and as
/// the `eq_srates` baseline of Chapter 5: one common rate for every query;
/// queries whose minimum rate cannot be met are disabled for the batch and
/// the rate is recomputed for the remaining ones.
pub fn eq_srates(demands: &[QueryDemand], capacity: f64) -> Vec<Allocation> {
    let mut allocations = vec![Allocation::Disabled; demands.len()];
    let mut active: Vec<usize> = (0..demands.len()).collect();
    loop {
        let total: f64 = active.iter().map(|&i| demands[i].predicted_cycles).sum();
        let rate = if total > 0.0 { (capacity / total).min(1.0) } else { 1.0 };
        // Disable the query with the largest minimum rate above the common rate.
        let violator = active
            .iter()
            .copied()
            .filter(|&i| demands[i].min_rate > rate)
            .max_by(|&a, &b| demands[a].min_cycles().total_cmp(&demands[b].min_cycles()));
        if let Some(i) = violator {
            active.retain(|&j| j != i);
            if active.is_empty() {
                return allocations;
            }
        } else {
            for &i in &active {
                allocations[i] = Allocation::Rate(rate);
            }
            return allocations;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_cycles(demands: &[QueryDemand], allocations: &[Allocation]) -> f64 {
        demands.iter().zip(allocations).map(|(d, a)| d.predicted_cycles * a.rate()).sum()
    }

    #[test]
    fn no_overload_gives_full_rates() {
        let demands = vec![QueryDemand::new(100.0, 0.1), QueryDemand::new(200.0, 0.5)];
        for strategy in [mmfs_cpu, mmfs_pkt, eq_srates] {
            let allocations = strategy(&demands, 1000.0);
            assert!(allocations.iter().all(|a| (a.rate() - 1.0).abs() < 1e-9), "{allocations:?}");
        }
    }

    #[test]
    fn allocations_respect_capacity() {
        let demands = vec![
            QueryDemand::new(1000.0, 0.1),
            QueryDemand::new(500.0, 0.2),
            QueryDemand::new(2000.0, 0.05),
        ];
        let capacity = 1200.0;
        for strategy in [mmfs_cpu, mmfs_pkt, eq_srates] {
            let allocations = strategy(&demands, capacity);
            let used = total_cycles(&demands, &allocations);
            assert!(used <= capacity * 1.001, "used {used} exceeds capacity {capacity}");
        }
    }

    #[test]
    fn minimum_rates_are_honoured_for_enabled_queries() {
        let demands = vec![
            QueryDemand::new(1000.0, 0.3),
            QueryDemand::new(1000.0, 0.6),
            QueryDemand::new(1000.0, 0.05),
        ];
        for strategy in [mmfs_cpu, mmfs_pkt] {
            let allocations = strategy(&demands, 1500.0);
            for (demand, allocation) in demands.iter().zip(&allocations) {
                if let Allocation::Rate(rate) = allocation {
                    assert!(
                        *rate >= demand.min_rate - 1e-9,
                        "rate {rate} below minimum {}",
                        demand.min_rate
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_minimums_disable_largest_min_demand_first() {
        // Total minimum demand = 0.9*1000 + 0.5*1000 + 0.1*1000 = 1500 > 800.
        let demands = vec![
            QueryDemand::new(1000.0, 0.9),
            QueryDemand::new(1000.0, 0.5),
            QueryDemand::new(1000.0, 0.1),
        ];
        let allocations = mmfs_pkt(&demands, 800.0);
        assert!(allocations[0].is_disabled(), "largest minimum demand should be disabled");
        assert!(!allocations[2].is_disabled(), "smallest minimum demand should survive");
    }

    #[test]
    fn mmfs_pkt_equalises_rates_not_cycles() {
        // One heavy query (10x cost) and one light query, no minimum rates.
        let demands = vec![QueryDemand::new(10_000.0, 0.0), QueryDemand::new(1000.0, 0.0)];
        let capacity = 5500.0;
        let pkt = mmfs_pkt(&demands, capacity);
        // Common rate = 5500 / 11000 = 0.5 for both.
        assert!((pkt[0].rate() - 0.5).abs() < 1e-6);
        assert!((pkt[1].rate() - 0.5).abs() < 1e-6);

        let cpu = mmfs_cpu(&demands, capacity);
        // CPU fairness gives both queries ~2750 cycles: the light query gets
        // rate 1.0 and the heavy one ~0.45.
        assert!((cpu[1].rate() - 1.0).abs() < 1e-6, "light query should be unsampled: {cpu:?}");
        assert!(cpu[0].rate() < 0.5, "heavy query should be sampled harder: {cpu:?}");
    }

    #[test]
    fn mmfs_cpu_maximises_the_minimum_allocation() {
        let demands = vec![
            QueryDemand::new(4000.0, 0.0),
            QueryDemand::new(3000.0, 0.0),
            QueryDemand::new(500.0, 0.0),
        ];
        let allocations = mmfs_cpu(&demands, 4500.0);
        let cycles: Vec<f64> =
            demands.iter().zip(&allocations).map(|(d, a)| d.predicted_cycles * a.rate()).collect();
        // The small query is fully satisfied; the two big ones split the rest
        // evenly (2000 each).
        assert!((cycles[2] - 500.0).abs() < 1.0);
        assert!((cycles[0] - 2000.0).abs() < 5.0, "{cycles:?}");
        assert!((cycles[1] - 2000.0).abs() < 5.0, "{cycles:?}");
    }

    #[test]
    fn an_over_bid_costs_the_honest_queries_under_eq_srates_and_only_the_bidder_under_mmfs_cpu() {
        // Theorem 5.1 with three players at capacity 900: query 1 declares
        // twice the equilibrium action C / |Q| where all three need 200, so
        // the declared demand (200 + 600 + 200) overflows a budget the
        // honest profile fits in.
        let game = crate::game::AllocationGame::new(900.0, 3, crate::game::FairnessMode::Cpu);
        let bid = 2.0 * game.equilibrium_action();
        assert_eq!(bid, 600.0);
        let demands = [
            QueryDemand::new(200.0, 0.0),
            QueryDemand::new(bid, 0.0),
            QueryDemand::new(200.0, 0.0),
        ];

        // One rate for all: the honest queries pay for the over-bid.
        let shared = eq_srates(&demands, 900.0);
        assert!(shared[0].rate() < 1.0 && shared[2].rate() < 1.0, "{shared:?}");

        // Max-min fair share contains the deviation: the honest queries
        // keep their full rates, and only the over-bidder is cut.
        let fair = mmfs_cpu(&demands, 900.0);
        assert_eq!((fair[0].rate(), fair[2].rate()), (1.0, 1.0), "{fair:?}");
        assert!(fair[1].rate() < 1.0, "the over-bidder absorbs its own cut: {fair:?}");
    }

    #[test]
    fn eq_srates_disables_queries_with_unmeetable_minimums() {
        let demands = vec![QueryDemand::new(1000.0, 0.9), QueryDemand::new(1000.0, 0.1)];
        let allocations = eq_srates(&demands, 600.0);
        // Common rate would be 0.3 < 0.9, so the first query is disabled and
        // the second gets min(1, 600/1000) = 0.6.
        assert!(allocations[0].is_disabled());
        assert!((allocations[1].rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_disables_or_zeroes_everything() {
        let demands = vec![QueryDemand::new(1000.0, 0.2), QueryDemand::new(100.0, 0.0)];
        for strategy in [mmfs_cpu, mmfs_pkt, eq_srates] {
            let allocations = strategy(&demands, 0.0);
            let used = total_cycles(&demands, &allocations);
            assert!(used < 1e-6, "capacity zero must not allocate cycles: {allocations:?}");
        }
    }

    #[test]
    fn empty_demand_list_is_fine() {
        assert!(mmfs_cpu(&[], 100.0).is_empty());
        assert!(mmfs_pkt(&[], 100.0).is_empty());
        assert!(eq_srates(&[], 100.0).is_empty());
    }

    #[test]
    fn trait_objects_match_the_free_functions() {
        let demands = vec![
            QueryDemand::new(1000.0, 0.1),
            QueryDemand::new(500.0, 0.2),
            QueryDemand::new(2000.0, 0.05),
        ];
        let capacity = 1200.0;
        type FreeFn = fn(&[QueryDemand], f64) -> Vec<Allocation>;
        let pairs: [(Box<dyn AllocationStrategy>, FreeFn); 3] = [
            (Box::new(EqualRates), eq_srates),
            (Box::new(MmfsCpu), mmfs_cpu),
            (Box::new(MmfsPkt), mmfs_pkt),
        ];
        for (strategy, free_fn) in pairs {
            assert_eq!(strategy.allocate(&demands, capacity), free_fn(&demands, capacity));
        }
    }

    #[test]
    fn strategy_names_match_the_report_names() {
        assert_eq!(EqualRates.name(), "eq_srates");
        assert_eq!(MmfsCpu.name(), "mmfs_cpu");
        assert_eq!(MmfsPkt.name(), "mmfs_pkt");
    }
}
