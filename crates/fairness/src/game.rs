//! The resource allocation game and its Nash equilibrium (Section 5.3).
//!
//! Each query is a player whose action is its declared minimum cycle demand
//! `a_q = m_q × d̂_q`. The system satisfies all minimum demands it can —
//! disabling the largest demands first when they do not fit — and then shares
//! any spare cycles max-min fairly among the active queries (Equation 5.7).
//! Theorem 5.1 shows the game has a single Nash equilibrium where every
//! player demands exactly `C / |Q|`; this module lets the experiments verify
//! that claim numerically.

/// Which max-min fair share flavour distributes the spare cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessMode {
    /// Spare cycles split max-min fairly in CPU terms (equal split here,
    /// since the game model places no upper bound on what a query can use).
    Cpu,
    /// Spare cycles split in proportion to demand (equal sampling-rate
    /// increase), the packet-access flavour.
    Packet,
}

/// Relative slack on "fits in the capacity". The symmetric profile of
/// Theorem 5.1 sums `|Q|` copies of `C / |Q|`, which in floating point lands a
/// few ulps *above* `C` for many capacities (6 × (1 000 001 / 6) already
/// does); compared exactly, that profile served nobody. Rounding error is at
/// most `|Q|` ulps relative, many orders below this.
const FIT_TOLERANCE: f64 = 1e-12;

/// The strategic game played by non-cooperative queries.
#[derive(Debug, Clone, Copy)]
pub struct AllocationGame {
    /// System capacity `C` in cycles.
    pub capacity: f64,
    /// Number of players `|Q|`.
    pub players: usize,
    /// How spare cycles are shared.
    pub mode: FairnessMode,
}

impl AllocationGame {
    /// Creates a game.
    pub fn new(capacity: f64, players: usize, mode: FairnessMode) -> Self {
        assert!(players > 0, "the game needs at least one player");
        Self { capacity, players, mode }
    }

    /// The symmetric action profile of Theorem 5.1: every player demands
    /// `C / |Q|`.
    pub fn equilibrium_action(&self) -> f64 {
        self.capacity / self.players as f64
    }

    /// Computes every player's payoff (allocated cycles) for an action
    /// profile, following Equation 5.7.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() != self.players`.
    pub fn payoffs(&self, actions: &[f64]) -> Vec<f64> {
        assert_eq!(actions.len(), self.players, "one action per player");

        // Determine which players' minimum demands can be satisfied: sort by
        // demand ascending and accumulate while the running total fits.
        let mut order: Vec<usize> = (0..self.players).collect();
        order.sort_by(|&a, &b| actions[a].total_cmp(&actions[b]));
        let mut active = vec![false; self.players];
        let mut used = 0.0;
        let fits = |cycles: f64| cycles <= self.capacity * (1.0 + FIT_TOLERANCE);
        for &player in &order {
            // Equation 5.7: player q is served if the sum of all demands not
            // larger than a_q (including ties and itself) fits in C.
            let not_larger: f64 = actions.iter().filter(|&&a| a <= actions[player]).sum();
            if fits(not_larger) && fits(used + actions[player]) {
                active[player] = true;
                used += actions[player];
            }
        }

        let active_count = active.iter().filter(|&&a| a).count();
        let spare = (self.capacity - used).max(0.0);
        let active_demand: f64 = (0..self.players).filter(|&i| active[i]).map(|i| actions[i]).sum();

        (0..self.players)
            .map(|player| {
                if !active[player] {
                    return 0.0;
                }
                let share = match self.mode {
                    FairnessMode::Cpu => {
                        if active_count > 0 {
                            spare / active_count as f64
                        } else {
                            0.0
                        }
                    }
                    FairnessMode::Packet => {
                        if active_demand > 0.0 {
                            spare * actions[player] / active_demand
                        } else if active_count > 0 {
                            spare / active_count as f64
                        } else {
                            0.0
                        }
                    }
                };
                actions[player] + share
            })
            .collect()
    }

    /// Returns the best payoff player `player` can obtain by unilaterally
    /// deviating to any action on a grid of `grid` points over `[0, C]`,
    /// keeping the other actions fixed.
    pub fn best_unilateral_payoff(&self, actions: &[f64], player: usize, grid: usize) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut candidate = actions.to_vec();
        for step in 0..=grid {
            let action = self.capacity * step as f64 / grid as f64;
            candidate[player] = action;
            let payoff = self.payoffs(&candidate)[player];
            if payoff > best {
                best = payoff;
            }
        }
        best
    }

    /// Checks whether an action profile is an (approximate) Nash equilibrium:
    /// no player can improve its payoff by more than `tolerance` by deviating
    /// to any action on the search grid.
    pub fn is_nash_equilibrium(&self, actions: &[f64], grid: usize, tolerance: f64) -> bool {
        let payoffs = self.payoffs(actions);
        (0..self.players).all(|player| {
            let best = self.best_unilateral_payoff(actions, player, grid);
            best <= payoffs[player] + tolerance
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equilibrium_profile_is_a_nash_equilibrium() {
        for mode in [FairnessMode::Cpu, FairnessMode::Packet] {
            let game = AllocationGame::new(1000.0, 5, mode);
            let actions = vec![game.equilibrium_action(); 5];
            assert!(
                game.is_nash_equilibrium(&actions, 200, 1e-6),
                "C/|Q| should be a Nash equilibrium ({mode:?})"
            );
        }
    }

    #[test]
    fn the_symmetric_profile_is_served_when_its_sum_rounds_above_the_capacity() {
        // 6 x (1 000 001 / 6) is one ulp above 1 000 001, and a capacity drawn
        // from a trace does the same: compared without a tolerance the
        // profile of Theorem 5.1 served nobody and the Nash check read false.
        for (capacity, players) in [(1_000_001.0, 6), (1_000_002.0, 7), (165_416_310.052_167_36, 7)]
        {
            let share = capacity / players as f64;
            let sum: f64 = std::iter::repeat_n(share, players).sum();
            assert!(sum > capacity, "{players} x ({capacity} / {players}) must round up");
            for mode in [FairnessMode::Cpu, FairnessMode::Packet] {
                let game = AllocationGame::new(capacity, players, mode);
                let actions = vec![game.equilibrium_action(); players];
                for payoff in game.payoffs(&actions) {
                    assert!((payoff - share).abs() <= 1e-9 * share, "{mode:?}: served {payoff}");
                }
                assert!(game.is_nash_equilibrium(&actions, 100, 1e-6), "{mode:?} at {capacity}");
            }
        }
    }

    #[test]
    fn underbidding_profile_is_not_an_equilibrium() {
        let game = AllocationGame::new(1000.0, 4, FairnessMode::Cpu);
        // Everyone demands far less than C/|Q|: any player can grab more.
        let actions = vec![50.0; 4];
        assert!(!game.is_nash_equilibrium(&actions, 200, 1e-6));
    }

    #[test]
    fn overbidding_is_punished_with_zero_payoff() {
        let game = AllocationGame::new(1000.0, 4, FairnessMode::Cpu);
        // One player asks for more than its fair share while others ask C/|Q|.
        let mut actions = vec![250.0; 4];
        actions[0] = 400.0;
        let payoffs = game.payoffs(&actions);
        assert_eq!(payoffs[0], 0.0, "the greedy player should be disabled");
        assert!(payoffs[1] > 250.0, "others should pick up the spare cycles");
    }

    #[test]
    fn payoffs_never_exceed_capacity() {
        let game = AllocationGame::new(500.0, 3, FairnessMode::Packet);
        for profile in [[100.0, 200.0, 300.0], [400.0, 400.0, 400.0], [0.0, 0.0, 0.0]] {
            let total: f64 = game.payoffs(&profile).iter().sum();
            assert!(total <= 500.0 + 1e-9, "total payoff {total} exceeds capacity");
        }
    }

    #[test]
    fn equal_profile_splits_capacity_evenly() {
        let game = AllocationGame::new(900.0, 3, FairnessMode::Cpu);
        let payoffs = game.payoffs(&[100.0, 100.0, 100.0]);
        for p in payoffs {
            assert!((p - 300.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "one action per player")]
    fn wrong_action_count_panics() {
        let game = AllocationGame::new(100.0, 2, FairnessMode::Cpu);
        let _ = game.payoffs(&[1.0]);
    }
}
