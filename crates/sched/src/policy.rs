//! FC-kernel placement policies.

use crate::estimator::AiEstimator;
use papi_types::Time;
use serde::{Deserialize, Serialize};

/// Where an FC kernel executes this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// The high-performance processor's processing units (GPU tensor
    /// cores).
    Pu,
    /// The FC-PIM devices.
    FcPim,
}

impl core::fmt::Display for Placement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Placement::Pu => f.write_str("PU"),
            Placement::FcPim => f.write_str("FC-PIM"),
        }
    }
}

/// Decision statistics a scheduler accumulates over a decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Placement decisions made.
    pub decisions: u64,
    /// Times the placement changed from the previous iteration — each
    /// one is a runtime rescheduling event (paper Fig. 5(d)).
    pub switches: u64,
    /// Decisions that chose the PU.
    pub pu_decisions: u64,
    /// Decisions that chose FC-PIM.
    pub fc_pim_decisions: u64,
}

/// A policy deciding FC-kernel placement from the observed parallelism.
///
/// Attention placement is not part of the trait: in every system the
/// paper evaluates, attention runs on whatever memory-side device holds
/// the KV cache.
///
/// `Send` is a supertrait so serving sessions holding a boxed
/// scheduler stay `Send` and can be stepped on any thread.
pub trait FcScheduler: Send {
    /// Decides the placement for an iteration at `(rlp, tlp)`.
    fn decide(&mut self, rlp: u64, tlp: u64) -> Placement;

    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Statistics so far.
    fn stats(&self) -> SchedulerStats;
}

/// PAPI's dynamic parallelism-aware scheduler (paper §5.2): estimate
/// `AI ≈ RLP × TLP`, compare with the calibrated threshold `α`, place on
/// the PU when compute-bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PapiScheduler {
    alpha: f64,
    last: Option<Placement>,
    stats: SchedulerStats,
}

impl PapiScheduler {
    /// Creates the scheduler with threshold `alpha` (from
    /// [`calibrate_alpha`](crate::calibrate_alpha)).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    #[track_caller]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be positive and finite"
        );
        Self {
            alpha,
            last: None,
            stats: SchedulerStats::default(),
        }
    }

    /// The memory-boundedness threshold.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl FcScheduler for PapiScheduler {
    fn decide(&mut self, rlp: u64, tlp: u64) -> Placement {
        let placement = if AiEstimator::estimate(rlp, tlp) > self.alpha {
            Placement::Pu
        } else {
            Placement::FcPim
        };
        self.stats.decisions += 1;
        match placement {
            Placement::Pu => self.stats.pu_decisions += 1,
            Placement::FcPim => self.stats.fc_pim_decisions += 1,
        }
        if let Some(last) = self.last {
            if last != placement {
                self.stats.switches += 1;
            }
        }
        self.last = Some(placement);
        placement
    }

    fn name(&self) -> &str {
        "papi-dynamic"
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

/// A static policy: the same placement forever, as in AttAcc (FC always
/// on the GPU), IANUS (FC always on PIM), or a PIM-only system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticScheduler {
    placement: Placement,
    label: String,
    stats: SchedulerStats,
}

impl StaticScheduler {
    /// AttAcc's mapping: FC kernels always on the GPU.
    pub fn attacc() -> Self {
        Self {
            placement: Placement::Pu,
            label: "static-fc-on-gpu (AttAcc)".to_owned(),
            stats: SchedulerStats::default(),
        }
    }

    /// IANUS / PIM-only mapping: FC kernels always on PIM.
    pub fn pim_only() -> Self {
        Self {
            placement: Placement::FcPim,
            label: "static-fc-on-pim (IANUS/PIM-only)".to_owned(),
            stats: SchedulerStats::default(),
        }
    }

    /// An arbitrary fixed placement.
    pub fn fixed(placement: Placement) -> Self {
        Self {
            placement,
            label: format!("static-{placement}"),
            stats: SchedulerStats::default(),
        }
    }
}

impl FcScheduler for StaticScheduler {
    fn decide(&mut self, _rlp: u64, _tlp: u64) -> Placement {
        self.stats.decisions += 1;
        match self.placement {
            Placement::Pu => self.stats.pu_decisions += 1,
            Placement::FcPim => self.stats.fc_pim_decisions += 1,
        }
        self.placement
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

/// The oracle: given the *true* latency of both targets, always picks
/// the faster one. An upper bound no online policy can beat — used to
/// measure how much of the oracle's win the α-threshold captures.
pub struct OracleScheduler<F, G>
where
    F: FnMut(u64) -> Time + Send,
    G: FnMut(u64) -> Time + Send,
{
    pim_latency: F,
    pu_latency: G,
    last: Option<Placement>,
    stats: SchedulerStats,
}

impl<F, G> OracleScheduler<F, G>
where
    F: FnMut(u64) -> Time + Send,
    G: FnMut(u64) -> Time + Send,
{
    /// Creates the oracle from latency callbacks taking the token count
    /// `RLP × TLP`.
    pub fn new(pim_latency: F, pu_latency: G) -> Self {
        Self {
            pim_latency,
            pu_latency,
            last: None,
            stats: SchedulerStats::default(),
        }
    }
}

impl<F, G> core::fmt::Debug for OracleScheduler<F, G>
where
    F: FnMut(u64) -> Time + Send,
    G: FnMut(u64) -> Time + Send,
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OracleScheduler")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<F, G> FcScheduler for OracleScheduler<F, G>
where
    F: FnMut(u64) -> Time + Send,
    G: FnMut(u64) -> Time + Send,
{
    fn decide(&mut self, rlp: u64, tlp: u64) -> Placement {
        let tokens = rlp * tlp;
        let pim = (self.pim_latency)(tokens);
        let pu = (self.pu_latency)(tokens);
        let placement = if pu.value() < pim.value() {
            Placement::Pu
        } else {
            Placement::FcPim
        };
        self.stats.decisions += 1;
        match placement {
            Placement::Pu => self.stats.pu_decisions += 1,
            Placement::FcPim => self.stats.fc_pim_decisions += 1,
        }
        if let Some(last) = self.last {
            if last != placement {
                self.stats.switches += 1;
            }
        }
        self.last = Some(placement);
        placement
    }

    fn name(&self) -> &str {
        "oracle"
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papi_scheduler_thresholds_on_tokens() {
        let mut s = PapiScheduler::new(24.0);
        assert_eq!(s.decide(4, 1), Placement::FcPim); // 4 ≤ 24
        assert_eq!(s.decide(16, 1), Placement::FcPim); // 16 ≤ 24
        assert_eq!(s.decide(16, 2), Placement::Pu); // 32 > 24
        assert_eq!(s.decide(64, 4), Placement::Pu);
        let stats = s.stats();
        assert_eq!(stats.decisions, 4);
        assert_eq!(stats.pu_decisions, 2);
        assert_eq!(stats.fc_pim_decisions, 2);
        assert_eq!(stats.switches, 1);
    }

    #[test]
    fn papi_scheduler_reproduces_fig5d_rescheduling() {
        // Fig. 5(d): as requests finish, RLP decays 5→4→4→3→2 and the FC
        // kernel migrates PU → PIM once RLP×TLP crosses α.
        let mut s = PapiScheduler::new(3.5);
        let placements: Vec<Placement> = [5u64, 4, 4, 3, 2]
            .iter()
            .map(|&rlp| s.decide(rlp, 1))
            .collect();
        assert_eq!(
            placements,
            [
                Placement::Pu,
                Placement::Pu,
                Placement::Pu,
                Placement::FcPim,
                Placement::FcPim
            ]
        );
        assert_eq!(s.stats().switches, 1);
    }

    #[test]
    fn static_schedulers_never_switch() {
        let mut attacc = StaticScheduler::attacc();
        let mut pim = StaticScheduler::pim_only();
        for rlp in [1u64, 128, 2, 64] {
            assert_eq!(attacc.decide(rlp, 8), Placement::Pu);
            assert_eq!(pim.decide(rlp, 8), Placement::FcPim);
        }
        assert_eq!(attacc.stats().switches, 0);
        assert_eq!(pim.stats().switches, 0);
        assert!(attacc.name().contains("AttAcc"));
    }

    #[test]
    fn oracle_picks_argmin() {
        // PIM latency grows with tokens; PU latency flat: oracle flips at
        // the crossover.
        let mut oracle = OracleScheduler::new(
            |tokens| Time::from_micros(tokens as f64),
            |_| Time::from_micros(10.0),
        );
        assert_eq!(oracle.decide(4, 1), Placement::FcPim);
        assert_eq!(oracle.decide(16, 1), Placement::Pu);
        assert_eq!(oracle.stats().switches, 1);
        assert_eq!(oracle.name(), "oracle");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        PapiScheduler::new(0.0);
    }
}
