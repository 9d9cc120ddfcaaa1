//! Topology-agnostic adaptive routing: candidate paths, pluggable
//! congestion estimators, and the generic UGAL chooser.
//!
//! The paper's UGAL family is one decision — *minimal or Valiant, per
//! packet* — parameterised by where the congestion estimate comes from
//! (§4.3). This module factors that decision out of the topologies:
//!
//! ```text
//!   topology            engine hooks              decision
//!   ────────            ────────────              ────────
//!   CandidatePaths ──►  CandidatePath ×2 ──►  UgalChooser ──► minimal?
//!   (per topology)            │                    ▲
//!                             ▼                    │ (q_m, q_nm)
//!                      CongestionEstimator ────────┘
//!                      (QueueOccupancy │ VcOccupancy │ VcHybrid │
//!                       CreditCommitted │ GlobalOracle)
//! ```
//!
//! A topology implements [`CandidatePaths`] once — enumerating the
//! first-hop port, VC schedule entry and hop count of its minimal and
//! non-minimal candidates — and any [`CongestionEstimator`] becomes
//! available to it, including the credit-round-trip estimator that only
//! the dragonfly used before this layer existed. The estimators read
//! live queue state exclusively through the [`NetView`] hooks
//! ([`NetView::occupancy`], [`NetView::vc_occupancy`],
//! [`NetView::committed`], [`NetView::vc_committed`]), which is where
//! the engine keeps its congestion-sensing state (per-port occupancy
//! aggregates, VC queue depths, outstanding-credit counters fed by the
//! credit-timestamp mechanism).

use std::fmt;

use crate::routing::{DecisionRecord, NetView};

/// First-hop summary of one candidate path, produced by a topology's
/// [`CandidatePaths`] implementation and consumed by a
/// [`CongestionEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidatePath {
    /// Output port the path takes out of the deciding router.
    pub port: u16,
    /// VC the packet would occupy on that first channel (the first entry
    /// of the path's VC schedule).
    pub vc: u8,
    /// Router-to-router channel hops on the whole path.
    pub hops: u32,
    /// Router owning the path's bottleneck (e.g. first global) channel,
    /// for oracle estimators; `u32::MAX` when the path has none.
    pub probe_router: u32,
    /// Port of that bottleneck channel on its owning router.
    pub probe_port: u16,
    /// How many alternative candidates of this class the topology
    /// discarded because a fault made them unusable (dead first hop or
    /// dead link further along the path). Surfaced through run
    /// telemetry as `dropped_candidates`.
    pub dropped: u32,
}

impl CandidatePath {
    /// A candidate leaving through `port` on `vc` with `hops` total
    /// router-to-router hops and no oracle probe point.
    pub fn new(port: usize, vc: usize, hops: u32) -> Self {
        CandidatePath {
            port: port as u16,
            vc: vc as u8,
            hops,
            probe_router: u32::MAX,
            probe_port: 0,
            dropped: 0,
        }
    }

    /// Attaches the bottleneck-channel probe point read by
    /// [`GlobalOracle`].
    pub fn with_probe(mut self, router: usize, port: usize) -> Self {
        self.probe_router = router as u32;
        self.probe_port = port as u16;
        self
    }

    /// Records `n` fault-discarded alternatives of this class.
    pub fn with_dropped(mut self, n: u32) -> Self {
        self.dropped = n;
        self
    }

    /// Whether an oracle probe point is attached.
    pub fn has_probe(&self) -> bool {
        self.probe_router != u32::MAX
    }
}

/// A topology's enumeration of the two UGAL candidates.
///
/// `dest` is a terminal index; `intermediate` is a topology-interpreted
/// tag (the dragonfly's intermediate *group*, the flattened butterfly's
/// intermediate *router*, …) matching the `intermediate` field the
/// topology stores in its non-minimal [`crate::RouteInfo`]s; `salt` is
/// the per-packet salt used to pre-select among parallel channels so
/// the queue a decision inspects is the queue the packet will use.
pub trait CandidatePaths {
    /// The minimal candidate from `router` toward `dest`.
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath;

    /// The non-minimal (Valiant) candidate from `router` toward `dest`
    /// through `intermediate`.
    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        salt: u32,
    ) -> CandidatePath;
}

/// A congestion estimator: turns the two candidates into the queue
/// estimates `(q_m, q_nm)` the UGAL rule compares.
///
/// Implementations read live state only through the [`NetView`] hooks,
/// so they work unchanged on every topology. Both candidates are passed
/// together because the hybrid estimators discriminate per-VC only when
/// the candidates share an output port.
pub trait CongestionEstimator: fmt::Debug + Send + Sync {
    /// Estimator name for reports, e.g. `"queue-occupancy"`.
    fn name(&self) -> &'static str;

    /// Queue estimates `(q_m, q_nm)` for taking `minimal` respectively
    /// `non_minimal` out of `router`.
    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64);

    /// Whether this estimator reads candidate probe points (and thus
    /// degrades to a local estimate on candidates without one). The
    /// chooser counts those degradations so a UGAL-G comparison is never
    /// *silently* UGAL-L.
    fn needs_probe(&self) -> bool {
        false
    }
}

/// UGAL-L: total output-queue occupancy of each candidate's first-hop
/// port at the deciding router (the paper's "local queue information").
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueOccupancy;

impl CongestionEstimator for QueueOccupancy {
    fn name(&self) -> &'static str {
        "queue-occupancy"
    }

    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64) {
        (
            view.occupancy(router, minimal.port as usize) as u64,
            view.occupancy(router, non_minimal.port as usize) as u64,
        )
    }
}

/// UGAL-L_VC: per-VC output-queue occupancy, always — each candidate is
/// judged by the depth of the VC its own class would occupy.
#[derive(Debug, Clone, Copy, Default)]
pub struct VcOccupancy;

impl CongestionEstimator for VcOccupancy {
    fn name(&self) -> &'static str {
        "vc-occupancy"
    }

    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64) {
        (
            view.vc_occupancy(router, minimal.port as usize, minimal.vc as usize) as u64,
            view.vc_occupancy(router, non_minimal.port as usize, non_minimal.vc as usize) as u64,
        )
    }
}

/// UGAL-L_VCH: per-VC occupancy only when both candidates leave through
/// the same output port, total occupancy otherwise — the paper's hybrid
/// that fixes UGAL-L_VC's uniform-random throughput loss.
#[derive(Debug, Clone, Copy, Default)]
pub struct VcHybrid;

impl CongestionEstimator for VcHybrid {
    fn name(&self) -> &'static str {
        "vc-hybrid"
    }

    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64) {
        if minimal.port == non_minimal.port {
            VcOccupancy.estimate(view, router, minimal, non_minimal)
        } else {
            QueueOccupancy.estimate(view, router, minimal, non_minimal)
        }
    }
}

/// UGAL-L(EWMA): an integer exponentially weighted moving average of
/// each candidate's first-hop queue occupancy at the deciding router,
/// with weight `1 / 2^shift` on new readings. Instantaneous occupancy
/// is a noisy signal under bursty (Markov on/off) injection — the
/// estimator-accuracy scoreboard shows the raw occupancy estimators
/// tracking transients the oracle has already drained. Smoothing over
/// successive decisions at the same output damps that noise.
///
/// The accumulator for a port is kept scaled by `2^shift` and updated
/// as `s ← s − (s >> shift) + x` per reading; the estimate is
/// `s >> shift`, seeded so the first reading passes through exactly.
/// All arithmetic is integral, so results are bit-reproducible.
///
/// The estimator carries per-(router, port) state across decisions:
/// build a **fresh instance per run** (as [`crate::UgalChooser`]
/// construction does) — sharing one instance across runs would leak
/// state between them. Within a run, a port's state is only ever
/// touched by injections at its own router, in terminal order, so the
/// sharded engine reproduces it bit-identically at any shard count.
#[derive(Debug, Default)]
pub struct EwmaOccupancy {
    shift: u32,
    state: std::sync::Mutex<std::collections::BTreeMap<(u32, u16), u64>>,
}

impl EwmaOccupancy {
    /// An estimator with weight `1 / 2^shift` on new readings.
    pub fn new(shift: u32) -> Self {
        EwmaOccupancy {
            shift,
            state: std::sync::Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Folds reading `x` into the port's accumulator and returns the
    /// smoothed estimate.
    fn update(
        state: &mut std::collections::BTreeMap<(u32, u16), u64>,
        key: (u32, u16),
        x: u64,
        shift: u32,
    ) -> u64 {
        let s = state.entry(key).or_insert(x << shift);
        *s = *s - (*s >> shift) + x;
        *s >> shift
    }
}

impl CongestionEstimator for EwmaOccupancy {
    fn name(&self) -> &'static str {
        "ewma-occupancy"
    }

    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64) {
        let (qm, qnm) = QueueOccupancy.estimate(view, router, minimal, non_minimal);
        let mut state = self.state.lock().expect("ewma state poisoned");
        let r = router as u32;
        let em = Self::update(&mut state, (r, minimal.port), qm, self.shift);
        if non_minimal.port == minimal.port {
            // Same output queue: one reading, one accumulator advance.
            (em, em)
        } else {
            let enm = Self::update(&mut state, (r, non_minimal.port), qnm, self.shift);
            (em, enm)
        }
    }
}

/// UGAL-L(CR): the hybrid rule over credit-inclusive estimates — queue
/// depth **plus** the flits sent on the first-hop channel whose credits
/// have not returned. Paired with [`crate::CreditMode::RoundTrip`]
/// (credits return when a flit leaves the downstream router, delayed in
/// proportion to measured congestion), this senses a congested remote
/// channel within one credit round trip (§4.3.2 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct CreditCommitted;

impl CongestionEstimator for CreditCommitted {
    fn name(&self) -> &'static str {
        "credit-round-trip"
    }

    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64) {
        if minimal.port == non_minimal.port {
            (
                view.vc_committed(router, minimal.port as usize, minimal.vc as usize) as u64,
                view.vc_committed(router, non_minimal.port as usize, non_minimal.vc as usize)
                    as u64,
            )
        } else {
            (
                view.committed(router, minimal.port as usize) as u64,
                view.committed(router, non_minimal.port as usize) as u64,
            )
        }
    }
}

/// UGAL-G: oracle occupancy of each candidate's bottleneck channel, read
/// from whichever router owns it — an idealised upper bound no real
/// implementation has access to. Falls back to the local first-hop
/// occupancy for candidates without a probe point.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalOracle;

impl GlobalOracle {
    fn read(&self, view: &NetView<'_>, router: usize, path: &CandidatePath) -> u64 {
        if path.has_probe() {
            view.occupancy(path.probe_router as usize, path.probe_port as usize) as u64
        } else {
            view.occupancy(router, path.port as usize) as u64
        }
    }
}

impl CongestionEstimator for GlobalOracle {
    fn name(&self) -> &'static str {
        "global-oracle"
    }

    fn estimate(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (u64, u64) {
        (
            self.read(view, router, minimal),
            self.read(view, router, non_minimal),
        )
    }

    fn needs_probe(&self) -> bool {
        true
    }
}

/// Outcome of one [`UgalChooser::choose`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UgalDecision {
    /// `true` to take the minimal candidate.
    pub minimal: bool,
    /// The estimator's queue estimate for the minimal candidate.
    pub q_minimal: u64,
    /// The estimator's queue estimate for the non-minimal candidate.
    pub q_non_minimal: u64,
    /// Whether the configured estimator chose differently from the plain
    /// [`QueueOccupancy`] baseline on the same candidates — the
    /// decision-quality signal surfaced through run telemetry.
    pub estimator_disagreed: bool,
    /// Whether a fault forced the outcome: one candidate's first hop was
    /// a failed link, so the other was taken without comparing queues.
    pub fault_avoided: bool,
    /// Fault-discarded alternatives accumulated over both candidates
    /// (see [`CandidatePath::dropped`]).
    pub dropped_candidates: u32,
    /// How many of the candidates lacked a probe point under an
    /// estimator that [`CongestionEstimator::needs_probe`] — each one a
    /// silent oracle→local degradation (0, 1 or 2).
    pub probe_fallbacks: u32,
    /// The oracle's ground-truth reading for the minimal candidate
    /// (bottleneck-channel occupancy, local first hop when probe-less).
    pub oracle_minimal: u64,
    /// The oracle's ground-truth reading for the non-minimal candidate.
    pub oracle_non_minimal: u64,
    /// Whether the UGAL rule evaluated over the oracle readings would
    /// have picked the other path — the estimator-accuracy scoreboard's
    /// disagreement signal.
    pub oracle_disagreed: bool,
    /// Whether oracle readings were taken; `false` on fault-masked
    /// shortcuts, which never reach the queue comparison.
    pub oracle_scored: bool,
}

impl UgalDecision {
    /// The estimator's reading for the candidate that was chosen.
    pub fn q_chosen(&self) -> u64 {
        if self.minimal {
            self.q_minimal
        } else {
            self.q_non_minimal
        }
    }

    /// The oracle's reading for the candidate that was chosen.
    pub fn oracle_chosen(&self) -> u64 {
        if self.minimal {
            self.oracle_minimal
        } else {
            self.oracle_non_minimal
        }
    }
}

/// The telemetry record of a chooser outcome. A fault-masked shortcut
/// compared no queues, so it does not count as an adaptive decision.
impl From<&UgalDecision> for DecisionRecord {
    fn from(decision: &UgalDecision) -> Self {
        DecisionRecord {
            adaptive: !decision.fault_avoided,
            estimator_disagreed: decision.estimator_disagreed,
            fault_avoided: decision.fault_avoided,
            dropped_candidates: decision.dropped_candidates,
            probe_fallbacks: decision.probe_fallbacks,
            q_chosen: decision.q_chosen(),
            oracle_chosen: decision.oracle_chosen(),
            oracle_disagreed: decision.oracle_disagreed,
            oracle_scored: decision.oracle_scored,
        }
    }
}

/// The generic UGAL rule: take the minimal candidate iff
/// `q_m · H_m ≤ q_nm · H_nm`, with queue estimates from a pluggable
/// [`CongestionEstimator`].
///
/// The arithmetic (u64 products, `<=` favouring minimal on ties) is the
/// one the paper's §4.3 rule prescribes and every topology previously
/// duplicated.
#[derive(Debug)]
pub struct UgalChooser {
    estimator: Box<dyn CongestionEstimator>,
}

impl UgalChooser {
    /// A chooser over the given estimator.
    pub fn new(estimator: Box<dyn CongestionEstimator>) -> Self {
        UgalChooser { estimator }
    }

    /// The configured estimator's name.
    pub fn estimator_name(&self) -> &'static str {
        self.estimator.name()
    }

    /// Applies the UGAL rule to the two candidates at `router`.
    ///
    /// When the spec carries faults, a candidate whose first hop is a
    /// failed link is masked: the surviving candidate wins outright
    /// (`fault_avoided`), with no queue comparison. Topologies enumerate
    /// candidates around dead links before calling this, so the mask is
    /// a backstop; if both first hops are somehow dead it falls through
    /// to the queue rule (the engine's hop bound, not this chooser, owns
    /// that pathology).
    pub fn choose(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> UgalDecision {
        let dropped_candidates = minimal.dropped + non_minimal.dropped;
        let probe_fallbacks = if self.estimator.needs_probe() {
            u32::from(!minimal.has_probe()) + u32::from(!non_minimal.has_probe())
        } else {
            0
        };
        let spec = view.spec();
        if spec.has_faults() {
            let m_dead = spec.is_failed(router, minimal.port as usize);
            let nm_dead = spec.is_failed(router, non_minimal.port as usize);
            if m_dead != nm_dead {
                return UgalDecision {
                    minimal: nm_dead,
                    q_minimal: 0,
                    q_non_minimal: 0,
                    estimator_disagreed: false,
                    fault_avoided: true,
                    dropped_candidates: dropped_candidates + 1,
                    probe_fallbacks,
                    oracle_minimal: 0,
                    oracle_non_minimal: 0,
                    oracle_disagreed: false,
                    oracle_scored: false,
                };
            }
        }
        let (qm, qnm) = self.estimator.estimate(view, router, minimal, non_minimal);
        let take_minimal = qm * minimal.hops as u64 <= qnm * non_minimal.hops as u64;
        // Decision-quality telemetry: would plain queue occupancy have
        // chosen differently? (Reads queue state only — no RNG — so it
        // cannot perturb determinism.)
        let (bm, bnm) = QueueOccupancy.estimate(view, router, minimal, non_minimal);
        let baseline_minimal = bm * minimal.hops as u64 <= bnm * non_minimal.hops as u64;
        // Estimator-accuracy scoreboard: the oracle's ground-truth view
        // of the same candidates (same no-RNG argument as above).
        let (om, onm) = GlobalOracle.estimate(view, router, minimal, non_minimal);
        let oracle_minimal_take = om * minimal.hops as u64 <= onm * non_minimal.hops as u64;
        UgalDecision {
            minimal: take_minimal,
            q_minimal: qm,
            q_non_minimal: qnm,
            estimator_disagreed: take_minimal != baseline_minimal,
            fault_avoided: false,
            dropped_candidates,
            probe_fallbacks,
            oracle_minimal: om,
            oracle_non_minimal: onm,
            oracle_disagreed: take_minimal != oracle_minimal_take,
            oracle_scored: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_probe_roundtrip() {
        let c = CandidatePath::new(3, 1, 4);
        assert!(!c.has_probe());
        assert_eq!(c.dropped, 0);
        let c = c.with_probe(7, 2).with_dropped(3);
        assert!(c.has_probe());
        assert_eq!((c.probe_router, c.probe_port), (7, 2));
        assert_eq!(c.dropped, 3);
    }

    #[test]
    fn only_the_oracle_needs_probes() {
        assert!(GlobalOracle.needs_probe());
        assert!(!QueueOccupancy.needs_probe());
        assert!(!VcOccupancy.needs_probe());
        assert!(!VcHybrid.needs_probe());
        assert!(!CreditCommitted.needs_probe());
        assert!(!EwmaOccupancy::new(2).needs_probe());
    }

    #[test]
    fn estimator_names_are_distinct() {
        let names = [
            QueueOccupancy.name(),
            VcOccupancy.name(),
            VcHybrid.name(),
            CreditCommitted.name(),
            GlobalOracle.name(),
            EwmaOccupancy::new(2).name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn ewma_smooths_toward_new_readings() {
        let mut state = std::collections::BTreeMap::new();
        let key = (0u32, 0u16);
        // First reading passes through exactly.
        assert_eq!(EwmaOccupancy::update(&mut state, key, 8, 2), 8);
        // A constant signal is a fixed point.
        assert_eq!(EwmaOccupancy::update(&mut state, key, 8, 2), 8);
        // A step change moves the estimate by 1/4 of the gap.
        let e = EwmaOccupancy::update(&mut state, key, 0, 2);
        assert_eq!(e, 6);
        // Repeated zeros converge to zero.
        let mut last = e;
        for _ in 0..64 {
            last = EwmaOccupancy::update(&mut state, key, 0, 2);
        }
        assert_eq!(last, 0);
        // Distinct ports keep independent accumulators.
        assert_eq!(EwmaOccupancy::update(&mut state, (0, 1), 4, 2), 4);
        assert_eq!(state.len(), 2);
    }
}
