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
//!   NetTopology ─────►  CandidatePath ×2 ──►  UgalChooser ──► (minimal?, DecisionRecord)
//!   (per topology)            │                    ▲
//!                             ▼                    │ (q_m, q_nm)
//!                      CongestionEstimator ────────┘
//!                      (QueueOccupancy │ VcOccupancy │ VcHybrid │
//!                       CreditCommitted │ GlobalOracle │ EwmaOccupancy)
//! ```
//!
//! A topology enumerates its minimal and non-minimal candidates once —
//! the first-hop port, VC schedule entry and hop count of each, as the
//! `minimal_candidate` / `non_minimal_candidate` items of the
//! `dragonfly` crate's `NetTopology` trait — and any
//! [`CongestionEstimator`] becomes available to it, including the
//! credit-round-trip estimator that only the dragonfly used before this
//! layer existed. The estimators read live queue state exclusively
//! through the [`NetView`] hooks ([`NetView::occupancy`],
//! [`NetView::vc_occupancy`], [`NetView::committed`],
//! [`NetView::vc_committed`]), which is where
//! the engine keeps its congestion-sensing state (per-port occupancy
//! aggregates, VC queue depths, outstanding-credit counters fed by the
//! credit-timestamp mechanism).
//!
//! [`UgalChooser::choose`] returns the decision together with its
//! [`DecisionRecord`] — the chosen path's estimator and oracle readings
//! and the disagreement, fault and probe-fallback flags — which a
//! routing's [`crate::RoutingAlgorithm::inject`] hands to the engine
//! unchanged.

use std::fmt;

use crate::routing::{DecisionRecord, NetView};

/// First-hop summary of one candidate path, produced by a topology
/// (the `dragonfly` crate's `NetTopology::minimal_candidate` and
/// `non_minimal_candidate`) and consumed by a [`CongestionEstimator`].
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

/// A congestion estimator: turns the two candidates into the queue
/// estimates `(q_m, q_nm)` the UGAL rule compares.
///
/// Implementations read live state only through the [`NetView`] hooks,
/// so they work unchanged on every topology. Both candidates are passed
/// together because the hybrid estimators discriminate per-VC only when
/// the candidates share an output port.
pub trait CongestionEstimator: fmt::Debug + Send + Sync {
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

    /// Applies the UGAL rule to the two candidates at `router`: `true`
    /// to take the minimal one, with the decision's telemetry record.
    ///
    /// When the spec carries faults, a candidate whose first hop is a
    /// failed link is masked: the surviving candidate wins outright
    /// (`fault_avoided`), with no queue comparison, so the record is
    /// neither adaptive nor scored. Topologies enumerate candidates
    /// around dead links before calling this, so the mask is a backstop;
    /// if both first hops are somehow dead it falls through to the queue
    /// rule (the engine's hop bound, not this chooser, owns that
    /// pathology).
    pub fn choose(
        &self,
        view: &NetView<'_>,
        router: usize,
        minimal: &CandidatePath,
        non_minimal: &CandidatePath,
    ) -> (bool, DecisionRecord) {
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
                let record = DecisionRecord {
                    fault_avoided: true,
                    dropped_candidates: dropped_candidates + 1,
                    probe_fallbacks,
                    ..DecisionRecord::default()
                };
                return (nm_dead, record);
            }
        }
        let takes_minimal =
            |(qm, qnm): (u64, u64)| qm * minimal.hops as u64 <= qnm * non_minimal.hops as u64;
        let (qm, qnm) = self.estimator.estimate(view, router, minimal, non_minimal);
        let take_minimal = takes_minimal((qm, qnm));
        // Decision-quality telemetry: would plain queue occupancy have
        // chosen differently? (Reads queue state only — no RNG — so it
        // cannot perturb determinism.)
        let baseline = QueueOccupancy.estimate(view, router, minimal, non_minimal);
        // Estimator-accuracy scoreboard: the oracle's ground-truth view
        // of the same candidates (same no-RNG argument as above).
        let (om, onm) = GlobalOracle.estimate(view, router, minimal, non_minimal);
        let record = DecisionRecord {
            adaptive: true,
            estimator_disagreed: take_minimal != takes_minimal(baseline),
            fault_avoided: false,
            dropped_candidates,
            probe_fallbacks,
            q_chosen: if take_minimal { qm } else { qnm },
            oracle_chosen: if take_minimal { om } else { onm },
            oracle_disagreed: take_minimal != takes_minimal((om, onm)),
            oracle_scored: true,
        };
        (take_minimal, record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::routing::ShortestPathRouting;
    use crate::spec::{ChannelClass, Connection, NetworkSpec, PortSpec, RouterSpec};
    use crate::{SimConfig, Simulation};
    use dfly_traffic::TrafficPattern;
    use rand::rngs::SmallRng;

    /// A triangle: R0 hosts terminals 0 and 1 and reaches R1 (terminal 2)
    /// through port 2 and R2 (terminal 3) through port 3; R1 and R2 are
    /// linked too, so failing the R0 - R2 cable keeps it connected.
    fn triangle() -> NetworkSpec {
        let term = |t: u32| PortSpec {
            conn: Connection::Terminal { terminal: t },
            latency: 1,
            class: ChannelClass::Terminal,
        };
        let link = |r: u32, p: u32| PortSpec {
            conn: Connection::Router { router: r, port: p },
            latency: 1,
            class: ChannelClass::Local,
        };
        let routers = vec![
            RouterSpec {
                ports: vec![term(0), term(1), link(1, 0), link(2, 0)],
            },
            RouterSpec {
                ports: vec![link(0, 2), link(2, 1), term(2)],
            },
            RouterSpec {
                ports: vec![link(0, 3), link(1, 1), term(3)],
            },
        ];
        NetworkSpec::validated(routers, 2).unwrap()
    }

    /// Every terminal sends to terminal 2, which sends to terminal 0:
    /// R0's two terminals share port 2, so its VC 0 queue backs up
    /// while port 3 stays idle.
    #[derive(Debug)]
    struct ToTwo;
    impl TrafficPattern for ToTwo {
        fn num_terminals(&self) -> usize {
            4
        }
        fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
            if source == 2 {
                0
            } else {
                2
            }
        }
    }

    /// Runs `check` on a view of `spec` after 300 saturated cycles.
    fn congested(spec: &NetworkSpec, check: impl FnOnce(&NetView<'_>)) {
        let routing = ShortestPathRouting::try_new(spec).unwrap();
        let mut cfg = SimConfig::paper_default(1.0);
        cfg.warmup = 10;
        cfg.measure = 10;
        cfg.drain_cap = 0;
        let mut sim = Simulation::new(spec, &routing, &ToTwo, cfg).unwrap();
        for _ in 0..300 {
            sim.step();
        }
        check(&sim.view());
    }

    #[test]
    fn a_fault_masked_shortcut_takes_the_survivor_unscored() {
        let spec = triangle()
            .with_faults(&FaultPlan::Explicit(vec![(0, 3)]))
            .unwrap();
        congested(&spec, |view| {
            let live = CandidatePath::new(2, 0, 1).with_dropped(2);
            let dead = CandidatePath::new(3, 0, 2).with_dropped(1);
            let chooser = UgalChooser::new(Box::new(GlobalOracle));
            for (minimal, non_minimal, take_minimal) in [(live, dead, true), (dead, live, false)] {
                let (took, record) = chooser.choose(view, 0, &minimal, &non_minimal);
                assert_eq!(took, take_minimal, "the surviving candidate wins");
                assert!(record.fault_avoided && !record.adaptive);
                assert_eq!(record.dropped_candidates, 2 + 1 + 1);
                // Neither candidate carries a probe point.
                assert_eq!(record.probe_fallbacks, 2);
                assert!(!record.oracle_scored && !record.oracle_disagreed);
                assert!(!record.estimator_disagreed);
                assert_eq!((record.q_chosen, record.oracle_chosen), (0, 0));
            }
        });
    }

    #[test]
    fn a_scored_record_reads_the_chosen_path() {
        congested(&triangle(), |view| {
            assert!(view.vc_occupancy(0, 2, 0) >= 8, "port 2 must back up");
            assert_eq!(view.occupancy(0, 3), 0);
            let pairs = [
                // Same congested queue, shorter minimal: minimal wins
                // on a non-zero reading; the oracle probes an idle
                // channel for the detour and disagrees.
                (
                    CandidatePath::new(2, 0, 1).with_probe(0, 2),
                    CandidatePath::new(2, 0, 2).with_probe(0, 3),
                ),
                // An idle VC of the congested port against the idle
                // port: the per-VC readings tie, the port totals do not.
                (CandidatePath::new(2, 1, 1), CandidatePath::new(3, 0, 2)),
                (CandidatePath::new(3, 0, 1), CandidatePath::new(2, 0, 2)),
            ];
            let estimators: [fn() -> Box<dyn CongestionEstimator>; 6] = [
                || Box::new(QueueOccupancy),
                || Box::new(VcOccupancy),
                || Box::new(VcHybrid),
                || Box::new(CreditCommitted),
                || Box::new(GlobalOracle),
                || Box::new(EwmaOccupancy::new(2)),
            ];
            let (mut disagreed, mut oracle_disagreed, mut nonzero) = (false, false, false);
            for (m, nm) in &pairs {
                let rule =
                    |e: Box<dyn CongestionEstimator>| UgalChooser::new(e).choose(view, 0, m, nm).0;
                let queue_takes_minimal = rule(Box::new(QueueOccupancy));
                let oracle_takes_minimal = rule(Box::new(GlobalOracle));
                let (om, onm) = GlobalOracle.estimate(view, 0, m, nm);
                for estimator in estimators {
                    // A fresh EWMA's first reading passes through, so a
                    // second fresh instance reproduces the chooser's.
                    let (qm, qnm) = estimator().estimate(view, 0, m, nm);
                    let (took, record) = UgalChooser::new(estimator()).choose(view, 0, m, nm);
                    let ctx = format!("{:?} on {m:?} / {nm:?}", estimator());
                    assert_eq!(took, qm * m.hops as u64 <= qnm * nm.hops as u64, "{ctx}");
                    assert!(record.adaptive && record.oracle_scored, "{ctx}");
                    assert!(!record.fault_avoided, "{ctx}");
                    assert_eq!(record.q_chosen, if took { qm } else { qnm }, "{ctx}");
                    assert_eq!(record.oracle_chosen, if took { om } else { onm }, "{ctx}");
                    assert_eq!(
                        record.estimator_disagreed,
                        took != queue_takes_minimal,
                        "{ctx}"
                    );
                    assert_eq!(
                        record.oracle_disagreed,
                        took != oracle_takes_minimal,
                        "{ctx}"
                    );
                    disagreed |= record.estimator_disagreed;
                    oracle_disagreed |= record.oracle_disagreed;
                    nonzero |= record.q_chosen > 0 && record.oracle_chosen > 0;
                }
            }
            assert!(
                disagreed && oracle_disagreed && nonzero,
                "cases must not be vacuous"
            );
        });
    }

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
