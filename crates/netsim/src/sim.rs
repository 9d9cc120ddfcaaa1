//! The cycle-driven simulation engine.
//!
//! The router model follows the paper's Figure 13: a single-cycle router
//! with *per-output queues* (`q0`…`q3` in the figure) and enough internal
//! speedup that the switch itself is never the bottleneck. Concretely,
//! each router has a small credited input stage per (channel, VC) and
//! bounded per-(output, VC) queues; flits move from the input stage into
//! their output queue with unlimited speedup and each output transmits
//! one flit per cycle. Congestion therefore backs up exactly the way the
//! paper describes: an overloaded global channel fills its output queue,
//! which stalls the switching stage, which fills the input buffers and
//! exhausts the upstream credits, which fills the upstream router's
//! output queue — the `q` values that adaptive routing inspects.
//!
//! Each cycle proceeds in three phases:
//!
//! 1. **Credits and generation** — due credits increment upstream
//!    counters (in round-trip mode the credit-timestamp queue is popped
//!    and the per-output `td` register updated), and every polled
//!    terminal's workload is offered the cycle.
//! 2. **The router pass** — each router due a visit is taken through
//!    three steps before the next router is touched:
//!    - *arrivals*: flits finishing their channel traversal are
//!      route-computed and enter the input stage;
//!    - *switch*: flits move from the input stage into their target
//!      output queue while it has space;
//!    - *transmit*: every output port sends one flit (round-robin over
//!      its VC queues, subject to downstream credits) and returns the
//!      credit of the input it came through, delayed by the credit
//!      round-trip mechanism when enabled; terminal ports eject.
//! 3. **Injection** — every polled terminal routes the packet at the
//!    head of its source queue (the adaptive decision of the UGAL family
//!    happens here, at the source router, seeing the settled
//!    post-transmission queues) and sends one flit onto its injection
//!    channel if a credit is available. A terminal whose queue is then
//!    empty asks its workload how long it stays quiet and sleeps on a
//!    wake calendar until then.
//!
//! The pass may visit routers one at a time because no step reads
//! another router's queues: `route` sees only the router and the flit,
//! and whatever a transmit sends arrives at a later cycle.
//!
//! That sequence is written down once, as `EngineShared::phases`; the
//! run loop (`worker_drive`) and [`Simulation::step`] are its only two
//! walkers. Every phase walks a worklist — due credits, the routers due
//! a visit and their loaded channels and occupied ports, polled
//! terminals — so a cycle costs what is in flight, not what the network
//! could hold.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dfly_traffic::{rng_for, Bernoulli, Delivery, OnOff, OpenLoop, TrafficPattern, Workload};
use rand::rngs::SmallRng;

use crate::arena::{FlitArena, FlitQueue};
use crate::config::{
    thread_budget, CreditMode, InjectionKind, SimConfig, TdEstimator, Termination,
};
use crate::error::SimError;
use crate::flit::{Flit, RouteClass, RouteInfo};
use crate::health::{warmup_convergence, StallReport};
use crate::routing::{DecisionRecord, NetView, PortVc, RoutingAlgorithm};
use crate::spec::{ChannelClass, Connection, NetworkSpec, PortSpec};
use crate::stats::{ChannelLoad, Histogram, LatencySummary, RouteTelemetry, RunStats};
use crate::telemetry::{
    ChannelSeries, EstimatorScoreboard, FlitTracer, LogHistogram, TimeSeries, TraceEventKind,
};

/// Live state of one router (visible crate-wide so [`NetView`] can read
/// the output-queue depths).
///
/// Every structure here is sized by the router's radix (ports × VCs),
/// never by the node count: the queues are 12-byte intrusive handle
/// lists into the owning shard's [`FlitArena`], so a million-terminal
/// network costs O(routers × radix) memory regardless of how many flits
/// are in flight.
#[derive(Debug)]
pub(crate) struct RouterCore {
    /// Input stage: arriving flits, flattened `[in_port * vcs + vc]`,
    /// capacity `buffer_depth` each (enforced by upstream credits).
    /// Each entry's arena `aux` word packs the [`PortVc`] its route
    /// computation produced.
    inputs: Vec<FlitQueue>,
    /// Input ports with flits in the input stage: bit `p` is set exactly
    /// when `in_port_count[p] > 0`. The switch step visits only these;
    /// zero means the input stage is empty.
    in_mask: u128,
    /// Flits in the input stage per input port.
    in_port_count: Vec<u16>,
    /// Per-output queues, flattened `[out_port * vcs + out_vc]`, capacity
    /// `buffer_depth` each — the `q` values of the paper's Figure 13.
    /// Each entry's arena `aux` word packs the input `(port, VC)` the
    /// flit arrived through, whose credit is returned when the flit is
    /// transmitted.
    pub(crate) out_q: Vec<FlitQueue>,
    /// Output ports with queued flits: bit `p` is set exactly when
    /// `out_port_count[p] > 0`. The transmit step visits only these;
    /// zero means the output queues are empty.
    out_mask: u128,
    /// Flits in the output queues per output port (the O(1) aggregate
    /// behind [`NetView::occupancy`]).
    pub(crate) out_port_count: Vec<u16>,
    /// Credits available toward the downstream input stage of each
    /// output, flattened `[out_port * vcs + vc]`. Meaningless for
    /// terminal ports.
    pub(crate) credits: Vec<u32>,
    /// Credits consumed toward downstream and not yet returned, per
    /// output port (always zero for terminal ports) — the aggregate
    /// [`NetView::committed`] reads in O(1).
    pub(crate) outstanding: Vec<u32>,
    /// Per-output round-robin pointer over VC queues.
    rr: Vec<u8>,
    /// Per-output credit timestamp queue. This and the three fields
    /// below exist only in round-trip credit mode; conventional runs
    /// leave them empty.
    ctq: Vec<VecDeque<u64>>,
    /// Per-output credit round-trip excess `td = tcrt − tcrt0`.
    td: Vec<u64>,
    /// Flits sent per output (for CTQ sampling).
    sent_seq: Vec<u32>,
    /// Credits received per output (for CTQ sampling).
    credit_seq: Vec<u32>,
}

/// Largest router radix the `u128` port-occupancy masks can hold.
const MAX_RADIX: usize = u128::BITS as usize;

impl RouterCore {
    /// Whether both occupancy masks are exactly the ports with a
    /// non-zero count (the invariant the debug builds re-check on every
    /// router visit).
    fn masks_match_counts(&self) -> bool {
        let (mut inputs, mut outputs) = (0u128, 0u128);
        for p in 0..self.in_port_count.len() {
            inputs |= u128::from(self.in_port_count[p] > 0) << p;
            outputs |= u128::from(self.out_port_count[p] > 0) << p;
        }
        self.in_mask == inputs && self.out_mask == outputs
    }

    /// Whether every credit slot of a terminal port (per `ports`, this
    /// router's wiring) still holds `buffer_depth`: ejection consumes no
    /// credits, which is what lets [`NetView::vc_committed`] read
    /// `buffer_depth − credits` without looking at the wiring. Debug
    /// builds re-check it on every router visit.
    fn terminal_credits_full(&self, ports: &[PortSpec], buffer_depth: usize) -> bool {
        let vcs = self.credits.len() / ports.len();
        ports
            .iter()
            .enumerate()
            .filter(|(_, port)| matches!(port.conn, Connection::Terminal { .. }))
            .all(|(port, _)| {
                self.credits[port * vcs..(port + 1) * vcs]
                    .iter()
                    .all(|&c| c as usize == buffer_depth)
            })
    }
}

/// Live state of one terminal.
struct TerminalCore {
    /// Unbounded source queue of generated flits (arena handles).
    source: FlitQueue,
    /// Route of the packet currently leaving the source queue.
    active_route: Option<RouteInfo>,
    /// Credits toward the router's injection input buffer, per VC.
    credits: Vec<u32>,
    /// Per-terminal RNG stream.
    rng: SmallRng,
}

/// Builds the open-loop workload the classic constructor drives a shard
/// with: the configured injection process cloned per terminal plus the
/// traffic pattern, draw-order-identical to the pre-workload engine.
fn open_loop_workload<'a>(
    kind: InjectionKind,
    range: std::ops::Range<usize>,
    pattern: &'a dyn TrafficPattern,
) -> Box<dyn Workload + Send + 'a> {
    match kind {
        InjectionKind::Bernoulli { rate } => {
            Box::new(OpenLoop::new(&Bernoulli::new(rate), range, pattern))
        }
        InjectionKind::OnOff { rate, burst_len } => Box::new(OpenLoop::new(
            &OnOff::with_rate(rate, burst_len),
            range,
            pattern,
        )),
        InjectionKind::MarkovOnOff {
            rate,
            burst_len,
            duty,
        } => Box::new(OpenLoop::new(
            &OnOff::with_rate_and_duty(rate, burst_len, duty)
                .expect("feasibility is checked by SimConfig::validate"),
            range,
            pattern,
        )),
    }
}

/// One packet generated in phase 1 (a workload [`MessageIntent`]
/// anchored to its source terminal), consumed by phase 3 under its
/// globally ordered packet id.
///
/// [`MessageIntent`]: dfly_traffic::MessageIntent
#[derive(Debug, Clone, Copy)]
struct StagedGen {
    term: u32,
    dest: u32,
    tag: u32,
    /// Whether work-complete termination waits on this packet (and hence
    /// whether it is labelled under that mode).
    tracked: bool,
}

/// Where a pending credit return lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CreditTarget {
    Router { router: u32, port: u32, vc: u8 },
    Terminal { term: u32, vc: u8 },
}

/// Calendar queue of events due at a future cycle — pending credit
/// returns ([`CreditTarget`]) and parked terminals' wake-ups: a
/// power-of-two ring of per-cycle FIFO buckets indexed by due cycle.
///
/// Push and delivery are O(1) per event with no comparisons, and
/// because every bucket is drained in insertion order the delivery
/// sequence is exactly the `(time, insertion seq)` order of the global
/// `BinaryHeap` this replaced — results are bit-identical.
#[derive(Debug)]
struct Calendar<T> {
    /// `buckets[time & mask]` holds the events due at `time`. Every
    /// pending time lies in `[now, now + buckets.len())`, so the
    /// bucket index maps back to an unambiguous absolute time.
    buckets: Vec<Vec<T>>,
    mask: u64,
    /// Total events pending across all buckets.
    pending: usize,
}

impl<T> Calendar<T> {
    /// A ring covering delays up to `horizon` cycles without growing.
    fn with_horizon(horizon: u64) -> Self {
        let len = (horizon + 1).max(4).next_power_of_two();
        Calendar {
            buckets: (0..len).map(|_| Vec::new()).collect(),
            mask: len - 1,
            pending: 0,
        }
    }

    /// Queues `event` for delivery at `time`, where `time >= now`.
    /// Channel latencies are >= 1 and wake-ups lie past the current
    /// cycle, so locally generated events land strictly in the future;
    /// credits drained from a cross-shard mailbox at the start of cycle
    /// `now` may be due exactly at `now`, whose bucket has not been
    /// taken yet.
    fn push(&mut self, now: u64, time: u64, event: T) {
        debug_assert!(time >= now);
        if time - now > self.mask {
            self.grow(now, time);
        }
        self.buckets[(time & self.mask) as usize].push(event);
        self.pending += 1;
    }

    /// Doubles the ring until `time` fits. Each occupied old bucket `b`
    /// holds the unique pending time `t ≡ b (mod old_len)` within
    /// `[now, now + old_len)`, so its contents move wholesale (FIFO
    /// order intact) to `t`'s slot in the larger ring.
    #[cold]
    fn grow(&mut self, now: u64, time: u64) {
        let old_len = self.mask + 1;
        let mut new_len = old_len;
        while time - now > new_len - 1 {
            new_len <<= 1;
        }
        // Extend in place, keeping every existing bucket allocation.
        // `new_len` is a multiple of `old_len`, so bucket `b`'s new
        // index is congruent to `b` mod `old_len`: either `b` itself or
        // a slot at or past `old_len`, which started empty — each move
        // is a plain swap that cannot displace another occupied bucket,
        // and per-bucket FIFO order is untouched.
        self.buckets.resize_with(new_len as usize, Vec::new);
        for b in 0..old_len as usize {
            if self.buckets[b].is_empty() {
                continue;
            }
            let t = now + ((b as u64).wrapping_sub(now) & (old_len - 1));
            let ni = (t & (new_len - 1)) as usize;
            if ni != b {
                self.buckets.swap(b, ni);
            }
        }
        self.mask = new_len - 1;
    }

    /// Removes and returns the bucket due at `now`; hand it back to
    /// [`Calendar::restore`] after draining so its allocation is
    /// recycled.
    fn take_due(&mut self, now: u64) -> Vec<T> {
        let due = std::mem::take(&mut self.buckets[(now & self.mask) as usize]);
        self.pending -= due.len();
        due
    }

    fn restore(&mut self, now: u64, mut bucket: Vec<T>) {
        bucket.clear();
        self.buckets[(now & self.mask) as usize] = bucket;
    }
}

/// The routers of one shard due a visit from the router pass: one bit
/// per owned router (offset `range.r0`) in each row of a ring of rows
/// indexed by cycle, longer than the longest channel. Row `t & mask`
/// holds the routers a flit reaches at `t` and those left with flits in
/// their input stage or output queues by cycle `t - 1`; the pass takes
/// the row, which leaves it clear for cycle `t + len`. A flit still on
/// a long channel costs its router no visit before it arrives.
#[derive(Debug)]
struct RouterWork {
    /// `u64` words per row.
    words: usize,
    mask: u64,
    rows: Vec<u64>,
}

impl RouterWork {
    fn new(routers: usize, max_latency: u64) -> Self {
        let len = (max_latency + 1).next_power_of_two();
        let words = routers.div_ceil(64);
        RouterWork {
            words,
            mask: len - 1,
            rows: vec![0; words * len as usize],
        }
    }

    /// Marks router `local` for a visit at `time`, which lies at most
    /// the longest channel latency ahead of the current cycle.
    #[inline]
    fn arm(&mut self, time: u64, local: usize) {
        self.rows[(time & self.mask) as usize * self.words + local / 64] |= 1 << (local % 64);
    }

    /// Takes word `w` of cycle `t`'s row.
    #[inline]
    fn take(&mut self, t: u64, w: usize) -> u64 {
        std::mem::take(&mut self.rows[(t & self.mask) as usize * self.words + w])
    }
}

/// Wall-clock performance counters for one simulation run, reported by
/// [`Simulation::run_instrumented`].
#[derive(Debug, Clone, Default)]
pub struct SimPerf {
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Total wall time of the run loop.
    pub wall: Duration,
    /// Wall time per slot, in [`SimPerf::PHASE_NAMES`] order. On a
    /// sharded run each entry is the *maximum* compute time any shard
    /// spent in that slot. Every phase ends at a barrier, so each
    /// phase's wall-clock segment is at least the slowest shard's
    /// compute time in it; only the three router-pass slots may take
    /// their maxima from different shards.
    pub phases: [Duration; 5],
    /// Network channel traversals (flit-hops) executed.
    pub flit_hops: u64,
    /// Number of router shards (worker threads) the run executed on.
    pub shards: usize,
    /// Per-shard compute time per phase, indexed `[shard][phase]` in
    /// [`SimPerf::PHASE_NAMES`] order — the raw table behind the
    /// engine → phase → shard span tree ([`crate::SpanTree`]).
    /// `phases` is the column-wise maximum of this table.
    pub shard_phases: Vec<[Duration; 5]>,
}

impl SimPerf {
    /// Names of the five timed slots, in `phases` order. A cycle has
    /// three phases: credits, the router pass, inject. Arrivals, switch
    /// and transmit are the three steps of the router pass, each timed
    /// on its own, so a router visit's time lands in three slots.
    pub const PHASE_NAMES: [&'static str; 5] =
        ["credits", "arrivals", "switch", "transmit", "inject"];

    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Flit-hops per wall-clock second (the engine's useful-work rate).
    pub fn flit_hops_per_sec(&self) -> f64 {
        self.flit_hops as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Merges the ascending `add` into the ascending `into`, in place from
/// the back. The two hold distinct terminals.
fn merge_sorted(into: &mut Vec<u32>, add: &[u32]) {
    let (mut i, mut j) = (into.len(), add.len());
    let mut k = i + j;
    into.resize(k, 0);
    while j > 0 {
        k -= 1;
        if i > 0 && into[i - 1] > add[j - 1] {
            i -= 1;
            into[k] = into[i];
        } else {
            j -= 1;
            into[k] = add[j];
        }
    }
}

/// Packs a `(port, VC)` pair into a flit's arena `aux` word: the
/// computed route while the flit waits in the input stage, the input it
/// arrived through once it sits in an output queue.
#[inline]
fn pack_pv(pv: PortVc) -> u32 {
    (u32::from(pv.port) << 8) | u32::from(pv.vc)
}

#[inline]
fn unpack_pv(aux: u32) -> PortVc {
    PortVc {
        port: (aux >> 8) as u16,
        vc: (aux & 0xff) as u8,
    }
}

// ---------------------------------------------------------------------
// Sharded cycle engine infrastructure
// ---------------------------------------------------------------------
//
// Routers are partitioned into contiguous shards; every intra-shard
// channel stays local to its worker thread and the >= 1-cycle pipeline
// latency of inter-shard channels is the synchronisation slack: a flit
// (or credit) transmitted at cycle `t` cannot be observed before cycle
// `t + 1`, so cross-shard traffic is staged into per-(source, target)
// mailboxes during the router pass and drained by the owning shard at
// the start of the next cycle. Three barriers per cycle — one per phase —
// keep every shard in the same phase at all times, which is what makes
// the split sound (see `ShardTable` for the aliasing protocol) and the
// results bit-identical at any shard count.

/// Interior-mutable router table shared by the shard workers.
///
/// Aliasing protocol, enforced by the per-cycle barriers:
///
/// * Phases 1 and 2 are shard-exclusive: a worker takes `&mut
///   RouterCore` only for routers inside its own contiguous range
///   (foreign credits and flits are staged through the exchange, never
///   applied directly).
/// * Phase 3 only reads router state, any shard's, through [`NetView`].
#[allow(unsafe_code)]
mod shard_table {
    use std::cell::UnsafeCell;

    #[derive(Debug)]
    pub(crate) struct ShardTable<T> {
        cells: Vec<UnsafeCell<T>>,
    }

    // SAFETY: concurrent access is coordinated by the barrier protocol
    // documented on the parent module; workers never form conflicting
    // references to the same field of the same element.
    unsafe impl<T: Send> Sync for ShardTable<T> {}

    impl<T> ShardTable<T> {
        pub fn new(items: Vec<T>) -> Self {
            ShardTable {
                cells: items.into_iter().map(UnsafeCell::new).collect(),
            }
        }

        pub fn len(&self) -> usize {
            self.cells.len()
        }

        /// Base pointer over the whole table (`UnsafeCell<T>` is
        /// `repr(transparent)` over `T`).
        pub fn base(&self) -> *const T {
            self.cells.as_ptr().cast()
        }

        /// Exclusive reference to element `i`.
        ///
        /// # Safety
        ///
        /// The caller must hold shard-exclusive access to `i`: no other
        /// thread may read or write any part of the element for the
        /// lifetime of the reference.
        #[allow(clippy::mut_from_ref)]
        pub unsafe fn get_mut(&self, i: usize) -> &mut T {
            &mut *self.cells[i].get()
        }

        /// Shared reference to element `i`.
        ///
        /// # Safety
        ///
        /// No thread may mutate the element for the lifetime of the
        /// reference.
        pub unsafe fn get_ref(&self, i: usize) -> &T {
            &*self.cells[i].get()
        }

        /// Exclusive view of the whole table; safe because `&mut self`
        /// rules out any concurrent access.
        #[cfg(test)]
        pub fn slice_mut(&mut self) -> &mut [T] {
            let len = self.cells.len();
            let base = self.cells.as_mut_ptr().cast::<T>();
            // SAFETY: `&mut self` is exclusive and the layout matches.
            unsafe { std::slice::from_raw_parts_mut(base, len) }
        }
    }
}
use shard_table::ShardTable;

/// Sense-reversing spin barrier; `wait` is a no-op for a single shard,
/// so the one-shard engine pays (almost) nothing for the rendezvous
/// points.
#[derive(Debug)]
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        if self.n <= 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            // Spin briefly for the dedicated-core case, then yield so
            // oversubscribed shards (more shards than cores) hand the
            // core to whoever still has phase work instead of burning
            // whole scheduler quanta.
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if spins < 1024 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A flit bound for another shard's router: `(destination router,
/// input port, arrival, flit)`.
type StagedFlit = (u32, u32, u64, Flit);

/// Cross-shard mailboxes and replicated-counter publication slots.
///
/// Mailboxes are indexed `[source_shard * shards + target_shard]` and
/// drained in fixed source order, so delivery order is deterministic —
/// and because each channel pipeline has exactly one source port, the
/// per-pipe FIFO order matches the serial engine exactly.
#[derive(Debug)]
struct Exchange {
    shards: usize,
    /// Staged cross-shard flits.
    flits: Vec<Mutex<Vec<StagedFlit>>>,
    /// Staged cross-shard credit returns: `(delivery time, target)`.
    credits: Vec<Mutex<Vec<(u64, CreditTarget)>>>,
    /// Staged cross-shard delivery notifications bound for a foreign
    /// terminal's workload: `(arrival, terminal, delivery)`. Follows the
    /// flit/credit mailbox protocol exactly (staged in phase 2, drained
    /// in fixed source order in phase 1), which is what keeps closed-loop
    /// runs bit-identical at any shard count.
    notes: Vec<Mutex<Vec<(u64, u32, Delivery)>>>,
    /// Packets generated by each shard this cycle; published in phase 1,
    /// read in phase 3 to derive the packet-id prefix sums (two barriers
    /// apart, so the plain store/load pair is race-free).
    gen_counts: Vec<AtomicU64>,
    /// Cumulative labelled packets generated per shard, published at the
    /// end of phase 3 so every shard evaluates the identical
    /// end-of-cycle termination condition.
    gen_labeled: Vec<AtomicU64>,
    /// Cumulative labelled packets ejected per shard (same protocol).
    eject_labeled: Vec<AtomicU64>,
    /// Whether each shard's workload reports [`Workload::all_done`]
    /// (published at the end of phase 3, like the labelled counters, so
    /// every shard evaluates the identical work-complete termination
    /// condition).
    work_done: Vec<AtomicU64>,
    /// Cumulative network flit-hops per shard, published at the end of
    /// phase 3 on watchdog checkpoint cycles only (zero cost when the
    /// watchdog is off). Read by every shard after the phase-3 barrier,
    /// like the labelled counters.
    wd_hops: Vec<AtomicU64>,
    /// Cumulative ejected packets (tail flits, labelled or not) per
    /// shard, same protocol as `wd_hops`.
    wd_ejects: Vec<AtomicU64>,
    /// Stall-attribution slots, one per shard. Written only on the
    /// stall path: every shard detects the stall on the same checkpoint
    /// cycle (the inputs are the replicated counters above), scans its
    /// own routers, writes its slot, rendezvouses at the barrier, then
    /// merges every slot in shard order — so the final report is
    /// bit-identical at any shard count.
    stall_slots: Mutex<Vec<Option<StallScan>>>,
    barrier: SpinBarrier,
}

/// One shard's local stall attribution, merged across shards in shard
/// order with fixed tie-breaks (largest count/depth wins, ties go to
/// the lowest router then port).
#[derive(Debug, Clone, Copy, Default)]
struct StallScan {
    /// `(blocked output ports, router)` of this shard's hottest router.
    /// A port is blocked when it has queued flits and no VC that is both
    /// non-empty and credited.
    blocked: Option<(usize, usize)>,
    /// `(queued flits, router, port)` of this shard's most backed-up
    /// blocked channel.
    starved: Option<(u64, usize, usize)>,
    /// Earliest creation cycle among this shard's in-flight flits.
    oldest_created: Option<u64>,
}

impl Exchange {
    fn new(shards: usize) -> Self {
        Exchange {
            shards,
            flits: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            credits: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            notes: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            gen_counts: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            gen_labeled: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            eject_labeled: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            work_done: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            wd_hops: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            wd_ejects: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            stall_slots: Mutex::new(vec![None; shards]),
            barrier: SpinBarrier::new(shards),
        }
    }

    /// Labelled packets still in flight, summed over every shard's
    /// published counters (identical on all shards after the phase-3
    /// barrier).
    fn labeled_outstanding(&self) -> u64 {
        let generated: u64 = self
            .gen_labeled
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        let ejected: u64 = self
            .eject_labeled
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        generated - ejected
    }

    /// Whether every shard's workload has reported completion (identical
    /// on all shards after the phase-3 barrier).
    fn all_work_done(&self) -> bool {
        self.work_done
            .iter()
            .all(|c| c.load(Ordering::Acquire) != 0)
    }
}

/// Contiguous slice of the network owned by one shard: routers
/// `[r0, r1)` and terminals `[t0, t1)`.
#[derive(Debug, Clone, Copy)]
struct ShardRange {
    r0: usize,
    r1: usize,
    t0: usize,
    t1: usize,
}

/// Resolves the configured shard count: `0` means auto — the
/// [`thread_budget`] shared with the sweep-level parallel layer — and
/// everything is clamped to the router count.
fn resolve_shards(cfg: &SimConfig, num_routers: usize) -> usize {
    let want = if cfg.shards == 0 {
        thread_budget()
    } else {
        cfg.shards
    };
    want.clamp(1, num_routers.max(1))
}

/// Cuts the routers into `shards` contiguous ranges balanced by flat
/// port count (the best static proxy for per-cycle work), then derives
/// the matching terminal ranges. Falls back to a single shard when the
/// terminal numbering is not monotone in router order — partitioning
/// such a network would break the global packet-id order that keeps
/// sharded runs bit-identical.
fn plan_shards(
    spec: &NetworkSpec,
    port_base: &[u32],
    total_flats: usize,
    shards: usize,
) -> Vec<ShardRange> {
    let num_routers = spec.num_routers();
    let num_terminals = spec.num_terminals();
    let single = vec![ShardRange {
        r0: 0,
        r1: num_routers,
        t0: 0,
        t1: num_terminals,
    }];
    if shards <= 1 {
        return single;
    }
    let mut cuts = Vec::with_capacity(shards + 1);
    cuts.push(0usize);
    for k in 1..shards {
        let target = (total_flats * k / shards) as u32;
        let split = port_base.partition_point(|&b| b < target);
        let prev = *cuts.last().unwrap();
        cuts.push(split.clamp(prev + 1, num_routers - (shards - k)));
    }
    cuts.push(num_routers);
    let shard_of = |r: usize| cuts.partition_point(|&c| c <= r) - 1;
    let mut terminal_start = vec![0usize; shards + 1];
    terminal_start[shards] = num_terminals;
    let mut current = 0usize;
    for t in 0..num_terminals {
        let s = shard_of(spec.terminal_router(t));
        if s < current {
            return single; // terminals not monotone in router order
        }
        while current < s {
            current += 1;
            terminal_start[current] = t;
        }
    }
    while current < shards - 1 {
        current += 1;
        terminal_start[current] = num_terminals;
    }
    (0..shards)
        .map(|s| ShardRange {
            r0: cuts[s],
            r1: cuts[s + 1],
            t0: terminal_start[s],
            t1: terminal_start[s + 1],
        })
        .collect()
}

/// Per-run state shared (immutably, plus the coordinated `ShardTable`
/// and `Exchange` interior mutability) by every shard worker.
struct EngineShared<'a> {
    spec: &'a NetworkSpec,
    cfg: SimConfig,
    routing: &'a dyn RoutingAlgorithm,
    routers: ShardTable<RouterCore>,
    /// First flat-port index of each router.
    port_base: Vec<u32>,
    /// Shard owning each router (where a flit or credit bound for a
    /// foreign router is staged).
    router_shard: Vec<u32>,
    /// Shard owning each terminal (delivery notes for a foreign source
    /// terminal route through its owner's mailbox).
    term_shard: Vec<u32>,
    /// Whether the workload asked for delivery notifications
    /// ([`Workload::wants_delivery`], uniform across shards). `false`
    /// skips every note-plumbing branch, keeping the open-loop hot path
    /// untouched.
    wants_delivery: bool,
    /// Network (non-terminal) output ports per router.
    net_ports: Vec<Vec<u16>>,
    win_start: u64,
    win_end: u64,
    exch: Exchange,
}

/// Mutable state owned by one shard worker.
///
/// Every per-channel / per-terminal / per-router vector here covers only
/// this shard's own contiguous range (offset by `flat0`, `range.t0` or
/// `range.r0` respectively); the worklists keep global indices. Total
/// engine memory is therefore O(network) once, not O(network × shards).
struct ShardState<'a> {
    id: usize,
    range: ShardRange,
    /// This shard's slice of the workload: offered in phase 1 for every
    /// polled terminal, notified of deliveries, and asked for completion
    /// under work-complete termination. Shard instances coordinate only
    /// through simulated messages.
    workload: Box<dyn Workload + Send + 'a>,
    /// Slab holding every flit currently inside this shard; all queues
    /// below (and in this shard's `RouterCore`s) store handles into it.
    arena: FlitArena,
    /// First flat port owned by this shard (`port_base[range.r0]`);
    /// index offset for `pipes` and `sent_in_window`.
    flat0: usize,
    /// Terminals `range.t0..range.t1` (index offset by `range.t0`).
    terminals: Vec<TerminalCore>,
    /// In-flight flits per channel into this shard's routers — network
    /// channels and terminal injection channels alike — indexed by the
    /// channel's *destination* flat port minus `flat0`. Channels are
    /// owned by their destination router's shard, which keeps every pipe
    /// a plain, lock-free queue. Each entry's arena `due` word holds its
    /// arrival cycle.
    pipes: Vec<FlitQueue>,
    /// Per owned router (offset `range.r0`), the input ports whose pipe
    /// holds flits: the channels the arrivals step looks at.
    pipe_mask: Vec<u128>,
    /// The routers the router pass visits, by cycle.
    work: RouterWork,
    credit_ring: Calendar<CreditTarget>,
    /// The terminals phases 1 and 3 visit this cycle, ascending: those
    /// with flits in their source queue, those whose workload asked to
    /// be offered again next cycle, and those the wake calendar just
    /// released. Every owned terminal starts here.
    poll: Vec<u32>,
    /// Phase 3's survivors, which become the next cycle's `poll`.
    poll_next: Vec<u32>,
    /// Parked terminals: source queue empty and the workload answered
    /// [`Workload::quiet_until`] with a later cycle, at which phase 1
    /// merges them back into `poll`.
    wake: Calendar<u32>,
    /// Terminals whose workload answered `u64::MAX`: on neither list,
    /// never polled again.
    retired: usize,
    /// The packets generated this cycle in phase 1, in ascending
    /// terminal order (the order of `poll`); consumed by phase 3.
    staged_gen: Vec<StagedGen>,
    /// Outgoing cross-shard flits, buffered per target shard and
    /// flushed into the exchange once per cycle.
    out_flits: Vec<Vec<StagedFlit>>,
    /// Outgoing cross-shard credit returns, same protocol.
    out_credits: Vec<Vec<(u64, CreditTarget)>>,
    /// Delivery notifications awaiting their arrival cycle, for
    /// terminals owned by this shard: `(arrival, terminal, delivery)`.
    /// Unsorted; due entries are extracted and canonically ordered each
    /// cycle in phase 1.
    pending_notes: Vec<(u64, u32, Delivery)>,
    /// Scratch buffer for the due notes of the current cycle.
    note_scratch: Vec<(u64, u32, Delivery)>,
    /// Outgoing cross-shard delivery notifications, per target shard.
    out_notes: Vec<Vec<(u64, u32, Delivery)>>,
    /// Cycle the workload completed at, under work-complete termination.
    completion: Option<u64>,
    flit_hops: u64,
    cycle: u64,
    /// Replicated global packet counter; every shard advances it by the
    /// same published total each cycle.
    next_packet: u64,
    /// Cumulative labelled packets generated by this shard's terminals.
    gen_labeled: u64,
    /// Cumulative labelled packets ejected at this shard's routers.
    eject_labeled: u64,
    /// Cumulative packets (tail flits, labelled or not) ejected at this
    /// shard's routers — the watchdog's progress/population counter.
    eject_total: u64,
    /// Global hop total at the previous watchdog checkpoint.
    wd_prev_hops: u64,
    /// Global ejected-packet total at the previous watchdog checkpoint.
    wd_prev_ejects: u64,
    /// Global in-flight packet count at the previous watchdog
    /// checkpoint (replicated — every shard computes the same value
    /// from the published counters).
    wd_prev_in_flight: u64,
    /// The stall report that ended this shard's run, if any (identical
    /// on every shard).
    stalled: Option<StallReport>,
    /// Packet ejections during each quarter of the warmup period
    /// (warmup-convergence diagnostics; merged by summation).
    warmup_ejects: [u64; 4],
    /// Summed packet latencies per warmup quarter, same protocol.
    warmup_lat: [u64; 4],
    injected_in_window: u64,
    ejected_in_window: u64,
    /// Flits sent per owned flat port during the measurement window
    /// (index offset by `flat0`); empty in scale mode, which drops the
    /// per-channel load report.
    sent_in_window: Vec<u64>,
    latency: LatencySummary,
    minimal_latency: LatencySummary,
    non_minimal_latency: LatencySummary,
    hops: LatencySummary,
    histogram: Histogram,
    minimal_histogram: Histogram,
    telemetry: RouteTelemetry,
    latency_log: LogHistogram,
    scoreboard: EstimatorScoreboard,
    sampler: Option<ChannelSampler>,
    tracer: Option<FlitTracer>,
    /// Per-phase compute time (excluding barrier waits).
    phases: [Duration; 5],
}

/// A cycle-accurate simulation of one network under one routing algorithm
/// and traffic pattern.
///
/// The engine shards routers across worker threads (see
/// [`SimConfig::shards`]); results are bit-identical at every shard
/// count, so the default of one shard is purely a performance choice.
///
/// # Example
///
/// Simulating a three-router line at light load:
///
/// ```
/// use dfly_netsim::{
///     ChannelClass, Connection, NetworkSpec, PortSpec, RouterSpec, ShortestPathRouting,
///     SimConfig, Simulation,
/// };
/// use dfly_traffic::UniformRandom;
///
/// # fn main() -> Result<(), dfly_netsim::SimError> {
/// let term = |t: u32| PortSpec {
///     conn: Connection::Terminal { terminal: t },
///     latency: 1,
///     class: ChannelClass::Terminal,
/// };
/// let link = |r: u32, p: u32| PortSpec {
///     conn: Connection::Router { router: r, port: p },
///     latency: 1,
///     class: ChannelClass::Local,
/// };
/// let spec = NetworkSpec::validated(
///     vec![
///         RouterSpec { ports: vec![term(0), link(1, 0)] },
///         RouterSpec { ports: vec![link(0, 1), link(2, 0), term(1)] },
///         RouterSpec { ports: vec![link(1, 1), term(2)] },
///     ],
///     2,
/// )?;
/// let routing = ShortestPathRouting::new(&spec);
/// let pattern = UniformRandom::new(3);
/// let sim = Simulation::new(&spec, &routing, &pattern, SimConfig::paper_default(0.1))?;
/// let stats = sim.finish();
/// assert!(stats.drained);
/// assert!(stats.avg_latency().unwrap() >= 2.0);
/// # Ok(())
/// # }
/// ```
pub struct Simulation<'a> {
    eng: EngineShared<'a>,
    /// At least one shard. Every shard finishes every cycle together,
    /// so the replicated run state (current cycle, stall diagnosis,
    /// completion cycle) is read off shard 0.
    shards: Vec<ShardState<'a>>,
}

/// Working state of the per-channel time-series sampler (per shard:
/// each shard samples only its own routers' channels, and the merged
/// series concatenates the shard series in shard order — which is
/// exactly global `(router, port)` order because shards are contiguous).
struct ChannelSampler {
    /// Sampling cadence in cycles (> 0).
    every: u64,
    /// Flat port index of each sampled channel, parallel to
    /// `series.channels`.
    flats: Vec<u32>,
    /// Lifetime flits transmitted per owned flat port (only maintained
    /// while the sampler exists; index offset by the shard's `flat0`).
    sent_total: Vec<u64>,
    /// `sent_total` snapshot at the previous sample tick, per sampled
    /// channel.
    prev_sent: Vec<u64>,
    /// The series under construction.
    series: TimeSeries,
}
impl<'a> EngineShared<'a> {
    fn in_window(&self, t: u64) -> bool {
        t >= self.win_start && t < self.win_end
    }

    /// Read-only view over every router's state at cycle `t` — the one
    /// place the engine turns the shared table into a [`NetView`].
    ///
    /// # Safety
    ///
    /// For the view's lifetime no thread may mutate any router. Each
    /// caller states why its phase guarantees this.
    #[allow(unsafe_code)]
    unsafe fn view(&self, t: u64) -> NetView<'_> {
        // SAFETY: `routers` holds `len` cores and stays borrowed, through
        // `&self`, for the view's whole lifetime; freedom from writers is
        // the caller's contract.
        unsafe {
            NetView::from_raw(
                self.spec,
                self.routers.base(),
                self.routers.len(),
                self.cfg.buffer_depth,
                t,
            )
        }
    }

    /// Phase 1 — drain the cross-shard mailboxes (flits and credits
    /// staged by other shards last cycle; their >= 1-cycle channel
    /// latency guarantees nothing is late), deliver due credits, merge
    /// the terminals the wake calendar releases this cycle into the
    /// poll list, and run the *generation* half of injection: the
    /// workload is offered every polled terminal in ascending order,
    /// and the packets that fire are published as a per-shard count so
    /// phase 3 can assign globally ordered packet ids. A parked terminal
    /// is not offered: its workload has already accounted for the
    /// draws those offers would have made ([`Workload::quiet_until`]),
    /// so the per-terminal draw order matches the serial, every-cycle
    /// engine exactly.
    #[allow(unsafe_code)]
    fn seg_credits(&self, st: &mut ShardState<'a>, t: u64) {
        let shards = self.exch.shards;
        if shards > 1 {
            for src in 0..shards {
                let mut inbox = self.exch.flits[src * shards + st.id]
                    .lock()
                    .expect("flit mailbox poisoned");
                for (router, port, arrival, flit) in inbox.drain(..) {
                    let h = st.arena.alloc(&flit);
                    self.enter_pipe(st, router as usize, port as usize, h, arrival);
                }
            }
            for src in 0..shards {
                let mut inbox = self.exch.credits[src * shards + st.id]
                    .lock()
                    .expect("credit mailbox poisoned");
                for (time, target) in inbox.drain(..) {
                    st.credit_ring.push(t, time, target);
                }
            }
        }
        if st.credit_ring.pending > 0 {
            let vcs = self.spec.vcs;
            let due = st.credit_ring.take_due(t);
            for &target in &due {
                match target {
                    CreditTarget::Router { router, port, vc } => {
                        let router = router as usize;
                        debug_assert!((st.range.r0..st.range.r1).contains(&router));
                        // SAFETY: phase 1 is shard-exclusive and foreign
                        // credits are staged, so `router` is owned here.
                        let core = unsafe { self.routers.get_mut(router) };
                        let slot = port as usize * vcs + vc as usize;
                        core.credits[slot] += 1;
                        core.outstanding[port as usize] -= 1;
                        debug_assert!(core.credits[slot] <= self.cfg.buffer_depth as u32);
                        if let CreditMode::RoundTrip { sample, estimator } = self.cfg.credit_mode {
                            let p = port as usize;
                            if core.credit_seq[p].is_multiple_of(sample) {
                                let ts = core.ctq[p]
                                    .pop_front()
                                    .expect("credit arrived with empty timestamp queue");
                                // The zero-load round trip of the channel.
                                let tcrt0 = 2 * self.spec.routers[router].ports[p].latency as u64;
                                let sample_td = (t - ts).saturating_sub(tcrt0);
                                core.td[p] = match estimator {
                                    TdEstimator::LastSample => sample_td,
                                    TdEstimator::Ewma { shift } => {
                                        let old = core.td[p];
                                        old - (old >> shift) + (sample_td >> shift)
                                    }
                                };
                            }
                            core.credit_seq[p] = core.credit_seq[p].wrapping_add(1);
                        }
                    }
                    CreditTarget::Terminal { term, vc } => {
                        let tc = &mut st.terminals[term as usize - st.range.t0];
                        tc.credits[vc as usize] += 1;
                        debug_assert!(tc.credits[vc as usize] <= self.cfg.buffer_depth as u32);
                    }
                }
            }
            st.credit_ring.restore(t, due);
        }
        // Apply delivery notifications due this cycle before any offer,
        // so a message ejected with arrival `t` can unblock its
        // recipient's (or sender's) next send at `t`. Cross-shard notes
        // are drained in fixed source order, and the due set is sorted
        // by the canonical `(packet, terminal)` key, so the workload
        // observes the identical call sequence at any shard count.
        if self.wants_delivery {
            if shards > 1 {
                for src in 0..shards {
                    let mut inbox = self.exch.notes[src * shards + st.id]
                        .lock()
                        .expect("note mailbox poisoned");
                    st.pending_notes.append(&mut inbox);
                }
            }
            if !st.pending_notes.is_empty() {
                let mut i = 0;
                while i < st.pending_notes.len() {
                    if st.pending_notes[i].0 <= t {
                        st.note_scratch.push(st.pending_notes.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                st.note_scratch.sort_unstable_by_key(|e| (e.2.packet, e.1));
                for idx in 0..st.note_scratch.len() {
                    let (_, term, d) = st.note_scratch[idx];
                    st.workload.delivered(term as usize, &d, t);
                }
                st.note_scratch.clear();
            }
        }
        if st.wake.pending > 0 {
            let mut due = st.wake.take_due(t);
            if !due.is_empty() {
                // A bucket collects ascending runs pushed on different
                // cycles.
                due.sort_unstable();
                merge_sorted(&mut st.poll, &due);
            }
            st.wake.restore(t, due);
        }
        st.staged_gen.clear();
        for idx in 0..st.poll.len() {
            let term = st.poll[idx] as usize;
            let tl = term - st.range.t0;
            if let Some(intent) = st.workload.offer(term, t, &mut st.terminals[tl].rng) {
                st.staged_gen.push(StagedGen {
                    term: term as u32,
                    dest: intent.dest as u32,
                    tag: intent.tag,
                    tracked: intent.tracked,
                });
            }
        }
        self.exch.gen_counts[st.id].store(st.staged_gen.len() as u64, Ordering::Release);
    }

    /// Phase 2 — the router pass. This shard's routers due a visit this
    /// cycle (see [`RouterWork`]) are visited in ascending order, each
    /// taken through all three of its steps before the next: arrivals,
    /// switch, transmit. A router's queues and flits therefore stay in
    /// cache across the steps. No step reads another router's queues —
    /// `route` reads none, and everything a transmit sends (flits,
    /// credits) arrives at a later cycle — so the pass is the same cycle
    /// as three router-wide sweeps, in any router order. A router with
    /// work left re-arms for the next cycle; flits and credits bound for
    /// another shard are flushed into the exchange at the end. `TIMED`
    /// clocks the three steps into their [`SimPerf`] slots.
    #[allow(unsafe_code)]
    fn seg_routers<const TIMED: bool>(&self, st: &mut ShardState<'a>, t: u64) {
        let mut last = TIMED.then(Instant::now);
        let mut lap = |slot: &mut Duration| {
            if let Some(last) = last.as_mut() {
                let now = Instant::now();
                *slot += now - *last;
                *last = now;
            }
        };
        // The switch's rotating start is `t mod radix`; routers of one
        // radix share it, so it is recomputed only when the radix
        // changes along the pass.
        let mut rotation = (0usize, 0usize);
        for w in 0..st.work.words {
            let mut due = st.work.take(t, w);
            while due != 0 {
                let local = w * 64 + due.trailing_zeros() as usize;
                due &= due - 1;
                let r = st.range.r0 + local;
                // SAFETY: the router pass is shard-exclusive over this
                // shard's routers, and `r` is one of them.
                let core = unsafe { self.routers.get_mut(r) };
                self.arrive(st, core, r, t);
                // A router is armed only by a flit due now or by flits
                // it still holds, so no visit is idle.
                debug_assert!(core.in_mask | core.out_mask != 0, "router {r} visited idle");
                lap(&mut st.phases[1]);
                self.switch(st, core, t, &mut rotation);
                lap(&mut st.phases[2]);
                self.transmit(st, core, r, t);
                lap(&mut st.phases[3]);
                if core.in_mask | core.out_mask != 0 {
                    st.work.arm(t + 1, local);
                }
            }
        }
        self.flush_outboxes(st);
        lap(&mut st.phases[3]);
    }

    /// Puts flit `h` on the channel into `router`'s input `port`, due at
    /// `arrival`, and arms the router for that cycle. The router is this
    /// shard's: channels belong to their destination's shard.
    #[inline(always)]
    fn enter_pipe(
        &self,
        st: &mut ShardState<'a>,
        router: usize,
        port: usize,
        h: u32,
        arrival: u64,
    ) {
        let local = router - st.range.r0;
        st.arena.set_due(h, arrival);
        st.pipes[self.port_base[router] as usize + port - st.flat0].push_back(&mut st.arena, h);
        st.pipe_mask[local] |= 1 << port;
        st.work.arm(arrival, local);
    }

    /// Arrivals step: every flit whose channel into router `r` delivers
    /// it by `t` is routed and enters the input stage. Only channels
    /// with flits on them are looked at.
    #[inline(always)]
    fn arrive(&self, st: &mut ShardState<'a>, core: &mut RouterCore, r: usize, t: u64) {
        let vcs = self.spec.vcs;
        let local = r - st.range.r0;
        let base = self.port_base[r] as usize - st.flat0;
        let mut loaded = st.pipe_mask[local];
        while loaded != 0 {
            let port = loaded.trailing_zeros() as usize;
            loaded &= loaded - 1;
            let pipe = &mut st.pipes[base + port];
            while let Some(h) = pipe.front() {
                if st.arena.due(h) > t {
                    break;
                }
                pipe.pop_front(&st.arena);
                let pv = self.routing.route(r, &st.arena.get(h));
                st.arena.set_aux(h, pack_pv(pv));
                let slot = port * vcs + st.arena.vc(h) as usize;
                core.inputs[slot].push_back(&mut st.arena, h);
                debug_assert!(core.inputs[slot].len as usize <= self.cfg.buffer_depth);
                core.in_port_count[port] += 1;
                core.in_mask |= 1 << port;
            }
            if pipe.is_empty() {
                st.pipe_mask[local] &= !(1 << port);
            }
        }
    }

    /// Switch step: flits move from the input stage into their output
    /// queues (unbounded internal speedup). The input `(port, VC)`
    /// travels with the flit; its credit is returned when the flit
    /// leaves the router, so the credit round trip measures queueing
    /// *inside* this router — exactly the congestion signal of the
    /// paper's Figure 15. `rotation` caches `(radix, t mod radix)`.
    #[inline(always)]
    fn switch(
        &self,
        st: &mut ShardState<'a>,
        core: &mut RouterCore,
        t: u64,
        rotation: &mut (usize, usize),
    ) {
        if core.in_mask == 0 {
            return;
        }
        let vcs = self.spec.vcs;
        let depth = self.cfg.buffer_depth;
        let ports = core.in_port_count.len();
        if ports != rotation.0 {
            *rotation = (ports, (t % ports as u64) as usize);
        }
        // Rotate the starting input each cycle for long-run fairness
        // when an output queue is nearly full: the occupied inputs from
        // `start` up, then the ones below it. No input gains flits
        // during this step, so the mask is read once.
        let below = (1u128 << rotation.1) - 1;
        for mut occupied in [core.in_mask & !below, core.in_mask & below] {
            while occupied != 0 {
                let port = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                for vc in 0..vcs {
                    let slot = port * vcs + vc;
                    while let Some(h) = core.inputs[slot].front() {
                        let pv = unpack_pv(st.arena.aux(h));
                        let oslot = pv.port as usize * vcs + pv.vc as usize;
                        if core.out_q[oslot].len as usize >= depth {
                            break; // output queue full: input backs up
                        }
                        core.inputs[slot].pop_front(&st.arena);
                        core.in_port_count[port] -= 1;
                        // The aux word switches meaning here: route in,
                        // origin input out (for the credit return).
                        st.arena.set_aux(h, pack_pv(PortVc::new(port, vc)));
                        core.out_q[oslot].push_back(&mut st.arena, h);
                        core.out_port_count[pv.port as usize] += 1;
                        core.out_mask |= 1 << pv.port;
                    }
                }
                if core.in_port_count[port] == 0 {
                    core.in_mask &= !(1 << port);
                }
            }
        }
    }

    /// Transmit step: every output port of router `r` sends one flit,
    /// round-robin over its VC queues, subject to downstream credits;
    /// terminal outputs eject. Flits and credits bound for another
    /// shard are staged in the shard's outboxes.
    #[inline(always)]
    fn transmit(&self, st: &mut ShardState<'a>, core: &mut RouterCore, r: usize, t: u64) {
        if core.out_mask == 0 {
            return;
        }
        let vcs = self.spec.vcs;
        let in_window = self.in_window(t);
        let round_trip = matches!(self.cfg.credit_mode, CreditMode::RoundTrip { .. });
        let owned = st.range.r0..st.range.r1;
        let ports = &self.spec.routers[r].ports[..];
        let flat_r = self.port_base[r] as usize - st.flat0;
        // The VC after `vc` in round-robin order.
        let next_vc = |vc: usize| if vc + 1 == vcs { 0 } else { vc + 1 };
        // Round-trip delay baseline for this router this cycle.
        let min_td = if round_trip {
            self.net_ports[r]
                .iter()
                .map(|&p| core.td[p as usize])
                .min()
                .unwrap_or(0)
        } else {
            0
        };
        // The occupied outputs in ascending port order. A port only ever
        // loses flits here, and only on its own visit, so the mask is
        // read once.
        let mut occupied = core.out_mask;
        while occupied != 0 {
            let out = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let out_spec = ports[out];
            let is_terminal = matches!(out_spec.conn, Connection::Terminal { .. });
            // Pick the first eligible VC at or after the round-robin
            // pointer.
            let mut vc = core.rr[out] as usize;
            let mut chosen = None;
            for _ in 0..vcs {
                let oslot = out * vcs + vc;
                if !core.out_q[oslot].is_empty() && (is_terminal || core.credits[oslot] > 0) {
                    chosen = Some(vc);
                    break;
                }
                vc = next_vc(vc);
            }
            let Some(vc) = chosen else {
                continue;
            };
            core.rr[out] = next_vc(vc) as u8;
            let oslot = out * vcs + vc;
            let h = core.out_q[oslot].pop_front(&st.arena).unwrap();
            let origin = unpack_pv(st.arena.aux(h));
            core.out_port_count[out] -= 1;
            if core.out_port_count[out] == 0 {
                core.out_mask &= !(1 << out);
            }
            // Return the credit for the input the flit arrived through,
            // now that the flit has left the router. The round-trip
            // mechanism delays it by td(O) − min td(o) (never across
            // global channels). Credits for a foreign upstream router
            // are staged; terminals always share their router's shard.
            let in_vc = origin.vc;
            let in_spec = ports[origin.port as usize];
            let delay = if round_trip && in_spec.class != ChannelClass::Global {
                core.td[out].saturating_sub(min_td)
            } else {
                0
            };
            let time = t + in_spec.latency as u64 + delay;
            match in_spec.conn {
                Connection::Terminal { terminal } => {
                    st.credit_ring.push(
                        t,
                        time,
                        CreditTarget::Terminal {
                            term: terminal,
                            vc: in_vc,
                        },
                    );
                }
                Connection::Router { router, port } => {
                    let target = CreditTarget::Router {
                        router,
                        port,
                        vc: in_vc,
                    };
                    if owned.contains(&(router as usize)) {
                        st.credit_ring.push(t, time, target);
                    } else {
                        let owner = self.router_shard[router as usize] as usize;
                        st.out_credits[owner].push((time, target));
                    }
                }
            }
            let arrival = t + out_spec.latency as u64;
            let Connection::Router {
                router: dr,
                port: dp,
            } = out_spec.conn
            else {
                let flit = st.arena.get(h);
                st.arena.dealloc(h);
                self.eject(st, flit, arrival);
                continue;
            };
            st.arena.bump_hops(h);
            st.arena.set_vc(h, vc as u8);
            debug_assert!(core.credits[oslot] > 0);
            core.credits[oslot] -= 1;
            core.outstanding[out] += 1;
            if let CreditMode::RoundTrip { sample, .. } = self.cfg.credit_mode {
                if core.sent_seq[out].is_multiple_of(sample) {
                    core.ctq[out].push_back(t);
                }
                core.sent_seq[out] = core.sent_seq[out].wrapping_add(1);
            }
            // Telemetry hooks: both are `None` checks when telemetry is
            // disabled, keeping the hot path flat.
            if let Some(s) = st.sampler.as_mut() {
                s.sent_total[flat_r + out] += 1;
            }
            if st.arena.is_head(h) && st.arena.labeled(h) {
                let packet = st.arena.packet(h);
                if let Some(tr) = st.tracer.as_mut() {
                    if tr.selected(packet) {
                        tr.push(
                            t,
                            packet,
                            TraceEventKind::Hop {
                                router: r as u32,
                                port: out as u16,
                                vc: vc as u8,
                            },
                        );
                    }
                }
            }
            let dr = dr as usize;
            if owned.contains(&dr) {
                self.enter_pipe(st, dr, dp as usize, h, arrival);
            } else {
                // Cross-shard hop: materialise the flit for the mailbox
                // and recycle this shard's slot — the owning shard
                // re-allocates in its own arena.
                let owner = self.router_shard[dr] as usize;
                st.out_flits[owner].push((dr as u32, dp, arrival, st.arena.get(h)));
                st.arena.dealloc(h);
            }
            st.flit_hops += 1;
            if in_window && !st.sent_in_window.is_empty() {
                st.sent_in_window[flat_r + out] += 1;
            }
        }
        debug_assert!(core.masks_match_counts(), "router {r} port masks");
        debug_assert!(
            core.terminal_credits_full(ports, self.cfg.buffer_depth),
            "router {r} terminal-port credits"
        );
    }

    /// Moves this shard's staged cross-shard flits, credits and delivery
    /// notes into the exchange, once per cycle.
    fn flush_outboxes(&self, st: &mut ShardState<'a>) {
        let shards = self.exch.shards;
        if shards == 1 {
            return;
        }
        for dst in 0..shards {
            if dst == st.id {
                continue;
            }
            if !st.out_flits[dst].is_empty() {
                self.exch.flits[st.id * shards + dst]
                    .lock()
                    .expect("flit mailbox poisoned")
                    .append(&mut st.out_flits[dst]);
            }
            if !st.out_credits[dst].is_empty() {
                self.exch.credits[st.id * shards + dst]
                    .lock()
                    .expect("credit mailbox poisoned")
                    .append(&mut st.out_credits[dst]);
            }
            if !st.out_notes[dst].is_empty() {
                self.exch.notes[st.id * shards + dst]
                    .lock()
                    .expect("note mailbox poisoned")
                    .append(&mut st.out_notes[dst]);
            }
        }
    }

    /// Records an ejected flit into the owning shard's statistics and,
    /// when the workload listens, stages its delivery notifications.
    fn eject(&self, st: &mut ShardState<'a>, flit: Flit, arrival: u64) {
        if arrival >= self.win_start && arrival < self.win_end {
            st.ejected_in_window += 1;
        }
        if flit.is_tail {
            st.eject_total += 1;
            // Warmup-convergence windows: every packet ejected during
            // the warmup period lands in one of four equal windows,
            // whose throughput/latency drift `collect` reports.
            if arrival < self.win_start && self.win_start >= 4 {
                let w = (arrival * 4 / self.win_start) as usize;
                st.warmup_ejects[w] += 1;
                st.warmup_lat[w] += arrival - flit.created;
            }
        }
        // A message is delivered when its tail flit ejects: notify the
        // destination terminal (always local — ejection happens at its
        // own router's shard) and the source terminal (via the exchange
        // when foreign), both effective at the ejection channel's
        // arrival cycle.
        if self.wants_delivery && flit.is_tail {
            let d = Delivery {
                src: flit.src as usize,
                dest: flit.dest as usize,
                tag: flit.tag,
                packet: flit.packet,
                created: flit.created,
            };
            debug_assert_eq!(self.term_shard[flit.dest as usize] as usize, st.id);
            st.pending_notes.push((arrival, flit.dest, d));
            let src_owner = self.term_shard[flit.src as usize] as usize;
            if src_owner == st.id {
                st.pending_notes.push((arrival, flit.src, d));
            } else {
                st.out_notes[src_owner].push((arrival, flit.src, d));
            }
        }
        if !(flit.is_tail && flit.labeled) {
            return;
        }
        st.eject_labeled += 1;
        let latency = arrival - flit.created;
        st.latency.record(latency);
        st.hops.record(flit.hops as u64);
        st.histogram.record(latency);
        st.latency_log.record(latency);
        if let Some(tr) = st.tracer.as_mut() {
            if tr.selected(flit.packet) {
                tr.push(arrival, flit.packet, TraceEventKind::Eject { latency });
            }
        }
        match flit.route.class {
            RouteClass::Minimal => {
                st.minimal_latency.record(latency);
                st.minimal_histogram.record(latency);
            }
            RouteClass::NonMinimal => st.non_minimal_latency.record(latency),
        }
    }

    /// Phase 3 — the injection half: derive this shard's packet-id base
    /// from the published per-shard generation counts (shards hold
    /// contiguous terminal ranges, so prefix sums reproduce the serial
    /// engine's global packet order exactly), then for every polled
    /// terminal enqueue the flits staged in phase 1 and inject its
    /// head-of-queue flit against the frozen router state. Last, decide
    /// where the terminal spends the next cycle: on the poll list while
    /// its source queue holds flits (their route draws interleave with
    /// the workload's on the terminal's RNG) or its workload wants the
    /// next cycle; otherwise parked on the wake calendar until the cycle
    /// [`Workload::quiet_until`] names.
    #[allow(unsafe_code)]
    fn seg_inject(&self, st: &mut ShardState<'a>, t: u64) {
        let packet_len = self.cfg.packet_len;
        let in_win = self.in_window(t);
        // Fixed-window runs label the packets created inside the
        // measurement window (the classic methodology); work-complete
        // runs label every tracked packet, so termination waits on
        // exactly the packets the workload cares about.
        let fixed_window = matches!(self.cfg.termination, Termination::FixedWindow);
        let shards = self.exch.shards;
        let mut base = st.next_packet;
        let mut total = 0u64;
        for s in 0..shards {
            let count = self.exch.gen_counts[s].load(Ordering::Acquire);
            if s < st.id {
                base += count;
            }
            total += count;
        }
        // Router state is frozen during this phase, so one view serves
        // every adaptive decision this cycle.
        // SAFETY: no shard mutates router state during phase 3.
        let view = unsafe { self.view(t) };
        let mut staged = 0usize;
        for idx in 0..st.poll.len() {
            let term = st.poll[idx] as usize;
            let tl = term - st.range.t0;
            // Enqueue the packet generated for this terminal in phase 1
            // (if any) under its globally ordered id.
            if staged < st.staged_gen.len() && st.staged_gen[staged].term == term as u32 {
                let item = st.staged_gen[staged];
                let packet = base + staged as u64;
                staged += 1;
                let labeled = if fixed_window {
                    in_win && item.tracked
                } else {
                    item.tracked
                };
                for i in 0..packet_len {
                    let h = st.arena.alloc(&Flit {
                        packet,
                        src: term as u32,
                        dest: item.dest,
                        route: RouteInfo::minimal(),
                        created: t,
                        injected: 0,
                        hops: 0,
                        vc: 0,
                        is_head: i == 0,
                        is_tail: i + 1 == packet_len,
                        labeled,
                        tag: item.tag,
                    });
                    st.terminals[tl].source.push_back(&mut st.arena, h);
                }
                if labeled {
                    st.gen_labeled += 1;
                }
            }
            self.inject_head(st, &view, term, t);
            if !st.terminals[tl].source.is_empty() {
                st.poll_next.push(term as u32);
                continue;
            }
            match st.workload.quiet_until(term, t, &mut st.terminals[tl].rng) {
                u64::MAX => st.retired += 1,
                until if until <= t + 1 => st.poll_next.push(term as u32),
                until => st.wake.push(t, until, term as u32),
            }
        }
        debug_assert_eq!(staged, st.staged_gen.len());
        std::mem::swap(&mut st.poll, &mut st.poll_next);
        st.poll_next.clear();
        #[cfg(debug_assertions)]
        self.check_poll_lists(st);
        st.next_packet += total;
        self.sample_tick(st, t);
        if !fixed_window {
            self.exch.work_done[st.id].store(u64::from(st.workload.all_done()), Ordering::Release);
        }
        self.exch.gen_labeled[st.id].store(st.gen_labeled, Ordering::Release);
        self.exch.eject_labeled[st.id].store(st.eject_labeled, Ordering::Release);
        // Watchdog counters publish only on checkpoint cycles (the
        // boundary is derived from `t`, so every shard agrees), keeping
        // the disabled path free of extra stores.
        let wd = self.cfg.watchdog_every;
        if wd > 0 && (t + 1).is_multiple_of(wd) {
            self.exch.wd_hops[st.id].store(st.flit_hops, Ordering::Release);
            self.exch.wd_ejects[st.id].store(st.eject_total, Ordering::Release);
        }
    }

    /// Injects the head-of-queue flit of `term`, if it has one and a
    /// credit for it (one flit per terminal per cycle).
    fn inject_head(&self, st: &mut ShardState<'a>, view: &NetView<'_>, term: usize, t: u64) {
        let tl = term - st.range.t0;
        let Some(h) = st.terminals[tl].source.front() else {
            return;
        };
        let (route, decision) = if st.arena.is_head(h) {
            // (Re-)evaluate the adaptive decision while the head flit
            // waits at the source: the packet has not entered the
            // network yet, so the freshest local state applies.
            let dest = st.arena.dest(h) as usize;
            let tc = &mut st.terminals[tl];
            let (route, decision) = self.routing.inject(view, term, dest, &mut tc.rng);
            tc.active_route = Some(route);
            (route, decision)
        } else {
            let route = st.terminals[tl]
                .active_route
                .expect("body flit with no active route");
            (route, DecisionRecord::default())
        };
        let vc = route.injection_vc as usize;
        if st.terminals[tl].credits[vc] == 0 {
            return;
        }
        let h = st.terminals[tl].source.pop_front(&st.arena).unwrap();
        st.arena.set_route(h, route);
        st.arena.set_vc(h, vc as u8);
        st.arena.set_injected(h, t);
        st.terminals[tl].credits[vc] -= 1;
        // The injection channel is the router's terminal input port.
        let (r, p) = self.spec.terminal_port(term);
        let latency = self.spec.routers[r].ports[p].latency as u64;
        self.enter_pipe(st, r, p, h, t + latency);
        if st.arena.is_tail(h) {
            st.terminals[tl].active_route = None;
        }
        // Telemetry commits only when the head flit actually enters
        // the injection channel: the per-cycle re-evaluations above
        // are provisional while the flit waits for a credit.
        if st.arena.is_head(h) && st.arena.labeled(h) {
            match route.class {
                RouteClass::Minimal => st.telemetry.minimal_takes += 1,
                RouteClass::NonMinimal => st.telemetry.non_minimal_takes += 1,
            }
            if decision.adaptive {
                st.telemetry.adaptive_decisions += 1;
                if decision.estimator_disagreed {
                    st.telemetry.estimator_disagreements += 1;
                }
                // Estimator-accuracy scoreboard: the committed
                // decision's estimator reading vs the oracle's.
                st.scoreboard.record(
                    decision.q_chosen,
                    decision.oracle_chosen,
                    decision.oracle_disagreed,
                    decision.oracle_scored,
                );
            }
            if decision.fault_avoided {
                st.telemetry.fault_avoided_decisions += 1;
            }
            st.telemetry.dropped_candidates += decision.dropped_candidates as u64;
            st.telemetry.oracle_probe_fallbacks += decision.probe_fallbacks as u64;
            let packet = st.arena.packet(h);
            let (src, dest) = (st.arena.src(h), st.arena.dest(h));
            if let Some(tr) = st.tracer.as_mut() {
                if tr.selected(packet) {
                    tr.push(
                        t,
                        packet,
                        TraceEventKind::Inject {
                            src,
                            dest,
                            minimal: route.class == RouteClass::Minimal,
                            q_chosen: decision.q_chosen,
                            oracle: decision.oracle_chosen,
                        },
                    );
                }
            }
        }
        if self.in_window(t) {
            st.injected_in_window += 1;
        }
    }

    /// Debug-build invariant of the terminal lists, checked at the end
    /// of every phase 3: each owned terminal is in exactly one place —
    /// the (strictly ascending) poll list, one wake-calendar bucket, or
    /// retired — and none with flits in its source queue is off the
    /// poll list.
    #[cfg(debug_assertions)]
    fn check_poll_lists(&self, st: &ShardState<'a>) {
        const POLLED: u8 = 1;
        let t0 = st.range.t0;
        let mut place = vec![0u8; st.terminals.len()];
        assert!(st.poll.windows(2).all(|w| w[0] < w[1]), "poll list order");
        for &term in &st.poll {
            place[term as usize - t0] = POLLED;
        }
        for bucket in st.wake.buckets.iter().filter(|b| !b.is_empty()) {
            for &term in bucket {
                let slot = &mut place[term as usize - t0];
                assert_eq!(*slot, 0, "terminal {term} parked twice or while polled");
                *slot = POLLED + 1;
            }
        }
        let unplaced = place.iter().filter(|&&p| p == 0).count();
        assert_eq!(unplaced, st.retired, "terminals lost from the lists");
        for (tl, tc) in st.terminals.iter().enumerate() {
            assert!(
                tc.source.is_empty() || place[tl] == POLLED,
                "terminal {} has queued flits but is not polled",
                t0 + tl
            );
        }
    }

    /// Appends one sample column to this shard's channel time series if
    /// `t` is on the sampling cadence. Reads the settled end-of-cycle
    /// state (after transmission and injection).
    #[allow(unsafe_code)]
    fn sample_tick(&self, st: &mut ShardState<'a>, t: u64) {
        let flat0 = st.flat0;
        let Some(s) = st.sampler.as_mut() else {
            return;
        };
        if !t.is_multiple_of(s.every) {
            return;
        }
        s.series.ticks.push(t);
        let vcs = self.spec.vcs;
        for (i, ch) in s.series.channels.iter_mut().enumerate() {
            // SAFETY: routers are read-only at this point of phase 3.
            let core = unsafe { self.routers.get_ref(ch.router as usize) };
            let p = ch.port as usize;
            ch.occupancy.push(core.out_port_count[p]);
            let mut credits = 0u32;
            for vc in 0..vcs {
                let slot = p * vcs + vc;
                ch.vc_occupancy.push(core.out_q[slot].len as u16);
                credits += core.credits[slot];
            }
            ch.credits.push(credits as u16);
            let sent = s.sent_total[s.flats[i] as usize - flat0];
            ch.sent.push((sent - s.prev_sent[i]) as u32);
            s.prev_sent[i] = sent;
        }
    }

    /// What a cycle is: the three phases, in execution order — credits
    /// and generation, the router pass, injection. Between two
    /// consecutive entries every shard must have finished the earlier
    /// one (see `ShardTable` for why). Only
    /// [`EngineShared::worker_drive`] (barrier after each entry) and
    /// [`Simulation::step`] (all shards inline per entry) walk this
    /// table; `TIMED` selects the router pass that clocks its steps.
    fn phases<const TIMED: bool>() -> [fn(&Self, &mut ShardState<'a>, u64); 3] {
        [
            Self::seg_credits,
            Self::seg_routers::<TIMED>,
            Self::seg_inject,
        ]
    }

    /// The [`SimPerf::PHASE_NAMES`] slot each entry of
    /// [`EngineShared::phases`] is timed into. The router pass has none:
    /// it clocks its arrivals, switch and transmit steps into slots 1-3
    /// itself.
    const PHASE_SLOT: [Option<usize>; 3] = [Some(0), None, Some(4)];

    /// One shard worker's warm-up/measure/drain loop: every phase of
    /// [`EngineShared::phases`] per cycle, each ending at the barrier,
    /// then the termination condition every shard evaluates identically
    /// from the published counters. `TIMED` adds the per-phase compute
    /// clock behind [`SimPerf`]; the untimed instantiation compiles
    /// without it.
    fn worker_drive<const TIMED: bool>(&self, st: &mut ShardState<'a>) {
        let hard_cap = self.win_end + self.cfg.drain_cap;
        while st.cycle < hard_cap {
            let t = st.cycle;
            for (phase, slot) in Self::phases::<TIMED>().into_iter().zip(Self::PHASE_SLOT) {
                let clock = TIMED.then(Instant::now);
                phase(self, st, t);
                if let (Some(clock), Some(slot)) = (clock, slot) {
                    st.phases[slot] += clock.elapsed();
                }
                self.exch.barrier.wait();
            }
            st.cycle = t + 1;
            match self.cfg.termination {
                Termination::FixedWindow => {
                    if st.cycle >= self.win_end && self.exch.labeled_outstanding() == 0 {
                        break;
                    }
                }
                Termination::WorkComplete => {
                    // Every shard reads the same published flags after the
                    // phase-3 barrier, so they all break at the same cycle.
                    if self.exch.all_work_done() && self.exch.labeled_outstanding() == 0 {
                        st.completion = Some(st.cycle);
                        break;
                    }
                }
            }
            if self.cfg.watchdog_every > 0 {
                if let Some(report) = self.watchdog_check(st) {
                    st.stalled = Some(report);
                    break;
                }
            }
        }
    }

    /// Watchdog checkpoint: on cadence boundaries, compare the global
    /// progress counters published at the end of phase 3 against their
    /// values at the previous checkpoint. Zero progress (no hop, no
    /// ejection) across the whole window with packets in flight at its
    /// start means the network is wedged: every shard detects it on the
    /// same cycle (the inputs are replicated), scans its own routers for
    /// attribution, and merges all scans in shard order into one
    /// bit-identical [`StallReport`].
    fn watchdog_check(&self, st: &mut ShardState<'a>) -> Option<StallReport> {
        let wd = self.cfg.watchdog_every;
        if !st.cycle.is_multiple_of(wd) {
            return None;
        }
        let hops: u64 = self
            .exch
            .wd_hops
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        let ejects: u64 = self
            .exch
            .wd_ejects
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        // `next_packet` is the replicated global generation counter, so
        // the in-flight population is identical on every shard. The
        // first checkpoint can never stall (the previous in-flight
        // snapshot starts at zero), which keeps a run that simply has
        // no traffic yet from tripping the detector.
        let stalled =
            hops == st.wd_prev_hops && ejects == st.wd_prev_ejects && st.wd_prev_in_flight > 0;
        st.wd_prev_hops = hops;
        st.wd_prev_ejects = ejects;
        st.wd_prev_in_flight = st.next_packet - ejects;
        if !stalled {
            return None;
        }
        let scan = self.stall_scan(st);
        self.exch.stall_slots.lock().expect("stall slots poisoned")[st.id] = Some(scan);
        // Rendezvous so every shard's scan is written before any shard
        // merges; the barrier is safe because the stall verdict above is
        // computed from identical inputs on every shard.
        self.exch.barrier.wait();
        let slots = self.exch.stall_slots.lock().expect("stall slots poisoned");
        let mut blocked: Option<(usize, usize)> = None;
        let mut starved: Option<(u64, usize, usize)> = None;
        let mut oldest: Option<u64> = None;
        for scan in slots.iter().flatten() {
            if let Some((count, router)) = scan.blocked {
                if blocked.is_none_or(|(c, r)| count > c || (count == c && router < r)) {
                    blocked = Some((count, router));
                }
            }
            if let Some((depth, router, port)) = scan.starved {
                if starved
                    .is_none_or(|(d, r, p)| depth > d || (depth == d && (router, port) < (r, p)))
                {
                    starved = Some((depth, router, port));
                }
            }
            if let Some(created) = scan.oldest_created {
                if oldest.is_none_or(|c| created < c) {
                    oldest = Some(created);
                }
            }
        }
        let (blocked_ports, hottest_router) = blocked.unwrap_or((0, 0));
        let (starved_depth, starved_router, starved_port) = starved.unwrap_or((0, 0, 0));
        Some(StallReport {
            cycle: st.cycle,
            window: wd,
            in_flight: st.next_packet - ejects,
            hottest_router,
            blocked_ports,
            starved_router,
            starved_port,
            starved_depth,
            oldest_age: oldest.map_or(0, |created| st.cycle - created),
        })
    }

    /// Scans this shard's own routers, pipes and terminals for stall
    /// attribution. Runs after the phase-3 barrier with every shard
    /// parked in the watchdog, so reading own-router state is safe.
    #[allow(unsafe_code)]
    fn stall_scan(&self, st: &ShardState<'a>) -> StallScan {
        let vcs = self.spec.vcs;
        let mut scan = StallScan::default();
        let oldest = |arena: &FlitArena, q: &FlitQueue, scan: &mut StallScan| {
            for h in q.iter(arena) {
                let created = arena.created(h);
                if scan.oldest_created.is_none_or(|c| created < c) {
                    scan.oldest_created = Some(created);
                }
            }
        };
        for r in st.range.r0..st.range.r1 {
            // SAFETY: every shard is parked in the watchdog rendezvous
            // between cycles and reads only its own routers.
            let core = unsafe { self.routers.get_ref(r) };
            let ports = self.spec.routers[r].ports.len();
            let mut blocked_here = 0usize;
            for p in 0..ports {
                // Terminal ports always transmit (ejection needs no
                // credit), so they cannot block.
                if matches!(
                    self.spec.routers[r].ports[p].conn,
                    Connection::Terminal { .. }
                ) {
                    continue;
                }
                if core.out_port_count[p] == 0 {
                    continue;
                }
                let sendable = (0..vcs).any(|vc| {
                    let slot = p * vcs + vc;
                    !core.out_q[slot].is_empty() && core.credits[slot] > 0
                });
                if sendable {
                    continue;
                }
                blocked_here += 1;
                let depth = core.out_port_count[p] as u64;
                if scan
                    .starved
                    .is_none_or(|(d, br, bp)| depth > d || (depth == d && (r, p) < (br, bp)))
                {
                    scan.starved = Some((depth, r, p));
                }
            }
            if blocked_here > 0
                && scan
                    .blocked
                    .is_none_or(|(c, br)| blocked_here > c || (blocked_here == c && r < br))
            {
                scan.blocked = Some((blocked_here, r));
            }
            for q in core.inputs.iter().chain(core.out_q.iter()) {
                oldest(&st.arena, q, &mut scan);
            }
        }
        for q in &st.pipes {
            oldest(&st.arena, q, &mut scan);
        }
        for tc in &st.terminals {
            oldest(&st.arena, &tc.source, &mut scan);
        }
        scan
    }
}
impl<'a> Simulation<'a> {
    /// Builds a simulation over `spec` driven by `routing` and `pattern`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid, the
    /// pattern's terminal count does not match the network's, or a
    /// router has more than 128 ports.
    pub fn new(
        spec: &'a NetworkSpec,
        routing: &'a dyn RoutingAlgorithm,
        pattern: &'a dyn TrafficPattern,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        if pattern.num_terminals() != spec.num_terminals() {
            return Err(SimError::InvalidConfig(format!(
                "pattern covers {} terminals but network has {}",
                pattern.num_terminals(),
                spec.num_terminals()
            )));
        }
        let kind = cfg.injection;
        Self::with_workload(spec, routing, cfg, move |range| {
            open_loop_workload(kind, range, pattern)
        })
    }

    /// Builds a simulation whose traffic is driven by a [`Workload`]
    /// instead of the configured open-loop injection process.
    ///
    /// `factory` is called once per shard with that shard's contiguous
    /// terminal range and must return the workload slice responsible for
    /// those terminals. Slices coordinate only through simulated
    /// messages (delivery notifications), so the factory must hand each
    /// shard the same deterministic state regardless of how the network
    /// is sharded — every provided [`Workload`] implementor keeps its
    /// per-member state keyed by terminal, which satisfies this
    /// automatically. [`Workload::wants_delivery`] must agree across
    /// shards (it is sampled from the first slice).
    ///
    /// Combine with [`Termination::WorkComplete`] (see
    /// [`SimConfig::with_termination`]) to end the run when every slice
    /// reports [`Workload::all_done`] and the tracked packets have
    /// drained; [`RunStats::completion`] then reports the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid or a router
    /// has more than 128 ports.
    pub fn with_workload<F>(
        spec: &'a NetworkSpec,
        routing: &'a dyn RoutingAlgorithm,
        cfg: SimConfig,
        factory: F,
    ) -> Result<Self, SimError>
    where
        F: Fn(std::ops::Range<usize>) -> Box<dyn Workload + Send + 'a>,
    {
        cfg.validate()?;
        if let Some(r) = spec.routers.iter().position(|r| r.ports.len() > MAX_RADIX) {
            return Err(SimError::InvalidSpec(format!(
                "router {r} has {} ports; the engine supports at most {MAX_RADIX}",
                spec.routers[r].ports.len()
            )));
        }
        let vcs = spec.vcs;
        let round_trip = matches!(cfg.credit_mode, CreditMode::RoundTrip { .. });
        let mut routers = Vec::with_capacity(spec.num_routers());
        let mut port_base = Vec::with_capacity(spec.num_routers());
        let mut net_ports = Vec::with_capacity(spec.num_routers());
        let mut max_latency = 1u64;
        let mut flat = 0u32;
        for router in &spec.routers {
            let ports = router.ports.len();
            port_base.push(flat);
            flat += ports as u32;
            routers.push(RouterCore {
                inputs: vec![FlitQueue::new(); ports * vcs],
                in_mask: 0,
                in_port_count: vec![0; ports],
                out_q: vec![FlitQueue::new(); ports * vcs],
                out_mask: 0,
                out_port_count: vec![0; ports],
                credits: vec![cfg.buffer_depth as u32; ports * vcs],
                outstanding: vec![0; ports],
                rr: vec![0; ports],
                ctq: if round_trip {
                    vec![VecDeque::new(); ports]
                } else {
                    Vec::new()
                },
                td: if round_trip {
                    vec![0; ports]
                } else {
                    Vec::new()
                },
                sent_seq: if round_trip {
                    vec![0; ports]
                } else {
                    Vec::new()
                },
                credit_seq: if round_trip {
                    vec![0; ports]
                } else {
                    Vec::new()
                },
            });
            let mut nps = Vec::new();
            for (p, port) in router.ports.iter().enumerate() {
                max_latency = max_latency.max(port.latency as u64);
                if let Connection::Router { .. } = port.conn {
                    nps.push(p as u16);
                }
            }
            net_ports.push(nps);
        }
        let total_flats = flat as usize;
        let plan = plan_shards(
            spec,
            &port_base,
            total_flats,
            resolve_shards(&cfg, spec.num_routers()),
        );
        let shard_count = plan.len();
        let mut router_shard = vec![0u32; spec.num_routers()];
        for (s, range) in plan.iter().enumerate() {
            for owned in router_shard.iter_mut().take(range.r1).skip(range.r0) {
                *owned = s as u32;
            }
        }
        let mut term_shard = vec![0u32; spec.num_terminals()];
        for (s, range) in plan.iter().enumerate() {
            for owner in term_shard.iter_mut().take(range.t1).skip(range.t0) {
                *owner = s as u32;
            }
        }
        let win_start = cfg.warmup;
        let win_end = cfg.warmup + cfg.measure;
        // Credits return within a delayed zero-load round trip.
        let horizon = 2 * max_latency + 2;
        let num_routers = spec.num_routers();
        let shards = plan
            .iter()
            .enumerate()
            .map(|(id, &range)| {
                let flat0 = port_base[range.r0] as usize;
                let flat1 = if range.r1 == num_routers {
                    total_flats
                } else {
                    port_base[range.r1] as usize
                };
                let terminals = (range.t0..range.t1)
                    .map(|t| TerminalCore {
                        source: FlitQueue::new(),
                        active_route: None,
                        credits: vec![cfg.buffer_depth as u32; vcs],
                        rng: rng_for(cfg.seed, t as u64),
                    })
                    .collect();
                let sampler = (cfg.telemetry.sample_every > 0).then(|| {
                    let mut flats = Vec::new();
                    let mut channels = Vec::new();
                    for (r, p) in spec.network_channels() {
                        if r < range.r0 || r >= range.r1 {
                            continue;
                        }
                        flats.push(port_base[r] + p as u32);
                        channels.push(ChannelSeries {
                            router: r as u32,
                            port: p as u16,
                            class: spec.routers[r].ports[p].class,
                            occupancy: Vec::new(),
                            vc_occupancy: Vec::new(),
                            credits: Vec::new(),
                            sent: Vec::new(),
                        });
                    }
                    ChannelSampler {
                        every: cfg.telemetry.sample_every,
                        prev_sent: vec![0; flats.len()],
                        flats,
                        sent_total: vec![0; flat1 - flat0],
                        series: TimeSeries {
                            every: cfg.telemetry.sample_every,
                            vcs: vcs as u8,
                            ticks: Vec::new(),
                            channels,
                        },
                    }
                });
                let tracer = (cfg.telemetry.trace_rate > 0.0)
                    .then(|| FlitTracer::new(cfg.telemetry.trace_rate, cfg.telemetry.trace_seed));
                ShardState {
                    id,
                    range,
                    workload: factory(range.t0..range.t1),
                    arena: FlitArena::new(),
                    flat0,
                    terminals,
                    pipes: vec![FlitQueue::new(); flat1 - flat0],
                    pipe_mask: vec![0; range.r1 - range.r0],
                    work: RouterWork::new(range.r1 - range.r0, max_latency),
                    credit_ring: Calendar::with_horizon(horizon),
                    poll: (range.t0 as u32..range.t1 as u32).collect(),
                    poll_next: Vec::new(),
                    // Grows to the longest gap a workload answers.
                    wake: Calendar::with_horizon(0),
                    retired: 0,
                    staged_gen: Vec::new(),
                    out_flits: vec![Vec::new(); shard_count],
                    out_credits: vec![Vec::new(); shard_count],
                    pending_notes: Vec::new(),
                    note_scratch: Vec::new(),
                    out_notes: vec![Vec::new(); shard_count],
                    completion: None,
                    flit_hops: 0,
                    cycle: 0,
                    next_packet: 0,
                    gen_labeled: 0,
                    eject_labeled: 0,
                    eject_total: 0,
                    wd_prev_hops: 0,
                    wd_prev_ejects: 0,
                    wd_prev_in_flight: 0,
                    stalled: None,
                    warmup_ejects: [0; 4],
                    warmup_lat: [0; 4],
                    injected_in_window: 0,
                    ejected_in_window: 0,
                    sent_in_window: if cfg.scale_mode {
                        Vec::new()
                    } else {
                        vec![0; flat1 - flat0]
                    },
                    latency: LatencySummary::default(),
                    minimal_latency: LatencySummary::default(),
                    non_minimal_latency: LatencySummary::default(),
                    hops: LatencySummary::default(),
                    histogram: Histogram::new(4096, 1),
                    minimal_histogram: Histogram::new(4096, 1),
                    telemetry: RouteTelemetry::default(),
                    latency_log: LogHistogram::new(),
                    scoreboard: EstimatorScoreboard::new(),
                    sampler,
                    tracer,
                    phases: [Duration::ZERO; 5],
                }
            })
            .collect::<Vec<_>>();
        let wants_delivery = shards[0].workload.wants_delivery();
        Ok(Simulation {
            eng: EngineShared {
                spec,
                cfg,
                routing,
                routers: ShardTable::new(routers),
                port_base,
                router_shard,
                term_shard,
                wants_delivery,
                net_ports,
                win_start,
                win_end,
                exch: Exchange::new(shard_count),
            },
            shards,
        })
    }

    /// The network being simulated.
    pub fn spec(&self) -> &'a NetworkSpec {
        self.eng.spec
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.shards[0].cycle
    }

    /// Number of router shards the engine resolved to (after clamping
    /// and the terminal-monotonicity fallback).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Runs warm-up, measurement and drain, consuming the simulation and
    /// returning the statistics (a run [`Simulation::step`] already
    /// advanced continues from its current cycle).
    ///
    /// The run ends when every labelled packet has been delivered, or
    /// when the drain cap is exceeded (the network is saturated at this
    /// load); [`RunStats::drained`] records which. If the stall
    /// watchdog fires the run also ends, with `drained == false`; use
    /// [`Simulation::try_finish`] to get the diagnosis as a typed error.
    pub fn finish(mut self) -> RunStats {
        self.drive::<false>();
        self.collect()
    }

    /// Like [`Simulation::finish`], but a watchdog stall ends the run
    /// with [`SimError::Stalled`] instead of undrained statistics.
    pub fn try_finish(mut self) -> Result<RunStats, SimError> {
        self.drive::<false>();
        match self.shards[0].stalled {
            Some(report) => Err(SimError::Stalled(report)),
            None => Ok(self.collect()),
        }
    }

    /// Like [`Simulation::finish`], and additionally reports wall-clock
    /// performance counters (per-phase wall time, cycles/sec,
    /// flit-hops/sec, shard count).
    pub fn run_instrumented(mut self) -> (RunStats, SimPerf) {
        let start = Instant::now();
        self.drive::<true>();
        let mut perf = SimPerf {
            cycles: self.cycle(),
            wall: start.elapsed(),
            shards: self.shards.len(),
            ..SimPerf::default()
        };
        for st in &self.shards {
            perf.flit_hops += st.flit_hops;
            perf.shard_phases.push(st.phases);
            for (p, d) in st.phases.iter().enumerate() {
                if *d > perf.phases[p] {
                    perf.phases[p] = *d;
                }
            }
        }
        (self.collect(), perf)
    }

    /// The warm-up/measure/drain loop behind every consuming entry
    /// point: one [`EngineShared::worker_drive`] per shard, shard 0's on
    /// the calling thread — so a single shard runs inline and spawns
    /// nothing.
    fn drive<const TIMED: bool>(&mut self) {
        let eng = &self.eng;
        let mut workers = self.shards.iter_mut();
        let first = workers.next().expect("at least one shard");
        std::thread::scope(|scope| {
            for st in workers {
                scope.spawn(move || eng.worker_drive::<TIMED>(st));
            }
            eng.worker_drive::<TIMED>(first);
        });
    }

    /// Advances the simulation by one cycle without testing for
    /// termination. Each phase of the cycle runs inline over the shards
    /// in shard order — bit-identical to the threaded path, because
    /// between two barriers the shards touch disjoint state.
    pub fn step(&mut self) {
        let t = self.cycle();
        for phase in EngineShared::phases::<false>() {
            for st in self.shards.iter_mut() {
                phase(&self.eng, st, t);
            }
        }
        for st in self.shards.iter_mut() {
            st.cycle = t + 1;
        }
    }

    /// Concatenates per-shard channel series in shard order (= global
    /// `(router, port)` order, since shards are contiguous).
    fn merge_series(mut parts: Vec<TimeSeries>) -> Option<TimeSeries> {
        if parts.is_empty() {
            return None;
        }
        let mut merged = parts.remove(0);
        for part in parts {
            debug_assert_eq!(merged.ticks, part.ticks);
            merged.channels.extend(part.channels);
        }
        Some(merged)
    }

    /// Concatenates per-shard traces and normalises to the canonical
    /// `(cycle, packet)` order — unique, because a packet has at most
    /// one traced event per cycle.
    fn merge_trace(parts: Vec<crate::telemetry::FlitTrace>) -> Option<crate::telemetry::FlitTrace> {
        let mut parts = parts.into_iter();
        let mut merged = parts.next()?;
        for part in parts {
            merged.events.extend(part.events);
        }
        merged.events.sort_unstable_by_key(|e| (e.cycle, e.packet));
        Some(merged)
    }

    /// Builds the final statistics, consuming the simulation: every
    /// other shard's accumulators fold into shard 0's in shard order, so
    /// the histograms and telemetry buffers move into the result
    /// instead of being cloned.
    fn collect(self) -> RunStats {
        let Simulation { eng, mut shards } = self;
        let (cfg, spec) = (&eng.cfg, eng.spec);
        // Each channel is counted only by its source router's owning
        // shard, so a single read there replaces the former all-shards
        // sum. Scale mode drops the report entirely.
        let channel_loads = if cfg.scale_mode {
            Vec::new()
        } else {
            spec.network_channels()
                .map(|(r, p)| {
                    let flat = eng.port_base[r] as usize + p;
                    let st = &shards[eng.router_shard[r] as usize];
                    let flits = st.sent_in_window[flat - st.flat0];
                    ChannelLoad {
                        router: r,
                        port: p,
                        class: spec.routers[r].ports[p].class,
                        flits,
                        utilization: flits as f64 / cfg.measure as f64,
                    }
                })
                .collect()
        };
        let series = Self::merge_series(
            shards
                .iter_mut()
                .filter_map(|st| st.sampler.take().map(|s| s.series))
                .collect(),
        );
        let trace = Self::merge_trace(
            shards
                .iter_mut()
                .filter_map(|st| st.tracer.take().map(FlitTracer::finish))
                .collect(),
        );
        let mut rest = shards.into_iter();
        let mut acc = rest.next().expect("at least one shard");
        for st in rest {
            for w in 0..4 {
                acc.warmup_ejects[w] += st.warmup_ejects[w];
                acc.warmup_lat[w] += st.warmup_lat[w];
            }
            acc.latency.merge(&st.latency);
            acc.minimal_latency.merge(&st.minimal_latency);
            acc.non_minimal_latency.merge(&st.non_minimal_latency);
            acc.hops.merge(&st.hops);
            acc.histogram.merge(&st.histogram);
            acc.minimal_histogram.merge(&st.minimal_histogram);
            acc.latency_log.merge(&st.latency_log);
            acc.telemetry.minimal_takes += st.telemetry.minimal_takes;
            acc.telemetry.non_minimal_takes += st.telemetry.non_minimal_takes;
            acc.telemetry.adaptive_decisions += st.telemetry.adaptive_decisions;
            acc.telemetry.estimator_disagreements += st.telemetry.estimator_disagreements;
            acc.telemetry.fault_avoided_decisions += st.telemetry.fault_avoided_decisions;
            acc.telemetry.dropped_candidates += st.telemetry.dropped_candidates;
            acc.telemetry.oracle_probe_fallbacks += st.telemetry.oracle_probe_fallbacks;
            acc.scoreboard.merge(&st.scoreboard);
            acc.injected_in_window += st.injected_in_window;
            acc.ejected_in_window += st.ejected_in_window;
            acc.gen_labeled += st.gen_labeled;
            acc.eject_labeled += st.eject_labeled;
        }
        let denom = (spec.num_terminals() as u64 * cfg.measure) as f64;
        let (converged, warmup_throughput_drift, warmup_latency_drift) =
            warmup_convergence(&acc.warmup_ejects, &acc.warmup_lat);
        RunStats {
            cycles: acc.cycle,
            offered_load: cfg.injection.rate() * cfg.packet_len as f64,
            injected_rate: acc.injected_in_window as f64 / denom,
            accepted_rate: acc.ejected_in_window as f64 / denom,
            drained: acc.gen_labeled == acc.eject_labeled,
            latency: acc.latency,
            minimal_latency: acc.minimal_latency,
            non_minimal_latency: acc.non_minimal_latency,
            hops: acc.hops,
            histogram: acc.histogram,
            minimal_histogram: acc.minimal_histogram,
            channel_loads,
            routing: acc.telemetry,
            latency_log: acc.latency_log,
            scoreboard: acc.scoreboard,
            series,
            trace,
            completion: acc.completion,
            converged,
            warmup_throughput_drift,
            warmup_latency_drift,
        }
    }

    /// Frozen read-only view over the router state (test hook).
    #[cfg(test)]
    #[allow(unsafe_code)]
    pub(crate) fn view(&self) -> NetView<'_> {
        // SAFETY: `&self` with no running workers means no concurrent
        // mutation.
        unsafe { self.eng.view(self.cycle()) }
    }

    /// Exclusive access to every router core (test hook).
    #[cfg(test)]
    fn router_cores(&mut self) -> &mut [RouterCore] {
        self.eng.routers.slice_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::WARMUP_DRIFT_LIMIT;
    use crate::routing::ShortestPathRouting;
    use crate::spec::{PortSpec, RouterSpec};
    use dfly_traffic::{Shift, UniformRandom};

    fn term(t: u32) -> PortSpec {
        PortSpec {
            conn: Connection::Terminal { terminal: t },
            latency: 1,
            class: ChannelClass::Terminal,
        }
    }

    fn link(r: u32, p: u32) -> PortSpec {
        PortSpec {
            conn: Connection::Router { router: r, port: p },
            latency: 1,
            class: ChannelClass::Local,
        }
    }

    /// T0-R0 — R1 — R2-T1 line with T2 on R1.
    fn line_spec() -> NetworkSpec {
        NetworkSpec::validated(
            vec![
                RouterSpec {
                    ports: vec![term(0), link(1, 0)],
                },
                RouterSpec {
                    ports: vec![link(0, 1), link(2, 0), term(2)],
                },
                RouterSpec {
                    ports: vec![link(1, 1), term(1)],
                },
            ],
            2,
        )
        .unwrap()
    }

    fn run_line(cfg: SimConfig, pattern: &dyn TrafficPattern) -> RunStats {
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let stats = Simulation::new(&spec, &routing, pattern, cfg)
            .unwrap()
            .finish();
        stats
    }

    /// T0-R0 — R1-T1 — R2-T2 line with terminal ids monotone in router
    /// order, so `plan_shards` can actually split it.
    fn monotone_line_spec() -> NetworkSpec {
        NetworkSpec::validated(
            vec![
                RouterSpec {
                    ports: vec![term(0), link(1, 0)],
                },
                RouterSpec {
                    ports: vec![link(0, 1), link(2, 0), term(1)],
                },
                RouterSpec {
                    ports: vec![link(1, 1), term(2)],
                },
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn latency_percentiles_are_exact_below_the_histogram_range() {
        let mut cfg = SimConfig::paper_default(0.6);
        cfg.warmup = 200;
        cfg.measure = 2_000;
        cfg.seed = 5;
        let mut stats = run_line(cfg, &UniformRandom::new(3));
        assert!(stats.drained);
        let ps = [0.5, 0.95, 0.99];
        for p in ps {
            assert_eq!(stats.latency_percentile(p), stats.histogram.percentile(p));
        }
        // Non-vacuous: the log buckets' edges are not the percentiles.
        assert!(ps
            .iter()
            .any(|&p| stats.latency_log.percentile(p) != stats.histogram.percentile(p)));
        // Past the linear range the log histogram answers.
        stats.histogram = Histogram::new(1, 1);
        for p in ps {
            assert!(stats.latency_percentile(p).is_some());
            assert_eq!(stats.latency_percentile(p), stats.latency_log.percentile(p));
        }
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        // Full telemetry on, so the comparison also covers per-shard
        // series and trace merging.
        let run = |shards: usize| {
            let spec = monotone_line_spec();
            let routing = ShortestPathRouting::new(&spec);
            let pattern = UniformRandom::new(3);
            let mut cfg = SimConfig::paper_default(0.3);
            cfg.warmup = 200;
            cfg.measure = 2_000;
            cfg.seed = 9;
            cfg.shards = shards;
            cfg.telemetry = crate::config::TelemetryConfig {
                sample_every: 8,
                trace_rate: 1.0,
                trace_seed: 5,
            };
            let sim = Simulation::new(&spec, &routing, &pattern, cfg).unwrap();
            assert_eq!(sim.shard_count(), shards.min(3));
            sim.finish()
        };
        let one = run(1);
        assert!(one.drained);
        for shards in [2, 3] {
            assert_eq!(run(shards), one, "{shards}-shard run diverged");
        }
    }

    #[test]
    fn non_monotone_terminals_fall_back_to_one_shard() {
        // `line_spec` numbers its terminals out of router order, which
        // would break the global packet-id order if split; the planner
        // must refuse and run single-sharded.
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let cfg = SimConfig::paper_default(0.2).with_shards(3);
        let sim = Simulation::new(&spec, &routing, &pattern, cfg).unwrap();
        assert_eq!(sim.shard_count(), 1);
    }

    #[test]
    fn zero_load_latency_matches_hops() {
        // T0 -> T1 crosses: injection (1) + two links (2) + ejection (1).
        let mut cfg = SimConfig::paper_default(0.005);
        cfg.warmup = 100;
        cfg.measure = 2_000;
        cfg.seed = 3;
        let pattern = Shift::new(3, 1); // 0->1, 1->2, 2->0
        let stats = run_line(cfg, &pattern);
        assert!(stats.drained);
        assert!(stats.latency.count > 0);
        // 0->1: 4 cycles; 1->2 and 2->0: 3 cycles (one link). At
        // near-zero load the average sits between 3 and 4.
        let avg = stats.avg_latency().unwrap();
        assert!((3.0..=4.2).contains(&avg), "avg {avg}");
        assert_eq!(stats.latency.min, 3);
    }

    #[test]
    fn low_load_throughput_matches_offered() {
        let mut cfg = SimConfig::paper_default(0.2);
        cfg.warmup = 500;
        cfg.measure = 5_000;
        let pattern = UniformRandom::new(3);
        let stats = run_line(cfg, &pattern);
        assert!(stats.drained);
        assert!(
            (stats.accepted_rate - 0.2).abs() < 0.02,
            "accepted {}",
            stats.accepted_rate
        );
        assert!(
            (stats.injected_rate - 0.2).abs() < 0.02,
            "injected {}",
            stats.injected_rate
        );
    }

    #[test]
    fn calendar_delivers_in_push_order_and_grows() {
        let tgt = |vc: u8| CreditTarget::Terminal { term: 0, vc };
        let mut ring = Calendar::with_horizon(2);
        assert_eq!(ring.mask, 3);
        // Same delivery cycle: FIFO. Far future: forces growth with
        // pending events that must re-slot to their absolute times.
        ring.push(0, 2, tgt(0));
        ring.push(0, 2, tgt(1));
        ring.push(0, 1, tgt(2));
        ring.push(0, 37, tgt(3));
        assert!(ring.mask >= 63);
        assert_eq!(ring.pending, 4);
        let due = ring.take_due(1);
        assert_eq!(due, vec![tgt(2)]);
        ring.restore(1, due);
        let due = ring.take_due(2);
        assert_eq!(due, vec![tgt(0), tgt(1)]);
        ring.restore(2, due);
        assert_eq!(ring.take_due(37), vec![tgt(3)]);
        assert_eq!(ring.pending, 0);
    }

    #[test]
    fn instrumented_matches_finish_at_one_and_two_shards() {
        let spec = monotone_line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let cfg = SimConfig::paper_default(0.3).with_seed(11);
        let by_finish = Simulation::new(&spec, &routing, &pattern, cfg.clone())
            .unwrap()
            .finish();
        for shards in [1, 2] {
            let cfg = cfg.clone().with_shards(shards);
            let (by_inst, perf) = Simulation::new(&spec, &routing, &pattern, cfg)
                .unwrap()
                .run_instrumented();
            assert_eq!(by_inst, by_finish, "{shards}-shard timed run diverged");
            assert_eq!(perf.shards, shards);
            assert_eq!(perf.shard_phases.len(), shards);
            assert_eq!(perf.cycles, by_finish.cycles);
            assert!(perf.flit_hops > 0);
            assert!(perf.cycles_per_sec() > 0.0);
            assert!(perf.flit_hops_per_sec() > 0.0);
            let phase_sum: std::time::Duration = perf.phases.iter().sum();
            assert!(perf.wall >= phase_sum);
        }
    }

    #[test]
    fn stepped_then_finished_matches_driven() {
        // `step()` never tests for termination, so `finish()` after k
        // steps inside the window continues the same run — the
        // benchmark's stepped rep (k = window - 1) depends on it. Full
        // telemetry on, so series and trace are covered too.
        let spec = monotone_line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let mut cfg = SimConfig::paper_default(0.3).with_seed(9);
        cfg.warmup = 200;
        cfg.measure = 1_000;
        cfg.telemetry = crate::config::TelemetryConfig {
            sample_every: 8,
            trace_rate: 1.0,
            trace_seed: 5,
        };
        let build = |shards: usize| {
            Simulation::new(&spec, &routing, &pattern, cfg.clone().with_shards(shards)).unwrap()
        };
        let driven = build(1).finish();
        assert!(driven.drained);
        for shards in [1, 2] {
            for k in [1, 700, 1_199] {
                let mut sim = build(shards);
                assert_eq!(sim.shard_count(), shards);
                for _ in 0..k {
                    sim.step();
                }
                assert_eq!(sim.cycle(), k);
                assert_eq!(
                    sim.finish(),
                    driven,
                    "{k} steps then finish at {shards} shard(s) diverged"
                );
            }
        }
    }

    #[test]
    fn worklists_empty_once_drained() {
        let mut cfg = SimConfig::paper_default(0.4);
        cfg.warmup = 200;
        cfg.measure = 1_000;
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let mut sim = Simulation::new(&spec, &routing, &pattern, cfg).unwrap();
        sim.drive::<false>();
        for st in &mut sim.shards {
            st.workload = Box::new(dfly_traffic::Idle);
        }
        for _ in 0..2_000 {
            sim.step();
        }
        for st in &sim.shards {
            // No router is due a visit and no channel holds a flit.
            assert!(st.work.rows.iter().all(|&w| w == 0));
            assert!(st.pipe_mask.iter().all(|&m| m == 0));
            assert!(st.pipes.iter().all(FlitQueue::is_empty));
            assert_eq!(st.credit_ring.pending, 0);
            // `Idle` answers "never": every terminal the calendar woke
            // has been retired, none is polled or parked.
            assert!(st.poll.is_empty());
            assert_eq!(st.wake.pending, 0);
            assert_eq!(st.retired, st.terminals.len());
            // Every arena slot returned to the free list: no handle
            // leaked off the queues.
            assert_eq!(st.arena.free_count(), st.arena.capacity());
        }
        for core in sim.router_cores() {
            assert!(core.outstanding.iter().all(|&o| o == 0));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pattern = UniformRandom::new(3);
        let a = run_line(SimConfig::paper_default(0.3).with_seed(7), &pattern);
        let b = run_line(SimConfig::paper_default(0.3).with_seed(7), &pattern);
        assert_eq!(a, b);
        let c = run_line(SimConfig::paper_default(0.3).with_seed(8), &pattern);
        assert_ne!(a.latency, c.latency);
    }

    #[test]
    fn credits_conserved_after_drain() {
        let mut cfg = SimConfig::paper_default(0.4);
        cfg.warmup = 200;
        cfg.measure = 1_000;
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let mut sim = Simulation::new(&spec, &routing, &pattern, cfg).unwrap();
        sim.drive::<false>();
        // Stop injecting and run plenty of extra cycles.
        for st in &mut sim.shards {
            st.workload = Box::new(dfly_traffic::Idle);
        }
        for _ in 0..2_000 {
            sim.step();
        }
        for (r, core) in sim.router_cores().iter().enumerate() {
            assert_eq!(core.in_mask, 0, "router {r} input stage not empty");
            assert_eq!(core.out_mask, 0, "router {r} output queues not empty");
            assert!(core.ctq.is_empty(), "conventional mode allocated a CTQ");
            // Every slot is back at the buffer depth: network ports got
            // their credits back, terminal ports never spent any.
            for (slot, &c) in core.credits.iter().enumerate() {
                assert_eq!(c, 16, "router {r} slot {slot} credits {c}");
            }
        }
        for st in &sim.shards {
            for (tl, tc) in st.terminals.iter().enumerate() {
                let t = st.range.t0 + tl;
                assert!(tc.source.is_empty(), "terminal {t} source not empty");
                for &c in &tc.credits {
                    assert_eq!(c, 16, "terminal {t} credits");
                }
            }
        }
    }

    #[test]
    fn saturated_run_reports_undrained() {
        // A single shared link at offered load ~1.0 from two senders on
        // the same router cannot drain.
        let spec = NetworkSpec::validated(
            vec![
                RouterSpec {
                    ports: vec![term(0), term(1), link(1, 0)],
                },
                RouterSpec {
                    ports: vec![link(0, 2), term(2)],
                },
            ],
            2,
        )
        .unwrap();
        let routing = ShortestPathRouting::new(&spec);
        // Everyone sends to terminal 2 on the far router.
        #[derive(Debug)]
        struct ToTwo;
        impl TrafficPattern for ToTwo {
            fn num_terminals(&self) -> usize {
                3
            }
            fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
                if source == 2 {
                    0
                } else {
                    2
                }
            }
        }
        // Labelled backlog grows at ~0.8 flits/cycle over the window, so
        // a drain cap shorter than the backlog cannot complete.
        let mut cfg = SimConfig::paper_default(0.9);
        cfg.warmup = 200;
        cfg.measure = 5_000;
        cfg.drain_cap = 2_000;
        let stats = Simulation::new(&spec, &routing, &ToTwo, cfg)
            .unwrap()
            .finish();
        assert!(!stats.drained, "two 0.9 sources through one link");
        // Hitting drain_cap means the sampled packets are the ones that
        // escaped the backlog: their mean is biased low, so the
        // aggregate accessor must refuse to report it — even though the
        // partial population itself is non-empty.
        assert!(stats.latency.count > 0, "some labelled packets escaped");
        assert_eq!(
            stats.avg_latency(),
            None,
            "undrained run must not report a biased mean"
        );
        // Terminals 0 and 1 share the link (~0.5 each) while terminal 2's
        // reverse path is free (0.9): average ~0.63, well below offered.
        assert!(
            stats.injected_rate < 0.7,
            "injected {}",
            stats.injected_rate
        );
        // The shared link runs at full utilisation.
        let load = stats
            .channel_loads
            .iter()
            .find(|c| c.router == 0 && c.port == 2)
            .unwrap();
        assert!(load.utilization > 0.95, "utilization {}", load.utilization);
    }

    #[test]
    fn output_queue_backlog_visible_to_netview() {
        // Freeze a congested instant and check NetView sees the backlog.
        let spec = NetworkSpec::validated(
            vec![
                RouterSpec {
                    ports: vec![term(0), term(1), link(1, 0)],
                },
                RouterSpec {
                    ports: vec![link(0, 2), term(2)],
                },
            ],
            2,
        )
        .unwrap();
        let routing = ShortestPathRouting::new(&spec);
        #[derive(Debug)]
        struct ToTwo;
        impl TrafficPattern for ToTwo {
            fn num_terminals(&self) -> usize {
                3
            }
            fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
                if source == 2 {
                    0
                } else {
                    2
                }
            }
        }
        let mut cfg = SimConfig::paper_default(1.0);
        cfg.warmup = 10;
        cfg.measure = 10;
        cfg.drain_cap = 0;
        let mut sim = Simulation::new(&spec, &routing, &ToTwo, cfg).unwrap();
        for _ in 0..500 {
            sim.step();
        }
        let view = sim.view();
        // Router 0's output port 2 (the link) backs up with flits from
        // both terminals; only 1/cycle leaves.
        assert!(view.occupancy(0, 2) >= 8, "occ {}", view.occupancy(0, 2));
        // Its ejection ports carry no backlog.
        assert_eq!(view.occupancy(1, 1), 0);
        // Saturated, the terminal ports still hold every credit, so
        // their committed count is their queue depth.
        for vc in 0..2 {
            assert_eq!(view.vc_committed(1, 1, vc), view.vc_occupancy(1, 1, vc));
        }
        let depth = sim.eng.cfg.buffer_depth;
        for (r, core) in sim.router_cores().iter().enumerate() {
            let ports = &spec.routers[r].ports;
            assert!(core.terminal_credits_full(ports, depth), "router {r}");
        }
    }

    #[test]
    #[should_panic(expected = "vc range")]
    fn netview_vc_occupancy_rejects_out_of_range_vc() {
        // Router 1 of the line has two VCs per port: VC 2 of port 0 is
        // not port 1's VC 0.
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let sim =
            Simulation::new(&spec, &routing, &pattern, SimConfig::paper_default(0.1)).unwrap();
        sim.view().vc_occupancy(1, 0, 2);
    }

    #[test]
    #[should_panic(expected = "vc range")]
    fn netview_vc_committed_rejects_out_of_range_vc() {
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let sim =
            Simulation::new(&spec, &routing, &pattern, SimConfig::paper_default(0.1)).unwrap();
        sim.view().vc_committed(1, 0, 2);
    }

    #[test]
    fn round_trip_mode_keeps_ctq_balanced() {
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(3);
        let mut cfg = SimConfig::paper_default(0.6);
        cfg.warmup = 100;
        cfg.measure = 1_000;
        cfg.credit_mode = CreditMode::round_trip();
        let mut sim = Simulation::new(&spec, &routing, &pattern, cfg).unwrap();
        sim.drive::<false>();
        let vcs = sim.spec().vcs;
        for core in sim.router_cores() {
            for (p, q) in core.ctq.iter().enumerate() {
                assert!(
                    q.len() <= 16 * vcs,
                    "ctq at port {p} grew past outstanding credits"
                );
            }
        }
    }

    #[test]
    fn multi_flit_packets_arrive_whole() {
        let mut cfg = SimConfig::paper_default(0.05);
        cfg.packet_len = 4;
        cfg.warmup = 100;
        cfg.measure = 2_000;
        let pattern = UniformRandom::new(3);
        let stats = run_line(cfg, &pattern);
        assert!(stats.drained);
        // Offered load in flits is 4x the packet rate.
        assert!((stats.offered_load - 0.2).abs() < 1e-12);
        assert!(stats.accepted_rate > 0.15);
        // A 4-flit packet takes at least 3 extra cycles of serialisation.
        assert!(stats.latency.min >= 6);
    }

    #[test]
    fn scale_mode_only_drops_channel_loads() {
        let pattern = UniformRandom::new(3);
        let base = run_line(SimConfig::paper_default(0.3).with_seed(5), &pattern);
        let scaled = run_line(
            SimConfig::paper_default(0.3)
                .with_seed(5)
                .with_scale_mode(true),
            &pattern,
        );
        assert!(!base.channel_loads.is_empty());
        assert!(scaled.channel_loads.is_empty());
        let mut base = base;
        base.channel_loads.clear();
        assert_eq!(base, scaled, "scale mode changed more than channel loads");
    }

    #[test]
    fn barrier_workload_completes_identically_at_any_shard_count() {
        use dfly_traffic::Barrier;
        let run = |shards: usize| {
            let spec = monotone_line_spec();
            let routing = ShortestPathRouting::new(&spec);
            let cfg = SimConfig::paper_default(0.0)
                .with_seed(13)
                .with_shards(shards)
                .with_termination(Termination::WorkComplete);
            let stats = Simulation::with_workload(&spec, &routing, cfg, |_range| {
                Box::new(Barrier::new(vec![0, 1, 2], 3))
            })
            .unwrap()
            .finish();
            stats
        };
        let one = run(1);
        assert!(one.drained, "barrier run must drain");
        let done = one.completion.expect("work-complete run reports its cycle");
        assert!(done > 0 && done < one.cycles + 1);
        // 3 iterations x (2 arrives + 2 releases) payload packets.
        assert_eq!(one.latency.count, 12);
        for shards in [2, 3] {
            assert_eq!(run(shards), one, "{shards}-shard closed loop diverged");
        }
    }

    #[test]
    fn fixed_window_runs_report_no_completion() {
        let pattern = UniformRandom::new(3);
        let stats = run_line(SimConfig::paper_default(0.2).with_seed(3), &pattern);
        assert_eq!(stats.completion, None);
    }

    #[test]
    fn radix_beyond_the_port_masks_is_rejected() {
        // One router, every port a terminal: 128 ports fit the `u128`
        // occupancy masks, 129 do not.
        let star = |n: u32| {
            NetworkSpec::validated(
                vec![RouterSpec {
                    ports: (0..n).map(term).collect(),
                }],
                2,
            )
            .unwrap()
        };
        let build = |spec: &NetworkSpec| {
            let routing = ShortestPathRouting::new(spec);
            let pattern = UniformRandom::new(spec.num_terminals());
            let mut cfg = SimConfig::paper_default(0.2);
            cfg.warmup = 50;
            cfg.measure = 200;
            Simulation::new(spec, &routing, &pattern, cfg).map(|sim| sim.finish())
        };
        let widest = build(&star(128)).expect("radix 128 is supported");
        assert!(widest.drained && widest.latency.count > 0);
        match build(&star(129)) {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("129 ports"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn merge_sorted_interleaves_and_appends() {
        let mut poll = vec![2, 5, 9];
        merge_sorted(&mut poll, &[0, 3, 4, 11]);
        assert_eq!(poll, [0, 2, 3, 4, 5, 9, 11]);
        merge_sorted(&mut poll, &[]);
        assert_eq!(poll.len(), 7);
        let mut empty = Vec::new();
        merge_sorted(&mut empty, &[1, 7]);
        assert_eq!(empty, [1, 7]);
    }

    #[test]
    fn mismatched_pattern_rejected() {
        let spec = line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(5);
        let err = Simulation::new(&spec, &routing, &pattern, SimConfig::paper_default(0.1));
        assert!(err.is_err());
    }

    /// 4-router unidirectional ring, one terminal each (monotone, so
    /// the planner can split it 1/2/4 ways). Port 1 is the forward
    /// link, port 2 the inbound end of the previous router's forward
    /// link.
    fn ring_spec() -> NetworkSpec {
        NetworkSpec::validated(
            (0..4u32)
                .map(|r| RouterSpec {
                    ports: vec![term(r), link((r + 1) % 4, 2), link((r + 3) % 4, 1)],
                })
                .collect(),
            2,
        )
        .unwrap()
    }

    /// Hostile routing that forwards every flit around the ring forever
    /// and never ejects: with no escape path and a single VC in use,
    /// the ring's cyclic channel dependency deadlocks as soon as the
    /// buffers fill.
    struct Spin;
    impl RoutingAlgorithm for Spin {
        fn inject(
            &self,
            _view: &NetView<'_>,
            _src_term: usize,
            _dest_term: usize,
            _rng: &mut SmallRng,
        ) -> (RouteInfo, DecisionRecord) {
            (RouteInfo::minimal(), DecisionRecord::default())
        }
        fn route(&self, _router: usize, _flit: &Flit) -> PortVc {
            PortVc::new(1, 0)
        }
    }

    #[test]
    fn watchdog_reports_identical_stall_at_any_shard_count() {
        let run = |shards: usize| {
            let spec = ring_spec();
            let pattern = UniformRandom::new(4);
            let mut cfg = SimConfig::paper_default(1.0)
                .with_seed(7)
                .with_shards(shards)
                .with_watchdog(256);
            cfg.warmup = 100;
            cfg.measure = 10_000;
            cfg.drain_cap = 100_000;
            let sim = Simulation::new(&spec, &Spin, &pattern, cfg).unwrap();
            assert_eq!(sim.shard_count(), shards.min(4));
            sim.try_finish().expect_err("wedged ring must stall")
        };
        fn force_report(err: &SimError) -> StallReport {
            match err {
                SimError::Stalled(report) => *report,
                other => panic!("expected Stalled, got {other}"),
            }
        }
        let one = force_report(&run(1));
        assert_eq!(one.window, 256);
        assert!(one.cycle.is_multiple_of(256));
        assert!(one.in_flight > 0, "stall requires packets in flight");
        assert!(one.blocked_ports >= 1);
        // Every router's only loaded output is its forward link; the
        // ring is symmetric, so the tie-breaks pick router 0 port 1.
        assert_eq!((one.starved_router, one.starved_port), (0, 1));
        assert!(one.starved_depth > 0);
        assert!(one.oldest_age >= 256, "the wedge outlasted the window");
        let msg = SimError::Stalled(one).to_string();
        assert!(msg.contains("router 0 port 1"), "names the channel: {msg}");
        for shards in [2, 4] {
            let err = run(shards);
            assert_eq!(
                force_report(&err),
                one,
                "{shards}-shard stall report diverged"
            );
            assert_eq!(
                err.to_string(),
                msg,
                "{shards}-shard stall message diverged"
            );
        }
    }

    #[test]
    fn healthy_runs_pass_the_watchdog_and_report_convergence() {
        let pattern = UniformRandom::new(3);
        let mut cfg = SimConfig::paper_default(0.3).with_seed(5).with_watchdog(64);
        cfg.warmup = 400;
        cfg.measure = 2_000;
        let spec = monotone_line_spec();
        let routing = ShortestPathRouting::new(&spec);
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .try_finish()
            .expect("healthy run must not stall");
        assert!(stats.drained);
        assert!(stats.converged, "steady warmup converges: {stats:?}");
        assert!(stats.warmup_throughput_drift.unwrap() <= WARMUP_DRIFT_LIMIT);
        assert!(stats.warmup_latency_drift.unwrap() <= WARMUP_DRIFT_LIMIT);
        // The watchdog leaves the statistics untouched: identical run
        // with it disabled (the default) agrees exactly.
        let mut quiet_cfg = SimConfig::paper_default(0.3).with_seed(5);
        quiet_cfg.warmup = 400;
        quiet_cfg.measure = 2_000;
        let quiet = Simulation::new(&spec, &routing, &pattern, quiet_cfg)
            .unwrap()
            .finish();
        assert_eq!(stats, quiet, "watchdog perturbed the run");
    }

    #[test]
    fn too_short_warmup_is_vacuously_converged() {
        let pattern = UniformRandom::new(3);
        let mut cfg = SimConfig::paper_default(0.2).with_seed(4);
        cfg.warmup = 0;
        cfg.measure = 500;
        let stats = run_line(cfg, &pattern);
        assert!(stats.converged);
        assert_eq!(stats.warmup_throughput_drift, None);
        assert_eq!(stats.warmup_latency_drift, None);
    }
}
