//! Closed-loop workloads: traffic whose injection depends on deliveries.
//!
//! The injection processes in [`crate::injection`] are *open-loop*: a
//! terminal decides to inject from a coin flip, blind to what the
//! network delivers. Real applications are not — a rank cannot leave a
//! barrier before the release reaches it, an all-reduce step waits for
//! its partner's chunk, a client stalls on outstanding replies. The
//! [`Workload`] trait closes the loop: the simulator *offers* each
//! terminal the chance to inject every cycle and *notifies* workloads
//! of deliveries, so injection becomes a function of progress.
//!
//! # Contract
//!
//! Each cycle the engine calls [`Workload::offer`] for every polled
//! local terminal, in ascending terminal order; a terminal is polled
//! unless a [`Workload::quiet_until`] answer has parked it until a
//! later cycle. It calls [`Workload::delivered`] for each delivered
//! packet — once at the destination terminal (the message arrived) and
//! once at the source terminal (the send completed), in a canonical
//! order (ascending packet id, then terminal) regardless of how the
//! simulation is sharded. One workload instance exists *per engine
//! shard*; instances coordinate only through simulated messages, never
//! shared state, which is what keeps sharded runs bit-identical. All
//! state must therefore be partitioned by terminal: an instance may
//! only consult state of terminals it has been offered.
//!
//! Determinism: `offer` and `quiet_until` may draw from the
//! per-terminal RNG they are handed, but must not consult any other
//! source of randomness or global mutable state.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::SmallRng;

use crate::injection::InjectionProcess;
use crate::pattern::TrafficPattern;

/// A packet a workload wants injected at a terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageIntent {
    /// Destination terminal.
    pub dest: usize,
    /// Application tag, carried by the packet and handed back in the
    /// delivery notification. Meaning is private to the workload.
    pub tag: u32,
    /// Whether work-complete termination waits on this packet. Open
    /// background traffic sets `false` so it never blocks termination.
    pub tracked: bool,
}

/// A delivered packet, as reported to [`Workload::delivered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Source terminal.
    pub src: usize,
    /// Destination terminal.
    pub dest: usize,
    /// The tag from the originating [`MessageIntent`].
    pub tag: u32,
    /// Global packet id (identical at any shard count).
    pub packet: u64,
    /// Cycle the packet was generated.
    pub created: u64,
}

/// A closed-loop traffic source driven by the simulator.
///
/// See the module-level docs for the engine contract.
pub trait Workload {
    /// Short name used in reports, e.g. `"barrier"`.
    fn name(&self) -> &'static str;

    /// Asks `terminal` whether it injects a packet at `cycle`. Called
    /// for every polled terminal each cycle, in ascending terminal
    /// order (see [`Self::quiet_until`] for which terminals are not).
    /// `rng` is the terminal's private deterministic stream.
    fn offer(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> Option<MessageIntent>;

    /// The next cycle at which `terminal` has to be offered again; the
    /// engine skips its `offer` calls on every cycle in between, and
    /// never polls it again after `u64::MAX`.
    ///
    /// Called at the end of `cycle`, and only while the terminal's
    /// source queue is empty — the one state in which nothing but
    /// `offer` draws from `rng`, so trials can be run ahead of time.
    /// An implementation must leave the run exactly as if the terminal
    /// had been offered every cycle:
    ///
    /// * every skipped `offer` would have returned `None`;
    /// * the draws consumed here are exactly the draws those skipped
    ///   offers would have made, plus at most the deciding trial of the
    ///   returned cycle, which `offer` must then not repeat;
    /// * the answer does not depend on deliveries: a workload whose
    ///   offers react to [`Self::delivered`] keeps the default, which
    ///   polls the terminal every cycle.
    fn quiet_until(&mut self, _terminal: usize, cycle: u64, _rng: &mut SmallRng) -> u64 {
        cycle + 1
    }

    /// Reports a delivery. Called once with `terminal == msg.dest`
    /// (the message arrived there) and — if [`Self::wants_delivery`] —
    /// once with `terminal == msg.src` (that terminal's send
    /// completed). `cycle` is the arrival cycle.
    fn delivered(&mut self, terminal: usize, msg: &Delivery, cycle: u64);

    /// Whether the engine should route delivery notifications to this
    /// workload at all. Open-loop adapters return `false`, which makes
    /// the notification path free for every pre-existing sweep.
    fn wants_delivery(&self) -> bool {
        true
    }

    /// `true` once every terminal this instance has been offered is
    /// finished. Drives the engine's `Termination::WorkComplete` runs;
    /// open-ended workloads return `false` forever.
    fn all_done(&self) -> bool {
        false
    }
}

/// A workload that never injects and is immediately done. Useful as the
/// background of a partial placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct Idle;

impl Workload for Idle {
    fn name(&self) -> &'static str {
        "idle"
    }

    fn offer(&mut self, _: usize, _: u64, _: &mut SmallRng) -> Option<MessageIntent> {
        None
    }

    fn quiet_until(&mut self, _: usize, _: u64, _: &mut SmallRng) -> u64 {
        u64::MAX
    }

    fn delivered(&mut self, _: usize, _: &Delivery, _: u64) {}

    fn wants_delivery(&self) -> bool {
        false
    }

    fn all_done(&self) -> bool {
        true
    }
}

/// Injection trials one [`Source::quiet_until`] call runs ahead at most.
/// A terminal that never fires is therefore woken once per `LOOKAHEAD`
/// cycles to run the next batch: the same trials as polling it every
/// cycle, at no more than the same cost.
pub const LOOKAHEAD: u64 = 1024;

/// One terminal's open-loop source: its [`InjectionProcess`] plus the
/// look-ahead state behind [`Workload::quiet_until`]. Owns the draw
/// order — injection trial, then destination if it fired — that every
/// historical sweep depends on.
#[derive(Debug, Clone)]
pub struct Source<P> {
    proc: P,
    /// The cycle whose trial [`Self::quiet_until`] already ran and saw
    /// succeed; `offer` there draws only the destination. `u64::MAX`
    /// when no trial is outstanding.
    armed: u64,
}

impl<P: InjectionProcess> Source<P> {
    /// A source driven by `proc`, with no trial run ahead.
    pub fn new(proc: P) -> Self {
        Source {
            proc,
            armed: u64::MAX,
        }
    }

    /// [`Workload::offer`] for this terminal: one injection trial
    /// (unless [`Self::quiet_until`] already ran it), then one
    /// destination draw if it fired.
    pub fn offer(
        &mut self,
        terminal: usize,
        cycle: u64,
        rng: &mut SmallRng,
        pattern: &(impl TrafficPattern + ?Sized),
        tracked: bool,
    ) -> Option<MessageIntent> {
        if self.armed == cycle {
            self.armed = u64::MAX;
        } else {
            debug_assert_eq!(self.armed, u64::MAX, "offered at {cycle} while parked");
            if !self.proc.inject(rng) {
                return None;
            }
        }
        Some(MessageIntent {
            dest: pattern.destination(terminal, rng),
            tag: 0,
            tracked,
        })
    }

    /// [`Workload::quiet_until`] for this terminal: runs the trials of
    /// the cycles after `cycle` until one succeeds and returns that
    /// cycle, armed; after [`LOOKAHEAD`] failures returns
    /// `cycle + LOOKAHEAD + 1`, whose trial is still to run.
    pub fn quiet_until(&mut self, cycle: u64, rng: &mut SmallRng) -> u64 {
        debug_assert_eq!(self.armed, u64::MAX, "looked ahead twice");
        match self.proc.first_success(rng, LOOKAHEAD) {
            Some(k) => {
                self.armed = cycle + 1 + k;
                self.armed
            }
            None => cycle + LOOKAHEAD + 1,
        }
    }
}

/// Open-loop adapter: wraps a classic [`InjectionProcess`] + traffic
/// pattern pair as a [`Workload`].
///
/// Reproduces the pre-workload engine draw order exactly — one
/// injection draw per terminal per cycle, then one destination draw if
/// it fired, both from the terminal's own RNG — so every historical
/// sweep stays bit-identical through this adapter.
pub struct OpenLoop<'a, P> {
    /// Per-terminal sources, indexed by `terminal - base`.
    sources: Vec<Source<P>>,
    /// First terminal this instance is responsible for.
    base: usize,
    pattern: &'a dyn TrafficPattern,
    tracked: bool,
}

impl<'a, P: InjectionProcess + Clone> OpenLoop<'a, P> {
    /// Builds an adapter for the terminals in `range`, each starting
    /// from a fresh clone of `proto` (matching the engine's historical
    /// one-process-per-terminal setup).
    pub fn new(proto: &P, range: std::ops::Range<usize>, pattern: &'a dyn TrafficPattern) -> Self {
        OpenLoop {
            sources: vec![Source::new(proto.clone()); range.len()],
            base: range.start,
            pattern,
            tracked: true,
        }
    }

    /// Marks generated packets as untracked: under work-complete
    /// termination they never block the run from ending. Use for
    /// background load behind a finite foreground job.
    pub fn untracked(mut self) -> Self {
        self.tracked = false;
        self
    }
}

impl<P: InjectionProcess + Clone> Workload for OpenLoop<'_, P> {
    fn name(&self) -> &'static str {
        "open-loop"
    }

    fn offer(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> Option<MessageIntent> {
        self.sources[terminal - self.base].offer(terminal, cycle, rng, self.pattern, self.tracked)
    }

    fn quiet_until(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> u64 {
        self.sources[terminal - self.base].quiet_until(cycle, rng)
    }

    fn delivered(&mut self, _: usize, _: &Delivery, _: u64) {}

    fn wants_delivery(&self) -> bool {
        false
    }
}

/// Rank bookkeeping shared by the collective workloads: member list,
/// terminal → rank lookup, and which ranks are local to this instance.
#[derive(Debug, Clone)]
struct Membership {
    members: Vec<usize>,
    rank_of: BTreeMap<usize, usize>,
    /// Ranks this shard instance has been offered; only their
    /// done-ness counts towards [`Workload::all_done`].
    local: Vec<bool>,
}

impl Membership {
    fn new(members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "collective with no members");
        let rank_of: BTreeMap<usize, usize> =
            members.iter().enumerate().map(|(r, &t)| (t, r)).collect();
        assert_eq!(rank_of.len(), members.len(), "duplicate member terminal");
        let n = members.len();
        Membership {
            members,
            rank_of,
            local: vec![false; n],
        }
    }

    fn n(&self) -> usize {
        self.members.len()
    }

    /// Rank of `terminal`, marking it local when `touch` is set.
    fn rank(&mut self, terminal: usize, touch: bool) -> Option<usize> {
        let r = *self.rank_of.get(&terminal)?;
        if touch {
            self.local[r] = true;
        }
        Some(r)
    }

    fn all_local_done(&self, done: impl Fn(usize) -> bool) -> bool {
        self.local.iter().enumerate().all(|(r, &l)| !l || done(r))
    }
}

fn intent(dest: usize, tag: u32) -> MessageIntent {
    MessageIntent {
        dest,
        tag,
        tracked: true,
    }
}

/// Tag namespace helpers: high byte is the message kind, low 24 bits
/// the round / step / sequence number.
const KIND_SHIFT: u32 = 24;
const KIND_MASK: u32 = 0xff << KIND_SHIFT;

fn tag_of(kind: u32, seq: u32) -> u32 {
    debug_assert!(seq < (1 << KIND_SHIFT), "sequence {seq} overflows tag");
    (kind << KIND_SHIFT) | seq
}

fn tag_kind(tag: u32) -> u32 {
    (tag & KIND_MASK) >> KIND_SHIFT
}

fn tag_seq(tag: u32) -> u32 {
    tag & !KIND_MASK
}

const ARRIVE: u32 = 1;
const RELEASE: u32 = 2;
const REQUEST: u32 = 1;
const REPLY: u32 = 2;

#[derive(Debug, Clone, Default)]
struct BarrierMember {
    /// Current barrier iteration (0-based).
    round: u32,
    /// Non-root: sent this round's arrive message.
    sent_arrive: bool,
}

/// A centralised barrier, repeated `iterations` times.
///
/// Every non-root member sends an `ARRIVE` message to the root
/// (rank 0); once all have arrived the root fans out one `RELEASE` per
/// member per cycle. A member enters iteration `i + 1` only after its
/// iteration-`i` release is delivered — the textbook closed loop: the
/// barrier's exit time *is* the network's round-trip behaviour under
/// whatever else is loading it.
#[derive(Debug, Clone)]
pub struct Barrier {
    mem: Membership,
    iterations: u32,
    state: Vec<BarrierMember>,
    /// Root-side arrival counts, indexed by round.
    arrivals: Vec<u32>,
    /// Root-side pending release sends (dest terminal, tag).
    outbox: VecDeque<(usize, u32)>,
    /// Rounds the root has finished counting (releases queued).
    root_round: u32,
}

impl Barrier {
    /// A barrier over `members` (first member is the root), executed
    /// `iterations` times back to back.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates, or if
    /// `iterations` is 0 or overflows the tag's 24-bit round space.
    pub fn new(members: Vec<usize>, iterations: u32) -> Self {
        assert!(iterations >= 1, "barrier with zero iterations");
        assert!(iterations < (1 << KIND_SHIFT), "too many iterations");
        let mem = Membership::new(members);
        let n = mem.n();
        Barrier {
            mem,
            iterations,
            state: vec![BarrierMember::default(); n],
            arrivals: vec![0; iterations as usize],
            outbox: VecDeque::new(),
            root_round: 0,
        }
    }

    /// Queues releases for every round whose arrivals are complete.
    fn root_advance(&mut self) {
        let n = self.mem.n() as u32;
        while self.root_round < self.iterations && self.arrivals[self.root_round as usize] == n - 1
        {
            for &t in &self.mem.members[1..] {
                self.outbox.push_back((t, tag_of(RELEASE, self.root_round)));
            }
            self.root_round += 1;
        }
    }

    fn member_done(&self, r: usize) -> bool {
        if r == 0 {
            self.root_round == self.iterations && self.outbox.is_empty()
        } else {
            self.state[r].round == self.iterations
        }
    }
}

impl Workload for Barrier {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn offer(
        &mut self,
        terminal: usize,
        _cycle: u64,
        _rng: &mut SmallRng,
    ) -> Option<MessageIntent> {
        let r = self.mem.rank(terminal, true)?;
        if r == 0 {
            // Root: a single-member barrier completes rounds with no
            // messages at all, so try advancing even before traffic.
            self.root_advance();
            let (dest, tag) = self.outbox.pop_front()?;
            return Some(intent(dest, tag));
        }
        let m = &mut self.state[r];
        if m.round < self.iterations && !m.sent_arrive {
            m.sent_arrive = true;
            return Some(intent(self.mem.members[0], tag_of(ARRIVE, m.round)));
        }
        None
    }

    fn delivered(&mut self, terminal: usize, msg: &Delivery, _cycle: u64) {
        if terminal != msg.dest {
            return; // send-completion echo: the barrier acts on receipt
        }
        let Some(r) = self.mem.rank(terminal, false) else {
            return;
        };
        let (kind, seq) = (tag_kind(msg.tag), tag_seq(msg.tag));
        if r == 0 {
            debug_assert_eq!(kind, ARRIVE);
            self.arrivals[seq as usize] += 1;
            self.root_advance();
        } else {
            debug_assert_eq!(kind, RELEASE);
            let m = &mut self.state[r];
            debug_assert_eq!(seq, m.round, "release for a round not waited on");
            m.round += 1;
            m.sent_arrive = false;
        }
    }

    fn all_done(&self) -> bool {
        self.mem.all_local_done(|r| self.member_done(r))
    }
}

/// Message schedule of an [`AllReduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceAlgo {
    /// Ring reduce-scatter + all-gather: `2(N-1)` steps, each member
    /// sending one chunk to its successor per step. Bandwidth-optimal,
    /// latency grows linearly in `N`.
    Ring,
    /// Recursive doubling: `log2 N` steps, step `s` pairing rank `r`
    /// with `r XOR 2^s`. Requires a power-of-two member count.
    RecursiveDoubling,
}

#[derive(Debug, Clone)]
struct AllReduceMember {
    step: u32,
    sent: bool,
    /// Chunks received, indexed by step tag (out-of-order tolerant:
    /// adaptive routing reorders same-pair packets).
    recv: Vec<bool>,
}

/// An all-reduce collective over a set of terminals.
///
/// Each member advances through a fixed per-step message schedule and
/// may only leave step `s` after both sending its step-`s` chunk and
/// receiving the step-`s` chunk addressed to it. Completion time is
/// therefore the network's to deliver — under background interference
/// it stretches accordingly.
#[derive(Debug, Clone)]
pub struct AllReduce {
    mem: Membership,
    algo: AllReduceAlgo,
    steps: u32,
    state: Vec<AllReduceMember>,
}

impl AllReduce {
    /// Ring all-reduce over `members`: `2(N - 1)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn ring(members: Vec<usize>) -> Self {
        Self::with_algo(members, AllReduceAlgo::Ring)
    }

    /// Recursive-doubling all-reduce over `members`: `log2 N` steps.
    ///
    /// # Panics
    ///
    /// Panics if the member count is not a power of two, or on
    /// empty/duplicate members.
    pub fn recursive_doubling(members: Vec<usize>) -> Self {
        assert!(
            members.len().is_power_of_two(),
            "recursive doubling needs a power-of-two member count, got {}",
            members.len()
        );
        Self::with_algo(members, AllReduceAlgo::RecursiveDoubling)
    }

    fn with_algo(members: Vec<usize>, algo: AllReduceAlgo) -> Self {
        let mem = Membership::new(members);
        let n = mem.n();
        let steps = match algo {
            AllReduceAlgo::Ring => 2 * (n as u32 - 1),
            AllReduceAlgo::RecursiveDoubling => n.trailing_zeros(),
        };
        AllReduce {
            mem,
            algo,
            steps,
            state: vec![
                AllReduceMember {
                    step: 0,
                    sent: false,
                    recv: vec![false; steps as usize],
                };
                n
            ],
        }
    }

    fn peer(&self, rank: usize, step: u32) -> usize {
        let n = self.mem.n();
        match self.algo {
            AllReduceAlgo::Ring => self.mem.members[(rank + 1) % n],
            AllReduceAlgo::RecursiveDoubling => self.mem.members[rank ^ (1usize << step)],
        }
    }
}

impl Workload for AllReduce {
    fn name(&self) -> &'static str {
        match self.algo {
            AllReduceAlgo::Ring => "all-reduce/ring",
            AllReduceAlgo::RecursiveDoubling => "all-reduce/rd",
        }
    }

    fn offer(
        &mut self,
        terminal: usize,
        _cycle: u64,
        _rng: &mut SmallRng,
    ) -> Option<MessageIntent> {
        let r = self.mem.rank(terminal, true)?;
        loop {
            let m = &mut self.state[r];
            if m.step == self.steps {
                return None;
            }
            if !m.sent {
                m.sent = true;
                let step = m.step;
                return Some(intent(self.peer(r, step), step));
            }
            if m.recv[m.step as usize] {
                m.step += 1;
                m.sent = false;
                continue;
            }
            return None;
        }
    }

    fn delivered(&mut self, terminal: usize, msg: &Delivery, _cycle: u64) {
        if terminal != msg.dest {
            return;
        }
        let Some(r) = self.mem.rank(terminal, false) else {
            return;
        };
        self.state[r].recv[msg.tag as usize] = true;
    }

    fn all_done(&self) -> bool {
        // A member that has everything it needs still advances only on
        // its next offer; done-ness lags by at most one cycle, which is
        // deterministic and therefore harmless.
        self.mem
            .all_local_done(|r| self.state[r].step == self.steps)
    }
}

#[derive(Debug, Clone, Default)]
struct AllToAllMember {
    sent: u32,
    recv: u32,
}

/// A personalised all-to-all: every member sends one packet to each of
/// the other `N - 1` members, staggered one destination per cycle with
/// the classic `(rank + 1 + k) mod N` rotation so no destination is hit
/// by everyone at once.
#[derive(Debug, Clone)]
pub struct AllToAll {
    mem: Membership,
    state: Vec<AllToAllMember>,
}

impl AllToAll {
    /// An all-to-all exchange over `members`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn new(members: Vec<usize>) -> Self {
        let mem = Membership::new(members);
        let n = mem.n();
        AllToAll {
            mem,
            state: vec![AllToAllMember::default(); n],
        }
    }
}

impl Workload for AllToAll {
    fn name(&self) -> &'static str {
        "all-to-all"
    }

    fn offer(
        &mut self,
        terminal: usize,
        _cycle: u64,
        _rng: &mut SmallRng,
    ) -> Option<MessageIntent> {
        let r = self.mem.rank(terminal, true)?;
        let n = self.mem.n();
        let m = &mut self.state[r];
        if (m.sent as usize) < n - 1 {
            let k = m.sent;
            m.sent += 1;
            return Some(intent(self.mem.members[(r + 1 + k as usize) % n], k));
        }
        None
    }

    fn delivered(&mut self, terminal: usize, msg: &Delivery, _cycle: u64) {
        if terminal != msg.dest {
            return;
        }
        if let Some(r) = self.mem.rank(terminal, false) {
            self.state[r].recv += 1;
        }
    }

    fn all_done(&self) -> bool {
        let need = self.mem.n() as u32 - 1;
        self.mem
            .all_local_done(|r| self.state[r].sent == need && self.state[r].recv == need)
    }
}

#[derive(Debug, Clone, Default)]
struct ClientState {
    issued: u32,
    completed: u32,
}

#[derive(Debug, Clone, Default)]
struct ServerState {
    /// Requests in service: (reply-ready cycle, client terminal, seq).
    queue: VecDeque<(u64, usize, u32)>,
}

/// A credit-gated request/reply service.
///
/// Each client issues `requests` requests against the server pool,
/// never holding more than `window` outstanding (the credit gate —
/// a client in the waiting state injects nothing until a reply lands).
/// Servers hold each request for `service_delay` cycles, then answer
/// one reply per cycle. Requests from client rank `c` round-robin over
/// servers starting at `c mod num_servers`.
#[derive(Debug, Clone)]
pub struct RequestReply {
    clients: Membership,
    servers: Membership,
    requests: u32,
    window: u32,
    service_delay: u64,
    cstate: Vec<ClientState>,
    sstate: Vec<ServerState>,
}

impl RequestReply {
    /// A service with the given client and server terminals.
    ///
    /// # Panics
    ///
    /// Panics on empty/duplicate member sets, a zero `window`, zero
    /// `requests`, a sequence space overflow, or a terminal that is
    /// both client and server.
    pub fn new(
        clients: Vec<usize>,
        servers: Vec<usize>,
        requests: u32,
        window: u32,
        service_delay: u64,
    ) -> Self {
        assert!(window >= 1, "zero-window client can never issue");
        assert!(requests >= 1, "zero-request service is vacuous");
        assert!(requests < (1 << KIND_SHIFT), "too many requests per client");
        let clients = Membership::new(clients);
        let servers = Membership::new(servers);
        for t in servers.rank_of.keys() {
            assert!(
                !clients.rank_of.contains_key(t),
                "terminal {t} is both client and server"
            );
        }
        let (nc, ns) = (clients.n(), servers.n());
        RequestReply {
            clients,
            servers,
            requests,
            window,
            service_delay,
            cstate: vec![ClientState::default(); nc],
            sstate: vec![ServerState::default(); ns],
        }
    }
}

impl Workload for RequestReply {
    fn name(&self) -> &'static str {
        "request-reply"
    }

    fn offer(&mut self, terminal: usize, cycle: u64, _rng: &mut SmallRng) -> Option<MessageIntent> {
        if let Some(r) = self.clients.rank(terminal, true) {
            let c = &mut self.cstate[r];
            if c.issued < self.requests && c.issued - c.completed < self.window {
                let seq = c.issued;
                c.issued += 1;
                let server = self.servers.members[(r + seq as usize) % self.servers.n()];
                return Some(intent(server, tag_of(REQUEST, seq)));
            }
            return None;
        }
        let r = self.servers.rank(terminal, true)?;
        let s = &mut self.sstate[r];
        match s.queue.front() {
            Some(&(ready, dest, seq)) if ready <= cycle => {
                s.queue.pop_front();
                Some(intent(dest, tag_of(REPLY, seq)))
            }
            _ => None,
        }
    }

    fn delivered(&mut self, terminal: usize, msg: &Delivery, cycle: u64) {
        if terminal != msg.dest {
            return;
        }
        let (kind, seq) = (tag_kind(msg.tag), tag_seq(msg.tag));
        if kind == REQUEST {
            if let Some(r) = self.servers.rank(terminal, false) {
                self.sstate[r]
                    .queue
                    .push_back((cycle + self.service_delay, msg.src, seq));
            }
        } else if let Some(r) = self.clients.rank(terminal, false) {
            debug_assert_eq!(kind, REPLY);
            self.cstate[r].completed += 1;
        }
    }

    fn all_done(&self) -> bool {
        self.clients
            .all_local_done(|r| self.cstate[r].completed == self.requests)
            && self
                .servers
                .all_local_done(|r| self.sstate[r].queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::Bernoulli;
    use crate::pattern::UniformRandom;
    use crate::rng_for;

    /// A tiny in-test "network": every intent is delivered `latency`
    /// cycles later, notifying both endpoints, mirroring the engine's
    /// canonical ordering (packet id = issue order).
    fn drive(w: &mut dyn Workload, terminals: usize, latency: u64, max_cycles: u64) -> u64 {
        let mut rngs: Vec<SmallRng> = (0..terminals).map(|t| rng_for(1, t as u64)).collect();
        let mut in_flight: Vec<(u64, Delivery)> = Vec::new();
        let mut packet = 0u64;
        for cycle in 0..max_cycles {
            let due: Vec<Delivery> = {
                let (ready, rest): (Vec<_>, Vec<_>) =
                    in_flight.drain(..).partition(|(at, _)| *at <= cycle);
                in_flight = rest;
                let mut due: Vec<Delivery> = ready.into_iter().map(|(_, d)| d).collect();
                due.sort_by_key(|d| d.packet);
                due
            };
            for d in &due {
                w.delivered(d.dest, d, cycle);
                w.delivered(d.src, d, cycle);
            }
            for (t, rng) in rngs.iter_mut().enumerate() {
                if let Some(i) = w.offer(t, cycle, rng) {
                    let d = Delivery {
                        src: t,
                        dest: i.dest,
                        tag: i.tag,
                        packet,
                        created: cycle,
                    };
                    packet += 1;
                    in_flight.push((cycle + latency, d));
                }
            }
            if w.all_done() && in_flight.is_empty() {
                return cycle;
            }
        }
        panic!("workload did not complete in {max_cycles} cycles");
    }

    #[test]
    fn barrier_completes_and_scales_with_latency() {
        let fast = drive(&mut Barrier::new((0..8).collect(), 3), 8, 2, 10_000);
        let slow = drive(&mut Barrier::new((0..8).collect(), 3), 8, 20, 10_000);
        assert!(slow > fast, "barrier ignored network latency");
        // 3 iterations, each at least one arrive + release round trip.
        assert!(slow >= 3 * 2 * 20, "slow barrier finished too fast: {slow}");
    }

    #[test]
    fn single_member_barrier_is_immediate() {
        assert_eq!(drive(&mut Barrier::new(vec![5], 4), 8, 5, 100), 0);
    }

    #[test]
    fn all_reduce_ring_completes_in_step_order() {
        let n = 6;
        let done = drive(&mut AllReduce::ring((0..n).collect()), n, 3, 10_000);
        // 2(N-1) serialised steps, each at least one message latency.
        assert!(
            done as usize >= 2 * (n - 1) * 3,
            "finished too fast: {done}"
        );
    }

    #[test]
    fn all_reduce_recursive_doubling_is_logarithmic() {
        let ring = drive(&mut AllReduce::ring((0..16).collect()), 16, 4, 20_000);
        let rd = drive(
            &mut AllReduce::recursive_doubling((0..16).collect()),
            16,
            4,
            20_000,
        );
        assert!(
            rd < ring,
            "recursive doubling ({rd}) not faster than ring ({ring})"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_rejects_non_power_of_two() {
        AllReduce::recursive_doubling((0..6).collect());
    }

    #[test]
    fn all_to_all_sends_and_receives_everything() {
        let n = 5;
        let mut w = AllToAll::new((0..n).collect());
        drive(&mut w, n, 2, 10_000);
        for r in 0..n {
            assert_eq!(w.state[r].sent, n as u32 - 1);
            assert_eq!(w.state[r].recv, n as u32 - 1);
        }
    }

    #[test]
    fn request_reply_respects_window() {
        // One client, window 2: issue cycles must show at most two
        // outstanding at any time.
        let mut w = RequestReply::new(vec![0], vec![1], 10, 2, 0);
        let mut rng = rng_for(3, 0);
        let mut outstanding = 0u32;
        let mut max_seen = 0u32;
        let mut in_flight: Vec<(u64, Delivery)> = Vec::new();
        let mut packet = 0u64;
        for cycle in 0..2_000 {
            let (ready, rest): (Vec<_>, Vec<_>) =
                in_flight.drain(..).partition(|(at, _)| *at <= cycle);
            in_flight = rest;
            for (_, d) in ready {
                w.delivered(d.dest, &d, cycle);
                w.delivered(d.src, &d, cycle);
                if tag_kind(d.tag) == REPLY {
                    outstanding -= 1;
                }
            }
            for t in 0..2 {
                if let Some(i) = w.offer(t, cycle, &mut rng) {
                    if tag_kind(i.tag) == REQUEST {
                        outstanding += 1;
                        max_seen = max_seen.max(outstanding);
                    }
                    let d = Delivery {
                        src: t,
                        dest: i.dest,
                        tag: i.tag,
                        packet,
                        created: cycle,
                    };
                    packet += 1;
                    in_flight.push((cycle + 4, d));
                }
            }
            if w.all_done() && in_flight.is_empty() {
                assert_eq!(max_seen, 2, "window never reached");
                assert_eq!(w.cstate[0].completed, 10);
                return;
            }
        }
        panic!("request/reply never completed");
    }

    #[test]
    fn request_reply_service_delay_stretches_completion() {
        let fast = drive(
            &mut RequestReply::new(vec![0, 1], vec![2], 4, 1, 0),
            3,
            2,
            10_000,
        );
        let slow = drive(
            &mut RequestReply::new(vec![0, 1], vec![2], 4, 1, 25),
            3,
            2,
            10_000,
        );
        assert!(
            slow > fast + 50,
            "service delay had no effect: {fast} vs {slow}"
        );
    }

    #[test]
    fn open_loop_adapter_reproduces_process_draw_order() {
        let n = 8;
        let pattern = UniformRandom::new(n);
        let proto = Bernoulli::new(0.3);
        let mut w = OpenLoop::new(&proto, 0..n, &pattern);
        assert!(!w.wants_delivery());
        // Reference: the exact pre-workload engine sequence.
        for t in 0..n {
            let mut rng_a = rng_for(7, t as u64);
            let mut rng_b = rng_for(7, t as u64);
            let mut proc_t = proto;
            for cycle in 0..64 {
                let expect = if proc_t.inject(&mut rng_a) {
                    Some(pattern.destination(t, &mut rng_a))
                } else {
                    None
                };
                let got = w.offer(t, cycle, &mut rng_b).map(|i| i.dest);
                assert_eq!(got, expect, "terminal {t} cycle {cycle}");
            }
        }
    }

    /// Drives one `OpenLoop` by `offer` every cycle and a twin through
    /// the `quiet_until`/`offer` protocol the engine follows, and
    /// demands the same `(cycle, dest)` sequence and the same final
    /// generator state. After a packet fires the terminal is "busy"
    /// (non-empty source queue) for a seeded stretch: polled every
    /// cycle, with one extra draw per cycle on the same generator
    /// standing in for the source router's route draws.
    fn check_lookahead<P: InjectionProcess + Clone>(proto: &P, seed: u64, label: &str) {
        use rand::{Rng, RngCore};
        const TERM: usize = 3;
        const CYCLES: u64 = 6_000;
        let pattern = UniformRandom::new(16);
        let mut every = OpenLoop::new(proto, TERM..TERM + 1, &pattern);
        let mut parked = OpenLoop::new(proto, TERM..TERM + 1, &pattern);
        let mut rng_e = rng_for(seed, TERM as u64);
        let mut rng_p = rng_e.clone();
        // Each side draws its busy stretches from its own copy of one
        // control stream, in firing order.
        let mut ctl_e = rng_for(seed, 99);
        let mut ctl_p = ctl_e.clone();
        let (mut busy_e, mut busy_p) = (0u64, 0u64); // busy while cycle < busy_*
        let (mut fired_e, mut fired_p) = (Vec::new(), Vec::new());
        let mut next_poll = 0u64;
        for cycle in 0..CYCLES {
            if let Some(i) = every.offer(TERM, cycle, &mut rng_e) {
                fired_e.push((cycle, i.dest));
                busy_e = busy_e.max(cycle + ctl_e.gen_range(0u64..6));
            }
            if cycle < busy_e {
                rng_e.next_u64();
            }
            if cycle < next_poll {
                continue;
            }
            if let Some(i) = parked.offer(TERM, cycle, &mut rng_p) {
                fired_p.push((cycle, i.dest));
                busy_p = busy_p.max(cycle + ctl_p.gen_range(0u64..6));
            }
            next_poll = if cycle < busy_p {
                rng_p.next_u64();
                cycle + 1
            } else {
                let until = parked.quiet_until(TERM, cycle, &mut rng_p);
                assert!(until > cycle && until <= cycle + LOOKAHEAD + 1, "{label}");
                until
            };
        }
        // The twin may have run its trials past the horizon: bring the
        // every-cycle side up to the twin's next poll, which both then
        // take, and the generators must agree again.
        for cycle in CYCLES..next_poll {
            assert_eq!(every.offer(TERM, cycle, &mut rng_e), None, "{label}");
        }
        assert_eq!(
            every.offer(TERM, next_poll, &mut rng_e),
            parked.offer(TERM, next_poll, &mut rng_p),
            "{label} seed {seed}: offers at the common poll {next_poll} differ"
        );
        assert_eq!(
            fired_e, fired_p,
            "{label} seed {seed}: firing sequences differ"
        );
        assert_eq!(rng_e, rng_p, "{label} seed {seed}: generator states differ");
    }

    #[test]
    fn lookahead_protocol_reproduces_every_cycle_polling() {
        use crate::injection::{OnOff, EDGE_RATES};
        for seed in 0..8 {
            for rate in EDGE_RATES {
                check_lookahead(&Bernoulli::new(rate), seed, &format!("bernoulli {rate}"));
            }
            check_lookahead(&OnOff::with_rate(0.02, 8.0), seed, "on-off");
            check_lookahead(&OnOff::with_rate(1e-4, 40.0), seed, "on-off sparse");
            check_lookahead(
                &OnOff::with_rate_and_duty(0.1, 16.0, 0.25).unwrap(),
                seed,
                "markov on-off",
            );
        }
    }

    #[test]
    fn lookahead_miss_returns_unarmed_and_idle_never_wakes() {
        let pattern = UniformRandom::new(4);
        let mut never = OpenLoop::new(&Bernoulli::new(0.0), 0..1, &pattern);
        let mut rng = rng_for(5, 0);
        let mut reference = rng.clone();
        assert_eq!(never.quiet_until(0, 10, &mut rng), 10 + LOOKAHEAD + 1);
        // Exactly LOOKAHEAD trials were drawn, and the wake-up cycle's
        // own trial is still to run.
        for _ in 0..LOOKAHEAD {
            rand::RngCore::next_u64(&mut reference);
        }
        assert_eq!(rng, reference);
        assert_eq!(never.offer(0, 10 + LOOKAHEAD + 1, &mut rng), None);
        assert_ne!(rng, reference);
        // A rate-1 source is due, armed, the very next cycle.
        let mut always = OpenLoop::new(&Bernoulli::new(1.0), 0..1, &pattern);
        assert_eq!(always.quiet_until(0, 7, &mut rng), 8);
        assert!(always.offer(0, 8, &mut rng).is_some());
        assert_eq!(Idle.quiet_until(0, 7, &mut rng), u64::MAX);
        // Collectives keep the default: polled every cycle.
        assert_eq!(Barrier::new(vec![0, 1], 1).quiet_until(0, 7, &mut rng), 8);
    }

    #[test]
    fn workload_state_is_terminal_partitioned() {
        // Two instances over disjoint halves behave like one whole:
        // done-ness only consults offered terminals.
        let mut left = Barrier::new((0..4).collect(), 1);
        let mut right = Barrier::new((0..4).collect(), 1);
        let mut rng = rng_for(1, 0);
        for t in 0..2 {
            left.offer(t, 0, &mut rng);
        }
        for t in 2..4 {
            right.offer(t, 0, &mut rng);
        }
        assert!(!left.all_done(), "root still waiting on arrivals");
        assert!(!right.all_done(), "members still waiting on release");
    }
}
