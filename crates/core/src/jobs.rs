//! Multi-tenant job scheduling: place several closed-loop jobs onto one
//! dragonfly and measure how they interfere.
//!
//! A [`JobMix`] describes a set of concurrent jobs — each a collective
//! workload from `dfly-traffic` ([`Barrier`], [`AllReduce`],
//! [`AllToAll`], [`RequestReply`]) over a slice of the machine — plus a
//! [`Placement`] policy mapping jobs onto dragonfly groups and an
//! optional open-loop background load on the unused terminals. The mix
//! instantiates as one [`MixWorkload`] per engine shard (the factory
//! contract of `Simulation::with_workload`), so sharded runs stay
//! bit-identical.
//!
//! Per-job accounting lives in a [`JobLedger`]: every delivery of a job
//! packet bumps that job's [`JobBook`] (count, latency histogram, last
//! delivery cycle). All ledger writes are commutative — sums, maxima
//! and histogram-bucket increments — so the final books are identical
//! at any shard count even though shards take the lock in
//! nondeterministic order.
//!
//! The two placement policies bracket the interference question the
//! paper's global channels pose: [`Placement::GroupDisjoint`] gives
//! each job private groups (its traffic shares no local router with
//! another job), while [`Placement::Interfering`] stripes every job
//! round-robin across all groups, forcing the jobs to contend for the
//! same routers and global cables. Comparing per-job completion times
//! across the two placements measures interference directly; see
//! [`crate::parallel::WorkloadSweep`].

use std::sync::{Arc, Mutex};

use dfly_netsim::LogHistogram;
use dfly_traffic::{
    AllReduce, AllToAll, Barrier, Bernoulli, Delivery, MessageIntent, RequestReply, Source,
    UniformRandom, Workload,
};
use rand::rngs::SmallRng;

use crate::DragonflyParams;

/// Why a [`JobMix`] could not be validated or placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A job spec's parameters are inconsistent (zero size,
    /// non-power-of-two recursive doubling, bad client count).
    InvalidSpec(String),
    /// The machine cannot hold the mix under the requested
    /// [`Placement`].
    Placement(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
            JobError::Placement(msg) => write!(f, "placement failed: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The collective a job runs, with its per-kind parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `iterations` rounds of a centralized barrier.
    Barrier {
        /// Number of barrier rounds.
        iterations: u32,
    },
    /// Ring all-reduce: reduce-scatter + all-gather, `2(N-1)` steps.
    AllReduceRing,
    /// Recursive-doubling all-reduce (`log2 N` steps); the job size
    /// must be a power of two.
    AllReduceRecursiveDoubling,
    /// Full personalized exchange: every member sends one packet to
    /// every other member.
    AllToAll,
    /// Credit-windowed request/reply service. The first `clients`
    /// members are clients, the rest servers.
    RequestReply {
        /// Number of client terminals (the remaining members serve).
        clients: usize,
        /// Requests each client issues in total.
        requests: u32,
        /// Maximum outstanding requests per client.
        window: u32,
        /// Server-side hold time per request, in cycles.
        service_delay: u64,
    },
}

/// One tenant: a named collective over `size` terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Job name, used as the metrics scope (`jobs/{name}/...`).
    pub name: String,
    /// Number of terminals the job occupies.
    pub size: usize,
    /// Which collective the members run.
    pub kind: JobKind,
}

impl JobSpec {
    /// A barrier job.
    pub fn barrier(name: &str, size: usize, iterations: u32) -> Self {
        JobSpec {
            name: name.to_string(),
            size,
            kind: JobKind::Barrier { iterations },
        }
    }

    /// A ring all-reduce job.
    pub fn all_reduce_ring(name: &str, size: usize) -> Self {
        JobSpec {
            name: name.to_string(),
            size,
            kind: JobKind::AllReduceRing,
        }
    }

    /// An all-to-all job.
    pub fn all_to_all(name: &str, size: usize) -> Self {
        JobSpec {
            name: name.to_string(),
            size,
            kind: JobKind::AllToAll,
        }
    }

    /// Builds the job's workload over its placed member terminals.
    fn build(&self, members: Vec<usize>) -> Box<dyn Workload + Send> {
        match self.kind {
            JobKind::Barrier { iterations } => Box::new(Barrier::new(members, iterations)),
            JobKind::AllReduceRing => Box::new(AllReduce::ring(members)),
            JobKind::AllReduceRecursiveDoubling => Box::new(AllReduce::recursive_doubling(members)),
            JobKind::AllToAll => Box::new(AllToAll::new(members)),
            JobKind::RequestReply {
                clients,
                requests,
                window,
                service_delay,
            } => {
                let (c, s) = members.split_at(clients);
                Box::new(RequestReply::new(
                    c.to_vec(),
                    s.to_vec(),
                    requests,
                    window,
                    service_delay,
                ))
            }
        }
    }

    /// Per-kind parameter validation, before placement.
    fn validate(&self) -> Result<(), JobError> {
        if self.size == 0 {
            return Err(JobError::InvalidSpec(format!(
                "job '{}' has zero size",
                self.name
            )));
        }
        match self.kind {
            JobKind::AllReduceRecursiveDoubling if !self.size.is_power_of_two() => {
                Err(JobError::InvalidSpec(format!(
                    "job '{}': recursive doubling needs a power-of-two size, got {}",
                    self.name, self.size
                )))
            }
            JobKind::RequestReply { clients, .. } if clients == 0 || clients >= self.size => {
                Err(JobError::InvalidSpec(format!(
                    "job '{}': need 1..size clients, got {clients} of {}",
                    self.name, self.size
                )))
            }
            _ => Ok(()),
        }
    }
}

/// How a [`JobMix`] maps jobs onto dragonfly groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Each job gets a private contiguous block of groups: no two jobs
    /// share a router, so they interact only through the global-channel
    /// fabric their minimal paths happen to cross.
    GroupDisjoint,
    /// Every job is striped round-robin across all groups, so the jobs
    /// share local routers and contend for the same global cables — the
    /// deliberately adversarial co-location.
    Interfering,
}

impl Placement {
    /// Short label for metric scopes and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::GroupDisjoint => "disjoint",
            Placement::Interfering => "interfering",
        }
    }
}

/// A set of concurrent jobs plus placement policy and background load.
#[derive(Debug, Clone)]
pub struct JobMix {
    /// The tenant jobs, placed in order.
    pub jobs: Vec<JobSpec>,
    /// Group-mapping policy.
    pub placement: Placement,
    /// Untracked uniform-random Bernoulli load offered by every
    /// terminal not owned by a job (packets/terminal/cycle). Background
    /// packets never block work-complete termination.
    pub background_load: f64,
}

impl JobMix {
    /// A mix with no background traffic.
    pub fn new(jobs: Vec<JobSpec>, placement: Placement) -> Self {
        JobMix {
            jobs,
            placement,
            background_load: 0.0,
        }
    }

    /// The same mix with open-loop background load on non-job terminals.
    pub fn with_background(mut self, load: f64) -> Self {
        self.background_load = load;
        self
    }

    /// Places every job onto `params`' terminals under the mix's policy.
    ///
    /// # Errors
    ///
    /// If a job spec is invalid, the machine has too few groups
    /// ([`Placement::GroupDisjoint`]) or too few terminals to hold the
    /// mix.
    pub fn assign(&self, params: &DragonflyParams) -> Result<JobAssignment, JobError> {
        for job in &self.jobs {
            job.validate()?;
        }
        let tpg = params.terminals_per_router() * params.routers_per_group();
        let groups = params.num_groups();
        let total = params.num_terminals();
        let mut members: Vec<Vec<usize>> = Vec::with_capacity(self.jobs.len());
        match self.placement {
            Placement::GroupDisjoint => {
                let mut next_group = 0usize;
                for job in &self.jobs {
                    let need = job.size.div_ceil(tpg);
                    if next_group + need > groups {
                        return Err(JobError::Placement(format!(
                            "job '{}' needs {need} more group(s) but only {} of {groups} remain",
                            job.name,
                            groups - next_group
                        )));
                    }
                    let first = next_group * tpg;
                    members.push((first..first + job.size).collect());
                    next_group += need;
                }
            }
            Placement::Interfering => {
                // Enumerate terminals transposed — slot k lives in group
                // k % groups — so consecutive slots of one job land in
                // consecutive groups and every job overlaps every group.
                let mut k = 0usize;
                for job in &self.jobs {
                    if k + job.size > total {
                        return Err(JobError::Placement(format!(
                            "job '{}' overflows the machine: {} terminals, {total} available",
                            job.name,
                            k + job.size
                        )));
                    }
                    members.push(
                        (k..k + job.size)
                            .map(|i| (i % groups) * tpg + i / groups)
                            .collect(),
                    );
                    k += job.size;
                }
            }
        }
        let mut term_job = vec![0u32; total];
        for (j, m) in members.iter().enumerate() {
            for &t in m {
                debug_assert_eq!(term_job[t], 0, "terminal {t} placed twice");
                term_job[t] = (j + 1) as u32;
            }
        }
        Ok(JobAssignment {
            members,
            term_job,
            num_terminals: total,
        })
    }

    /// A fresh ledger sized for this mix, one [`JobBook`] per job.
    pub fn ledger(&self) -> JobLedger {
        JobLedger::new(self.jobs.len())
    }

    /// Instantiates the per-shard workload for the terminals in
    /// `range`, as required by `Simulation::with_workload`'s factory.
    /// Every instance gets fresh collective state (instances coordinate
    /// only through simulated messages) and a clone of the shared
    /// `ledger`.
    pub fn workload(
        &self,
        assignment: &JobAssignment,
        range: std::ops::Range<usize>,
        ledger: &JobLedger,
    ) -> MixWorkload {
        let jobs = self
            .jobs
            .iter()
            .zip(&assignment.members)
            .map(|(spec, members)| spec.build(members.clone()))
            .collect();
        let background = (self.background_load > 0.0).then(|| Background {
            sources: vec![Source::new(Bernoulli::new(self.background_load)); range.len()],
            base: range.start,
            pattern: UniformRandom::new(assignment.num_terminals),
        });
        MixWorkload {
            jobs,
            term_job: assignment.term_job.clone(),
            background,
            ledger: ledger.clone(),
        }
    }
}

/// The concrete terminal sets a [`JobMix`] placement produced.
#[derive(Debug, Clone)]
pub struct JobAssignment {
    /// Member terminals per job, in job order.
    members: Vec<Vec<usize>>,
    /// Terminal → job index + 1; 0 marks a background terminal.
    term_job: Vec<u32>,
    num_terminals: usize,
}

impl JobAssignment {
    /// Member terminals of job `job`, in rank order.
    pub fn members(&self, job: usize) -> &[usize] {
        &self.members[job]
    }

    /// Job index owning `terminal`, if any.
    pub fn job_of(&self, terminal: usize) -> Option<usize> {
        match self.term_job[terminal] {
            0 => None,
            j => Some((j - 1) as usize),
        }
    }

    /// The distinct groups job `job` occupies, given the same `params`
    /// the assignment was built from.
    pub fn groups_of(&self, job: usize, params: &DragonflyParams) -> Vec<usize> {
        let mut gs: Vec<usize> = self.members[job]
            .iter()
            .map(|&t| params.group_of_terminal(t))
            .collect();
        gs.sort_unstable();
        gs.dedup();
        gs
    }
}

/// Per-job accounting accumulated over one run. All fields are built
/// from commutative updates, so books are bit-identical at any shard
/// count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobBook {
    /// Tracked job packets delivered to members.
    pub delivered: u64,
    /// Packet latency (generation → ejection) of those deliveries.
    pub latency: LogHistogram,
    /// Cycle of the job's last delivery — the job's completion time
    /// under work-complete termination (0 if nothing was delivered).
    pub completion: u64,
}

/// Shared, shard-safe collection of [`JobBook`]s for one run.
///
/// Cloning shares the underlying books (it is an `Arc`); take a
/// [`JobLedger::snapshot`] after the run to read them.
#[derive(Debug, Clone)]
pub struct JobLedger {
    books: Arc<Mutex<Vec<JobBook>>>,
}

impl JobLedger {
    /// A ledger of `jobs` empty books.
    pub fn new(jobs: usize) -> Self {
        JobLedger {
            books: Arc::new(Mutex::new(vec![JobBook::default(); jobs])),
        }
    }

    /// A copy of the current books, in job order.
    pub fn snapshot(&self) -> Vec<JobBook> {
        self.books.lock().expect("job ledger poisoned").clone()
    }
}

/// Per-terminal open-loop background source for non-job terminals.
#[derive(Debug, Clone)]
struct Background {
    /// One source per terminal of the shard range (job-terminal slots
    /// exist but are never drawn).
    sources: Vec<Source<Bernoulli>>,
    base: usize,
    pattern: UniformRandom,
}

/// One engine shard's view of a [`JobMix`]: routes offers and delivery
/// notifications to the owning job's collective, drives the background
/// load, and books per-job statistics into the shared ledger.
pub struct MixWorkload {
    jobs: Vec<Box<dyn Workload + Send>>,
    term_job: Vec<u32>,
    background: Option<Background>,
    ledger: JobLedger,
}

impl Workload for MixWorkload {
    fn name(&self) -> &'static str {
        "job-mix"
    }

    fn offer(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> Option<MessageIntent> {
        match self.term_job[terminal] {
            0 => {
                let bg = self.background.as_mut()?;
                bg.sources[terminal - bg.base].offer(terminal, cycle, rng, &bg.pattern, false)
            }
            j => self.jobs[(j - 1) as usize].offer(terminal, cycle, rng),
        }
    }

    fn quiet_until(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> u64 {
        match (self.term_job[terminal], self.background.as_mut()) {
            (0, Some(bg)) => bg.sources[terminal - bg.base].quiet_until(cycle, rng),
            // No job, no background: nothing will ever be offered here.
            (0, None) => u64::MAX,
            (j, _) => self.jobs[(j - 1) as usize].quiet_until(terminal, cycle, rng),
        }
    }

    fn delivered(&mut self, terminal: usize, msg: &Delivery, cycle: u64) {
        let j = self.term_job[terminal];
        if j == 0 {
            return;
        }
        // Background packets can land on job terminals; their tags mean
        // nothing to the collective. A packet belongs to job `j` only
        // if both endpoints do.
        if self.term_job[msg.src] != j || self.term_job[msg.dest] != j {
            return;
        }
        if terminal == msg.dest {
            let mut books = self.ledger.books.lock().expect("job ledger poisoned");
            let book = &mut books[(j - 1) as usize];
            book.delivered += 1;
            book.latency.record(cycle.saturating_sub(msg.created));
            book.completion = book.completion.max(cycle);
        }
        self.jobs[(j - 1) as usize].delivered(terminal, msg, cycle);
    }

    fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.all_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> DragonflyParams {
        DragonflyParams::new(2, 4, 2).unwrap()
    }

    fn two_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::barrier("alpha", 8, 2),
            JobSpec::all_reduce_ring("beta", 8),
        ]
    }

    #[test]
    fn group_disjoint_placement_separates_groups() {
        let params = tiny_params();
        let mix = JobMix::new(two_jobs(), Placement::GroupDisjoint);
        let asg = mix.assign(&params).unwrap();
        assert_eq!(asg.groups_of(0, &params), vec![0]);
        assert_eq!(asg.groups_of(1, &params), vec![1]);
        assert_eq!(asg.members(0), (0..8).collect::<Vec<_>>().as_slice());
        assert_eq!(asg.job_of(0), Some(0));
        assert_eq!(asg.job_of(8), Some(1));
        assert_eq!(asg.job_of(16), None);
    }

    #[test]
    fn interfering_placement_overlaps_every_group() {
        let params = tiny_params();
        let mix = JobMix::new(two_jobs(), Placement::Interfering);
        let asg = mix.assign(&params).unwrap();
        // 8-member jobs on a 9-group machine: 8 distinct groups each,
        // with 7 groups hosting both jobs.
        assert_eq!(asg.groups_of(0, &params).len(), 8);
        assert_eq!(asg.groups_of(1, &params).len(), 8);
        let a = asg.groups_of(0, &params);
        let b = asg.groups_of(1, &params);
        let shared = a.iter().filter(|g| b.contains(g)).count();
        assert!(shared >= 7, "expected heavy overlap, got {shared}");
        // No terminal is double-booked.
        let mut all: Vec<usize> = (0..2).flat_map(|j| asg.members(j).to_vec()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn placement_errors_are_reported() {
        let params = tiny_params();
        // 10 jobs of one group each cannot fit in 9 groups.
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| JobSpec::barrier(&format!("j{i}"), 8, 1))
            .collect();
        assert!(JobMix::new(jobs, Placement::GroupDisjoint)
            .assign(&params)
            .is_err());
        // 73 terminals overflow a 72-terminal machine.
        let jobs = vec![JobSpec::barrier("big", 73, 1)];
        assert!(JobMix::new(jobs, Placement::Interfering)
            .assign(&params)
            .is_err());
        // Invalid spec parameters.
        assert!(JobSpec {
            name: "rd".into(),
            size: 6,
            kind: JobKind::AllReduceRecursiveDoubling,
        }
        .validate()
        .is_err());
        assert!(JobSpec {
            name: "rr".into(),
            size: 4,
            kind: JobKind::RequestReply {
                clients: 4,
                requests: 1,
                window: 1,
                service_delay: 0,
            },
        }
        .validate()
        .is_err());
        assert!(JobSpec::barrier("empty", 0, 1).validate().is_err());
    }

    #[test]
    fn mix_workload_routes_offers_and_deliveries() {
        let params = tiny_params();
        let mix = JobMix::new(
            vec![JobSpec::barrier("solo", 4, 1)],
            Placement::GroupDisjoint,
        )
        .with_background(1.0);
        let asg = mix.assign(&params).unwrap();
        let ledger = mix.ledger();
        let mut w = mix.workload(&asg, 0..params.num_terminals(), &ledger);
        let mut rng = dfly_traffic::rng_for(7, 0);
        // Barrier rank 0 is the root: it offers nothing until arrivals.
        assert!(w.offer(0, 0, &mut rng).is_none());
        // Non-root member sends its arrival to the root.
        let intent = w.offer(1, 0, &mut rng).expect("member must arrive");
        assert_eq!(intent.dest, 0);
        assert!(intent.tracked);
        // Background terminal injects untracked uniform traffic at rate 1.
        let bg = w.offer(40, 0, &mut rng).expect("rate-1.0 must fire");
        assert!(!bg.tracked);
        assert_ne!(bg.dest, 40);
        assert!(!w.all_done());
        // Parking: a collective's terminal is polled every cycle, a
        // rate-1.0 background terminal is due (armed) the next cycle,
        // and without background a non-job terminal never wakes.
        assert_eq!(w.quiet_until(1, 0, &mut rng), 1);
        assert_eq!(w.quiet_until(40, 0, &mut rng), 1);
        assert!(w.offer(40, 1, &mut rng).is_some());
        let quiet = JobMix::new(mix.jobs.clone(), mix.placement);
        let mut silent = quiet.workload(&asg, 0..params.num_terminals(), &ledger);
        assert_eq!(silent.quiet_until(40, 0, &mut rng), u64::MAX);
        assert_eq!(silent.quiet_until(1, 0, &mut rng), 1);
        // A background delivery into a job terminal must not reach the
        // barrier or the books.
        let stray = Delivery {
            src: 40,
            dest: 0,
            tag: 0,
            packet: 1,
            created: 0,
        };
        w.delivered(0, &stray, 9);
        assert_eq!(ledger.snapshot()[0], JobBook::default());
        // A genuine job delivery books latency and completion.
        let arrive = Delivery {
            src: 1,
            dest: 0,
            tag: intent.tag,
            packet: 2,
            created: 0,
        };
        w.delivered(0, &arrive, 11);
        let book = &ledger.snapshot()[0];
        assert_eq!(book.delivered, 1);
        assert_eq!(book.completion, 11);
        assert_eq!(book.latency.count, 1);
        assert_eq!(book.latency.max, 11);
    }

    #[test]
    fn ledger_snapshots_are_shared_across_clones() {
        let ledger = JobLedger::new(2);
        let clone = ledger.clone();
        clone.books.lock().unwrap()[1].delivered = 5;
        assert_eq!(ledger.snapshot()[1].delivered, 5);
        assert_eq!(ledger.snapshot()[0], JobBook::default());
    }
}
