//! One experimental run: N instances of a workload under a scheduling
//! configuration, spawned together or arriving over time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use porsche::cis::DispatchMode;
use porsche::costs::CostModel;
use porsche::fault::{FaultPlan, RecoveryPolicy};
use porsche::kernel::{KernelConfig, KernelError};
use porsche::policy::PolicyKind;
use porsche::probe::{AttributedLedger, CycleLedger, Event, Tag};
use porsche::process::Pid;
use porsche::stats::KernelStats;
use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
use proteus_apps::AppKind;
use proteus_rfu::RfuConfig;

use crate::machine::{Machine, MachineConfig};

/// Safety valve for runaway runs: simulated cycles after which a
/// scenario with live processes fails with [`KernelError::CycleLimit`].
const CYCLE_LIMIT: u64 = 500_000_000_000;

/// Builder for one run of the paper's experimental setup: between 1 and
/// N concurrent instances of a test application (paper §5.1; "sharing is
/// not allowed", which holds here automatically because every instance
/// registers its own circuit instances).
///
/// By default every instance is spawned at cycle 0. An arrival schedule
/// ([`Scenario::arrivals`]) instead injects them over time — the
/// paper's §6 "more dynamic scheduling loads" — and an app mix
/// ([`Scenario::mix`]) cycles the instances through several
/// applications.
///
/// # Example
///
/// ```
/// use proteus::scenario::Scenario;
/// use proteus_apps::AppKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Four jobs of all three applications, arriving every ~200k cycles.
/// let result = Scenario::new(AppKind::Alpha)
///     .mix(&[AppKind::Alpha, AppKind::Twofish, AppKind::Echo])
///     .instances(4)
///     .size(32)
///     .passes(2)
///     .quantum(100_000)
///     .arrivals(200_000, 2003)
///     .run()?;
/// assert!(result.all_valid());
/// assert!(result.mean_turnaround() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    apps: Vec<AppKind>,
    accelerated: bool,
    instances: usize,
    size: usize,
    passes: u32,
    quantum: u64,
    policy: PolicyKind,
    mode: DispatchMode,
    with_software_alt: bool,
    pfus: usize,
    tlb_capacity: usize,
    costs: CostModel,
    share_circuits: bool,
    trace_capacity: usize,
    faults: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    watchdog_cycles: Option<u64>,
    /// `(mean inter-arrival gap, seed)`; `None` spawns everything at 0.
    arrivals: Option<(u64, u64)>,
}

impl Scenario {
    /// A single accelerated instance with small defaults; chain setters
    /// to describe the experiment.
    pub fn new(app: AppKind) -> Self {
        Self {
            apps: vec![app],
            accelerated: true,
            instances: 1,
            size: default_size(app),
            passes: 4,
            quantum: 1_000_000,
            policy: PolicyKind::RoundRobin,
            mode: DispatchMode::HardwareOnly,
            with_software_alt: false,
            pfus: 4,
            tlb_capacity: 16,
            costs: CostModel::default(),
            share_circuits: false,
            trace_capacity: 0,
            faults: None,
            recovery: RecoveryPolicy::default(),
            watchdog_cycles: None,
            arrivals: None,
        }
    }

    /// Concurrent process instances (paper: 1–8).
    pub fn instances(mut self, n: usize) -> Self {
        self.instances = n;
        self
    }

    /// Work units per pass (pixels / samples / blocks).
    pub fn size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Passes over the data per process.
    pub fn passes(mut self, passes: u32) -> Self {
        self.passes = passes;
        self
    }

    /// Scheduling quantum in cycles.
    pub fn quantum(mut self, cycles: u64) -> Self {
        self.quantum = cycles;
        self
    }

    /// PFU replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Contention resolution mode. [`DispatchMode::SoftwareFallback`]
    /// implies registering the software alternatives.
    pub fn mode(mut self, mode: DispatchMode) -> Self {
        self.mode = mode;
        if mode == DispatchMode::SoftwareFallback {
            self.with_software_alt = true;
        }
        self
    }

    /// Use the pure-software program variant (no custom instructions).
    pub fn software_only(mut self) -> Self {
        self.accelerated = false;
        self
    }

    /// Number of PFUs (paper: 4).
    pub fn pfus(mut self, pfus: usize) -> Self {
        self.pfus = pfus;
        self
    }

    /// Dispatch-TLB capacity.
    pub fn tlb_capacity(mut self, slots: usize) -> Self {
        self.tlb_capacity = slots;
        self
    }

    /// Override the kernel cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Enable §4.2 circuit sharing: same-image circuits share a PFU via
    /// state-frame swaps. The paper's experiments disable this.
    pub fn sharing(mut self, on: bool) -> Self {
        self.share_circuits = on;
        self
    }

    /// Keep the latest `capacity` timeline events in the result (0, the
    /// default, disables tracing).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Inject faults per `plan` (DESIGN.md §9). Pair with
    /// [`Scenario::watchdog`] so hung slots are actually detected.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// How far the kernel's fault handler climbs the recovery ladder
    /// (retry → software failover → quarantine).
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Per-PFU watchdog allowance: clocks a slot may accumulate without
    /// raising `done` before the RFU trips a fault (`None` disables —
    /// the seed behaviour).
    pub fn watchdog(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = Some(cycles);
        self
    }

    /// Register the software alternatives without switching the dispatch
    /// mode: contention still reconfigures, but the fault handler's
    /// failover rung has a software path to fall back on.
    pub fn software_alts(mut self) -> Self {
        self.with_software_alt = true;
        self
    }

    /// Cycle the instances through `apps`: instance `i` runs
    /// `apps[i % apps.len()]` (`Scenario::new(app)` is a mix of one).
    ///
    /// # Panics
    ///
    /// If `apps` is empty.
    pub fn mix(mut self, apps: &[AppKind]) -> Self {
        assert!(!apps.is_empty(), "an app mix needs at least one application");
        self.apps = apps.to_vec();
        self
    }

    /// Inject the instances one by one with exponentially distributed
    /// gaps of mean `mean_gap` cycles, drawn from an RNG seeded with
    /// `seed`. Each job's turnaround (finish − arrival) is then the
    /// metric of interest (see [`ScenarioResult::turnarounds`]).
    pub fn arrivals(mut self, mean_gap: u64, seed: u64) -> Self {
        self.arrivals = Some((mean_gap, seed));
        self
    }

    /// Build the machine, spawn the instances (at cycle 0, or on the
    /// arrival schedule) and run to completion.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (spawn failure, cycle limit).
    pub fn run(&self) -> Result<ScenarioResult, KernelError> {
        let specs: Vec<WorkloadSpec> = self
            .apps
            .iter()
            .map(|&app| {
                let cfg = WorkloadConfig::new(app, self.size, self.passes);
                WorkloadSpec::build(if self.accelerated { cfg } else { cfg.software() })
            })
            .collect();
        let mut machine = Machine::new(MachineConfig {
            kernel: KernelConfig {
                quantum: self.quantum,
                costs: self.costs,
                policy: self.policy,
                mode: self.mode,
                share_circuits: self.share_circuits,
                trace_capacity: self.trace_capacity,
                faults: self.faults,
                recovery: self.recovery,
            },
            rfu: RfuConfig {
                pfus: self.pfus,
                tlb_capacity: self.tlb_capacity,
                watchdog_cycles: self.watchdog_cycles,
                ..RfuConfig::default()
            },
        });
        let mut schedule = self.arrivals.map(|(mean, seed)| (mean, StdRng::seed_from_u64(seed)));
        let mut clock = 0u64;
        // `(pid, arrival, expected checksum)` per job, in spawn order.
        let mut jobs: Vec<(Pid, u64, u32)> = Vec::with_capacity(self.instances);
        for i in 0..self.instances {
            if let Some((mean, rng)) = &mut schedule {
                // Exponential gap via inverse transform.
                let u: f64 = rng.gen_range(1e-9..1.0);
                clock += (-u.ln() * *mean as f64) as u64;
                // Always advance, even to an arrival already in the
                // past: the call also dispatches the first ready
                // process.
                if machine.advance_until(clock, CYCLE_LIMIT)? {
                    // Nothing runnable: the workstation sits idle until
                    // the job arrives.
                    machine.idle_until(clock);
                }
            }
            let spec = &specs[i % specs.len()];
            // The spawn is stamped at the current cycle, which is now at
            // or past the arrival.
            let arrival = machine.cycles();
            let pid = machine.spawn(spec.spawn_spec(self.with_software_alt))?;
            jobs.push((pid, arrival, spec.expected_checksum()));
        }
        let report = machine.run(CYCLE_LIMIT)?;
        let valid = report.killed.is_empty()
            && report.exited.len() == jobs.len()
            && jobs.iter().all(|&(pid, _, expected)| {
                report.exited.iter().any(|&(p, _, code)| p == pid && code == expected)
            });
        Ok(ScenarioResult {
            makespan: report.makespan,
            arrivals: jobs.iter().map(|&(pid, arrival, _)| (pid, arrival)).collect(),
            finishes: report.exited.iter().map(|&(pid, finish, _)| (pid, finish)).collect(),
            stats: report.stats,
            ledger: report.ledger,
            attributed: report.attributed,
            trace: machine.kernel().trace().snapshot(),
            trace_dropped: machine.kernel().trace().dropped(),
            total_cycles: machine.cycles(),
            valid,
        })
    }
}

fn default_size(app: AppKind) -> usize {
    match app {
        AppKind::Alpha => 256,
        AppKind::Echo => 512,
        AppKind::Twofish => 16,
    }
}

/// Outcome of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Completion time of the last process, in cycles (the paper's
    /// y-axis).
    pub makespan: u64,
    /// `(pid, arrival cycle)` of every job, in spawn (= PID) order; all
    /// 0 unless the scenario had an arrival schedule.
    pub arrivals: Vec<(Pid, u64)>,
    /// `(pid, finish cycle)` of every job that exited, PID order.
    pub finishes: Vec<(Pid, u64)>,
    /// Kernel management statistics.
    pub stats: KernelStats,
    /// Where every simulated cycle went (folded from the event stream).
    pub ledger: CycleLedger,
    /// The same cycles attributed per process × emit site; refolds to
    /// `ledger` exactly (see `porsche::probe::AttributedLedger`).
    pub attributed: AttributedLedger,
    /// Timeline events, oldest first (empty unless
    /// [`Scenario::trace_capacity`] was set).
    pub trace: Vec<(u64, Tag, Event)>,
    /// Events the trace ring discarded (oldest-first) once full; when
    /// non-zero, `trace` is only the *tail* of the timeline.
    pub trace_dropped: u64,
    /// Total simulated cycles, including post-makespan idle time; equals
    /// [`CycleLedger::total`] of `ledger`.
    pub total_cycles: u64,
    /// All processes exited with their reference checksums.
    pub valid: bool,
}

impl ScenarioResult {
    /// Whether every instance computed the correct result.
    pub fn all_valid(&self) -> bool {
        self.valid
    }

    /// Per-job `(pid, turnaround)`, turnaround = finish − arrival, in
    /// arrival order (jobs that never exited are skipped). Without an
    /// arrival schedule every turnaround is the job's finish cycle.
    pub fn turnarounds(&self) -> Vec<(Pid, u64)> {
        self.arrivals
            .iter()
            .filter_map(|&(pid, arrival)| {
                let &(_, finish) = self.finishes.iter().find(|&&(p, _)| p == pid)?;
                Some((pid, finish.saturating_sub(arrival)))
            })
            .collect()
    }

    /// Mean turnaround over the jobs that exited, in cycles.
    pub fn mean_turnaround(&self) -> f64 {
        let turnarounds = self.turnarounds();
        turnarounds.iter().map(|&(_, t)| t).sum::<u64>() as f64
            / turnarounds.len().max(1) as f64
    }

    /// Worst-case turnaround, in cycles.
    pub fn max_turnaround(&self) -> u64 {
        self.turnarounds().iter().map(|&(_, t)| t).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_instance_valid_for_each_app() {
        for app in AppKind::ALL {
            let r = Scenario::new(app).size(16).passes(1).run().expect("run");
            assert!(r.all_valid(), "{app:?}: {r:?}");
        }
    }

    #[test]
    fn contention_appears_beyond_four_single_circuit_instances() {
        // Workloads must span several quanta so the instances overlap in
        // time: 5 alpha instances on 4 PFUs must evict; 4 must not.
        let run = |n| {
            Scenario::new(AppKind::Alpha)
                .instances(n)
                .size(64)
                .passes(30)
                .quantum(5_000)
                .run()
                .expect("run")
        };
        let no_contention = run(4);
        assert_eq!(no_contention.stats.evictions, 0, "{:?}", no_contention.stats);
        let contention = run(5);
        assert!(contention.stats.evictions > 0, "{:?}", contention.stats);
        assert!(contention.all_valid());
    }

    #[test]
    fn echo_contends_at_three_instances() {
        // Echo uses two circuits; with 4 PFUs, 2 instances fit, 3 thrash.
        let run = |n| {
            Scenario::new(AppKind::Echo)
                .instances(n)
                .size(128)
                .passes(20)
                .quantum(5_000)
                .run()
                .expect("run")
        };
        let fits = run(2);
        assert_eq!(fits.stats.evictions, 0, "{:?}", fits.stats);
        let thrash = run(3);
        assert!(thrash.stats.evictions > 0, "{:?}", thrash.stats);
        assert!(thrash.all_valid());
    }

    #[test]
    fn software_fallback_mode_validates_under_contention() {
        let r = Scenario::new(AppKind::Alpha)
            .instances(6)
            .size(64)
            .passes(30)
            .quantum(5_000)
            .mode(DispatchMode::SoftwareFallback)
            .run()
            .expect("run");
        assert!(r.all_valid());
        assert!(r.stats.software_installs >= 2, "{:?}", r.stats);
        assert_eq!(r.stats.evictions, 0, "{:?}", r.stats);
    }

    /// Jobs of all three applications arriving every ~`gap` cycles at
    /// the 1 ms quantum.
    fn arriving(jobs: usize, gap: u64, size: usize, passes: u32) -> Scenario {
        Scenario::new(AppKind::Alpha)
            .mix(&[AppKind::Alpha, AppKind::Twofish, AppKind::Echo])
            .instances(jobs)
            .size(size)
            .passes(passes)
            .quantum(100_000)
            .arrivals(gap, 2003)
    }

    #[test]
    fn dynamic_arrivals_complete_and_validate() {
        let result = arriving(6, 100_000, 32, 4).run().expect("run");
        assert!(result.all_valid(), "{result:?}");
        assert_eq!(result.turnarounds().len(), 6);
        assert!(result.mean_turnaround() > 0.0);
        assert!(result.max_turnaround() as f64 >= result.mean_turnaround());
    }

    #[test]
    fn heavier_offered_load_increases_turnaround() {
        let sparse = arriving(10, 50_000_000, 64, 8).run().expect("run");
        let dense = arriving(10, 10_000, 64, 8).run().expect("run");
        assert!(sparse.all_valid() && dense.all_valid());
        assert!(
            dense.mean_turnaround() > sparse.mean_turnaround(),
            "dense {} <= sparse {}",
            dense.mean_turnaround(),
            sparse.mean_turnaround()
        );
    }

    #[test]
    fn turnaround_matches_event_stream_span() {
        // Per-job turnaround must equal the spawn→exit span visible in
        // the event timeline — the two are produced by independent code
        // paths (arrival bookkeeping vs. probe emission).
        let result = arriving(3, 150_000, 32, 2).trace_capacity(1 << 16).run().expect("run");
        assert!(result.all_valid(), "{result:?}");
        let turnarounds = result.turnarounds();
        assert_eq!(turnarounds.len(), 3);
        for &(pid, turnaround) in &turnarounds {
            let spawn = result
                .trace
                .iter()
                .find_map(|&(at, _, e)| match e {
                    Event::Spawn { pid: p } if p == pid => Some(at),
                    _ => None,
                })
                .expect("spawn event");
            let exit = result
                .trace
                .iter()
                .find_map(|&(at, _, e)| match e {
                    Event::Exit { pid: p, .. } if p == pid => Some(at),
                    _ => None,
                })
                .expect("exit event");
            assert_eq!(turnaround, exit - spawn, "pid {pid:?}");
        }
        assert_eq!(result.ledger.total(), result.total_cycles);
    }

    #[test]
    fn idle_is_stamped_at_its_first_cycle() {
        // Arrivals far apart leave the machine idle between jobs. Each
        // idle span is stamped where it starts, so the spawn that ends
        // it lands exactly `cycles` later.
        let result = Scenario::new(AppKind::Alpha)
            .instances(4)
            .size(16)
            .passes(1)
            .arrivals(400_000, 7)
            .trace_capacity(1 << 20)
            .run()
            .expect("run");
        assert!(result.all_valid(), "{result:?}");
        assert_eq!(result.trace_dropped, 0);
        let mut idles = 0;
        for (i, &(at, _, event)) in result.trace.iter().enumerate() {
            if let Event::Idle { cycles } = event {
                idles += 1;
                match result.trace.get(i + 1) {
                    Some(&(spawn_at, _, Event::Spawn { .. })) => {
                        assert_eq!(spawn_at, at + cycles, "idle at {at} for {cycles}");
                    }
                    next => panic!("idle at {at} followed by {next:?}, not a spawn"),
                }
            }
        }
        assert!(idles > 0, "the arrival gaps leave the machine idle");
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let run = |seed| arriving(5, 2_000_000, 32, 2).arrivals(2_000_000, seed).run().expect("run");
        assert_eq!(run(2003), run(2003));
        assert_ne!(run(2003).arrivals, run(7).arrivals, "the seed drives the gaps");
    }

    #[test]
    fn without_a_schedule_turnaround_is_the_finish_cycle() {
        let r = Scenario::new(AppKind::Echo).instances(3).size(32).passes(2).run().expect("run");
        assert!(r.all_valid());
        assert!(r.arrivals.iter().all(|&(_, arrival)| arrival == 0));
        assert_eq!(r.turnarounds(), r.finishes);
        assert_eq!(r.turnarounds().len(), 3);
        assert_eq!(r.max_turnaround(), r.makespan);
    }
}
