//! The benchmark's scenarios: what each workload simulates, how one
//! scenario is assembled through the public `Machine` API, and the
//! checks every simulated run must pass.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use porsche::cis::DispatchMode;
use porsche::kernel::KernelConfig;
use porsche::policy::PolicyKind;
use porsche::probe::{CycleLedger, EventSink};
use porsche::stats::KernelStats;
use proteus::experiment::{Scale, QUANTUM_10MS, QUANTUM_1MS};
use proteus::machine::{Machine, MachineConfig};
use proteus::scenario::Scenario;
use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
use proteus_apps::AppKind;
use proteus_rfu::RfuConfig;

/// The same runaway guard `Scenario` uses.
const CYCLE_LIMIT: u64 = 500_000_000_000;

/// Single-instance cycle target of a `resident` scenario: about ten
/// batch quanta, so every instance is pre-empted while its circuits stay
/// loaded.
const RESIDENT_TARGET_CYCLES: u64 = 10_000_000;

/// Single-instance cycle target of a `thrash` scenario.
const THRASH_TARGET_CYCLES: u64 = 4_000_000;

/// The `thrash` quantum. Shorter quanta add no faults: the kernel's
/// post-fault grace and the 13.6k-cycle configuration load bound the
/// fault rate.
const THRASH_QUANTUM: u64 = 10_000;

/// Instance count at which the paper's figures end.
const MAX_INSTANCES: usize = 8;

/// Single-instance cycle target of the reduced Figure 3 plan.
const FIG3_TARGET_CYCLES: u64 = 200_000;

/// One simulated scenario: `instances` copies of one application on a
/// 4-PFU machine.
#[derive(Debug, Clone)]
pub struct Case {
    /// Stable scenario id, used in failure reports.
    pub id: String,
    /// Instance count (the x of the paper's figures).
    pub instances: usize,
    app: AppKind,
    size: usize,
    passes: u32,
    quantum: u64,
    policy: PolicyKind,
    mode: DispatchMode,
}

impl Case {
    fn new(app: AppKind, instances: usize, target_cycles: u64, quantum: u64) -> Self {
        let (size, passes) = Scale {
            target_cycles,
            max_instances: MAX_INSTANCES,
            seed: 0,
        }
        .sizing(app);
        Self {
            id: String::new(),
            instances,
            app,
            size,
            passes,
            quantum,
            policy: PolicyKind::RoundRobin,
            mode: DispatchMode::HardwareOnly,
        }
    }

    fn named(mut self, id: String) -> Self {
        self.id = id;
        self
    }

    /// The same scenario as the library's `Scenario` builder describes
    /// it (default data seed).
    pub fn scenario(&self) -> Scenario {
        Scenario::new(self.app)
            .instances(self.instances)
            .size(self.size)
            .passes(self.passes)
            .quantum(self.quantum)
            .policy(self.policy)
            .mode(self.mode)
    }
}

/// The data seed `Scenario` and the experiment plans build with.
pub fn library_seed() -> u32 {
    WorkloadConfig::new(AppKind::Alpha, 1, 1).seed
}

/// `resident`: every app at the batch quantum with as many instances as
/// fit in four PFUs, so no circuit is ever evicted.
pub fn resident() -> Vec<Case> {
    [
        (AppKind::Alpha, 4),
        (AppKind::Twofish, 4),
        (AppKind::Echo, 2),
    ]
    .into_iter()
    .map(|(app, n)| {
        Case::new(app, n, RESIDENT_TARGET_CYCLES, QUANTUM_10MS)
            .named(format!("resident/{}/x{n}", app.name()))
    })
    .collect()
}

/// `thrash`: eight instances of each app at a 10 000-cycle quantum under
/// round-robin and LRU replacement, so every switch faults, evicts and
/// reloads.
pub fn thrash() -> Vec<Case> {
    let mut cases = Vec::new();
    for app in AppKind::ALL {
        for (policy, label) in [(PolicyKind::RoundRobin, "rr"), (PolicyKind::Lru, "lru")] {
            let mut case = Case::new(app, MAX_INSTANCES, THRASH_TARGET_CYCLES, THRASH_QUANTUM)
                .named(format!("thrash/{}/{label}/x{MAX_INSTANCES}", app.name()));
            case.policy = policy;
            cases.push(case);
        }
    }
    cases
}

/// The reduced Figure 3 scale: the full 1–8 instance sweep at a
/// smaller per-instance cycle target.
pub fn fig3_scale(seed: u64) -> Scale {
    Scale {
        target_cycles: FIG3_TARGET_CYCLES,
        max_instances: MAX_INSTANCES,
        seed,
    }
}

/// The jobs of `proteus::experiment::fig3_plan`, in plan order. The
/// benchmark checks each against the plan's own breakdown rows, so a
/// drift between the two lists is reported as a failure, not missed.
pub fn fig3(scale: &Scale) -> Vec<Case> {
    let mut cases = Vec::new();
    for app in [AppKind::Echo, AppKind::Alpha, AppKind::Twofish] {
        for (quantum, q) in [(QUANTUM_10MS, "10ms"), (QUANTUM_1MS, "1ms")] {
            for (mode, m) in [
                (DispatchMode::HardwareOnly, "rr"),
                (DispatchMode::SoftwareFallback, "soft"),
            ] {
                for n in 1..=scale.max_instances {
                    let mut case = Case::new(app, n, scale.target_cycles, quantum)
                        .named(format!("fig3/{}/{m}/{q}/x{n}", app.name()));
                    case.mode = mode;
                    cases.push(case);
                }
            }
        }
    }
    cases
}

/// What a scenario simulated. A simulator-only change must leave it
/// identical, so it is compared across repetitions and between traced
/// and untraced runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Completion cycle of the last process.
    pub makespan: u64,
    /// Simulated cycles including post-makespan idle time.
    pub total_cycles: u64,
    /// Where the simulated cycles went.
    pub ledger: CycleLedger,
    /// Kernel management counters (`None` for a job run inside an
    /// experiment plan, which reports only its breakdown row).
    pub stats: Option<KernelStats>,
}

impl Fingerprint {
    /// Whether two runs of one scenario simulated the same thing: equal
    /// makespan, clock and ledger, and equal counters where both have
    /// them.
    pub fn agrees(&self, other: &Fingerprint) -> bool {
        (self.makespan, self.total_cycles, self.ledger)
            == (other.makespan, other.total_cycles, other.ledger)
            && (self.stats.is_none() || other.stats.is_none() || self.stats == other.stats)
    }
}

/// Host timings and result of one simulated scenario.
#[derive(Debug)]
pub struct Sample {
    /// `WorkloadSpec::build`: guest assembly and reference checksum.
    pub build: Duration,
    /// `Machine::new` plus one `Machine::spawn` per instance.
    pub spawn: Duration,
    /// `Machine::run` to completion.
    pub run: Duration,
    /// The simulated outcome.
    pub fingerprint: Fingerprint,
}

impl Sample {
    /// Host time before the first simulated cycle.
    pub fn setup(&self) -> Duration {
        self.build + self.spawn
    }
}

/// A built workload and a machine with its instances spawned, ready to
/// run — everything `Scenario::run` does before simulating, but with the
/// benchmark's data seed and a hook for extra event sinks.
pub struct Prepared {
    spec: WorkloadSpec,
    machine: Machine,
    instances: usize,
    build: Duration,
    spawn: Duration,
}

/// Build `case`'s workload with data seed `seed` and spawn its
/// instances.
pub fn prepare(case: &Case, seed: u32) -> Result<Prepared, String> {
    let t = Instant::now();
    let spec = WorkloadSpec::build(WorkloadConfig {
        seed,
        ..WorkloadConfig::new(case.app, case.size, case.passes)
    });
    let build = t.elapsed();
    let t = Instant::now();
    let mut machine = Machine::new(MachineConfig {
        kernel: KernelConfig {
            quantum: case.quantum,
            policy: case.policy,
            mode: case.mode,
            ..KernelConfig::default()
        },
        rfu: RfuConfig::default(),
    });
    let software_alts = case.mode == DispatchMode::SoftwareFallback;
    for _ in 0..case.instances {
        machine
            .spawn(spec.spawn_spec(software_alts))
            .map_err(|e| format!("spawn: {e}"))?;
    }
    let spawn = t.elapsed();
    Ok(Prepared {
        spec,
        machine,
        instances: case.instances,
        build,
        spawn,
    })
}

impl Prepared {
    /// Host time of `WorkloadSpec::build` and of machine construction
    /// plus spawning.
    pub fn setup_times(&self) -> (Duration, Duration) {
        (self.build, self.spawn)
    }

    /// Simulate to completion with `sink` attached (if any) and check
    /// the outcome: no kernel error, no killed process, every checksum
    /// right, and both cycle conservation laws intact.
    ///
    /// `t0` is the instant the run's host clock starts; the caller takes
    /// it before building `sink`, so a host-clock sink and the run share
    /// one origin.
    pub fn run(mut self, t0: Instant, sink: Option<Box<dyn EventSink>>) -> Result<Sample, String> {
        if let Some(sink) = sink {
            self.machine.add_sink(sink);
        }
        let report = self
            .machine
            .run(CYCLE_LIMIT)
            .map_err(|e| format!("kernel error: {e}"))?;
        let run = t0.elapsed();
        if !report.killed.is_empty() {
            return Err(format!("killed pids {:?}", report.killed));
        }
        if report.exited.len() != self.instances {
            return Err(format!(
                "{} of {} processes exited",
                report.exited.len(),
                self.instances
            ));
        }
        let expected = self.spec.expected_checksum();
        if let Some((pid, _, code)) = report.exited.iter().find(|(_, _, code)| *code != expected) {
            return Err(format!(
                "pid {pid} checksum {code:#010x}, expected {expected:#010x}"
            ));
        }
        let total_cycles = self.machine.cycles();
        if report.ledger.total() != total_cycles {
            return Err(format!(
                "ledger total {} != simulated cycles {total_cycles}",
                report.ledger.total()
            ));
        }
        if report.attributed.refold() != report.ledger {
            return Err("attributed ledger does not refold to the cycle ledger".into());
        }
        Ok(Sample {
            build: self.build,
            spawn: self.spawn,
            run,
            fingerprint: Fingerprint {
                makespan: report.makespan,
                total_cycles,
                ledger: report.ledger,
                stats: Some(report.stats),
            },
        })
    }
}

/// Run `f`, turning a panic into an error message so one bad scenario
/// is recorded as a failed operation instead of ending the benchmark.
pub fn contain<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panic: {msg}"))
    })
}
