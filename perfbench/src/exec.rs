//! How the benchmark drives a workload: serial passes through the
//! `Machine` API, timed executions of the Figure 3 plan, and the
//! per-operation correctness gate both share.

use std::time::{Duration, Instant};

use porsche::probe::CycleLedger;
use proteus::experiment::{fig3_plan, Scale};
use proteus::runner::{default_workers, PlanMetrics};
use proteus::series::SeriesSet;

use crate::cases::{self, contain, library_seed, prepare, Case, Fingerprint, Sample};
use crate::hostclock::{handback, take, HostClock, Recorder, Stream};
use crate::median_secs;

/// Operations (one per scenario run) and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Close one pass over `cases`: each case is one operation, failed
    /// if any check on it failed.
    pub fn close(&mut self, cases: &[Case], errors: Vec<Option<String>>) {
        self.attempted += cases.len() as u64;
        for (case, error) in cases.iter().zip(errors) {
            if let Some(error) = error {
                eprintln!("FAILED {}: {error}", case.id);
                self.failures.push(format!("{}: {error}", case.id));
            }
        }
    }

    /// Record one stand-alone operation (a layer micro-benchmark).
    pub fn single(&mut self, id: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            eprintln!("FAILED {id}: {error}");
            self.failures.push(format!("{id}: {error}"));
        }
    }
}

/// The first fingerprint seen per case; every later run of the case,
/// traced or untraced, serial or inside the plan, must agree with it.
pub struct References(pub Vec<Option<Fingerprint>>);

impl References {
    pub fn check(&mut self, i: usize, fp: Fingerprint) -> Result<(), String> {
        match &mut self.0[i] {
            slot @ None => *slot = Some(fp),
            Some(first) if first.agrees(&fp) => {
                if first.stats.is_none() {
                    first.stats = fp.stats;
                }
            }
            Some(first) => {
                return Err(format!(
                    "fingerprint {fp:?} differs from first run {first:?}"
                ))
            }
        }
        Ok(())
    }

    pub fn known(&self) -> impl Iterator<Item = &Fingerprint> {
        self.0.iter().flatten()
    }
}

/// The traced runs of one serial pass: the summed host-time ledger and
/// traced wall.
pub struct HostRep {
    pub clock: HostClock,
    pub wall: Duration,
}

/// Host times of one serial pass.
pub struct PassTimes {
    /// Σ of the cases' untraced `Machine::run` walls.
    pub run: Duration,
    /// Σ of every run's set-up plus run wall: the pass's job time.
    pub jobs: Duration,
    /// The whole pass, checks included.
    pub wall: Duration,
}

/// Per-case set-up times over passes.
pub struct SetupTimes {
    build: Vec<Vec<Duration>>,
    spawn: Vec<Vec<Duration>>,
}

impl SetupTimes {
    fn new(cases: usize) -> Self {
        Self {
            build: vec![Vec::new(); cases],
            spawn: vec![Vec::new(); cases],
        }
    }

    fn push(&mut self, case: usize, (build, spawn): (Duration, Duration)) {
        self.build[case].push(build);
        self.spawn[case].push(spawn);
    }

    /// Σ over cases of the median `WorkloadSpec::build` time.
    pub fn build_s(&self) -> f64 {
        self.build.iter().map(|d| median_secs(d)).sum()
    }

    /// Σ over cases of the median machine construction and spawn time.
    pub fn spawn_s(&self) -> f64 {
        self.spawn.iter().map(|d| median_secs(d)).sum()
    }
}

/// Serial passes over a workload's cases through the `Machine` API.
pub struct Serial {
    cases: Vec<Case>,
    seed: u32,
    /// Set-up times of every run.
    pub setup: SetupTimes,
    run: Vec<Vec<Duration>>,
    traced_run: Vec<Vec<Duration>>,
    /// Every pass.
    pub passes: Vec<PassTimes>,
    /// The traced runs of every traced pass.
    pub traced: Vec<HostRep>,
}

impl Serial {
    pub fn new(cases: Vec<Case>, seed: u32) -> Self {
        let n = cases.len();
        Self {
            cases,
            seed,
            setup: SetupTimes::new(n),
            run: vec![Vec::new(); n],
            traced_run: vec![Vec::new(); n],
            passes: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// Run every case once untraced and, when `traced`, once more right
    /// after with the host-time ledger attached, so each traced run is
    /// timed next to its untraced twin.
    pub fn pass(&mut self, traced: bool, refs: &mut References, tally: &mut Tally) {
        let start = Instant::now();
        let mut errors = vec![None; self.cases.len()];
        let (mut run, mut jobs, mut traced_wall) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut clock: Option<HostClock> = None;
        let modes: &[bool] = if traced { &[false, true] } else { &[false] };
        for (i, case) in self.cases.iter().enumerate() {
            for &with_clock in modes {
                let outcome =
                    contain(|| run_case(case, self.seed, with_clock)).and_then(|(sample, host)| {
                        refs.check(i, sample.fingerprint.clone())
                            .map(|()| (sample, host))
                    });
                let (sample, host) = match outcome {
                    Ok(done) => done,
                    Err(e) => {
                        errors[i].get_or_insert(e);
                        continue;
                    }
                };
                jobs += sample.setup() + sample.run;
                self.setup.push(i, (sample.build, sample.spawn));
                if let Some(host) = host {
                    if let Some(total) = &mut clock {
                        total.absorb(&host);
                    } else {
                        clock = Some(host);
                    }
                    traced_wall += sample.run;
                    self.traced_run[i].push(sample.run);
                } else {
                    run += sample.run;
                    self.run[i].push(sample.run);
                }
            }
        }
        self.passes.push(PassTimes {
            run,
            jobs,
            wall: start.elapsed(),
        });
        if let Some(clock) = clock {
            self.traced.push(HostRep {
                clock,
                wall: traced_wall,
            });
        }
        tally.close(&self.cases, errors);
    }

    /// Σ over cases of the median untraced run wall.
    pub fn wall_s(&self) -> f64 {
        self.run.iter().map(|r| median_secs(r)).sum()
    }

    /// Σ over cases of the median traced run wall.
    pub fn traced_wall_s(&self) -> f64 {
        self.traced_run.iter().map(|r| median_secs(r)).sum()
    }
}

/// Simulate one case, with the host-time ledger attached when `traced`.
/// The ledger's parts must sum to the traced wall exactly.
fn run_case(case: &Case, seed: u32, traced: bool) -> Result<(Sample, Option<HostClock>), String> {
    let prepared = prepare(case, seed)?;
    let t0 = Instant::now();
    if !traced {
        return Ok((prepared.run(t0, None)?, None));
    }
    let (sink, slot) = handback(HostClock::new(t0));
    let sample = prepared.run(t0, Some(sink))?;
    let clock = take(&slot).ok_or("the machine did not hand back its host clock")?;
    let parts = clock.ns.iter().sum::<u64>() + clock.tail(t0 + sample.run).as_nanos() as u64;
    if parts != sample.run.as_nanos() as u64 {
        return Err(format!(
            "host ledger parts sum to {parts} ns, traced wall is {:?}",
            sample.run
        ));
    }
    Ok((sample, Some(clock)))
}

/// Record the event stream of `case` and check that recording did not
/// change what was simulated.
pub fn record(case: &Case, seed: u32) -> Result<(Stream, Fingerprint), String> {
    let plain = prepare(case, seed)?.run(Instant::now(), None)?;
    let (sink, slot) = handback(Recorder::default());
    let recorded = prepare(case, seed)?.run(Instant::now(), Some(sink))?;
    if recorded.fingerprint != plain.fingerprint {
        return Err("recording the event stream changed the simulation".into());
    }
    let events = take(&slot)
        .ok_or("the machine did not hand back its recorder")?
        .events;
    Ok((events, plain.fingerprint))
}

/// Timed executions of the reduced Figure 3 plan.
pub struct Plan {
    scale: Scale,
    /// The plan's jobs, in plan order.
    pub cases: Vec<Case>,
    workers: usize,
    /// `fig3_plan` description times.
    describe: Vec<Duration>,
    /// Per-job set-up times of the set-up passes.
    setup: SetupTimes,
    /// Metrics of every successful execution.
    pub runs: Vec<PlanMetrics>,
}

impl Plan {
    pub fn new(seed: u64) -> Self {
        let scale = cases::fig3_scale(seed);
        let cases = cases::fig3(&scale);
        Self {
            scale,
            setup: SetupTimes::new(cases.len()),
            cases,
            workers: default_workers(),
            describe: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// The plan's set-up work outside the timed execution: describing
    /// the plan, then building every job's workload and machine as the
    /// job does before its first simulated cycle.
    fn setup_pass(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let plan = fig3_plan(&self.scale);
        self.describe.push(t.elapsed());
        if plan.job_count() != self.cases.len() {
            return Err(format!(
                "fig3_plan has {} jobs, expected {}",
                plan.job_count(),
                self.cases.len()
            ));
        }
        for (i, case) in self.cases.iter().enumerate() {
            let times = prepare(case, library_seed())?.setup_times();
            self.setup.push(i, times);
        }
        Ok(())
    }

    /// One set-up pass, then one execution on every worker, checked
    /// job by job.
    pub fn execute(&mut self, refs: &mut References, tally: &mut Tally) {
        let mut errors = vec![None; self.cases.len()];
        if let Err(e) = self.setup_pass() {
            errors.fill(Some(format!("set-up: {e}")));
            return tally.close(&self.cases, errors);
        }
        let plan = fig3_plan(&self.scale);
        let workers = self.workers;
        match contain(|| Ok(plan.execute(workers))) {
            Ok((set, metrics)) => {
                self.check(&set, &metrics, refs, &mut errors);
                self.runs.push(metrics);
            }
            Err(e) => self.diagnose(&e, &mut errors),
        }
        tally.close(&self.cases, errors);
    }

    /// Check the plan's output job by job: the breakdown row matches the
    /// case, its ledger sums to its clock, and the whole plan's
    /// attribution refolds to the summed ledgers.
    fn check(
        &self,
        set: &SeriesSet,
        metrics: &PlanMetrics,
        refs: &mut References,
        errors: &mut [Option<String>],
    ) {
        let rows = &metrics.breakdown.rows;
        if rows.len() != self.cases.len() {
            errors.fill(Some(format!(
                "plan returned {} rows for {} jobs",
                rows.len(),
                self.cases.len()
            )));
            return;
        }
        let mut summed = CycleLedger::default();
        let mut seen: Vec<(&str, usize)> = Vec::new();
        for (i, (row, case)) in rows.iter().zip(&self.cases).enumerate() {
            summed.absorb(&row.ledger);
            let k = match seen.iter_mut().find(|(s, _)| *s == row.series) {
                Some((_, k)) => {
                    *k += 1;
                    *k
                }
                None => {
                    seen.push((&row.series, 0));
                    0
                }
            };
            let point = set.series_named(&row.series).and_then(|s| s.points.get(k));
            let error = match point {
                _ if row.x != case.instances as f64 => {
                    Some(format!("row x={} for {} instances", row.x, case.instances))
                }
                _ if row.ledger.total() != row.total => Some(format!(
                    "ledger total {} != simulated cycles {}",
                    row.ledger.total(),
                    row.total
                )),
                None => Some(format!("no point {k} on series `{}`", row.series)),
                Some(p) => refs
                    .check(
                        i,
                        Fingerprint {
                            makespan: p.y as u64,
                            total_cycles: row.total,
                            ledger: row.ledger,
                            stats: None,
                        },
                    )
                    .err(),
            };
            errors[i] = error.map(|e| format!("series `{}`: {e}", row.series));
        }
        if metrics.attributed.refold() != summed {
            errors.fill(Some(
                "plan attribution does not refold to the summed row ledgers".into(),
            ));
        }
    }

    /// The plan re-raised a job panic and lost every result: run each
    /// job's scenario alone to find which failed.
    fn diagnose(&self, panic: &str, errors: &mut [Option<String>]) {
        for (case, error) in self.cases.iter().zip(errors.iter_mut()) {
            *error = contain(|| {
                let r = case
                    .scenario()
                    .run()
                    .map_err(|e| format!("kernel error: {e}"))?;
                if r.all_valid() {
                    Ok(())
                } else {
                    Err("checksum mismatch".into())
                }
            })
            .err();
        }
        if errors.iter().all(Option::is_none) {
            errors.fill(Some(format!(
                "plan panicked ({panic}) though every job passes alone"
            )));
        }
    }

    /// Median plan description time plus Σ over jobs of the median job
    /// set-up time.
    pub fn setup_s(&self) -> f64 {
        median_secs(&self.describe) + self.setup.build_s() + self.setup.spawn_s()
    }

    /// Median plan wall.
    pub fn wall_s(&self) -> f64 {
        median_secs(&self.runs.iter().map(|m| m.wall).collect::<Vec<_>>())
    }
}
