//! Layered benchmark of the Proteus reproduction.
//!
//! ```text
//! proteus-perfbench --workload <resident|thrash|fig3_sweep> --seed N --seconds S --trace 0|1
//! ```
//!
//! Repeats one workload for `--seconds`, checks every simulated
//! scenario, and prints one JSON object as its last line of output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` for the workloads, metrics and the
//! layer each metric belongs to.

mod cases;
mod exec;
mod hostclock;
mod layers;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use porsche::probe::Callsite;

use cases::{library_seed, Fingerprint};
use exec::{record, HostRep, Plan, References, Serial, Tally};

const USAGE: &str = "usage: proteus-perfbench --workload <resident|thrash|fig3_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Resident,
    Thrash,
    Fig3Sweep,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "resident" => Workload::Resident,
                    "thrash" => Workload::Thrash,
                    "fig3_sweep" => Workload::Fig3Sweep,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a whole number"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{value}` is not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The guest-data seed for a benchmark seed: the SplitMix64 finaliser, so
/// neighbouring benchmark seeds give unrelated data. The simulator sees
/// only the data generated from it.
fn data_seed(seed: u64) -> u32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn median_secs(durations: &[Duration]) -> f64 {
    median(
        &mut durations
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    )
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a ratio of nothing is 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The host-ledger callsites reported as `porsche.host_ms.*`.
const HOST_CALLSITES: [(Callsite, &str); 6] = [
    (Callsite::Compute, "compute"),
    (Callsite::TlbMiss, "tlb_miss"),
    (Callsite::Reconfiguration, "reconfiguration"),
    (Callsite::ContextSwitch, "context_switch"),
    (Callsite::SwDispatch, "sw_dispatch"),
    (Callsite::Syscall, "syscall"),
];

/// Callsites whose host time is custom-instruction fault service.
const CIS_CALLSITES: [Callsite; 4] = [
    Callsite::TlbMiss,
    Callsite::Reconfiguration,
    Callsite::SwDispatch,
    Callsite::FaultRungs,
];

/// Simulated-cycle categories reported as `sim.cycle_share.*`.
const CYCLE_SHARES: [&str; 7] = [
    "user_compute",
    "custom_execute",
    "soft_dispatch",
    "config_bus",
    "context_switch",
    "fault_handling",
    "tlb_programming",
];

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = run(&args);
    let correct = tally.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failures.len(),
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

fn run(args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let seed = data_seed(args.seed);

    let mut plan = (args.workload == Workload::Fig3Sweep).then(|| Plan::new(args.seed));
    let (cases, serial_seed) = match (&plan, args.workload) {
        // The plan's jobs build with the library seed; serial passes use
        // it too, so they can be checked against the plan job by job.
        (Some(plan), _) => (plan.cases.clone(), library_seed()),
        (None, Workload::Thrash) => (cases::thrash(), seed),
        (None, _) => (cases::resident(), seed),
    };
    let mut refs = References(vec![None; cases.len()]);
    let mut serial = Serial::new(cases, serial_seed);

    loop {
        match (&mut plan, args.trace) {
            (Some(plan), false) => plan.execute(&mut refs, &mut tally),
            (None, false) => serial.pass(false, &mut refs, &mut tally),
            (plan, true) => {
                serial.pass(true, &mut refs, &mut tally);
                if let Some(plan) = plan {
                    plan.execute(&mut refs, &mut tally);
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let walls: Vec<Duration> = match &plan {
        Some(plan) if !args.trace => plan.runs.iter().map(|m| m.wall).collect(),
        _ => serial.passes.iter().map(|p| p.run).collect(),
    };
    let walls: Vec<String> = walls
        .iter()
        .map(|w| format!("{:.3}", w.as_secs_f64()))
        .collect();
    eprintln!(
        "{:?}: {} timed passes, wall [s]: {}",
        args.workload,
        walls.len(),
        walls.join(" ")
    );
    let fingerprints: Vec<&Fingerprint> = refs.known().collect();
    let sim_cycles: u64 = fingerprints.iter().map(|f| f.total_cycles).sum();
    if args.trace {
        layer_metrics(
            args,
            &serial,
            plan.as_ref(),
            &fingerprints,
            &mut tally,
            &mut metrics,
        );
        return (tally, metrics);
    }

    let (setup_s, wall_s) = match &plan {
        Some(plan) => (plan.setup_s(), plan.wall_s()),
        None => (
            serial.setup.build_s() + serial.setup.spawn_s(),
            serial.wall_s(),
        ),
    };
    metrics.push("setup_s", setup_s, "s");
    metrics.push("wall_s", wall_s, "s");
    metrics.push(
        "sim_mcycles_per_s",
        sim_cycles as f64 / wall_s / 1e6,
        "Mcycles/s",
    );
    let makespan: u64 = fingerprints.iter().map(|f| f.makespan).sum();
    metrics.push("sim_makespan_mcycles", makespan as f64 / 1e6, "Mcycles");
    match peak_rss_mb() {
        Ok(mb) => metrics.push("peak_rss_mb", mb, "MiB"),
        Err(e) => tally.single("peak_rss", Err(e)),
    }
    (tally, metrics)
}

fn layer_metrics(
    args: &Args,
    serial: &Serial,
    plan: Option<&Plan>,
    fingerprints: &[&Fingerprint],
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let seed = data_seed(args.seed);
    out.push("apps.build_ms", serial.setup.build_s() * 1e3, "ms");
    out.push("porsche.spawn_ms", serial.setup.spawn_s() * 1e3, "ms");
    tally.single("layer/isa", layers::isa_decode(seed, out));
    tally.single("layer/cpu", layers::cpu_mixes(seed, out));
    tally.single("layer/rfu", layers::rfu_dispatch(out));

    let first = serial.traced.first().map(|r| &r.clock);
    out.push(
        "rfu.hw_dispatches",
        first.map_or(0, |c| c.hw_dispatches) as f64,
        "count",
    );
    out.push(
        "rfu.sw_dispatches",
        first.map_or(0, |c| c.sw_dispatches) as f64,
        "count",
    );

    let traced = &serial.traced;
    let per_rep =
        |f: &dyn Fn(&HostRep) -> f64| median(&mut traced.iter().map(f).collect::<Vec<_>>());
    for (callsite, name) in HOST_CALLSITES {
        out.push(
            &format!("porsche.host_ms.{name}"),
            per_rep(&|r| r.clock.ns_at(callsite) as f64 / 1e6),
            "ms",
        );
    }
    for (callsite, name) in HOST_CALLSITES {
        out.push(
            &format!("porsche.host_share.{name}"),
            per_rep(&|r| r.clock.ns_at(callsite) as f64 / r.wall.as_nanos() as f64),
            "ratio",
        );
    }
    let count = |field: fn(&porsche::KernelStats) -> u64| -> u64 {
        fingerprints
            .iter()
            .filter_map(|f| f.stats.as_ref())
            .map(field)
            .sum()
    };
    let faults = count(|s| s.custom_faults);
    let cis_ns = |r: &HostRep| CIS_CALLSITES.iter().map(|&c| r.clock.ns_at(c)).sum::<u64>() as f64;
    out.push(
        "porsche.cis.us_per_fault",
        per_rep(&|r| cis_ns(r) / 1e3 / faults.max(1) as f64),
        "us",
    );
    out.push("porsche.custom_faults", faults as f64, "count");
    out.push(
        "porsche.config_loads",
        count(|s| s.config_loads) as f64,
        "count",
    );
    out.push("porsche.evictions", count(|s| s.evictions) as f64, "count");
    out.push(
        "porsche.software_installs",
        count(|s| s.software_installs) as f64,
        "count",
    );
    out.push(
        "porsche.context_switches",
        count(|s| s.context_switches) as f64,
        "count",
    );
    out.push(
        "porsche.events",
        first.map_or(0, |c| c.events) as f64,
        "count",
    );

    // The probe layer is measured on a thrash stream whatever the
    // workload: it is the stream with the densest management events.
    let replay = record(&cases::thrash()[0], seed)
        .and_then(|(events, fp)| layers::probe_replay(&events, &fp, out));
    tally.single("layer/probe", replay);
    out.push(
        "porsche.probe.trace_overhead",
        serial.traced_wall_s() / serial.wall_s(),
        "ratio",
    );

    let (efficiency, job_wall) = match plan {
        Some(plan) => (
            median(
                &mut plan
                    .runs
                    .iter()
                    .map(|m| m.job_wall.as_secs_f64() / (m.wall.as_secs_f64() * m.workers as f64))
                    .collect::<Vec<_>>(),
            ),
            median_secs(&plan.runs.iter().map(|m| m.job_wall).collect::<Vec<_>>()),
        ),
        None => (
            median(
                &mut serial
                    .passes
                    .iter()
                    .map(|p| p.jobs.as_secs_f64() / p.wall.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            serial.setup.build_s() + serial.setup.spawn_s() + serial.wall_s(),
        ),
    };
    out.push("proteus.runner.parallel_efficiency", efficiency, "ratio");
    out.push("proteus.runner.job_wall_s", job_wall, "s");

    let mut ledger = porsche::CycleLedger::default();
    for f in fingerprints {
        ledger.absorb(&f.ledger);
    }
    let total = ledger.total().max(1) as f64;
    for (name, cycles) in porsche::CycleLedger::CATEGORIES.iter().zip(ledger.values()) {
        if CYCLE_SHARES.contains(name) {
            out.push(
                &format!("sim.cycle_share.{name}"),
                cycles as f64 / total,
                "ratio",
            );
        }
    }
}
