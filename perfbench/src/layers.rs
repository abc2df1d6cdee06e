//! Per-layer micro-benchmarks: ISA decode, interpreter instruction
//! mixes, RFU dispatch loops and probe replay. Each drives one crate's
//! public API directly, checks what it computed, and reports host time
//! per unit of work (median of [`REPS`] timings).

use std::hint::black_box;
use std::time::{Duration, Instant};

use porsche::probe::{AttributedLedger, CycleLedger, Event, EventSink, Probe};
use porsche::stats::KernelStats;
use proteus::experiment::Scale;
use proteus_apps::workload::{WorkloadConfig, WorkloadSpec};
use proteus_apps::AppKind;
use proteus_cpu::{Coprocessor, Cpu, Memory, NullCoprocessor, Stop};
use proteus_isa::{assemble, decode, Program};
use proteus_rfu::{Rfu, RfuConfig, TupleKey};

use crate::cases::Fingerprint;
use crate::hostclock::Stream;
use crate::{median, Metrics};

/// Timed repetitions per micro-benchmark.
const REPS: usize = 5;

/// Simulated cycles per synthetic-mix repetition.
const MIX_CYCLES: u64 = 5_000_000;

/// Custom-instruction issues per RFU dispatch-loop repetition.
const DISPATCH_ISSUES: u32 = 500_000;

/// Cycle target of the software-only guest programs.
const SOFTWARE_TARGET_CYCLES: u64 = 3_000_000;

/// Memory given to every directly driven core.
const MEM_BYTES: u32 = 1 << 20;

/// The PID the dispatch loops issue under.
const PID: u32 = 1;

/// Median over [`REPS`] runs of `f`, which returns the host time it
/// measured and the units of work done in it; in ns per unit.
fn ns_per_unit(mut f: impl FnMut() -> Result<(Duration, u64), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (dt, units) = f()?;
        samples.push(dt.as_nanos() as f64 / units.max(1) as f64);
    }
    Ok(median(&mut samples))
}

/// `isa.decode_ns_per_word`: decode every word of the six guest
/// programs, code and data alike.
pub fn isa_decode(seed: u32, out: &mut Metrics) -> Result<(), String> {
    let mut words = Vec::new();
    for app in AppKind::ALL {
        for software in [false, true] {
            let mut cfg = WorkloadConfig {
                seed,
                ..WorkloadConfig::new(app, 64, 1)
            };
            if software {
                cfg = cfg.software();
            }
            words.extend_from_slice(WorkloadSpec::build(cfg).program().words());
        }
    }
    const PASSES: u64 = 20;
    let ns = ns_per_unit(|| {
        let t = Instant::now();
        let mut decoded = 0u64;
        for _ in 0..PASSES {
            for &w in &words {
                decoded += u64::from(decode(black_box(w)).is_ok());
            }
        }
        let dt = t.elapsed();
        if decoded == 0 {
            return Err("isa: no guest word decoded".into());
        }
        Ok((dt, PASSES * words.len() as u64))
    })?;
    out.push("isa.decode_ns_per_word", ns, "ns");
    Ok(())
}

/// Load `program` into a fresh memory and run it from `start` until it
/// stops or reaches `until`; returns the stop, the core and the host
/// time of `Cpu::run` alone.
fn run_bare(
    program: &Program,
    coproc: &mut dyn Coprocessor,
    until: u64,
) -> Result<(Stop, Cpu, Duration), String> {
    let mut mem = Memory::new(MEM_BYTES);
    mem.load_program(program)
        .map_err(|e| format!("load: {e}"))?;
    let mut cpu = Cpu::new();
    cpu.set_pc(program.symbol("start").unwrap_or(program.origin()));
    cpu.set_reg(13, MEM_BYTES);
    let t = Instant::now();
    let stop = cpu.run(&mut mem, coproc, until);
    Ok((stop, cpu, t.elapsed()))
}

/// The synthetic mixes of `crates/cpu/examples/interp_perf.rs`.
const MIXES: [(&str, &str); 4] = [
    (
        "dp_loop",
        "loop: add r2, r2, r0\n add r2, r2, r0\n add r2, r2, r0\n add r2, r2, r0\n \
         add r2, r2, r0\n add r2, r2, r0\n subs r1, r1, #1\n b loop\n",
    ),
    (
        "flags_branch",
        "loop: subs r1, r1, #1\n bne loop\n b loop\n",
    ),
    (
        "ldr_str",
        "mov r0, #4096\nloop: ldr r2, [r0]\n str r2, [r0, #4]\n b loop\n",
    ),
    (
        "cond_fail",
        "cmp r0, #1\nloop: moveq r2, #1\n moveq r2, #2\n moveq r2, #3\n b loop\n",
    ),
];

/// `cpu.ns_per_cycle.*`: the four synthetic mixes, then each app's
/// software-only guest program run to its exit with its checksum
/// checked.
pub fn cpu_mixes(seed: u32, out: &mut Metrics) -> Result<(), String> {
    for (name, source) in MIXES {
        let program = assemble(source).map_err(|e| format!("cpu {name}: {e}"))?;
        let ns = ns_per_unit(|| {
            let (stop, cpu, dt) = run_bare(&program, &mut NullCoprocessor, MIX_CYCLES)?;
            if stop != Stop::Quantum {
                return Err(format!("cpu {name}: stopped with {stop:?}"));
            }
            Ok((dt, cpu.cycles()))
        })?;
        out.push(&format!("cpu.ns_per_cycle.{name}"), ns, "ns");
    }
    let scale = Scale {
        target_cycles: SOFTWARE_TARGET_CYCLES,
        max_instances: 1,
        seed: 0,
    };
    for app in AppKind::ALL {
        let (size, passes) = scale.sizing(app);
        let spec = WorkloadSpec::build(
            WorkloadConfig {
                seed,
                ..WorkloadConfig::new(app, size, passes)
            }
            .software(),
        );
        let ns = ns_per_unit(|| {
            let (stop, cpu, dt) = run_bare(spec.program(), &mut NullCoprocessor, u64::MAX)?;
            if stop != (Stop::Swi { imm: 0 }) || cpu.reg(0) != spec.expected_checksum() {
                return Err(format!(
                    "cpu sw_{}: {stop:?} with r0={:#010x}, expected exit with {:#010x}",
                    app.name(),
                    cpu.reg(0),
                    spec.expected_checksum()
                ));
            }
            Ok((dt, cpu.cycles()))
        })?;
        out.push(&format!("cpu.ns_per_cycle.sw_{}", app.name()), ns, "ns");
    }
    Ok(())
}

/// A loop issuing `pfu 0` with `r0` counting up and `r1` fixed, and a
/// software alternative that returns `a + b` (used when TLB2 maps it).
fn dispatch_loop() -> Result<Program, String> {
    assemble(&format!(
        "start:\n ldr r3, ={DISPATCH_ISSUES}\n mov r0, #0\n mov r1, #7\n\
         loop:\n pfu 0, r2, r0, r1\n add r0, r0, #1\n subs r3, r3, #1\n bne loop\n swi #0\n\
         handler:\n ldop r4, a\n ldop r5, b\n add r6, r4, r5\n stres r6\n retsd\n"
    ))
    .map_err(|e| format!("rfu loop: {e}"))
}

/// `rfu.ns_per_cycle.{pfu_issue,soft_dispatch}`: the dispatch loop on a
/// real `Rfu`, with the tuple mapped by TLB1 to a PFU holding the
/// alpha-blend circuit, then by TLB2 to the software handler.
pub fn rfu_dispatch(out: &mut Metrics) -> Result<(), String> {
    let program = dispatch_loop()?;
    let handler = program
        .symbol("handler")
        .ok_or("rfu loop: no handler symbol")?;
    let key = TupleKey::new(PID, 0);
    for soft in [false, true] {
        let name = if soft { "soft_dispatch" } else { "pfu_issue" };
        let ns = ns_per_unit(|| {
            let mut rfu = Rfu::new(RfuConfig::default());
            rfu.regs_mut().write(15, PID);
            if soft {
                rfu.tlb_sw_mut().insert(0, key, handler);
            } else {
                rfu.pfus_mut().load(0, proteus_apps::alpha::blend_circuit());
                rfu.tlb_hw_mut().insert(0, key, 0);
            }
            let (stop, cpu, dt) = run_bare(&program, &mut rfu, u64::MAX)?;
            let counters = rfu.dispatch_counters();
            let issued = u64::from(DISPATCH_ISSUES);
            let (hw, sw) = if soft { (0, issued) } else { (issued, 0) };
            let soft_result_ok = !soft || cpu.reg(2) == DISPATCH_ISSUES - 1 + 7;
            if stop != (Stop::Swi { imm: 0 })
                || counters.hw_dispatches != hw
                || counters.sw_dispatches != sw
                || counters.faults != 0
                || !soft_result_ok
            {
                return Err(format!(
                    "rfu {name}: {stop:?}, {counters:?}, r2={:#x}",
                    cpu.reg(2)
                ));
            }
            Ok((dt, cpu.cycles()))
        })?;
        out.push(&format!("rfu.ns_per_cycle.{name}"), ns, "ns");
    }
    Ok(())
}

/// `porsche.probe.*`: replay a recorded scenario stream into a fresh
/// `Probe` (every built-in fold), into each fold alone, and its compute
/// spans through the `Probe::compute_span` fast path. Every replay must
/// reproduce the scenario's own counters and ledger.
pub fn probe_replay(events: &Stream, fp: &Fingerprint, out: &mut Metrics) -> Result<(), String> {
    let n = events.len() as u64;
    let mismatch = |what: &str| Err(format!("probe replay: {what} differs from the run"));

    let emit = ns_per_unit(|| {
        let mut probe = Probe::new(0);
        let t = Instant::now();
        for &(at, tag, event) in events {
            probe.emit(at, tag, black_box(event));
        }
        let dt = t.elapsed();
        if Some(*probe.stats()) != fp.stats
            || *probe.ledger() != fp.ledger
            || probe.attributed().refold() != fp.ledger
        {
            return mismatch("Probe::emit");
        }
        Ok((dt, n))
    })?;
    let stats = ns_per_unit(|| {
        let (dt, stats) = fold(events, KernelStats::default());
        if Some(stats) != fp.stats {
            return mismatch("KernelStats");
        }
        Ok((dt, n))
    })?;
    let ledger = ns_per_unit(|| {
        let (dt, ledger) = fold(events, CycleLedger::default());
        if ledger != fp.ledger {
            return mismatch("CycleLedger");
        }
        Ok((dt, n))
    })?;
    let attributed = ns_per_unit(|| {
        let (dt, attributed) = fold(events, AttributedLedger::default());
        if attributed.refold() != fp.ledger {
            return mismatch("AttributedLedger");
        }
        Ok((dt, n))
    })?;
    let spans: Vec<_> = events
        .iter()
        .filter_map(|&(at, _, event)| match event {
            Event::Compute {
                pid,
                user,
                custom,
                soft,
                hw_dispatches,
                sw_dispatches,
            } => Some((at, pid, user, custom, soft, hw_dispatches, sw_dispatches)),
            _ => None,
        })
        .collect();
    let compute_span = ns_per_unit(|| {
        let mut probe = Probe::new(0);
        let t = Instant::now();
        for &(at, pid, user, custom, soft, hw, sw) in &spans {
            probe.compute_span(at, pid, black_box(user), custom, soft, hw, sw);
        }
        let dt = t.elapsed();
        let l = probe.ledger();
        if (l.user_compute, l.custom_execute, l.soft_dispatch)
            != (
                fp.ledger.user_compute,
                fp.ledger.custom_execute,
                fp.ledger.soft_dispatch,
            )
        {
            return mismatch("Probe::compute_span");
        }
        Ok((dt, spans.len() as u64))
    })?;
    out.push("porsche.probe.emit_ns_per_event", emit, "ns");
    out.push("porsche.probe.stats_ns_per_event", stats, "ns");
    out.push("porsche.probe.ledger_ns_per_event", ledger, "ns");
    out.push("porsche.probe.attributed_ns_per_event", attributed, "ns");
    out.push("porsche.probe.compute_span_ns", compute_span, "ns");
    Ok(())
}

/// Feed `events` through `sink` via `EventSink::on_event`; returns the
/// host time and the fold.
fn fold<S: EventSink>(events: &Stream, mut sink: S) -> (Duration, S) {
    let t = Instant::now();
    for (at, tag, event) in events {
        sink.on_event(*at, *tag, black_box(event));
    }
    (t.elapsed(), sink)
}
