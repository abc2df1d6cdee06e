//! The Custom Instruction Scheduler (CIS).
//!
//! "POrSCHE implements a Custom Instruction Scheduler as part of the
//! kernel, which manages the circuits registered with the OS by different
//! applications. The CIS is responsible for loading and unloading
//! circuits and for managing the dispatch hardware." (§5)
//!
//! The fault handler implements §4.2's required behaviour: "When the
//! operating system sees a custom instruction fault it must first check
//! if it is just a mapping fault before attempting to load the hardware."

use std::collections::BTreeMap;

use proteus_rfu::{Cam, FaultInfo, PfuIndex, Rfu, TupleKey};

use crate::costs::CostModel;
use crate::fault::{FaultUnit, RecoveryPolicy};
use crate::kernel::KernelConfig;
use crate::policy::{PolicyView, ReplacementPolicy};
use crate::probe::{Callsite, Event, PfuFaultKind, Probe, Tag};
use crate::process::{Pid, Process, Registered};

/// How the CIS resolves contention (the paper's two experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Always swap circuits: pick a victim and reconfigure
    /// (§5.1.1, the Circuit Switching Test).
    #[default]
    HardwareOnly,
    /// "The operating system can defer execution to the software
    /// alternative rather than swapping circuits on and off the processor
    /// if the FPL is full" (§2; §5.1.2, the Software Dispatch Test).
    /// Falls back to swapping when no software alternative is registered.
    SoftwareFallback,
}

/// Outcome of the custom-instruction fault handler. The verdict carries
/// no cost: the handler's work is whatever its costed events booked on
/// the probe's ledger, and that is what the kernel charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// Mapping repaired or circuit loaded; reissue the faulting
    /// instruction.
    Reissue,
    /// The mapping request was illegal (unregistered CID), the circuit
    /// ran away, or every recovery rung was exhausted — terminate the
    /// process (§4.2). The work spent reaching the verdict (entry,
    /// diagnosis, failed retries) is charged like any other.
    Kill,
}

/// Everything a CIS call touches besides the scheduler's own
/// bookkeeping, borrowed from the kernel for the duration of one call.
#[derive(Debug)]
pub struct CisCtx<'a> {
    /// The reconfigurable function unit.
    pub rfu: &'a mut Rfu,
    /// The process table (registration records live here).
    pub procs: &'a mut BTreeMap<Pid, Process>,
    /// The fault injector, when a fault plan is active.
    pub faults: Option<&'a mut FaultUnit>,
    /// Management cycle costs.
    pub costs: &'a CostModel,
    /// The instrumentation bus every action emits on.
    pub probe: &'a mut Probe,
    /// The simulated cycle events are stamped at.
    pub at: u64,
}

impl CisCtx<'_> {
    /// Emit `event` at the current stamp.
    fn emit(&mut self, tag: Tag, event: Event) {
        self.probe.emit(self.at, tag, event);
    }
}

/// `key`'s registration record, if the process and CID both exist.
fn registration(procs: &BTreeMap<Pid, Process>, key: TupleKey) -> Option<&Registered> {
    procs.get(&key.pid)?.circuits.get(&key.cid)
}

/// Mutable [`registration`].
fn registration_mut(procs: &mut BTreeMap<Pid, Process>, key: TupleKey) -> Option<&mut Registered> {
    procs.get_mut(&key.pid)?.circuits.get_mut(&key.cid)
}

/// CIS state: its victim and recovery policies, who owns each PFU,
/// load/use recency, TLB cursor.
#[derive(Debug)]
pub struct Cis {
    mode: DispatchMode,
    share_circuits: bool,
    policy: Box<dyn ReplacementPolicy>,
    recovery: RecoveryPolicy,
    pfu_owner: Vec<Option<TupleKey>>,
    pfu_image: Vec<Option<u64>>,
    load_seq: Vec<u64>,
    last_use_seq: Vec<u64>,
    seq: u64,
    tlb_hand: usize,
}

impl Cis {
    /// CIS for an RFU with `pfus` units, with `config`'s dispatch mode,
    /// replacement policy, recovery policy and circuit sharing (§4.2).
    /// The paper's experiments disable sharing to study overload; "in
    /// the final system applications using the same circuits would
    /// attempt to share instances, just changing the state in a single
    /// PFU".
    pub fn new(pfus: usize, config: &KernelConfig) -> Self {
        Self {
            mode: config.mode,
            share_circuits: config.share_circuits,
            policy: config.policy.build(),
            recovery: config.recovery,
            pfu_owner: vec![None; pfus],
            pfu_image: vec![None; pfus],
            load_seq: vec![0; pfus],
            last_use_seq: vec![0; pfus],
            seq: 1,
            tlb_hand: 0,
        }
    }

    /// Whether `pfu` may be reconfigured in place once more: its
    /// reconfiguration allowance (`retries`, reset on every completion)
    /// is not yet spent. Rung 0's repair and the scrubber's repairs both
    /// ask this — under upsets denser than the reload time, an
    /// unconditional repair loops without ever recording a strike, and an
    /// unconditional scrubber starves execution outright.
    fn within_allowance(&self, pfu: PfuIndex, rfu: &Rfu) -> bool {
        rfu.pfus().health(pfu).retries <= self.recovery.max_retries
    }

    /// Pull fresh completion counts out of the hardware and update the
    /// recency sequence (feeds LRU/Second Chance).
    fn refresh_usage(&mut self, rfu: &mut Rfu) -> Vec<u64> {
        let n = self.pfu_owner.len();
        let mut counts = Vec::with_capacity(n);
        for i in 0..n {
            let c = rfu.pfus_mut().counters_mut().read_and_clear(i);
            if c > 0 {
                self.seq += 1;
                self.last_use_seq[i] = self.seq;
            }
            counts.push(c);
        }
        counts
    }

    /// Choose the slot for a new TLB entry: a free one, else the next
    /// one under the round-robin hand. The flag reports whether a live
    /// entry gets displaced.
    fn tlb_slot(&mut self, cam: &Cam) -> (usize, bool) {
        match cam.free_slot() {
            Some(s) => (s, false),
            None => {
                let s = self.tlb_hand % cam.capacity();
                self.tlb_hand = (s + 1) % cam.capacity();
                (s, true)
            }
        }
    }

    /// Program an entry in TLB2 (`soft`) or the hardware TLB and emit
    /// the [`Event::TlbProgram`] — attributed to `tag`'s callsite, since
    /// TLB programming happens on behalf of whichever path asked for it.
    fn tlb_insert(&mut self, key: TupleKey, value: u32, soft: bool, tag: Tag, cx: &mut CisCtx) {
        let cam = if soft { cx.rfu.tlb_sw_mut() } else { cx.rfu.tlb_hw_mut() };
        let (slot, evicted) = self.tlb_slot(cam);
        cam.insert(slot, key, value);
        cx.emit(tag, Event::TlbProgram { key, soft, evicted, cost: cx.costs.tlb_program });
    }

    /// Take the circuit out of `pfu` and return it, with its state, to
    /// its owner's registration record; the slot's hardware TLB entries
    /// go with it. Returns the owner, or `None` if the slot held nothing.
    fn detach(&mut self, pfu: PfuIndex, cx: &mut CisCtx) -> Option<TupleKey> {
        let owner = self.pfu_owner[pfu].take()?;
        self.pfu_image[pfu] = None;
        let dropped = cx.rfu.tlb_hw_mut().invalidate_value(pfu as u32);
        debug_assert!(dropped <= cx.rfu.tlb_hw().capacity());
        // A faulty slot's status bit is untrustworthy: burned issues
        // drive it low without ever latching operands into the circuit,
        // so saving the 0 would make the next home "resume" an
        // instruction that never started — with stale operands. Saving
        // 1 restarts it instead, which is always sound: circuit state
        // only mutates on completion (DESIGN.md §9).
        let faulty = cx.rfu.pfus().health(pfu).is_faulty();
        let (circuit, status) = cx.rfu.pfus_mut().unload(pfu)?;
        if let Some(reg) = registration_mut(cx.procs, owner) {
            reg.instance = Some(circuit);
            reg.status = status || faulty;
            reg.loaded_at = None;
        }
        Some(owner)
    }

    /// Evict the circuit in `pfu`, writing its state frames (and, under
    /// the A4 ablation, the full configuration) back over the bus. `tag`
    /// attributes the work to whoever forced the unload (the placement
    /// requester or the recovery ladder), not the evicted owner.
    fn unload(&mut self, pfu: PfuIndex, tag: Tag, cx: &mut CisCtx) {
        let Some(owner) = self.detach(pfu, cx) else { return };
        cx.emit(tag, Event::Eviction { key: owner, pfu });
        if let Some(reg) = registration(cx.procs, owner) {
            let (static_bytes, state_words) = (reg.static_bytes, reg.state_words);
            let words = cx.costs.unload_words(static_bytes, state_words);
            let cost = cx.costs.unload_cycles(static_bytes, state_words);
            cx.emit(tag, Event::BusTransfer { words, cost });
        }
    }

    /// Move `key`'s home instance into the empty slot `pfu`, restoring
    /// its saved status bit, and record the new owner. `false` only on a
    /// registry bug (the registration or its instance vanished).
    fn install(&mut self, key: TupleKey, pfu: PfuIndex, cx: &mut CisCtx) -> bool {
        let Some(reg) = registration_mut(cx.procs, key) else {
            debug_assert!(false, "registration vanished mid-handler");
            return false;
        };
        let Some(circuit) = reg.instance.take() else {
            debug_assert!(false, "unloaded tuple without a home instance");
            return false;
        };
        let evicted = cx.rfu.pfus_mut().load(pfu, circuit);
        debug_assert!(evicted.is_none(), "target PFU was freed");
        cx.rfu.pfus_mut().set_status(pfu, reg.status);
        reg.loaded_at = Some(pfu);
        self.seq += 1;
        self.last_use_seq[pfu] = self.seq;
        self.pfu_owner[pfu] = Some(key);
        self.pfu_image[pfu] = reg.image;
        true
    }

    /// The custom-instruction fault handler (Figure 1's "Fault" leg).
    ///
    /// Every action emits its [`Event`] at `cx.at`; the simulated clock
    /// does not advance while the handler runs. The costed events are
    /// the only record of the handler's work: the kernel charges exactly
    /// what they add to the probe's ledger.
    pub fn handle_fault(&mut self, key: TupleKey, cx: &mut CisCtx) -> FaultResolution {
        let miss = Tag::new(key.pid, Callsite::TlbMiss);
        cx.emit(miss, Event::Fault { key, cost: cx.costs.fault_entry });

        match cx.rfu.take_fault() {
            // Runaway circuits are fatal (the OS's timeliness
            // guarantee, §2).
            Some(FaultInfo::Runaway { .. }) => return FaultResolution::Kill,
            // The per-PFU watchdog tripped: enter the recovery ladder
            // (DESIGN.md §9) instead of the placement path.
            Some(FaultInfo::Watchdog { pfu, burned, .. }) => {
                return self.recover_pfu_fault(key, pfu, burned, cx);
            }
            _ => {}
        }

        // "terminate the process if the mapping request was illegal".
        let Some(reg) = registration(cx.procs, key) else {
            return FaultResolution::Kill;
        };

        // §4.2: check for a plain mapping fault first — the circuit is
        // resident but its TLB entry was pushed out.
        if let Some(pfu) = reg.loaded_at {
            cx.emit(miss, Event::MappingRepair { key });
            self.tlb_insert(key, pfu as u32, false, miss, cx);
            return FaultResolution::Reissue;
        }

        // A tuple already dispatched to software stays on the software
        // path (its instruction may hold mid-protocol shadow state in
        // process memory); this fault just means the TLB2 entry was
        // pushed out.
        if reg.soft_active {
            // soft_active is only ever set alongside a registered
            // alternative; a missing one is an illegal mapping request.
            debug_assert!(reg.software_alt.is_some(), "soft_active without an alternative");
            let Some(addr) = reg.software_alt else {
                return FaultResolution::Kill;
            };
            cx.emit(miss, Event::MappingRepair { key });
            self.tlb_insert(key, addr, true, miss, cx);
            return FaultResolution::Reissue;
        }

        // Sharing fast path (§4.2): another process's instance of the
        // same configuration image is resident — hand the PFU over by
        // swapping state frames only, no reconfiguration. (Allocatable
        // = free and not quarantined; identical to the free list when
        // no fault plan is active.)
        let (state_words, image) = (reg.state_words, reg.image);
        if self.share_circuits && cx.rfu.pfus().available_pfus().is_empty() {
            if let Some(pfu) =
                image.and_then(|img| self.pfu_image.iter().position(|&i| i == Some(img)))
            {
                // Return the resident instance (with its state) to its
                // owner's registry and install the faulting process's:
                // the static configuration is identical, so only the
                // state frames move over the bus.
                self.detach(pfu, cx);
                if !self.install(key, pfu, cx) {
                    return FaultResolution::Kill;
                }
                let reconf = Tag::new(key.pid, Callsite::Reconfiguration);
                cx.emit(reconf, Event::StateSwap { key, pfu });
                let cost = cx.costs.state_swap_cycles(state_words);
                cx.emit(reconf, Event::BusTransfer { words: 2 * state_words as u64, cost });
                self.tlb_insert(key, pfu as u32, false, reconf, cx);
                return FaultResolution::Reissue;
            }
        }

        self.place_and_load(key, cx)
    }

    /// Find a home for `key`'s circuit — an allocatable PFU, the
    /// software alternative, or a victim's slot — and drive the full
    /// configuration across the bus, verifying the transfer when the
    /// fault plan models transit corruption.
    fn place_and_load(&mut self, key: TupleKey, cx: &mut CisCtx) -> FaultResolution {
        let Some(reg) = registration(cx.procs, key) else {
            debug_assert!(false, "placement for an unregistered tuple");
            return FaultResolution::Kill;
        };
        let (software_alt, static_bytes, state_words) =
            (reg.software_alt, reg.static_bytes, reg.state_words);
        let reconf = Tag::new(key.pid, Callsite::Reconfiguration);

        // Find a home: an allocatable PFU, the software alternative, or
        // a victim.
        let target = match cx.rfu.pfus().available_pfus().first().copied() {
            Some(free) => free,
            None => {
                // With every slot quarantined there is nothing to
                // evict; software dispatch is the only way forward.
                let no_victims = self.pfu_owner.iter().all(Option::is_none);
                if self.mode == DispatchMode::SoftwareFallback || no_victims {
                    if let Some(addr) = software_alt {
                        let sw = Tag::new(key.pid, Callsite::SwDispatch);
                        cx.emit(sw, Event::SoftwareInstall { key });
                        self.tlb_insert(key, addr, true, sw, cx);
                        if let Some(reg) = registration_mut(cx.procs, key) {
                            reg.soft_active = true;
                        }
                        return FaultResolution::Reissue;
                    }
                }
                if no_victims {
                    return FaultResolution::Kill;
                }
                let counts = self.refresh_usage(cx.rfu);
                let victim = self.policy.select_victim(&PolicyView {
                    occupied: &self.pfu_owner,
                    completions: &counts,
                    last_use_seq: &self.last_use_seq,
                    load_seq: &self.load_seq,
                    current_pid: key.pid,
                });
                assert!(victim < self.pfu_owner.len(), "policy returned bad PFU {victim}");
                self.unload(victim, reconf, cx);
                victim
            }
        };

        // Full configuration load: static frames + state frames (§4.1).
        if !self.install(key, target, cx) {
            return FaultResolution::Kill;
        }
        self.load_seq[target] = self.seq;
        cx.emit(reconf, Event::ConfigLoad { key, pfu: target });
        let words = CostModel::full_words(static_bytes, state_words);
        let cost = cx.costs.full_load_cycles(static_bytes, state_words);
        cx.emit(reconf, Event::BusTransfer { words, cost });

        // Transit verification (DESIGN.md §9): when transfers can
        // corrupt, every load is CRC-checked on arrival and re-driven
        // (bounded) until it verifies. A transfer still corrupt after
        // the retry budget stays in place flagged corrupt — the
        // watchdog path repairs it on first use.
        if let Some(fu) = cx.faults.as_deref_mut().filter(|fu| fu.transit_active()) {
            let rungs = Tag::new(key.pid, Callsite::FaultRungs);
            let mut corrupt = fu.transit_corrupts();
            let crc_check = cx.costs.crc_check;
            let check = |corrupt| Event::ScrubCheck { pfu: target, corrupt, cost: crc_check };
            cx.probe.emit(cx.at, rungs, check(corrupt));
            let mut attempt = 0u32;
            while corrupt && attempt < self.recovery.max_retries {
                attempt += 1;
                let cost = cx.costs.retry_load_cycles(static_bytes, state_words, attempt);
                cx.probe.emit(
                    cx.at,
                    rungs,
                    Event::RecoveryRetry { key, pfu: target, attempt, words, cost },
                );
                corrupt = fu.transit_corrupts();
                cx.probe.emit(cx.at, rungs, check(corrupt));
            }
            if corrupt {
                cx.rfu.pfus_mut().health_mut(target).config_corrupt = true;
            }
        }

        self.tlb_insert(key, target as u32, false, reconf, cx);
        FaultResolution::Reissue
    }

    /// Re-drive `key`'s full configuration into the slot it already
    /// occupies — the fault handler's repair and retry rungs and the
    /// scrubber's repairs all reconfigure this way. Fresh static frames
    /// clear any corruption, and the status-register reset restarts the
    /// interrupted instruction cleanly: a faulty slot never clocked it,
    /// so no progress is lost. Each re-drive spends one of the slot's
    /// reconfiguration allowance (`retries`) and emits one
    /// [`Event::RecoveryRetry`] at `cx.at`, attributed to `callsite`.
    /// Returns the cycles it charged, or `None` if the registration or
    /// the slot was unexpectedly empty.
    fn redrive(key: TupleKey, pfu: PfuIndex, callsite: Callsite, cx: &mut CisCtx) -> Option<u64> {
        let reg = registration(cx.procs, key)?;
        let (static_bytes, state_words) = (reg.static_bytes, reg.state_words);
        let attempt = cx.rfu.pfus().health(pfu).retries + 1;
        cx.rfu.pfus_mut().health_mut(pfu).retries = attempt;
        let (circuit, _) = cx.rfu.pfus_mut().unload(pfu)?;
        cx.rfu.pfus_mut().load(pfu, circuit);
        let words = CostModel::full_words(static_bytes, state_words);
        let cost = cx.costs.retry_load_cycles(static_bytes, state_words, attempt);
        cx.emit(Tag::new(key.pid, callsite), Event::RecoveryRetry { key, pfu, attempt, words, cost });
        Some(cost)
    }

    /// The DESIGN.md §9 recovery ladder for a tripped PFU watchdog.
    ///
    /// Detection charges the burned clocks plus a CRC readback of the
    /// slot. Corrupt frames (an SEU hit) are repaired in place;
    /// otherwise the slot takes a hard-fault strike and the ladder
    /// climbs: bounded retry reconfiguration → software-dispatch
    /// failover → quarantine-and-relocate, killing the process only
    /// when every rung is exhausted or disabled.
    fn recover_pfu_fault(
        &mut self,
        key: TupleKey,
        pfu: PfuIndex,
        burned: u64,
        cx: &mut CisCtx,
    ) -> FaultResolution {
        // Diagnose: read the slot's frames back. The burned clocks are
        // real time the faulting issue consumed that never came back
        // through the coprocessor port, so they are charged (and
        // attributed to detection) here.
        let kind = if cx.rfu.pfus().health(pfu).config_corrupt {
            PfuFaultKind::CrcMismatch
        } else {
            PfuFaultKind::Watchdog
        };
        let rungs = Tag::new(key.pid, Callsite::FaultRungs);
        let cost = burned + cx.costs.crc_check;
        cx.emit(rungs, Event::PfuFault { key, pfu, kind, cost });

        let Some(reg) = registration(cx.procs, key) else {
            return FaultResolution::Kill;
        };
        debug_assert_eq!(reg.loaded_at, Some(pfu), "watchdog names the hosting slot");
        let software_alt = reg.software_alt;

        // Rung 0 — SEU repair: corrupt frames explain the hang, and the
        // damage lives in the configuration SRAM, not the slot. Bounded
        // by the slot's reconfiguration allowance.
        let repair = kind == PfuFaultKind::CrcMismatch && self.within_allowance(pfu, cx.rfu);
        if !repair {
            // A hard fault: the frames verify but the slot never
            // completes (stuck `done`, hung circuit) — or repair-in-place
            // keeps failing to clear the hang. Strike one against the
            // slot.
            let health = cx.rfu.pfus_mut().health_mut(pfu);
            health.fault_count += 1;

            // Top rung — quarantine: a persistent offender stops being
            // allocatable, and the circuit relocates through the normal
            // placement path (relocation loads are ordinary config-bus
            // work, charged by the ordinary events).
            if self.recovery.quarantine_threshold.is_some_and(|t| health.fault_count >= t) {
                health.quarantined = true;
                self.unload(pfu, rungs, cx);
                cx.emit(rungs, Event::Quarantine { pfu });
                // The stuck slot never clocked the instruction; restart
                // it from scratch on the new home.
                if let Some(reg) = registration_mut(cx.procs, key) {
                    reg.status = true;
                }
                return self.place_and_load(key, cx);
            }
        }

        // Rung 0's repair, or the first rung — bounded blind retries:
        // reconfigure the same slot in case the hang was transient.
        if repair || cx.rfu.pfus().health(pfu).retries < self.recovery.max_retries {
            let redriven = Self::redrive(key, pfu, Callsite::FaultRungs, cx).is_some();
            debug_assert!(redriven, "watchdog tripped on an empty slot");
            return if redriven { FaultResolution::Reissue } else { FaultResolution::Kill };
        }

        // Second rung — software failover: abandon the slot and reroute
        // the tuple through TLB2 (§2's graceful degradation).
        if let Some(addr) = software_alt.filter(|_| self.recovery.software_failover) {
            self.unload(pfu, rungs, cx);
            if let Some(reg) = registration_mut(cx.procs, key) {
                reg.soft_active = true;
                reg.status = true;
            }
            let cam = cx.rfu.tlb_sw_mut();
            let (slot, _) = self.tlb_slot(cam);
            cam.insert(slot, key, addr);
            // The TLB2 programming is charged through the failover
            // event so the work lands in the fault-recovery ledger
            // category rather than routine TLB maintenance.
            cx.emit(rungs, Event::SoftwareFailover { key, pfu, cost: cx.costs.tlb_program });
            return FaultResolution::Reissue;
        }

        // Every rung exhausted or disabled (§4.2: "terminate the
        // process").
        FaultResolution::Kill
    }

    /// One scrub pass (DESIGN.md §9): CRC-read every resident
    /// configuration and repair corrupt frames before dispatch hits
    /// them. Unlike the fault handler, the pass takes time as it goes:
    /// `cx.at` advances by each check's cost and each repair's charge,
    /// so every event is stamped where its step ends (a check) or starts
    /// (a repair). Corruption beyond the slot's reconfiguration
    /// allowance is left in place for the dispatch-time ladder to
    /// escalate on.
    pub fn scrub(&mut self, cx: &mut CisCtx) {
        for pfu in 0..self.pfu_owner.len() {
            if !cx.rfu.pfus().is_loaded(pfu) {
                continue;
            }
            let owner = self.pfu_owner[pfu];
            let corrupt = cx.rfu.pfus().health(pfu).config_corrupt;
            let cost = cx.costs.crc_check;
            cx.at += cost;
            // Scrub work is charged to the slot's owner when it has one.
            let tag = Tag::new(owner.map_or(0, |k| k.pid), Callsite::Scrub);
            cx.emit(tag, Event::ScrubCheck { pfu, corrupt, cost });
            let Some(key) = owner.filter(|_| corrupt && self.within_allowance(pfu, cx.rfu)) else {
                continue;
            };
            // Repair by re-driving the configuration, the same routine
            // as the handler's rungs.
            cx.at += Self::redrive(key, pfu, Callsite::Scrub, cx).unwrap_or(0);
        }
    }

    /// Process teardown: free its PFUs and purge its TLB entries.
    pub fn release_process(&mut self, pid: Pid, rfu: &mut Rfu) {
        for pfu in 0..self.pfu_owner.len() {
            if self.pfu_owner[pfu].is_some_and(|k| k.pid == pid) {
                self.pfu_owner[pfu] = None;
                self.pfu_image[pfu] = None;
                rfu.pfus_mut().unload(pfu);
            }
        }
        rfu.tlb_hw_mut().invalidate_pid(pid);
        rfu.tlb_sw_mut().invalidate_pid(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcState;
    use proteus_cpu::coproc::CoprocResult;
    use proteus_cpu::cpu::Context;
    use proteus_cpu::Coprocessor;
    use proteus_cpu::Memory;
    use proteus_rfu::behavioral::FixedLatency;
    use proteus_rfu::RfuConfig;

    /// Watchdog allowance of [`watchdog_rfu`] slots: the clocks a hung
    /// issue burns before it traps.
    const WATCHDOG: u64 = 100;

    fn proc_with_circuit(pid: Pid, cid: u8, sw: Option<u32>) -> Process {
        proc_with_image(pid, cid, sw, None)
    }

    fn proc_with_image(pid: Pid, cid: u8, sw: Option<u32>, image: Option<u64>) -> Process {
        let mut circuits = BTreeMap::new();
        circuits.insert(
            cid,
            Registered::with_image(Box::new(FixedLatency::new("add", 1, 4, |a, b| a + b)), sw, image),
        );
        Process {
            pid,
            ctx: Context::default(),
            mem: Memory::new(1024),
            rfu_regs: [0; 16],
            operand_block: [0; 5],
            state: ProcState::Ready,
            circuits,
            circuit_table: Vec::new(),
            finish_cycle: None,
            console: Vec::new(),
        }
    }

    /// A CIS with everything its calls touch.
    struct Rig {
        cis: Cis,
        rfu: Rfu,
        procs: BTreeMap<Pid, Process>,
        costs: CostModel,
        probe: Probe,
    }

    impl Rig {
        fn new(cis: Cis, pfus: usize, procs: impl IntoIterator<Item = Process>) -> Self {
            Self {
                cis,
                rfu: Rfu::new(RfuConfig { pfus, ..RfuConfig::default() }),
                procs: procs.into_iter().map(|p| (p.pid, p)).collect(),
                costs: CostModel::default(),
                probe: Probe::new(256),
            }
        }

        /// One call context over the rig's state, stamped at `at`.
        fn cx(&mut self, at: u64) -> (&mut Cis, CisCtx<'_>) {
            let cx = CisCtx {
                rfu: &mut self.rfu,
                procs: &mut self.procs,
                faults: None,
                costs: &self.costs,
                probe: &mut self.probe,
                at,
            };
            (&mut self.cis, cx)
        }

        /// Run the fault handler for `key` at cycle 0 and return its
        /// verdict with the charge it booked on the probe's ledger —
        /// exactly what the kernel adds to the clock.
        fn fault(&mut self, key: TupleKey) -> (FaultResolution, u64) {
            let before = self.probe.ledger().total();
            let (cis, mut cx) = self.cx(0);
            let verdict = cis.handle_fault(key, &mut cx);
            (verdict, self.probe.ledger().total() - before)
        }

        /// Swap in slots whose watchdog trips after [`WATCHDOG`] clocks.
        fn with_watchdog(mut self) -> Self {
            let pfus = self.rfu.pfus().len();
            self.rfu = Rfu::new(RfuConfig {
                pfus,
                watchdog_cycles: Some(WATCHDOG),
                ..RfuConfig::default()
            });
            self
        }

        /// Drive one watchdog trip: issue `pid`'s instruction until the
        /// RFU reports a fault (the faulty slot burns its allowance).
        fn trip(&mut self, pid: Pid) {
            assert!(
                matches!(self.rfu.exec_custom(pid, 0, 2, 3, 0, 0, 100_000), CoprocResult::Fault),
                "expected a watchdog trip"
            );
        }
    }

    fn setup(n_procs: u32, pfus: usize, mode: DispatchMode, sw: Option<u32>) -> Rig {
        Rig::new(
            Cis::new(pfus, &KernelConfig { mode, ..KernelConfig::default() }),
            pfus,
            (1..=n_procs).map(|pid| proc_with_circuit(pid, 0, sw)),
        )
    }

    /// Two processes registering the same configuration image on a
    /// one-PFU array with sharing enabled.
    fn sharing_rig(images: [u64; 2]) -> Rig {
        let [a, b] = images;
        Rig::new(
            Cis::new(1, &KernelConfig { share_circuits: true, ..KernelConfig::default() }),
            1,
            [proc_with_image(1, 0, None, Some(a)), proc_with_image(2, 0, None, Some(b))],
        )
    }

    #[test]
    fn first_fault_loads_into_free_pfu() {
        let mut rig = setup(1, 4, DispatchMode::HardwareOnly, None);
        let (verdict, charged) = rig.fault(TupleKey::new(1, 0));
        assert_eq!(verdict, FaultResolution::Reissue);
        assert!(charged > 13_000, "full 54 KB load, got {charged}");
        assert_eq!(rig.probe.stats().config_loads, 1);
        // Instruction now dispatches in hardware.
        assert!(matches!(
            rig.rfu.exec_custom(1, 0, 2, 3, 0, 0, 100),
            CoprocResult::Done { value: 5, .. }
        ));
    }

    #[test]
    fn unregistered_cid_kills() {
        let mut rig = setup(1, 4, DispatchMode::HardwareOnly, None);
        assert_eq!(rig.fault(TupleKey::new(1, 9)).0, FaultResolution::Kill);
    }

    #[test]
    fn contention_evicts_a_victim() {
        let mut rig = setup(5, 4, DispatchMode::HardwareOnly, None);
        for pid in 1..=5 {
            assert_eq!(rig.fault(TupleKey::new(pid, 0)).0, FaultResolution::Reissue);
        }
        assert_eq!(rig.probe.stats().config_loads, 5);
        assert_eq!(rig.probe.stats().evictions, 1, "fifth circuit evicted one of the four");
        // The evicted process's registration got its instance (and
        // state) back.
        let evicted_pid = (1..=5)
            .find(|p| rig.procs[p].circuits[&0].loaded_at.is_none())
            .expect("someone was evicted");
        assert!(rig.procs[&evicted_pid].circuits[&0].instance.is_some());
    }

    #[test]
    fn software_fallback_avoids_eviction() {
        let mut rig = setup(5, 4, DispatchMode::SoftwareFallback, Some(0x4000));
        for pid in 1..=5 {
            rig.fault(TupleKey::new(pid, 0));
        }
        assert_eq!(rig.probe.stats().config_loads, 4, "only the four free PFUs were filled");
        assert_eq!(rig.probe.stats().evictions, 0);
        assert_eq!(rig.probe.stats().software_installs, 1);
        // Fifth process now dispatches to software.
        assert!(matches!(
            rig.rfu.exec_custom(5, 0, 2, 3, 0, 0x88, 100),
            CoprocResult::SoftwareDispatch { target: 0x4000, .. }
        ));
    }

    #[test]
    fn mapping_fault_is_cheap() {
        let mut rig = setup(1, 4, DispatchMode::HardwareOnly, None);
        let key = TupleKey::new(1, 0);
        rig.fault(key);
        // Simulate the TLB entry being pushed out while the circuit
        // stays resident.
        rig.rfu.tlb_hw_mut().invalidate(key);
        let (verdict, charged) = rig.fault(key);
        assert_eq!(verdict, FaultResolution::Reissue);
        assert!(charged < 200, "mapping fault must not reload 54 KB, got {charged}");
        assert_eq!(rig.probe.stats().mapping_faults, 1);
        assert_eq!(rig.probe.stats().config_loads, 1, "no second load");
    }

    #[test]
    fn sharing_hands_over_via_state_swap() {
        // One PFU, two processes with the SAME configuration image:
        // the second fault must resolve with a state swap, not a load.
        let mut rig = sharing_rig([77, 77]);
        let (verdict, charged) = rig.fault(TupleKey::new(1, 0));
        assert!(verdict == FaultResolution::Reissue && charged > 13_000, "first is a full load");
        let (verdict, charged) = rig.fault(TupleKey::new(2, 0));
        assert_eq!(verdict, FaultResolution::Reissue);
        assert!(charged < 500, "handover must be a state swap, took {charged}");
        assert_eq!(rig.probe.stats().config_loads, 1);
        assert_eq!(rig.probe.stats().state_swaps, 1);
        assert_eq!(rig.probe.stats().evictions, 0);
        // Process 2 now dispatches in hardware; process 1's mapping is
        // gone and its instance is home with its state.
        assert!(matches!(
            rig.rfu.exec_custom(2, 0, 4, 5, 0, 0, 100),
            CoprocResult::Done { value: 9, .. }
        ));
        assert!(rig.rfu.tlb_hw().lookup(TupleKey::new(1, 0)).is_none());
        assert!(rig.procs[&1].circuits[&0].instance.is_some());
    }

    #[test]
    fn different_images_do_not_share() {
        let mut rig = sharing_rig([77, 88]);
        rig.fault(TupleKey::new(1, 0));
        rig.fault(TupleKey::new(2, 0));
        assert_eq!(rig.probe.stats().state_swaps, 0);
        assert_eq!(rig.probe.stats().config_loads, 2);
        assert_eq!(rig.probe.stats().evictions, 1, "incompatible images evict as usual");
    }

    #[test]
    fn release_process_frees_pfus_and_tlbs() {
        let mut rig = setup(2, 4, DispatchMode::HardwareOnly, None);
        rig.fault(TupleKey::new(1, 0));
        rig.fault(TupleKey::new(2, 0));
        rig.cis.release_process(1, &mut rig.rfu);
        assert_eq!(rig.rfu.pfus().free_pfus().len(), 3);
        assert_eq!(rig.rfu.tlb_hw().lookup(TupleKey::new(1, 0)), None);
        assert!(rig.rfu.tlb_hw().lookup(TupleKey::new(2, 0)).is_some());
    }

    #[test]
    fn seu_corruption_is_repaired_in_place() {
        let mut rig = setup(1, 4, DispatchMode::HardwareOnly, None).with_watchdog();
        let key = TupleKey::new(1, 0);
        rig.fault(key);
        let pfu = rig.procs[&1].circuits[&0].loaded_at.expect("loaded");

        // An SEU corrupts the resident frames; the next issue hangs,
        // the watchdog trips, and the handler repairs in place.
        rig.rfu.pfus_mut().health_mut(pfu).config_corrupt = true;
        rig.trip(1);
        let (verdict, charged) = rig.fault(key);
        assert_eq!(verdict, FaultResolution::Reissue);
        assert!(charged > 13_000, "repair re-drives the full configuration: {charged}");
        assert_eq!(rig.probe.stats().pfu_faults, 1);
        assert_eq!(rig.probe.stats().crc_errors, 1, "readback attributed the trip to corruption");
        assert_eq!(rig.probe.stats().recovery_retries, 1);
        assert_eq!(rig.probe.stats().quarantines, 0);
        // Recovered: same slot, correct result.
        assert_eq!(rig.procs[&1].circuits[&0].loaded_at, Some(pfu));
        assert!(matches!(
            rig.rfu.exec_custom(1, 0, 2, 3, 0, 0, 100_000),
            CoprocResult::Done { value: 5, .. }
        ));
    }

    /// Rung 0 repairs a CRC-mismatch trip in place while the slot's
    /// allowance holds — the boundary retry count included — and a slot
    /// one re-drive beyond it takes a strike instead.
    #[test]
    fn seu_repair_honours_the_allowance_boundary() {
        let max = RecoveryPolicy::default().max_retries;
        for (retries, repaired) in [(max, true), (max + 1, false)] {
            let mut rig = setup(1, 4, DispatchMode::HardwareOnly, None).with_watchdog();
            let key = TupleKey::new(1, 0);
            rig.fault(key);
            let pfu = rig.procs[&1].circuits[&0].loaded_at.expect("loaded");
            let health = rig.rfu.pfus_mut().health_mut(pfu);
            health.config_corrupt = true;
            health.retries = retries;
            rig.trip(1);

            let (verdict, _) = rig.fault(key);
            let health = rig.rfu.pfus().health(pfu);
            assert_eq!(rig.probe.stats().crc_errors, 1, "retries={retries}");
            if repaired {
                assert_eq!(verdict, FaultResolution::Reissue);
                assert_eq!(rig.procs[&1].circuits[&0].loaded_at, Some(pfu), "same slot");
                assert_eq!(health.fault_count, 0, "a repair is no strike");
                assert_eq!(rig.probe.stats().recovery_retries, 1);
                assert!(!health.config_corrupt && health.retries == max + 1);
            } else {
                // No software alternative and no retries left: a strike,
                // then the ladder bottoms out.
                assert_eq!(verdict, FaultResolution::Kill);
                assert_eq!(health.fault_count, 1, "beyond the allowance: a strike");
                assert_eq!(rig.probe.stats().recovery_retries, 0);
            }
        }
    }

    #[test]
    fn stuck_done_escalates_to_quarantine_and_relocation() {
        let mut rig = setup(1, 4, DispatchMode::HardwareOnly, None).with_watchdog();
        rig.cis.recovery =
            RecoveryPolicy { max_retries: 1, software_failover: false, quarantine_threshold: Some(2) };
        let key = TupleKey::new(1, 0);
        rig.fault(key);
        let home = rig.procs[&1].circuits[&0].loaded_at.expect("loaded");
        rig.rfu.pfus_mut().health_mut(home).stuck_done = true;

        // Trip 1: the blind retry reconfigures the same (still stuck)
        // slot. Trip 2: strike two, quarantine and relocate.
        rig.trip(1);
        rig.fault(key);
        assert_eq!(rig.probe.stats().recovery_retries, 1);
        rig.trip(1);
        assert_eq!(rig.fault(key).0, FaultResolution::Reissue);

        assert_eq!(rig.probe.stats().quarantines, 1);
        assert!(rig.rfu.pfus().health(home).quarantined);
        let new_home = rig.procs[&1].circuits[&0].loaded_at.expect("relocated");
        assert_ne!(new_home, home, "circuit moved off the quarantined slot");
        assert!(!rig.rfu.pfus().available_pfus().contains(&home));
        // Degraded but correct: the instruction completes on the new
        // home.
        assert!(matches!(
            rig.rfu.exec_custom(1, 0, 2, 3, 0, 0, 100_000),
            CoprocResult::Done { value: 5, .. }
        ));
    }

    #[test]
    fn exhausted_retries_fail_over_to_software() {
        let mut rig = setup(1, 1, DispatchMode::HardwareOnly, Some(0x4000)).with_watchdog();
        rig.cis.recovery =
            RecoveryPolicy { max_retries: 0, software_failover: true, quarantine_threshold: None };
        let key = TupleKey::new(1, 0);
        rig.fault(key);
        rig.rfu.pfus_mut().health_mut(0).stuck_done = true;

        rig.trip(1);
        assert_eq!(rig.fault(key).0, FaultResolution::Reissue);
        assert_eq!(rig.probe.stats().fault_failovers, 1);
        assert_eq!(rig.probe.stats().recovery_retries, 0, "retry rung was disabled");
        assert!(rig.procs[&1].circuits[&0].soft_active);
        assert!(rig.rfu.pfus().free_pfus().contains(&0), "the abandoned slot was unloaded");
        // The reissue dispatches through TLB2 to the alternative.
        assert!(matches!(
            rig.rfu.exec_custom(1, 0, 2, 3, 0, 0x88, 100_000),
            CoprocResult::SoftwareDispatch { target: 0x4000, .. }
        ));
    }

    #[test]
    fn retry_only_policy_kills_on_persistent_fault() {
        let mut rig = setup(1, 1, DispatchMode::HardwareOnly, Some(0x4000)).with_watchdog();
        rig.cis.recovery = RecoveryPolicy::retry_only(1);
        let key = TupleKey::new(1, 0);
        rig.fault(key);
        rig.rfu.pfus_mut().health_mut(0).stuck_done = true;

        rig.trip(1);
        assert_eq!(rig.fault(key).0, FaultResolution::Reissue);
        rig.trip(1);
        // Retries exhausted, failover disabled: the ladder bottoms out.
        assert_eq!(rig.fault(key).0, FaultResolution::Kill);
    }

    /// Every resolution path books exactly its [`CostModel`] terms. The
    /// ledger is the charge's only source, so this pins each path's
    /// cost against the model instead of against a second tally.
    #[test]
    fn each_resolution_path_charges_its_cost_model_terms() {
        use DispatchMode::{HardwareOnly, SoftwareFallback};
        use FaultResolution::{Kill, Reissue};
        let c = CostModel::default();
        let reg = &proc_with_circuit(1, 0, None).circuits[&0];
        let (sb, sw) = (reg.static_bytes, reg.state_words);
        let detect = WATCHDOG + c.crc_check;
        // A resident circuit whose slot sticks `done` and trips once
        // under `recovery`; the pinned fault is the trip's.
        fn stuck(pfus: usize, sw: Option<u32>, recovery: RecoveryPolicy) -> (Rig, TupleKey) {
            let mut rig = setup(1, pfus, HardwareOnly, sw).with_watchdog();
            rig.cis.recovery = recovery;
            let key = TupleKey::new(1, 0);
            rig.fault(key);
            let home = rig.procs[&1].circuits[&0].loaded_at.expect("loaded");
            rig.rfu.pfus_mut().health_mut(home).stuck_done = true;
            rig.trip(1);
            (rig, key)
        }
        // Each arrangement leaves a rig one fault away from its path.
        type Arrange = fn() -> (Rig, TupleKey);
        let cases: [(&str, Arrange, FaultResolution, u64); 8] = [
            (
                "mapping repair",
                || {
                    let mut rig = setup(1, 4, HardwareOnly, None);
                    let key = TupleKey::new(1, 0);
                    rig.fault(key);
                    rig.rfu.tlb_hw_mut().invalidate(key);
                    (rig, key)
                },
                Reissue,
                c.fault_entry + c.tlb_program,
            ),
            (
                "soft-mapping repair",
                || {
                    let mut rig = setup(5, 4, SoftwareFallback, Some(0x4000));
                    for pid in 1..=5 {
                        rig.fault(TupleKey::new(pid, 0));
                    }
                    let key = TupleKey::new(5, 0);
                    assert!(rig.procs[&5].circuits[&0].soft_active);
                    rig.rfu.tlb_sw_mut().invalidate(key);
                    (rig, key)
                },
                Reissue,
                c.fault_entry + c.tlb_program,
            ),
            (
                "full load with eviction",
                || {
                    let mut rig = setup(5, 4, HardwareOnly, None);
                    for pid in 1..=4 {
                        rig.fault(TupleKey::new(pid, 0));
                    }
                    (rig, TupleKey::new(5, 0))
                },
                Reissue,
                c.fault_entry
                    + c.unload_cycles(sb, sw)
                    + c.full_load_cycles(sb, sw)
                    + c.tlb_program,
            ),
            (
                "sharing state swap",
                || {
                    let mut rig = sharing_rig([77, 77]);
                    rig.fault(TupleKey::new(1, 0));
                    (rig, TupleKey::new(2, 0))
                },
                Reissue,
                c.fault_entry + c.state_swap_cycles(sw) + c.tlb_program,
            ),
            (
                "SEU repair in place",
                || {
                    let mut rig = setup(1, 4, HardwareOnly, None).with_watchdog();
                    let key = TupleKey::new(1, 0);
                    rig.fault(key);
                    let home = rig.procs[&1].circuits[&0].loaded_at.expect("loaded");
                    rig.rfu.pfus_mut().health_mut(home).config_corrupt = true;
                    rig.trip(1);
                    (rig, key)
                },
                Reissue,
                c.fault_entry + detect + c.retry_load_cycles(sb, sw, 1),
            ),
            (
                "quarantine with relocation",
                || {
                    stuck(4, None, RecoveryPolicy {
                        max_retries: 0,
                        software_failover: false,
                        quarantine_threshold: Some(1),
                    })
                },
                Reissue,
                c.fault_entry
                    + detect
                    + c.unload_cycles(sb, sw)
                    + c.full_load_cycles(sb, sw)
                    + c.tlb_program,
            ),
            (
                "software failover",
                || {
                    stuck(1, Some(0x4000), RecoveryPolicy {
                        max_retries: 0,
                        software_failover: true,
                        quarantine_threshold: None,
                    })
                },
                Reissue,
                c.fault_entry + detect + c.unload_cycles(sb, sw) + c.tlb_program,
            ),
            (
                "kill after detection",
                || stuck(1, Some(0x4000), RecoveryPolicy::retry_only(0)),
                Kill,
                c.fault_entry + detect,
            ),
        ];
        for (path, arrange, verdict, charge) in cases {
            let (mut rig, key) = arrange();
            assert_eq!(rig.fault(key), (verdict, charge), "{path}");
        }
    }

    /// A scrub pass CRC-reads every resident slot and re-drives the
    /// corrupt ones still within their reconfiguration allowance — the
    /// boundary retry count included — leaving those beyond it corrupt.
    /// Each step advances the context's clock by exactly its
    /// [`CostModel`] term, and each event is stamped where its step ends
    /// (a check) or starts (a repair).
    #[test]
    fn scrub_repairs_within_the_allowance_and_stamps_each_step() {
        let mut rig = setup(3, 3, DispatchMode::HardwareOnly, None);
        for pid in 1..=3 {
            rig.fault(TupleKey::new(pid, 0));
        }
        let home = |rig: &Rig, pid: Pid| rig.procs[&pid].circuits[&0].loaded_at.expect("loaded");
        let (clean, within, beyond) = (home(&rig, 1), home(&rig, 2), home(&rig, 3));
        let max = rig.cis.recovery.max_retries;
        for (pfu, retries) in [(within, max), (beyond, max + 1)] {
            let health = rig.rfu.pfus_mut().health_mut(pfu);
            health.config_corrupt = true;
            health.retries = retries;
        }
        let c = CostModel::default();
        let reg = &rig.procs[&2].circuits[&0];
        let (sb, sw) = (reg.static_bytes, reg.state_words);
        let repair = c.retry_load_cycles(sb, sw, max + 1);

        let t0 = 1_000;
        let (ledger_before, seen) = (rig.probe.ledger().total(), rig.probe.trace().len());
        let (cis, mut cx) = rig.cx(t0);
        cis.scrub(&mut cx);
        let end = cx.at;

        let crc = c.crc_check;
        assert_eq!(end - t0, 3 * crc + repair, "three checks and one repair");
        assert_eq!(rig.probe.ledger().total() - ledger_before, end - t0, "the ledger books it all");
        let tag = |pid| Tag::new(pid, Callsite::Scrub);
        let check = |pfu, corrupt| Event::ScrubCheck { pfu, corrupt, cost: crc };
        let retry = Event::RecoveryRetry {
            key: TupleKey::new(2, 0),
            pfu: within,
            attempt: max + 1,
            words: CostModel::full_words(sb, sw),
            cost: repair,
        };
        let expected = [
            (t0 + crc, tag(1), check(clean, false)),
            (t0 + 2 * crc, tag(2), check(within, true)),
            (t0 + 2 * crc, tag(2), retry),
            (t0 + 3 * crc + repair, tag(3), check(beyond, true)),
        ];
        assert_eq!(rig.probe.trace().snapshot()[seen..], expected);
        assert!(!rig.rfu.pfus().health(within).config_corrupt, "re-driven frames are clean");
        let left = rig.rfu.pfus().health(beyond);
        assert!(left.config_corrupt && left.retries == max + 1, "beyond the allowance: untouched");
    }

    #[test]
    fn eviction_preserves_mid_instruction_state() {
        // One PFU, two processes with multi-cycle circuits: process 1's
        // instruction is interrupted, evicted, reloaded, and must resume
        // where it stopped.
        let procs = (1..=2u32).map(|pid| {
            let mut p = proc_with_circuit(pid, 0, None);
            p.circuits.insert(
                0,
                Registered::new(Box::new(FixedLatency::new("slow", 10, 4, |a, b| a + b)), None),
            );
            p
        });
        let mut rig = Rig::new(Cis::new(1, &KernelConfig::default()), 1, procs);

        rig.fault(TupleKey::new(1, 0));
        // Run 4 of 10 cycles, then get interrupted.
        assert!(matches!(
            rig.rfu.exec_custom(1, 0, 20, 22, 0, 0, 4),
            CoprocResult::Interrupted { cycles: 4 }
        ));
        // Process 2 steals the PFU.
        rig.fault(TupleKey::new(2, 0));
        assert!(matches!(
            rig.rfu.exec_custom(2, 0, 1, 1, 0, 0, 1000),
            CoprocResult::Done { value: 2, .. }
        ));
        // Process 1 faults (its mapping is gone), gets reloaded, and the
        // reissued instruction needs only the remaining 6 cycles.
        assert!(matches!(rig.rfu.exec_custom(1, 0, 20, 22, 0, 0, 1000), CoprocResult::Fault));
        rig.fault(TupleKey::new(1, 0));
        assert!(matches!(
            rig.rfu.exec_custom(1, 0, 20, 22, 0, 0, 1000),
            CoprocResult::Done { value: 42, cycles: 6 }
        ));
    }
}
