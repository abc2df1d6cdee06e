//! The kernel's explicit cycle-cost model.
//!
//! The paper's results hinge on *relative* costs: a 54 KB configuration
//! load vs. a 10 ms or 1 ms scheduling quantum vs. a handful of cycles
//! per accelerated instruction. All of those knobs live here, with
//! defaults documented in DESIGN.md §5.

/// Cycle costs charged by kernel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Full context switch (register save/restore, scheduler bookkeeping,
    /// RFU register file + operand block preservation).
    pub context_switch: u64,
    /// Timer tick that returns to the same process (no switch needed).
    pub timer_tick: u64,
    /// Entering + leaving the custom-instruction fault handler.
    pub fault_entry: u64,
    /// Programming one dispatch-TLB entry.
    pub tlb_program: u64,
    /// Cycles to move one 32-bit word over the configuration bus.
    pub config_word_transfer: u64,
    /// Fixed controller overhead per (partial or full) configuration
    /// operation.
    pub config_overhead: u64,
    /// When true the kernel ignores the split-configuration design of
    /// §4.1 and also writes back the *full* static configuration when a
    /// circuit is swapped out (ablation A4); the default `false` saves
    /// only the state frames.
    pub save_full_config_on_unload: bool,
    /// System-call entry/exit.
    pub syscall: u64,
    /// CRC readback of one resident configuration (scrub, load
    /// verification, or post-watchdog diagnosis): the controller streams
    /// the frames back and compares per-frame CRCs.
    pub crc_check: u64,
    /// Extra delay added per successive recovery retry on the same slot
    /// (linear backoff: attempt `n` waits `n * retry_backoff` cycles
    /// before re-driving the bus).
    pub retry_backoff: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            context_switch: 220,
            timer_tick: 60,
            fault_entry: 120,
            tlb_program: 12,
            config_word_transfer: 1,
            config_overhead: 64,
            save_full_config_on_unload: false,
            syscall: 40,
            crc_check: 160,
            retry_backoff: 500,
        }
    }
}

impl CostModel {
    /// Words in a full configuration transfer: the static frames of
    /// `static_bytes` plus `state_words` of state.
    pub fn full_words(static_bytes: usize, state_words: usize) -> u64 {
        (static_bytes as u64).div_ceil(4) + state_words as u64
    }

    /// Cycles to load a full configuration of `static_bytes` plus
    /// `state_words` of initial state.
    pub fn full_load_cycles(&self, static_bytes: usize, state_words: usize) -> u64 {
        let words = Self::full_words(static_bytes, state_words);
        self.config_overhead + words * self.config_word_transfer
    }

    /// Cycles for recovery reconfiguration attempt `attempt` (1-based):
    /// a full load plus linear backoff.
    pub fn retry_load_cycles(&self, static_bytes: usize, state_words: usize, attempt: u32) -> u64 {
        self.full_load_cycles(static_bytes, state_words) + u64::from(attempt) * self.retry_backoff
    }

    /// Cycles to hand a shared configuration between processes: save one
    /// state-frame set, load another (§4.2 sharing — "just changing the
    /// state in a single PFU").
    pub fn state_swap_cycles(&self, state_words: usize) -> u64 {
        self.config_overhead + 2 * state_words as u64 * self.config_word_transfer
    }

    /// Words written back when a circuit is swapped out: state frames
    /// only (or the full configuration under the A4 ablation).
    pub fn unload_words(&self, static_bytes: usize, state_words: usize) -> u64 {
        if self.save_full_config_on_unload {
            Self::full_words(static_bytes, state_words)
        } else {
            state_words as u64
        }
    }

    /// Cycles to save a swapped-out circuit's context.
    pub fn unload_cycles(&self, static_bytes: usize, state_words: usize) -> u64 {
        let words = self.unload_words(static_bytes, state_words);
        self.config_overhead + words * self.config_word_transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_load_of_a_pfu_is_around_13k_cycles() {
        let c = CostModel::default();
        // 54 000 bytes = 13 500 words, + 16 state words + overhead.
        let cycles = c.full_load_cycles(54_000, 16);
        assert_eq!(cycles, 64 + 13_500 + 16);
    }

    #[test]
    fn split_configuration_makes_unload_cheap() {
        let c = CostModel::default();
        let split = c.unload_cycles(54_000, 16);
        let naive = CostModel { save_full_config_on_unload: true, ..c }.unload_cycles(54_000, 16);
        assert!(split < 100);
        assert!(naive > 13_000);
    }
}
