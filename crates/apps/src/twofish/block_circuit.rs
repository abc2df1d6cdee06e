//! The Twofish block-encryption custom instruction.
//!
//! The paper gives Twofish a *single* custom instruction. Accelerating
//! only the g function leaves the Feistel scaffolding in software and
//! caps the speedup near 2× (Amdahl), so the circuit here implements the
//! whole block path — key schedule baked into the configuration, one
//! round per clock — fed through the 2-in/1-out PFU interface with a
//! small phase machine:
//!
//! | invocation | operands  | latency | result |
//! |-----------:|-----------|--------:|--------|
//! | 1          | `w0`,`w1` | 1       | 0 (absorb) |
//! | 2          | `w2`,`w3` | 20      | `ct0` (whiten + 16 rounds + whiten) |
//! | 3–5        | ignored   | 1       | `ct1`–`ct3` |
//!
//! The internal state (plaintext/ciphertext registers + phase counter)
//! is exactly what the state frames carry when the OS swaps the circuit,
//! so an instance interrupted mid-block survives eviction.

use proteus_fabric::FabricError;
use proteus_rfu::circuit::{CircuitClock, CircuitState, PfuCircuit};

use super::cipher::Twofish;

/// Rounds-plus-whitening latency of the encrypting invocation.
pub const ENCRYPT_LATENCY: u32 = 20;

/// The phase-machine block cipher circuit.
#[derive(Debug, Clone)]
pub struct BlockCircuit {
    tf: Twofish,
    phase: u32,
    elapsed: u32,
    latched: (u32, u32),
    w: [u32; 4],
    ct: [u32; 4],
}

impl BlockCircuit {
    /// A circuit with `key` baked into its configuration.
    pub fn new(key: &[u8; 16]) -> Self {
        Twofish::new(key).into()
    }

    fn latency(&self) -> u32 {
        if self.phase == 1 {
            ENCRYPT_LATENCY
        } else {
            1
        }
    }

    /// The clock on which the current invocation raises `done`: consume
    /// the latched operands, advance the phase and return the result.
    fn complete(&mut self) -> u32 {
        let (a, b) = self.latched;
        let (result, next_phase) = match self.phase {
            0 => {
                self.w[0] = a;
                self.w[1] = b;
                (0, 1)
            }
            1 => {
                self.w[2] = a;
                self.w[3] = b;
                let mut block = [0u8; 16];
                for (i, w) in self.w.iter().enumerate() {
                    block[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
                }
                let ct = self.tf.encrypt_block(&block);
                for (i, c) in ct.chunks_exact(4).enumerate() {
                    self.ct[i] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
                (self.ct[0], 2)
            }
            p => {
                let idx = (p - 1) as usize;
                (self.ct[idx], if p == 4 { 0 } else { p + 1 })
            }
        };
        self.phase = next_phase;
        result
    }
}

impl From<Twofish> for BlockCircuit {
    /// A circuit baking in an already expanded key.
    fn from(tf: Twofish) -> Self {
        Self { tf, phase: 0, elapsed: 0, latched: (0, 0), w: [0; 4], ct: [0; 4] }
    }
}

impl PfuCircuit for BlockCircuit {
    fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
        if init {
            self.elapsed = 0;
            self.latched = (op_a, op_b);
        }
        self.elapsed += 1;
        if self.elapsed < self.latency() {
            return CircuitClock { result: 0, done: false };
        }
        self.elapsed = 0;
        CircuitClock { result: self.complete(), done: true }
    }

    fn run_clocks(&mut self, op_a: u32, op_b: u32, init: bool, budget: u64) -> (u64, Option<u32>) {
        // Same as clocking one cycle at a time, without the loop: no
        // clock runs (and nothing latches) on a zero budget, and `done`
        // rises on the clock where `elapsed` reaches the phase latency.
        if budget == 0 {
            return (0, None);
        }
        if init {
            self.elapsed = 0;
            self.latched = (op_a, op_b);
        }
        let remaining = u64::from(self.latency().saturating_sub(self.elapsed)).max(1);
        if remaining <= budget {
            self.elapsed = 0;
            (remaining, Some(self.complete()))
        } else {
            self.elapsed += budget as u32;
            (budget, None)
        }
    }

    fn save_state(&self) -> CircuitState {
        let mut words = vec![0u32; 12];
        words[0] = self.phase;
        words[1] = self.elapsed;
        words[2] = self.latched.0;
        words[3] = self.latched.1;
        words[4..8].copy_from_slice(&self.w);
        words[8..12].copy_from_slice(&self.ct);
        CircuitState(words)
    }

    fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
        if state.0.len() < 12 {
            return Err(FabricError::StateMismatch {
                detail: format!("twofish block circuit needs 12 state words, got {}", state.0.len()),
            });
        }
        self.phase = state.0[0];
        self.elapsed = state.0[1];
        self.latched = (state.0[2], state.0[3]);
        self.w.copy_from_slice(&state.0[4..8]);
        self.ct.copy_from_slice(&state.0[8..12]);
        Ok(())
    }

    fn state_words(&self) -> usize {
        12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_instr(c: &mut BlockCircuit, a: u32, b: u32) -> (u32, u32) {
        let mut init = true;
        let mut cycles = 0;
        loop {
            let out = c.clock(a, b, init);
            init = false;
            cycles += 1;
            if out.done {
                return (out.result, cycles);
            }
        }
    }

    #[test]
    fn five_invocations_encrypt_a_block() {
        let key = [0u8; 16];
        let mut c = BlockCircuit::new(&key);
        let tf = Twofish::new(&key);
        let pt = [0u32; 4];
        let ct_ref = tf.encrypt_block(&[0u8; 16]);
        let ct_words: Vec<u32> =
            ct_ref.chunks_exact(4).map(|x| u32::from_le_bytes([x[0], x[1], x[2], x[3]])).collect();

        let (r0, c0) = run_instr(&mut c, pt[0], pt[1]);
        assert_eq!((r0, c0), (0, 1));
        let (ct0, c1) = run_instr(&mut c, pt[2], pt[3]);
        assert_eq!(c1, ENCRYPT_LATENCY);
        assert_eq!(ct0, ct_words[0]);
        for expected in &ct_words[1..] {
            let (r, cyc) = run_instr(&mut c, 0, 0);
            assert_eq!(cyc, 1);
            assert_eq!(r, *expected);
        }
        // Phase machine wrapped: the next block starts cleanly.
        let (r, _) = run_instr(&mut c, pt[0], pt[1]);
        assert_eq!(r, 0);
    }

    /// The same circuit without the override: the trait's default
    /// `run_clocks` loop over `clock`.
    #[derive(Debug)]
    struct Stepped(BlockCircuit);

    impl PfuCircuit for Stepped {
        fn clock(&mut self, op_a: u32, op_b: u32, init: bool) -> CircuitClock {
            self.0.clock(op_a, op_b, init)
        }

        fn save_state(&self) -> CircuitState {
            self.0.save_state()
        }

        fn load_state(&mut self, state: &CircuitState) -> Result<(), FabricError> {
            self.0.load_state(state)
        }
    }

    #[test]
    fn run_clocks_fast_forward_matches_the_clock_loop() {
        let key = *b"fast-forward-key";
        let (a, b) = (0x0123_4567, 0x89AB_CDEF);
        for phase in 0..5u32 {
            for budget in 0..=21u64 {
                // Bring both to `phase` by whole invocations.
                let mut fast = BlockCircuit::new(&key);
                let mut slow = Stepped(BlockCircuit::new(&key));
                for p in 0..phase {
                    assert_eq!(fast.run_clocks(p, !p, true, 64), slow.run_clocks(p, !p, true, 64));
                }
                let got = fast.run_clocks(a, b, true, budget);
                assert_eq!(got, slow.run_clocks(a, b, true, budget), "phase {phase} budget {budget}");
                assert_eq!(fast.save_state(), slow.save_state(), "phase {phase} budget {budget}");
                if got.1.is_some() {
                    continue;
                }
                // Interrupted: swap out into fresh instances, then resume
                // with init low under every budget.
                for resume in 1..=21u64 {
                    let mut f = BlockCircuit::new(&key);
                    f.load_state(&fast.save_state()).expect("restore");
                    let mut s = Stepped(BlockCircuit::new(&key));
                    s.load_state(&slow.save_state()).expect("restore");
                    let out = f.run_clocks(a, b, false, resume);
                    let at = format!("phase {phase} budget {budget} resume {resume}");
                    assert_eq!(out, s.run_clocks(a, b, false, resume), "{at}");
                    assert_eq!(f.save_state(), s.save_state(), "{at}");
                    if out.1.is_some() {
                        let latency = if phase == 1 { ENCRYPT_LATENCY } else { 1 };
                        assert_eq!(budget + out.0, u64::from(latency), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn interrupted_encryption_survives_swap() {
        let key = *b"interrupt-key-00";
        let mut c = BlockCircuit::new(&key);
        run_instr(&mut c, 0x1111, 0x2222);
        // Start the 20-cycle encrypting invocation, stop after 7 clocks.
        let mut init = true;
        for _ in 0..7 {
            let out = c.clock(0x3333, 0x4444, init);
            init = false;
            assert!(!out.done);
        }
        let saved = c.save_state();
        // Swap out / in: fresh instance of the same configuration.
        let mut c2 = BlockCircuit::new(&key);
        c2.load_state(&saved).expect("restore");
        // Resume with init low; completes after the remaining 13 clocks.
        let mut cycles = 0;
        let ct0 = loop {
            let out = c2.clock(0x3333, 0x4444, false);
            cycles += 1;
            if out.done {
                break out.result;
            }
        };
        assert_eq!(cycles, 13);
        // Matches an uninterrupted run.
        let mut c3 = BlockCircuit::new(&key);
        run_instr(&mut c3, 0x1111, 0x2222);
        let (expect, _) = run_instr(&mut c3, 0x3333, 0x4444);
        assert_eq!(ct0, expect);
    }
}
