//! Workload bundles ready to spawn into a POrSCHE kernel.

use porsche::kernel::SpawnSpec;
use porsche::process::CircuitSpec;

use crate::guest::{
    alpha_accelerated, alpha_software, echo_accelerated, echo_software, twofish_accelerated,
    twofish_software, BuiltProgram,
};
use crate::twofish::{BlockCircuit, Twofish};
use crate::{alpha, echo};

/// The key every Twofish workload instance uses (the circuit is
/// key-specialised, like a key-baked bitstream).
pub const TWOFISH_KEY: [u8; 16] = *b"ProteusDATE2003!";

/// Configuration-image identities of the workload circuits (equal image
/// = identical static configuration = shareable under §4.2 sharing).
pub mod image {
    /// The alpha pixel-blend configuration.
    pub const ALPHA_BLEND: u64 = 0x0A1F_A001;
    /// The echo gain-scale configuration.
    pub const ECHO_SCALE: u64 = 0x0EC0_0001;
    /// The echo saturating-add configuration.
    pub const ECHO_SAT_ADD: u64 = 0x0EC0_0002;
    /// The Twofish block configuration specialised to [`super::TWOFISH_KEY`].
    pub const TWOFISH_BLOCK: u64 = 0x07F1_5400;
}

/// Which of the paper's three applications to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Alpha blending (1 custom instruction).
    Alpha,
    /// Twofish encryption (1 custom instruction).
    Twofish,
    /// Audio echo (2 custom instructions in a tight loop).
    Echo,
}

impl AppKind {
    /// All three applications.
    pub const ALL: [AppKind; 3] = [AppKind::Alpha, AppKind::Twofish, AppKind::Echo];

    /// Series label.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Alpha => "alpha",
            AppKind::Twofish => "twofish",
            AppKind::Echo => "echo",
        }
    }

    /// How many custom instructions the accelerated form registers.
    pub fn circuit_count(self) -> usize {
        match self {
            AppKind::Echo => 2,
            _ => 1,
        }
    }
}

/// Parameters for building one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Application.
    pub kind: AppKind,
    /// Use custom instructions (`false` = pure-software baseline).
    pub accelerated: bool,
    /// Work units per pass: pixels (alpha), samples (echo) or 16-byte
    /// blocks (twofish).
    pub size: usize,
    /// Passes over the data.
    pub passes: u32,
    /// Data seed.
    pub seed: u32,
}

impl WorkloadConfig {
    /// An accelerated workload with the given size and passes.
    pub fn new(kind: AppKind, size: usize, passes: u32) -> Self {
        Self { kind, accelerated: true, size, passes, seed: 0xC0FF_EE01 }
    }

    /// Switch to the pure-software variant.
    pub fn software(mut self) -> Self {
        self.accelerated = false;
        self
    }
}

/// A built workload: assembled program, expected checksum, and a circuit
/// factory (each spawned instance gets fresh circuit instances, since
/// circuit state is per-process).
#[derive(Debug)]
pub struct WorkloadSpec {
    config: WorkloadConfig,
    built: BuiltProgram,
    /// The keyed Twofish circuit every accelerated instance clones, so
    /// the key is expanded once per spec rather than once per spawn.
    twofish: Option<BlockCircuit>,
}

impl WorkloadSpec {
    /// Assemble the guest program and compute the ground truth.
    pub fn build(config: WorkloadConfig) -> Self {
        let mut twofish = None;
        let built = match (config.kind, config.accelerated) {
            (AppKind::Alpha, true) => alpha_accelerated(config.size, config.passes, config.seed),
            (AppKind::Alpha, false) => alpha_software(config.size, config.passes, config.seed),
            (AppKind::Echo, true) => {
                echo_accelerated(config.size, config.passes, config.size / 8 + 1, 0x80, config.seed)
            }
            (AppKind::Echo, false) => {
                echo_software(config.size, config.passes, config.size / 8 + 1, 0x80, config.seed)
            }
            // One key expansion per spec: the guest's data, its checksum
            // and every instance's circuit share the keyed cipher.
            (AppKind::Twofish, true) => {
                let tf = Twofish::new(&TWOFISH_KEY);
                let built = twofish_accelerated(config.size, config.passes, &tf, config.seed);
                twofish = Some(BlockCircuit::from(tf));
                built
            }
            (AppKind::Twofish, false) => {
                twofish_software(config.size, config.passes, &Twofish::new(&TWOFISH_KEY), config.seed)
            }
        };
        Self { config, built, twofish }
    }

    /// The build parameters.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The checksum every instance must exit with.
    pub fn expected_checksum(&self) -> u32 {
        self.built.expected_checksum
    }

    /// The assembled program.
    pub fn program(&self) -> &proteus_isa::Program {
        &self.built.program
    }

    /// Fresh circuit registrations for one process instance.
    /// `with_software_alt` controls whether the §4.3 software
    /// alternatives are registered alongside the hardware.
    pub fn circuits(&self, with_software_alt: bool) -> Vec<CircuitSpec> {
        if !self.config.accelerated {
            return Vec::new();
        }
        let sym = |name: &str| {
            let addr = self.built.program.symbol(name);
            debug_assert!(addr.is_some(), "missing software-alternative symbol {name}");
            addr
        };
        match self.config.kind {
            AppKind::Alpha => vec![CircuitSpec {
                cid: 0,
                circuit: alpha::blend_circuit(),
                software_alt: with_software_alt.then(|| sym("sw_blend")).flatten(),
                image: Some(image::ALPHA_BLEND),
            }],
            AppKind::Echo => vec![
                CircuitSpec {
                    cid: 0,
                    circuit: echo::scale_circuit(),
                    software_alt: with_software_alt.then(|| sym("sw_scale")).flatten(),
                    image: Some(image::ECHO_SCALE),
                },
                CircuitSpec {
                    cid: 1,
                    circuit: echo::sat_add_circuit(),
                    software_alt: with_software_alt.then(|| sym("sw_satadd")).flatten(),
                    image: Some(image::ECHO_SAT_ADD),
                },
            ],
            AppKind::Twofish => vec![CircuitSpec {
                cid: 0,
                circuit: Box::new(self.twofish.clone().expect("accelerated twofish holds its circuit")),
                software_alt: with_software_alt.then(|| sym("sw_tf")).flatten(),
                // Key-specialised bitstream: shareable only among users
                // of the same key, which all workload instances are.
                image: Some(image::TWOFISH_BLOCK),
            }],
        }
    }

    /// A ready-to-spawn [`SpawnSpec`] for one instance.
    pub fn spawn_spec(&self, with_software_alt: bool) -> SpawnSpec {
        let entry = self.built.program.symbol("start").expect("guest programs define start");
        let mut spec = SpawnSpec::new(&self.built.program).entry(entry);
        for c in self.circuits(with_software_alt) {
            spec = spec.circuit(c);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use proteus_rfu::circuit::PfuCircuit;

    use super::*;

    #[test]
    fn workload_specs_build_for_all_kinds_and_variants() {
        for kind in AppKind::ALL {
            for accelerated in [true, false] {
                let mut cfg = WorkloadConfig::new(kind, 16, 1);
                if !accelerated {
                    cfg = cfg.software();
                }
                let spec = WorkloadSpec::build(cfg);
                let expected_circuits = if accelerated { kind.circuit_count() } else { 0 };
                assert_eq!(spec.circuits(true).len(), expected_circuits, "{kind:?}");
                let _ = spec.spawn_spec(true);
            }
        }
    }

    #[test]
    fn cloned_twofish_circuit_encrypts_like_a_fresh_one() {
        let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Twofish, 1, 1));
        let block = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
        let encrypt = |c: &mut dyn PfuCircuit| {
            let mut out = vec![c.run_clocks(block[0], block[1], true, 64)];
            out.push(c.run_clocks(block[2], block[3], true, 64));
            out.extend((0..3).map(|_| c.run_clocks(0, 0, true, 64)));
            out
        };
        let want = encrypt(&mut BlockCircuit::new(&TWOFISH_KEY));
        // Two instances in turn: running one leaves the spec's copy pristine.
        for _ in 0..2 {
            let mut circuits = spec.circuits(false);
            assert_eq!(encrypt(circuits[0].circuit.as_mut()), want);
        }
    }

    #[test]
    fn software_alt_toggle_controls_registration() {
        let spec = WorkloadSpec::build(WorkloadConfig::new(AppKind::Alpha, 16, 1));
        assert!(spec.circuits(true)[0].software_alt.is_some());
        assert!(spec.circuits(false)[0].software_alt.is_none());
    }
}
