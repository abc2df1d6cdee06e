//! Flat byte-addressable memory.
//!
//! Each guest process owns one [`Memory`] — the substitution for the
//! workstation's virtual memory (see DESIGN.md). Word accesses must be
//! aligned, as on ARM7.

use std::error::Error;
use std::fmt;

use proteus_isa::{decode, Program};

use crate::lower::{lower, Op};

/// Words of low memory covered by the instruction-decode cache (1 MiB of
/// program text — guest code lives at low addresses by convention).
const ICACHE_WORDS: usize = 1 << 18;

// One cache entry per word of program text: keep it at 16 bytes.
const _: () = assert!(std::mem::size_of::<Option<Op>>() <= 16);

/// Memory access failure. The CPU turns these into a data-abort stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address past the end of memory.
    OutOfRange {
        /// Faulting address.
        addr: u32,
        /// Memory size in bytes.
        size: u32,
    },
    /// Misaligned word access.
    Unaligned {
        /// Faulting address.
        addr: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, size } => {
                write!(f, "address {addr:#010x} outside {size}-byte memory")
            }
            MemError::Unaligned { addr } => write!(f, "unaligned word access at {addr:#010x}"),
        }
    }
}

impl Error for MemError {}

/// A private, flat address space.
///
/// Carries a decode cache over low memory so the interpreter does not
/// re-decode hot loops on every iteration. Each entry holds the word's
/// lowered micro-op (see the crate-private `lower` module); any store
/// into a cached word invalidates its entry, so self-modifying code is
/// re-lowered.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    icache: Vec<Option<Op>>,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Memory {}

impl Memory {
    /// Allocate `size` zeroed bytes.
    ///
    /// The decode cache starts empty and grows on demand up to
    /// [`ICACHE_WORDS`] entries: zeroing megabytes of cache up front
    /// dominates short-lived instances (benchmarks, small scenario
    /// jobs), while real programs only ever touch the low words.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 4.
    pub fn new(size: u32) -> Self {
        assert!(size.is_multiple_of(4), "memory size must be word-aligned");
        Self { bytes: vec![0; size as usize], icache: Vec::new() }
    }

    /// Highest word index the decode cache may grow to cover.
    #[inline]
    fn cache_limit(&self) -> usize {
        (self.bytes.len() / 4).min(ICACHE_WORDS)
    }

    /// Fetch the instruction at `addr` through the decode cache: the
    /// raw word, and its lowered form unless it does not decode.
    ///
    /// The miss path of the interpreter (see [`Memory::cached_op`]): a
    /// decodable word in low memory is decoded and [`lower`]ed once and
    /// cached until a store overwrites it.
    ///
    /// # Errors
    ///
    /// Propagates the word read error.
    #[cold]
    pub(crate) fn fetch_op(&mut self, addr: u32) -> Result<(u32, Option<Op>), MemError> {
        let word = self.read_word(addr)?;
        if let Some(op) = self.cached_op(addr) {
            return Ok((word, Some(op)));
        }
        let Ok(instr) = decode(word) else {
            return Ok((word, None));
        };
        let op = lower(instr, addr);
        let idx = (addr / 4) as usize;
        if idx < self.cache_limit() {
            if idx >= self.icache.len() {
                self.icache.resize(idx + 1, None);
            }
            self.icache[idx] = Some(op);
        }
        Ok((word, Some(op)))
    }

    /// Decode-cache lookup alone: the infallible fast lane the
    /// interpreter hot loop uses before falling back to
    /// [`Memory::fetch_op`]. Hits only on aligned, previously lowered
    /// words, so callers can skip all error handling.
    #[inline(always)]
    pub(crate) fn cached_op(&self, addr: u32) -> Option<Op> {
        if addr.is_multiple_of(4) {
            if let Some(&Some(op)) = self.icache.get((addr / 4) as usize) {
                return Some(op);
            }
        }
        None
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline(always)]
    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let end = addr.checked_add(len).filter(|&e| e <= self.size());
        match end {
            Some(_) => Ok(addr as usize),
            None => Err(MemError::OutOfRange { addr, size: self.size() }),
        }
    }

    /// Read an aligned word.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] or [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Unaligned { addr });
        }
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([self.bytes[i], self.bytes[i + 1], self.bytes[i + 2], self.bytes[i + 3]]))
    }

    /// Write an aligned word.
    ///
    /// # Errors
    ///
    /// [`MemError::Unaligned`] or [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Unaligned { addr });
        }
        let i = self.check(addr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        if let Some(slot) = self.icache.get_mut(i / 4) {
            *slot = None;
        }
        Ok(())
    }

    /// Read a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn read_byte(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Write a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = value;
        if let Some(slot) = self.icache.get_mut(i / 4) {
            *slot = None;
        }
        Ok(())
    }

    /// Copy a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, data.len() as u32)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        for w in i / 4..(i + data.len()).div_ceil(4) {
            if let Some(slot) = self.icache.get_mut(w) {
                *slot = None;
            }
        }
        Ok(())
    }

    /// Read `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let i = self.check(addr, len)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Load an assembled [`Program`] at its origin address.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the program does not fit.
    pub fn load_program(&mut self, program: &Program) -> Result<(), MemError> {
        let mut addr = program.origin();
        for &w in program.words() {
            self.write_word(addr, w)?;
            addr += 4;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut m = Memory::new(64);
        m.write_word(8, 0xDEAD_BEEF).expect("write");
        assert_eq!(m.read_word(8).expect("read"), 0xDEAD_BEEF);
        assert_eq!(m.read_byte(8).expect("byte"), 0xEF, "little endian");
    }

    #[test]
    fn alignment_enforced() {
        let m = Memory::new(64);
        assert!(matches!(m.read_word(2), Err(MemError::Unaligned { addr: 2 })));
    }

    #[test]
    fn bounds_enforced() {
        let mut m = Memory::new(8);
        assert!(m.read_word(8).is_err());
        assert!(m.write_word(u32::MAX - 2, 0).is_err());
        assert!(m.write_bytes(6, &[1, 2, 3]).is_err());
    }

    #[test]
    fn fetch_returns_raw_word_on_cache_hit() {
        let p = proteus_isa::assemble("mov r0, #1\n").expect("asm");
        let mut m = Memory::new(1024);
        m.load_program(&p).expect("load");
        let word = m.read_word(0).expect("read");
        assert_ne!(word, 0);
        assert_eq!(m.cached_op(0), None, "lowering is lazy");
        let (miss_word, miss_op) = m.fetch_op(0).expect("miss fetch");
        let (hit_word, hit_op) = m.fetch_op(0).expect("hit fetch");
        assert_eq!(miss_word, word);
        assert_eq!(hit_word, word, "cache hit must report the true encoding");
        assert_eq!(miss_op, hit_op);
        assert_eq!(m.cached_op(0), Some(miss_op.expect("decodes")));
        // Stores invalidate; unaligned and uncached addresses miss.
        m.write_word(0, word).expect("write");
        assert_eq!(m.cached_op(0), None);
        assert_eq!(m.cached_op(2), None);
    }

    #[test]
    fn program_loads_at_origin() {
        let p = proteus_isa::assemble(".org 0x100\n mov r0, #1\n").expect("asm");
        let mut m = Memory::new(0x200);
        m.load_program(&p).expect("load");
        assert_ne!(m.read_word(0x100).expect("read"), 0);
        assert_eq!(m.read_word(0).expect("read"), 0);
    }
}
