//! Demand-zero paged memory.
//!
//! Each guest process owns one [`Memory`] — the substitution for the
//! workstation's virtual memory (see DESIGN.md). Like a real OS's
//! demand-zero pages, a page costs nothing until the process first
//! writes to it, so a 1 MiB address space whose guest touches only its
//! program image and a few stack words pays for those pages alone.
//! Word accesses must be aligned, as on ARM7.

use std::error::Error;
use std::fmt;

use proteus_isa::{decode, Program};

use crate::lower::{lower, Op};

/// Words of low memory covered by the instruction-decode cache (1 MiB of
/// program text — guest code lives at low addresses by convention).
const ICACHE_WORDS: usize = 1 << 18;

// One cache entry per word of program text: keep it at 16 bytes.
const _: () = assert!(std::mem::size_of::<Option<Op>>() <= 16);

/// log2 of the page size.
const PAGE_SHIFT: u32 = 12;
/// Bytes per page: a multiple of 4, so an aligned word never spans two.
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

type Page = [u8; PAGE_SIZE];

/// What every page reads as before its first write.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

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

/// A private address space of demand-zero pages.
///
/// A page is allocated on its first write; until then it reads as zero
/// through one shared static page. `PartialEq` compares contents, so an
/// unallocated page equals a written page of zeros.
///
/// Carries a decode cache over low memory so the interpreter does not
/// re-decode hot loops on every iteration. Each entry holds the word's
/// lowered micro-op (see the crate-private `lower` module); any store
/// into a cached word invalidates its entry, so self-modifying code is
/// re-lowered.
#[derive(Debug, Clone)]
pub struct Memory {
    size: u32,
    pages: Vec<Option<Box<Page>>>,
    icache: Vec<Option<Op>>,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.size == other.size && (0..self.pages.len()).all(|i| self.page(i) == other.page(i))
    }
}

impl Eq for Memory {}

impl Memory {
    /// Allocate a `size`-byte address space that reads as zero.
    ///
    /// Only the page table is allocated here; each page is allocated and
    /// zeroed on its first write. The decode cache likewise starts empty
    /// and grows on demand up to `ICACHE_WORDS` entries: real programs
    /// only ever touch a few pages and the low words.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 4.
    pub fn new(size: u32) -> Self {
        assert!(size.is_multiple_of(4), "memory size must be word-aligned");
        let pages = (size as usize).div_ceil(PAGE_SIZE);
        Self { size, pages: vec![None; pages], icache: Vec::new() }
    }

    /// Highest word index the decode cache may grow to cover.
    #[inline]
    fn cache_limit(&self) -> usize {
        (self.size as usize / 4).min(ICACHE_WORDS)
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
        self.size
    }

    /// Page `i` for reading. An index past the table (never reached
    /// after [`Memory::check`]) falls into the same arm as an unwritten
    /// page, so the lookup costs one load and no extra branch.
    #[inline(always)]
    fn page(&self, i: usize) -> &Page {
        self.pages.get(i).and_then(Option::as_deref).unwrap_or(&ZERO_PAGE)
    }

    /// Page `i` for writing, allocated on first use.
    #[inline(always)]
    fn page_mut(&mut self, i: usize) -> &mut Page {
        self.pages[i].get_or_insert_with(zeroed_page)
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
        // Masking with `PAGE_SIZE - 4` equals `PAGE_SIZE - 1` for an
        // aligned address and lets the compiler drop the slice check.
        let o = i & (PAGE_SIZE - 4);
        let page = self.page(i >> PAGE_SHIFT);
        Ok(u32::from_le_bytes([page[o], page[o + 1], page[o + 2], page[o + 3]]))
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
        let o = i & (PAGE_SIZE - 4);
        self.page_mut(i >> PAGE_SHIFT)[o..o + 4].copy_from_slice(&value.to_le_bytes());
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
        Ok(self.page(i >> PAGE_SHIFT)[i & (PAGE_SIZE - 1)])
    }

    /// Write a byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline(always)]
    pub fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.page_mut(i >> PAGE_SHIFT)[i & (PAGE_SIZE - 1)] = value;
        if let Some(slot) = self.icache.get_mut(i / 4) {
            *slot = None;
        }
        Ok(())
    }

    /// Copy a byte slice into memory at `addr`, across page boundaries.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, data.len() as u32)?;
        let (mut at, mut rest) = (i, data);
        while !rest.is_empty() {
            let o = at & (PAGE_SIZE - 1);
            let (head, tail) = rest.split_at(rest.len().min(PAGE_SIZE - o));
            self.page_mut(at >> PAGE_SHIFT)[o..o + head.len()].copy_from_slice(head);
            at += head.len();
            rest = tail;
        }
        for w in i / 4..(i + data.len()).div_ceil(4) {
            if let Some(slot) = self.icache.get_mut(w) {
                *slot = None;
            }
        }
        Ok(())
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

/// A fresh page: the only allocation a store can make, kept off the
/// hot path.
#[cold]
fn zeroed_page() -> Box<Page> {
    Box::new([0; PAGE_SIZE])
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Pages a store has materialised.
    fn resident_pages(m: &Memory) -> usize {
        m.pages.iter().filter(|p| p.is_some()).count()
    }

    /// The whole address space as one flat buffer, read page by page.
    fn flat(m: &Memory) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..m.pages.len()).flat_map(|i| *m.page(i)).collect();
        bytes.truncate(m.size() as usize);
        bytes
    }

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

    #[test]
    fn new_memory_materialises_no_page() {
        let m = Memory::new(1 << 20);
        assert_eq!(m.pages.len(), 256);
        assert_eq!(resident_pages(&m), 0);
        assert_eq!(m.read_word((1 << 20) - 4), Ok(0));
        assert_eq!(m, Memory::new(1 << 20));
    }

    #[test]
    fn only_touched_pages_materialise() {
        // 2.5 pages of program text at 0, then one push at the stack top.
        let words = vec!["mov r0, #1"; 2560].join("\n");
        let p = proteus_isa::assemble(&words).expect("asm");
        let mut m = Memory::new(1 << 20);
        m.load_program(&p).expect("load");
        assert_eq!(resident_pages(&m), 3);
        m.write_word((1 << 20) - 4, 7).expect("stack");
        assert_eq!(resident_pages(&m), 4);
        // Reads, failed stores and zero-length spans allocate nothing.
        let _ = m.read_word(0x8_0000);
        assert!(m.write_word(1 << 20, 1).is_err());
        m.write_bytes(0x8_0000, &[]).expect("empty span");
        assert_eq!(resident_pages(&m), 4);
    }

    /// One access in a random sequence; its address is drawn separately.
    #[derive(Debug, Clone)]
    enum MemOp {
        ReadWord,
        WriteWord(u32),
        ReadByte,
        WriteByte(u8),
        WriteBytes(Vec<u8>),
        /// Fetch through the decode cache, first storing program word
        /// `k` at the aligned-down address if one is given.
        Fetch(Option<usize>),
        /// Clone, check equality, then store the byte into the clone only.
        CloneEq(u8),
    }

    /// An address biased towards page boundaries and both ends of a
    /// `size`-byte memory, with some wild ones.
    fn resolve(mode: u8, raw: u32, size: u32) -> u32 {
        let page_edge = (raw >> 4) % (size / PAGE_SIZE as u32 + 1) * PAGE_SIZE as u32;
        match mode % 4 {
            0 => raw % (size + 8),
            1 => page_edge.wrapping_add(raw % 16).wrapping_sub(8),
            2 => size.wrapping_sub(raw % 16),
            _ => raw,
        }
    }

    fn arb_op() -> impl Strategy<Value = MemOp> {
        prop_oneof![
            Just(MemOp::ReadWord),
            any::<u32>().prop_map(MemOp::WriteWord),
            Just(MemOp::ReadByte),
            any::<u8>().prop_map(MemOp::WriteByte),
            proptest::collection::vec(any::<u8>(), 0..24).prop_map(MemOp::WriteBytes),
            proptest::option::of(0usize..4).prop_map(MemOp::Fetch),
            any::<u8>().prop_map(MemOp::CloneEq),
        ]
    }

    /// The reference lane's range check: `addr + len` past `size` faults.
    fn model_range(model: &[u8], addr: u32, len: usize) -> Result<usize, MemError> {
        let i = addr as usize;
        if i + len <= model.len() {
            Ok(i)
        } else {
            Err(MemError::OutOfRange { addr, size: model.len() as u32 })
        }
    }

    fn model_word(model: &[u8], addr: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Unaligned { addr });
        }
        model_range(model, addr, 4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Paged memory against a flat `Vec<u8>`: every access returns
        /// what the flat model returns, faults included, and contents,
        /// clones and equality agree after every sequence.
        #[test]
        fn paged_memory_matches_flat_model(
            size_pick in 0usize..4,
            ops in proptest::collection::vec((any::<u8>(), any::<u32>(), arb_op()), 1..48),
        ) {
            let size = [8u32, 64, 4100, 1 << 20][size_pick];
            let mut mem = Memory::new(size);
            let mut model = vec![0u8; size as usize];
            // A few decodable words to fetch through the decode cache.
            let program = proteus_isa::assemble("top: mov r0, #1\n add r1, r0, r0\n ldr r2, [r1]\n b top\n")
                .expect("asm");
            for (mode, raw, op) in ops {
                let addr = resolve(mode, raw, size);
                match op {
                    MemOp::ReadWord => {
                        let want = model_word(&model, addr).map(|i| {
                            u32::from_le_bytes(model[i..i + 4].try_into().expect("4 bytes"))
                        });
                        prop_assert_eq!(mem.read_word(addr), want, "read_word {:#x}", addr);
                    }
                    MemOp::WriteWord(v) => {
                        let want = model_word(&model, addr);
                        if let Ok(i) = want {
                            model[i..i + 4].copy_from_slice(&v.to_le_bytes());
                        }
                        prop_assert_eq!(mem.write_word(addr, v), want.map(|_| ()), "write_word {:#x}", addr);
                    }
                    MemOp::ReadByte => {
                        let want = model_range(&model, addr, 1).map(|i| model[i]);
                        prop_assert_eq!(mem.read_byte(addr), want, "read_byte {:#x}", addr);
                    }
                    MemOp::WriteByte(v) => {
                        let want = model_range(&model, addr, 1);
                        if let Ok(i) = want {
                            model[i] = v;
                        }
                        prop_assert_eq!(mem.write_byte(addr, v), want.map(|_| ()), "write_byte {:#x}", addr);
                    }
                    MemOp::WriteBytes(data) => {
                        let want = model_range(&model, addr, data.len());
                        if let Ok(i) = want {
                            model[i..i + data.len()].copy_from_slice(&data);
                        }
                        prop_assert_eq!(mem.write_bytes(addr, &data), want.map(|_| ()), "write_bytes {:#x}", addr);
                    }
                    MemOp::Fetch(k) => {
                        let at = addr & !3;
                        if let (Some(k), Ok(i)) = (k, model_word(&model, at)) {
                            let word = program.words()[k];
                            model[i..i + 4].copy_from_slice(&word.to_le_bytes());
                            mem.write_word(at, word).expect("in range");
                        }
                        let want = model_word(&model, addr).map(|i| {
                            let w = u32::from_le_bytes(model[i..i + 4].try_into().expect("4 bytes"));
                            (w, decode(w).ok().map(|instr| lower(instr, addr)))
                        });
                        prop_assert_eq!(mem.fetch_op(addr), want, "fetch {:#x}", addr);
                    }
                    MemOp::CloneEq(v) => {
                        let mut copy = mem.clone();
                        prop_assert!(copy == mem);
                        if let Ok(i) = model_range(&model, addr, 1) {
                            copy.write_byte(addr, v).expect("in range");
                            prop_assert_eq!(copy == mem, v == model[i], "clone diverges at {:#x}", addr);
                            prop_assert_eq!(mem.read_byte(addr), Ok(model[i]), "clone is independent");
                        }
                    }
                }
            }
            prop_assert!(flat(&mem) == model, "contents differ from the flat model");
            // Every page materialised: equal contents must still compare equal.
            let mut full = Memory::new(size);
            full.write_bytes(0, &model).expect("fits");
            prop_assert_eq!(resident_pages(&full), full.pages.len());
            prop_assert!(full == mem, "a missing page must equal a zero page");
        }
    }
}
