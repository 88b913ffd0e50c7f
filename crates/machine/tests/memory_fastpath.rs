//! Property tests for the page-slice memory fast path and the predecoded
//! instruction cache's generation-counter invalidation.
//!
//! The memory properties drive the chunked/TLB implementation against a
//! naive byte-map model (the semantics of the seed implementation); the
//! icache tests prove that a write into a decoded page forces a re-decode —
//! the correctness argument that lets text pages be served from the cache
//! without any explicit invalidation hooks.
//!
//! The TLBs are direct-mapped, so pages whose keys agree modulo
//! [`TLB_ENTRIES`] compete for one entry. A dedicated property drives only
//! such colliding pages through writes, snapshots, restores and forks.

use proptest::prelude::*;
use raindrop_machine::mem::TLB_ENTRIES;
use raindrop_machine::{
    page_key, AluOp, Assembler, Emulator, ImageBuilder, Inst, Memory, Reg, PAGE_SIZE,
};
use std::collections::HashMap;

/// The seed memory semantics: a flat byte map, zero default.
#[derive(Default, Clone)]
struct ModelMem {
    bytes: HashMap<u64, u8>,
}

impl ModelMem {
    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.bytes.insert(addr.wrapping_add(i as u64), *b);
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.bytes.get(&addr.wrapping_add(i as u64)).copied().unwrap_or(0))
            .collect()
    }
}

/// One memory operation of the differential property.
#[derive(Debug, Clone)]
enum Op {
    WriteBytes(u64, Vec<u8>),
    WriteU64(u64, u64),
    WriteU8(u64, u8),
}

fn any_addr() -> impl Strategy<Value = u64> {
    // Bias towards page edges so straddling accesses are common.
    prop_oneof![
        0u64..0x8000,
        (1u64..8).prop_map(|k| k * PAGE_SIZE as u64 - 7),
        (1u64..8).prop_map(|k| k * PAGE_SIZE as u64 - 1),
    ]
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any_addr(), prop::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(a, d)| Op::WriteBytes(a, d)),
        (any_addr(), any::<u64>()).prop_map(|(a, v)| Op::WriteU64(a, v)),
        (any_addr(), any::<u8>()).prop_map(|(a, v)| Op::WriteU8(a, v)),
    ]
}

proptest! {
    /// Arbitrary interleavings of scalar/bulk writes at page-edge-biased
    /// addresses read back identically through every access width, in both
    /// the fast memory and the byte-map model.
    #[test]
    fn chunked_memory_matches_byte_map_model(ops in prop::collection::vec(any_op(), 1..40),
                                             probe in any_addr()) {
        let mut mem = Memory::new();
        let mut model = ModelMem::default();
        for op in &ops {
            match op {
                Op::WriteBytes(a, d) => {
                    mem.write_bytes(*a, d);
                    model.write(*a, d);
                }
                Op::WriteU64(a, v) => {
                    mem.write_u64(*a, *v);
                    model.write(*a, &v.to_le_bytes());
                }
                Op::WriteU8(a, v) => {
                    mem.write_u8(*a, *v);
                    model.write(*a, &[*v]);
                }
            }
        }
        // Read back through all widths, including page-straddling spans.
        for op in &ops {
            let (addr, len) = match op {
                Op::WriteBytes(a, d) => (*a, d.len()),
                Op::WriteU64(a, _) => (*a, 8),
                Op::WriteU8(a, _) => (*a, 1),
            };
            let mut got = vec![0u8; len];
            mem.read_bytes(addr, &mut got);
            prop_assert_eq!(&got, &model.read(addr, len));
        }
        prop_assert_eq!(mem.read_u64(probe), u64::from_le_bytes(
            model.read(probe, 8).try_into().unwrap()));
        prop_assert_eq!(mem.read_u8(probe), model.read(probe, 1)[0]);
    }

    /// A u64 written across a page boundary is visible byte-wise in both
    /// pages, and the TLB does not confuse the two pages on readback.
    #[test]
    fn straddling_u64_lands_in_both_pages(page in 1u64..16, off in 4089u64..4096,
                                          v in any::<u64>()) {
        let addr = page * PAGE_SIZE as u64 + off - PAGE_SIZE as u64;
        let mut m = Memory::new();
        m.write_u64(addr, v);
        prop_assert_eq!(m.read_u64(addr), v);
        // Alternate far-apart reads to force TLB replacement between probes.
        for (i, b) in v.to_le_bytes().iter().enumerate() {
            prop_assert_eq!(m.read_u8(addr + i as u64), *b);
            prop_assert_eq!(m.read_u8(0xdead_0000 + i as u64), 0);
        }
    }

    /// Restore-in-place ("page eviction" back to the snapshot state) must
    /// not leave stale TLB or cache state: reads after the restore see the
    /// snapshot contents, including on pages the TLB had just resolved.
    #[test]
    fn tlb_sees_through_restore(addr in any_addr(), before in any::<u64>(),
                                after in any::<u64>()) {
        let mut emu_mem = Memory::new();
        emu_mem.write_u64(addr, before);
        let snap = emu_mem.clone();
        // Touch the page (TLB now caches it), diverge it, then restore.
        prop_assert_eq!(emu_mem.read_u64(addr), before);
        emu_mem.write_u64(addr, after);
        emu_mem.write_u64(addr ^ 0x10_0000, after);
        prop_assert_eq!(emu_mem.read_u64(addr), after);
        emu_mem.restore_from(&snap);
        prop_assert_eq!(emu_mem.read_u64(addr), before);
        prop_assert_eq!(emu_mem.read_u64(addr ^ 0x10_0000), 0);
    }
}

/// Bytes between two pages that share every TLB entry.
const ALIAS_STRIDE: u64 = (TLB_ENTRIES * PAGE_SIZE) as u64;

/// Addresses on five pages whose keys are all congruent modulo
/// [`TLB_ENTRIES`], biased towards page ends so that straddling accesses
/// also touch the next, non-colliding page.
fn alias_addr() -> impl Strategy<Value = u64> {
    let ends = (PAGE_SIZE as u64 - 12)..PAGE_SIZE as u64;
    (0u64..5, prop_oneof![0u64..64, ends]).prop_map(|(k, off)| 0x20_0000 + k * ALIAS_STRIDE + off)
}

/// One step of the aliasing property. `usize` operands pick a memory (of
/// two) or a snapshot by index modulo the number available.
#[derive(Debug, Clone)]
enum AliasOp {
    Write(usize, u64, Vec<u8>),
    WriteU64(usize, u64, u64),
    Snapshot(usize),
    Restore(usize, usize),
    Fork(usize),
}

fn alias_op() -> impl Strategy<Value = AliasOp> {
    prop_oneof![
        (0usize..2, alias_addr(), prop::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(m, a, d)| AliasOp::Write(m, a, d)),
        (0usize..2, alias_addr(), any::<u64>()).prop_map(|(m, a, v)| AliasOp::WriteU64(m, a, v)),
        (0usize..2).prop_map(AliasOp::Snapshot),
        (0usize..2, 0usize..8).prop_map(|(m, s)| AliasOp::Restore(m, s)),
        (0usize..2).prop_map(AliasOp::Fork),
    ]
}

/// Reads every probe address through both TLBs and every width and checks
/// it against the model, and that the data and fetch paths agree on each
/// page's generation.
fn check_against_model(
    mem: &Memory,
    model: &ModelMem,
    probes: &[u64],
) -> Result<(), TestCaseError> {
    for &a in probes {
        prop_assert_eq!(mem.read_u8(a), model.read(a, 1)[0]);
        prop_assert_eq!(mem.read_u64(a), u64::from_le_bytes(model.read(a, 8).try_into().unwrap()));
        let mut got = [0u8; 16];
        mem.read_bytes(a, &mut got);
        prop_assert_eq!(&got[..], &model.read(a, 16)[..]);
        match mem.fetch_slot(a) {
            Some((_, gen, page)) => {
                let off = a as usize % PAGE_SIZE;
                prop_assert_eq!(page[off], model.read(a, 1)[0]);
                prop_assert_eq!(gen, mem.page_gen(a));
            }
            None => prop_assert_eq!(mem.page_gen(a), 0),
        }
    }
    Ok(())
}

proptest! {
    /// Pages that collide in the direct-mapped TLBs never read each other's
    /// bytes, across writes, snapshots, forks and restores (including a
    /// restore from the other memory's snapshot, which adds slots), and a
    /// page keeps its slot for the memory's lifetime.
    #[test]
    fn colliding_tlb_pages_match_byte_map_model(ops in prop::collection::vec(alias_op(), 1..48),
                                                probes in prop::collection::vec(alias_addr(), 8)) {
        let mut mems = [Memory::new(), Memory::new()];
        let mut models = [ModelMem::default(), ModelMem::default()];
        let mut snaps: Vec<(Memory, ModelMem)> = Vec::new();
        let mut slots: [HashMap<u64, usize>; 2] = Default::default();
        for op in &ops {
            let m = match *op {
                AliasOp::Write(m, a, ref d) => {
                    mems[m].write_bytes(a, d);
                    models[m].write(a, d);
                    m
                }
                AliasOp::WriteU64(m, a, v) => {
                    mems[m].write_u64(a, v);
                    models[m].write(a, &v.to_le_bytes());
                    m
                }
                AliasOp::Snapshot(m) => {
                    snaps.push((mems[m].clone(), models[m].clone()));
                    m
                }
                AliasOp::Restore(m, s) if !snaps.is_empty() => {
                    let (snap, model) = &snaps[s % snaps.len()];
                    mems[m].restore_from(snap);
                    models[m] = model.clone();
                    m
                }
                AliasOp::Restore(m, _) => m,
                AliasOp::Fork(m) => {
                    mems[1 - m] = mems[m].clone();
                    models[1 - m] = models[m].clone();
                    slots[1 - m] = slots[m].clone();
                    1 - m
                }
            };
            check_against_model(&mems[m], &models[m], &probes)?;
            for &a in &probes {
                if let Some((slot, ..)) = mems[m].fetch_slot(a) {
                    let first = *slots[m].entry(page_key(a)).or_insert(slot);
                    prop_assert_eq!(slot, first, "page {:#x} moved slots", page_key(a));
                }
            }
        }
        for m in 0..2 {
            check_against_model(&mems[m], &models[m], &probes)?;
        }
    }
}

/// Builds an image whose function loads an immediate and returns; used as
/// patchable text for the self-modification tests.
fn mov_ret_image(value: i64) -> (raindrop_machine::Image, u64) {
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRI(Reg::Rax, value)).inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("f", asm);
    let img = b.build().unwrap();
    let addr = img.function("f").unwrap().addr;
    (img, addr)
}

#[test]
fn icache_self_modifying_text_is_re_decoded() {
    let (img, faddr) = mov_ret_image(1);
    let mut emu = Emulator::new(&img);

    // First run decodes and caches the text page.
    assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 1);
    // Overwrite the immediate operand of `mov rax, imm64` in guest memory
    // (opcode byte, register byte, then the 8 little-endian immediate
    // bytes). A stale icache would keep returning 1.
    emu.mem.write_u64(faddr + 2, 42);
    assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 42, "write invalidated the decoded run");

    // Repatching the same page again re-decodes again.
    emu.mem.write_u64(faddr + 2, 7);
    assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 7);
}

#[test]
fn icache_snapshot_restore_rolls_text_back() {
    let (img, faddr) = mov_ret_image(5);
    let mut emu = Emulator::new(&img);
    let snap = emu.snapshot();
    assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 5);

    emu.mem.write_u64(faddr + 2, 99);
    assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 99);

    // Restoring reverts the patched text; the icache entry tagged with the
    // patched generation must not survive.
    emu.restore(&snap);
    assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 5);
}

#[test]
fn icache_disabled_reference_path_agrees() {
    // The reference slow path (no cache) and the fast path execute the same
    // self-modification sequence identically.
    for enabled in [true, false] {
        let (img, faddr) = mov_ret_image(3);
        let mut emu = Emulator::new(&img);
        emu.set_icache_enabled(enabled);
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 3);
        emu.mem.write_u64(faddr + 2, 1234);
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 1234, "icache={enabled}");
    }
}

#[test]
fn warm_restore_keeps_stats_and_results_reproducible() {
    // A loopy function executed repeatedly from a restored snapshot gives
    // identical stats every time (the verify_batch access pattern).
    let mut asm = Assembler::new();
    let top = asm.new_label();
    let done = asm.new_label();
    asm.inst(Inst::MovRI(Reg::Rax, 0));
    asm.bind(top);
    asm.inst(Inst::CmpI(Reg::Rdi, 0));
    asm.jcc(raindrop_machine::Cond::E, done);
    asm.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rdi));
    asm.inst(Inst::AluI(AluOp::Sub, Reg::Rdi, 1));
    asm.jmp(top);
    asm.bind(done);
    asm.inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("sum", asm);
    let img = b.build().unwrap();

    let mut emu = Emulator::new(&img);
    let snap = emu.snapshot();
    let mut stats = Vec::new();
    for _ in 0..5 {
        emu.restore(&snap);
        assert_eq!(emu.call_named(&img, "sum", &[100]).unwrap(), 5050);
        stats.push(emu.stats());
    }
    assert!(stats.windows(2).all(|w| w[0] == w[1]), "stats drift across warm restores");
}

#[test]
fn icache_re_decodes_text_patched_after_restore() {
    // The text page shares its TLB entries with a data page, and one
    // restore adds slots; every patch after a restore must still re-decode,
    // and the cached path must agree with the re-decode reference.
    for enabled in [true, false] {
        let (img, faddr) = mov_ret_image(1);
        let alias = faddr + ALIAS_STRIDE;
        let mut emu = Emulator::new(&img);
        emu.set_icache_enabled(enabled);
        let snap = emu.snapshot();
        let mut fork = emu.fork();
        fork.mem.write_u64(alias, 0xdead);
        fork.mem.write_u64(faddr + 2, 9);
        fork.mem.write_u64(0x300_0000, 1);
        let fork_snap = fork.snapshot();

        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 1);
        emu.mem.write_u64(alias, 5);
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 1, "alias write left text alone");

        let pages = emu.mem.resident_pages();
        emu.restore(&fork_snap);
        assert!(emu.mem.resident_pages() > pages, "the restore added slots");
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 9, "icache={enabled}");
        emu.mem.write_u64(faddr + 2, 42);
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 42, "icache={enabled}");
        assert_eq!(emu.mem.read_u64(alias), 0xdead);

        emu.restore(&snap);
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 1, "icache={enabled}");
        emu.mem.write_u64(faddr + 2, 77);
        assert_eq!(emu.call_named(&img, "f", &[]).unwrap(), 77, "icache={enabled}");
        assert_eq!(emu.mem.read_u64(alias), 0, "alias page zeroed by the restore");
    }
}
