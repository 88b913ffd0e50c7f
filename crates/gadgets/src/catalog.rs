//! The gadget catalog: the rewriter's "gadget finder" (Fig. 2 of the paper).
//!
//! The catalog combines two sources of gadgets, exactly as §IV-A1 describes:
//! gadgets already present in program parts left unobfuscated (found by the
//! [`scan`](crate::scan) module) and *artificial* gadgets appended as dead
//! code to `.text` on demand. Requests are made per semantic operation; the
//! catalog diversifies by keeping several equivalent variants per operation
//! and picking among them at random, and it keeps the usage statistics that
//! Table III of the paper reports (total vs. unique gadgets used).

use crate::gadget::{Gadget, GadgetOp};
use crate::scan::{scan_image, ScanConfig};
use crate::synth::{synthesize, SynthConfig};
use raindrop_machine::hash::MulRotMap;
use raindrop_machine::{Image, RegSet};
use rand::Rng;

/// Catalog configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    /// Probability of synthesizing a *new* variant when equivalent gadgets
    /// already exist (gadget diversity).
    pub diversity: f64,
    /// Variant cap per request. A request counts the variants *suitable for
    /// it*: not retired, clobbering nothing in its avoid set and meeting its
    /// flag needs. With none it synthesizes one; with fewer than this many
    /// it synthesizes one with probability
    /// [`diversity`](CatalogConfig::diversity); otherwise it reuses one. The
    /// cap does not bound the variants stored per operation: requests with
    /// different avoid sets or flag needs can each add up to it.
    pub max_variants_per_op: usize,
    /// Configuration of the initial scan over pre-existing code.
    pub scan: ScanConfig,
    /// Configuration of the artificial-gadget synthesizer.
    pub synth: SynthConfig,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            diversity: 0.35,
            max_variants_per_op: 4,
            scan: ScanConfig::default(),
            synth: SynthConfig::default(),
        }
    }
}

/// Usage statistics (Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct GadgetStats {
    /// Total number of gadget uses across all chains (column A).
    pub total_used: u64,
    /// Number of distinct gadgets used at least once (column B).
    pub unique_used: u64,
    /// Number of gadgets in the pool (found + synthesized).
    pub pool_size: u64,
    /// Number of artificial gadgets appended to `.text`.
    pub artificial: u64,
}

/// The gadget catalog.
#[derive(Debug, Clone)]
pub struct GadgetCatalog {
    gadgets: Vec<Gadget>,
    /// Per-op variant index; `GadgetOp` hashes as a few small integers,
    /// so it takes the multiply-rotate hasher instead of SipHash.
    by_op: MulRotMap<GadgetOp, Vec<usize>>,
    usage: Vec<u64>,
    retired: Vec<bool>,
    config: CatalogConfig,
}

impl GadgetCatalog {
    /// Creates an empty catalog (gadgets will all be synthesized on demand).
    pub fn new(config: CatalogConfig) -> GadgetCatalog {
        GadgetCatalog {
            gadgets: Vec::new(),
            by_op: MulRotMap::default(),
            usage: Vec::new(),
            retired: Vec::new(),
            config,
        }
    }

    /// Creates a catalog seeded with the gadgets already present in the
    /// image's `.text` section.
    pub fn from_image(image: &Image, config: CatalogConfig) -> GadgetCatalog {
        let mut cat = GadgetCatalog::new(config);
        for g in scan_image(image, config.scan) {
            cat.insert(g);
        }
        cat
    }

    fn insert(&mut self, g: Gadget) -> usize {
        let idx = self.gadgets.len();
        self.by_op.entry(g.op).or_default().push(idx);
        self.gadgets.push(g);
        self.usage.push(0);
        self.retired.push(false);
        idx
    }

    /// Retires every gadget whose first byte lies in `[start, end)`.
    ///
    /// The rewriter calls this for the address range of each function it is
    /// about to rewrite: materialization replaces that body with the pivot
    /// stub plus `hlt` filler, so gadgets scanned from it would be destroyed.
    /// This keeps the pool limited to artificial gadgets and gadgets from
    /// "program parts left unobfuscated" (§IV-A1 of the paper). Returns how
    /// many gadgets were retired.
    pub fn retire_range(&mut self, start: u64, end: u64) -> usize {
        let mut retired = 0;
        for (i, g) in self.gadgets.iter().enumerate() {
            if !self.retired[i] && g.addr >= start && g.addr < end {
                self.retired[i] = true;
                retired += 1;
            }
        }
        retired
    }

    /// Number of gadgets currently in the pool.
    pub fn pool_size(&self) -> usize {
        self.gadgets.len()
    }

    /// All gadgets in the pool.
    pub fn gadgets(&self) -> &[Gadget] {
        &self.gadgets
    }

    /// Requests a gadget implementing `op` that clobbers no register in
    /// `avoid_clobber` (and, when `preserve_flags` is set, does not pollute
    /// the condition flags).
    ///
    /// If no suitable gadget exists — or the diversity roll asks for a fresh
    /// variant — a new artificial gadget is synthesized, appended as dead
    /// code to the image's `.text` section, and returned. Every successful
    /// request counts towards the usage statistics.
    pub fn request<R: Rng + ?Sized>(
        &mut self,
        image: &mut Image,
        op: GadgetOp,
        avoid_clobber: RegSet,
        preserve_flags: bool,
        rng: &mut R,
    ) -> &Gadget {
        let ids = self.by_op.get(&op).map_or(&[][..], Vec::as_slice);
        let suitable = |i: &&usize| {
            let g = &self.gadgets[**i];
            !self.retired[**i]
                && g.clobbers.intersection(avoid_clobber).is_empty()
                && (!preserve_flags || !g.pollutes_flags)
        };
        let count = ids.iter().filter(suitable).count();
        let want_new = count == 0
            || (count < self.config.max_variants_per_op && rng.gen_bool(self.config.diversity));

        let idx = if want_new {
            let mut g = synthesize(op, avoid_clobber, preserve_flags, self.config.synth, rng);
            g.addr = image.append_text(None, &g.encode());
            self.insert(g)
        } else {
            let nth = rng.gen_range(0..count);
            *ids.iter().filter(suitable).nth(nth).expect("nth < count suitable ids")
        };
        self.usage[idx] += 1;
        &self.gadgets[idx]
    }

    /// Usage statistics accumulated so far.
    pub fn stats(&self) -> GadgetStats {
        GadgetStats {
            total_used: self.usage.iter().sum(),
            unique_used: self.usage.iter().filter(|&&u| u > 0).count() as u64,
            pool_size: self.gadgets.len() as u64,
            artificial: self.gadgets.iter().filter(|g| g.artificial).count() as u64,
        }
    }

    /// Resets usage counters (pool contents are kept).
    pub fn reset_stats(&mut self) {
        for u in &mut self.usage {
            *u = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::{Assembler, ImageBuilder, Inst, Reg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empty_image() -> Image {
        let mut a = Assembler::new();
        a.inst(Inst::MovRI(Reg::Rax, 0)).inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("noop", a);
        b.build().unwrap()
    }

    #[test]
    fn missing_gadgets_are_synthesized_and_land_in_text() {
        let mut img = empty_image();
        let before = img.text.len();
        let mut cat = GadgetCatalog::from_image(&img, CatalogConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let g = cat.request(&mut img, GadgetOp::Pop(Reg::Rdi), RegSet::EMPTY, false, &mut rng);
        assert!(g.addr >= img.text_base + before as u64);
        assert!(img.text.len() > before);
        // The appended bytes really are the gadget.
        let slice = img.text_slice(g.addr, g.byte_len()).unwrap();
        assert_eq!(slice, g.encode().as_slice());
    }

    #[test]
    fn preexisting_gadgets_are_reused() {
        let mut img = empty_image();
        // The noop function itself contains a `ret`, and appending a
        // hand-made pop gadget makes it discoverable by the scan.
        img.append_text(None, &raindrop_machine::encode_all(&[Inst::Pop(Reg::Rdi), Inst::Ret]));
        let mut cat = GadgetCatalog::from_image(
            &img,
            CatalogConfig { diversity: 0.0, ..CatalogConfig::default() },
        );
        let pool_before = cat.pool_size();
        assert!(pool_before >= 1);
        let text_before = img.text.len();
        let mut rng = StdRng::seed_from_u64(2);
        let g = cat.request(&mut img, GadgetOp::Pop(Reg::Rdi), RegSet::EMPTY, false, &mut rng);
        assert!(!g.artificial);
        assert_eq!(img.text.len(), text_before, "no new gadget was appended");
    }

    #[test]
    fn avoid_clobber_is_respected() {
        let mut img = empty_image();
        let mut cat = GadgetCatalog::new(CatalogConfig {
            diversity: 1.0,
            max_variants_per_op: 8,
            ..CatalogConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let avoid = RegSet::from_regs([Reg::Rax, Reg::Rbx, Reg::Rcx]);
        for _ in 0..20 {
            let g = cat.request(&mut img, GadgetOp::Pop(Reg::Rdi), avoid, true, &mut rng);
            assert!(g.clobbers.intersection(avoid).is_empty());
            assert!(!g.pollutes_flags);
        }
    }

    #[test]
    fn stats_track_total_and_unique_usage() {
        let mut img = empty_image();
        let mut cat = GadgetCatalog::new(CatalogConfig {
            diversity: 0.5,
            max_variants_per_op: 3,
            ..CatalogConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            cat.request(&mut img, GadgetOp::Pop(Reg::Rsi), RegSet::EMPTY, false, &mut rng);
        }
        let stats = cat.stats();
        assert_eq!(stats.total_used, 40);
        assert!(stats.unique_used >= 1 && stats.unique_used <= 3);
        assert!(stats.unique_used <= stats.pool_size);
        assert_eq!(stats.artificial, stats.pool_size);
        cat.reset_stats();
        assert_eq!(cat.stats().total_used, 0);
    }

    #[test]
    fn diversity_zero_converges_to_a_single_variant() {
        let mut img = empty_image();
        let mut cat =
            GadgetCatalog::new(CatalogConfig { diversity: 0.0, ..CatalogConfig::default() });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            cat.request(&mut img, GadgetOp::Neg(Reg::Rax), RegSet::EMPTY, false, &mut rng);
        }
        assert_eq!(cat.stats().unique_used, 1);
    }

    #[test]
    fn op_index_hashes_ops_byte_for_byte_as_before() {
        use raindrop_machine::hash::BuildMulRot;
        use raindrop_machine::{AluOp, Cond};
        use std::hash::{BuildHasher, Hash, Hasher};

        /// The catalog's previous private hasher, kept as the reference.
        #[derive(Default)]
        struct Reference(u64);
        impl Hasher for Reference {
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.write_u64(u64::from(b));
                }
            }
            fn write_u64(&mut self, v: u64) {
                self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
            fn write_isize(&mut self, v: isize) {
                self.write_u64(v as u64);
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }

        let ops = [
            GadgetOp::Pop(Reg::Rax),
            GadgetOp::MovRR(Reg::Rdx, Reg::R15),
            GadgetOp::Alu(AluOp::Xor, Reg::Rcx, Reg::Rsi),
            GadgetOp::ShlImm(Reg::Rbx, 13),
            GadgetOp::Cmov(Cond::Ne, Reg::R8, Reg::R9),
            GadgetOp::Unclassified,
        ];
        for op in ops {
            let mut reference = Reference::default();
            op.hash(&mut reference);
            let reference = reference.finish();
            assert_eq!(BuildMulRot::default().hash_one(op), reference, "{op:?}");
        }
    }
}
