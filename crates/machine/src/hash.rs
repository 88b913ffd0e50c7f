//! A multiply-rotate hasher for the workspace's hot in-process maps.
//!
//! Guest addresses, interned expression ids, enum tags and short input
//! vectors are keys the program generates itself, so SipHash's resistance
//! to chosen-key flooding buys nothing on them while costing a full
//! SipHash round per probe. [`MulRotHasher`] folds each 64-bit word into
//! the state with one rotate, one XOR and one multiply.
//!
//! Do not use it for keys an outside party can choose.
//!
//! # Example
//!
//! ```
//! use raindrop_machine::hash::MulRotMap;
//!
//! let mut words: MulRotMap<u64, &str> = MulRotMap::default();
//! words.insert(0x7fff_fff8, "spill slot");
//! assert_eq!(words.get(&0x7fff_fff8), Some(&"spill slot"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: `state = (state.rotate_left(5) ^ word) * K` per
/// 64-bit word. Byte slices are folded eight bytes at a time, with a
/// shorter tail folded one byte per word; integers up to 64 bits are one
/// word each.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulRotHasher(u64);

/// The [`std::hash::BuildHasher`] of [`MulRotHasher`].
pub type BuildMulRot = BuildHasherDefault<MulRotHasher>;

/// A `HashMap` hashed with [`MulRotHasher`].
pub type MulRotMap<K, V> = HashMap<K, V, BuildMulRot>;

/// A `HashSet` hashed with [`MulRotHasher`].
pub type MulRotSet<K> = HashSet<K, BuildMulRot>;

impl Hasher for MulRotHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("eight-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildMulRot::default().hash_one(v)
    }

    #[test]
    fn short_writes_fold_one_byte_per_word() {
        let mut bytewise = MulRotHasher::default();
        for b in [1u8, 2, 3, 4] {
            bytewise.write_u64(u64::from(b));
        }
        let mut h = MulRotHasher::default();
        h.write(&[1, 2, 3, 4]);
        assert_eq!(h.finish(), bytewise.finish());
    }

    #[test]
    fn word_slices_fold_one_word_per_element() {
        let mut h = MulRotHasher::default();
        h.write_usize(2);
        h.write_u64(7);
        h.write_u64(9);
        assert_eq!(hash_of(&vec![7u64, 9]), h.finish());
        assert_ne!(hash_of(&vec![7u64, 9]), hash_of(&vec![9u64, 7]));
    }
}
