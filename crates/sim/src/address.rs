//! Tensor address-space layout: a bump allocator that assigns every
//! tensor (each layer's ifmap/weights/ofmap) a contiguous block-aligned
//! region of the simulated DRAM, so metadata caches can be exercised with
//! realistic line addresses.

use serde::{Deserialize, Serialize};

/// A contiguous, block-aligned DRAM region backing one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorRegion {
    /// Stable identity used in MACs / counters (`F` in the paper).
    pub fmap_id: u32,
    /// First byte address.
    pub base: u64,
    /// Region length in bytes (block-aligned).
    pub bytes: u64,
}

impl TensorRegion {
    /// Number of 64-byte blocks in the region.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.bytes / 64
    }

    /// Absolute address of block `index` within the region.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn block_addr(&self, index: u64) -> u64 {
        assert!(index < self.blocks(), "block index out of region");
        self.base + index * 64
    }
}

/// Bump allocator over the simulated physical address space.
#[derive(Debug, Clone, Default)]
pub struct AddressAllocator {
    next_base: u64,
    next_fmap_id: u32,
}

impl AddressAllocator {
    /// Creates an allocator starting at address 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a block-aligned region of at least `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> TensorRegion {
        let rounded = bytes.div_ceil(64) * 64;
        let region = TensorRegion {
            fmap_id: self.next_fmap_id,
            base: self.next_base,
            bytes: rounded,
        };
        self.next_base += rounded;
        self.next_fmap_id += 1;
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap_and_are_aligned() {
        let mut a = AddressAllocator::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(64);
        assert_eq!(r1.bytes, 128, "rounded to block multiple");
        assert_eq!(r2.base, 128);
        assert_ne!(r1.fmap_id, r2.fmap_id);
        assert_eq!(a.next_base, 192);
    }

    #[test]
    fn block_addressing() {
        let mut a = AddressAllocator::new();
        let _ = a.alloc(64);
        let r = a.alloc(256);
        assert_eq!(r.blocks(), 4);
        assert_eq!(r.block_addr(0), 64);
        assert_eq!(r.block_addr(3), 64 + 192);
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn out_of_range_block_panics() {
        let mut a = AddressAllocator::new();
        let r = a.alloc(64);
        let _ = r.block_addr(1);
    }
}
