//! Growable bitsets over dense slot ids: 64 slots per `u64` block,
//! sized lazily to the highest set bit. The search index evaluates
//! queries with them (union, intersection, subtraction) and the
//! inventory match index unions node sets with them.

/// A growable bitset over dense slot ids. Every method is `#[inline]`:
/// the callers live in other crates and set or walk bits in tight
/// loops, and without the hint each bit operation stays a call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotBitset {
    blocks: Vec<u64>,
}

impl SlotBitset {
    /// Creates an empty bitset.
    #[inline]
    pub fn new() -> Self {
        SlotBitset::default()
    }

    /// Sets one slot's bit, growing the block vector as needed.
    #[inline]
    pub fn set(&mut self, slot: u32) {
        let (block, bit) = (slot as usize / 64, slot as usize % 64);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        self.blocks[block] |= 1 << bit;
    }

    /// Clears one slot's bit (no-op when out of range).
    #[inline]
    pub fn clear(&mut self, slot: u32) {
        let (block, bit) = (slot as usize / 64, slot as usize % 64);
        if let Some(b) = self.blocks.get_mut(block) {
            *b &= !(1 << bit);
        }
    }

    /// Whether the slot's bit is set.
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        let (block, bit) = (slot as usize / 64, slot as usize % 64);
        self.blocks.get(block).is_some_and(|b| b & (1 << bit) != 0)
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `self |= other`.
    #[inline]
    pub fn union_with(&mut self, other: &SlotBitset) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            *dst |= src;
        }
    }

    /// `self &= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &SlotBitset) {
        for (i, dst) in self.blocks.iter_mut().enumerate() {
            *dst &= other.blocks.get(i).copied().unwrap_or(0);
        }
    }

    /// `self &= !other`.
    #[inline]
    pub fn subtract(&mut self, other: &SlotBitset) {
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            *dst &= !src;
        }
    }

    /// Iterates set slots in ascending order.
    #[inline]
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some(i as u32 * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_contains_clear() {
        let mut set = SlotBitset::new();
        assert!(set.is_empty());
        set.set(0);
        set.set(63);
        set.set(64);
        set.set(1000);
        assert!(set.contains(63));
        assert!(set.contains(1000));
        assert!(!set.contains(999));
        assert_eq!(set.count(), 4);
        set.clear(63);
        assert!(!set.contains(63));
        assert_eq!(set.ones().collect::<Vec<_>>(), vec![0, 64, 1000]);
    }

    #[test]
    fn boolean_ops() {
        let mut a = SlotBitset::new();
        let mut b = SlotBitset::new();
        for i in [1u32, 5, 200] {
            a.set(i);
        }
        for i in [5u32, 200, 300] {
            b.set(i);
        }
        let mut union = a.clone();
        union.union_with(&b);
        assert_eq!(union.ones().collect::<Vec<_>>(), vec![1, 5, 200, 300]);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.ones().collect::<Vec<_>>(), vec![5, 200]);
        let mut diff = a.clone();
        diff.subtract(&b);
        assert_eq!(diff.ones().collect::<Vec<_>>(), vec![1]);
        // Differently-sized operands never panic or gain phantom bits.
        let mut short = SlotBitset::new();
        short.set(2);
        short.intersect_with(&a);
        assert!(short.is_empty());
    }
}
