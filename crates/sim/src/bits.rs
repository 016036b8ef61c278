//! A compact, fixed-length bitvector.

use std::fmt;

/// A fixed-length packed bitvector.
///
/// Used for scan states, primary-input vectors and output responses. Bits are
/// stored 64 per word; the unused tail of the last word is kept at zero so
/// that equality and popcounts are well defined.
///
/// # Example
///
/// ```
/// use fbt_sim::Bits;
/// let mut b = Bits::zeros(70);
/// b.set(69, true);
/// assert!(b.get(69));
/// assert_eq!(b.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from packed words: bit `i` of the vector is bit `i % 64` of
    /// `words[i / 64]`.
    ///
    /// # Panics
    ///
    /// Panics if the word count is not `len.div_ceil(64)` or the unused tail
    /// bits of the last word are not zero (the representation invariant).
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        if !len.is_multiple_of(64) {
            assert_eq!(words[len / 64] >> (len % 64), 0, "tail bits must be zero");
        }
        Bits { words, len }
    }

    /// Build from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut b = Bits::zeros(bools.len());
        for (i, &v) in bools.iter().enumerate() {
            if v {
                b.set(i, true);
            }
        }
        b
    }

    /// Build from a `0`/`1` string, most significant bit first.
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0` and `1`; use
    /// [`Bits::try_from_str01`] for a fallible version.
    pub fn from_str01(s: &str) -> Self {
        Bits::try_from_str01(s).expect("invalid bit string")
    }

    /// Build from a `0`/`1` string, most significant bit first, reporting
    /// the first offending character instead of panicking.
    ///
    /// ```
    /// use fbt_sim::Bits;
    /// use fbt_netlist::Error;
    ///
    /// assert_eq!(Bits::try_from_str01("0110").unwrap().len(), 4);
    /// assert_eq!(
    ///     Bits::try_from_str01("01x0"),
    ///     Err(Error::InvalidBitChar { index: 2, found: 'x' })
    /// );
    /// ```
    pub fn try_from_str01(s: &str) -> Result<Self, fbt_netlist::Error> {
        let bools: Vec<bool> = s
            .chars()
            .enumerate()
            .map(|(index, c)| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                found => Err(fbt_netlist::Error::InvalidBitChar { index, found }),
            })
            .collect::<Result<_, _>>()?;
        Ok(Bits::from_bools(&bools))
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of positions where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &Bits) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterate over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The underlying words (tail bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits[")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Bits {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        // Pack directly into words — no intermediate `Vec<bool>` and no
        // per-bit bounds check; this is on the hot path of lane extraction.
        let iter = iter.into_iter();
        let mut words: Vec<u64> = Vec::with_capacity(iter.size_hint().0.div_ceil(64));
        let mut len = 0usize;
        let mut cur = 0u64;
        for v in iter {
            if v {
                cur |= 1u64 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(cur);
        }
        Bits { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bits::zeros(130);
        for i in (0..130).step_by(3) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        assert_eq!(b.count_ones(), (0..130).step_by(3).count());
    }

    #[test]
    fn from_str01_msb_first() {
        let b = Bits::from_str01("1010");
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(2));
        assert!(!b.get(3));
        assert_eq!(b.to_string(), "1010");
    }

    #[test]
    fn hamming_distance() {
        let a = Bits::from_str01("110010");
        let b = Bits::from_str01("100011");
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let b = Bits::zeros(8);
        let _ = b.get(8);
    }

    #[test]
    fn collect_from_iterator() {
        let b: Bits = (0..5).map(|i| i % 2 == 0).collect();
        assert_eq!(b.to_string(), "10101");
    }

    #[test]
    fn from_words_trailing_partial_words() {
        // 70 bits = one full word + a 6-bit tail.
        let b = Bits::from_words(vec![!0u64, 0b10_1101], 70);
        assert_eq!(b.len(), 70);
        assert!((0..64).all(|i| b.get(i)));
        assert_eq!(
            (64..70).map(|i| b.get(i)).collect::<Vec<_>>(),
            [true, false, true, true, false, true]
        );
        assert_eq!(b.count_ones(), 64 + 4);
        // A 1-bit vector is the smallest partial word.
        let one = Bits::from_words(vec![1], 1);
        assert!(one.get(0));
        // Exactly 64 bits: no tail, the full word is legal.
        let full = Bits::from_words(vec![u64::MAX], 64);
        assert_eq!(full.count_ones(), 64);
        // Zero length takes an empty word vector.
        let empty = Bits::from_words(Vec::new(), 0);
        assert!(empty.is_empty());
        // Roundtrip through words() reproduces the value.
        assert_eq!(Bits::from_words(b.words().to_vec(), 70), b);
    }

    #[test]
    #[should_panic(expected = "tail bits must be zero")]
    fn from_words_rejects_dirty_tail() {
        let _ = Bits::from_words(vec![0, 1 << 7], 70);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_rejects_wrong_word_count() {
        let _ = Bits::from_words(vec![0], 70);
    }

    #[test]
    fn tail_bits_stay_zero() {
        let mut b = Bits::zeros(65);
        b.set(64, true);
        b.set(64, false);
        assert_eq!(b.words()[1], 0);
        assert_eq!(b, Bits::zeros(65));
    }
}
