//! Bit-packed rule activation matrices.
//!
//! CTFL compares the activation vector of every test instance against those
//! of the training data (Eq. 4). With `m` rules and `|D_N|` training rows a
//! naive `Vec<bool>` representation wastes memory bandwidth; packing each
//! activation vector into `u64` words turns the inner loop of the tracing
//! procedure into a handful of `AND` + `popcnt` instructions per word.

use crate::error::{CoreError, Result};

/// Sum of `weights[bit]` over the set bits of `row AND mask` (word slices).
#[inline]
pub fn masked_weight_sum_words(row: &[u64], mask: &[u64], weights: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (wi, (a, m)) in row.iter().zip(mask).enumerate() {
        let mut bits = a & m;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            sum += weights[wi * 64 + b];
            bits &= bits - 1;
        }
    }
    sum
}

/// Sum of `weights[bit]` over bits set in all three packed rows — Eq. 4's
/// numerator on borrowed word slices. Identical addition order to
/// [`masked_weight_sum_words`] (word by word, bit ascending), so results are
/// bit-for-bit reproducible across the monolithic and sharded stores.
#[inline]
pub fn triple_weight_sum_words(a: &[u64], b: &[u64], mask: &[u64], weights: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (wi, ((x, y), m)) in a.iter().zip(b).zip(mask).enumerate() {
        let mut bits = x & y & m;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            sum += weights[wi * 64 + bit];
            bits &= bits - 1;
        }
    }
    sum
}

/// FNV-1a signature over packed row words (see
/// [`ActivationMatrix::row_signature`]).
#[inline]
pub fn row_signature_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Refuses a set bit past `n_bits` in the last word of any row of a
/// row-major word arena (rows of `n_bits.div_ceil(64)` words).
fn check_tail_bits(n_bits: usize, words: &[u64]) -> Result<()> {
    let tail = n_bits % 64;
    if tail == 0 {
        return Ok(());
    }
    let words_per_row = n_bits.div_ceil(64);
    let stray = !((1u64 << tail) - 1);
    for (row, w) in words.chunks_exact(words_per_row).enumerate() {
        let bits = w[words_per_row - 1] & stray;
        if bits != 0 {
            let bit = (words_per_row - 1) * 64 + bits.trailing_zeros() as usize;
            return Err(CoreError::InvalidParameter {
                name: "activation words",
                message: format!("row {row} sets bit {bit}, past n_bits {n_bits}"),
            });
        }
    }
    Ok(())
}

/// A dense `rows × n_bits` binary matrix, one bit per (instance, rule) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationMatrix {
    n_rows: usize,
    n_bits: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl ActivationMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(n_rows: usize, n_bits: usize) -> Self {
        let words_per_row = n_bits.div_ceil(64);
        ActivationMatrix { n_rows, n_bits, words_per_row, words: vec![0; n_rows * words_per_row] }
    }

    /// Creates an empty matrix with word storage pre-reserved for
    /// `row_capacity` rows, so million-row [`ActivationMatrix::push_row`]
    /// builds don't reallocate `O(n)` times.
    pub fn with_capacity(row_capacity: usize, n_bits: usize) -> Self {
        let words_per_row = n_bits.div_ceil(64);
        ActivationMatrix {
            n_rows: 0,
            n_bits,
            words_per_row,
            words: Vec::with_capacity(row_capacity * words_per_row),
        }
    }

    /// Builds a matrix directly from a packed word arena (row-major,
    /// `n_rows × n_bits.div_ceil(64)` words). A bit set past `n_bits` in a
    /// row's last word is a typed error, as in
    /// [`ActivationMatrix::extend_from_words`].
    pub fn from_words(n_rows: usize, n_bits: usize, words: Vec<u64>) -> Result<Self> {
        let words_per_row = n_bits.div_ceil(64);
        if words.len() != n_rows * words_per_row {
            return Err(CoreError::LengthMismatch {
                what: "activation words",
                expected: n_rows * words_per_row,
                actual: words.len(),
            });
        }
        check_tail_bits(n_bits, &words)?;
        Ok(ActivationMatrix { n_rows, n_bits, words_per_row, words })
    }

    /// The full packed word arena, row-major.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Appends `n_rows` pre-packed rows (a word-level memcpy — the fast
    /// path for assembling uploads and flattening sharded stores).
    ///
    /// Every other constructor keeps the bits past `n_bits` zero, and the
    /// trace kernel and the upload audit's row signatures rely on it: a
    /// set tail bit would index past the rule weights, or tell two copies
    /// of one row apart without changing any traced bit. So a row whose
    /// last word sets such a bit is a typed error, and nothing is appended.
    pub fn extend_from_words(&mut self, n_rows: usize, words: &[u64]) -> Result<()> {
        if words.len() != n_rows * self.words_per_row {
            return Err(CoreError::LengthMismatch {
                what: "activation words",
                expected: n_rows * self.words_per_row,
                actual: words.len(),
            });
        }
        check_tail_bits(self.n_bits, words)?;
        self.n_rows += n_rows;
        self.words.extend_from_slice(words);
        Ok(())
    }

    /// Number of rows (instances).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of bits per row (rules).
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of `u64` words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Sets bit `(row, bit)` to `value`.
    ///
    /// # Panics
    /// Panics if `row` or `bit` is out of range.
    pub fn set(&mut self, row: usize, bit: usize, value: bool) {
        assert!(row < self.n_rows && bit < self.n_bits, "activation index out of range");
        let w = row * self.words_per_row + bit / 64;
        let mask = 1u64 << (bit % 64);
        if value {
            self.words[w] |= mask;
        } else {
            self.words[w] &= !mask;
        }
    }

    /// Reads bit `(row, bit)`.
    ///
    /// # Panics
    /// Panics if `row` or `bit` is out of range.
    pub fn get(&self, row: usize, bit: usize) -> bool {
        assert!(row < self.n_rows && bit < self.n_bits, "activation index out of range");
        let w = row * self.words_per_row + bit / 64;
        (self.words[w] >> (bit % 64)) & 1 == 1
    }

    /// The packed words of one row.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn row_words(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Number of set bits in a row.
    pub fn row_count(&self, row: usize) -> u32 {
        self.row_words(row).iter().map(|w| w.count_ones()).sum()
    }

    /// Calls `f(bit)` for every set bit in `row`, ascending, without
    /// allocating.
    #[inline]
    pub fn for_each_bit(&self, row: usize, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.row_words(row).iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                f(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Appends a row given as a boolean slice.
    pub fn push_row(&mut self, bits: &[bool]) -> Result<()> {
        if bits.len() != self.n_bits {
            return Err(CoreError::LengthMismatch {
                what: "activation row",
                expected: self.n_bits,
                actual: bits.len(),
            });
        }
        let row = self.n_rows;
        self.n_rows += 1;
        self.words.resize(self.n_rows * self.words_per_row, 0);
        for (bit, &b) in bits.iter().enumerate() {
            if b {
                self.set(row, bit, true);
            }
        }
        Ok(())
    }

    /// Builds a matrix from per-row boolean slices.
    pub fn from_rows(n_bits: usize, rows: &[Vec<bool>]) -> Result<Self> {
        let mut m = ActivationMatrix::with_capacity(rows.len(), n_bits);
        for row in rows {
            m.push_row(row)?;
        }
        Ok(m)
    }

    /// Sum of `weights[bit]` over the set bits of `row AND mask`.
    ///
    /// This is the weighted activation count `w* · r*(x)` of Eq. 4 restricted
    /// to the class mask.
    pub fn masked_weight_sum(&self, row: usize, mask: &[u64], weights: &[f64]) -> f64 {
        debug_assert_eq!(mask.len(), self.words_per_row);
        masked_weight_sum_words(self.row_words(row), mask, weights)
    }

    /// Sets bit-column `bit` from a row-indexed bitmask (`rows[i / 64] >>
    /// (i % 64)` is row `i`'s value, as produced by the batch evaluator).
    ///
    /// Only *sets* bits — callers scatter into an all-zero column. The cost
    /// is proportional to the number of set bits, which for typical sparse
    /// activations beats a full 64×64 bit transpose.
    ///
    /// # Panics
    /// Panics if `bit >= n_bits` or the mask covers more rows than the
    /// matrix has.
    pub fn scatter_bit(&mut self, bit: usize, rows: &[u64]) {
        assert!(bit < self.n_bits, "activation index out of range");
        assert!(rows.len() <= self.n_rows.div_ceil(64), "row mask wider than matrix");
        let wi = bit / 64;
        let mask = 1u64 << (bit % 64);
        for (word_i, &w) in rows.iter().enumerate() {
            let base_row = word_i * 64;
            let mut bits = w;
            while bits != 0 {
                let r = base_row + bits.trailing_zeros() as usize;
                self.words[r * self.words_per_row + wi] |= mask;
                bits &= bits - 1;
            }
        }
    }

    /// A stable 64-bit signature of a row, used to group identical
    /// activation vectors (FNV-1a over the packed words).
    pub fn row_signature(&self, row: usize) -> u64 {
        row_signature_words(self.row_words(row))
    }

    /// Builds a word mask selecting the given bit indices.
    pub fn build_mask(n_bits: usize, bits: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut mask = vec![0u64; n_bits.div_ceil(64)];
        for bit in bits {
            assert!(bit < n_bits, "mask bit out of range");
            mask[bit / 64] |= 1 << (bit % 64);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut m = ActivationMatrix::zeros(2, 130);
        m.set(0, 0, true);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(1, 129, true);
        assert!(m.get(0, 0) && m.get(0, 63) && m.get(0, 64) && m.get(1, 129));
        assert!(!m.get(0, 1) && !m.get(1, 0));
        m.set(0, 63, false);
        assert!(!m.get(0, 63));
        assert_eq!(m.row_count(0), 2);
        let mut bits = Vec::new();
        m.for_each_bit(1, |b| bits.push(b));
        assert_eq!(bits, vec![129]);
    }

    #[test]
    fn push_row_and_counts() {
        let mut m = ActivationMatrix::zeros(0, 5);
        m.push_row(&[true, false, true, false, true]).unwrap();
        m.push_row(&[false, true, true, false, false]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row_count(0), 3);
        let ones = [1.0; 5];
        let full = ActivationMatrix::build_mask(5, 0..5);
        // Only bit 2 overlaps.
        assert_eq!(triple_weight_sum_words(m.row_words(0), m.row_words(1), &full, &ones), 1.0);
        assert!(m.push_row(&[true]).is_err());
    }

    #[test]
    fn masked_and_triple_weight_sums() {
        let mut train = ActivationMatrix::zeros(0, 4);
        train.push_row(&[true, true, false, false]).unwrap();
        let mut test = ActivationMatrix::zeros(0, 4);
        test.push_row(&[true, true, true, false]).unwrap();
        let weights = [1.0, 0.5, 2.0, 4.0];
        // Mask selecting bits {0, 1, 3}.
        let mask = ActivationMatrix::build_mask(4, [0usize, 1, 3]);
        // Test row's masked weight: bits 0,1 active within mask = 1.0 + 0.5.
        assert_eq!(test.masked_weight_sum(0, &mask, &weights), 1.5);
        // Intersection within mask: bits 0,1.
        let (te, tr) = (test.row_words(0), train.row_words(0));
        assert_eq!(triple_weight_sum_words(te, tr, &mask, &weights), 1.5);
        // Full mask includes bit 2 for test row.
        let full = ActivationMatrix::build_mask(4, 0..4);
        assert_eq!(test.masked_weight_sum(0, &full, &weights), 3.5);
    }

    #[test]
    fn signatures_group_identical_rows() {
        let mut m = ActivationMatrix::zeros(0, 70);
        let row_a: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let row_b: Vec<bool> = (0..70).map(|i| i % 3 == 1).collect();
        m.push_row(&row_a).unwrap();
        m.push_row(&row_b).unwrap();
        m.push_row(&row_a).unwrap();
        assert_eq!(m.row_signature(0), m.row_signature(2));
        assert_ne!(m.row_signature(0), m.row_signature(1));
    }

    #[test]
    fn from_rows_matches_manual_construction() {
        let rows = vec![vec![true, false, true], vec![false, false, true]];
        let m = ActivationMatrix::from_rows(3, &rows).unwrap();
        let mut n = ActivationMatrix::zeros(2, 3);
        n.set(0, 0, true);
        n.set(0, 2, true);
        n.set(1, 2, true);
        assert_eq!(m, n);
    }

    #[test]
    fn scatter_bit_matches_per_row_sets() {
        // 70 rows so the row mask spans two words; 130 bits so the bit
        // column lands in the second word of each matrix row.
        let n_rows = 70;
        let mut scattered = ActivationMatrix::zeros(n_rows, 130);
        let mut reference = ActivationMatrix::zeros(n_rows, 130);
        let mut mask = vec![0u64; n_rows.div_ceil(64)];
        for i in (0..n_rows).filter(|i| i % 3 == 0) {
            mask[i / 64] |= 1 << (i % 64);
            reference.set(i, 129, true);
        }
        scattered.scatter_bit(129, &mask);
        assert_eq!(scattered, reference);
    }

    #[test]
    #[should_panic(expected = "activation index out of range")]
    fn get_out_of_range_panics() {
        let m = ActivationMatrix::zeros(1, 4);
        m.get(0, 4);
    }

    #[test]
    fn for_each_bit_matches_a_get_scan() {
        let mut m = ActivationMatrix::zeros(0, 130);
        for r in 0..5 {
            let row: Vec<bool> = (0..130).map(|i| (i * 7 + r * 13) % 5 == 0).collect();
            m.push_row(&row).unwrap();
        }
        for r in 0..m.n_rows() {
            let reference: Vec<usize> = (0..m.n_bits()).filter(|&b| m.get(r, b)).collect();
            let mut visited = Vec::new();
            m.for_each_bit(r, |b| visited.push(b));
            assert_eq!(visited, reference);
        }
    }

    #[test]
    fn word_arena_roundtrip_and_extend() {
        let rows = vec![
            (0..70).map(|i| i % 3 == 0).collect::<Vec<bool>>(),
            (0..70).map(|i| i % 4 == 1).collect::<Vec<bool>>(),
        ];
        let m = ActivationMatrix::from_rows(70, &rows).unwrap();
        let rebuilt = ActivationMatrix::from_words(2, 70, m.as_words().to_vec()).unwrap();
        assert_eq!(rebuilt, m);

        let mut grown = ActivationMatrix::with_capacity(2, 70);
        grown.extend_from_words(1, m.row_words(0)).unwrap();
        grown.extend_from_words(1, m.row_words(1)).unwrap();
        assert_eq!(grown, m);

        assert!(ActivationMatrix::from_words(2, 70, vec![0; 3]).is_err());
        assert!(grown.extend_from_words(2, m.row_words(0)).is_err());

        // A bit past n_bits in a row's last word is refused by both
        // constructors, and a refused extend appends nothing. Bits up to
        // n_bits - 1 and every bit of a full-width word are fine.
        let tail_error = |row: usize, bit: usize| CoreError::InvalidParameter {
            name: "activation words",
            message: format!("row {row} sets bit {bit}, past n_bits 70"),
        };
        assert_eq!(ActivationMatrix::from_words(1, 70, vec![1, 1 << 36]), Err(tail_error(0, 100)));
        assert_eq!(
            ActivationMatrix::from_words(2, 70, vec![0, 1 << 5, 0, 1 << 6]),
            Err(tail_error(1, 70))
        );
        assert_eq!(grown.extend_from_words(1, &[0, u64::MAX]), Err(tail_error(0, 70)));
        assert_eq!(grown, m);
        assert!(ActivationMatrix::from_words(1, 70, vec![u64::MAX, (1 << 6) - 1]).is_ok());
        assert!(ActivationMatrix::from_words(1, 128, vec![u64::MAX; 2]).is_ok());
        let mut wide = ActivationMatrix::zeros(0, 128);
        assert!(wide.extend_from_words(1, &[u64::MAX; 2]).is_ok());
    }

    #[test]
    fn with_capacity_does_not_reallocate_during_pushes() {
        let mut m = ActivationMatrix::with_capacity(100, 65);
        let cap = m.words.capacity();
        let row: Vec<bool> = (0..65).map(|i| i % 2 == 0).collect();
        for _ in 0..100 {
            m.push_row(&row).unwrap();
        }
        assert_eq!(m.words.capacity(), cap);
        assert_eq!(m.n_rows(), 100);
    }
}
