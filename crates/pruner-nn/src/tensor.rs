//! Dense 2-D tensors.
//!
//! Everything in the framework is a row-major `rows × cols` matrix: batches
//! are rows, features are columns, scalars are `1×1` and biases are `1×d`.
//! Restricting to 2-D keeps the autodiff core small without limiting the
//! models this reproduction needs (per-group sequence ops handle the
//! attention batching).

use crate::gemm;
use rand::Rng;
use serde::{content_get, Content, Deserialize, Error, Serialize};
use std::fmt;

/// A row-major `rows × cols` matrix of `f32`.
///
/// Serializes as `{"rows":R,"cols":C,"data":"…"}`, where `data` is one
/// lowercase hex string of the IEEE-754 bit patterns, eight digits per
/// value, most significant nibble first (`1.0` is `"3f800000"`). Every
/// bit survives, NaN payloads and infinities included, and nothing goes
/// through float formatting. The decoder also reads the numeric `data`
/// array written before that encoding, so unversioned model files from
/// earlier builds still load.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Tensor { rows, cols, data }
    }

    /// A `1×1` scalar tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// Kaiming-uniform initialization for a `fan_in → fan_out` weight.
    pub(crate) fn kaiming(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
        let bound = (6.0 / rows as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consumes the tensor, returning its backing buffer (used by the
    /// [`crate::Workspace`] arena to recycle allocations across tape runs).
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes in place, resizing the backing buffer as needed.
    ///
    /// Existing contents are unspecified afterwards — callers are expected
    /// to overwrite every element (the `*_into` kernels do). This is how
    /// pooled workspace buffers get retargeted without reallocating.
    pub(crate) fn reshape_for(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to zero in place.
    pub(crate) fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self + alpha * other`, in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Dense matrix product `self × other`.
    ///
    /// Runs on the register-blocked kernel in [`crate::gemm`]; each output
    /// element is the plain ascending-`k` sum, so results are bit-identical
    /// to the naive triple loop (and `0·NaN`/`0·∞` propagate — there is no
    /// data-dependent zero skip).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self × other` into a caller-provided buffer, reshaping `out` and
    /// overwriting it entirely (dirty contents are fine).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        out.reshape_for(self.rows, other.cols);
        gemm::matmul_into(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            1,
        );
    }

    /// `self × otherᵀ`.
    ///
    /// # Panics
    /// Panics if the column counts disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self × otherᵀ` into a caller-provided buffer, reshaping `out` and
    /// overwriting it entirely.
    ///
    /// # Panics
    /// Panics if the column counts disagree.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.cols, "matmul_nt column mismatch");
        out.reshape_for(self.rows, other.rows);
        gemm::matmul_nt_into(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
            1,
        );
    }

    /// `selfᵀ × other`.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `selfᵀ × other` into a caller-provided buffer, reshaping `out` and
    /// overwriting it entirely.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "matmul_tn row mismatch");
        out.reshape_for(self.cols, other.cols);
        gemm::matmul_tn_into(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            1,
        );
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// Lowercase hex digits, indexed by nibble.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// The value of each lowercase hex digit, indexed by byte; every other
/// byte maps to `0xff`, so OR-ing a word's entries exposes any stray one.
const NIBBLE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// `data` as one hex string, eight digits per value.
fn encode_bits(data: &[f32]) -> String {
    let mut out = vec![0; data.len() * 8];
    for (word, v) in out.chunks_exact_mut(8).zip(data) {
        let bits = v.to_bits();
        for (i, digit) in word.iter_mut().enumerate() {
            *digit = HEX[(bits >> (28 - 4 * i) & 0xf) as usize];
        }
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// The inverse of [`encode_bits`]: whole 8-digit words of lowercase hex.
fn decode_bits(hex: &str) -> Result<Vec<f32>, Error> {
    if !hex.len().is_multiple_of(8) {
        return Err(Error::custom(format!(
            "Tensor data is {} hex digits, not whole 8-digit words",
            hex.len()
        )));
    }
    let mut data = Vec::with_capacity(hex.len() / 8);
    for (i, word) in hex.as_bytes().chunks_exact(8).enumerate() {
        let (mut bits, mut stray) = (0u32, 0u8);
        for &digit in word {
            let nibble = NIBBLE[usize::from(digit)];
            stray |= nibble;
            bits = bits << 4 | u32::from(nibble & 0xf);
        }
        if stray > 0xf {
            return Err(Error::custom(format!("Tensor data word {i} is not lowercase hex")));
        }
        data.push(f32::from_bits(bits));
    }
    Ok(data)
}

impl Serialize for Tensor {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("rows".to_string(), self.rows.to_content()),
            ("cols".to_string(), self.cols.to_content()),
            ("data".to_string(), Content::Str(encode_bits(&self.data))),
        ])
    }
}

impl Deserialize for Tensor {
    fn from_content(c: &Content) -> Result<Tensor, Error> {
        let map = c.as_map().ok_or_else(|| Error::invalid_type("Tensor", "map"))?;
        let field =
            |name| content_get(map, name).ok_or_else(|| Error::missing_field("Tensor", name));
        let rows = usize::from_content(field("rows")?)?;
        let cols = usize::from_content(field("cols")?)?;
        let data = match field("data")? {
            Content::Str(hex) => decode_bits(hex)?,
            // Files from before the bit-string encoding (decimals, with
            // non-finite values as `null`).
            legacy @ Content::Seq(_) => Vec::<f32>::from_content(legacy)?,
            _ => return Err(Error::invalid_type("Tensor", "hex string or number array as data")),
        };
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(Error::custom(format!(
                "Tensor data holds {} values, shape is {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Tensor { rows, cols, data })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        let c = a.matmul_nt(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[4., 2., 10., 5.]);
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 2, vec![5., 6., 7., 8.]);
        // aᵀ b = [[1,3],[2,4]]ᵀ... aᵀ = [[1,3],[2,4]] gives [[26,30],[38,44]].
        let c = a.matmul_tn(&b);
        assert_eq!(c.as_slice(), &[26., 30., 38., 44.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(1, 3);
        let b = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn kaiming_is_bounded_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Tensor::kaiming(64, 32, &mut rng);
        let bound = (6.0f32 / 64.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= bound));
        let mut rng2 = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(t, Tensor::kaiming(64, 32, &mut rng2));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        a.matmul(&b);
    }

    #[test]
    fn zero_times_nan_propagates() {
        // Regression: the old kernels skipped `a == 0.0` contributions,
        // silently swallowing NaN/Inf in the other operand. IEEE says
        // 0·NaN = NaN and 0·∞ = NaN.
        let a = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Tensor::from_vec(2, 1, vec![f32::NAN, 1.0]);
        assert!(a.matmul(&b).at(0, 0).is_nan(), "0·NaN must propagate through matmul");
        let binf = Tensor::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        assert!(a.matmul(&binf).at(0, 0).is_nan(), "0·∞ must propagate through matmul");
        let at = Tensor::from_vec(2, 1, vec![0.0, 0.0]);
        let bt = Tensor::from_vec(2, 1, vec![f32::NAN, 1.0]);
        assert!(at.matmul_tn(&bt).at(0, 0).is_nan(), "0·NaN must propagate through matmul_tn");
        let ant = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let bnt = Tensor::from_vec(1, 2, vec![f32::NAN, 1.0]);
        assert!(ant.matmul_nt(&bnt).at(0, 0).is_nan(), "0·NaN must propagate through matmul_nt");
    }

    #[test]
    fn matmul_into_overwrites_dirty_buffer() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let fresh = a.matmul(&b);
        let mut dirty = Tensor::full(5, 7, f32::NAN); // wrong shape AND poisoned
        a.matmul_into(&b, &mut dirty);
        assert_eq!(dirty, fresh);
    }

    #[test]
    fn accessors() {
        let mut t = Tensor::zeros(2, 2);
        *t.at_mut(1, 0) = 5.0;
        assert_eq!(t.at(1, 0), 5.0);
        assert_eq!(t.row(1), &[5.0, 0.0]);
        assert_eq!(t.mean(), 1.25);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn data_serializes_as_one_big_endian_hex_string() {
        let t = Tensor::from_vec(1, 3, vec![1.0, -0.0, f32::INFINITY]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"rows":1,"cols":3,"data":"3f800000800000007f800000"}"#);
        let empty = serde_json::to_string(&Tensor::zeros(0, 4)).unwrap();
        assert_eq!(empty, r#"{"rows":0,"cols":4,"data":""}"#);
        assert_eq!(serde_json::from_str::<Tensor>(&empty).unwrap(), Tensor::zeros(0, 4));
    }

    #[test]
    fn legacy_number_arrays_still_decode() {
        let t: Tensor =
            serde_json::from_str(r#"{"rows":2,"cols":2,"data":[1.0,-0.25,3,null]}"#).unwrap();
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(&t.as_slice()[..3], &[1.0, -0.25, 3.0]);
        assert!(t.at(1, 1).is_nan(), "legacy `null` reads back as NaN");
    }

    #[test]
    fn malformed_data_is_a_typed_error() {
        let cases = [
            (r#"{"rows":2,"cols":2,"data":[1.0]}"#, "holds 1 values"),
            (r#"{"rows":2,"cols":2,"data":"3f800000"}"#, "holds 1 values"),
            (r#"{"rows":1,"cols":1,"data":"3f80000"}"#, "not whole 8-digit words"),
            (r#"{"rows":1,"cols":1,"data":"3f80000g"}"#, "word 0 is not lowercase hex"),
            (r#"{"rows":1,"cols":2,"data":"3f800000+f800000"}"#, "word 1 is not"),
            (r#"{"rows":1,"cols":1,"data":"3F800000"}"#, "not lowercase hex"),
            (r#"{"rows":1,"cols":1,"data":"3f8000é"}"#, "not lowercase hex"),
            (r#"{"rows":1,"cols":1,"data":1.0}"#, "hex string or number array"),
            (r#"{"rows":1,"cols":1}"#, "missing field `data`"),
            (r#"{"rows":4294967296,"cols":4294967296,"data":""}"#, "shape is"),
        ];
        for (json, expected) in cases {
            let err = serde_json::from_str::<Tensor>(json).expect_err(json).to_string();
            assert!(err.contains(expected), "{json}: {err}");
        }
    }

    /// IEEE-754 single bit patterns, weighted towards the ones decimal
    /// printing loses or mangles.
    fn f32_bits() -> impl Strategy<Value = u32> {
        prop_oneof![
            0u32..=u32::MAX,
            Just(0x0000_0000u32),
            Just(0x8000_0000u32),
            0x0000_0001u32..0x0080_0000,
            0x8000_0001u32..0x8080_0000,
            Just(0x7f80_0000u32),
            Just(0xff80_0000u32),
            0x7f80_0001u32..=0x7fff_ffff,
            0xff80_0001u32..=0xffff_ffff,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_bit_pattern_round_trips(
            words in prop::collection::vec(f32_bits(), 0..48),
            split in 1usize..4,
        ) {
            let rows = if words.len() % split == 0 { split } else { 1 };
            let t = Tensor::from_vec(
                rows,
                words.len() / rows,
                words.iter().map(|&w| f32::from_bits(w)).collect(),
            );
            for text in [serde_json::to_string(&t).unwrap(), serde_json::to_string_pretty(&t).unwrap()] {
                let back: Tensor = serde_json::from_str(&text).unwrap();
                prop_assert_eq!(back.shape(), t.shape());
                prop_assert_eq!(bits(&back), words.clone());
            }
        }
    }
}
