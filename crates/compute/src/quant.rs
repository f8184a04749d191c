//! Quantized (int8) arithmetic: the datatype real NPUs run inference in,
//! and the crate's only numeric domain.
//!
//! Feature maps and weights are `i8` with a per-tensor scale (metadata
//! the wire codec carries; no arithmetic reads it); products accumulate
//! exactly in `i32`, so tiled and direct execution are *bit-identical*
//! regardless of accumulation order. Every equality test in the crate
//! is exact.

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// A quantized 3-D tensor (`channel × row × col`, row-major `i8`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTensor3 {
    /// Channels.
    pub c: usize,
    /// Rows.
    pub h: usize,
    /// Columns.
    pub w: usize,
    /// Per-tensor dequantization scale (`real = q · scale`).
    pub scale: f32,
    data: Vec<i8>,
}

impl QTensor3 {
    /// Creates a zero tensor with the given scale.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn zeros(c: usize, h: usize, w: usize, scale: f32) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "dimensions must be non-zero");
        Self {
            c,
            h,
            w,
            scale,
            data: vec![0; c * h * w],
        }
    }

    /// A tensor over `data`, in row-major `c × h × w` order.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `data` does not hold `c · h · w`
    /// values.
    #[must_use]
    pub fn from_vec(c: usize, h: usize, w: usize, scale: f32, data: Vec<i8>) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "dimensions must be non-zero");
        assert_eq!(data.len(), c * h * w, "data length must be c·h·w");
        Self {
            c,
            h,
            w,
            scale,
            data,
        }
    }

    /// Every value, in row-major `c × h × w` order.
    #[must_use]
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Deterministic pseudo-random int8 fill.
    #[must_use]
    pub fn seeded(c: usize, h: usize, w: usize, seed: u64) -> Self {
        let mut t = Self::zeros(c, h, w, 1.0 / 64.0);
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).max(1);
        for v in &mut t.data {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 255) as i64 as i8;
        }
        t
    }

    /// Value at `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, c: usize, y: usize, x: usize) -> i8 {
        self.data[(c * self.h + y) * self.w + x]
    }

    /// Zero-padded access.
    #[inline]
    #[must_use]
    pub fn get_padded(&self, c: usize, y: isize, x: isize) -> i8 {
        if y < 0 || x < 0 || y as usize >= self.h || x as usize >= self.w {
            0
        } else {
            self.get(c, y as usize, x as usize)
        }
    }

    /// Mutable access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn at_mut(&mut self, c: usize, y: usize, x: usize) -> &mut i8 {
        &mut self.data[(c * self.h + y) * self.w + x]
    }
}

/// A quantized filter bank (`k × c × r × s`, `i8`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTensor4 {
    /// Output channels.
    pub k: usize,
    /// Input channels.
    pub c: usize,
    /// Filter rows.
    pub r: usize,
    /// Filter cols.
    pub s: usize,
    /// Per-tensor scale.
    pub scale: f32,
    data: Vec<i8>,
}

impl QTensor4 {
    /// Deterministic pseudo-random filters.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn seeded(k: usize, c: usize, r: usize, s: usize, seed: u64) -> Self {
        assert!(
            k > 0 && c > 0 && r > 0 && s > 0,
            "dimensions must be non-zero"
        );
        let mut data = vec![0i8; k * c * r * s];
        let mut state = seed.wrapping_mul(0x9E6C_63D0_876A_9A43).max(1);
        for v in &mut data {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 255) as i64 as i8;
        }
        Self {
            k,
            c,
            r,
            s,
            scale: 1.0 / 128.0,
            data,
        }
    }

    /// Value at `(k, c, r, s)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, k: usize, c: usize, r: usize, s: usize) -> i8 {
        self.data[((k * self.c + c) * self.r + r) * self.s + s]
    }
}

/// A 32-bit accumulator plane for quantized convolution outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QAccum3 {
    /// Channels.
    pub k: usize,
    /// Rows.
    pub h: usize,
    /// Cols.
    pub w: usize,
    data: Vec<i32>,
}

impl QAccum3 {
    /// Zero accumulators.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn zeros(k: usize, h: usize, w: usize) -> Self {
        assert!(k > 0 && h > 0 && w > 0, "dimensions must be non-zero");
        Self {
            k,
            h,
            w,
            data: vec![0; k * h * w],
        }
    }

    /// An accumulator plane over `data`, in row-major `k × h × w` order.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `data` does not hold `k · h · w`
    /// values.
    #[must_use]
    pub fn from_vec(k: usize, h: usize, w: usize, data: Vec<i32>) -> Self {
        assert!(k > 0 && h > 0 && w > 0, "dimensions must be non-zero");
        assert_eq!(data.len(), k * h * w, "data length must be k·h·w");
        Self { k, h, w, data }
    }

    /// Every value, in row-major `k × h × w` order.
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Value at `(k, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, k: usize, y: usize, x: usize) -> i32 {
        self.data[(k * self.h + y) * self.w + x]
    }

    /// Mutable access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn at_mut(&mut self, k: usize, y: usize, x: usize) -> &mut i32 {
        &mut self.data[(k * self.h + y) * self.w + x]
    }
}

/// Largest layer depth `c · r · s` the kernel accepts: ⌊(2³¹ − 1) / 128²⌋.
/// An int8 product is at most 128² in magnitude, so a sum of this many
/// stays inside `i32`, and so does every partial sum on the way. Below
/// the bound no addition can overflow, and any accumulation order gives
/// the same bits. The zoo's deepest layer, VGG16's first
/// fully-connected layer, has 25,088.
pub(crate) const MAX_DEPTH: usize = i32::MAX as usize / (128 * 128);

/// One convolution's operands: `input` convolved by `weights` at
/// `stride`, with "same" padding (`pad = (R−1)/2`).
pub(crate) struct Operands<'a> {
    pub(crate) input: &'a QTensor3,
    pub(crate) weights: &'a QTensor4,
    pub(crate) stride: usize,
}

impl Operands<'_> {
    /// The zero output plane (`k × ⌈h/stride⌉ × ⌈w/stride⌉`).
    ///
    /// # Panics
    ///
    /// Panics if channel counts disagree or `stride` is zero.
    pub(crate) fn output_plane(&self) -> QAccum3 {
        let (input, weights, stride) = (self.input, self.weights, self.stride);
        assert_eq!(input.c, weights.c, "channel mismatch");
        assert!(stride > 0, "stride must be positive");
        QAccum3::zeros(
            weights.k,
            input.h.div_ceil(stride),
            input.w.div_ceil(stride),
        )
    }

    /// The one accumulate kernel behind [`qconv2d`], [`qconv2d_grouped`]
    /// and [`crate::executor::execute_qconv`]: adds into `out` the
    /// partial convolution over output channels `ks`, output pixels
    /// `ys × xs` and input channels `cs`.
    ///
    /// For each output pixel it gathers the zero-padded receptive field
    /// over `cs` once, in the weights' `c · r · s` order, and then takes
    /// one contiguous dot product against each output channel's weight
    /// row. Padding and bounds checks stay in the gather, out of the
    /// multiply-accumulate loop.
    ///
    /// # Panics
    ///
    /// Panics if the layer depth `weights.c · r · s` exceeds
    /// [`MAX_DEPTH`], the bound below which `i32` sums are exact.
    pub(crate) fn accumulate(
        &self,
        out: &mut QAccum3,
        ks: Range<usize>,
        (ys, xs): (Range<usize>, Range<usize>),
        cs: Range<usize>,
    ) {
        let weights = self.weights;
        let taps = weights.r * weights.s;
        let depth = weights.c * taps;
        assert!(
            depth <= MAX_DEPTH,
            "layer depth {depth} exceeds {MAX_DEPTH}, the most an i32 accumulator holds exactly"
        );
        let mut field = vec![0i16; cs.len() * taps];
        let plane = out.h * out.w;
        for y in ys {
            for x in xs.clone() {
                self.gather(&mut field, (y, x), cs.clone());
                let pixel = y * out.w + x;
                for k in ks.clone() {
                    let row = k * depth + cs.start * taps;
                    out.data[k * plane + pixel] +=
                        dot(&field, &weights.data[row..row + field.len()]);
                }
            }
        }
    }

    /// Writes into `field` the zero-padded receptive field of output
    /// pixel `(y, x)` over input channels `cs`, in `c · r · s` order.
    /// Values are widened to `i16` here, once per pixel, so that [`dot`]
    /// widens only the weights.
    fn gather(&self, field: &mut [i16], (y, x): (usize, usize), cs: Range<usize>) {
        let (input, r, s) = (self.input, self.weights.r, self.weights.s);
        let top = (y * self.stride) as isize - (r as isize - 1) / 2;
        let left = (x * self.stride) as isize - (s as isize - 1) / 2;
        let (rows, cols) = (inside(top, r, input.h), inside(left, s, input.w));
        if rows.len() < r || cols.len() < s {
            field.fill(0);
        }
        for (c, window) in cs.zip(field.chunks_exact_mut(r * s)) {
            for dy in rows.clone() {
                let iy = (top + dy as isize) as usize;
                let from = (c * input.h + iy) * input.w + (left + cols.start as isize) as usize;
                let to = &mut window[dy * s + cols.start..dy * s + cols.end];
                for (v, &q) in to.iter_mut().zip(&input.data[from..from + cols.len()]) {
                    *v = i16::from(q);
                }
            }
        }
    }
}

/// The offsets `0..len` of a window starting at `start` whose
/// positions `start + offset` fall inside `0..bound`.
fn inside(start: isize, len: usize, bound: usize) -> Range<usize> {
    let lo = (-start).clamp(0, len as isize);
    let hi = (bound as isize - start).clamp(lo, len as isize);
    lo as usize..hi as usize
}

/// Exact dot product of a gathered receptive field and a weight row:
/// [`MAX_DEPTH`] keeps the `i32` sum from overflowing.
#[inline]
fn dot(field: &[i16], weights: &[i8]) -> i32 {
    field
        .iter()
        .zip(weights)
        .map(|(&f, &w)| i32::from(f) * i32::from(i16::from(w)))
        .sum()
}

/// Direct quantized convolution with exact i32 accumulation
/// ("same" padding, arbitrary stride): [`qconv2d_grouped`] with one
/// group spanning every input channel.
///
/// # Panics
///
/// Panics if channel counts disagree, `stride` is zero, or the layer
/// depth `c · r · s` exceeds 131,071, the most products an `i32`
/// accumulator sums exactly.
#[must_use]
pub fn qconv2d(input: &QTensor3, weights: &QTensor4, stride: usize) -> QAccum3 {
    qconv2d_grouped(input, weights, stride, std::slice::from_ref(&(0..input.c)))
}

/// Quantized convolution accumulated one channel group at a time, in
/// the given order — a tiled dataflow's accumulation pattern. Because
/// i32 addition is associative and commutative, this equals [`qconv2d`]
/// *exactly* whenever the groups partition `0..c`.
///
/// # Panics
///
/// Panics if channel counts disagree, `stride` is zero, or the layer
/// depth `c · r · s` exceeds 131,071, the most products an `i32`
/// accumulator sums exactly.
#[must_use]
pub fn qconv2d_grouped(
    input: &QTensor3,
    weights: &QTensor4,
    stride: usize,
    channel_group_order: &[Range<usize>],
) -> QAccum3 {
    let conv = Operands {
        input,
        weights,
        stride,
    };
    let mut out = conv.output_plane();
    let plane = (0..out.h, 0..out.w);
    for group in channel_group_order {
        conv.accumulate(&mut out, 0..weights.k, plane.clone(), group.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_accumulation_is_bit_identical_to_direct() {
        let input = QTensor3::seeded(6, 8, 8, 1);
        let weights = QTensor4::seeded(4, 6, 3, 3, 2);
        let direct = qconv2d(&input, &weights, 1);
        // Several group decompositions, including out-of-order ones.
        let orders: Vec<Vec<Range<usize>>> = vec![
            vec![0..6],
            vec![0..2, 2..4, 4..6],
            vec![4..6, 0..2, 2..4],
            vec![0..1, 1..2, 2..3, 3..4, 4..5, 5..6],
        ];
        for order in orders {
            let grouped = qconv2d_grouped(&input, &weights, 1, &order);
            assert_eq!(grouped, direct, "order {order:?} must be bit-identical");
        }
    }

    #[test]
    fn strided_quantized_conv_shrinks_output() {
        let input = QTensor3::seeded(2, 8, 8, 3);
        let weights = QTensor4::seeded(3, 2, 3, 3, 4);
        let out = qconv2d(&input, &weights, 2);
        assert_eq!((out.k, out.h, out.w), (3, 4, 4));
    }

    #[test]
    #[should_panic(expected = "layer depth 131076 exceeds 131071")]
    fn a_layer_deeper_than_the_exact_bound_is_refused() {
        // 14,564 input channels × 3 × 3 = 131,076 > MAX_DEPTH.
        let input = QTensor3::seeded(14_564, 1, 1, 1);
        let weights = QTensor4::seeded(1, 14_564, 3, 3, 2);
        let _ = qconv2d(&input, &weights, 1);
    }

    #[test]
    fn the_deepest_zoo_layer_is_within_the_exact_bound() {
        // VGG16's first fully-connected layer: 25,088 inputs.
        let (k, c) = (2, 25_088);
        let input = QTensor3::seeded(c, 1, 1, 1);
        let weights = QTensor4::seeded(k, c, 1, 1, 2);
        let out = qconv2d(&input, &weights, 1);
        for kk in 0..k {
            let direct: i32 = (0..c)
                .map(|cc| i32::from(input.get(cc, 0, 0)) * i32::from(weights.get(kk, cc, 0, 0)))
                .sum();
            assert_eq!(out.get(kk, 0, 0), direct);
        }
    }

    #[test]
    fn padded_access_is_zero() {
        let t = QTensor3::seeded(1, 2, 2, 9);
        assert_eq!(t.get_padded(0, -1, 0), 0);
        assert_eq!(t.get_padded(0, 0, 5), 0);
    }
}
