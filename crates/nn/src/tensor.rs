//! Dense row-major `f32` tensors with the operations the model zoo needs.
//!
//! This is deliberately a small, predictable tensor library: shapes are
//! explicit, operations are eager, and there is no broadcasting beyond the
//! row-wise bias case. The quantized compute flow of Fig. 8 lives in
//! [`crate::qflow`]; this module provides the exact arithmetic underneath.

use mx_core::fgemm;
use mx_core::gemm::PackedOperand;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
// (`Arc` is still used by `CachedPlane::plane`, shared with the executing
// GEMM after the slot's lock is released.)

/// Process-wide monotone counter behind [`Tensor::generation`]: every
/// tensor construction or mutable-data access draws a fresh, globally
/// unique value, so "same generation" implies "same bits".
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn next_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// A weight code plane cached on a tensor: the [`PackedOperand`] built for
/// one `(weight format, kernel class)`, stamped with the generation of the
/// data it was packed from. A lookup only hits when the stamp still matches
/// [`Tensor::generation`] — any in-place mutation (optimizer steps
/// included) bumps the generation and thereby invalidates the entry. The
/// key itself lives on the plane (`format()` / `accepts(fa)`): the codes
/// depend only on the weight format, the class on the activation partner
/// (see `crate::qflow`).
#[derive(Clone)]
pub(crate) struct CachedPlane {
    pub(crate) gen: u64,
    pub(crate) plane: Arc<PackedOperand>,
}

/// Per-tensor plane cache: a small set of [`CachedPlane`]s, one per weight
/// format and kernel class, allocated lazily so tensors that never serve
/// as quantized weights pay nothing. Holding every live format (rather than one entry)
/// is what makes the cache safe to share under serving traffic: requests
/// that alternate weight formats against one model each keep their own
/// plane instead of perpetually evicting each other's (see `crate::qflow`
/// for the bound and the eviction rule). The `Mutex` makes concurrent
/// lookups from N serving threads safe; each clone still gets its own
/// (cold) cache — sharing would let two diverged clones used as weights
/// thrash each other's entries.
type PlaneSlot = Mutex<Vec<CachedPlane>>;

/// A dense row-major tensor of `f32` values.
///
/// Each tensor carries a globally unique *generation* that changes on every
/// mutable-data access — the invalidation signal for the cached weight code
/// plane (see [`crate::qflow`]).
///
/// # Examples
///
/// ```
/// # use mx_nn::tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b).data(), a.data());
/// ```
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
    gen: u64,
    plane: OnceLock<PlaneSlot>,
}

impl Clone for Tensor {
    /// Clones data and generation but **not** the plane-cache slot: the
    /// clone starts cold (at worst one repack per format) instead of
    /// sharing a cache that diverged clones would thrash.
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
            gen: self.gen,
            plane: OnceLock::new(),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... ({} values)]",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} != shape {:?}",
            data.len(),
            shape
        );
        Tensor::with_data(shape.to_vec(), data)
    }

    /// The one constructor every tensor goes through: stamps a fresh
    /// generation and an empty (unallocated) plane-cache slot.
    fn with_data(shape: Vec<usize>, data: Vec<f32>) -> Self {
        Tensor {
            shape,
            data,
            gen: next_gen(),
            plane: OnceLock::new(),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::with_data(shape.to_vec(), vec![0.0; shape.iter().product()])
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::with_data(shape.to_vec(), vec![value; shape.iter().product()])
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    ///
    /// Bumps the tensor's [`generation`](Tensor::generation): any cached
    /// weight code plane built from the previous contents is invalidated,
    /// whether or not the caller actually writes.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.gen = next_gen();
        &mut self.data
    }

    /// The tensor's data generation: a globally unique stamp that changes
    /// on every mutable-data access. Two reads returning the same value
    /// guarantee the data bits have not changed in between — this is the
    /// staleness check behind the weight-plane cache (see
    /// [`crate::qflow`]).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The lazily allocated weight-plane cache slot.
    pub(crate) fn plane_slot(&self) -> &Mutex<Vec<CachedPlane>> {
        self.plane.get_or_init(PlaneSlot::default)
    }

    /// Generation stamp of the most recently cached weight code plane, if
    /// any has been built. A `Some` equal to [`Tensor::generation`] means
    /// the next quantized matmul with matching formats will reuse a plane;
    /// any other value means the cache is cold or stale.
    pub fn cached_plane_generation(&self) -> Option<u64> {
        self.plane.get().and_then(|slot| {
            slot.lock()
                .expect("plane cache poisoned")
                .last()
                .map(|c| c.gen)
        })
    }

    /// Number of weight code planes currently cached on this tensor (one
    /// per weight format and kernel class seen since the last data
    /// mutation).
    pub fn cached_plane_count(&self) -> usize {
        self.plane
            .get()
            .map(|slot| slot.lock().expect("plane cache poisoned").len())
            .unwrap_or(0)
    }

    /// Consumes the tensor, returning its data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows when viewed as 2-D (product of all but the last
    /// dimension).
    ///
    /// # Panics
    ///
    /// Panics on 0-dimensional tensors.
    pub fn rows(&self) -> usize {
        assert!(!self.shape.is_empty());
        self.numel() / self.cols()
    }

    /// Size of the last dimension.
    pub fn cols(&self) -> usize {
        *self
            .shape
            .last()
            .expect("tensor must have at least one dimension")
    }

    /// Returns a reshaped copy (same data, new shape).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Matrix product `self[M,K] × other[K,N]`, viewing `self` as 2-D with
    /// its last dimension as `K`.
    ///
    /// Runs on [`mx_core::fgemm`]'s cache-blocked, vectorized kernel
    /// (row-parallel on large products) — bit-identical to the seed's
    /// naive triple loop, including the zero-skip rule: zero lhs elements
    /// are only skipped when the rhs is entirely finite, so `0.0 × ∞` and
    /// `0.0 × NaN` still propagate NaN.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let m = self.rows();
        let k = self.cols();
        assert_eq!(other.shape.len(), 2, "rhs of matmul must be 2-D");
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dims: {k} vs {k2}");
        let out = fgemm::matmul(&self.data, &other.data, m, k, n, 0);
        let mut shape: Vec<usize> = self.shape[..self.shape.len() - 1].to_vec();
        shape.push(n);
        Tensor::from_vec(out, &shape)
    }

    /// 2-D transpose (views the tensor as `[rows, cols]`).
    pub fn transpose2d(&self) -> Tensor {
        let m = self.rows();
        let n = self.cols();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::with_data(
            self.shape.clone(),
            self.data.iter().map(|&x| f(x)).collect(),
        )
    }

    /// Applies `f` pairwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        Tensor::with_data(
            self.shape.clone(),
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Adds `row` (a 1-D tensor of length `cols()`) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not 1-D of matching width.
    pub fn add_row(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.shape.len(), 1);
        assert_eq!(row.numel(), self.cols(), "bias width mismatch");
        let mut out = self.data.clone();
        add_row_slice(&mut out, &row.data);
        Tensor::with_data(self.shape.clone(), out)
    }

    /// Sums over all rows, returning a 1-D tensor of length `cols()`.
    pub fn sum_rows(&self) -> Tensor {
        let n = self.cols();
        let mut out = vec![0.0f32; n];
        for (i, &v) in self.data.iter().enumerate() {
            out[i % n] += v;
        }
        Tensor::from_vec(out, &[n])
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Largest absolute value (0 for empty tensors).
    pub fn amax(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Sum of squares.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// Row-wise softmax over the last dimension.
    pub fn softmax_rows(&self) -> Tensor {
        let n = self.cols();
        let mut out = self.data.clone();
        for row in out.chunks_mut(n) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Tensor::with_data(self.shape.clone(), out)
    }

    /// Extracts rows `start..end` (2-D view).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let n = self.cols();
        assert!(end <= self.rows() && start <= end, "row slice out of range");
        Tensor::from_vec(self.data[start * n..end * n].to_vec(), &[end - start, n])
    }

    /// Stacks 2-D tensors on top of each other.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or `parts` is empty.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of nothing");
        let n = parts[0].cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols(), n, "width mismatch in concat");
            data.extend_from_slice(&p.data);
            rows += p.rows();
        }
        Tensor::from_vec(data, &[rows, n])
    }
}

/// Adds `row` to every `row.len()`-wide row of `data` in place (nothing
/// for an empty `row`). The one bias add behind [`Tensor::add_row`],
/// `Linear`'s forward pass and the `plan` executor's GEMM nodes.
pub(crate) fn add_row_slice(data: &mut [f32], row: &[f32]) {
    for chunk in data.chunks_exact_mut(row.len().max(1)) {
        for (v, &b) in chunk.iter_mut().zip(row) {
            *v += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_3d_lhs_flattens_leading_dims() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 2, 3]);
        let b = Tensor::eye(3);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 3]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let t = a.transpose2d();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(t.transpose2d(), a);
    }

    #[test]
    fn matmul_transpose_identity() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec((0..6).map(|i| (i as f32).sin()).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).cos()).collect(), &[3, 4]);
        let lhs = a.matmul(&b).transpose2d();
        let rhs = b.transpose2d().matmul(&a.transpose2d());
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn elementwise_and_bias() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[2, 2]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(&a).data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        let bias = Tensor::from_vec(vec![100.0, 200.0], &[2]);
        assert_eq!(a.add_row(&bias).data(), &[101.0, 202.0, 103.0, 204.0]);
    }

    #[test]
    fn sum_rows_and_mean() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.amax(), 4.0);
        assert_eq!(a.sq_norm(), 30.0);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = a.softmax_rows();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Large logits do not overflow (max subtraction).
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn slicing_and_concat() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]);
        let top = a.slice_rows(0, 2);
        let bottom = a.slice_rows(2, 4);
        assert_eq!(Tensor::concat_rows(&[&top, &bottom]), a);
    }

    #[test]
    fn eye_is_matmul_identity() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32 * 0.3).collect(), &[3, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(3).matmul(&a), a);
    }

    #[test]
    fn matmul_zero_rows_propagate_non_finite_rhs() {
        // 0·∞ and 0·NaN must reach the output as NaN; the zero-skip
        // shortcut used to silently drop them.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]);
        assert!(a.matmul(&b).data()[0].is_nan(), "0 x inf must be NaN");
        let bn = Tensor::from_vec(vec![f32::NAN, 2.0], &[2, 1]);
        assert!(a.matmul(&bn).data()[0].is_nan(), "0 x NaN must be NaN");
        // A fully finite rhs still takes the fast path and stays exact.
        let bf = Tensor::from_vec(vec![3.0, 2.0], &[2, 1]);
        assert_eq!(a.matmul(&bf).data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn generation_bumps_on_mutable_access_only() {
        let mut t = Tensor::zeros(&[2, 2]);
        let g0 = t.generation();
        let _ = t.data(); // immutable reads do not bump
        assert_eq!(t.generation(), g0);
        let _ = t.data_mut();
        let g1 = t.generation();
        assert_ne!(g1, g0, "data_mut must invalidate");
        // Fresh tensors never reuse a generation.
        let u = Tensor::zeros(&[2, 2]);
        assert_ne!(u.generation(), g1);
    }

    #[test]
    fn clone_shares_generation_until_mutated() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let mut c = t.clone();
        assert_eq!(c.generation(), t.generation(), "identical data, same gen");
        c.data_mut()[0] = 9.0;
        assert_ne!(c.generation(), t.generation());
        assert_eq!(t.data(), &[1.0, 2.0], "original untouched");
    }

    #[test]
    fn matmul_matches_naive_triple_loop_bits() {
        // The blocked kernel must be bit-identical to the seed's loop,
        // 3-D lhs included.
        let (b, m, k, n) = (2, 5, 33, 9);
        let a = Tensor::from_vec(
            (0..b * m * k)
                .map(|i| {
                    if i % 13 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.17).sin()
                    }
                })
                .collect(),
            &[b, m, k],
        );
        let w = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect(),
            &[k, n],
        );
        let y = a.matmul(&w);
        assert_eq!(y.shape(), &[b, m, n]);
        let mut want = vec![0.0f32; b * m * n];
        for i in 0..b * m {
            for p in 0..k {
                let av = a.data()[i * k + p];
                if av == 0.0 {
                    continue; // w is finite
                }
                for j in 0..n {
                    want[i * n + j] += av * w.data()[p * n + j];
                }
            }
        }
        for (x, y) in y.data().iter().zip(want.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn debug_formatting() {
        let small = Tensor::zeros(&[2]);
        assert!(format!("{small:?}").contains("Tensor[2]"));
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("100 values"));
    }
}
