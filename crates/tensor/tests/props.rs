//! Property-based tests for the tensor substrate: algebraic identities of
//! matmul/transpose, softmax invariants, the im2col/col2im adjoint
//! relation over random geometries, and bit-for-bit agreement of the
//! convolution kernel with the two paths it replaced: the row-major
//! `im2col` + matmul, and the channel-major `unfold` + `fold` kept here
//! as the reference.

use hadas_tensor::{col2im, im2col, Conv2dGeometry, ConvKernel, Tensor, TensorError};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).expect("sized correctly"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)ᵀ = Bᵀ·Aᵀ for random rectangular matrices.
    #[test]
    fn matmul_transpose_identity(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 5),
    ) {
        let left = a.matmul(&b).unwrap().transpose().unwrap();
        let right = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Matmul distributes over addition: A·(B + C) = A·B + A·C.
    #[test]
    fn matmul_distributes(
        a in tensor_strategy(2, 3),
        b in tensor_strategy(3, 4),
        c in tensor_strategy(3, 4),
    ) {
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    /// Softmax rows always sum to 1 and lie in (0, 1], even for extreme
    /// logits.
    #[test]
    fn softmax_is_a_distribution(
        v in proptest::collection::vec(-1e4f32..1e4, 12),
    ) {
        let t = Tensor::from_vec(v, &[3, 4]).unwrap();
        let s = t.softmax_rows().unwrap();
        for r in 0..3 {
            let row = &s.as_slice()[r * 4..(r + 1) * 4];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    /// Softmax is shift-invariant: softmax(x + c) = softmax(x).
    #[test]
    fn softmax_shift_invariance(
        v in proptest::collection::vec(-50.0f32..50.0, 6),
        shift in -100.0f32..100.0,
    ) {
        let t = Tensor::from_vec(v.clone(), &[1, 6]).unwrap();
        let shifted = Tensor::from_vec(v.iter().map(|x| x + shift).collect(), &[1, 6]).unwrap();
        let a = t.softmax_rows().unwrap();
        let b = shifted.softmax_rows().unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// The adjoint identity <im2col(x), y> = <x, col2im(y)> holds for
    /// random geometries — the correctness condition of conv backprop.
    #[test]
    fn im2col_col2im_adjoint(
        size in 3usize..8,
        channels in 1usize..4,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1_000,
    ) {
        prop_assume!(size + 2 * padding >= kernel);
        let geo = Conv2dGeometry::new(size, size, kernel, stride, padding).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = hadas_tensor::uniform(&mut rng, &[1, channels, size, size], -2.0, 2.0);
        let m = im2col(&x, &geo).unwrap();
        let y = hadas_tensor::uniform(&mut rng, m.shape().dims(), -2.0, 2.0);
        let lhs: f32 = m.mul(&y).unwrap().sum();
        let back = col2im(&y, 1, channels, &geo).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "adjoint violated: {lhs} vs {rhs}");
    }

    /// axpy then its inverse restores the original tensor.
    #[test]
    fn axpy_is_invertible(
        v in proptest::collection::vec(-5.0f32..5.0, 8),
        g in proptest::collection::vec(-5.0f32..5.0, 8),
        k in -3.0f32..3.0,
    ) {
        let orig = Tensor::from_vec(v, &[8]).unwrap();
        let grad = Tensor::from_vec(g, &[8]).unwrap();
        let mut t = orig.clone();
        t.axpy(k, &grad).unwrap();
        t.axpy(-k, &grad).unwrap();
        for (x, y) in t.as_slice().iter().zip(orig.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Reshape preserves the sum and the element multiset order.
    #[test]
    fn reshape_preserves_contents(
        v in proptest::collection::vec(-5.0f32..5.0, 24),
    ) {
        let t = Tensor::from_vec(v, &[2, 3, 4]).unwrap();
        let r = t.reshape(&[4, 6]).unwrap();
        prop_assert_eq!(t.as_slice(), r.as_slice());
    }
}

/// Values in `[-2, 2)` of which about half are exact zeros, some of them
/// `-0.0`: the zeros a ReLU and zero padding leave in activations and
/// gradients, where the row-major path skipped terms.
fn sparse(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    let v = (0..len)
        .map(|_| match rng.gen_range(0..8u32) {
            0..=2 => 0.0,
            3 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    Tensor::from_vec(v, dims).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The row-major convolution both conv layers ran before the
/// channel-major kernel, kept here as the reference: `im2col`, then
/// `cols · Wᵀ` with the bias added per row and the rows reordered to
/// NCHW; backward reorders the gradient to `(n·oh·ow, c_out)`, adds
/// `Gᵀ · cols` into the weight slice, column sums into the bias, and
/// returns `col2im(G · W)`. `W` is the leading `c_out × c_in·k²` block of
/// a bank whose rows hold `c_in_max·k²` taps.
struct RowMajorConv {
    geo: Conv2dGeometry,
    c_in: usize,
    c_out: usize,
    c_in_max: usize,
}

impl RowMajorConv {
    fn sliced_weight(&self, bank: &Tensor) -> Tensor {
        let k2 = self.geo.kernel() * self.geo.kernel();
        let (full, cols) = (self.c_in_max * k2, self.c_in * k2);
        let src = bank.as_slice();
        let mut out = Vec::with_capacity(self.c_out * cols);
        for r in 0..self.c_out {
            out.extend_from_slice(&src[r * full..r * full + cols]);
        }
        Tensor::from_vec(out, &[self.c_out, cols]).unwrap()
    }

    fn forward(&self, x: &Tensor, bank: &Tensor, bias: &Tensor) -> Tensor {
        let n = x.shape().dims()[0];
        let c_out = self.c_out;
        let cols = im2col(x, &self.geo).unwrap();
        let mut y = cols.matmul(&self.sliced_weight(bank).transpose().unwrap()).unwrap();
        let rows = y.shape().dims()[0];
        let b = bias.as_slice().to_vec();
        let data = y.as_mut_slice();
        for r in 0..rows {
            for c in 0..c_out {
                data[r * c_out + c] += b[c];
            }
        }
        let (oh, ow) = (self.geo.out_h(), self.geo.out_w());
        let src = y.as_slice();
        let mut out = vec![0.0f32; n * c_out * oh * ow];
        for img in 0..n {
            for p in 0..oh * ow {
                for c in 0..c_out {
                    out[(img * c_out + c) * oh * ow + p] = src[(img * oh * ow + p) * c_out + c];
                }
            }
        }
        Tensor::from_vec(out, &[n, c_out, oh, ow]).unwrap()
    }

    fn backward(
        &self,
        x: &Tensor,
        g: &Tensor,
        bank: &Tensor,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) -> Tensor {
        let n = x.shape().dims()[0];
        let c_out = self.c_out;
        let cols = im2col(x, &self.geo).unwrap();
        let plane = self.geo.out_h() * self.geo.out_w();
        let src = g.as_slice();
        let mut gm = vec![0.0f32; n * plane * c_out];
        for img in 0..n {
            for c in 0..c_out {
                for p in 0..plane {
                    gm[(img * plane + p) * c_out + c] = src[(img * c_out + c) * plane + p];
                }
            }
        }
        let grad_mat = Tensor::from_vec(gm, &[n * plane, c_out]).unwrap();
        let grad_w = grad_mat.transpose().unwrap().matmul(&cols).unwrap();
        let k2 = self.geo.kernel() * self.geo.kernel();
        let (full, slice) = (self.c_in_max * k2, self.c_in * k2);
        let dst = gw.as_mut_slice();
        for r in 0..c_out {
            for c in 0..slice {
                dst[r * full + c] += grad_w.as_slice()[r * slice + c];
            }
        }
        let db = gb.as_mut_slice();
        for r in 0..n * plane {
            for (c, d) in db.iter_mut().enumerate().take(c_out) {
                *d += grad_mat.as_slice()[r * c_out + c];
            }
        }
        let grad_cols = grad_mat.matmul(&self.sliced_weight(bank)).unwrap();
        col2im(&grad_cols, n, self.c_in, &self.geo).unwrap()
    }
}

/// Along one axis, the output positions `start..end` at which a kernel
/// tap reads inside the image rather than the padding, and the input
/// position `first_in` that `start` reads (output `o` reads
/// `o·stride + tap − padding`).
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    first_in: usize,
}

impl Span {
    fn new(in_len: usize, out_len: usize, geo: &Conv2dGeometry, tap: usize) -> Option<Self> {
        let (stride, padding) = (geo.stride(), geo.padding());
        let end = (in_len + padding).saturating_sub(tap).div_ceil(stride).min(out_len);
        let start = padding.saturating_sub(tap).div_ceil(stride);
        (start < end).then(|| Span { start, end, first_in: start * stride + tap - padding })
    }

    /// The output rows kernel row `ky` reads inside the image.
    fn rows(geo: &Conv2dGeometry, ky: usize) -> Option<Self> {
        Span::new(geo.in_h(), geo.out_h(), geo, ky)
    }

    /// The output columns kernel column `kx` reads inside the image.
    fn cols(geo: &Conv2dGeometry, kx: usize) -> Option<Self> {
        Span::new(geo.in_w(), geo.out_w(), geo, kx)
    }
}

/// Unfolds an input image batch `(n, c, h, w)` into channel-major patch
/// rows of shape `(c * k * k, n * out_h * out_w)`, one row per kernel tap
/// `(ch, ky, kx)` and one column per output pixel `(img, oy, ox)`, the
/// padding left zero.
fn unfold(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let dims = input.shape().dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (k, s) = (geo.kernel(), geo.stride());
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let width = n * oh * ow;
    let mut out = vec![0.0f32; c * k * k * width];
    let src = input.as_slice();
    for (tap, row) in out.chunks_exact_mut(width.max(1)).enumerate() {
        let (ch, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
        let (Some(ys), Some(xs)) = (Span::rows(geo, ky), Span::cols(geo, kx)) else { continue };
        for (img, block) in row.chunks_exact_mut(oh * ow).enumerate() {
            let plane = &src[(img * c + ch) * h * w..][..h * w];
            let lines = plane[ys.first_in * w..].chunks(w).step_by(s);
            for (dst, line) in block[ys.start * ow..ys.end * ow].chunks_exact_mut(ow).zip(lines) {
                let (dst, line) = (&mut dst[xs.start..xs.end], &line[xs.first_in..]);
                for (d, &v) in dst.iter_mut().zip(line.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
    Tensor::from_vec(out, &[c * k * k, width])
}

/// Folds channel-major patch rows back into an image batch, the adjoint
/// of [`unfold`]. `col2im` adds an input pixel's contributions in
/// ascending output position; an input pixel's kernel tap falls as its
/// output position rises, so this fold walks the taps of each channel in
/// descending `(ky, kx)` order.
fn fold(cols: &Tensor, n: usize, c: usize, geo: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let (k, s) = (geo.kernel(), geo.stride());
    let (h, w) = (geo.in_h(), geo.in_w());
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let width = n * oh * ow;
    let mut out = vec![0.0f32; n * c * h * w];
    let src = cols.as_slice();
    for ch in 0..c {
        for ky in (0..k).rev() {
            for kx in (0..k).rev() {
                let (Some(ys), Some(xs)) = (Span::rows(geo, ky), Span::cols(geo, kx)) else {
                    continue;
                };
                let row = &src[((ch * k + ky) * k + kx) * width..][..width];
                for (img, block) in row.chunks_exact(oh * ow).enumerate() {
                    let plane = &mut out[(img * c + ch) * h * w..][..h * w];
                    let lines = plane[ys.first_in * w..].chunks_mut(w).step_by(s);
                    for (run, line) in block[ys.start * ow..ys.end * ow].chunks_exact(ow).zip(lines)
                    {
                        let (run, line) = (&run[xs.start..xs.end], &mut line[xs.first_in..]);
                        for (d, &v) in line.iter_mut().step_by(s).zip(run) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// The channel-major convolution over [`unfold`] and [`fold`], the
/// reference the kernel must equal bit for bit: the output is `W · cols`
/// plus the bias, `dW = G · colsᵀ` and `db` are added onto the gradients
/// present, and `dX = fold(Wᵀ · G)`. Every sum runs in ascending inner
/// index from `+0.0` with no term skipped. `W` is the leading
/// `c_out × c_in·k²` block of a bank whose rows hold `c_in_max·k²` taps.
struct ChannelMajorConv {
    geo: Conv2dGeometry,
    c_in: usize,
    c_out: usize,
    c_in_max: usize,
}

impl ChannelMajorConv {
    /// The bank's row stride, the active taps and the output plane.
    fn sizes(&self) -> (usize, usize, usize) {
        let k2 = self.geo.kernel() * self.geo.kernel();
        (self.c_in_max * k2, self.c_in * k2, self.geo.out_h() * self.geo.out_w())
    }

    fn forward(&self, x: &Tensor, bank: &Tensor, bias: &Tensor) -> Tensor {
        let n = x.shape().dims()[0];
        let (stride, taps, plane) = self.sizes();
        let cols = unfold(x, &self.geo).unwrap();
        let (w, c) = (bank.as_slice(), cols.as_slice());
        let mut y = Vec::with_capacity(n * self.c_out * plane);
        for img in 0..n {
            for co in 0..self.c_out {
                for p in 0..plane {
                    let mut sum = 0.0f32;
                    for t in 0..taps {
                        sum += w[co * stride + t] * c[t * n * plane + img * plane + p];
                    }
                    y.push(sum + bias.as_slice()[co]);
                }
            }
        }
        Tensor::from_vec(y, &[n, self.c_out, self.geo.out_h(), self.geo.out_w()]).unwrap()
    }

    fn backward(
        &self,
        x: &Tensor,
        g: &Tensor,
        bank: &Tensor,
        gw: &mut Tensor,
        gb: &mut Tensor,
    ) -> Tensor {
        let n = x.shape().dims()[0];
        let (stride, taps, plane) = self.sizes();
        let width = n * plane;
        let cols = unfold(x, &self.geo).unwrap();
        let (w, c, g) = (bank.as_slice(), cols.as_slice(), g.as_slice());
        let grad =
            |co: usize, pixel: usize| g[(pixel / plane * self.c_out + co) * plane + pixel % plane];
        for co in 0..self.c_out {
            for t in 0..taps {
                let mut sum = 0.0f32;
                for pixel in 0..width {
                    sum += c[t * width + pixel] * grad(co, pixel);
                }
                gw.as_mut_slice()[co * stride + t] += sum;
            }
            for pixel in 0..width {
                gb.as_mut_slice()[co] += grad(co, pixel);
            }
        }
        let mut grad_cols = Vec::with_capacity(taps * width);
        for t in 0..taps {
            for pixel in 0..width {
                let mut sum = 0.0f32;
                for co in 0..self.c_out {
                    sum += w[co * stride + t] * grad(co, pixel);
                }
                grad_cols.push(sum);
            }
        }
        let grad_cols = Tensor::from_vec(grad_cols, &[taps, width]).unwrap();
        fold(&grad_cols, n, self.c_in, &self.geo).unwrap()
    }
}

/// A random geometry with kernel 1–3, stride 1–2, padding 0–2 and a
/// possibly non-square input, if the padded input fits the kernel.
fn geometry(
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Option<Conv2dGeometry> {
    Conv2dGeometry::new(h, w, kernel, stride, padding).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The channel-major unfold is `im2col` transposed, bit for bit.
    #[test]
    fn unfold_is_im2col_transposed(
        n in 1usize..4, c in 1usize..5, h in 1usize..7, w in 1usize..7,
        kernel in 1usize..4, stride in 1usize..3, padding in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let geo = geometry(h, w, kernel, stride, padding);
        prop_assume!(geo.is_some());
        let geo = geo.unwrap();
        let x = sparse(&mut StdRng::seed_from_u64(seed), &[n, c, h, w]);
        let expected = im2col(&x, &geo).unwrap().transpose().unwrap();
        let got = unfold(&x, &geo).unwrap();
        prop_assert_eq!(got.shape().dims(), expected.shape().dims());
        prop_assert_eq!(bits(&got), bits(&expected));
    }

    /// The channel-major fold is `col2im` of the transposed columns, bit
    /// for bit: every input pixel sums its contributions in the same
    /// order.
    #[test]
    fn fold_is_col2im_of_the_transpose(
        n in 1usize..4, c in 1usize..5, h in 1usize..7, w in 1usize..7,
        kernel in 1usize..4, stride in 1usize..3, padding in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let geo = geometry(h, w, kernel, stride, padding);
        prop_assume!(geo.is_some());
        let geo = geo.unwrap();
        let taps = c * kernel * kernel;
        let width = n * geo.out_h() * geo.out_w();
        let cols = sparse(&mut StdRng::seed_from_u64(seed), &[taps, width]);
        let expected = col2im(&cols.transpose().unwrap(), n, c, &geo).unwrap();
        let got = fold(&cols, n, c, &geo).unwrap();
        prop_assert_eq!(got.shape().dims(), expected.shape().dims());
        prop_assert_eq!(bits(&got), bits(&expected));
    }

    /// The channel-major kernel's forward output, weight and bias
    /// gradients (accumulated onto non-zero gradients already present)
    /// and input gradient equal the row-major path's bit for bit, on a
    /// weight bank wider than the active input-channel slice.
    #[test]
    fn conv_kernel_matches_the_row_major_path(
        n in 1usize..4, c_in in 1usize..5, extra_in in 0usize..2,
        c_out_max in 1usize..11, c_out_cut in 0usize..3,
        h in 1usize..7, w in 1usize..7,
        kernel in 1usize..4, stride in 1usize..3, padding in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let geo = geometry(h, w, kernel, stride, padding);
        prop_assume!(geo.is_some());
        let geo = geo.unwrap();
        let c_in_max = c_in + extra_in;
        let c_out = c_out_max.saturating_sub(c_out_cut).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let taps_max = c_in_max * kernel * kernel;
        let bank = sparse(&mut rng, &[c_out_max, taps_max]);
        let bias = sparse(&mut rng, &[c_out_max]);
        let x = sparse(&mut rng, &[n, c_in, h, w]);
        let g = sparse(&mut rng, &[n, c_out, geo.out_h(), geo.out_w()]);
        let grad_w0 = sparse(&mut rng, &[c_out_max, taps_max]);
        let grad_b0 = sparse(&mut rng, &[c_out_max]);

        let reference = RowMajorConv { geo, c_in, c_out, c_in_max };
        let (mut ref_gw, mut ref_gb) = (grad_w0.clone(), grad_b0.clone());
        let ref_y = reference.forward(&x, &bank, &bias);
        let ref_dx = reference.backward(&x, &g, &bank, &mut ref_gw, &mut ref_gb);

        let conv = ConvKernel::new(geo, c_in, c_out, c_in_max);
        let (mut gw, mut gb) = (grad_w0, grad_b0);
        let (y, cols) = conv.forward(&x, &bank, &bias).unwrap();
        let dx = conv.backward(&g, &cols, &bank, &mut gw, &mut gb).unwrap();

        prop_assert_eq!(y.shape().dims(), ref_y.shape().dims());
        prop_assert_eq!(bits(&y), bits(&ref_y));
        prop_assert_eq!(bits(&gw), bits(&ref_gw));
        prop_assert_eq!(bits(&gb), bits(&ref_gb));
        prop_assert_eq!(dx.shape().dims(), ref_dx.shape().dims());
        prop_assert_eq!(bits(&dx), bits(&ref_dx));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On inputs up to 17 pixels a side, where the register tile runs
    /// full 8-wide, with tails and several tiles per output row, the
    /// kernel's output, its input gradient, and its weight and bias
    /// gradients (added onto gradients already present, by both backward
    /// passes) equal the channel-major `unfold` + `fold` reference bit
    /// for bit, on a bank wider and taller than the active slice.
    #[test]
    fn conv_kernel_matches_unfold_and_fold_on_wide_inputs(
        n in 1usize..3, c_in in 1usize..4, extra_in in 0usize..3,
        c_out in 1usize..11, extra_out in 0usize..2,
        h in 1usize..18, w in 1usize..18,
        kernel in 1usize..4, stride in 1usize..3, padding in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let geo = geometry(h, w, kernel, stride, padding);
        prop_assume!(geo.is_some());
        let geo = geo.unwrap();
        let c_in_max = c_in + extra_in;
        let mut rng = StdRng::seed_from_u64(seed);
        let taps_max = c_in_max * kernel * kernel;
        let bank = sparse(&mut rng, &[c_out + extra_out, taps_max]);
        let bias = sparse(&mut rng, &[c_out + extra_out]);
        let x = sparse(&mut rng, &[n, c_in, h, w]);
        let g = sparse(&mut rng, &[n, c_out, geo.out_h(), geo.out_w()]);
        let grad_w0 = sparse(&mut rng, &[c_out + extra_out, taps_max]);
        let grad_b0 = sparse(&mut rng, &[c_out + extra_out]);

        let reference = ChannelMajorConv { geo, c_in, c_out, c_in_max };
        let (mut ref_gw, mut ref_gb) = (grad_w0.clone(), grad_b0.clone());
        let ref_y = reference.forward(&x, &bank, &bias);
        let ref_dx = reference.backward(&x, &g, &bank, &mut ref_gw, &mut ref_gb);

        let conv = ConvKernel::new(geo, c_in, c_out, c_in_max);
        let (mut gw, mut gb) = (grad_w0.clone(), grad_b0.clone());
        let (y, padded) = conv.forward(&x, &bank, &bias).unwrap();
        let dx = conv.backward(&g, &padded, &bank, &mut gw, &mut gb).unwrap();
        let (mut params_gw, mut params_gb) = (grad_w0, grad_b0);
        conv.backward_params(&g, &padded, &mut params_gw, &mut params_gb).unwrap();

        prop_assert_eq!(y.shape().dims(), ref_y.shape().dims());
        prop_assert_eq!(bits(&y), bits(&ref_y));
        prop_assert_eq!(bits(&gw), bits(&ref_gw));
        prop_assert_eq!(bits(&gb), bits(&ref_gb));
        prop_assert_eq!(bits(&params_gw), bits(&ref_gw));
        prop_assert_eq!(bits(&params_gb), bits(&ref_gb));
        prop_assert_eq!(dx.shape().dims(), ref_dx.shape().dims());
        prop_assert_eq!(bits(&dx), bits(&ref_dx));
    }
}
