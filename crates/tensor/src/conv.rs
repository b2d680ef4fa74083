use crate::linalg::{gemm, MatRef};
use crate::{Tensor, TensorError};

/// The geometry of a 2-D convolution: spatial sizes, kernel, stride, padding.
///
/// Constructed once per layer and reused for forward (`im2col`) and backward
/// (`col2im`) passes. Output sizes are computed with the usual floor rule.
///
/// ```
/// use hadas_tensor::Conv2dGeometry;
/// # fn main() -> Result<(), hadas_tensor::TensorError> {
/// let g = Conv2dGeometry::new(32, 32, 3, 1, 1)?;
/// assert_eq!((g.out_h(), g.out_w()), (32, 32));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    in_h: usize,
    in_w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
}

impl Conv2dGeometry {
    /// Creates a square-kernel convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel or stride is
    /// zero, or if the padded input is smaller than the kernel.
    pub fn new(
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel and stride must be non-zero".to_string(),
            ));
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if padded_h < kernel || padded_w < kernel {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} exceeds padded input {padded_h}x{padded_w}"
            )));
        }
        Ok(Conv2dGeometry {
            in_h,
            in_w,
            kernel,
            stride,
            padding,
            out_h: (padded_h - kernel) / stride + 1,
            out_w: (padded_w - kernel) / stride + 1,
        })
    }

    /// Input height.
    pub fn in_h(&self) -> usize {
        self.in_h
    }

    /// Input width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.out_h
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.out_w
    }

    /// The `(n, c, h, w)` of a rank-4 input whose spatial dims match.
    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
        if input.shape().rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, got: input.shape().rank() });
        }
        let dims = input.shape().dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if h != self.in_h || w != self.in_w {
            return Err(TensorError::InvalidGeometry(format!(
                "input {h}x{w} does not match geometry {}x{}",
                self.in_h, self.in_w
            )));
        }
        Ok((n, c, h, w))
    }

    /// The output rows kernel row `ky` reads inside the image.
    fn rows_in(&self, ky: usize) -> Option<Span> {
        Span::new(self.in_h, self.out_h, self.stride, self.padding, ky)
    }

    /// The output columns kernel column `kx` reads inside the image.
    fn cols_in(&self, kx: usize) -> Option<Span> {
        Span::new(self.in_w, self.out_w, self.stride, self.padding, kx)
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
    fn new(
        in_len: usize,
        out_len: usize,
        stride: usize,
        padding: usize,
        tap: usize,
    ) -> Option<Self> {
        let end = (in_len + padding).saturating_sub(tap).div_ceil(stride).min(out_len);
        let start = padding.saturating_sub(tap).div_ceil(stride);
        (start < end).then(|| Span { start, end, first_in: start * stride + tap - padding })
    }

    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Unfolds an input image batch `(n, c, h, w)` into a matrix of patch
/// columns with shape `(n * out_h * out_w, c * k * k)`, so convolution
/// becomes a single [`Tensor::matmul`] against the flattened kernel bank.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `input` is rank 4, or
/// [`TensorError::InvalidGeometry`] if the spatial dims disagree with `geo`.
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = geo.check_input(input)?;
    let k = geo.kernel;
    let rows = n * geo.out_h * geo.out_w;
    let cols = c * k * k;
    let mut out = vec![0.0f32; rows * cols];
    let src = input.as_slice();
    let mut row = 0usize;
    for img in 0..n {
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let base = row * cols;
                for ch in 0..c {
                    for ky in 0..k {
                        // In-bounds iff oy·s + ky ≥ padding (checked_sub) and
                        // the resulting coordinate lands inside the image.
                        let iy = (oy * geo.stride + ky).checked_sub(geo.padding);
                        for kx in 0..k {
                            let ix = (ox * geo.stride + kx).checked_sub(geo.padding);
                            let col = ch * k * k + ky * k + kx;
                            if let (Some(iy), Some(ix)) = (iy, ix) {
                                if iy < h && ix < w {
                                    let off = ((img * c + ch) * h + iy) * w + ix;
                                    out[base + col] = src[off];
                                }
                            }
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Folds a patch-column matrix back into an image batch, accumulating
/// overlapping contributions — the adjoint of [`im2col`], used to propagate
/// gradients to a convolution's input.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the shape
/// `im2col` would produce for `(n, c)` under `geo`.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    geo: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let k = geo.kernel;
    let rows = n * geo.out_h * geo.out_w;
    let width = c * k * k;
    if cols.shape().dims() != [rows, width] {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().dims().to_vec(),
            right: vec![rows, width],
        });
    }
    let (h, w) = (geo.in_h, geo.in_w);
    let mut out = vec![0.0f32; n * c * h * w];
    let src = cols.as_slice();
    let mut row = 0usize;
    for img in 0..n {
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let base = row * width;
                for ch in 0..c {
                    for ky in 0..k {
                        // Same padding arithmetic as the forward `im2col`.
                        let iy = (oy * geo.stride + ky).checked_sub(geo.padding);
                        for kx in 0..k {
                            let ix = (ox * geo.stride + kx).checked_sub(geo.padding);
                            if let (Some(iy), Some(ix)) = (iy, ix) {
                                if iy < h && ix < w {
                                    let off = ((img * c + ch) * h + iy) * w + ix;
                                    out[off] += src[base + ch * k * k + ky * k + kx];
                                }
                            }
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// Unfolds an input image batch `(n, c, h, w)` into channel-major patch
/// rows of shape `(c * k * k, n * out_h * out_w)`: exactly
/// `im2col(input, geo)` transposed, with the kernel tap `(ch, ky, kx)` as
/// the row and the output pixel `(img, oy, ox)` as the column.
///
/// Each row is filled one output row at a time, copying the run of
/// output columns whose tap lands inside the image in one go (a
/// contiguous copy at stride 1) and leaving the padding zero.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `input` is rank 4, or
/// [`TensorError::InvalidGeometry`] if the spatial dims disagree with `geo`.
pub fn unfold(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = geo.check_input(input)?;
    let (k, s) = (geo.kernel, geo.stride);
    let (oh, ow) = (geo.out_h, geo.out_w);
    let width = n * oh * ow;
    let mut out = vec![0.0f32; c * k * k * width];
    let src = input.as_slice();
    for (tap, row) in out.chunks_exact_mut(width.max(1)).enumerate() {
        let (ch, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
        let (Some(ys), Some(xs)) = (geo.rows_in(ky), geo.cols_in(kx)) else { continue };
        for (img, block) in row.chunks_exact_mut(oh * ow).enumerate() {
            let plane = &src[(img * c + ch) * h * w..][..h * w];
            let lines = plane[ys.first_in * w..].chunks(w).step_by(s);
            for (dst, line) in block[ys.start * ow..ys.end * ow].chunks_exact_mut(ow).zip(lines) {
                let (dst, line) = (&mut dst[xs.start..xs.end], &line[xs.first_in..]);
                if s == 1 {
                    dst.copy_from_slice(&line[..xs.len()]);
                } else {
                    for (d, &v) in dst.iter_mut().zip(line.iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c * k * k, width])
}

/// Folds channel-major patch rows back into an image batch — the adjoint
/// of [`unfold`], and [`col2im`] of the transposed matrix bit for bit.
///
/// `col2im` adds an input pixel's contributions in ascending output
/// position; an input pixel's kernel tap falls as its output position
/// rises, so this fold walks the taps of each channel in descending
/// `(ky, kx)` order and adds every pixel's terms in the same sequence.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the shape
/// `unfold` would produce for `(n, c)` under `geo`.
pub fn fold(
    cols: &Tensor,
    n: usize,
    c: usize,
    geo: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (k, s) = (geo.kernel, geo.stride);
    let (h, w) = (geo.in_h, geo.in_w);
    let (oh, ow) = (geo.out_h, geo.out_w);
    let width = n * oh * ow;
    if cols.shape().dims() != [c * k * k, width] {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().dims().to_vec(),
            right: vec![c * k * k, width],
        });
    }
    let mut out = vec![0.0f32; n * c * h * w];
    let src = cols.as_slice();
    for ch in 0..c {
        for ky in (0..k).rev() {
            for kx in (0..k).rev() {
                let (Some(ys), Some(xs)) = (geo.rows_in(ky), geo.cols_in(kx)) else { continue };
                let row = &src[((ch * k + ky) * k + kx) * width..][..width];
                for (img, block) in row.chunks_exact(oh * ow).enumerate() {
                    let plane = &mut out[(img * c + ch) * h * w..][..h * w];
                    let lines = plane[ys.first_in * w..].chunks_mut(w).step_by(s);
                    for (run, line) in block[ys.start * ow..ys.end * ow].chunks_exact(ow).zip(lines)
                    {
                        let (run, line) = (&run[xs.start..xs.end], &mut line[xs.first_in..]);
                        if s == 1 {
                            for (d, &v) in line[..run.len()].iter_mut().zip(run) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in line.iter_mut().step_by(s).zip(run) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// The forward and backward pass of one 2-D convolution over NCHW
/// batches, on the channel-major [`unfold`]: the output is `W · cols`, one
/// row of width `n·oh·ow` per output channel, so the inner loops run over
/// pixels rather than over a handful of channels.
///
/// The weight bank is row-major with one filter of `c_in_max · k²` taps
/// per row; the kernel reads the leading `c_out` filters and, of each,
/// the leading `c_in · k²` taps (an input-channel prefix is a contiguous
/// column prefix). A layer that uses its whole bank has `c_in_max = c_in`.
///
/// Every output, weight-gradient and input-gradient element sums its
/// terms in the order the row-major `im2col` + [`Tensor::matmul`] path
/// did, from `+0.0`, with no fused multiply-add. That path skipped
/// terms whose activation or upstream gradient was zero; this kernel
/// skips none, which gives the same bits whenever the operands are
/// finite.
///
/// ```
/// use hadas_tensor::{Conv2dGeometry, ConvKernel, Tensor};
/// # fn main() -> Result<(), hadas_tensor::TensorError> {
/// let geo = Conv2dGeometry::new(3, 3, 2, 1, 0)?;
/// let conv = ConvKernel::new(geo, 1, 1, 1);
/// let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3])?;
/// let (y, _cols) = conv.forward(&x, &Tensor::ones(&[1, 4]), &Tensor::zeros(&[1]))?;
/// assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvKernel {
    geo: Conv2dGeometry,
    c_in: usize,
    c_out: usize,
    c_in_max: usize,
}

impl ConvKernel {
    /// A kernel for `c_in → c_out` channels under `geo`, reading a weight
    /// bank whose filters have `c_in_max · k²` taps.
    pub fn new(geo: Conv2dGeometry, c_in: usize, c_out: usize, c_in_max: usize) -> Self {
        ConvKernel { geo, c_in, c_out, c_in_max }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Taps of one active filter: `c_in · k²`.
    fn taps(&self) -> usize {
        self.c_in * self.geo.kernel * self.geo.kernel
    }

    /// Elements of one image's `(c_out, oh, ow)` output slab.
    fn slab_len(&self) -> usize {
        self.c_out * self.geo.out_h * self.geo.out_w
    }

    /// The active `c_out × c_in·k²` slice of the weight bank; a layer
    /// without input or output channels has none.
    fn weights<'a>(&self, bank: &'a Tensor) -> Result<MatRef<'a>, TensorError> {
        let k2 = self.geo.kernel * self.geo.kernel;
        let stride = self.c_in_max * k2;
        if self.c_in == 0
            || self.c_out == 0
            || self.c_in > self.c_in_max
            || bank.len() < self.c_out * stride
        {
            return Err(TensorError::ShapeMismatch {
                left: bank.shape().dims().to_vec(),
                right: vec![self.c_out, self.c_in * k2],
            });
        }
        Ok(MatRef::rows(bank.as_slice(), self.c_out, self.taps(), stride))
    }

    fn check_bias(&self, bias: &Tensor) -> Result<(), TensorError> {
        if bias.len() < self.c_out {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().dims().to_vec(),
                right: vec![self.c_out],
            });
        }
        Ok(())
    }

    /// Forward pass: `x` is `(n, c_in, h, w)`; returns the output
    /// `(n, c_out, oh, ow)` and the channel-major columns that
    /// [`ConvKernel::backward`] needs.
    ///
    /// # Errors
    ///
    /// Returns a rank or shape error if `x`, the weight bank or the bias
    /// do not fit the kernel.
    pub fn forward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
    ) -> Result<(Tensor, Tensor), TensorError> {
        let (n, c, _, _) = self.geo.check_input(x)?;
        if c != self.c_in {
            return Err(TensorError::ShapeMismatch {
                left: x.shape().dims().to_vec(),
                right: vec![n, self.c_in, self.geo.in_h, self.geo.in_w],
            });
        }
        let w = self.weights(weight)?;
        self.check_bias(bias)?;
        let cols = unfold(x, &self.geo)?;
        let plane = self.geo.out_h * self.geo.out_w;
        let width = n * plane;
        // Image `img` is columns img·plane.. of `W · cols`, and its
        // (c_out × plane) block is that image's slab of the NCHW output.
        let mut out = vec![0.0f32; n * self.c_out * plane];
        for (img, slab) in out.chunks_exact_mut(self.slab_len()).enumerate() {
            let block = MatRef::rows(&cols.as_slice()[img * plane..], self.taps(), plane, width);
            gemm(w, block, slab, plane);
            for (channel, &b) in slab.chunks_exact_mut(plane).zip(bias.as_slice()) {
                for v in channel {
                    *v += b;
                }
            }
        }
        let y = Tensor::from_vec(out, &[n, self.c_out, self.geo.out_h, self.geo.out_w])?;
        Ok((y, cols))
    }

    /// Backward pass: given the output gradient `(n, c_out, oh, ow)` and
    /// the columns [`ConvKernel::forward`] returned, adds `dW = G · colsᵀ`
    /// into the active slice of `weight_grad` (shaped like the bank) and
    /// `db` into the leading `c_out` entries of `bias_grad`, and returns
    /// `dX = fold(Wᵀ · G)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the gradient, the columns or the parameter
    /// tensors do not fit the kernel.
    pub fn backward(
        &self,
        grad_out: &Tensor,
        cols: &Tensor,
        weight: &Tensor,
        weight_grad: &mut Tensor,
        bias_grad: &mut Tensor,
    ) -> Result<Tensor, TensorError> {
        let plane = self.geo.out_h * self.geo.out_w;
        let (taps, c_out) = (self.taps(), self.c_out);
        let width = cols.shape().dims().get(1).copied().unwrap_or(0);
        let n = width.checked_div(plane).unwrap_or(0);
        if cols.shape().dims() != [taps, n * plane]
            || grad_out.shape().dims() != [n, c_out, self.geo.out_h, self.geo.out_w]
        {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().dims().to_vec(),
                right: vec![n, c_out, self.geo.out_h, self.geo.out_w],
            });
        }
        let w = self.weights(weight)?;
        self.check_bias(bias_grad)?;
        if weight_grad.len() != weight.len() {
            return Err(TensorError::ShapeMismatch {
                left: weight_grad.shape().dims().to_vec(),
                right: weight.shape().dims().to_vec(),
            });
        }
        let g = grad_out.as_slice();

        // dW: (taps × c_out) = cols · Gᵀ, with Gᵀ packed pixel-major and
        // its channels padded to whole register tiles; each term walks
        // the pixels (img, p) in ascending order, as Gᵀ's rows do.
        let lanes = c_out.div_ceil(8) * 8;
        let mut g_t = vec![0.0f32; width * lanes];
        for (img, slab) in g.chunks_exact(self.slab_len()).enumerate() {
            for (c, channel) in slab.chunks_exact(plane).enumerate() {
                for (p, &v) in channel.iter().enumerate() {
                    g_t[(img * plane + p) * lanes + c] = v;
                }
            }
        }
        let mut dw_t = vec![0.0f32; taps * lanes];
        gemm(
            MatRef::rows(cols.as_slice(), taps, width, width),
            MatRef::rows(&g_t, width, lanes, lanes),
            &mut dw_t,
            lanes,
        );
        let stride = w.row_stride;
        for (c, dst) in weight_grad.as_mut_slice().chunks_mut(stride).take(c_out).enumerate() {
            for (p, d) in dst[..taps].iter_mut().enumerate() {
                *d += dw_t[p * lanes + c];
            }
        }
        // db: each channel's gradient summed over (img, p) ascending.
        let db = bias_grad.as_mut_slice();
        for slab in g.chunks_exact(self.slab_len()) {
            for (d, channel) in db.iter_mut().zip(slab.chunks_exact(plane)) {
                for &v in channel {
                    *d += v;
                }
            }
        }

        // dX = fold(Wᵀ · G), one image's columns at a time.
        let mut grad_cols = vec![0.0f32; taps * width];
        for (img, slab) in g.chunks_exact(self.slab_len()).enumerate() {
            gemm(
                w.t(),
                MatRef::rows(slab, c_out, plane, plane),
                &mut grad_cols[img * plane..],
                width,
            );
        }
        fold(&Tensor::from_vec(grad_cols, &[taps, width])?, n, self.c_in, &self.geo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rejects_zero_kernel() {
        assert!(Conv2dGeometry::new(8, 8, 0, 1, 0).is_err());
        assert!(Conv2dGeometry::new(8, 8, 3, 0, 0).is_err());
    }

    #[test]
    fn geometry_rejects_oversized_kernel() {
        assert!(Conv2dGeometry::new(2, 2, 5, 1, 0).is_err());
        // But padding can rescue it.
        assert!(Conv2dGeometry::new(2, 2, 5, 1, 2).is_ok());
    }

    #[test]
    fn same_padding_preserves_spatial_size() {
        let g = Conv2dGeometry::new(17, 13, 3, 1, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (17, 13));
    }

    #[test]
    fn stride_two_halves_spatial_size() {
        let g = Conv2dGeometry::new(32, 32, 3, 2, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        let x = Tensor::from_vec((0..2 * 3 * 2 * 2).map(|v| v as f32).collect(), &[2, 3, 2, 2])
            .unwrap();
        let g = Conv2dGeometry::new(2, 2, 1, 1, 0).unwrap();
        let m = im2col(&x, &g).unwrap();
        assert_eq!(m.shape().dims(), &[2 * 2 * 2, 3]);
        // Row 0 = pixel (0,0) of image 0 across channels: offsets 0, 4, 8.
        assert_eq!(&m.as_slice()[0..3], &[0.0, 4.0, 8.0]);
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        // 1 image, 1 channel, 3x3 input, 2x2 kernel, stride 1, no padding.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let g = Conv2dGeometry::new(3, 3, 2, 1, 0).unwrap();
        let m = im2col(&x, &g).unwrap();
        // Kernel of all ones => every output = sum of a 2x2 patch.
        let w = Tensor::ones(&[4, 1]);
        let y = m.matmul(&w).unwrap();
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let x = Tensor::from_vec(
            (0..2 * 4 * 4).map(|v| ((v * 7 % 13) as f32) - 6.0).collect(),
            &[1, 2, 4, 4],
        )
        .unwrap();
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1).unwrap();
        let m = im2col(&x, &g).unwrap();
        let y = Tensor::from_vec(
            (0..m.len()).map(|v| ((v * 5 % 11) as f32) - 5.0).collect(),
            m.shape().dims(),
        )
        .unwrap();
        let lhs: f32 = m.mul(&y).unwrap().sum();
        let back = col2im(&y, 1, 2, &g).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint identity violated: {lhs} vs {rhs}");
    }

    #[test]
    fn kernel_rejects_layers_without_channels() {
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1).unwrap();
        for (c_in, c_out) in [(0, 2), (2, 0)] {
            let conv = ConvKernel::new(g, c_in, c_out, c_in);
            let (w, b) = (Tensor::zeros(&[c_out, c_in * 9]), Tensor::zeros(&[c_out]));
            assert!(conv.forward(&Tensor::ones(&[2, c_in, 4, 4]), &w, &b).is_err());
        }
    }

    #[test]
    fn col2im_rejects_wrong_shape() {
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1).unwrap();
        let bad = Tensor::zeros(&[3, 3]);
        assert!(col2im(&bad, 1, 2, &g).is_err());
    }
}
