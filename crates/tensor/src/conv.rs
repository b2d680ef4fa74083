use crate::linalg::{pack_panels, tile, MR, NR, RUN};
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

    /// Height of the zero-padded input: `h + 2p`.
    fn padded_h(&self) -> usize {
        self.in_h + 2 * self.padding
    }

    /// Width of the zero-padded input: `w + 2p`.
    fn padded_w(&self) -> usize {
        self.in_w + 2 * self.padding
    }

    /// `x` `(n, c, h, w)` copied into the middle of a zeroed
    /// `(n, c, h + 2p, w + 2p)`.
    fn pad(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = self.check_input(x)?;
        let (p, hp, wp) = (self.padding, self.padded_h(), self.padded_w());
        let mut out = vec![0.0f32; n * c * hp * wp];
        for (dst, src) in
            out.chunks_exact_mut(hp * wp).zip(x.as_slice().chunks_exact((h * w).max(1)))
        {
            for (line, row) in dst[p * wp..].chunks_exact_mut(wp).zip(src.chunks_exact(w.max(1))) {
                line[p..p + w].copy_from_slice(row);
            }
        }
        Tensor::from_vec(out, &[n, c, hp, wp])
    }

    /// The `(n, c, h, w)` middle of a padded `(n, c, h + 2p, w + 2p)`
    /// buffer: the inverse of [`Conv2dGeometry::pad`].
    fn crop(&self, padded: &[f32], n: usize, c: usize) -> Result<Tensor, TensorError> {
        let (h, w) = (self.in_h, self.in_w);
        let (p, hp, wp) = (self.padding, self.padded_h(), self.padded_w());
        let mut out = vec![0.0f32; n * c * h * w];
        for (dst, src) in out.chunks_exact_mut((h * w).max(1)).zip(padded.chunks_exact(hp * wp)) {
            for (row, line) in dst.chunks_exact_mut(w.max(1)).zip(src[p * wp..].chunks_exact(wp)) {
                row.copy_from_slice(&line[p..p + w]);
            }
        }
        Tensor::from_vec(out, &[n, c, h, w])
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

/// The forward and backward pass of one 2-D convolution over NCHW
/// batches, as an implicit GEMM over a zero-padded copy of the input:
/// output channel `co` at pixel `(oy, ox)` is the sum over the filter's
/// taps `(ch, ky, kx)` of its weight times the padded input at
/// `(ch, oy·s + ky, ox·s + kx)`, so no patch matrix is ever built.
///
/// The weight bank is row-major with one filter of `c_in_max · k²` taps
/// per row; the kernel reads the leading `c_out` filters and, of each,
/// the leading `c_in · k²` taps (an input-channel prefix is a contiguous
/// column prefix). A layer that uses its whole bank has `c_in_max = c_in`.
///
/// All three products run on one `4 × 8` register tile
/// (`linalg::tile`): the forward tile reads each tap's eight output
/// pixels straight from the padded input (contiguous runs when they lie
/// along rows at stride 1), `dW` packs its left-hand panel from the
/// padded input, and `dX` adds each tile of `Wᵀ · G` (four taps times
/// eight pixels) from registers into a zero-padded input gradient, whose
/// padding is cropped at the end.
///
/// The kernel caches nothing: [`ConvKernel::forward`] returns the
/// zero-padded input, `(n, c_in, h + 2p, w + 2p)` (1.56× the input at
/// 8 × 8 with padding 1), for the caller to keep until the backward pass.
///
/// Every output, weight-gradient and input-gradient element sums its
/// terms in the order the row-major `im2col` + [`Tensor::matmul`] path
/// did, from `+0.0`, with no fused multiply-add; an input-gradient pixel
/// adds its taps' terms in descending `(ky, kx)`, as [`col2im`] does.
/// That path skipped terms whose activation or upstream gradient was
/// zero; this kernel skips none, which gives the same bits whenever the
/// operands are finite.
///
/// ```
/// use hadas_tensor::{Conv2dGeometry, ConvKernel, Tensor};
/// # fn main() -> Result<(), hadas_tensor::TensorError> {
/// let geo = Conv2dGeometry::new(3, 3, 2, 1, 0)?;
/// let conv = ConvKernel::new(geo, 1, 1, 1);
/// let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3])?;
/// let (y, _padded) = conv.forward(&x, &Tensor::ones(&[1, 4]), &Tensor::zeros(&[1]))?;
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

    /// Output pixels of one image: `oh · ow`.
    fn plane(&self) -> usize {
        self.geo.out_h * self.geo.out_w
    }

    /// Elements of one image's `(c_out, oh, ow)` output slab.
    fn slab_len(&self) -> usize {
        self.c_out * self.plane()
    }

    /// Elements of one image's `(c_in, h + 2p, w + 2p)` padded input.
    fn block_len(&self) -> usize {
        self.c_in * self.geo.padded_h() * self.geo.padded_w()
    }

    /// Where each tap `(ch, ky, kx)` starts in one image's padded input:
    /// output pixel `(oy, ox)` reads it [`ConvKernel::pixel_offsets`]
    /// further on.
    fn tap_offsets(&self) -> Vec<usize> {
        let k = self.geo.kernel;
        let (hp, wp) = (self.geo.padded_h(), self.geo.padded_w());
        (0..self.taps()).map(|t| (t / (k * k) * hp + t / k % k) * wp + t % k).collect()
    }

    /// How far past a tap's offset each output pixel `(oy, ox)` reads it:
    /// `(oy·wp + ox)·s`.
    fn pixel_offsets(&self) -> Vec<usize> {
        let (ow, wp) = (self.geo.out_w, self.geo.padded_w());
        (0..self.plane()).map(|p| (p / ow * wp + p % ow) * self.geo.stride).collect()
    }

    /// The weight bank and its row stride, `c_in_max · k²`, if the bank
    /// holds the active `c_out × c_in·k²` slice; a layer without input or
    /// output channels has none.
    fn weights<'a>(&self, bank: &'a Tensor) -> Result<(&'a [f32], usize), TensorError> {
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
        Ok((bank.as_slice(), stride))
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
    /// `(n, c_out, oh, ow)` and the zero-padded input
    /// `(n, c_in, h + 2p, w + 2p)` that [`ConvKernel::backward`] needs.
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
        let (w, stride) = self.weights(weight)?;
        self.check_bias(bias)?;
        let padded = self.geo.pad(x)?;
        let (taps, plane) = (self.taps(), self.plane());
        let (tap_at, pixel_at) = (self.tap_offsets(), self.pixel_offsets());
        let panels = pack_panels(self.c_out, taps, |co, t| w[co * stride + t]);
        let mut out = vec![0.0f32; n * self.slab_len()];
        let images = padded.as_slice().chunks_exact(self.block_len());
        for (slab, src) in out.chunks_exact_mut(self.slab_len()).zip(images) {
            for (g, panel) in panels.chunks_exact(taps * MR).enumerate() {
                let rows = MR.min(self.c_out - g * MR);
                for j0 in (0..plane).step_by(NR) {
                    // Pixels j0.. read each tap at these offsets from the
                    // first one's; the lanes past the plane reread it.
                    let pixels = &pixel_at[j0..plane.min(j0 + NR)];
                    let mut lanes = [0usize; NR];
                    for (lane, &at) in lanes.iter_mut().zip(pixels) {
                        *lane = at - pixels[0];
                    }
                    let runs = tap_at.iter().map(|&t| t + pixels[0]);
                    let acc = tile(panel, src, runs, &lanes);
                    for (q, acc_row) in acc.iter().take(rows).enumerate() {
                        let dst = &mut slab[(g * MR + q) * plane + j0..][..pixels.len()];
                        dst.copy_from_slice(&acc_row[..pixels.len()]);
                    }
                }
            }
            for (channel, &b) in slab.chunks_exact_mut(plane).zip(bias.as_slice()) {
                for v in channel {
                    *v += b;
                }
            }
        }
        let y = Tensor::from_vec(out, &[n, self.c_out, self.geo.out_h, self.geo.out_w])?;
        Ok((y, padded))
    }

    /// Backward pass: given the output gradient `(n, c_out, oh, ow)` and
    /// the padded input [`ConvKernel::forward`] returned, adds the
    /// parameter gradients as [`ConvKernel::backward_params`] does and
    /// returns the input gradient `dX = Wᵀ · G`, each product added into
    /// the input pixel it read.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the gradient, the padded input or the
    /// parameter tensors do not fit the kernel.
    pub fn backward(
        &self,
        grad_out: &Tensor,
        padded: &Tensor,
        weight: &Tensor,
        weight_grad: &mut Tensor,
        bias_grad: &mut Tensor,
    ) -> Result<Tensor, TensorError> {
        let (w, stride) = self.weights(weight)?;
        if weight_grad.len() != weight.len() {
            return Err(TensorError::ShapeMismatch {
                left: weight_grad.shape().dims().to_vec(),
                right: weight.shape().dims().to_vec(),
            });
        }
        self.backward_params(grad_out, padded, weight_grad, bias_grad)?;
        let n = padded.shape().dims()[0];
        let (taps, plane, c_out) = (self.taps(), self.plane(), self.c_out);
        let (tap_at, pixel_at) = (self.tap_offsets(), self.pixel_offsets());
        let panels = pack_panels(taps, c_out, |t, co| w[co * stride + t]);
        let mut grad_padded = vec![0.0f32; n * self.block_len()];
        // The lanes of a last, partial tile; those past the plane reread
        // its first pixel.
        let mut tail = [0usize; NR];
        tail[..plane % NR].copy_from_slice(&RUN[..plane % NR]);
        let images = grad_out.as_slice().chunks_exact(self.slab_len());
        for (slab, dst) in images.zip(grad_padded.chunks_exact_mut(self.block_len())) {
            for (g, panel) in panels.chunks_exact(c_out * MR).enumerate().rev() {
                let group = &tap_at[g * MR..taps.min(g * MR + MR)];
                for j0 in (0..plane).step_by(NR) {
                    let pixels = &pixel_at[j0..plane.min(j0 + NR)];
                    let runs = (0..c_out).map(|co| co * plane + j0);
                    let acc = match pixels.len() {
                        NR => tile(panel, slab, runs, &RUN),
                        _ => tile(panel, slab, runs, &tail),
                    };
                    // Eight pixels of one row at stride 1 read eight
                    // neighbouring inputs.
                    let row = pixels.len() == NR && pixels[NR - 1] - pixels[0] == NR - 1;
                    // The last tap first: every input pixel adds its terms
                    // in descending tap order, as `col2im` does, since
                    // the groups run in descending order too.
                    for (acc_row, &t) in acc.iter().zip(group).rev() {
                        if row {
                            for (d, &v) in dst[t + pixels[0]..][..NR].iter_mut().zip(acc_row) {
                                *d += v;
                            }
                        } else {
                            for (&v, &at) in acc_row.iter().zip(pixels) {
                                dst[t + at] += v;
                            }
                        }
                    }
                }
            }
        }
        self.geo.crop(&grad_padded, n, self.c_in)
    }

    /// The parameter half of [`ConvKernel::backward`]: adds
    /// `dW = G · Xᵀ` (`X` the patch matrix the padded input stands for)
    /// into the active slice of `weight_grad`, shaped like the bank, and
    /// `db` into the leading `c_out` entries of `bias_grad`, without
    /// computing the input gradient.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the gradient, the padded input or the
    /// parameter gradients do not fit the kernel.
    pub fn backward_params(
        &self,
        grad_out: &Tensor,
        padded: &Tensor,
        weight_grad: &mut Tensor,
        bias_grad: &mut Tensor,
    ) -> Result<(), TensorError> {
        let n = padded.shape().dims().first().copied().unwrap_or(0);
        let (hp, wp) = (self.geo.padded_h(), self.geo.padded_w());
        if padded.shape().dims() != [n, self.c_in, hp, wp]
            || grad_out.shape().dims() != [n, self.c_out, self.geo.out_h, self.geo.out_w]
        {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().dims().to_vec(),
                right: vec![n, self.c_out, self.geo.out_h, self.geo.out_w],
            });
        }
        let (_, stride) = self.weights(weight_grad)?;
        self.check_bias(bias_grad)?;
        let (taps, plane, c_out) = (self.taps(), self.plane(), self.c_out);
        let width = n * plane;
        let g = grad_out.as_slice();

        // dW: (taps × c_out) = X · Gᵀ, with Gᵀ packed pixel-major and its
        // channels padded to whole register tiles; each term walks the
        // pixels (img, p) in ascending order, as Gᵀ's rows do.
        let lanes = c_out.div_ceil(NR) * NR;
        let mut g_t = vec![0.0f32; width * lanes];
        for (img, slab) in g.chunks_exact(self.slab_len()).enumerate() {
            for (c, channel) in slab.chunks_exact(plane).enumerate() {
                for (p, &v) in channel.iter().enumerate() {
                    g_t[(img * plane + p) * lanes + c] = v;
                }
            }
        }
        let (tap_at, pixel_at) = (self.tap_offsets(), self.pixel_offsets());
        let (s, ow) = (self.geo.stride, self.geo.out_w);
        let mut panel = vec![0.0f32; width * MR];
        // dW transposed, `(taps × lanes)`: each tile's rows are copied out
        // whole and added into the bank at the end. (Adding each tile
        // column straight into a bank row made the compiler keep the
        // tile transposed in registers, about 1.5× slower.)
        let mut dw_t = vec![0.0f32; taps.div_ceil(MR) * MR * lanes];
        for i0 in (0..taps).step_by(MR) {
            let rows = &tap_at[i0..taps.min(i0 + MR)];
            if rows.len() < MR {
                panel.fill(0.0);
            }
            let images = padded.as_slice().chunks_exact(self.block_len());
            for (pixels, src) in panel.chunks_exact_mut(plane * MR).zip(images) {
                // One output row at a time: tap `q` of its pixels is one
                // run of the padded input, `s` apart.
                let starts = pixel_at.iter().step_by(ow);
                for (line, &at) in pixels.chunks_exact_mut(ow * MR).zip(starts) {
                    match (rows, s) {
                        // Four contiguous runs, interleaved in one pass.
                        (&[t0, t1, t2, t3], 1) => {
                            let run = |t: usize| &src[t + at..][..ow];
                            let quads = run(t0).iter().zip(run(t1)).zip(run(t2)).zip(run(t3));
                            for (lane, (((&a, &b), &c), &d)) in line.chunks_exact_mut(MR).zip(quads)
                            {
                                lane.copy_from_slice(&[a, b, c, d]);
                            }
                        }
                        _ => {
                            for (q, &t) in rows.iter().enumerate() {
                                let run = src[t + at..].iter().step_by(s);
                                for (lane, &v) in line.chunks_exact_mut(MR).zip(run) {
                                    lane[q] = v;
                                }
                            }
                        }
                    }
                }
            }
            for j0 in (0..c_out).step_by(NR) {
                let acc = tile(&panel, &g_t, (0..width).map(|p| p * lanes + j0), &RUN);
                for (q, acc_row) in acc.iter().enumerate() {
                    dw_t[(i0 + q) * lanes + j0..][..NR].copy_from_slice(acc_row);
                }
            }
        }
        for (c, dst) in weight_grad.as_mut_slice().chunks_mut(stride).take(c_out).enumerate() {
            for (t, d) in dst[..taps].iter_mut().enumerate() {
                *d += dw_t[t * lanes + c];
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
        Ok(())
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
