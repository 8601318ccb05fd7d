//! Spatial padding in the three modes the paper evaluates as *block padding*
//! (§II-F, Figure 6): zero, replicate and reflect.

use crate::{Tensor, TensorError};

/// How out-of-bounds pixels are synthesised when padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PadMode {
    /// Pad with zeros (the paper's default block padding).
    #[default]
    Zero,
    /// Copy the boundary pixel outwards.
    Replicate,
    /// Mirror around the boundary pixel (the boundary itself is the axis and
    /// is not repeated), matching PyTorch `ReflectionPad2d`.
    Reflect,
}

impl PadMode {
    /// All modes, in the order Figure 6 reports them.
    pub const ALL: [PadMode; 3] = [PadMode::Zero, PadMode::Replicate, PadMode::Reflect];

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PadMode::Zero => "zero",
            PadMode::Replicate => "replicate",
            PadMode::Reflect => "reflect",
        }
    }
}

/// Maps a possibly out-of-range coordinate to a source coordinate, or `None`
/// when the mode synthesises a zero.
#[inline]
fn resolve(coord: isize, len: usize, mode: PadMode) -> Option<usize> {
    if coord >= 0 && (coord as usize) < len {
        return Some(coord as usize);
    }
    match mode {
        PadMode::Zero => None,
        PadMode::Replicate => Some(coord.clamp(0, len as isize - 1) as usize),
        PadMode::Reflect => {
            if len == 1 {
                return Some(0);
            }
            // Reflect with period 2*(len-1), boundary not repeated.
            let period = 2 * (len as isize - 1);
            let mut c = coord.rem_euclid(period);
            if c >= len as isize {
                c = period - c;
            }
            Some(c as usize)
        }
    }
}

/// Pads a tensor spatially by `(ph_top, ph_bottom, pw_left, pw_right)`.
///
/// Asymmetric padding is required by block convolution when the paper's
/// Equation 2 yields asymmetric block padding (e.g. strided layers).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] when reflect padding exceeds
/// what the input size supports (`pad >= len` has no defined reflection).
///
/// # Examples
///
/// ```
/// use bconv_tensor::{Tensor, pad::{pad2d_asym, PadMode}};
/// let t = Tensor::filled([1, 1, 2, 2], 3.0);
/// let p = pad2d_asym(&t, 1, 1, 1, 1, PadMode::Zero)?;
/// assert_eq!(p.shape().dims(), [1, 1, 4, 4]);
/// assert_eq!(p.at(0, 0, 0, 0), 0.0);
/// assert_eq!(p.at(0, 0, 1, 1), 3.0);
/// # Ok::<(), bconv_tensor::TensorError>(())
/// ```
pub fn pad2d_asym(
    input: &Tensor,
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0, 0, 0, 0]);
    pad2d_asym_into(input, ph_top, ph_bottom, pw_left, pw_right, mode, &mut out)?;
    Ok(out)
}

/// [`pad2d_asym`] into a caller-provided tensor, reusing its allocation
/// (`out` is reshaped to fit, every element overwritten). The one pad
/// primitive under block padding (float and integer chains), whole-map
/// quantized convs and the dense walk — block executors call it once per
/// block per stage, so it moves whole rows and resolves coordinates only
/// where a mode needs them: a zero-padded plane is one fill plus its
/// interior rows; a replicate- or reflect-padded plane is its interior
/// rows, their at most `pw_left + pw_right` resolved border pixels, and
/// border rows that repeat whole padded interior rows.
///
/// # Errors
///
/// See [`pad2d_asym`].
pub fn pad2d_asym_into(
    input: &Tensor,
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let [n, c, h, w] = input.shape().dims();
    if mode == PadMode::Reflect {
        let max_h = ph_top.max(ph_bottom);
        let max_w = pw_left.max(pw_right);
        if (h > 0 && max_h >= h) || (w > 0 && max_w >= w) {
            return Err(TensorError::invalid(format!(
                "reflect padding ({max_h},{max_w}) must be smaller than spatial dims ({h},{w})"
            )));
        }
    }
    let oh = h + ph_top + ph_bottom;
    let ow = w + pw_left + pw_right;
    out.reset([n, c, oh, ow]);
    if out.data().is_empty() {
        return Ok(());
    }
    if h == 0 || w == 0 {
        // No source pixel to repeat: only zero padding has an answer.
        if mode != PadMode::Zero {
            return Err(TensorError::invalid("replicate/reflect padding of an empty map"));
        }
        out.data_mut().fill(0.0);
        return Ok(());
    }
    let src = input.data();
    let interior = ph_top * ow..(ph_top + h) * ow;
    for (pi, dplane) in out.data_mut().chunks_exact_mut(oh * ow).enumerate() {
        let splane = &src[pi * h * w..(pi + 1) * h * w];
        // Two loops over the interior rows on purpose: with the border work
        // behind a per-row mode test the zero-mode loop, the one every
        // block of every default session runs, measured a third slower.
        if mode == PadMode::Zero {
            // Every out-of-range pixel is synthesised: one fill, then the
            // interior rows.
            dplane.fill(0.0);
            let rows = dplane[interior.clone()].chunks_exact_mut(ow);
            for (drow, srow) in rows.zip(splane.chunks_exact(w)) {
                copy_row(&mut drow[pw_left..pw_left + w], srow);
            }
        } else {
            // Every out-of-range pixel resolves to a source pixel: border
            // columns come from their own row, border rows repeat whole
            // padded interior rows.
            let rows = dplane[interior.clone()].chunks_exact_mut(ow);
            for (drow, srow) in rows.zip(splane.chunks_exact(w)) {
                copy_row(&mut drow[pw_left..pw_left + w], srow);
                for wi in (0..pw_left).chain(pw_left + w..ow) {
                    if let Some(sw) = resolve(wi as isize - pw_left as isize, w, mode) {
                        drow[wi] = srow[sw];
                    }
                }
            }
            for hi in (0..ph_top).chain(ph_top + h..oh) {
                if let Some(sh) = resolve(hi as isize - ph_top as isize, h, mode) {
                    dplane.copy_within((ph_top + sh) * ow..(ph_top + sh + 1) * ow, hi * ow);
                }
            }
        }
    }
    Ok(())
}

/// `dst.copy_from_slice(src)` for rows of equal length. Block rows are a
/// handful of floats, for which a `memcpy` call costs more in dispatch than
/// it moves: short rows are copied in fixed 8-element pieces instead.
#[inline]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    if src.len() >= 64 {
        return dst.copy_from_slice(src);
    }
    let (mut d, mut s) = (dst.chunks_exact_mut(8), src.chunks_exact(8));
    for (d, s) in (&mut d).zip(&mut s) {
        d.copy_from_slice(s);
    }
    for (d, s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d = *s;
    }
}

/// Symmetric spatial padding by `(ph, pw)` on each side.
///
/// # Errors
///
/// See [`pad2d_asym`].
pub fn pad2d(input: &Tensor, ph: usize, pw: usize, mode: PadMode) -> Result<Tensor, TensorError> {
    pad2d_asym(input, ph, ph, pw, pw, mode)
}

/// Backward pass of [`pad2d_asym`]: scatter-adds a gradient w.r.t. the
/// padded tensor back onto the unpadded input.
///
/// Padding is linear, so its adjoint routes each padded-pixel gradient to
/// the source pixel that produced it (zero padding drops it, replicate and
/// reflect accumulate onto boundary pixels). Used by the training crate to
/// backpropagate through *block padding* in all three modes of Figure 6.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `grad_padded` is not the
/// padded shape of `[n, c, h, w]` = `input_dims`.
pub fn pad2d_backward(
    grad_padded: &Tensor,
    input_dims: [usize; 4],
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
) -> Result<Tensor, TensorError> {
    let [n, c, h, w] = input_dims;
    let [gn, gc, gh, gw] = grad_padded.shape().dims();
    if gn != n || gc != c || gh != h + ph_top + ph_bottom || gw != w + pw_left + pw_right {
        return Err(TensorError::shape_mismatch(
            "pad2d_backward",
            format!("[{n},{c},{},{}]", h + ph_top + ph_bottom, w + pw_left + pw_right),
            format!("[{gn},{gc},{gh},{gw}]"),
        ));
    }
    let mut grad = Tensor::zeros(input_dims);
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..gh {
                let src_h = resolve(hi as isize - ph_top as isize, h, mode);
                for wi in 0..gw {
                    let src_w = resolve(wi as isize - pw_left as isize, w, mode);
                    if let (Some(sh), Some(sw)) = (src_h, src_w) {
                        *grad.at_mut(ni, ci, sh, sw) += grad_padded.at(ni, ci, hi, wi);
                    }
                }
            }
        }
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-element definition of padding: the oracle
    /// `pad2d_asym_into` must match bitwise.
    fn pad2d_asym_reference(
        input: &Tensor,
        (ph_top, ph_bottom, pw_left, pw_right): (usize, usize, usize, usize),
        mode: PadMode,
    ) -> Tensor {
        let [n, c, h, w] = input.shape().dims();
        let (oh, ow) = (h + ph_top + ph_bottom, w + pw_left + pw_right);
        let mut out = Tensor::zeros([n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..oh {
                    let src_h = resolve(hi as isize - ph_top as isize, h, mode);
                    for wi in 0..ow {
                        let src_w = resolve(wi as isize - pw_left as isize, w, mode);
                        if let (Some(sh), Some(sw)) = (src_h, src_w) {
                            *out.at_mut(ni, ci, hi, wi) = input.at(ni, ci, sh, sw);
                        }
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Row-wise padding equals the per-element oracle bit for bit in
        /// every mode, for asymmetric pads (zero on some sides included),
        /// into a dirty buffer that was larger before.
        #[test]
        fn rowwise_pad_matches_the_per_element_oracle(
            n in 1usize..=3,
            c in 1usize..=3,
            h in 1usize..=12,
            w in 1usize..=12,
            ph_top in 0usize..=3,
            ph_bottom in 0usize..=3,
            pw_left in 0usize..=3,
            pw_right in 0usize..=3,
            seed in 0u64..10_000,
        ) {
            let pads = (ph_top, ph_bottom, pw_left, pw_right);
            let mut rng = crate::init::seeded_rng(seed);
            let input = crate::init::uniform_tensor([n, c, h, w], -1.0, 1.0, &mut rng);
            for mode in PadMode::ALL {
                let mut out = Tensor::filled([3, 3, 20, 20], f32::NAN);
                let r = pad2d_asym_into(&input, ph_top, ph_bottom, pw_left, pw_right, mode, &mut out);
                let too_wide = ph_top.max(ph_bottom) >= h || pw_left.max(pw_right) >= w;
                if mode == PadMode::Reflect && too_wide {
                    prop_assert!(matches!(r, Err(TensorError::InvalidParameter { .. })));
                    continue;
                }
                prop_assert!(r.is_ok());
                let want = pad2d_asym_reference(&input, pads, mode);
                prop_assert_eq!(out.shape(), want.shape());
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&out), bits(&want), "mode {}", mode.name());
            }
        }
    }

    fn seq3() -> Tensor {
        // 1x1x3x3 with values 0..9.
        Tensor::from_fn(1, 3, 3, |_, h, w| (h * 3 + w) as f32)
    }

    #[test]
    fn zero_padding_surrounds_with_zeros() {
        let p = pad2d(&seq3(), 1, 1, PadMode::Zero).unwrap();
        assert_eq!(p.shape().dims(), [1, 1, 5, 5]);
        for i in 0..5 {
            assert_eq!(p.at(0, 0, 0, i), 0.0);
            assert_eq!(p.at(0, 0, 4, i), 0.0);
            assert_eq!(p.at(0, 0, i, 0), 0.0);
            assert_eq!(p.at(0, 0, i, 4), 0.0);
        }
        assert_eq!(p.at(0, 0, 1, 1), 0.0 + 0.0); // original (0,0)
        assert_eq!(p.at(0, 0, 3, 3), 8.0);
    }

    #[test]
    fn replicate_padding_copies_boundary() {
        let p = pad2d(&seq3(), 1, 1, PadMode::Replicate).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 0.0); // corner copies (0,0)
        assert_eq!(p.at(0, 0, 0, 2), 1.0); // top copies row 0
        assert_eq!(p.at(0, 0, 4, 4), 8.0); // corner copies (2,2)
        assert_eq!(p.at(0, 0, 2, 0), 3.0); // left copies column 0
    }

    #[test]
    fn reflect_padding_mirrors_without_repeating_boundary() {
        // Row values 0 1 2 reflect-padded by 1 -> 1 0 1 2 1.
        let p = pad2d(&seq3(), 1, 1, PadMode::Reflect).unwrap();
        assert_eq!(p.at(0, 0, 1, 0), 1.0);
        assert_eq!(p.at(0, 0, 1, 4), 1.0);
        // Column direction: rows 0,3,6 -> padded col values 3,0,3,6,3.
        assert_eq!(p.at(0, 0, 0, 1), 3.0);
        assert_eq!(p.at(0, 0, 4, 1), 3.0);
    }

    #[test]
    fn reflect_rejects_padding_wider_than_input() {
        let t = Tensor::filled([1, 1, 2, 2], 1.0);
        assert!(pad2d(&t, 2, 0, PadMode::Reflect).is_err());
        assert!(pad2d(&t, 1, 1, PadMode::Reflect).is_ok());
    }

    #[test]
    fn an_empty_map_pads_to_zeros_or_a_typed_error() {
        let empty = Tensor::zeros([1, 2, 3, 0]);
        let mut out = Tensor::filled([1, 2, 5, 2], 7.0);
        pad2d_asym_into(&empty, 1, 1, 1, 1, PadMode::Zero, &mut out).unwrap();
        assert_eq!(out.shape().dims(), [1, 2, 5, 2]);
        assert!(out.data().iter().all(|&v| v == 0.0));
        assert!(pad2d_asym_into(&empty, 1, 1, 1, 1, PadMode::Replicate, &mut out).is_err());
        assert!(pad2d_asym_into(&empty, 0, 0, 0, 0, PadMode::Replicate, &mut out).is_ok());
    }

    #[test]
    fn asymmetric_padding_shapes() {
        let p = pad2d_asym(&seq3(), 0, 2, 1, 0, PadMode::Zero).unwrap();
        assert_eq!(p.shape().dims(), [1, 1, 5, 4]);
        // Top row is original row 0 shifted right by 1.
        assert_eq!(p.at(0, 0, 0, 1), 0.0);
        assert_eq!(p.at(0, 0, 0, 2), 1.0);
    }

    #[test]
    fn single_pixel_reflect_degenerates_to_replicate() {
        let t = Tensor::filled([1, 1, 1, 1], 5.0);
        // len == 1: reflection is defined as the pixel itself.
        let p = pad2d(&t, 0, 0, PadMode::Reflect).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 5.0);
        assert_eq!(resolve(-1, 1, PadMode::Reflect), Some(0));
        assert_eq!(resolve(2, 1, PadMode::Reflect), Some(0));
    }

    #[test]
    fn pad_backward_zero_crops_the_gradient() {
        let grad_padded = Tensor::filled([1, 1, 5, 5], 1.0);
        let g = pad2d_backward(&grad_padded, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Zero).unwrap();
        // Every interior pixel receives exactly its own gradient.
        assert_eq!(g.data(), &[1.0; 9]);
    }

    #[test]
    fn pad_backward_replicate_accumulates_on_boundary() {
        let grad_padded = Tensor::filled([1, 1, 5, 5], 1.0);
        let g = pad2d_backward(&grad_padded, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Replicate).unwrap();
        // Corner pixels receive their own + 3 replicated gradients.
        assert_eq!(g.at(0, 0, 0, 0), 4.0);
        assert_eq!(g.at(0, 0, 0, 1), 2.0);
        assert_eq!(g.at(0, 0, 1, 1), 1.0);
        // Total gradient is conserved.
        assert_eq!(g.data().iter().sum::<f32>(), 25.0);
    }

    #[test]
    fn pad_backward_reflect_conserves_gradient_mass() {
        let grad_padded = Tensor::filled([1, 1, 5, 5], 1.0);
        let g = pad2d_backward(&grad_padded, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Reflect).unwrap();
        assert_eq!(g.data().iter().sum::<f32>(), 25.0);
        // Reflection maps each padded row/col onto interior index 1, so the
        // centre pixel accumulates 3x3 contributions while corners keep 1.
        assert_eq!(g.at(0, 0, 1, 1), 9.0);
        assert_eq!(g.at(0, 0, 0, 0), 1.0);
    }

    #[test]
    fn pad_backward_shape_mismatch_errors() {
        let grad = Tensor::zeros([1, 1, 4, 4]);
        assert!(pad2d_backward(&grad, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Zero).is_err());
    }

    #[test]
    fn pad_mode_names() {
        assert_eq!(PadMode::ALL.map(|m| m.name()), ["zero", "replicate", "reflect"]);
    }
}
