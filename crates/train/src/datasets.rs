//! Synthetic datasets standing in for ImageNet, Set5 and COCO.
//!
//! See the [crate docs](crate#substitutions) for the substitution
//! rationale. Each task is designed so that the paper's *relative* claims
//! are exercised:
//!
//! * **classification** — the class is the relative offset between two
//!   blobs; recognising it needs a receptive field spanning both blobs, so
//!   blocking (which severs cross-block information flow) degrades accuracy
//!   gracefully, hierarchical blocking more than fixed blocking;
//! * **super-resolution** — procedural images are blurred (VDSR-style: the
//!   network input is the bicubic-upsampled LR image, i.e. same size but
//!   low-pass) with scale-dependent strength;
//! * **detection** — one textured object per image; the net regresses the
//!   box and classifies the texture.

use bconv_tensor::init::seeded_rng;
use bconv_tensor::{Tensor, TensorError};
use rand::rngs::StdRng;
use rand::Rng;

/// Image side used by the synthetic classification and detection tasks.
pub const IMAGE_SIZE: usize = 32;

/// Number of classes in the classification task (relative blob offsets).
pub const NUM_CLASSES: usize = 4;

/// A labelled classification batch.
#[derive(Debug, Clone)]
pub struct ClassBatch {
    /// Images `[n, 1, 32, 32]`.
    pub images: Tensor,
    /// Class labels.
    pub labels: Vec<usize>,
}

fn put_blob(img: &mut Tensor, n: usize, ch: usize, cy: isize, cx: isize, amp: f32) {
    let [_, _, h, w] = img.shape().dims();
    for dy in -2isize..=2 {
        for dx in -2isize..=2 {
            let y = cy + dy;
            let x = cx + dx;
            if y >= 0 && (y as usize) < h && x >= 0 && (x as usize) < w {
                let g = (-((dy * dy + dx * dx) as f32) / 2.0).exp();
                *img.at_mut(n, ch, y as usize, x as usize) += amp * g;
            }
        }
    }
}

/// Generates a classification batch: each image holds an anchor blob and a
/// partner blob displaced by a class-specific offset (right / down /
/// diagonal / far-right); Gaussian pixel noise is added.
pub fn classification_batch(n: usize, rng: &mut StdRng) -> ClassBatch {
    // Class-defining offsets (dy, dx): four distinct directions requiring a
    // ~10-pixel receptive field to resolve.
    const OFFSETS: [(isize, isize); NUM_CLASSES] = [(0, 10), (10, 0), (7, 7), (-7, 7)];
    let mut images = Tensor::zeros([n, 1, IMAGE_SIZE, IMAGE_SIZE]);
    let mut labels = Vec::with_capacity(n);
    for ni in 0..n {
        let class = rng.gen_range(0..NUM_CLASSES);
        let (dy, dx) = OFFSETS[class];
        let margin = 3isize;
        // Two blob pairs per image: denser gradient signal, which keeps
        // plain (non-residual) networks off the uniform-prediction plateau.
        for _ in 0..2 {
            let cy = rng.gen_range(margin + (-dy).max(0)..IMAGE_SIZE as isize - margin - dy.max(0));
            let cx = rng.gen_range(margin + (-dx).max(0)..IMAGE_SIZE as isize - margin - dx.max(0));
            put_blob(&mut images, ni, 0, cy, cx, 1.5);
            put_blob(&mut images, ni, 0, cy + dy, cx + dx, 1.5);
        }
        // Pixel noise.
        for h in 0..IMAGE_SIZE {
            for w in 0..IMAGE_SIZE {
                *images.at_mut(ni, 0, h, w) += (rng.gen::<f32>() - 0.5) * 0.1;
            }
        }
        labels.push(class);
    }
    ClassBatch { images, labels }
}

/// A super-resolution batch: `input` is the degraded (blurred) image, the
/// network learns the residual to `target`.
#[derive(Debug, Clone)]
pub struct SrBatch {
    /// Degraded inputs `[n, 1, size, size]`.
    pub input: Tensor,
    /// Ground-truth high-resolution images, same shape.
    pub target: Tensor,
}

/// Procedural "natural image" patch: a sum of random oriented sinusoids
/// plus a random step edge, normalised to roughly `[0, 1]`.
fn procedural_patch(size: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut img = vec![0.0f32; size * size];
    for _ in 0..4 {
        let fx = rng.gen_range(0.3..2.0) * std::f32::consts::TAU / size as f32;
        let fy = rng.gen_range(0.3..2.0) * std::f32::consts::TAU / size as f32;
        let phase = rng.gen_range(0.0..std::f32::consts::TAU);
        let amp = rng.gen_range(0.1..0.4);
        for y in 0..size {
            for x in 0..size {
                img[y * size + x] += amp * (fx * x as f32 + fy * y as f32 + phase).sin();
            }
        }
    }
    // Random straight edges for high-frequency content (what
    // super-resolution must restore).
    for _ in 0..3 {
        let a = rng.gen_range(-1.0f32..1.0);
        let b = rng.gen_range(-1.0f32..1.0);
        let c = rng.gen_range(0.0..size as f32);
        let contrast = rng.gen_range(0.2..0.5);
        for y in 0..size {
            for x in 0..size {
                if a * x as f32 + b * y as f32 - c * (a + b) > 0.0 {
                    img[y * size + x] += contrast;
                }
            }
        }
    }
    // Normalise to [0,1]-ish.
    let (mut lo, mut hi) = (f32::MAX, f32::MIN);
    for &v in &img {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-6);
    for v in &mut img {
        *v = (*v - lo) / span;
    }
    img
}

/// Separable Gaussian blur with std `sigma` (replicate boundary).
fn gaussian_blur(img: &[f32], size: usize, sigma: f32) -> Vec<f32> {
    let radius = (3.0 * sigma).ceil() as isize;
    let kernel: Vec<f32> =
        (-radius..=radius).map(|i| (-(i * i) as f32 / (2.0 * sigma * sigma)).exp()).collect();
    let norm: f32 = kernel.iter().sum();
    let clamp = |v: isize| v.clamp(0, size as isize - 1) as usize;
    let mut tmp = vec![0.0f32; size * size];
    for y in 0..size {
        for x in 0..size {
            let mut acc = 0.0;
            for (ki, kv) in kernel.iter().enumerate() {
                let sx = clamp(x as isize + ki as isize - radius);
                acc += kv * img[y * size + sx];
            }
            tmp[y * size + x] = acc / norm;
        }
    }
    let mut out = vec![0.0f32; size * size];
    for y in 0..size {
        for x in 0..size {
            let mut acc = 0.0;
            for (ki, kv) in kernel.iter().enumerate() {
                let sy = clamp(y as isize + ki as isize - radius);
                acc += kv * tmp[sy * size + x];
            }
            out[y * size + x] = acc / norm;
        }
    }
    out
}

/// Generates a super-resolution batch at `size × size` for an upscaling
/// factor `scale` (2, 3 or 4). As in VDSR, the network input is the
/// upsampled low-resolution image (same spatial size as the target): the
/// HR patch is anti-alias blurred, decimated by `scale` and bilinearly
/// upsampled back.
///
/// The paper trains on 41×41 Set5 patches; the harnesses use 24×24 so
/// every scale factor divides the patch exactly
/// ([crate docs](crate#substitutions)).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] if `scale` is not 2, 3 or 4,
/// or does not divide `size`.
pub fn super_resolution_batch(
    n: usize,
    size: usize,
    scale: usize,
    rng: &mut StdRng,
) -> Result<SrBatch, TensorError> {
    if !(2..=4).contains(&scale) {
        return Err(TensorError::invalid("scale must be 2, 3 or 4"));
    }
    if !size.is_multiple_of(scale) {
        return Err(TensorError::invalid(format!("scale {scale} must divide patch size {size}")));
    }
    let sigma = 0.4 * scale as f32;
    let mut input = Tensor::zeros([n, 1, size, size]);
    let mut target = Tensor::zeros([n, 1, size, size]);
    for ni in 0..n {
        let hr = procedural_patch(size, rng);
        let blurred = gaussian_blur(&hr, size, sigma);
        for y in 0..size {
            for x in 0..size {
                *target.at_mut(ni, 0, y, x) = hr[y * size + x];
                *input.at_mut(ni, 0, y, x) = blurred[y * size + x];
            }
        }
    }
    // Decimate and bilinearly restore the input (per-batch, whole tensor).
    let small = decimate(&input, scale)?;
    let restored = bconv_tensor::upsample::upsample_bilinear(&small, scale)?;
    Ok(SrBatch { input: restored, target })
}

/// Box-filter decimation helper (wraps the tensor crate's downsampler).
fn decimate(t: &Tensor, scale: usize) -> Result<Tensor, TensorError> {
    bconv_tensor::upsample::downsample_box(t, scale)
}

/// Axis-aligned bounding box in pixels, `(y0, x0, y1, x1)` exclusive end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Top edge.
    pub y0: f32,
    /// Left edge.
    pub x0: f32,
    /// Bottom edge (exclusive).
    pub y1: f32,
    /// Right edge (exclusive).
    pub x1: f32,
}

impl BBox {
    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BBox) -> f32 {
        let iy0 = self.y0.max(other.y0);
        let ix0 = self.x0.max(other.x0);
        let iy1 = self.y1.min(other.y1);
        let ix1 = self.x1.min(other.x1);
        let inter = (iy1 - iy0).max(0.0) * (ix1 - ix0).max(0.0);
        let a = (self.y1 - self.y0).max(0.0) * (self.x1 - self.x0).max(0.0);
        let b = (other.y1 - other.y0).max(0.0) * (other.x1 - other.x0).max(0.0);
        if a + b - inter <= 0.0 {
            0.0
        } else {
            inter / (a + b - inter)
        }
    }
}

/// Number of object texture classes in the detection task.
pub const NUM_DET_CLASSES: usize = 2;

/// A detection batch: one object per image.
#[derive(Debug, Clone)]
pub struct DetBatch {
    /// Images `[n, 1, 32, 32]`.
    pub images: Tensor,
    /// Ground-truth boxes, one per image.
    pub boxes: Vec<BBox>,
    /// Texture class per image.
    pub classes: Vec<usize>,
}

/// Generates a detection batch: each image contains one textured rectangle
/// (class 0 = horizontal stripes, class 1 = checkerboard) on a noisy
/// background.
pub fn detection_batch(n: usize, rng: &mut StdRng) -> DetBatch {
    let s = IMAGE_SIZE;
    let mut images = Tensor::zeros([n, 1, s, s]);
    let mut boxes = Vec::with_capacity(n);
    let mut classes = Vec::with_capacity(n);
    for ni in 0..n {
        for h in 0..s {
            for w in 0..s {
                *images.at_mut(ni, 0, h, w) = (rng.gen::<f32>() - 0.5) * 0.15;
            }
        }
        let bh = rng.gen_range(8..16usize);
        let bw = rng.gen_range(8..16usize);
        let y0 = rng.gen_range(0..s - bh);
        let x0 = rng.gen_range(0..s - bw);
        let class = rng.gen_range(0..NUM_DET_CLASSES);
        for y in y0..y0 + bh {
            for x in x0..x0 + bw {
                let v = match class {
                    0 => {
                        if y % 2 == 0 {
                            1.0
                        } else {
                            0.2
                        }
                    }
                    _ => {
                        if (y + x) % 2 == 0 {
                            1.0
                        } else {
                            0.2
                        }
                    }
                };
                *images.at_mut(ni, 0, y, x) += v;
            }
        }
        boxes.push(BBox {
            y0: y0 as f32,
            x0: x0 as f32,
            y1: (y0 + bh) as f32,
            x1: (x0 + bw) as f32,
        });
        classes.push(class);
    }
    DetBatch { images, boxes, classes }
}

/// Deterministic RNG for a named experiment and split.
pub fn experiment_rng(experiment: &str, split: u64) -> StdRng {
    // Cheap stable hash of the experiment name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    seeded_rng(h ^ (split.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_batch_shapes_and_labels() {
        let mut rng = experiment_rng("test", 0);
        let b = classification_batch(8, &mut rng);
        assert_eq!(b.images.shape().dims(), [8, 1, IMAGE_SIZE, IMAGE_SIZE]);
        assert_eq!(b.labels.len(), 8);
        assert!(b.labels.iter().all(|&l| l < NUM_CLASSES));
    }

    #[test]
    fn classification_is_deterministic_per_seed() {
        let a = classification_batch(4, &mut experiment_rng("x", 1));
        let b = classification_batch(4, &mut experiment_rng("x", 1));
        assert_eq!(a.images.data(), b.images.data());
        assert_eq!(a.labels, b.labels);
        let c = classification_batch(4, &mut experiment_rng("x", 2));
        assert_ne!(a.images.data(), c.images.data());
    }

    #[test]
    fn sr_input_is_smoother_than_target() {
        let mut rng = experiment_rng("sr", 0);
        let b = super_resolution_batch(2, 48, 3, &mut rng).unwrap();
        // Total variation of the blurred input must be lower.
        let tv = |t: &Tensor, n: usize| -> f32 {
            let mut acc = 0.0;
            for y in 0..39 {
                for x in 0..39 {
                    acc += (t.at(n, 0, y, x) - t.at(n, 0, y, x + 1)).abs()
                        + (t.at(n, 0, y, x) - t.at(n, 0, y + 1, x)).abs();
                }
            }
            acc
        };
        assert!(tv(&b.input, 0) < tv(&b.target, 0));
    }

    #[test]
    fn sr_degradation_grows_with_scale() {
        let mut r2 = experiment_rng("srs", 7);
        let mut r4 = experiment_rng("srs", 7);
        let b2 = super_resolution_batch(2, 48, 2, &mut r2).unwrap();
        let b4 = super_resolution_batch(2, 48, 4, &mut r4).unwrap();
        let e2 = b2.input.max_abs_diff(&b2.target).unwrap();
        let e4 = b4.input.max_abs_diff(&b4.target).unwrap();
        assert!(e4 > e2, "x4 ({e4}) should degrade more than x2 ({e2})");
    }

    #[test]
    fn sr_rejects_bad_scale() {
        let mut rng = experiment_rng("sr", 0);
        assert!(super_resolution_batch(1, 48, 5, &mut rng).is_err());
    }

    #[test]
    fn detection_boxes_are_inside_the_image() {
        let mut rng = experiment_rng("det", 0);
        let b = detection_batch(16, &mut rng);
        for bb in &b.boxes {
            assert!(bb.y0 >= 0.0 && bb.y1 <= IMAGE_SIZE as f32 && bb.y0 < bb.y1);
            assert!(bb.x0 >= 0.0 && bb.x1 <= IMAGE_SIZE as f32 && bb.x0 < bb.x1);
        }
    }

    #[test]
    fn iou_identities() {
        let a = BBox { y0: 0.0, x0: 0.0, y1: 10.0, x1: 10.0 };
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
        let b = BBox { y0: 20.0, x0: 20.0, y1: 30.0, x1: 30.0 };
        assert_eq!(a.iou(&b), 0.0);
        let c = BBox { y0: 0.0, x0: 5.0, y1: 10.0, x1: 15.0 };
        assert!((a.iou(&c) - 50.0 / 150.0).abs() < 1e-6);
    }
}
