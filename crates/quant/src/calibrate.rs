//! Range calibration for post-training quantization: observe activations on
//! calibration data, then freeze [`QParams`].

use bconv_tensor::Tensor;

use crate::QParams;

/// Accumulates activation ranges over calibration batches.
///
/// The range is an exponential moving average of per-batch maxima (decay
/// 0.9) — smoother than the absolute maximum, and the policy used by
/// training-aware quantization frameworks such as Distiller.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    ema: Option<f32>,
    observations: usize,
}

/// Weight of the running average against each new batch maximum.
const EMA_DECAY: f32 = 0.9;

impl Calibrator {
    /// New calibrator, nothing observed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one batch of activations.
    pub fn observe(&mut self, t: &Tensor) {
        let batch_max = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        self.ema = Some(match self.ema {
            None => batch_max,
            Some(e) => e * EMA_DECAY + batch_max * (1.0 - EMA_DECAY),
        });
        self.observations += 1;
    }

    /// Number of observed batches.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Freezes parameters using the EMA of per-batch maxima.
    ///
    /// Returns `None` if nothing was observed or the EMA is zero.
    pub fn finalize_ema(&self, bits: u8) -> Option<QParams> {
        match self.ema {
            Some(e) if e > 0.0 => Some(QParams::from_abs_max(e, bits)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_is_smoother_than_abs_max() {
        let mut c = Calibrator::new();
        c.observe(&Tensor::filled([1, 1, 2, 2], 1.0));
        c.observe(&Tensor::filled([1, 1, 2, 2], 100.0)); // outlier
        c.observe(&Tensor::filled([1, 1, 2, 2], -1.0));
        let abs = QParams::from_abs_max(100.0, 8);
        let ema = c.finalize_ema(8).unwrap();
        assert!(ema.scale() < abs.scale(), "EMA should discount the outlier");
        assert_eq!(c.observations(), 3);
    }

    #[test]
    fn empty_calibrator_finalizes_to_none() {
        assert!(Calibrator::new().finalize_ema(8).is_none());
    }

    #[test]
    fn all_zero_data_finalizes_to_none() {
        let mut c = Calibrator::new();
        c.observe(&Tensor::zeros([1, 1, 2, 2]));
        assert!(c.finalize_ema(8).is_none());
    }
}
