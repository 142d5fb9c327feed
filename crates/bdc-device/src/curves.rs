//! Transfer curve generation.
//!
//! [`transfer_curve`] produces the `I_D–V_GS` sweeps plotted in the paper's
//! Figures 3 and 4 and feeds the parameter-extraction routines in
//! [`crate::extract`].

use crate::model::DeviceModel;

/// One point of a transfer sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPoint {
    /// Gate-source voltage (V).
    pub vgs: f64,
    /// Drain current magnitude (A).
    pub id: f64,
}

/// Sweeps `V_GS` from `vgs_start` to `vgs_stop` (inclusive) in `n` points at
/// fixed `vds`, returning drain-current magnitudes.
///
/// # Panics
/// Panics if `n < 2`.
pub fn transfer_curve(
    model: &dyn DeviceModel,
    vds: f64,
    vgs_start: f64,
    vgs_stop: f64,
    n: usize,
) -> Vec<TransferPoint> {
    assert!(n >= 2, "a sweep needs at least two points");
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            let vgs = vgs_start + t * (vgs_stop - vgs_start);
            TransferPoint {
                vgs,
                id: model.ids(vgs, vds).abs(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level61Model, TftParams};

    #[test]
    fn transfer_curve_covers_endpoints() {
        let m = Level61Model::new(TftParams::pentacene());
        let c = transfer_curve(&m, -1.0, 10.0, -10.0, 41);
        assert_eq!(c.len(), 41);
        assert!((c[0].vgs - 10.0).abs() < 1e-12);
        assert!((c[40].vgs + 10.0).abs() < 1e-12);
        // Current grows toward negative vgs for p-type.
        assert!(c[40].id > c[0].id);
    }

    #[test]
    fn output_curve_monotone_for_on_device() {
        let m = Level61Model::new(TftParams::pentacene());
        let c: Vec<f64> = (0..21)
            .map(|i| m.ids(-10.0, -10.0 * i as f64 / 20.0).abs())
            .collect();
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-15);
        }
    }
}
