//! Synthetic “measured” curves.
//!
//! [`synthetic_measured_curve`] stands in for the HP4155A measurement data
//! we cannot have (see DESIGN.md §2), producing a level-61 curve perturbed
//! with log-normal measurement noise. (The §4.1 cross-sample V_T spread is
//! sampled by `bdc_core::extensions::variation_tuning`, which shifts the
//! technology's device through `ParamOverlay::apply`.)

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::curves::{transfer_curve, TransferPoint};
use crate::level61::Level61Model;
use crate::params::TftParams;

/// Generates a synthetic “measured” transfer sweep: the level-61 nominal
/// curve with multiplicative log-normal noise (σ = 8 % of a decade at the
/// floor, shrinking where the current is strong, mimicking SMU accuracy).
///
/// Sweeps from +|vt0|·... the positive (off) side down to −10 V like Fig 3.
pub fn synthetic_measured_curve(
    params: &TftParams,
    vds: f64,
    n: usize,
    seed: u64,
) -> Vec<TransferPoint> {
    let model = Level61Model::new(params.clone());
    let clean = transfer_curve(&model, vds, 10.0, -10.0, n);
    let mut rng = SmallRng::seed_from_u64(seed);
    clean
        .into_iter()
        .map(|p| {
            let u1: f64 = rng.gen_range(1.0e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
            // Noise in log-space: smaller where the signal is far above the
            // instrument floor.
            let floor = 1.0e-13;
            let decades_up = (p.id.max(floor) / floor).log10();
            let sigma_log = 0.08 / (1.0 + 0.15 * decades_up);
            let id = p.id.max(floor) * 10f64.powf(sigma_log * z);
            TransferPoint { vgs: p.vgs, id }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_curve_is_noisy_but_close() {
        let p = TftParams::pentacene();
        let noisy = synthetic_measured_curve(&p, -1.0, 101, 3);
        let clean = transfer_curve(&Level61Model::new(p), -1.0, 10.0, -10.0, 101);
        let rms: f64 = noisy
            .iter()
            .zip(&clean)
            .map(|(a, b)| {
                let d = (a.id.max(1e-14)).log10() - (b.id.max(1e-14)).log10();
                d * d
            })
            .sum::<f64>()
            / 101.0;
        let rms = rms.sqrt();
        assert!(rms > 0.005 && rms < 0.15, "rms log noise {rms}");
    }
}
