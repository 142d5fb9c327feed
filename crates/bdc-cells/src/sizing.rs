//! Automated cell sizing — the paper's §4.3.4 design-space script.
//!
//! “The fine-tuning of circuit sizing is crucial for creating a good logic
//! gate. However, adjusting the parameters and running simulations manually
//! is time-consuming. Therefore, we utilized a script to explore the design
//! space and select the best parameter sets for each gate. The switching
//! threshold, noise margin, gate delay, and area are all taken into
//! consideration when we define the utility function.”
//!
//! [`explore_inverter_sizing`] does exactly that: it sweeps candidate
//! [`OrganicSizing`] parameter sets, simulates each pseudo-E inverter's DC
//! and transient behaviour, scores them with a [`Utility`] function over
//! (V_M centring, noise margin, delay, area), and returns the ranked
//! candidates.

use bdc_circuit::CircuitError;

use crate::characterize::{characterize_gate, measure_inverter_dc, CharacterizeConfig};
use crate::technology::organic_library_point;
use crate::topology::{organic_inverter, OrganicSizing, OrganicStyle};

/// Weights of the §4.3.4 utility function. Each term is normalized before
/// weighting; higher utility is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utility {
    /// Weight on V_M proximity to VDD/2.
    pub vm_centring: f64,
    /// Weight on the worst-case noise margin (MEC).
    pub noise_margin: f64,
    /// Weight on gate speed (inverse delay).
    pub speed: f64,
    /// Weight on small area (inverse total transistor width).
    pub area: f64,
}

impl Default for Utility {
    fn default() -> Self {
        Utility {
            vm_centring: 1.0,
            noise_margin: 1.0,
            speed: 1.0,
            area: 0.5,
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct SizingCandidate {
    /// The parameter set.
    pub sizing: OrganicSizing,
    /// Switching threshold (V).
    pub vm: f64,
    /// Peak gain.
    pub gain: f64,
    /// MEC noise margin (V).
    pub nm: f64,
    /// FO4-like delay (s).
    pub delay: f64,
    /// Total drawn transistor width (m) — the area proxy.
    pub total_width: f64,
    /// The combined score.
    pub utility: f64,
}

/// Evaluates one sizing of the organic technology's device at the given
/// rails.
///
/// # Errors
/// Propagates simulator failures.
pub fn evaluate_sizing(
    sizing: &OrganicSizing,
    vdd: f64,
    vss: f64,
) -> Result<(f64, f64, f64, f64, f64), CircuitError> {
    let gate = organic_inverter(
        organic_library_point().1,
        OrganicStyle::PseudoE,
        sizing,
        vdd,
        vss,
    );
    let dc = measure_inverter_dc(&gate, 81)?;
    // A single-point transient for speed (mid slew, FO4-like load).
    let cfg = CharacterizeConfig {
        slews: vec![60.0e-6],
        loads: vec![4.0 * gate.input_cap],
        ..CharacterizeConfig::organic()
    };
    let t = characterize_gate(&gate, &cfg)?;
    let delay = t.delay_worst().lookup(60.0e-6, 4.0 * gate.input_cap);
    let width = sizing.shifter_drive_w
        + sizing.shifter_load_w * (sizing.shifter_load_l / crate::topology::ORGANIC_CHANNEL_L)
        + sizing.output_drive_w
        + sizing.output_load_w;
    Ok((dc.vm, dc.max_gain, dc.nm_mec, delay, width))
}

/// Sweeps candidate sizings and returns them ranked by utility (best
/// first). `candidates` defaults (when empty) to a coarse grid around the
/// library sizing.
///
/// # Errors
/// Propagates simulator failures.
pub fn explore_inverter_sizing(
    candidates: &[OrganicSizing],
    vdd: f64,
    vss: f64,
    utility: &Utility,
) -> Result<Vec<SizingCandidate>, CircuitError> {
    let grid: Vec<OrganicSizing> = if candidates.is_empty() {
        default_grid()
    } else {
        candidates.to_vec()
    };
    let mut rows = Vec::with_capacity(grid.len());
    for sizing in grid {
        // A candidate whose output never switches is not an error of the
        // sweep — it is a (very bad) data point.
        let (vm, gain, nm, delay, total_width) = match evaluate_sizing(&sizing, vdd, vss) {
            Ok(v) => v,
            Err(CircuitError::NoConvergence { .. }) => (0.0, 0.0, 0.0, f64::INFINITY, 1.0),
            Err(e) => return Err(e),
        };
        rows.push(SizingCandidate {
            sizing,
            vm,
            gain,
            nm,
            delay,
            total_width,
            utility: 0.0,
        });
    }
    // Normalize each term across the candidate set, then score.
    let max_nm = rows.iter().map(|r| r.nm).fold(1e-12, f64::max);
    let min_delay = rows.iter().map(|r| r.delay).fold(f64::INFINITY, f64::min);
    let min_width = rows
        .iter()
        .map(|r| r.total_width)
        .fold(f64::INFINITY, f64::min);
    for r in &mut rows {
        let vm_term = 1.0 - ((r.vm - vdd / 2.0) / (vdd / 2.0)).abs().min(1.0);
        let nm_term = r.nm / max_nm;
        let speed_term = min_delay / r.delay;
        let area_term = min_width / r.total_width;
        r.utility = utility.vm_centring * vm_term
            + utility.noise_margin * nm_term
            + utility.speed * speed_term
            + utility.area * area_term;
    }
    rows.sort_by(|a, b| b.utility.partial_cmp(&a.utility).unwrap());
    Ok(rows)
}

/// A small grid around the library default (kept coarse so the script runs
/// in seconds, like the paper's overnight sweep scaled down).
fn default_grid() -> Vec<OrganicSizing> {
    let base = OrganicSizing::library_default();
    let mut grid = Vec::new();
    for drive_scale in [0.6, 1.0, 1.5] {
        for load_scale in [0.6, 1.0, 1.6] {
            grid.push(OrganicSizing {
                shifter_drive_w: base.shifter_drive_w * drive_scale,
                output_drive_w: base.output_drive_w * drive_scale,
                shifter_load_w: base.shifter_load_w * load_scale,
                output_load_w: base.output_load_w * load_scale,
                ..base
            });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_ranks_candidates_and_default_is_competitive() {
        let base = OrganicSizing::library_default();
        let weak = OrganicSizing {
            // Deliberately bad: drive too weak to overpower the loads.
            shifter_drive_w: 120.0e-6,
            output_drive_w: 150.0e-6,
            ..base
        };
        let ranked =
            explore_inverter_sizing(&[base, weak], 5.0, -15.0, &Utility::default()).expect("sweep");
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].utility >= ranked[1].utility);
        // The library default must rank above the crippled candidate.
        assert_eq!(ranked[0].sizing, base);
        assert!(ranked[0].nm > ranked[1].nm);
    }

    #[test]
    fn evaluate_reports_physical_values() {
        let (vm, gain, nm, delay, width) =
            evaluate_sizing(&OrganicSizing::library_default(), 5.0, -15.0).expect("evaluate");
        assert!(vm > 1.0 && vm < 4.0);
        assert!(gain > 1.5);
        assert!(nm >= 0.0);
        assert!(delay > 1.0e-5 && delay < 1.0e-2);
        assert!(width > 1.0e-3);
    }
}
