//! Parameter sets for the compact models.
//!
//! The pentacene defaults reproduce the fabricated device the paper
//! characterizes in §4.1 / Figure 3; the silicon defaults target a public
//! 45 nm-class bulk CMOS process (the comparison library in §5.1).

use crate::{Polarity, EPS0};

/// Geometry and material parameters for a level-61-class organic TFT.
///
/// Field names follow the RPI a-Si TFT model vocabulary where applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct TftParams {
    /// Carrier polarity (pentacene is p-type).
    pub polarity: Polarity,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Gate dielectric capacitance per area (F/m²).
    pub ci: f64,
    /// Band mobility prefactor (m²/V·s) — the low-field bound on mobility.
    pub mu0: f64,
    /// Power-law mobility enhancement exponent `gamma`:
    /// µ_eff ∝ (V_GT / V_AA)^gamma. Organic semiconductors show gamma ≈ 0.2–0.5.
    pub gamma: f64,
    /// Mobility normalization voltage V_AA (V).
    pub vaa: f64,
    /// Threshold voltage magnitude (V); the device conducts for
    /// |V_GS| > |V_T| of the appropriate sign.
    pub vt0: f64,
    /// Subthreshold ideality: SS = n · kT/q · ln 10. The paper's device has
    /// SS = 350 mV/dec → n ≈ 5.9.
    pub subthreshold_n: f64,
    /// Off-state leakage floor (A), sets the on/off ratio.
    pub i_off: f64,
    /// Gate leakage conductance-ish scale (A at 10 V), for I_G curves.
    pub i_gate_10v: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Saturation-voltage factor: V_sat = alpha_sat · V_GTe.
    pub alpha_sat: f64,
    /// Knee sharpness of the linear→saturation transition.
    pub m_knee: f64,
    /// Drain-induced threshold shift: initial slope (V of V_T per V of
    /// V_DS). The paper's device shows V_T moving from -1.3 V at V_DS = 1 V
    /// to +1.3 V at 10 V (p-type: less negative gate needed at higher drain
    /// bias).
    pub vt_dibl: f64,
    /// Saturation cap of the drain-induced V_T shift (V). The shift follows
    /// `cap·(1 − exp(−slope·V_DS/cap))`, so it reproduces the measured
    /// ±1.3 V window without destroying output resistance at deep V_DS.
    pub vt_dibl_cap: f64,
    /// Source/drain-to-gate overlap length per side (m); shadow-mask
    /// patterning forces tens of microns of overlap.
    pub l_overlap: f64,
}

impl TftParams {
    /// The paper's fabricated bottom-gate top-contact pentacene OTFT.
    ///
    /// * W/L = 1000 µm / 80 µm
    /// * 50 nm ALD Al₂O₃ gate dielectric (ε_r ≈ 9 → C_i ≈ 1.59 mF/m²)
    /// * µ_lin = 0.16 cm²V⁻¹s⁻¹, SS = 350 mV/dec, on/off = 10⁶
    /// * V_T = −1.3 V at V_DS = −1 V, drifting positive with drain bias
    pub fn pentacene() -> Self {
        let ci = 9.0 * EPS0 / 50.0e-9;
        TftParams {
            polarity: Polarity::PType,
            w: 1000.0e-6,
            l: 80.0e-6,
            ci,
            mu0: 0.16e-4,
            gamma: 0.30,
            vaa: 7.5,
            vt0: 1.3,
            subthreshold_n: 0.350 / (std::f64::consts::LN_10 * crate::VT_THERMAL),
            i_off: 2.0e-12,
            i_gate_10v: 6.0e-11,
            lambda: 0.006,
            alpha_sat: 0.55,
            m_knee: 3.0,
            vt_dibl: 0.32,
            vt_dibl_cap: 3.0,
            l_overlap: 20.0e-6,
        }
    }

    /// The same device drawn at another geometry. Width and length in
    /// metres.
    ///
    /// # Panics
    /// Panics if `w` or `l` is not strictly positive.
    pub fn sized(&self, w: f64, l: f64) -> Self {
        assert!(w > 0.0 && l > 0.0, "transistor geometry must be positive");
        TftParams {
            w,
            l,
            ..self.clone()
        }
    }

    /// The device at a point in its *transient* (biodegradable) life.
    ///
    /// Biodegradable electronics are designed to decay: as the pentacene
    /// film and contacts degrade, mobility falls, the threshold drifts and
    /// off-leakage rises. `life` runs from 0.0 (fresh) to 1.0 (end of
    /// mission, just before functional failure); the model follows the
    /// qualitative aging behaviour reported for pentacene in air (µ down to
    /// ~30 %, |V_T| growing ~1 V, on/off collapsing ~10×).
    ///
    /// # Panics
    /// Panics if `life` is outside `[0, 1]`.
    pub fn aged(&self, life: f64) -> Self {
        assert!((0.0..=1.0).contains(&life), "life must be in [0, 1]");
        TftParams {
            mu0: self.mu0 * (1.0 - 0.7 * life),
            vt0: self.vt0 + 1.0 * life,
            i_off: self.i_off * (1.0 + 9.0 * life),
            subthreshold_n: self.subthreshold_n * (1.0 + 0.4 * life),
            ..self.clone()
        }
    }

    /// A hypothetical DNTT-class device: ~10× the mobility of pentacene and a
    /// steeper subthreshold slope (Zschieschang et al. 2011), used by the
    /// future-work device-scaling ablation.
    pub fn dntt() -> Self {
        TftParams {
            mu0: 1.6e-4,
            subthreshold_n: 0.120 / (std::f64::consts::LN_10 * crate::VT_THERMAL),
            i_off: 5.0e-13,
            ..Self::pentacene()
        }
    }

    /// W/L aspect ratio.
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }

    /// Total gate-channel capacitance C_i·W·L (F).
    pub fn gate_cap(&self) -> f64 {
        self.ci * self.w * self.l
    }

    /// Overlap capacitance per side: C_i·W·L_ov (F).
    pub fn overlap_cap(&self) -> f64 {
        self.ci * self.w * self.l_overlap
    }
}

/// Parameters of the level-1 Shichman–Hodges square-law model (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level1Params {
    /// Carrier polarity.
    pub polarity: Polarity,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Transconductance parameter KP = µ·C_i (A/V²).
    pub kp: f64,
    /// Threshold voltage magnitude (V).
    pub vt0: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Gate dielectric capacitance per area (F/m²), for load modelling.
    pub ci: f64,
}

impl Level1Params {
    /// A level-1 starting point for the pentacene device of
    /// [`TftParams::pentacene`]: KP = µ_lin·C_i with the extracted µ_lin.
    pub fn pentacene() -> Self {
        let tft = TftParams::pentacene();
        Level1Params {
            polarity: Polarity::PType,
            w: tft.w,
            l: tft.l,
            kp: tft.mu0 * tft.ci,
            vt0: tft.vt0,
            lambda: tft.lambda,
            ci: tft.ci,
        }
    }
}

/// Alpha-power-law parameters for a deep-submicron silicon MOSFET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiliconMosParams {
    /// Carrier polarity.
    pub polarity: Polarity,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Saturation current per micron of width at V_GS = V_DD (A/µm).
    pub id_sat_per_um: f64,
    /// Supply the factor is quoted at (V).
    pub vdd_ref: f64,
    /// Threshold voltage magnitude (V).
    pub vt0: f64,
    /// Velocity-saturation exponent alpha (≈1.2–1.4 at 45 nm).
    pub alpha: f64,
    /// Subthreshold ideality factor n (SS = n·kT/q·ln10 ≈ 90–100 mV/dec).
    pub subthreshold_n: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Gate capacitance per area (F/m²).
    pub ci: f64,
    /// Off leakage floor per µm of width (A/µm).
    pub i_off_per_um: f64,
}

impl SiliconMosParams {
    /// 45 nm-class NMOS: I_on ≈ 1.1 mA/µm at 1.0 V, V_T ≈ 0.32 V,
    /// SS ≈ 95 mV/dec, C_ox ≈ 15 mF/m² (~1.2 nm EOT incl. inversion-layer
    /// thickness), drawn with a default W = 10·L_min.
    pub fn nmos_45() -> Self {
        SiliconMosParams {
            polarity: Polarity::NType,
            w: 450.0e-9,
            l: 45.0e-9,
            id_sat_per_um: 1.1e-3,
            vdd_ref: 1.0,
            vt0: 0.32,
            alpha: 1.3,
            subthreshold_n: 1.55,
            lambda: 0.10,
            ci: 1.5e-2,
            i_off_per_um: 1.0e-7,
        }
    }

    /// 45 nm-class PMOS: ~45% of the NMOS drive per width.
    pub fn pmos_45() -> Self {
        SiliconMosParams {
            polarity: Polarity::PType,
            id_sat_per_um: 0.5e-3,
            vt0: 0.34,
            ..Self::nmos_45()
        }
    }

    /// Same process, different drawn width (m).
    ///
    /// # Panics
    /// Panics if `w` is not strictly positive.
    pub fn with_width(self, w: f64) -> Self {
        assert!(w > 0.0, "transistor width must be positive");
        SiliconMosParams { w, ..self }
    }

    /// Total gate capacitance C_i·W·L (F).
    pub fn gate_cap(&self) -> f64 {
        self.ci * self.w * self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentacene_matches_reported_scalars() {
        let p = TftParams::pentacene();
        // C_i for 50 nm Al2O3 is ~1.6 mF/m² = 160 nF/cm².
        assert!((p.ci - 1.59e-3).abs() / 1.59e-3 < 0.02);
        // SS = 350 mV/dec encodes as n ≈ 5.9.
        assert!((p.subthreshold_n - 5.88).abs() < 0.1);
        assert_eq!(p.polarity, Polarity::PType);
        assert!((p.aspect() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn gate_cap_is_127_pf() {
        // Huge gate loads are what make organic gates slow: ~127 pF here.
        let p = TftParams::pentacene();
        assert!((p.gate_cap() - 127.0e-12).abs() < 5.0e-12);
    }

    #[test]
    fn dntt_is_10x_pentacene_mobility() {
        assert!((TftParams::dntt().mu0 / TftParams::pentacene().mu0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aging_degrades_monotonically() {
        let fresh = TftParams::pentacene();
        let mid = fresh.aged(0.5);
        let old = fresh.aged(1.0);
        assert!(fresh.mu0 > mid.mu0 && mid.mu0 > old.mu0);
        assert!(old.mu0 > 0.25 * fresh.mu0);
        assert!(old.vt0 > fresh.vt0);
        assert!(old.i_off > 5.0 * fresh.i_off);
        // life = 0 is the identity.
        assert_eq!(fresh.aged(0.0), fresh);
    }

    #[test]
    #[should_panic(expected = "life must be in")]
    fn aging_rejects_out_of_range() {
        let _ = TftParams::pentacene().aged(1.5);
    }

    #[test]
    fn silicon_defaults_sane() {
        let n = SiliconMosParams::nmos_45();
        let p = SiliconMosParams::pmos_45();
        assert!(n.id_sat_per_um > p.id_sat_per_um);
        assert!(n.gate_cap() > 0.0 && n.gate_cap() < 1.0e-15);
    }

    #[test]
    #[should_panic(expected = "geometry must be positive")]
    fn rejects_zero_geometry() {
        let _ = TftParams::pentacene().sized(0.0, 1.0e-6);
    }
}
