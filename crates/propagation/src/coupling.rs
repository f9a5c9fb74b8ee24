//! Multi-surface coupling: how much of a foreign panel's field reaches
//! a receiver served by another panel.
//!
//! A panel array serves each device from its *home* panel, but the other
//! panels are not silent: every biased surface scatters part of the
//! transmit field toward every receiver in the room. The coupled field
//! is a coherent superposition,
//!
//! ```text
//! a_rx = a_home(bias_home) + Σ_{k≠home} γ · s_k(bias_k)
//!                          + Σ_{k≠home} γ₂ · h_k · s_k(bias_k)
//! ```
//!
//! where `a_home` is the full single-surface amplitude the independent
//! scheduler already optimizes, `s_k` is panel k's engineered *scattered*
//! amplitude toward this receiver
//! ([`PreparedLink::scattered_amplitude`](crate::link::PreparedLink::scattered_amplitude)
//! — the surface-dependent paths minus the static direct ray and
//! environment tail, so the direct field is never double counted), `γ`
//! ([`CouplingConfig::gain`]) is the fraction of a foreign panel's
//! scattered field that reaches a receiver outside its sector (aperture
//! intercept — foreign panels sit off the receiver's boresight), and the
//! optional `γ₂ · h_k` term is a cascaded two-hop route (foreign surface
//! → home surface → device) with `h_k` the free-space transfer over the
//! inter-panel separation.
//!
//! This module holds the per-term physics: [`CouplingConfig::hop`] is
//! `h_k` and [`CouplingConfig::cross_term`] is one summand of the cross
//! sum. The sum itself — home first, then cross terms in panel order —
//! is `llama_core::panels::CoupledEvaluator`'s, over the device × panel
//! links it shares with the reference-power probes.
//!
//! **Zero-coupling guarantee:** when [`CouplingConfig::is_disabled`] every
//! cross term is exactly zero, and the superposition returns the home
//! amplitude *unchanged* — cross terms are skipped entirely, never added
//! as zeros (adding `+0.0` can flip the sign bit of `-0.0`), so a
//! disabled coupled evaluation is bit-identical to the single-surface
//! path. `core::panels` property-tests this.

use rfmath::complex::Complex;
use rfmath::units::Meters;

use crate::friis;
use crate::link::Link;

/// Strength of inter-panel coupling.
///
/// Both gains are linear amplitude fractions. The defaults model an
/// indoor deployment where a foreign panel's scattered lobe is well off
/// the receiver's boresight: a modest direct-leakage intercept and no
/// cascaded hop unless explicitly requested.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouplingConfig {
    /// Amplitude fraction of a foreign panel's scattered field that
    /// reaches the receiver directly (aperture-intercept factor).
    pub gain: f64,
    /// Amplitude gain of the cascaded two-hop route (foreign surface →
    /// home surface → device), applied on top of the free-space
    /// inter-panel transfer. Zero disables the cascade term.
    pub cascade_gain: f64,
}

impl CouplingConfig {
    /// No coupling at all: the superposed field *is* the home field,
    /// bit for bit.
    pub fn disabled() -> Self {
        CouplingConfig {
            gain: 0.0,
            cascade_gain: 0.0,
        }
    }

    /// Representative indoor leakage: 20% amplitude intercept of foreign
    /// scattered lobes, no cascaded hop.
    pub fn indoor_default() -> Self {
        CouplingConfig {
            gain: 0.2,
            cascade_gain: 0.0,
        }
    }

    /// True when every cross term vanishes and the coupled evaluation
    /// must short-circuit to the home amplitude.
    pub fn is_disabled(&self) -> bool {
        self.gain == 0.0 && self.cascade_gain == 0.0
    }

    /// The cascaded hop's free-space transfer from `foreign`'s surface
    /// mount to `home`'s, at the home carrier: `h_k` of the module
    /// formula. Zero when the cascade is off, when either link has no
    /// surface, or when the two mounts coincide (the home panel itself).
    pub fn hop(&self, foreign: &Link, home: &Link) -> Complex {
        if self.cascade_gain == 0.0 {
            return Complex::ZERO;
        }
        let (Some(a), Some(b)) = (
            foreign.deployment.surface_position(),
            home.deployment.surface_position(),
        ) else {
            return Complex::ZERO;
        };
        let d = a.distance(b);
        if d == 0.0 {
            return Complex::ZERO;
        }
        friis::field_transfer(home.frequency, Meters(d))
    }

    /// One foreign panel's cross term: its `scattered` amplitude at the
    /// receiver times the intercept gain, plus the cascaded route over
    /// `hop` ([`CouplingConfig::hop`]). Exactly zero when coupling is
    /// disabled.
    pub fn cross_term(&self, scattered: Complex, hop: Complex) -> Complex {
        if self.is_disabled() {
            return Complex::ZERO;
        }
        let mut term = scattered * self.gain;
        if self.cascade_gain != 0.0 {
            term += hop * scattered * self.cascade_gain;
        }
        term
    }
}

impl Default for CouplingConfig {
    fn default() -> Self {
        CouplingConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::{Antenna, OrientedAntenna};
    use crate::environment::Environment;
    use crate::link::PreparedLink;
    use crate::rays::Deployment;
    use metasurface::response::{Metasurface, SurfaceResponse};
    use metasurface::stack::BiasState;
    use rfmath::units::{Degrees, Hertz};

    fn base_link() -> Link {
        Link {
            tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
            rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(0.0)),
            frequency: Hertz::from_ghz(2.44),
            tx_power: rfmath::units::Watts::from_mw(50.0),
            deployment: Deployment::reflective_cm(60.0),
            environment: Environment::laboratory(9),
            extra_paths: Vec::new(),
            tuning: Default::default(),
        }
    }

    fn response(bias: BiasState) -> SurfaceResponse {
        let mut surface = Metasurface::llama();
        surface.set_bias(bias);
        surface.response(Hertz::from_ghz(2.44))
    }

    /// A receiver's home link and the same receiver re-mounted at a
    /// second panel further along the link.
    fn two_panel_links() -> (PreparedLink, PreparedLink) {
        let home = PreparedLink::new(base_link());
        let foreign =
            home.with_surface_placement(base_link().deployment.with_surface_fraction(0.8));
        (home, foreign)
    }

    #[test]
    fn coupling_shifts_the_superposed_amplitude() {
        // The superposition adds the foreign cross term to the home
        // amplitude, so the sum moves exactly when that term does not
        // vanish.
        let (home, foreign) = two_panel_links();
        let coupling = CouplingConfig::indoor_default();
        let hop = coupling.hop(foreign.link(), home.link());
        let rb = response(BiasState::new(21.0, 27.0));
        let cross = coupling.cross_term(foreign.scattered_amplitude(Some(&rb)), hop);
        assert!(
            cross.abs() > 1e-12,
            "a biased foreign panel must perturb the field"
        );
        // And the foreign bias matters: a different foreign response
        // lands at a different cross term.
        let rc = response(BiasState::new(3.0, 15.0));
        let other = coupling.cross_term(foreign.scattered_amplitude(Some(&rc)), hop);
        assert!((cross - other).abs() > 1e-12);
    }

    #[test]
    fn cascade_hop_uses_the_inter_panel_separation() {
        let (home, foreign) = two_panel_links();
        let direct = CouplingConfig {
            gain: 0.2,
            cascade_gain: 0.0,
        };
        let cascade = CouplingConfig {
            gain: 0.2,
            cascade_gain: 0.5,
        };
        // The hop is the free-space transfer over the mount separation.
        let (a, b) = (
            foreign.link().deployment.surface_position().expect("mount"),
            home.link().deployment.surface_position().expect("mount"),
        );
        let hop = cascade.hop(foreign.link(), home.link());
        let expected = friis::field_transfer(home.link().frequency, Meters(a.distance(b)));
        assert_eq!(hop.re.to_bits(), expected.re.to_bits());
        assert_eq!(hop.im.to_bits(), expected.im.to_bits());
        assert!(hop.abs() > 0.0);
        // Without a cascade gain no hop is needed at all.
        assert_eq!(direct.hop(foreign.link(), home.link()), Complex::ZERO);

        let rb = response(BiasState::new(21.0, 27.0));
        let scattered = foreign.scattered_amplitude(Some(&rb));
        let direct_only = direct.cross_term(scattered, Complex::ZERO);
        let with_cascade = cascade.cross_term(scattered, hop);
        assert!(
            (with_cascade - direct_only).abs() > 1e-15,
            "cascade term must add a hop contribution"
        );
        // The home panel has no hop to itself.
        let self_hop = cascade.hop(home.link(), home.link());
        assert_eq!(self_hop.re.to_bits(), 0.0f64.to_bits());
        assert_eq!(self_hop.im.to_bits(), 0.0f64.to_bits());
    }
}
