//! The wireless link: coherent field summation over paths.
//!
//! A [`Link`] binds oriented antennas, a deployment geometry, an
//! environment and (optionally) a metasurface, and answers the question
//! every experiment in the paper asks: *what power does the receiver
//! see?* The receiver's port amplitude is the coherent sum of every
//! path's contribution projected onto the receive antenna's polarization
//! state:
//!
//! ```text
//! a_rx = √(Ptx·Gtx·Grx) · Σ_paths  t_path · ⟨rx_pol | J_path | tx_pol⟩
//! ```
//!
//! [`Link`] evaluates that sum path by path and is the reference. A
//! [`PreparedLink`] caches everything that does not depend on the
//! surface bias, so its `t = 0` probe is a bilinear form in the
//! surface's Jones blocks.

use metasurface::response::{Metasurface, SurfaceResponse};
use rfmath::complex::Complex;
use rfmath::jones::JonesMatrix;
use rfmath::units::{Dbm, Hertz, Seconds, Watts};

use crate::antenna::OrientedAntenna;
use crate::environment::{Environment, ScatterDraw};
use crate::rays::{
    engineered_legs, engineered_paths, engineered_paths_into, Deployment, Path, SurfaceMount, Via,
};

/// Calibration knobs of the link model — the parameters the Figure 20
/// fidelity sweep (`expts --calibrate-fig20`) explores. Defaults
/// reproduce the uncalibrated model bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkTuning {
    /// Extra surface insertion loss per surface interaction, dB (applied
    /// to engineered paths on top of the circuit model's own loss;
    /// negative values model a *less* lossy physical prototype).
    pub surface_excess_loss_db: f64,
    /// Override for the environment scatterers' cross-polar
    /// discrimination, dB (`None` keeps the environment's built-in
    /// depolarization statistics). Higher XPD = purer scatter
    /// polarization = deeper mismatch fades.
    pub scatter_xpd_db: Option<f64>,
    /// Extra attenuation of near-axis scatter shadowed by a deployed
    /// transmissive panel, dB (on top of the panel's mean through-loss).
    pub shadow_extra_db: f64,
}

impl Default for LinkTuning {
    fn default() -> Self {
        Self {
            surface_excess_loss_db: 0.0,
            scatter_xpd_db: None,
            shadow_extra_db: 0.0,
        }
    }
}

impl LinkTuning {
    /// Amplitude factor the excess insertion loss applies to an
    /// engineered path, by how many times that path interacts with the
    /// surface (the bounce path crosses it twice).
    fn surface_loss_amp(&self, label: &str) -> f64 {
        if self.surface_excess_loss_db == 0.0 {
            return 1.0;
        }
        let interactions = match label {
            "through-surface" | "surface-reflection" => 1.0,
            "antenna-surface bounce" => 2.0,
            _ => 0.0,
        };
        10f64.powf(-self.surface_excess_loss_db * interactions / 20.0)
    }
}

/// A fully specified point-to-point link.
#[derive(Clone, Debug)]
pub struct Link {
    /// Transmit antenna and mount orientation.
    pub tx: OrientedAntenna,
    /// Receive antenna and mount orientation.
    pub rx: OrientedAntenna,
    /// Carrier frequency.
    pub frequency: Hertz,
    /// Transmit power at the TX antenna port.
    pub tx_power: Watts,
    /// Physical placement.
    pub deployment: Deployment,
    /// Propagation environment.
    pub environment: Environment,
    /// Additional scene paths beyond the engineered and environment ones
    /// (e.g. a breathing human target injected by the sensing layer).
    pub extra_paths: Vec<Path>,
    /// Calibration knobs (defaults = uncalibrated paper model).
    pub tuning: LinkTuning,
}

impl Link {
    /// All propagation paths for this link (engineered + environment +
    /// extras) against a precomputed surface response (one cascade
    /// evaluation shared by every consumer of this probe).
    pub fn paths_with(&self, surface: Option<&SurfaceResponse>) -> Vec<Path> {
        let mut paths = engineered_paths(self.deployment, surface, self.frequency);
        paths.extend(self.static_paths());
        paths
    }

    /// The bias-independent paths of this link: environment scatter plus
    /// caller-injected extras. These never change across a bias sweep,
    /// which is what [`PreparedLink`] exploits.
    fn static_paths(&self) -> Vec<Path> {
        let mut paths = self.environment.scatter_paths_with(
            self.deployment.tx_rx_distance(),
            self.frequency,
            self.tuning.scatter_xpd_db,
        );
        paths.extend(self.extra_paths.iter().cloned());
        paths
    }

    /// Complex receive-port amplitude at time `t` (√W units; |a|² is the
    /// received power in watts).
    ///
    /// Evaluates the surface cascade exactly once; grid sweeps that
    /// already hold a batched [`SurfaceResponse`] should call
    /// [`Link::received_amplitude_with`] instead.
    pub fn received_amplitude_at(&self, surface: Option<&Metasurface>, t: Seconds) -> Complex {
        let response = surface.map(|s| s.response(self.frequency));
        self.received_amplitude_with(response.as_ref(), t)
    }

    /// [`Link::received_amplitude_at`] against a precomputed surface
    /// response — the allocation-light inner loop of the heatmap and
    /// sweep engines.
    pub fn received_amplitude_with(
        &self,
        surface: Option<&SurfaceResponse>,
        t: Seconds,
    ) -> Complex {
        let paths = self.paths_with(surface);
        self.project(&paths, surface, t)
    }

    /// The surface-scattered part of [`Link::received_amplitude_with`]
    /// at `t = 0`, path by path: the engineered paths that touch the
    /// surface, unshadowed. The reference for
    /// [`PreparedLink::scattered_amplitude`].
    pub fn scattered_amplitude_with(&self, surface: Option<&SurfaceResponse>) -> Complex {
        let Some(surface) = surface else {
            return Complex::ZERO;
        };
        let paths = engineered_paths(self.deployment, Some(surface), self.frequency);
        // A reflective deployment's direct ray never touches the surface.
        let total = self.sum_terms(&paths, 0.0, |path| (path.label != "direct").then_some(1.0));
        total * self.amp_scale()
    }

    /// Projects `paths` onto the receive mount under the probe's shadow
    /// factor. Every `Link` power/amplitude accessor, and the `t ≠ 0`
    /// route of [`PreparedLink`], funnels through here.
    fn project(&self, paths: &[Path], surface: Option<&SurfaceResponse>, t: Seconds) -> Complex {
        if let Some(surface) = surface {
            debug_assert!(
                surface.frequency().0.to_bits() == self.frequency.0.to_bits(),
                "surface response evaluated at {:?} but the link carrier is {:?}",
                surface.frequency(),
                self.frequency
            );
        }
        let shadow = self.shadow_factor(surface);
        self.sum_terms(paths, t.0, |_| Some(shadow)) * self.amp_scale()
    }

    /// The one projection loop: sums every path's projection term onto
    /// the receive mount at time `t`, in path order, before the boresight scale.
    /// `factor(path)` is the path's shadow factor, or `None` to leave
    /// the path out. Callers that add cached terms afterwards continue
    /// the same running total, so the order of additions never changes.
    fn sum_terms(&self, paths: &[Path], t: f64, factor: impl Fn(&Path) -> Option<f64>) -> Complex {
        let tx_state = self.tx.polarization();
        let rx_state = self.rx.polarization();
        let tx_rx = self.deployment.tx_rx_distance().0;
        let mut total = Complex::ZERO;
        for path in paths {
            if let Some(shadow) = factor(path) {
                total += self
                    .path_term(path, &tx_state, &rx_state, tx_rx, t)
                    .contribution(shadow);
            }
        }
        total
    }

    /// Boresight illumination scale: directional antennas apply their
    /// pattern to off-axis scatter per path, but the on-axis gain is a
    /// single factor on the summed amplitude.
    fn amp_scale(&self) -> f64 {
        (self.tx_power.0 * self.tx.antenna.gain_linear() * self.rx.antenna.gain_linear()).sqrt()
    }

    /// A deployed transmissive panel shadows near-axis scatter: rays
    /// that would graze the link axis must now cross the panel and
    /// take its through-loss. This is the energy the surface *costs*
    /// an omni link in a rich environment (§5.1.2's low-power omni
    /// discussion). `1.0` when nothing shadows.
    fn shadow_factor(&self, surface: Option<&SurfaceResponse>) -> f64 {
        match (surface, self.deployment.surface) {
            (Some(surface), SurfaceMount::Transmissive { .. }) => {
                let eff_db = 0.5 * (surface.efficiency_x_db().0 + surface.efficiency_y_db().0)
                    - self.tuning.shadow_extra_db;
                10f64.powf(eff_db.max(-30.0 - self.tuning.shadow_extra_db) / 20.0)
            }
            _ => 1.0,
        }
    }

    /// One path's projection term onto the receive mount at time `t`: the complex
    /// transfer × polarization coupling, the pattern/loss penalty, and
    /// whether the bias-dependent shadow applies. The polarization
    /// states are passed in precomputed (they are per-probe, not
    /// per-path, trigonometry). For bias-independent (static) paths at
    /// `t = 0` the term itself is bias-independent, which is what
    /// [`PreparedLink`] caches; summing [`ProjTerm::contribution`]s in
    /// path order reproduces the direct projection bit for bit.
    fn path_term(
        &self,
        path: &Path,
        tx_state: &rfmath::jones::JonesVector,
        rx_state: &rfmath::jones::JonesVector,
        tx_rx: f64,
        t: f64,
    ) -> ProjTerm {
        let (pen, shadowed) = if path.label == "scatter" {
            // Scatter arrives off-axis: a directional antenna picks
            // it up through its average side response (−10 dB per
            // directional end), an omni at full gain. This is the
            // mechanism behind the Figure 18-vs-19 contrast.
            let tx_pen = match self.tx.antenna.pattern {
                crate::antenna::Pattern::Directional { .. } => 0.316,
                crate::antenna::Pattern::Omni => 1.0,
            };
            let rx_pen = match self.rx.antenna.pattern {
                crate::antenna::Pattern::Directional { .. } => 0.316,
                crate::antenna::Pattern::Omni => 1.0,
            };
            // Near-axis bounces (small excess length) pass through
            // the panel's aperture and take its loss.
            let near_axis = path.length.0 - tx_rx < 1.5;
            (tx_pen * rx_pen, near_axis)
        } else {
            (self.tuning.surface_loss_amp(path.label), false)
        };
        let out = path.jones.apply(*tx_state);
        let coupled = rx_state.0.dot(out.0);
        ProjTerm {
            k: path.transfer_at(self.frequency, t) * coupled,
            pen,
            shadowed,
        }
    }

    /// Received power in watts at `t = 0`.
    pub fn received_power(&self, surface: Option<&Metasurface>) -> Watts {
        Watts(self.received_amplitude_at(surface, Seconds(0.0)).norm_sqr())
    }

    /// Received power in dBm at `t = 0`.
    pub fn received_dbm(&self, surface: Option<&Metasurface>) -> Dbm {
        self.received_power(surface).to_dbm()
    }

    /// Received power in dBm at `t = 0` against a precomputed surface
    /// response.
    pub fn received_dbm_with(&self, surface: Option<&SurfaceResponse>) -> Dbm {
        Watts(
            self.received_amplitude_with(surface, Seconds(0.0))
                .norm_sqr(),
        )
        .to_dbm()
    }

    /// Polarization mismatch between the mounts, degrees.
    pub fn mismatch_deg(&self) -> f64 {
        self.tx.misalignment_with(&self.rx).0
    }
}

/// One path's projection onto a fixed receive mount: the complex
/// transfer × polarization coupling (`k`), the scalar pattern/loss
/// penalty (`pen`), and whether the bias-dependent transmissive shadow
/// multiplies in.
#[derive(Clone, Copy, Debug)]
struct ProjTerm {
    k: Complex,
    pen: f64,
    shadowed: bool,
}

impl ProjTerm {
    /// The term's amplitude contribution under the probe's shadow
    /// factor: `(transfer × coupled) × ((tx_pen × rx_pen) × shadow)`.
    fn contribution(&self, shadow: f64) -> Complex {
        let factor = if self.shadowed {
            self.pen * shadow
        } else {
            self.pen
        };
        self.k * factor
    }
}

/// `10^(−1.5)`: the −30 dB floor of the transmissive shadow as an
/// amplitude.
const SHADOW_FLOOR_AMP: f64 = 0.031_622_776_601_683_79;

/// A link's `t = 0` probe as a bilinear form in the surface's Jones
/// blocks.
///
/// A path's projection `rx† · J · tx` is linear in the four entries of
/// `J`, and for a fixed link only the surface's transmission block `T`
/// and reflection block `R` depend on the bias. So everything else is
/// folded into constants once per (re)bind, and a probe is:
///
/// ```text
/// transmissive: w_main·T + w_bounce·(T·R) + plain + shadowed·shadow(T)
/// reflective:   direct + w_fold·R + plain + shadowed
/// no surface:   direct + plain + shadowed
/// ```
///
/// each times the boresight scale, where `w·J = Σ_ij w_ij·J_ij` with
/// `w_ij = conj(rx_i)·tx_j` pre-scaled by the path's transfer and
/// loss penalty (the fold's weights also absorb the mirror frame flip),
/// `plain` and `shadowed` are the static scatter-and-extras sums outside
/// and inside the panel's shadow, and the shadow is the panel's mean
/// Eq. 11 through-loss as an amplitude. The form reorders the per-path
/// sum, so it agrees with [`Link::received_amplitude_with`] to rounding,
/// not bit for bit; every `t = 0` probe of a [`PreparedLink`] evaluates
/// it, so those agree with each other bit for bit.
#[derive(Clone, Copy, Debug)]
struct ProbeForm {
    /// The through-surface weights of a transmissive mount, or the fold
    /// weights of a reflective one, row-major over the Jones block.
    surface: [Complex; 4],
    /// The antenna-surface bounce weights (transmissive mounts only).
    bounce: [Complex; 4],
    /// The direct ray's term: the whole engineered field without a
    /// surface response, and the unsurfaced ray of a reflective mount.
    direct: Complex,
    /// Static terms outside the panel's shadow, summed.
    plain: Complex,
    /// Near-axis scatter a transmissive panel shadows, summed.
    shadowed: Complex,
    /// `10^(−shadow_extra_db/20)`: the tuning's extra shadow loss.
    shadow_extra: f64,
    /// The boresight scale [`Link::amp_scale`] of the bound receiver.
    amp_scale: f64,
}

impl ProbeForm {
    /// Folds every bias-independent factor of `link`'s `t = 0` probe,
    /// with `static_paths` its cached scatter and extras.
    fn new(link: &Link, static_paths: &[Path]) -> Self {
        let tx_state = link.tx.polarization();
        let rx_state = link.rx.polarization();
        let (tx, rx) = (tx_state.0, rx_state.0);
        let weights = |rx: rfmath::Vec2, scale: Complex| {
            [
                rx.x.conj() * tx.x * scale,
                rx.x.conj() * tx.y * scale,
                rx.y.conj() * tx.x * scale,
                rx.y.conj() * tx.y * scale,
            ]
        };
        let mut form = ProbeForm {
            surface: [Complex::ZERO; 4],
            bounce: [Complex::ZERO; 4],
            direct: Complex::ZERO,
            plain: Complex::ZERO,
            shadowed: Complex::ZERO,
            shadow_extra: 10f64.powf(-link.tuning.shadow_extra_db / 20.0),
            amp_scale: link.amp_scale(),
        };
        // The surfaced legs, then the unsurfaced ones: every mount's
        // direct ray (a reflective mount's appears in both).
        let legs = |surfaced| engineered_legs(link.deployment, surfaced, link.frequency);
        for (path, via) in legs(true).into_iter().chain(legs(false)).flatten() {
            let scale = path.transfer * link.tuning.surface_loss_amp(path.label);
            match via {
                Via::Free => form.direct = rx.dot(tx) * scale,
                Via::Through => form.surface = weights(rx, scale),
                Via::Bounce => form.bounce = weights(rx, scale),
                Via::Fold => {
                    form.surface = weights(JonesMatrix::mirror_x().apply(rx_state).0, scale)
                }
            }
        }
        let tx_rx = link.deployment.tx_rx_distance().0;
        for path in static_paths {
            let term = link.path_term(path, &tx_state, &rx_state, tx_rx, 0.0);
            let sum = if term.shadowed {
                &mut form.shadowed
            } else {
                &mut form.plain
            };
            *sum += term.contribution(1.0);
        }
        form
    }

    /// The receive-port amplitude under one surface response.
    fn amplitude(&self, mount: SurfaceMount, surface: Option<&SurfaceResponse>) -> Complex {
        let total = match (mount, surface) {
            (SurfaceMount::Transmissive { .. }, Some(surface)) => {
                let t = surface.transmission().0;
                let r = surface.reflection().0;
                // Eq. 11 efficiencies as linear ratios: the mean of their
                // dB values, as an amplitude, is (e_x·e_y)^¼.
                let e_x = t.a.norm_sqr() + t.c.norm_sqr();
                let e_y = t.b.norm_sqr() + t.d.norm_sqr();
                let shadow = (e_x * e_y).sqrt().sqrt().max(SHADOW_FLOOR_AMP) * self.shadow_extra;
                bilinear(&self.surface, t)
                    + bilinear(&self.bounce, t * r)
                    + self.plain
                    + self.shadowed * shadow
            }
            (SurfaceMount::Reflective { .. }, Some(surface)) => {
                self.direct
                    + bilinear(&self.surface, surface.reflection().0)
                    + self.plain
                    + self.shadowed
            }
            _ => self.direct + self.plain + self.shadowed,
        };
        total * self.amp_scale
    }

    /// The surface-scattered part of [`ProbeForm::amplitude`]: the
    /// engineered paths that touch the surface, unshadowed.
    fn scattered(&self, mount: SurfaceMount, surface: &SurfaceResponse) -> Complex {
        let total = match mount {
            SurfaceMount::Transmissive { .. } => {
                let t = surface.transmission().0;
                bilinear(&self.surface, t) + bilinear(&self.bounce, t * surface.reflection().0)
            }
            SurfaceMount::Reflective { .. } => bilinear(&self.surface, surface.reflection().0),
            SurfaceMount::None => return Complex::ZERO,
        };
        total * self.amp_scale
    }
}

/// `Σ_ij w_ij·J_ij` over a row-major Jones block.
#[inline]
fn bilinear(w: &[Complex; 4], j: rfmath::Mat2) -> Complex {
    w[0] * j.a + w[1] * j.b + w[2] * j.c + w[3] * j.d
}

/// A link with its bias-independent parts precomputed: the fleet
/// engine's per-device probe handle.
///
/// Environment scatter and caller-injected extras never change across a
/// bias sweep, so a fleet scheduler probing hundreds of bias states pays
/// the scatter realization (RNG draws + allocation) once per device
/// instead of once per `(device, bias)` probe. On top of the cached
/// paths, every bias-independent factor of the `t = 0` probe is folded
/// into a bilinear form in the surface's Jones blocks, at construction
/// and on every rebind. A power probe then builds no path and calls no
/// trigonometry, log or pow: it is a dozen complex multiply-adds.
/// Time-series probes (`t ≠ 0`) rebuild the engineered paths and
/// project every path, like [`Link`].
#[derive(Clone, Debug)]
pub struct PreparedLink {
    link: Link,
    static_paths: Vec<Path>,
    form: ProbeForm,
    scatter_draws: Vec<ScatterDraw>,
}

impl PreparedLink {
    /// Precomputes the bias-independent paths of `link`.
    pub fn new(link: Link) -> Self {
        let scatter_draws = link.environment.scatter_draws(link.tuning.scatter_xpd_db);
        let mut static_paths = Vec::with_capacity(scatter_draws.len() + link.extra_paths.len());
        link.environment.scatter_paths_from(
            &scatter_draws,
            link.deployment.tx_rx_distance(),
            link.frequency,
            &mut static_paths,
        );
        static_paths.extend(link.extra_paths.iter().cloned());
        Self::from_parts(link, static_paths, scatter_draws)
    }

    /// Binds `link` to its cached static paths and folds its probe form.
    fn from_parts(link: Link, static_paths: Vec<Path>, scatter_draws: Vec<ScatterDraw>) -> Self {
        let form = ProbeForm::new(&link, &static_paths);
        Self {
            link,
            static_paths,
            form,
            scatter_draws,
        }
    }

    /// The underlying link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Re-targets the engineered geometry at a panel's mounting position
    /// while *reusing* the precomputed bias-independent paths — the
    /// per-panel probe handle of a panel array. Valid because the static
    /// paths (environment scatter + extras) depend only on the endpoint
    /// separation, which panel re-mounting never changes; only the one
    /// or two engineered surface paths move, and the probe form is
    /// re-folded for them.
    ///
    /// # Panics
    /// Panics if `deployment` changes the endpoint separation — that
    /// would invalidate the cached scatter realization.
    pub fn with_surface_placement(&self, deployment: Deployment) -> Self {
        assert!(
            deployment.tx_rx_distance().0.to_bits()
                == self.link.deployment.tx_rx_distance().0.to_bits(),
            "panel re-mounting must keep the endpoints fixed: {:?} vs {:?}",
            deployment.tx_rx_distance(),
            self.link.deployment.tx_rx_distance(),
        );
        let mut link = self.link.clone();
        link.deployment = deployment;
        Self::from_parts(link, self.static_paths.clone(), self.scatter_draws.clone())
    }

    /// True when `link`'s bias-independent paths are bit-identical to
    /// this prepared link's cached ones, so a rebind can skip the
    /// scatter re-realization. The cached paths depend only on the
    /// environment (its seed, scatterer count and power), the endpoint
    /// separation, the carrier, the scatter-XPD tuning knob, and any
    /// caller-injected extras — receive-mount rotation, transmit-power
    /// scaling and surface re-mounting all leave them untouched, which
    /// is what makes those the *cheap* mobility moves.
    pub fn static_paths_reusable(&self, link: &Link) -> bool {
        let old = &self.link;
        old.environment == link.environment
            && old.deployment.tx_rx_distance().0.to_bits()
                == link.deployment.tx_rx_distance().0.to_bits()
            && old.frequency.0.to_bits() == link.frequency.0.to_bits()
            && old.tuning.scatter_xpd_db == link.tuning.scatter_xpd_db
            && old.extra_paths.is_empty()
            && link.extra_paths.is_empty()
    }

    /// Re-prepares this handle for an updated link, reusing the cached
    /// bias-independent paths whenever [`PreparedLink::static_paths_reusable`]
    /// holds (a rotated mount, a power/blockage change, a re-mounted
    /// panel) and falling back to a full [`PreparedLink::new`] — fresh
    /// scatter realization included — when the device genuinely moved
    /// (endpoint separation, environment or carrier changed). The
    /// mobility simulator's per-device update path.
    pub fn rebind(&self, link: Link) -> Self {
        if self.static_paths_reusable(&link) {
            Self::from_parts(link, self.static_paths.clone(), self.scatter_draws.clone())
        } else {
            Self::new(link)
        }
    }

    /// True when the cached scatter *draws* — the geometry-independent
    /// random realization — still describe `link`'s environment, so a
    /// genuine move (changed endpoint separation) can replay them at the
    /// new distance instead of re-running the RNG stream. Strictly
    /// weaker than [`PreparedLink::static_paths_reusable`]: the draws
    /// depend only on the environment (seed, scatterer count) and the
    /// scatter-XPD knob, not on the separation or the carrier.
    fn scatter_draws_reusable(&self, link: &Link) -> bool {
        let old = &self.link;
        old.environment == link.environment
            && old.tuning.scatter_xpd_db == link.tuning.scatter_xpd_db
            && old.extra_paths.is_empty()
            && link.extra_paths.is_empty()
    }

    /// [`PreparedLink::rebind`] without constructing a new handle: the
    /// mobility engine's pooled update path. When the cached scatter is
    /// reusable (rotation, power, blockage — the common dirty moves)
    /// this swaps the link in place and touches no heap at all, instead
    /// of cloning the static path vector per rebind; a genuine move
    /// replays the cached scatter draws into this handle's storage, and
    /// a changed environment re-prepares the handle with
    /// [`PreparedLink::new`]. Result is bitwise equal to
    /// `*self = self.rebind(link)`.
    pub fn rebind_in_place(&mut self, link: Link) {
        if !self.static_paths_reusable(&link) {
            if !self.scatter_draws_reusable(&link) {
                // A new environment: realize its scatter from scratch.
                *self = Self::new(link);
                return;
            }
            // Genuine move with an unchanged environment: replay the
            // cached draws at the new separation. No RNG, and the path
            // vector's storage is reused — the steady-state mobility
            // tick touches no heap even when devices roam.
            self.static_paths.clear();
            link.environment.scatter_paths_from(
                &self.scatter_draws,
                link.deployment.tx_rx_distance(),
                link.frequency,
                &mut self.static_paths,
            );
        }
        self.link = link;
        // Rotation, power and re-mounting all perturb the projection
        // geometry even when the ray set survives, so the probe form is
        // always re-folded.
        self.form = ProbeForm::new(&self.link, &self.static_paths);
    }

    /// Full path set against a precomputed surface response (engineered
    /// paths rebuilt, static paths reused). Same order as
    /// [`Link::paths_with`].
    fn paths_with(&self, surface: Option<&SurfaceResponse>) -> Vec<Path> {
        let mut paths = Vec::with_capacity(2 + self.static_paths.len());
        engineered_paths_into(
            self.link.deployment,
            surface,
            self.link.frequency,
            &mut paths,
        );
        paths.extend_from_slice(&self.static_paths);
        paths
    }

    /// The `t = 0` probe: the bound [`ProbeForm`] under one response.
    fn probe(&self, surface: Option<&SurfaceResponse>) -> Complex {
        if let Some(surface) = surface {
            debug_assert!(
                surface.frequency().0.to_bits() == self.link.frequency.0.to_bits(),
                "surface response evaluated at {:?} but the link carrier is {:?}",
                surface.frequency(),
                self.link.frequency
            );
        }
        self.form.amplitude(self.link.deployment.surface, surface)
    }

    /// Receive-port amplitude at time `t`; equals
    /// [`Link::received_amplitude_with`] on the wrapped link — bit for
    /// bit at `t ≠ 0` (every path projected), to rounding at `t = 0`
    /// (the cached bilinear form, which allocates nothing).
    pub fn received_amplitude_with(
        &self,
        surface: Option<&SurfaceResponse>,
        t: Seconds,
    ) -> Complex {
        if t.0 != 0.0 {
            let paths = self.paths_with(surface);
            return self.link.project(&paths, surface, t);
        }
        self.probe(surface)
    }

    /// The *surface-scattered* part of the receive-port amplitude at
    /// `t = 0`: only the engineered paths that interact with the
    /// deployed surface count. The bias-independent static tail
    /// (environment scatter, caller extras) and a reflective
    /// deployment's direct free-space ray are excluded, and no
    /// transmissive shadow applies — the shadow models what the *home*
    /// panel costs the static field, which a multi-surface superposition
    /// counts exactly once.
    ///
    /// This is the field a *foreign* panel of a panel array leaks toward
    /// this receiver: the coupled field superposes the home link's full
    /// amplitude with one [`CouplingConfig::cross_term`] of each foreign
    /// panel's scattered amplitude, so direct and environment energy are
    /// never double-counted. `None` (panel dark / no response) yields
    /// exactly `Complex::ZERO`.
    ///
    /// [`CouplingConfig::cross_term`]: crate::coupling::CouplingConfig::cross_term
    pub fn scattered_amplitude(&self, surface: Option<&SurfaceResponse>) -> Complex {
        match surface {
            Some(surface) => self.form.scattered(self.link.deployment.surface, surface),
            None => Complex::ZERO,
        }
    }

    /// Received power in dBm at `t = 0`; bitwise equal to
    /// [`PreparedLink::received_dbm_with`]. The scratch buffer is not
    /// touched (a `t = 0` probe builds no path); the parameter stays
    /// because the room benchmark's probe rung calls this signature.
    pub fn received_dbm_scratch(
        &self,
        surface: Option<&SurfaceResponse>,
        _scratch: &mut Vec<Path>,
    ) -> Dbm {
        self.received_dbm_with(surface)
    }

    /// Received power in dBm at `t = 0`.
    pub fn received_dbm_with(&self, surface: Option<&SurfaceResponse>) -> Dbm {
        Watts(self.probe(surface).norm_sqr()).to_dbm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::Antenna;
    use metasurface::stack::BiasState;
    use rfmath::units::{Degrees, Meters};

    fn base_link(mismatch_deg: f64) -> Link {
        Link {
            tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
            rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0 - mismatch_deg)),
            frequency: Hertz::from_ghz(2.44),
            tx_power: Watts::from_mw(50.0),
            deployment: Deployment::transmissive_cm(36.0),
            environment: Environment::anechoic(),
            extra_paths: Vec::new(),
            tuning: LinkTuning::default(),
        }
    }

    #[test]
    fn matched_link_beats_mismatched_link() {
        let matched = base_link(0.0);
        let mismatched = base_link(90.0);
        let p_match = matched.received_dbm(None);
        let p_mis = mismatched.received_dbm(None);
        let gap = p_match.0 - p_mis.0;
        assert!(
            (10.0..30.0).contains(&gap),
            "match-vs-mismatch gap = {gap:.1} dB (XPD floor keeps it finite)"
        );
    }

    #[test]
    fn free_space_power_matches_friis() {
        // Matched antennas, no surface: the link budget must equal
        // Ptx + Gtx + Grx − FSPL within the XPD rounding.
        let link = base_link(0.0);
        let p = link.received_dbm(None).0;
        let expected = Watts::from_mw(50.0).to_dbm().0 + 10.0 + 10.0
            - crate::friis::path_loss_db(link.frequency, Meters(0.36)).0;
        assert!((p - expected).abs() < 0.2, "{p:.1} vs {expected:.1} dBm");
    }

    #[test]
    fn surface_rescues_mismatched_link() {
        // The headline result: with the surface biased for rotation, a
        // 90°-mismatched link gains >10 dB (Figure 16).
        let link = base_link(90.0);
        let baseline = link.received_dbm(None);
        let mut surface = Metasurface::llama();
        // Sweep coarsely for the best bias, like the controller would.
        let mut best = f64::NEG_INFINITY;
        for vx in [2.0, 4.0, 6.0, 10.0, 15.0, 30.0] {
            for vy in [2.0, 4.0, 6.0, 10.0, 15.0, 30.0] {
                surface.set_bias(BiasState::new(vx, vy));
                best = best.max(link.received_dbm(Some(&surface)).0);
            }
        }
        let gain = best - baseline.0;
        assert!(
            gain > 8.0,
            "surface should rescue the link: gain = {gain:.1} dB"
        );
    }

    #[test]
    fn surface_bias_changes_received_power() {
        let link = base_link(90.0);
        let mut surface = Metasurface::llama();
        surface.set_bias(BiasState::new(2.0, 2.0));
        let p1 = link.received_dbm(Some(&surface)).0;
        surface.set_bias(BiasState::new(15.0, 2.0));
        let p2 = link.received_dbm(Some(&surface)).0;
        assert!(
            (p1 - p2).abs() > 3.0,
            "bias must matter: {p1:.1} vs {p2:.1}"
        );
    }

    #[test]
    fn multipath_adds_variance_across_seeds() {
        // Omni endpoints pick up the full scatter field (directional
        // panels suppress it by ~20 dB), so per-realization fading is
        // clearly visible on a mismatched link.
        let mut powers = Vec::new();
        for seed in 0..20 {
            let mut link = base_link(90.0);
            link.tx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(90.0));
            link.rx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(0.0));
            link.environment = Environment::laboratory(seed);
            powers.push(link.received_dbm(None).0);
        }
        let spread = rfmath::stats::max(&powers) - rfmath::stats::min(&powers);
        assert!(spread > 3.0, "fading spread = {spread:.1} dB");
    }

    #[test]
    fn time_series_is_static_without_modulation() {
        // Ten samples over one second at 10 Hz: with no modulated path
        // the received power never moves.
        let link = base_link(45.0);
        let dbm_at = |i: u32| {
            let a = link.received_amplitude_with(None, Seconds(f64::from(i) / 10.0));
            Watts(a.norm_sqr()).to_dbm().0
        };
        let first = dbm_at(0);
        assert!((1..10).all(|i| (dbm_at(i) - first).abs() < 1e-9));
    }

    #[test]
    fn prepared_link_matches_fresh_link() {
        let mut link = base_link(35.0);
        link.environment = Environment::laboratory(9);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let prepared = PreparedLink::new(link.clone());
        assert!(
            (prepared.received_dbm_with(Some(&response)).0
                - link.received_dbm_with(Some(&response)).0)
                .abs()
                < 1e-12
        );
        assert!(
            (prepared.received_dbm_with(None).0 - link.received_dbm_with(None).0).abs() < 1e-12
        );
    }

    #[test]
    fn panel_placement_reuses_scatter_and_matches_fresh_prep() {
        // Re-mounting the surface for a panel must (a) keep the cached
        // scatter bit-identical (same room, same endpoints) and (b)
        // agree exactly with preparing the moved link from scratch.
        let mut link = base_link(60.0);
        link.deployment = Deployment::transmissive_cm(100.0);
        link.environment = Environment::laboratory(11);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let prepared = PreparedLink::new(link.clone());
        let moved = prepared.with_surface_placement(link.deployment.with_surface_fraction(0.2));
        let mut fresh_link = link.clone();
        fresh_link.deployment = link.deployment.with_surface_fraction(0.2);
        let fresh = PreparedLink::new(fresh_link);
        assert!(
            (moved.received_dbm_with(Some(&response)).0
                - fresh.received_dbm_with(Some(&response)).0)
                .abs()
                < 1e-12
        );
        // Moving the panel genuinely changes the physics (the bounce
        // path length tracks the mount point).
        assert!(
            (moved.received_dbm_with(Some(&response)).0
                - prepared.received_dbm_with(Some(&response)).0)
                .abs()
                > 1e-9
        );
    }

    #[test]
    fn rebind_reuses_scatter_for_rotation_and_power_only_changes() {
        let mut link = base_link(20.0);
        link.environment = Environment::laboratory(17);
        let prepared = PreparedLink::new(link.clone());
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);

        // Rotation + power scaling: static paths reusable, and the
        // rebound handle answers exactly like a fresh preparation (the
        // cached scatter IS the fresh scatter — same seed, same room).
        let mut turned = link.clone();
        turned.rx = OrientedAntenna::new(turned.rx.antenna.clone(), Degrees(47.0));
        turned.tx_power = Watts::from_mw(10.0);
        assert!(prepared.static_paths_reusable(&turned));
        let rebound = prepared.rebind(turned.clone());
        let fresh = PreparedLink::new(turned);
        assert_eq!(
            rebound.received_dbm_with(Some(&response)).0,
            fresh.received_dbm_with(Some(&response)).0
        );

        // Moving an endpoint invalidates the cached scatter: the rebind
        // must fall back to a full re-preparation (and still agree with
        // a fresh one).
        let mut walked = link.clone();
        walked.deployment = Deployment::transmissive_cm(50.0);
        assert!(!prepared.static_paths_reusable(&walked));
        let rebound = prepared.rebind(walked.clone());
        let fresh = PreparedLink::new(walked);
        assert_eq!(
            rebound.received_dbm_with(Some(&response)).0,
            fresh.received_dbm_with(Some(&response)).0
        );
    }

    #[test]
    fn rebind_in_place_is_bitwise_equal_to_rebind() {
        let mut link = base_link(20.0);
        link.environment = Environment::laboratory(23);
        let prepared = PreparedLink::new(link.clone());
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);

        // Reusable move (rotation) and a genuine move (endpoint walk):
        // the pooled path must match the allocating one bit for bit.
        let mut turned = link.clone();
        turned.rx = OrientedAntenna::new(turned.rx.antenna.clone(), Degrees(31.0));
        let mut walked = link.clone();
        walked.deployment = Deployment::transmissive_cm(44.0);
        for updated in [turned, walked] {
            let rebound = prepared.rebind(updated.clone());
            let mut pooled = prepared.clone();
            pooled.rebind_in_place(updated);
            assert_eq!(
                pooled.received_dbm_with(Some(&response)).0,
                rebound.received_dbm_with(Some(&response)).0
            );
            assert_eq!(
                pooled.received_dbm_with(None).0,
                rebound.received_dbm_with(None).0
            );
        }
    }

    #[test]
    fn scratch_probe_is_bitwise_equal_to_allocating_probe() {
        let mut link = base_link(25.0);
        link.environment = Environment::laboratory(29);
        let prepared = PreparedLink::new(link.clone());
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);

        // One scratch buffer across mixed probes (with and without a
        // surface) — reuse must not leak paths between probes.
        let mut scratch = Vec::new();
        for surface in [Some(&response), None] {
            assert_eq!(
                prepared.received_dbm_scratch(surface, &mut scratch).0,
                prepared.received_dbm_with(surface).0
            );
        }
    }

    #[test]
    fn scattered_amplitude_is_zero_without_a_surface() {
        let mut link = base_link(40.0);
        link.environment = Environment::laboratory(31);
        let prepared = PreparedLink::new(link);
        let amp = prepared.scattered_amplitude(None);
        assert_eq!(amp.re.to_bits(), 0.0f64.to_bits());
        assert_eq!(amp.im.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn scattered_amplitude_ignores_the_static_tail() {
        // The scattered term projects only the engineered paths, so two
        // links differing only in environment scatter answer bit for
        // bit the same.
        let clean = base_link(40.0);
        let mut busy = clean.clone();
        busy.environment = Environment::laboratory(13);
        let surface = Metasurface::llama();
        let response = surface.response(clean.frequency);
        let a = PreparedLink::new(clean).scattered_amplitude(Some(&response));
        let b = PreparedLink::new(busy).scattered_amplitude(Some(&response));
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }

    #[test]
    fn reflective_scattered_term_is_the_full_field_minus_the_direct_ray() {
        // In absorber, a reflective link's field is direct + specular
        // reflection; the scattered term must recover exactly the
        // reflection's share (to reassociation).
        let mut link = base_link(30.0);
        link.deployment = Deployment::reflective_cm(36.0);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let prepared = PreparedLink::new(link.clone());
        let full = prepared.received_amplitude_with(Some(&response), Seconds(0.0));
        let direct = prepared.received_amplitude_with(None, Seconds(0.0));
        let scattered = prepared.scattered_amplitude(Some(&response));
        let resid = full - (direct + scattered);
        assert!(
            resid.abs() < 1e-15,
            "direct + scattered must reassemble the field: residual {resid:?}"
        );
        assert!(scattered.abs() > 0.0, "the surface contributes energy");
    }

    #[test]
    #[should_panic(expected = "endpoints fixed")]
    fn panel_placement_rejects_moved_endpoints() {
        let prepared = PreparedLink::new(base_link(0.0));
        let _ = prepared.with_surface_placement(Deployment::transmissive_cm(99.0));
    }

    #[test]
    fn default_tuning_is_identity() {
        let link = base_link(90.0);
        let mut tuned = link.clone();
        tuned.tuning = LinkTuning::default();
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        assert_eq!(
            link.received_dbm_with(Some(&response)).0,
            tuned.received_dbm_with(Some(&response)).0
        );
    }

    #[test]
    fn excess_loss_attenuates_surface_paths_only() {
        let mut link = base_link(90.0);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let base = link.received_dbm_with(Some(&response)).0;
        let free = link.received_dbm_with(None).0;
        link.tuning.surface_excess_loss_db = 3.0;
        let lossy = link.received_dbm_with(Some(&response)).0;
        // The dominant path crosses once: ≈3 dB down (bounce crosses
        // twice, nudging the exact figure).
        assert!(
            (base - lossy - 3.0).abs() < 1.0,
            "excess loss moved power by {:.2} dB",
            base - lossy
        );
        // No surface, no effect.
        assert_eq!(free, link.received_dbm_with(None).0);
    }

    #[test]
    fn extra_shadow_darkens_near_axis_scatter() {
        let mut link = base_link(90.0);
        link.tx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(90.0));
        link.rx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(0.0));
        link.environment = Environment::laboratory(3);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let base = link.received_dbm_with(Some(&response)).0;
        link.tuning.shadow_extra_db = 20.0;
        let shadowed = link.received_dbm_with(Some(&response)).0;
        assert!(
            (shadowed - base).abs() > 0.05,
            "shadow knob must move an omni multipath link: {base:.2} vs {shadowed:.2}"
        );
    }

    #[test]
    fn reflective_deployment_sees_surface() {
        let mut link = base_link(90.0);
        link.deployment = Deployment::reflective_cm(36.0);
        let without = link.received_dbm(None).0;
        let surface = Metasurface::llama();
        let with = link.received_dbm(Some(&surface)).0;
        // The folded specular path adds energy the direct mismatched path
        // lacks.
        assert!(
            with > without,
            "reflective surface should help: {with:.1} vs {without:.1} dBm"
        );
    }
}
