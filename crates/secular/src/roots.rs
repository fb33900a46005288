//! The secular equation solver (`dlaed4` analogue).
//!
//! For the rank-one update `D + ρ z zᵀ` (D = diag(d), d strictly
//! ascending, ρ > 0, z fully non-deflated) the eigenvalues are the roots of
//!
//! ```text
//! f(λ) = 1 + ρ Σᵢ zᵢ² / (dᵢ − λ)          (the paper's Eq. (7))
//! ```
//!
//! Root `j` lies in `(d_j, d_{j+1})` (and the last in
//! `(d_{k−1}, d_{k−1} + ρ‖z‖²)`). All arithmetic happens in coordinates
//! shifted to the closest pole, so the returned pole distances
//! `delta[i] = d_i − λ` are computed as `(d_i − d_K) − μ` without
//! cancellation — the property eigenvector orthogonality rests on.
//!
//! Each iteration is one k-term sweep and one rational step: the root of a
//! model of f matched to the sweep's value and side-wise slopes. Below a
//! crossover k the model is the two-pole "middle way" one, solved in closed
//! form. Above it, the model keeps `WINDOW` poles either side of the root's
//! interval exact — one [`SecularKernels`] pass of 16 terms — and each far
//! side is the Taylor cubic the sweep's moments give (`Σₙ Mₙhⁿ`, `h` the
//! distance from the swept iterate); it is solved by the same step,
//! iterated on the model alone. A root whose model value, plus a rigorous
//! bound on the dropped tails, passes the stopping test is accepted
//! without another sweep (*certified*), so a warm root costs about one
//! sweep. A [`SecularPanel`] starts each root from the previous root's
//! model, re-expressed around the next interval, instead of a midpoint
//! sweep.

use crate::simd::{SecularKernels, SweepSums, WINDOW_LANES};
use dcst_matrix::failpoints::{self, Site};
use dcst_matrix::metrics;
use dcst_matrix::util::EPS;
use std::ops::Range;

/// Failure of the root finder.
#[derive(Debug, Clone, PartialEq)]
pub enum SecularError {
    /// Iteration did not reach the convergence criterion (returns the best
    /// bracket midpoint anyway in practice; this signals a numerical bug).
    NoConvergence { root: usize },
    /// Invalid input (non-positive rho, unsorted d, zero z entry, or a
    /// non-finite value in any of them).
    InvalidInput(&'static str),
}

impl std::fmt::Display for SecularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecularError::NoConvergence { root } => {
                write!(f, "secular root {root} did not converge")
            }
            SecularError::InvalidInput(msg) => write!(f, "invalid secular input: {msg}"),
        }
    }
}

impl std::error::Error for SecularError {}

impl SecularError {
    /// Translate a merge-local root index to global coordinates by adding
    /// the merge node's row offset (drivers report errors in global rows).
    pub fn with_offset(self, off: usize) -> Self {
        match self {
            SecularError::NoConvergence { root } => {
                SecularError::NoConvergence { root: root + off }
            }
            other => other,
        }
    }
}

/// Evaluate `f(λ)` directly (for tests and diagnostics; the solver itself
/// works in shifted coordinates).
pub fn secular_function(d: &[f64], z: &[f64], rho: f64, lambda: f64) -> f64 {
    1.0 + rho
        * d.iter()
            .zip(z)
            .map(|(&di, &zi)| zi * zi / (di - lambda))
            .sum::<f64>()
}

/// `f` and bookkeeping evaluated in shifted coordinates: `delta[i]`
/// already holds `(d_i − d_K) − μ`. Returns `(f, Σ|terms|)`.
fn eval_shifted(z: &[f64], rho: f64, delta: &[f64]) -> (f64, f64) {
    let mut val = 0.0;
    let mut abs = 0.0;
    for (&zi, &de) in z.iter().zip(delta) {
        let t = zi * zi / de;
        val += t;
        abs += t.abs();
    }
    (1.0 + rho * val, 1.0 + rho * abs)
}

/// A secular problem `D + ρzzᵀ`, validated once: ρ positive and finite,
/// the poles `d` finite and strictly ascending, every `z` entry finite and
/// non-zero (deflation removes the zero ones before a solver sees them).
/// A panel task builds one and solves its roots against it, so nothing
/// here is re-checked or re-summed per root.
#[derive(Clone, Copy, Debug)]
pub struct SecularProblem<'a> {
    d: &'a [f64],
    z: &'a [f64],
    rho: f64,
    znorm2: f64,
}

/// One solved secular root, in the coordinates it was solved in:
/// `λ = d[origin] + μ`, with `origin` the pole closest to the root. The
/// pair is the whole state a pole-distance column can be rebuilt from —
/// `delta[i] = (d[i] − d[origin]) − μ`, bit for bit what the solver wrote.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SecularRoot {
    pub lambda: f64,
    pub mu: f64,
    pub origin: usize,
}

impl<'a> SecularProblem<'a> {
    /// Validate `(d, z, ρ)`; `d` and `z` must have one length.
    pub fn new(d: &'a [f64], z: &'a [f64], rho: f64) -> Result<Self, SecularError> {
        assert_eq!(d.len(), z.len(), "one z entry per pole");
        if !(rho > 0.0 && rho.is_finite()) {
            return Err(SecularError::InvalidInput("rho must be positive"));
        }
        if !d.iter().all(|x| x.is_finite()) {
            return Err(SecularError::InvalidInput("poles must be finite"));
        }
        // `all(<)`, not `any(>=)`: no ordering of a NaN passes either.
        if !d.windows(2).all(|w| w[0] < w[1]) {
            return Err(SecularError::InvalidInput(
                "poles must be strictly ascending",
            ));
        }
        if !z.iter().all(|&x| x.is_finite() && x != 0.0) {
            return Err(SecularError::InvalidInput(
                "z entries must be finite and non-zero",
            ));
        }
        let znorm2 = z.iter().map(|x| x * x).sum();
        Ok(SecularProblem { d, z, rho, znorm2 })
    }

    /// Solve for root `j` (0-based). `delta` (length k) is filled with the
    /// accurately-computed distances `d_i − λ_j`.
    ///
    /// The per-iteration k-term sweeps run through the runtime-dispatched
    /// SIMD kernels in [`crate::simd`]; [`Self::solve_root_scalar`] pins
    /// the scalar bodies and serves as the oracle. Every call starts cold,
    /// from the midpoint of the root's interval; [`Self::panel`] solves a
    /// run of roots, each warm-started from the one before.
    pub fn solve_root(&self, j: usize, delta: &mut [f64]) -> Result<SecularRoot, SecularError> {
        Ok(self
            .solve(j, delta, SecularKernels::dispatched(), MAXIT, None, true)?
            .0)
    }

    /// [`Self::solve_root`] forced onto the scalar kernel bodies. Retained
    /// as the property-test oracle and for SIMD-vs-scalar benchmarking
    /// within one process.
    pub fn solve_root_scalar(
        &self,
        j: usize,
        delta: &mut [f64],
    ) -> Result<SecularRoot, SecularError> {
        Ok(self
            .solve(j, delta, SecularKernels::SCALAR, MAXIT, None, true)?
            .0)
    }

    /// A run of roots solved in ascending order on the dispatched kernels:
    /// see [`SecularPanel`].
    pub fn panel(&self) -> SecularPanel<'_, 'a> {
        self.panel_on(SecularKernels::dispatched())
    }

    /// [`Self::panel`] forced onto the scalar kernel bodies (the oracle).
    pub fn panel_scalar(&self) -> SecularPanel<'_, 'a> {
        self.panel_on(SecularKernels::SCALAR)
    }

    fn panel_on(&self, kernels: SecularKernels) -> SecularPanel<'_, 'a> {
        SecularPanel {
            problem: self,
            kernels,
            prev: None,
        }
    }

    /// The terms root `j`'s rational step keeps exact: `WINDOW` poles each
    /// side of its interval, clipped to `0..k` (the last root's has only
    /// the lower side); empty at `split` below [`MIN_K_WINDOW`].
    fn window(&self, split: usize) -> Range<usize> {
        let k = self.d.len();
        if k < MIN_K_WINDOW {
            split..split
        } else {
            split.saturating_sub(WINDOW)..(split + WINDOW).min(k)
        }
    }

    /// Interior root `j`'s origin and first iterate from `model`, root
    /// `j − 1`'s (whose window reaches both ends of root `j`'s interval),
    /// re-expressed around root `j`'s interval: the model's sign at the
    /// interval's midpoint picks the origin, as a cold root's midpoint sweep
    /// does, and the model's root is the iterate. `None` where that root is
    /// not inside the interval.
    fn warm_start(
        &self,
        kernels: SecularKernels,
        model: &Taylor,
        j: usize,
        split: usize,
        width: f64,
    ) -> Option<(usize, f64)> {
        debug_assert!(model.range.start < split && split < model.range.end);
        let half = 0.5 * width;
        let q = model.moved(self, split, j);
        let at = q.at(kernels, self.rho, half).at;
        let (origin, q, mu, lo, hi) = if at.g < 0.0 {
            (j + 1, model.moved(self, split, j + 1), -half, -width, 0.0)
        } else {
            (j, q, half, 0.0, width)
        };
        let mu = q.warm_root(kernels, self.rho, mu, at, (lo, hi));
        (lo < mu && mu < hi).then_some((origin, mu))
    }

    /// One root; with `warm`, its first step from that model instead of a
    /// midpoint sweep. Also returns the model it converged on — fitted at
    /// its last sweep, or the one that certified it — for root `j + 1`
    /// (windowed problems only). With `refresh` false, `delta` is scratch:
    /// on return it holds the distances at the last sweep, which a
    /// certified root does not end with.
    fn solve(
        &self,
        j: usize,
        delta: &mut [f64],
        kernels: SecularKernels,
        maxit: usize,
        warm: Option<&Taylor>,
        refresh: bool,
    ) -> Result<(SecularRoot, Option<Taylor>), SecularError> {
        let (d, z, rho) = (self.d, self.z, self.rho);
        let k = d.len();
        assert!(j < k && delta.len() == k);
        if failpoints::fire(Site::Laed4) {
            return Err(SecularError::NoConvergence { root: j });
        }

        if k == 1 {
            // 1 + ρ z₀²/(d₀ − λ) = 0  ⇒  λ = d₀ + ρ z₀².
            let mu = rho * z[0] * z[0];
            delta[0] = -mu;
            metrics::add("secular.root_solves", 1);
            let root = SecularRoot {
                lambda: d[0] + mu,
                mu,
                origin: 0,
            };
            return Ok((root, None));
        }

        let last = j == k - 1;
        // Terms below `split` are the ψ side, the rest the φ side; the
        // interval's ends — for the last root the last two poles — are the
        // poles either side of it.
        let split = if last { k - 1 } else { j + 1 };
        let window = self.window(split);

        // ---- origin pole K and bracket for μ = λ − d_K. A cold root starts
        // at origin d_j in the middle of its interval: (d_j, d_{j+1}) for an
        // interior root, (d_{k−1}, d_{k−1} + ρ‖z‖²] for the last. The first
        // sweep below evaluates f there; for an interior root its sign also
        // picks the closer endpoint as the origin. A warm root starts at its
        // model's root, from the endpoint the model put closer, with the
        // whole interval as its bracket.
        let width = if last {
            rho * self.znorm2
        } else {
            d[j + 1] - d[j]
        };
        let mut origin = j;
        let mut lo = 0.0;
        let mut hi = width;
        let mut mu = 0.5 * hi;
        let start = warm
            .filter(|_| !last)
            .and_then(|model| self.warm_start(kernels, model, j, split, width));
        let cold = start.is_none();
        if let Some((o, m)) = start {
            (origin, mu) = (o, m);
            if o != j {
                (lo, hi) = (-width, 0.0);
            }
        }
        // A warm root's origin was the model's guess: it may still move
        // once to the endpoint the root turns out to be closer to.
        let mut may_flip = !cold;

        // The (origin, μ) `delta` was last filled at.
        let mut swept = (usize::MAX, 0.0);
        let mut converged = false;
        let mut certified = false;
        let mut next_model = None;
        let mut iters = 0u64;
        // The convergence test is |f| ≤ tolk·fabs.
        let tolk = 8.0 * EPS * (k as f64);
        // The first sweep, then up to `maxit` rational-model steps.
        for it in 0..=maxit {
            iters += 1;
            // Fused sweep: fill delta[i] = (d_i − d_K) − μ and accumulate
            // the secular sum, its absolute-value companion, and the sums
            // either side of the window in one dispatched pass over the k
            // terms.
            let sums = kernels.sweep(d, d[origin], mu, z, window.clone(), delta);
            swept = (origin, mu);
            let f = 1.0 + rho * sums.val;
            let fabs = 1.0 + rho * sums.abs;
            if f.abs() <= tolk * fabs {
                if may_flip && past_midpoint(origin == j, mu, width) {
                    // Converged from the farther endpoint: re-express μ
                    // from the nearer one and converge again there.
                    flip(&mut origin, j, [&mut mu, &mut lo, &mut hi], width);
                    may_flip = false;
                    continue;
                }
                converged = true;
                if !window.is_empty() {
                    next_model = Some(Taylor::fit(self, &window, split, origin, mu, &sums, delta));
                }
                break;
            }
            if cold && it == 0 && !last && f < 0.0 {
                // Root in the upper half: origin d_{j+1}, where the
                // midpoint is μ = −gap/2 and the bracket [−gap/2, 0).
                origin = j + 1;
                mu = -mu;
                lo = mu;
                hi = 0.0;
            } else if f > 0.0 {
                hi = mu;
            } else {
                lo = mu;
            }
            if may_flip && past_midpoint(origin == j, if origin == j { lo } else { hi }, width) {
                // The whole bracket lies past the midpoint.
                flip(&mut origin, j, [&mut mu, &mut lo, &mut hi], width);
                may_flip = false;
            }
            let mut next = if window.is_empty() {
                // --- rational model step: f̃(μ̂) = C + A/(a − μ̂) + B/(b − μ̂)
                // with the ψ/φ split across the two interval poles, matching
                // f and the side-wise derivatives ψ′/φ′; its root in closed
                // form, from the distances of the interval's poles here.
                let at = ModelPoint {
                    g: f,
                    psi_p: rho * sums.psi_p,
                    phi_p: rho * sums.phi_p,
                    a: delta[split - 1],
                    b: delta[split],
                };
                middle_way(&at, mu, (lo, hi))
            } else {
                // --- the window's poles exact and each far side as its
                // Taylor cubic about this sweep: the model's root, and
                // with it, when the dropped tails are provably small
                // enough, the root itself without another sweep.
                let taylor = Taylor::fit(self, &window, split, origin, mu, &sums, delta);
                let (x, certifies) = taylor.root(kernels, rho, (lo, hi), tolk);
                if certifies {
                    mu = x;
                    if may_flip && past_midpoint(origin == j, mu, width) {
                        // As for a root converged at a sweep.
                        flip(&mut origin, j, [&mut mu, &mut lo, &mut hi], width);
                        may_flip = false;
                        continue;
                    }
                    converged = true;
                    certified = true;
                    next_model = Some(taylor);
                    break;
                }
                x
            };
            if next == mu {
                next = 0.5 * (lo + hi);
            }
            mu = next;
            // Bracket exhausted to rounding: accept.
            if hi - lo <= 2.0 * EPS * (lo.abs().max(hi.abs())) {
                converged = true;
                break;
            }
        }
        let rescued = !converged;
        if !converged {
            // Safeguarded-bisection rescue: the rational model can stagnate
            // on extreme pole configurations, but the sign-tested bracket
            // [lo, hi] survives every iteration above, so bisecting it
            // converges unconditionally (up to rounding) at ~1 bit per
            // sweep. This is the dlaed4 lineage's safeguard: failure should
            // become reportable only when the bracket itself is numerically
            // exhausted.
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                iters += 1;
                let sums = kernels.sweep(d, d[origin], mid, z, window.clone(), delta);
                mu = mid;
                swept = (origin, mu);
                let f = 1.0 + rho * sums.val;
                let fabs = 1.0 + rho * sums.abs;
                if f.abs() <= 8.0 * EPS * (k as f64) * fabs {
                    converged = true;
                    break;
                }
                if f > 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
                if hi - lo <= 2.0 * EPS * (lo.abs().max(hi.abs())) {
                    converged = true;
                    break;
                }
            }
        }
        // One batched registry update per root solve (never per sweep).
        metrics::add("secular.root_solves", 1);
        metrics::add("secular.iters", iters);
        if rescued {
            metrics::add("secular.bisection_rescues", 1);
        }
        if certified {
            metrics::add("secular.certified", 1);
        }
        // Delta refresh at the accepted μ, unless the last sweep ran there
        // (it wrote these very values) or nothing reads it.
        if (refresh || !converged) && swept != (origin, mu) {
            for (de, &di) in delta.iter_mut().zip(d) {
                *de = (di - d[origin]) - mu;
            }
        }
        if !converged {
            let (f, fabs) = eval_shifted(z, rho, delta);
            // Accept if the bracket is as tight as representable.
            if f.abs() > 1e3 * EPS * (k as f64) * fabs
                && hi - lo > 4.0 * EPS * (lo.abs().max(hi.abs()) + EPS)
            {
                return Err(SecularError::NoConvergence { root: j });
            }
        }
        let root = SecularRoot {
            lambda: d[origin] + mu,
            mu,
            origin,
        };
        Ok((root, next_model))
    }
}

/// Roots of one [`SecularProblem`] solved in ascending order, the way a
/// merge's panel task solves its run of roots. Above a crossover k, root
/// `j`'s first step comes from the model root `j − 1` converged on — the
/// one fitted at its last sweep, or the one that certified it —
/// re-expressed around root `j`'s interval, in place of a midpoint sweep.
/// The first root of a run, any root not following the one solved before,
/// and the problem's last root (which may lie far above the poles the
/// previous model keeps exact) start cold, as [`SecularProblem::solve_root`]
/// does. So the roots depend on where runs start and on nothing else: a
/// merge's panels are fixed by `nb` alone.
pub struct SecularPanel<'p, 'a> {
    problem: &'p SecularProblem<'a>,
    kernels: SecularKernels,
    /// The root solved last, and the model it converged on.
    prev: Option<(usize, Taylor)>,
}

impl SecularPanel<'_, '_> {
    /// Solve root `j`, as [`SecularProblem::solve_root`] does.
    pub fn solve_root(&mut self, j: usize, delta: &mut [f64]) -> Result<SecularRoot, SecularError> {
        self.solve(j, delta, true)
    }

    /// [`Self::solve_root`] for a caller that keeps only the root:
    /// `scratch` (length k) is work space, and on return it need not hold
    /// the root's pole distances — a root certified without a closing sweep
    /// skips their k-term refresh. The root is the one `solve_root` gives.
    pub fn solve_root_scratch(
        &mut self,
        j: usize,
        scratch: &mut [f64],
    ) -> Result<SecularRoot, SecularError> {
        self.solve(j, scratch, false)
    }

    fn solve(
        &mut self,
        j: usize,
        delta: &mut [f64],
        refresh: bool,
    ) -> Result<SecularRoot, SecularError> {
        let warm = match self.prev.take() {
            Some((i, model)) if i + 1 == j => Some(model),
            _ => None,
        };
        let (root, model) =
            self.problem
                .solve(j, delta, self.kernels, MAXIT, warm.as_ref(), refresh)?;
        self.prev = model.map(|m| (j, m));
        Ok(root)
    }
}

/// Whether μ, from origin `d_j` (`at_lower`) or `d_{j+1}`, lies past the
/// midpoint of an interval `width` wide.
fn past_midpoint(at_lower: bool, mu: f64, width: f64) -> bool {
    if at_lower {
        mu > 0.5 * width
    } else {
        mu < -0.5 * width
    }
}

/// Move an interior root's origin to the other end of its interval,
/// re-expressing μ and the bracket from there.
fn flip(origin: &mut usize, j: usize, coords: [&mut f64; 3], width: f64) {
    let shift = if *origin == j { -width } else { width };
    *origin = if *origin == j { j + 1 } else { j };
    for x in coords {
        *x += shift;
    }
}

/// Poles `window` of a root's step model, from an origin: positions `q`
/// and weights `ρz²`. The interval's poles `split − 1` and `split` are
/// kept apart, as `(q, w)` pairs; the rest go to one
/// [`SecularKernels::window_sums`] pass, padded with `q = ∞`, `w = 0`.
/// Each of those lies below μ if and only if it lies below the interval,
/// so that pass splits the sides by sign — where the last root's upper
/// pole `k − 1`, below μ too, would land on the wrong one.
#[derive(Clone, Copy, Debug)]
struct Window {
    q: [f64; WINDOW_LANES],
    w: [f64; WINDOW_LANES],
    ends: [(f64, f64); 2],
}

/// The [`Window`] at one μ.
#[derive(Clone, Copy, Debug)]
struct WindowPoint {
    /// `[ψ, ψ′, φ, φ′]` of the poles below and above the interval.
    side: [f64; 4],
    /// `Σ |ρz²/(q − μ)|`.
    abs: f64,
    /// The distances of the interval's poles.
    a: f64,
    b: f64,
}

impl Window {
    /// The poles `window` from `d_origin`, around the interval below
    /// `split`.
    fn new(p: &SecularProblem<'_>, window: &Range<usize>, split: usize, origin: usize) -> Self {
        let (mut q, mut w) = ([f64::INFINITY; WINDOW_LANES], [0.0; WINDOW_LANES]);
        let base = p.d[origin];
        let pole = |i: usize| (p.d[i] - base, p.rho * p.z[i] * p.z[i]);
        let rest = window.clone().filter(|&i| i + 1 != split && i != split);
        for (t, i) in rest.enumerate() {
            (q[t], w[t]) = pole(i);
        }
        Window {
            q,
            w,
            ends: [pole(split - 1), pole(split)],
        }
    }

    /// The window at μ.
    fn at(&self, kernels: SecularKernels, mu: f64) -> WindowPoint {
        let mut side = kernels.window_sums(&self.q, &self.w, mu);
        let mut abs = side[2] - side[0];
        let mut dist = [0.0; 2];
        for (i, &(q, w)) in self.ends.iter().enumerate() {
            dist[i] = q - mu;
            let inv = 1.0 / dist[i];
            let r = w * inv;
            side[2 * i] += r;
            side[2 * i + 1] += r * inv;
            abs += r.abs();
        }
        WindowPoint {
            side,
            abs,
            a: dist[0],
            b: dist[1],
        }
    }
}

/// The step's model of `f` near one root, from a windowed sweep at `μ₀`:
/// `g(μ) = 1 + Σₜ wₜ/(qₜ − μ)` over the `range`'s poles, exact
/// (`qₜ = d_t − d_origin`, `wₜ = ρ zₜ²`), plus each far side — the terms
/// below and above `range` — as its Taylor polynomial in `h = μ − μ₀`
/// through the cubic, `Σₙ₌₀³ Mₙhⁿ`, from the sweep's moments
/// `Mₙ = Σ z²/δⁿ⁺¹`. What it drops of a side is
/// `Σᵢ (z²/δᵢ)·(h/δᵢ)⁴/(1 − h/δᵢ)`; the side's δᵢ share one sign (the
/// poles are ascending and μ stays in the root's interval), so with
/// `r = |h|/|δ⁰|`, δ⁰ its nearest pole, that is at most `|M₀|·r⁴/(1 − r)`.
/// Root `j`'s model is root `j + 1`'s first one too, [`Self::moved`]: its
/// `range` reaches both ends of the next interval.
#[derive(Clone, Debug)]
struct Taylor {
    range: Range<usize>,
    origin: usize,
    mu0: f64,
    window: Window,
    /// Each far side's moments, ψ side first (0 for an absent side).
    m: [[f64; 4]; 2],
    /// Each side's δ⁰ at μ₀, signed: ∞ for an absent side, 0 for one whose
    /// cubic is not exact enough to certify with.
    near: [f64; 2],
}

/// The Taylor model at one μ.
#[derive(Clone, Copy, Debug)]
struct TaylorPoint {
    at: ModelPoint,
    /// `1 + ρ·(|ψ̂| + Σ_window |t| + |φ̂|)`, the sweep's `fabs` for the model.
    gabs: f64,
}

impl Taylor {
    /// The model at a windowed sweep at `(origin, μ₀)` over `range` with
    /// sums `s` and pole distances `delta`. A moment that overflowed is
    /// dropped with those above it. A side with a moment not finite or
    /// below [`TINY`] (then its cubic could miss terms that matter, as in
    /// the 1e150-scaled regime) still steers the step but certifies
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    fn fit(
        p: &SecularProblem<'_>,
        range: &Range<usize>,
        split: usize,
        origin: usize,
        mu0: f64,
        s: &SweepSums,
        delta: &[f64],
    ) -> Self {
        let mut m = s.moments();
        let nearest = [range.start.checked_sub(1), Some(range.end)];
        let near = [0, 1].map(|i| match nearest[i].filter(|&n| n < p.d.len()) {
            None => f64::INFINITY,
            Some(_) if !m[i].iter().all(|x| x.is_finite() && x.abs() >= TINY) => 0.0,
            Some(n) => delta[n],
        });
        for side in &mut m {
            if let Some(n) = side.iter().position(|x| !x.is_finite()) {
                side[n..].fill(0.0);
            }
        }
        Taylor {
            range: range.clone(),
            origin,
            mu0,
            window: Window::new(p, range, split, origin),
            m,
            near,
        }
    }

    /// The same model from `d_origin`, around the interval below `split`.
    fn moved(&self, p: &SecularProblem<'_>, split: usize, origin: usize) -> Self {
        Taylor {
            range: self.range.clone(),
            origin,
            mu0: (p.d[self.origin] - p.d[origin]) + self.mu0,
            window: Window::new(p, &self.range, split, origin),
            ..*self
        }
    }

    /// The model at μ.
    fn at(&self, kernels: SecularKernels, rho: f64, mu: f64) -> TaylorPoint {
        let WindowPoint {
            mut side,
            mut abs,
            a,
            b,
        } = self.window.at(kernels, mu);
        let h = mu - self.mu0;
        for (i, m) in self.m.iter().enumerate() {
            let val = ((m[3] * h + m[2]) * h + m[1]) * h + m[0];
            let der = (3.0 * m[3] * h + 2.0 * m[2]) * h + m[1];
            side[2 * i] += rho * val;
            side[2 * i + 1] += rho * der;
            abs += rho * val.abs();
        }
        TaylorPoint {
            at: ModelPoint {
                g: 1.0 + side[0] + side[2],
                psi_p: side[1],
                phi_p: side[3],
                a,
                b,
            },
            gabs: 1.0 + abs,
        }
    }

    /// Whether a sweep at μ, where the model is `p`, passes
    /// `|f| ≤ tolk·fabs`: `f` is within the dropped tails'
    /// `T = ρ·Σ_sides |M₀|·r⁴/(1 − r)` (∞ once a side's `r ≥ ½`) of `g`,
    /// and `fabs` of `gabs`.
    fn certifies(&self, p: &TaylorPoint, mu: f64, rho: f64, tolk: f64) -> bool {
        let h = (mu - self.mu0).abs();
        let mut tail = 0.0;
        for (m, near) in self.m.iter().zip(self.near) {
            let r = h / near.abs();
            tail += if r < 0.5 {
                m[0].abs() * (r * r) * (r * r) / (1.0 - r)
            } else {
                f64::INFINITY
            };
        }
        let tail = rho * tail;
        p.at.g.abs() + tail <= tolk * (p.gabs - tail)
    }

    /// Middle-way steps on the model from μ₀, inside the sign-tested
    /// bracket `(lo, hi)`, until a point certifies, then one more, kept if
    /// it certifies too (returned with `true`); or, if none certifies,
    /// until the steps stop moving: the last point, uncertified. The step
    /// that first certifies can land anywhere inside the tolerance — from
    /// a warm start, typically near its edge — and the step after it, far
    /// inside: without it a merge's eigenvector residuals double.
    fn root(
        &self,
        kernels: SecularKernels,
        rho: f64,
        (mut lo, mut hi): (f64, f64),
        tolk: f64,
    ) -> (f64, bool) {
        let mut mu = self.mu0;
        let mut p = self.at(kernels, rho, mu);
        let mut certified = false;
        for _ in 0..TAYLOR_ITERS {
            if !narrow(&p.at, mu, (&mut lo, &mut hi)) {
                break;
            }
            let next = middle_way(&p.at, mu, (lo, hi));
            if next == mu {
                break;
            }
            let q = self.at(kernels, rho, next);
            let certifies = self.certifies(&q, next, rho, tolk);
            if certifies || !certified {
                (mu, p) = (next, q);
            }
            if certified {
                break;
            }
            certified = certifies;
        }
        (mu, certified)
    }

    /// A warm start's iterate: the model's root in the interval `(lo, hi)`,
    /// by middle-way steps from μ, where the model is `at`, until one moves
    /// μ by less than [`MODEL_TOL`] or [`MODEL_ITERS`] have run.
    fn warm_root(
        &self,
        kernels: SecularKernels,
        rho: f64,
        mut mu: f64,
        mut at: ModelPoint,
        (mut lo, mut hi): (f64, f64),
    ) -> f64 {
        for it in 0..MODEL_ITERS {
            if !narrow(&at, mu, (&mut lo, &mut hi)) {
                return mu;
            }
            let next = middle_way(&at, mu, (lo, hi));
            if it + 1 == MODEL_ITERS || (next - mu).abs() <= MODEL_TOL * next.abs() {
                return next;
            }
            mu = next;
            at = self.at(kernels, rho, mu).at;
        }
        mu
    }
}

/// A model (or `f` itself) at one μ: its value, its slopes from the poles
/// below and above `split`, and the distances `a`, `b` of poles
/// `split − 1` and `split`.
#[derive(Clone, Copy, Debug)]
struct ModelPoint {
    g: f64,
    psi_p: f64,
    phi_p: f64,
    a: f64,
    b: f64,
}

/// Narrow the bracket `(lo, hi)` by the model's sign at μ, where it is
/// `at`; false if μ is the model's root.
fn narrow(at: &ModelPoint, mu: f64, (lo, hi): (&mut f64, &mut f64)) -> bool {
    if at.g > 0.0 {
        *hi = mu;
    } else if at.g < 0.0 {
        *lo = mu;
    }
    at.g != 0.0
}

/// The middle-way step from μ, where the model is `at`: `μ + η` with η
/// the root closest to 0 of the two-pole model `C + A/(a − η) + B/(b − η)`
/// with `A/a² = ψ′`, `B/b² = φ′` and value `g` at η = 0 — or, if that
/// quadratic has no real root or `μ + η` is not inside `(lo, hi)`, the
/// bracket's midpoint.
fn middle_way(at: &ModelPoint, mu: f64, (lo, hi): (f64, f64)) -> f64 {
    let (a, b) = (at.a, at.b);
    let a_coef = at.psi_p * a * a;
    let b_coef = at.phi_p * b * b;
    let c_coef = at.g - at.psi_p * a - at.phi_p * b;
    // Solve C + A/(a − η) + B/(b − η) = 0 for the step η (shift
    // μ̂ = μ + η): quadratic
    //   C(a−η)(b−η) + A(b−η) + B(a−η) = 0.
    let qa = c_coef;
    let qb = -(c_coef * (a + b) + a_coef + b_coef);
    let qc = c_coef * a * b + a_coef * b + b_coef * a;
    match solve_quadratic_closest_to_zero(qa, qb, qc) {
        Some(eta) if lo < mu + eta && mu + eta < hi => mu + eta,
        _ => 0.5 * (lo + hi),
    }
}

/// Solve for root `j` (0-based) of the secular equation: validate the
/// problem, solve, return `λ_j` with `delta` filled — one call of
/// [`SecularProblem::new`] and [`SecularProblem::solve_root`]. A caller
/// with more than one root to solve builds the problem once instead.
pub fn solve_secular_root(
    j: usize,
    d: &[f64],
    z: &[f64],
    rho: f64,
    delta: &mut [f64],
) -> Result<f64, SecularError> {
    Ok(SecularProblem::new(d, z, rho)?.solve_root(j, delta)?.lambda)
}

/// Rational-model iterations before the safeguarded-bisection rescue
/// takes over (LAPACK's dlaed4 uses 30; the bracket makes more harmless).
const MAXIT: usize = 100;

/// Poles the rational step keeps exact on each side of a root's interval
/// once `k ≥ MIN_K_WINDOW` (fitted in time with the crossover: 8 takes
/// fewer sweeps than 4 or 6 for a model that costs about the same).
const WINDOW: usize = 8;

/// Smallest k whose roots step on the windowed model and warm-start from
/// the root before; below it the step is the two-pole closed form, bit
/// for bit. A windowed root is the cheaper one from k ≈ 300 (0.87 against
/// 0.96 µs a root in panel order at k = 384, 0.96 against 1.26 at 512; 0.85
/// against 0.81 at 256, 0.80 against 0.54 at 128), but a values solve of
/// Type 6 at n = 4000 ran no faster with the crossover at 256 or 384 (its
/// merges jump from k ≈ 490 to ≈ 240), so it stays here with the bits
/// below it.
const MIN_K_WINDOW: usize = 512;

/// Middle-way iterations on a warm start's model, at most: the first is
/// the step a two-pole model would take, the other two refine it.
const MODEL_ITERS: usize = 3;

/// Relative step at which a warm start's root counts as found.
const MODEL_TOL: f64 = 1e-6;

/// Middle-way steps on a [`Taylor`] model, at most, before the root
/// finder sweeps at the last one instead (a warm root takes about two).
const TAYLOR_ITERS: usize = 8;

/// Smallest moment magnitude a [`Taylor`] model certifies with: above it,
/// a moment's underflowed terms are far below its rounding.
const TINY: f64 = f64::MIN_POSITIVE / EPS;

// A warm model keeps root j − 1's window exact; it reaches both ends of
// root j's interval only with two or more poles each side. A window is one
// pass of the window kernel.
const _: () = assert!(WINDOW >= 2 && 2 * WINDOW == WINDOW_LANES);

/// Smaller-magnitude real root of `qa η² + qb η + qc = 0`, computed with
/// the stable formula; `None` when no real root exists.
fn solve_quadratic_closest_to_zero(qa: f64, qb: f64, qc: f64) -> Option<f64> {
    if qa == 0.0 {
        if qb == 0.0 {
            return None;
        }
        return Some(-qc / qb);
    }
    let disc = qb * qb - 4.0 * qa * qc;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let q = -0.5 * (qb + if qb >= 0.0 { sq } else { -sq });
    let r1 = q / qa;
    let r2 = if q != 0.0 { qc / q } else { f64::INFINITY };
    Some(if r1.abs() < r2.abs() { r1 } else { r2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference root by bisection on f (monotone per interval).
    fn reference_root(j: usize, d: &[f64], z: &[f64], rho: f64) -> f64 {
        let k = d.len();
        let znorm2: f64 = z.iter().map(|x| x * x).sum();
        let (mut lo, mut hi) = if j + 1 < k {
            (d[j], d[j + 1])
        } else {
            (d[k - 1], d[k - 1] + rho * znorm2 + 1.0)
        };
        for _ in 0..200 {
            let m = 0.5 * (lo + hi);
            if m <= lo || m >= hi {
                break;
            }
            if secular_function(d, z, rho, m) > 0.0 {
                hi = m;
            } else {
                lo = m;
            }
        }
        0.5 * (lo + hi)
    }

    fn check_all_roots(d: &[f64], z: &[f64], rho: f64, tol: f64) -> Vec<f64> {
        let k = d.len();
        let mut delta = vec![0.0; k];
        let mut roots = Vec::with_capacity(k);
        for j in 0..k {
            let lam = solve_secular_root(j, d, z, rho, &mut delta).unwrap();
            let rref = reference_root(j, d, z, rho);
            let scale = d[k - 1] - d[0] + rho;
            assert!(
                (lam - rref).abs() <= tol * scale.max(1.0),
                "root {j}: {lam} vs reference {rref}"
            );
            // Interlacing.
            assert!(lam > d[j], "root {j} below its pole");
            if j + 1 < k {
                assert!(lam < d[j + 1], "root {j} above next pole");
            }
            // delta consistency: d_i − λ.
            for i in 0..k {
                let direct = d[i] - lam;
                assert!(
                    (delta[i] - direct).abs() <= 1e-8 * direct.abs().max(1e-300) + 1e-18,
                    "delta[{i}] inconsistent at root {j}: {} vs {direct}",
                    delta[i]
                );
            }
            roots.push(lam);
        }
        roots
    }

    #[test]
    fn single_pole_closed_form() {
        let mut delta = [0.0];
        let lam = solve_secular_root(0, &[2.0], &[0.5], 4.0, &mut delta).unwrap();
        assert!((lam - 3.0).abs() < 1e-15);
        assert!((delta[0] + 1.0).abs() < 1e-15);
    }

    #[test]
    fn two_poles_match_2x2_eigenvalues() {
        // D + ρzzᵀ with D = diag(0, 1), z = (1,1)/√2, ρ = 1:
        // matrix [[0.5, 0.5], [0.5, 1.5]], eigenvalues 1 ± √2/2.
        let d = [0.0, 1.0];
        let s = 0.5f64.sqrt();
        let z = [s, s];
        let roots = check_all_roots(&d, &z, 1.0, 1e-12);
        assert!((roots[0] - (1.0 - s)).abs() < 1e-13, "{}", roots[0]);
        assert!((roots[1] - (1.0 + s)).abs() < 1e-13, "{}", roots[1]);
    }

    #[test]
    fn random_problems_match_bisection() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for trial in 0..20 {
            let k = rng.gen_range(2..30);
            let mut d: Vec<f64> = (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Enforce separation.
            for i in 1..k {
                if d[i] - d[i - 1] < 1e-3 {
                    d[i] = d[i - 1] + 1e-3;
                }
            }
            let mut z: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
            let zn: f64 = z.iter().map(|x| x * x).sum::<f64>().sqrt();
            z.iter_mut().for_each(|x| *x /= zn);
            let rho = rng.gen_range(0.1..4.0);
            check_all_roots(&d, &z, rho, 1e-10);
            let _ = trial;
        }
    }

    #[test]
    fn close_poles_stress() {
        // Poles clustered to within 1e-12: the shifted representation must
        // still produce interlacing roots and consistent deltas.
        let d = [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 2.0];
        let z = [0.5, 0.5, 0.5, 0.5];
        let mut delta = vec![0.0; 4];
        for j in 0..4 {
            let lam = solve_secular_root(j, &d, &z, 1.0, &mut delta).unwrap();
            assert!(lam > d[j]);
            if j + 1 < 4 {
                assert!(lam < d[j + 1]);
            }
            // The nearby pole distance keeps full relative precision.
            assert!(delta[j] < 0.0, "delta at own pole must be negative");
        }
    }

    #[test]
    fn tiny_z_component_gives_root_near_pole() {
        let d = [0.0, 1.0, 2.0];
        let z = [1e-9, 1.0, 1e-9];
        let mut delta = vec![0.0; 3];
        let lam0 = solve_secular_root(0, &d, &z, 1.0, &mut delta).unwrap();
        assert!(lam0 - d[0] < 1e-14, "root glued to pole: {}", lam0 - d[0]);
        let lam2 = solve_secular_root(2, &d, &z, 1.0, &mut delta).unwrap();
        assert!(lam2 - d[2] > 0.0 && lam2 - d[2] < 1e-6);
    }

    #[test]
    fn sum_rule_trace() {
        // Σ λ_j = Σ d_i + ρ‖z‖² (trace of D + ρzzᵀ).
        let d = [-1.0, 0.0, 0.5, 3.0];
        let z = [0.6, 0.2, 0.4, 0.3];
        let rho = 2.0;
        let zn2: f64 = z.iter().map(|x| x * x).sum();
        let mut delta = vec![0.0; 4];
        let sum: f64 = (0..4)
            .map(|j| solve_secular_root(j, &d, &z, rho, &mut delta).unwrap())
            .sum();
        let want = d.iter().sum::<f64>() + rho * zn2;
        assert!((sum - want).abs() < 1e-10, "{sum} vs {want}");
    }

    /// Root `j` of a cold solve with no rational-model step after its
    /// midpoint sweep, so the safeguarded-bisection rescue finds it.
    fn rescued(p: &SecularProblem<'_>, j: usize, delta: &mut [f64]) -> f64 {
        let kernels = SecularKernels::dispatched();
        p.solve(j, delta, kernels, 0, None, true).unwrap().0.lambda
    }

    #[test]
    fn zero_newton_budget_is_rescued_by_bisection() {
        // With no rational-model iterations at all, the safeguarded
        // bisection must still land every root to reference accuracy.
        let d = [-1.0, 0.0, 0.5, 3.0];
        let z = [0.6, 0.2, 0.4, 0.3];
        let rho = 2.0;
        let mut delta = vec![0.0; 4];
        let p = SecularProblem::new(&d, &z, rho).unwrap();
        for j in 0..4 {
            let lam = rescued(&p, j, &mut delta);
            let rref = reference_root(j, &d, &z, rho);
            assert!((lam - rref).abs() < 1e-10, "root {j}: {lam} vs {rref}");
            assert!(lam > d[j]);
            if j + 1 < 4 {
                assert!(lam < d[j + 1]);
            }
        }
    }

    #[test]
    fn rescue_handles_clustered_poles() {
        let d = [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 2.0];
        let z = [0.5, 0.5, 0.5, 0.5];
        let mut delta = vec![0.0; 4];
        let p = SecularProblem::new(&d, &z, 1.0).unwrap();
        for j in 0..4 {
            let lam = rescued(&p, j, &mut delta);
            assert!(lam > d[j]);
            if j + 1 < 4 {
                assert!(lam < d[j + 1]);
            }
            assert!(delta[j] < 0.0);
        }
    }

    #[test]
    fn offset_translation_maps_root_index() {
        let err = SecularError::NoConvergence { root: 3 };
        assert_eq!(
            err.with_offset(40),
            SecularError::NoConvergence { root: 43 }
        );
        let inv = SecularError::InvalidInput("x");
        assert_eq!(inv.clone().with_offset(40), inv);
    }

    fn invalid(d: &[f64], z: &[f64], rho: f64) -> &'static str {
        match SecularProblem::new(d, z, rho) {
            Err(SecularError::InvalidInput(msg)) => msg,
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_rho() {
        for rho in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                invalid(&[0.0, 1.0], &[0.5, 0.5], rho),
                "rho must be positive"
            );
        }
        // The one-call form validates too.
        let mut delta = vec![0.0; 2];
        assert!(matches!(
            solve_secular_root(0, &[0.0, 1.0], &[0.5, 0.5], -1.0, &mut delta),
            Err(SecularError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_unsorted_or_equal_poles() {
        let z = [0.5, 0.5, 0.5];
        for d in [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]] {
            assert_eq!(invalid(&d, &z, 1.0), "poles must be strictly ascending");
        }
    }

    #[test]
    fn rejects_non_finite_poles() {
        // A NaN pole compares false both ways: `w[0] >= w[1]` let it pass.
        let z = [0.5, 0.5, 0.5];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..3 {
                let mut d = [0.0, 1.0, 2.0];
                d[at] = bad;
                assert_eq!(invalid(&d, &z, 1.0), "poles must be finite");
            }
        }
        assert_eq!(invalid(&[f64::NAN], &[0.5], 1.0), "poles must be finite");
    }

    #[test]
    fn rejects_zero_or_non_finite_z() {
        let d = [0.0, 1.0, 2.0];
        for bad in [0.0, -0.0, f64::NAN, f64::INFINITY] {
            let msg = invalid(&d, &[0.5, bad, 0.5], 1.0);
            assert_eq!(msg, "z entries must be finite and non-zero");
        }
    }

    #[test]
    fn stored_root_rebuilds_the_delta_column() {
        let d = [-1.0, 0.0, 0.5, 3.0];
        let z = [0.6, 0.2, 0.4, 0.3];
        let problem = SecularProblem::new(&d, &z, 2.0).unwrap();
        let mut delta = vec![0.0; 4];
        for j in 0..4 {
            let root = problem.solve_root(j, &mut delta).unwrap();
            assert!(root.origin == j || root.origin == j + 1);
            assert_eq!(root.lambda, d[root.origin] + root.mu);
            for i in 0..4 {
                assert_eq!(delta[i], (d[i] - d[root.origin]) - root.mu);
            }
        }
    }

    #[test]
    fn quadratic_helper() {
        // η² − 3η + 2 = 0 → roots 1, 2 → closest to zero is 1.
        assert_eq!(solve_quadratic_closest_to_zero(1.0, -3.0, 2.0), Some(1.0));
        // Linear.
        assert_eq!(solve_quadratic_closest_to_zero(0.0, 2.0, -4.0), Some(2.0));
        // No real root.
        assert_eq!(solve_quadratic_closest_to_zero(1.0, 0.0, 1.0), None);
    }
}
