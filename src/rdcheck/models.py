"""Reaction systems, their structural assumptions and the mass-closing augmentation.

A ReactionSystem packages the reaction vector field f together with the
declared structure the rest of the package relies on:

* quasi-positivity: f_i(u) >= 0 whenever u >= 0 and u_i = 0, which is what
  keeps the nonnegative orthant invariant;
* mass control: sum_i f_i(u) <= K0 + K1 * sum_i u_i on the orthant, with
  K0 >= 0 and K1 of either sign (K1 < 0 means uniform mass decay);
* polynomial growth: |f_i(u)| <= K (1 + |u|^{2+eps}) with K > 0, eps >= 0.

Declared constants are never trusted: check_structure probes all three
inequalities on randomized orthant samples and returns the report's three
structure checks, which is how hand-broken models are caught at verify
time.

Two families are built in, each by the builder named after its config
key.  The reversible exchange model (quadratic_reversible: four species,
rate u1 u2 - u3 u4 both ways) conserves three independent linear masses and
dissipates the entropy sum f_i log u_i.  The skew Lotka-Volterra family
(skew_lv: f_i = (-tau_i + (A u)_i) u_i with A + A^T = 0) has sum_i f_i =
-sum_i tau_i u_i, so under equal tau its mass decays geometrically, by
exactly 1 - tau dt per step of the scheme.  That is a property, not a code
path: the run's mass ledger checks every system's steps by one rule.
Custom polynomial right-hand sides (custom_polynomial) carry user-declared
constants.

The rescaling w_i = e^{-K1 t} u_i absorbs the linear part of the mass
control: if sum_i f_i <= K0 + K1 sum_i u_i, the rescaled reactions

    g_i(w, t) = e^{-K1 t} ( f_i(e^{K1 t} w) - K1 e^{K1 t} w_i )

satisfy sum_i g_i <= K0 e^{-K1 t}.  Appending one extra species with
diffusion exactly one, zero initial data and

    g_{N+1}(w, t) = K0 e^{-K1 t} - sum_{i<=N} g_i(w, t)

turns the inequality into the exact balance sum_{i<=N+1} g_i = K0 e^{-K1 t},
i.e. the augmented system is conservative up to a known decaying source.
The extra reaction is nonnegative on the orthant precisely where the base
system honors its mass-control inequality, so the augmentation preserves
quasi-positivity instead of assuming anything new.

augment_system builds that closed system and verify_augmented probes these
facts on random (state, time) samples, with the face probe and growth ratio
check_structure uses.  The growth constant of the rescaled field over a
horizon [0, T] is fitted empirically from the samples and reported, never
asserted: it inherits an e^{(1+eps)|K1| T} factor whose sharp prefactor the
construction does not pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ReactionSystem",
    "quadratic_reversible",
    "skew_lv",
    "custom_polynomial",
    "augment_system",
    "CheckResult",
    "check_structure",
    "verify_augmented",
]

# Orthant sampling range and sample count of the audits (log-uniform).
_SAMPLE_LOG_LO = -6.0
_SAMPLE_LOG_HI = 3.0
_N_SAMPLES = 10_000

_QP_TOL = 1e-12
_MASS_TOL = 1e-9
_GROWTH_TOL = 1e-12
_CONSERVATION_TOL = 1e-10


@dataclass(frozen=True)
class ReactionSystem:
    """A reaction vector field with declared structure constants.

    Attributes:
        name: human-readable family name.
        n_species: number of species N.
        diffusion: per-species diffusion coefficients, all > 0.
        k0, k1: mass-control constants (sum f <= k0 + k1 sum u).
        growth_k, growth_eps: growth-bound constants.
        evaluator: callable (u, t) -> f(u, t); u has shape (N,) or
            (N, M) with broadcasting over the trailing axis.  Built-in
            families ignore t; time-rescaled systems do not.
        time_dependent: whether the evaluator genuinely uses t.
        k0_decay: the mass source is k0 * exp(-k0_decay * t); zero for the
            constant-source case.
        conservation_laws: tuple of (label, weight-vector) linear invariants
            of the reaction (empty if none are declared).
        entropy_nonpositive: whether sum f_i log u_i <= 0 is guaranteed for
            this family (asserted at verify time only if True).
    """

    name: str
    n_species: int
    diffusion: np.ndarray
    k0: float
    k1: float
    growth_k: float
    growth_eps: float
    evaluator: Callable[[np.ndarray, float], np.ndarray]
    time_dependent: bool = False
    k0_decay: float = 0.0
    conservation_laws: tuple = ()
    entropy_nonpositive: bool = False

    def mass_source_rate(self, t):
        """Mass-control source K0(t) = k0 * exp(-k0_decay * t), at a time or
        at each time of an array."""
        if self.k0 == 0.0:
            return 0.0
        if self.k0_decay == 0.0:
            return self.k0
        return self.k0 * np.exp(-self.k0_decay * t)


def _check_diffusion(diffusion, n_species: int) -> np.ndarray:
    d = np.asarray(diffusion, dtype=np.float64)
    if d.shape != (n_species,):
        raise ValueError(
            f"diffusion must have one coefficient per species "
            f"({n_species}), got shape {d.shape}"
        )
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError(f"diffusion coefficients must be finite and > 0, got {d}")
    return d


def quadratic_reversible(diffusion) -> ReactionSystem:
    """Reversible exchange model u1 + u2 <-> u3 + u4, both rates one.

    K0 = K1 = 0, K = 1, eps = 0; the three conserved masses u1+u3, u2+u3
    and u2+u4; entropy dissipating.

    Raises:
        ValueError: unless diffusion holds four finite coefficients > 0.
    """

    def evaluate(u: np.ndarray, t: float) -> np.ndarray:
        # Single shared rate keeps f1 + f3 = 0 exact in floating point.  The
        # rows are written into one array; indexing with ... keeps a row an
        # array view when u is one point (species,).
        f = np.empty((4,) + np.shape(u)[1:])
        rate = f[2, ...]
        np.multiply(u[0], u[1], out=rate)
        rate -= u[2] * u[3]
        f[3] = rate
        np.negative(rate, out=f[0, ...])
        f[1] = f[0]
        return f

    return ReactionSystem(
        name="quadratic-reversible",
        n_species=4,
        diffusion=_check_diffusion(diffusion, 4),
        k0=0.0,
        k1=0.0,
        growth_k=1.0,
        growth_eps=0.0,
        evaluator=evaluate,
        conservation_laws=(
            ("u1+u3", np.array([1.0, 0.0, 1.0, 0.0])),
            ("u2+u3", np.array([0.0, 1.0, 1.0, 0.0])),
            ("u2+u4", np.array([0.0, 1.0, 0.0, 1.0])),
        ),
        entropy_nonpositive=True,
    )


def skew_lv(diffusion, interaction, decay) -> ReactionSystem:
    """Skew Lotka-Volterra family f_i = (-tau_i + (A u)_i) u_i.

    K0 = 0, K1 = -min tau, quadratic growth.  The interaction matrix A must
    be exactly skew (A + A^T identically zero, tolerance zero): the
    cancellation u . A u = 0 is what makes the mass decay identity exact,
    and a nearly-skew matrix would silently break it.

    Raises:
        ValueError: on a non-square, non-finite or non-skew interaction
            matrix, a decay vector of another length or not finite, or
            malformed diffusion.
    """
    a = np.asarray(interaction, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"interaction matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if not np.all(np.isfinite(a)):
        raise ValueError("interaction matrix must be finite")
    if np.any(a + a.T != 0.0):
        raise ValueError("interaction matrix must be exactly skew (A + A^T = 0)")
    tau = np.asarray(decay, dtype=np.float64)
    if tau.shape != (n,) or not np.all(np.isfinite(tau)):
        raise ValueError(f"decay vector must be finite with length {n}")
    d = _check_diffusion(diffusion, n)
    # |f_i| <= (max|tau| + max row norm)(1 + |u|^2)
    growth_k = float(np.max(np.abs(tau)) if n else 0.0) + float(
        np.max(np.sqrt(np.sum(a * a, axis=1)))
    )

    def evaluate(u: np.ndarray, t: float) -> np.ndarray:
        lin = a @ u
        if u.ndim == 2:
            return (lin - tau[:, None]) * u
        return (lin - tau) * u

    return ReactionSystem(
        name="skew-lotka-volterra",
        n_species=n,
        diffusion=d,
        k0=0.0,
        k1=float(-np.min(tau)),
        growth_k=max(growth_k, 1.0),
        growth_eps=0.0,
        evaluator=evaluate,
    )


def custom_polynomial(
    diffusion, terms, k0, k1, growth_k, growth_eps, name="custom-polynomial"
) -> ReactionSystem:
    """Custom polynomial right-hand side with user-declared constants.

    There is one species per diffusion coefficient.  terms[i] is the list of
    monomials of f_i, each a (coefficient, powers) pair with one nonnegative
    integer power per species.

    Raises:
        ValueError: on malformed diffusion, terms of inconsistent shape,
            k0 < 0, growth_k <= 0 or growth_eps < 0.
    """
    n = len(diffusion)
    if n < 1:
        raise ValueError("diffusion must list at least one species")
    if len(terms) != n:
        raise ValueError(
            f"terms must list monomials for each of {n} species, "
            f"got {len(terms)} lists"
        )
    cleaned = []
    for i, monomials in enumerate(terms):
        row = []
        for coef, powers in monomials:
            coef = float(coef)
            powers = tuple(int(p) for p in powers)
            if len(powers) != n or any(p < 0 for p in powers):
                raise ValueError(
                    f"species {i + 1}: each monomial needs {n} nonnegative "
                    f"integer powers, got {powers}"
                )
            row.append((coef, powers))
        cleaned.append(tuple(row))
    if k0 < 0.0:
        raise ValueError(f"k0 must be >= 0, got {k0}")
    if growth_k <= 0.0:
        raise ValueError(f"growth constant must be > 0, got {growth_k}")
    if growth_eps < 0.0:
        raise ValueError(f"growth exponent shift must be >= 0, got {growth_eps}")
    d = _check_diffusion(diffusion, n)

    def evaluate(u: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(u)
        for i, monomials in enumerate(cleaned):
            acc = np.zeros_like(u[0])
            for coef, powers in monomials:
                term = np.full_like(u[0], coef)
                for j, p in enumerate(powers):
                    if p == 1:
                        term = term * u[j]
                    elif p > 1:
                        term = term * u[j] ** p
                acc = acc + term
            out[i] = acc
        return out

    return ReactionSystem(
        name=name,
        n_species=n,
        diffusion=d,
        k0=float(k0),
        k1=float(k1),
        growth_k=float(growth_k),
        growth_eps=float(growth_eps),
        evaluator=evaluate,
    )


def augment_system(base: ReactionSystem) -> ReactionSystem:
    """Build the N+1 species conservative companion of a base system.

    The closed system's evaluator is genuinely time-dependent whenever
    K1 != 0.  Its mass source is K0 e^{-K1 t} (decaying for K1 > 0, growing
    for K1 < 0, constant K0 for K1 = 0), so it carries the base K0 as k0
    and the base K1 as k0_decay; the extra species carries diffusion
    exactly 1 and must start from zero initial data.

    Raises:
        ValueError: if the base system is itself time-dependent (stacking
            two rescalings is not supported).
    """
    if base.time_dependent:
        raise ValueError("cannot augment a time-dependent system")
    k0 = base.k0
    k1 = base.k1
    n = base.n_species
    base_eval = base.evaluator

    def evaluate(w: np.ndarray, t: float) -> np.ndarray:
        scale = np.exp(k1 * t)
        f = np.asarray(base_eval(scale * w[:n], t), dtype=np.float64)
        # g in one new array: the head f / scale - K1 w, then the tail.
        g = np.empty(w.shape)
        head = np.divide(f, scale, out=g[:n])
        head -= k1 * w[:n]
        g[n] = k0 / scale - np.add.reduce(head, axis=0)
        return g

    return ReactionSystem(
        name=f"{base.name}+mass-closure",
        n_species=n + 1,
        diffusion=np.concatenate([base.diffusion, [1.0]]),
        k0=k0,
        k1=0.0,
        growth_k=base.growth_k,
        growth_eps=base.growth_eps,
        evaluator=evaluate,
        time_dependent=True,
        k0_decay=k1,
        conservation_laws=(),
        entropy_nonpositive=False,
    )


@dataclass(frozen=True)
class CheckResult:
    """One entry of the report: a named measurement against its bound,
    with a pass or fail verdict and a free-text detail."""

    name: str
    passed: bool
    measured: float | None = None
    bound: float | None = None
    tolerance: float | None = None
    detail: str = ""


def _point_str(point) -> str:
    return "[" + ", ".join(repr(float(v)) for v in np.asarray(point)) + "]"


# The golden-ratio increment; multiples are reduced mod 2^64 as Python ints.
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the SplitMix64 finaliser to the uint64 array z in place,
    wrapping mod 2^64; scratch is a work array of z's shape."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= np.uint64(factor)
    z ^= np.right_shift(z, 31, out=scratch)


class _Stream:
    """The uniform draws of one audit: draw k is the SplitMix64 finaliser
    of the mixed seed plus (2k + key + 1) golden-ratio increments, so the
    streams of key 0 and key 1 interleave and never share a counter.

    Counter-based, so a draw of a + b values equals a draw of a followed
    by one of b.  The uint64 arithmetic stays on arrays, where it wraps
    without the overflow warning of numpy's uint64 scalars, and works in
    place: a fresh array of 10^5 values costs more than the arithmetic.
    """

    def __init__(self, seed: int, key: int):
        # A float would take its integer part's samples, and numpy rejects
        # the integers outside uint64 with an OverflowError.
        if (
            isinstance(seed, bool)
            or not isinstance(seed, (int, np.integer))
            or not 0 <= seed <= 2**64 - 1
        ):
            raise ValueError(f"seed must be an integer in [0, 2^64 - 1], got {seed!r}")
        base = np.array([seed], dtype=np.uint64)
        _splitmix64(base, np.empty_like(base))
        # The counter of draw 0, mix(seed) + (key + 1) increments.
        self._first = base + np.uint64((key + 1) * _GOLDEN % 2**64)
        self._drawn = 0

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """size values uniform in [low, high): 53 bits each, transformed
        as numpy's Generator.uniform does."""
        count = int(np.prod(size))
        z = np.arange(self._drawn, self._drawn + count, dtype=np.uint64)
        self._drawn += count
        z *= np.uint64(2 * _GOLDEN % 2**64)
        z += self._first
        u = np.empty(count)
        _splitmix64(z, u.view(np.uint64))
        z >>= np.uint64(11)
        np.multiply(z, 2.0**-53, out=u)
        u *= high - low
        u += low
        return u.reshape(size)


def _log_uniform(stream: _Stream, size) -> np.ndarray:
    exponents = stream.uniform(_SAMPLE_LOG_LO, _SAMPLE_LOG_HI, size=size)
    return np.power(10.0, exponents, out=exponents)


def _face_probe(evaluator, n: int, stream: _Stream, t_horizon=None,
                tail_offset: float = 0.0, relative: bool = False):
    """Sample quasi-positivity on the n boundary faces u_i = 0.

    Each face draws fresh points, log-uniform off the face, then times
    uniform in [0, t_horizon] when a horizon is given (else t = 0).  On the
    last face tail_offset is added to the last reaction.  When relative,
    f_i is divided by (1 + max_k |f_k|) of its sample.  A sample fails when
    that value is below -_QP_TOL or is not a number.

    Returns:
        (the worst value sampled, which the verdict compares; the first
        failing face's worst sample as a witness, or None; the number of
        samples drawn).
    """
    per_face = max(1, _N_SAMPLES // n)
    worst = np.inf
    witness = None
    for i in range(n):
        pts = _log_uniform(stream, (n, per_face))
        pts[i, :] = 0.0
        t = 0.0 if t_horizon is None else stream.uniform(0.0, t_horizon, size=per_face)
        f = np.asarray(evaluator(pts, t), dtype=np.float64)
        if tail_offset and i == n - 1:
            f[-1] += tail_offset
        vals = f[i] / (1.0 + np.max(np.abs(f), axis=0)) if relative else f[i]
        lo = float(np.min(vals))
        # A face minimum that is not a number stays the worst, as in
        # the trackers' running minima.
        if lo < worst or lo != lo:
            worst = lo
        if witness is None and not np.all(vals >= -_QP_TOL):
            j = int(np.argmin(vals + _QP_TOL))
            witness = f"species {i + 1} reaches {float(f[i, j])} at {_point_str(pts[:, j])}"
    return worst, witness, n * per_face


def _growth_ratio(sys: ReactionSystem, pts: np.ndarray, f: np.ndarray, factor: float = 1.0):
    """Per sample, max_i |f_i| over the envelope K factor (1 + |u|^{2+eps}).

    Returns:
        (ratio, envelope), one entry per sample.
    """
    norms = np.sqrt(np.sum(pts * pts, axis=0))
    envelope = sys.growth_k * factor * (1.0 + norms ** (2.0 + sys.growth_eps))
    return np.max(np.abs(f), axis=0) / envelope, envelope


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def check_structure(sys: ReactionSystem, seed: int) -> list[CheckResult]:
    """Probe quasi-positivity, mass control and growth on random samples.

    Quasi-positivity is sampled on each boundary face u_i = 0 with the other
    components log-uniform in [1e-6, 1e3]; the other two checks use 10000
    full orthant samples from the same range.  Time-dependent systems are
    probed at t = 0.  A reaction that overflows or divides by zero raises
    no warning, and a sample whose value is not a number fails the probe it
    feeds.

    Args:
        seed: the run's seed in [0, 2^64 - 1]; the samples are the draws of
            its SplitMix64 stream, key 0.

    Returns:
        The report's structure_quasi_positivity, structure_mass_control and
        structure_growth checks, each measuring the worst margin or ratio
        sampled.  A failing check names a violating sample in its detail:
        the worst on the first violated face for quasi-positivity, the
        worst overall for mass control and growth.  Sampling never proves
        the inequalities; it can only falsify them.

    Raises:
        ValueError: on a seed that is not an integer in [0, 2^64 - 1].
    """
    n = sys.n_species
    stream = _Stream(seed, 0)
    qp_worst, qp_witness, qp_count = _face_probe(sys.evaluator, n, stream)

    # Mass control and growth on shared orthant samples.
    pts = _log_uniform(stream, (n, _N_SAMPLES))
    fvals = np.asarray(sys.evaluator(pts, 0.0), dtype=np.float64)
    total_u = np.sum(pts, axis=0)
    total_f = np.sum(fvals, axis=0)
    allowance = sys.k0 + sys.k1 * total_u + _MASS_TOL * (1.0 + total_u)
    margin = total_f - allowance
    mc_worst = float(np.max(margin))
    mc_witness = ""
    if not mc_worst <= 0.0:
        j = int(np.argmax(margin))
        mc_witness = (
            f"sum {float(total_f[j])} exceeds allowance {float(allowance[j])} "
            f"at {_point_str(pts[:, j])}"
        )

    ratio, envelope = _growth_ratio(sys, pts, fvals)
    gr_worst = float(np.max(ratio))
    gr_passed = gr_worst <= 1.0 + _GROWTH_TOL
    gr_detail = "worst sampled ratio against the declared envelope"
    if not gr_passed:
        j = int(np.argmax(ratio))
        i = int(np.argmax(np.abs(fvals[:, j])))
        gr_detail = (
            f"species {i + 1}: |f_{i + 1}| = {abs(float(fvals[i, j]))} exceeds "
            f"envelope {float(envelope[j])} at {_point_str(pts[:, j])}"
        )

    return [
        CheckResult(
            name="structure_quasi_positivity",
            passed=qp_witness is None,
            measured=qp_worst,
            bound=0.0,
            detail=qp_witness or f"{qp_count + _N_SAMPLES} samples",
        ),
        CheckResult(
            name="structure_mass_control",
            passed=mc_worst <= 0.0,
            measured=mc_worst,
            bound=0.0,
            detail=mc_witness,
        ),
        CheckResult(
            name="structure_growth",
            passed=gr_passed,
            measured=gr_worst,
            bound=1.0,
            detail=gr_detail,
        ),
    ]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_augmented(
    closed: ReactionSystem,
    seed: int,
    t_horizon: float = 1.0,
    g_tail_offset: float = 0.0,
) -> list[CheckResult]:
    """Sample-audit the closed system built by augment_system on random
    (state, time) pairs, with K0 its k0 and K1 its k0_decay.

    Checks, on 10000 orthant samples plus fresh samples per boundary face
    (components log-uniform in [1e-6, 1e3], time uniform in
    [0, t_horizon]):

    * augmented_quasi_positivity: every g_i on its boundary face, including
      the extra species (whose face value is the base mass-control margin),
      divided by (1 + max_k |g_k|) of its sample; it measures the worst of
      these and passes when it is at least -tolerance, -1e-12;
    * augmented_conservation_residual: the sum of all N+1 reactions equals
      K0 e^{-K1 t} to 1e-10 relative;
    * augmented_growth: the constant C in
      |g_i| <= C e^{(1+eps)|K1| T}(1+|w|^{2+eps}) is fitted as the worst
      sampled ratio and reported, with no bound; it passes when finite.

    As in check_structure, a reaction that overflows or divides by zero
    raises no warning and a sample whose value is not a number fails.  A
    failing quasi-positivity or conservation check names its first
    violating sample in its detail.

    Args:
        seed: the run's seed in [0, 2^64 - 1]; the samples are the draws of
            its SplitMix64 stream, key 1, so they share none with
            check_structure's.
        g_tail_offset: test-surface injection added to the extra reaction
            before checking; a nonzero value demonstrates that a broken
            augmentation is caught.

    Returns:
        The three checks above, in that order.

    Raises:
        ValueError: on a nonpositive or non-finite horizon, or a seed that
            is not an integer in [0, 2^64 - 1].
    """
    if not np.isfinite(t_horizon) or t_horizon <= 0.0:
        raise ValueError(f"t_horizon must be finite and > 0, got {t_horizon}")
    n_aug = closed.n_species
    k0 = closed.k0
    k1 = closed.k0_decay

    # The evaluator built by augment_system broadcasts over a time array of
    # the same length as the sample axis, so the whole audit vectorizes.
    stream = _Stream(seed, 1)
    times = stream.uniform(0.0, t_horizon, size=_N_SAMPLES)
    pts = _log_uniform(stream, (n_aug, _N_SAMPLES))
    g = np.asarray(closed.evaluator(pts, times), dtype=np.float64)
    g[-1] += g_tail_offset

    target = k0 * np.exp(-k1 * times)
    sums = np.sum(g, axis=0)
    scale = np.maximum(1.0, np.maximum(np.abs(target), np.max(np.abs(g), axis=0)))
    rel = np.abs(sums - target) / scale
    cons_worst = float(np.max(rel))
    cons_witness = ""
    if not cons_worst <= _CONSERVATION_TOL:
        j = int(np.argmax(rel))
        cons_witness = (
            f"sum {float(sums[j])} vs target {float(target[j])} "
            f"at t = {float(times[j])}, w = {_point_str(pts[:, j])}"
        )

    horizon_factor = float(np.exp((1.0 + closed.growth_eps) * abs(k1) * t_horizon))
    growth_worst = float(np.max(_growth_ratio(closed, pts, g, horizon_factor)[0]))

    # The tail face value is a cancellation of O(|w|^2) terms, so the floor
    # is scaled by the sampled reaction magnitude instead of being absolute.
    qp_worst, qp_witness, qp_count = _face_probe(
        closed.evaluator, n_aug, stream, t_horizon, g_tail_offset, relative=True
    )

    return [
        CheckResult(
            name="augmented_quasi_positivity",
            passed=qp_witness is None,
            measured=qp_worst,
            bound=0.0,
            tolerance=_QP_TOL,
            detail=qp_witness
            or f"{_N_SAMPLES + qp_count} samples; floor "
            f"-{_QP_TOL}*(1 + max_i |g_i|) per sample",
        ),
        CheckResult(
            name="augmented_conservation_residual",
            passed=cons_worst <= _CONSERVATION_TOL,
            measured=cons_worst,
            bound=0.0,
            detail=cons_witness,
        ),
        CheckResult(
            name="augmented_growth",
            passed=bool(np.isfinite(growth_worst)),
            measured=growth_worst,
            detail="fitted constant C in |g_i| <= C e^{(1+eps)|K1| T}"
            "(1 + |w|^{2+eps}); passes when finite",
        ),
    ]
