"""Exponential time rescaling and the mass-closing augmentation.

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

verify_augmented probes these facts on random (state, time) samples.  The
growth constant of the rescaled field over a horizon [0, T] is fitted
empirically from the samples and reported, never asserted: it inherits an
e^{(1+eps)|K1| T} factor whose sharp prefactor the construction does not
pin down.
"""

from __future__ import annotations

import numpy as np

from .models import CheckResult, ReactionSystem, _log_uniform, _point_str

__all__ = [
    "augment_system",
    "verify_augmented",
]

_CONSERVATION_TOL = 1e-10
_QP_TOL = 1e-12


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
        u = scale * w[:n]
        f = np.asarray(base_eval(u, t), dtype=np.float64)
        g_head = f / scale - k1 * w[:n]
        head_sum = np.sum(g_head, axis=0)
        g_tail = k0 / scale - head_sum
        return np.concatenate([g_head, g_tail[None]], axis=0)

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
        uniform_decay_rate=None,
    )


def verify_augmented(
    closed: ReactionSystem,
    rng: np.random.Generator,
    n_samples: int = 10_000,
    t_horizon: float = 1.0,
    g_tail_offset: float = 0.0,
) -> list[CheckResult]:
    """Sample-audit the closed system built by augment_system on random
    (state, time) pairs, with K0 its k0 and K1 its k0_decay.

    Checks, per sample (components log-uniform in [1e-6, 1e3], time uniform
    in [0, t_horizon]):

    * augmented_quasi_positivity: every g_i on its boundary face, including
      the extra species (whose face value is the base mass-control margin),
      against the floor -1e-12 (1 + max_i |g_i|) of its sample;
    * augmented_conservation_residual: the sum of all N+1 reactions equals
      K0 e^{-K1 t} to 1e-10 relative;
    * augmented_growth: the constant C in
      |g_i| <= C e^{(1+eps)|K1| T}(1+|w|^{2+eps}) is fitted as the worst
      sampled ratio and reported, with no bound; it passes when finite.

    A failing quasi-positivity or conservation check names its first
    violating sample in its detail.

    Args:
        g_tail_offset: test-surface injection added to the extra reaction
            before checking; a nonzero value demonstrates that a broken
            augmentation is caught.

    Returns:
        The three checks above, in that order.

    Raises:
        ValueError: on a nonpositive horizon or sample count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not np.isfinite(t_horizon) or t_horizon <= 0.0:
        raise ValueError(f"t_horizon must be finite and > 0, got {t_horizon}")
    n_aug = closed.n_species
    k0 = closed.k0
    k1 = closed.k0_decay

    # The evaluator built by augment_system broadcasts over a time array of
    # the same length as the sample axis, so the whole audit vectorizes.
    times = rng.uniform(0.0, t_horizon, size=n_samples)
    pts = _log_uniform(rng, (n_aug, n_samples))
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

    eps = closed.growth_eps
    horizon_factor = float(np.exp((1.0 + eps) * abs(k1) * t_horizon))
    norms = np.sqrt(np.sum(pts * pts, axis=0))
    envelope = closed.growth_k * horizon_factor * (1.0 + norms ** (2.0 + eps))
    growth_worst = float(np.max(np.max(np.abs(g), axis=0) / envelope))

    # Quasi-positivity on each boundary face, fresh samples per face.  The
    # tail face value is a cancellation of O(|w|^2) terms, so the floor is
    # scaled by the sampled reaction magnitude instead of being absolute.
    qp_worst = np.inf
    qp_witness = None
    per_face = max(1, n_samples // n_aug)
    for i in range(n_aug):
        face = _log_uniform(rng, (n_aug, per_face))
        face[i, :] = 0.0
        face_times = rng.uniform(0.0, t_horizon, size=per_face)
        gf = np.asarray(closed.evaluator(face, face_times), dtype=np.float64)
        if i == n_aug - 1:
            gf[-1] += g_tail_offset
        vals = gf[i, :]
        floor = -_QP_TOL * (1.0 + np.max(np.abs(gf), axis=0))
        lo = float(np.min(vals))
        if lo < qp_worst:
            qp_worst = lo
        bad = vals < floor
        if np.any(bad) and qp_witness is None:
            j = int(np.argmin(vals - floor))
            qp_witness = f"species {i + 1} reaches {float(vals[j])} at {_point_str(face[:, j])}"

    return [
        CheckResult(
            name="augmented_quasi_positivity",
            passed=qp_witness is None,
            measured=qp_worst,
            bound=0.0,
            detail=qp_witness
            or f"{n_samples + n_aug * per_face} samples; floor "
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
