"""Maximum-likelihood Weibull mixture fitting by EM.

The E-step computes responsibilities in log space.  The M-step is exact:
weights are mean responsibilities, and each component's shape solves the
weighted profile-likelihood equation by bisection on [0.05, 100] to 1e-8
(the scale then has a closed form).  Because the M-step maximizes the
complete-data objective the log-likelihood never decreases, which the
fitter records per iteration.

Initialization splits log-durations with a small k-means and seeds each
cluster by log-space method of moments; multiple starts (default 5) are
scored and the best log-likelihood wins, ties going to the lowest start
index.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .parallel import run_indexed
from .weibull import DurationModel, WeibullMixture, interval_of

__all__ = ["FitResult", "fit_weibull_mixture", "fit_duration_model", "ZERO_DURATION_SHIFT"]

# half the one-minute data resolution, in hours
ZERO_DURATION_SHIFT = 1.0 / 120.0

_SHAPE_LO = 0.05
_SHAPE_HI = 100.0
_SHAPE_XTOL = 1e-8
_EULER_GAMMA = 0.57721566490153286
_DEGENERATE_MASS = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Outcome of one mixture fit."""

    mixture: WeibullMixture
    log_likelihood: float
    iterations: int
    converged: bool
    flags: tuple[str, ...] = ()
    history: tuple[float, ...] = ()


def _prepare(durations) -> np.ndarray:
    d = np.asarray(durations, dtype=float)
    if d.ndim != 1:
        d = d.ravel()
    if len(d) == 0:
        raise ValueError("no durations to fit")
    if np.any(~np.isfinite(d)) or np.any(d < 0.0):
        raise ValueError("durations must be finite and >= 0")
    if np.any(d == 0.0):
        d = d.copy()
        d[d == 0.0] = ZERO_DURATION_SHIFT
    return d


def _kmeans_logd(logd: np.ndarray, c: int, rng: np.random.Generator | None) -> np.ndarray:
    """Cluster labels from a small 1-d k-means on log-durations."""
    n = len(logd)
    if rng is None:
        centers = np.quantile(logd, (np.arange(c) + 0.5) / c)
    else:
        centers = rng.choice(logd, size=c, replace=n < c)
        centers = np.sort(centers)
    for _ in range(25):
        labels = np.argmin(np.abs(logd[:, None] - centers[None, :]), axis=1)
        new = centers.copy()
        for j in range(c):
            pts = logd[labels == j]
            if len(pts):
                new[j] = pts.mean()
            else:
                # reseed an empty cluster at the point farthest from its center
                far = np.argmax(np.abs(logd - centers[labels]))
                new[j] = logd[far]
        if np.allclose(new, centers):
            centers = new
            break
        centers = new
    return np.argmin(np.abs(logd[:, None] - centers[None, :]), axis=1)


def _moment_start(logd: np.ndarray, labels: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = np.empty(c)
    g = np.empty(c)
    k = np.empty(c)
    n = len(logd)
    for j in range(c):
        pts = logd[labels == j]
        if len(pts) == 0:
            pts = logd
        w[j] = max(len(pts), 1) / n
        sd = pts.std()
        kj = math.pi / (math.sqrt(6.0) * sd) if sd > 1e-12 else 50.0
        k[j] = min(max(kj, _SHAPE_LO), _SHAPE_HI)
        g[j] = math.exp(pts.mean() + _EULER_GAMMA / k[j])
    w /= w.sum()
    return w, g, k


def _log_pdf_matrix(logd: np.ndarray, g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log Weibull density of each point under each component, (n, c)."""
    lng = np.log(g)
    z = np.exp(k[None, :] * (logd[:, None] - lng[None, :]))
    return (
        np.log(k)[None, :]
        - lng[None, :]
        + (k - 1.0)[None, :] * (logd[:, None] - lng[None, :])
        - z
    )


def _mstep_shapes(logd: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Weighted Weibull MLE for every component at once.

    Bisection runs lock-step across components.  Powers d**k are computed
    relative to the largest log-duration so the sums cannot overflow for
    shapes up to the bracket ceiling.
    """
    c = resp.shape[1]
    s0 = resp.sum(axis=0)
    s1 = resp.T @ logd
    target = s1 / s0
    shift = logd.max()
    ld = logd - shift

    def equation(k: np.ndarray) -> np.ndarray:
        dk = np.exp(ld[:, None] * k[None, :])
        a = (resp * dk).sum(axis=0)
        b = (resp * dk * logd[:, None]).sum(axis=0)
        return 1.0 / k + target - b / a

    lo = np.full(c, _SHAPE_LO)
    hi = np.full(c, _SHAPE_HI)
    iters = int(math.ceil(math.log2((_SHAPE_HI - _SHAPE_LO) / _SHAPE_XTOL)))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        pos = equation(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    k = 0.5 * (lo + hi)
    flags = []
    if np.any(k > _SHAPE_HI - 10.0 * _SHAPE_XTOL):
        flags.append("shape at upper bound (degenerate data)")
    if np.any(k < _SHAPE_LO + 10.0 * _SHAPE_XTOL):
        flags.append("shape at lower bound")
    dk = np.exp(ld[:, None] * k[None, :])
    a = (resp * dk).sum(axis=0)
    g = np.exp(shift + np.log(a / s0) / k)
    return g, k, flags


class _DroppedComponent(Exception):
    def __init__(self, keep: np.ndarray):
        self.keep = keep


def _em_once(
    logd: np.ndarray,
    w: np.ndarray,
    g: np.ndarray,
    k: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float], bool, list[str]]:
    n = len(logd)
    history: list[float] = []
    flags: list[str] = []
    prev = -np.inf
    converged = False
    for _ in range(max_iter):
        joint = _log_pdf_matrix(logd, g, k) + np.log(w)[None, :]
        norm = logsumexp(joint, axis=1)
        ll = float(norm.sum())
        if not np.isfinite(ll):
            flags.append("non-finite log-likelihood")
            break
        history.append(ll)
        resp = np.exp(joint - norm[:, None])
        mass = resp.sum(axis=0)
        if np.any(mass < _DEGENERATE_MASS):
            raise _DroppedComponent(keep=mass >= _DEGENERATE_MASS)
        w = mass / n
        g, k, step_flags = _mstep_shapes(logd, resp)
        for f in step_flags:
            if f not in flags:
                flags.append(f)
        if prev > -np.inf and ll - prev <= tol * abs(prev):
            converged = True
            break
        prev = ll
    return w, g, k, history, converged, flags


def _final_loglik(logd: np.ndarray, w, g, k) -> float:
    joint = _log_pdf_matrix(logd, np.asarray(g), np.asarray(k)) + np.log(np.asarray(w))[None, :]
    return float(logsumexp(joint, axis=1).sum())


def fit_weibull_mixture(
    durations,
    n_components: int,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 200,
    n_starts: int = 5,
) -> FitResult:
    """Fit a Weibull mixture to durations (hours) by multi-start EM.

    Zero durations are shifted by 1/120 h (half the minute resolution)
    before fitting; negative durations are rejected.  A component whose
    responsibility mass collapses below 1e-8 is dropped and the fit
    restarts with one fewer component, flagged in the result.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    d = _prepare(durations)
    if len(d) < n_components:
        raise ValueError(f"{len(d)} durations cannot support {n_components} components")
    logd = np.log(d)

    def one_start(idx: int) -> FitResult:
        rng = None if idx == 0 else np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
        )
        labels = _kmeans_logd(logd, n_components, rng)
        w, g, k = _moment_start(logd, labels, n_components)
        flags: list[str] = []
        history: list[float] = []
        converged = False
        for _ in range(n_components):
            try:
                w, g, k, hist, converged, run_flags = _em_once(logd, w, g, k, tol, max_iter)
                history.extend(hist)
                flags.extend(f for f in run_flags if f not in flags)
                break
            except _DroppedComponent as drop:
                keep = drop.keep
                flags.append(f"dropped degenerate component (kept {int(keep.sum())})")
                w, g, k = w[keep], g[keep], k[keep]
                w = w / w.sum()
                if len(w) == 0:
                    raise RuntimeError("all components degenerate") from None
        ll = _final_loglik(logd, w, g, k)
        order = np.lexsort((k, g))
        comps = tuple((float(w[j]), float(g[j]), float(k[j])) for j in order)
        return FitResult(
            mixture=WeibullMixture(components=comps),
            log_likelihood=ll,
            iterations=len(history),
            converged=converged,
            flags=tuple(flags),
            history=tuple(history),
        )

    results = run_indexed(max(1, n_starts), one_start)
    best = results[0]
    for r in results[1:]:
        if r.log_likelihood > best.log_likelihood:
            best = r
    return best


def fit_duration_model(
    times,
    durations,
    boundaries,
    components,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 200,
    n_starts: int = 5,
) -> tuple[DurationModel, tuple[FitResult, ...]]:
    """Fit one mixture per failure-time interval.

    `components` gives the component count per interval and must match the
    interval count.  Every interval must hold at least five samples per
    requested component.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(durations, dtype=float)
    if t.shape != d.shape:
        raise ValueError("times and durations must align")
    b = np.asarray(boundaries, dtype=float)
    if len(b) < 2 or np.any(np.diff(b) <= 0.0):
        raise ValueError("boundaries must be strictly increasing, length >= 2")
    counts = list(components)
    if len(counts) != len(b) - 1:
        raise ValueError(f"{len(b) - 1} intervals but {len(counts)} component counts")
    if not np.all((t >= b[0]) & (t < b[-1])):
        raise ValueError("boundaries must cover all failure times")
    idx = interval_of(b, t)
    for i, c in enumerate(counts):
        n_i = int((idx == i).sum())
        if n_i < 5 * c:
            raise ValueError(
                f"interval {i} [{b[i]}, {b[i + 1]}) has {n_i} samples, "
                f"needs at least {5 * c} for {c} components"
            )
    fits = []
    for i, c in enumerate(counts):
        child = int(np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1)[0])
        fits.append(fit_weibull_mixture(
            d[idx == i], c, seed=child, tol=tol, max_iter=max_iter, n_starts=n_starts,
        ))
    model = DurationModel(
        boundaries=tuple(float(x) for x in b),
        mixtures=tuple(f.mixture for f in fits),
    )
    return model, tuple(fits)
