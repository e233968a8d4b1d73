"""Maximum-likelihood Weibull mixture fitting by EM.

The E-step computes responsibilities in log space.  The M-step is exact:
weights are mean responsibilities, and each component's shape solves the
weighted profile-likelihood equation (Cohen 1965) by a Newton solve,
warm-started from the previous shape and safeguarded by bisection on the
bracket [0.05, 100].  Its weighted sums are formed in log space, so no
power d**k underflows; the scale then has a closed form.  Because the
M-step maximizes the complete-data objective the log-likelihood never
decreases, which the fitter records per iteration.

Initialization splits log-durations with a small k-means and seeds each
cluster by log-space method of moments; multiple starts (default 5) are
scored and the best log-likelihood wins, ties going to the lowest start
index.  A start is fixed by its k-means labels, so a start whose labels
repeat an earlier start's is run once: it would repeat that run bit for
bit.

The E-step's densities and responsibilities and the M-step's weighted
sums hold one row per component, (c, n), so every reduction over the
points runs along contiguous memory.
"""

import math
from dataclasses import dataclass

import numpy as np

from .parallel import run_indexed
from .weibull import DurationModel, WeibullMixture, interval_of

__all__ = ["FitResult", "fit_weibull_mixture", "fit_duration_model", "ZERO_DURATION_SHIFT"]

# half the one-minute data resolution, in hours
ZERO_DURATION_SHIFT = 1.0 / 120.0

_SHAPE_LO = 0.05
_SHAPE_HI = 100.0
_SHAPE_XTOL = 1e-8
# a Newton step this small (relative to max(1, k)) ends the shape solve
_NEWTON_RTOL = 1e-10
# twice the 34 steps bisection alone needs to shrink the bracket to
# _SHAPE_XTOL: Newton steps from a far start (at most doubling k when the
# points are tied) may come before the bisection fallback takes over
_NEWTON_MAX_STEPS = 2 * math.ceil(math.log2((_SHAPE_HI - _SHAPE_LO) / _SHAPE_XTOL))
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
    """log Weibull density of each point under each component, (c, n)."""
    lng = np.log(g)
    u = logd - lng[:, None]
    # (d/g)**k may overflow to inf; the log density's limit is then -inf
    with np.errstate(over="ignore"):
        z = np.exp(k[:, None] * u)
    u *= (k - 1.0)[:, None]
    u += (np.log(k) - lng)[:, None]
    u -= z
    return u


def _log_normalise(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column log-sum-exp of a (c, n) array and the columns divided by their sums."""
    top = joint.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    p = np.exp(joint - top)
    s = p.sum(axis=0)
    # a column of zeros gives -inf (and NaN responsibilities), which callers
    # treat as a non-finite log-likelihood
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= s
        return top + np.log(s), p


def _moments(logd: np.ndarray) -> np.ndarray:
    """(log d, log d squared), (2, n): the M-step's weighted sums use both."""
    return np.stack([logd, logd * logd])


def _mstep_shapes(
    logd: np.ndarray, resp: np.ndarray, k: np.ndarray, moments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Weighted Weibull MLE for every component at once, warm-started at `k`.

    Each shape solves f(k) = 1/k + target - m(k) = 0, where target is the
    responsibility-weighted mean of log d and m(k) the mean of log d under
    weights r_i * d_i**k.  f' = -1/k**2 - Var(log d) < 0, so the root is
    unique.  Newton steps run lock-step across components in log space:
    the weights come from e = log r + k log d less its row maximum, so
    no term underflows at any shape in the bracket.  A point with f > 0
    raises the lower end of the bracket [0.05, 100] and any other point
    lowers the upper end; a Newton point outside the bracket (or NaN) is
    replaced by its midpoint, except that a point past an upper end of 100
    where f was not yet taken is replaced by 100, so a root beyond the
    bracket (tied data) ends the solve at the bound one step later.  A
    component stops when its step is at most 1e-10 * max(1, k) or its
    bracket at most 1e-8, keeping the last shape its sums were taken at;
    the scale is exp((logsumexp(e) - log sum(r)) / k) from those sums.

    `resp` has one row per component, (c, n); `moments` is `_moments(logd)`,
    built here when not given.
    """
    c = resp.shape[0]
    s0 = resp.sum(axis=1)
    target = (resp @ logd) / s0
    # a zero responsibility contributes exp(-inf) = 0 to every sum
    with np.errstate(divide="ignore"):
        logr = np.log(resp)
    if moments is None:
        moments = _moments(logd)

    def sums(k: np.ndarray):
        e = k[:, None] * logd
        e += logr
        top = e.max(axis=1)
        e -= top[:, None]
        p = np.exp(e, out=e)
        a = p.sum(axis=1)
        m1, m2 = (moments @ p.T) / a
        return top, a, m1, m2 - m1 * m1

    k = np.clip(k, _SHAPE_LO, _SHAPE_HI)
    lo = np.full(c, _SHAPE_LO)
    hi = np.full(c, _SHAPE_HI)
    active = np.ones(c, dtype=bool)
    hi_tried = k == _SHAPE_HI
    for _ in range(_NEWTON_MAX_STEPS):
        top, a, mean, var = sums(k)
        f = 1.0 / k + target - mean
        up = f > 0.0
        lo = np.where(active & up, k, lo)
        hi = np.where(active & ~up, k, hi)
        new = k + f / (1.0 / (k * k) + var)
        inside = (new > lo) & (new < hi)
        if not inside.all():
            probe = (new >= hi) & (hi == _SHAPE_HI) & ~hi_tried
            hi_tried |= probe
            new = np.where(probe, _SHAPE_HI, np.where(inside, new, 0.5 * (lo + hi)))
        active &= (np.abs(new - k) > _NEWTON_RTOL * np.maximum(1.0, k)) & (hi - lo > _SHAPE_XTOL)
        if not active.any():
            break
        k = np.where(active, new, k)
    else:
        top, a, _, _ = sums(k)
    flags = []
    if np.any(k > _SHAPE_HI - 10.0 * _SHAPE_XTOL):
        flags.append("shape at upper bound (degenerate data)")
    if np.any(k < _SHAPE_LO + 10.0 * _SHAPE_XTOL):
        flags.append("shape at lower bound")
    g = np.exp((top + np.log(a) - np.log(s0)) / k)
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
    moments = _moments(logd)
    history: list[float] = []
    flags: list[str] = []
    prev = -np.inf
    converged = False
    for _ in range(max_iter):
        norm, resp = _log_normalise(_log_pdf_matrix(logd, g, k) + np.log(w)[:, None])
        ll = float(norm.sum())
        if not np.isfinite(ll):
            flags.append("non-finite log-likelihood")
            break
        history.append(ll)
        mass = resp.sum(axis=1)
        if np.any(mass < _DEGENERATE_MASS):
            raise _DroppedComponent(keep=mass >= _DEGENERATE_MASS)
        w = mass / n
        g, k, step_flags = _mstep_shapes(logd, resp, k, moments)
        for f in step_flags:
            if f not in flags:
                flags.append(f)
        if prev > -np.inf and ll - prev <= tol * abs(prev):
            converged = True
            break
        prev = ll
    return w, g, k, history, converged, flags


def _final_loglik(logd: np.ndarray, w, g, k) -> float:
    joint = _log_pdf_matrix(logd, np.asarray(g), np.asarray(k)) + np.log(np.asarray(w))[:, None]
    return float(_log_normalise(joint)[0].sum())


def _start_labels(logd: np.ndarray, c: int, seed: int, idx: int) -> np.ndarray:
    """k-means labels of start `idx`: quantile centres at 0, then seeded draws."""
    rng = None if idx == 0 else np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
    )
    return _kmeans_logd(logd, c, rng)


def _run_start(logd: np.ndarray, labels: np.ndarray, c: int, tol: float, max_iter: int) -> FitResult:
    """EM from the moment start of `labels`, dropping dead components."""
    w, g, k = _moment_start(logd, labels, c)
    flags: list[str] = []
    history: list[float] = []
    converged = False
    for _ in range(c):
        try:
            w, g, k, hist, converged, run_flags = _em_once(logd, w, g, k, tol, max_iter)
            history.extend(hist)
            flags.extend(f for f in run_flags if f not in flags)
            break
        except _DroppedComponent as drop:
            # each column of resp sums to 1, so the masses sum to n >= c and
            # the largest is >= 1: `keep` is never empty
            keep = drop.keep
            flags.append(f"dropped degenerate component (kept {int(keep.sum())})")
            w, g, k = w[keep], g[keep], k[keep]
            w = w / w.sum()
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

    # a start is fixed by its k-means labels, so a start whose labels repeat
    # an earlier one's would repeat its whole run: only the first is run,
    # which keeps ties going to the lowest start index
    starts: dict[bytes, np.ndarray] = {}
    for idx in range(max(1, n_starts)):
        labels = _start_labels(logd, n_components, seed, idx)
        starts.setdefault(labels.tobytes(), labels)
    distinct = list(starts.values())

    def one_start(i: int) -> FitResult:
        return _run_start(logd, distinct[i], n_components, tol, max_iter)

    results = run_indexed(len(distinct), one_start)
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
