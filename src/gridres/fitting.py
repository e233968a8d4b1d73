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
index.  A 1-d k-means cluster is a run of the sorted points (Wang & Song
2011), so each interval is sorted once and every start's rounds cut that
copy.  A start is fixed by its k-means labels, so a start whose labels
repeat an earlier start's is run once: it would repeat that run bit for
bit.

Every distinct start of every interval of one fit runs in lock-step.
Runs with the same component count share (runs, c, n_max) arrays, one row
per run and one row per component inside it, so each round is one EM map
(E-step and M-step) of every live run; every live run stays in the Newton
solve until the last one is solved.  Runs are batched, shortest
interval first, so that a batch's arrays hold at most 2**18 cells (2 MB
of float64): the working set does not grow with the number of starts or
intervals, and a run alone is never split.  A run's points fill the first
n of its row; the padding after them carries no responsibility, and every
sum over points is taken per interval on exact-length slices, so a run's
numbers are bit for bit those of the run alone.  A run leaves the live
set when it converges, reaches max_iter or meets a non-finite
log-likelihood; one whose component loses its mass re-enters with the
components left, from its start, with a fresh history, in the batches of
that smaller count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
# runs in one lock-step batch hold at most this many (run, component,
# point) cells, 2 MB per float64 array, unless one run alone holds more
_LOCKSTEP_CELLS = 1 << 18
# starts per interval allowed; each draws its own k-means labels
_MAX_STARTS = 10**4


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


def _kmeans_logd(logd: np.ndarray, order: np.ndarray, c: int,
                 rng: np.random.Generator | None) -> np.ndarray:
    """Labels of a small 1-d k-means on log-durations; `order` is a stable
    argsort of `logd`, shared by every start on the same points.

    Centres start at c quantiles or c points drawn by `rng`, sorted.  A round
    gives each point its nearest centre (the lower on a tie, as an argmin
    does), moves each centre to its points' mean, summed in ascending order,
    and reseeds an empty cluster at the point farthest from its centre (the
    first in input order); rounds stop at np.allclose, or after 25.  Centres
    rising by over 2 ulps of the largest point-to-centre distance make each
    cluster a run of the sorted points, cut below the rounded midpoint of
    a < b and past the points above it whose distances round to a tie.
    Other centres take the (n, c) argmin.
    """
    xs = logd[order]
    n = len(xs)
    cs = (np.quantile(logd, (np.arange(c) + 0.5) / c) if rng is None
          else np.sort(rng.choice(logd, size=c, replace=n < c))).tolist()
    lo, hi = float(xs[0]), float(xs[-1])
    stop = False
    for rnd in range(26):
        pairs = list(zip(cs, cs[1:]))
        gap = 2.0 * math.ulp(max(abs(hi - cs[0]), abs(cs[-1] - lo)))
        if all(b - a > gap for a, b in pairs):
            bounds = [0, *np.searchsorted(xs, [0.5 * a + 0.5 * b for a, b in pairs]).tolist(), n]
            for j, (a, b) in enumerate(pairs, 1):
                i = bounds[j]  # the first point at or above the rounded midpoint
                if i < n and abs(xs[i] - a) <= abs(xs[i] - b):  # a tie: past its run
                    i = int(np.searchsorted(xs, xs[i], "right"))
                    if i < n and abs(xs[i] - a) <= abs(xs[i] - b):
                        i = int(np.count_nonzero(np.abs(xs - a) <= np.abs(xs - b)))
                bounds[j] = i
            sizes = [q - p for p, q in zip(bounds, bounds[1:])]
            lab, grouped = None, xs
        else:
            lab = np.argmin(np.abs(xs[:, None] - np.array(cs)), axis=1)
            sizes = np.bincount(lab, minlength=c).tolist()
            grouped = xs[np.argsort(lab, kind="stable")]
        if stop or rnd == 25:
            break
        starts = list(itertools.accumulate(sizes, initial=0))
        full = [j for j in range(c) if sizes[j]]
        means = iter((np.add.reduceat(grouped, [starts[j] for j in full])
                      / [sizes[j] for j in full]).tolist())
        if len(full) < c:
            lab = np.repeat(np.arange(c), sizes) if lab is None else lab
            dist = np.abs(xs - np.array(cs)[lab])
            far = float(logd[order[dist == dist.max()].min()])
        new = [next(means) if size else far for size in sizes]
        # np.allclose(new, cs) on floats: a numpy call here costs as much as the round
        stop = all((abs(x - y) <= 1e-8 + 1e-5 * abs(y) and math.isfinite(y)) or x == y
                   for x, y in zip(new, cs))
        cs = new
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.repeat(np.arange(c), sizes) if lab is None else lab
    return labels


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


def _moments(logd: np.ndarray) -> np.ndarray:
    """(log d, log d squared), (2, n): the M-step's weighted sums use both."""
    return np.stack([logd, logd * logd])


class _Rows:
    """Where the points of each lock-step run sit, and the Newton solve's buffers.

    Row r of a (runs, ..., n_max) array holds its run's log-durations in
    its first n_r places and padding after them.  Every sum over points is
    taken on exact-length slices, one per stretch of adjacent rows of one
    interval, so it equals, bit for bit, the sum of the run alone.
    `points` holds each interval's (log d, moments); `intervals` gives each
    row's interval; `buf` is the solve's (runs, c, n_max) buffer, its
    slices cut once for `buf_sums`.
    """

    def __init__(self, points: list, intervals: list[int], c: int):
        self.spans = []
        a = 0
        for i, group in itertools.groupby(intervals):
            b = a + len(list(group))
            self.spans.append((a, b, *points[i]))
            a = b
        width = max(len(logd) for _, _, logd, _ in self.spans)
        self.logd = np.zeros((len(intervals), 1, width))
        self.n = np.empty(len(intervals))
        self.buf = np.empty((len(intervals), c, width))
        self.total, self.weighted = np.empty((len(intervals), c)), np.empty((len(intervals), 2, c))
        self.cuts = []
        for a, b, logd, moments in self.spans:
            self.logd[a:b, 0, :len(logd)] = logd
            self.n[a:b] = len(logd)
            s = self.buf[a:b, :, :len(logd)]
            self.cuts.append((s, moments, s.swapaxes(-1, -2), self.total[a:b], self.weighted[a:b]))
        pad = np.arange(width) >= self.n[:, None, None]
        self.pad = pad if pad.any() else None

    def _each(self, x: np.ndarray, fn) -> np.ndarray:
        """fn(slice, log d) per interval, stacked along the runs."""
        parts = [fn(x[a:b, ..., :len(logd)], logd) for a, b, logd, _ in self.spans]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Sum over the points, the last axis."""
        return self._each(x, lambda s, logd: s.sum(axis=-1))

    def dot(self, resp: np.ndarray) -> np.ndarray:
        """(runs, c, n_max) weights times log d, summed over the points."""
        return self._each(resp, lambda s, logd: s @ logd)

    def buf_sums(self):
        """`buf` summed over the points, (runs, c), and weighted by log d and
        log d squared, (runs, 2, c); each call overwrites the last one's."""
        for s, moments, s_t, total, weighted in self.cuts:
            np.add.reduce(s, axis=-1, out=total)
            np.matmul(moments, s_t, out=weighted)
        return self.total, self.weighted


def _log_pdf_matrix(logd: np.ndarray, g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log Weibull density of each point under each component, (..., c, n)."""
    lng = np.log(g)
    u = logd - lng[..., None]
    # (d/g)**k may overflow to inf; the log density's limit is then -inf
    with np.errstate(over="ignore"):
        z = np.exp(k[..., None] * u)
    u *= (k - 1.0)[..., None]
    u += (np.log(k) - lng)[..., None]
    u -= z
    return u


def _log_normalise(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp over the components of (..., c, n) and the columns divided by their sums."""
    top = joint.max(axis=-2)
    top[~np.isfinite(top)] = 0.0
    p = np.exp(joint - top[..., None, :])
    s = p.sum(axis=-2)
    # a column of zeros gives -inf (and NaN responsibilities), which callers
    # treat as a non-finite log-likelihood
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= s[..., None, :]
        return top + np.log(s), p


def _estep(rows: _Rows, w: np.ndarray, g: np.ndarray, k: np.ndarray):
    """Each run's log-likelihood, responsibilities (runs, c, n_max) and their masses."""
    joint = _log_pdf_matrix(rows.logd, g, k)
    joint += np.log(w)[..., None]
    norm, resp = _log_normalise(joint)
    if rows.pad is not None:
        # padding holds no point: zero, not a product with 0, so a NaN there stays out
        np.copyto(resp, 0.0, where=rows.pad)
    return rows.sum(norm), resp, rows.sum(resp)


def _newton_shapes(rows: _Rows, resp: np.ndarray, s0: np.ndarray, k: np.ndarray):
    """Weighted Weibull MLE for every component of every run, warm-started at `k`.

    Each shape solves f(k) = 1/k + target - m(k) = 0, where target is the
    responsibility-weighted mean of log d and m(k) the mean of log d under
    weights r_i * d_i**k.  f' = -1/k**2 - Var(log d) < 0, so the root is
    unique.  Newton steps run lock-step across components in log space: the
    weights come from e = log r + k log d less its row maximum, so no term
    underflows at any shape in the bracket.  A point with f > 0 raises the
    lower end of the bracket [0.05, 100] and any other point lowers the
    upper end; a Newton point outside the bracket (or NaN) is replaced by
    its midpoint, while one on an end stays (a converged step may round
    onto it), except that a point past an upper end of 100 where f was
    not yet evaluated is replaced by 100, so a root beyond the bracket (tied
    data) ends the solve at the bound one step later.  A component stops
    when its step is at most 1e-10 * max(1, k) or its bracket at most 1e-8,
    keeping the last shape its sums were formed at, and every run stays in
    the loop until the last one is solved; the scale is
    exp((logsumexp(e) - log sum(r)) / k) from those sums.  `resp` is
    (runs, c, n_max), zero on the padding; `s0` its sums over the points.
    Returns the scales and shapes, (runs, c).
    """
    target = rows.dot(resp) / s0
    # a zero responsibility contributes exp(-inf) = 0 to every sum
    with np.errstate(divide="ignore"):
        logr = np.log(resp)
    e = rows.buf

    def sums(k: np.ndarray):
        np.multiply(k[..., None], rows.logd, out=e)
        np.add(e, logr, out=e)
        top = e.max(axis=-1)
        np.subtract(e, top[..., None], out=e)
        np.exp(e, out=e)
        a, m = rows.buf_sums()
        m = m / a[..., None, :]
        m1 = m[..., 0, :]
        return top, a, m1, m[..., 1, :] - m1 * m1

    k = np.clip(k, _SHAPE_LO, _SHAPE_HI)
    lo = np.full(k.shape, _SHAPE_LO)
    hi = np.full(k.shape, _SHAPE_HI)
    active = np.ones(k.shape, dtype=bool)
    hi_tried = k == _SHAPE_HI
    for _ in range(_NEWTON_MAX_STEPS):
        top, a, mean, var = sums(k)
        f = 1.0 / k + target - mean
        up = f > 0.0
        lo = np.where(active & up, k, lo)
        hi = np.where(active & ~up, k, hi)
        new = k + f / (1.0 / (k * k) + var)
        inside = (new >= lo) & (new <= hi)
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
    g = np.exp((top + np.log(a) - np.log(s0)) / k)
    return g, k


def _bound_flags(k: np.ndarray) -> list[list[str]]:
    """The bound flags of each run's shapes, (runs, c)."""
    upper = (k > _SHAPE_HI - 10.0 * _SHAPE_XTOL).any(axis=-1).tolist()
    lower = (k < _SHAPE_LO + 10.0 * _SHAPE_XTOL).any(axis=-1).tolist()
    return [["shape at upper bound (degenerate data)"] * u + ["shape at lower bound"] * v
            for u, v in zip(upper, lower)]


@dataclass
class _Run:
    """One start on one interval's points, carried across dropped components.

    `w`, `g`, `k` are the start of the current EM pass until the pass ends,
    then its result; `flags` holds the drops, `pass_flags` and `history`
    the current pass's flags and log-likelihoods.
    """

    interval: int
    w: np.ndarray
    g: np.ndarray
    k: np.ndarray
    flags: list[str] = field(default_factory=list)
    pass_flags: list[str] = field(default_factory=list)
    history: list[float] = field(default_factory=list)
    converged: bool = False

    def end(self, w, g, k, converged: bool) -> None:
        self.w, self.g, self.k, self.converged = w, g, k, converged

    def drop(self, keep: np.ndarray) -> None:
        """Restart from the pass's start without the components not kept."""
        # each column of resp sums to 1, so the masses sum to n >= c and the
        # largest is >= 1: `keep` is never empty
        self.flags.append(f"dropped degenerate component (kept {int(keep.sum())})")
        w = self.w[keep]
        self.w, self.g, self.k = w / w.sum(), self.g[keep], self.k[keep]
        self.pass_flags, self.history = [], []

    def result(self, logd: np.ndarray) -> FitResult:
        joint = _log_pdf_matrix(logd, self.g, self.k) + np.log(self.w)[:, None]
        ll = float(_log_normalise(joint)[0].sum())
        order = np.lexsort((self.k, self.g))
        comps = tuple((float(self.w[j]), float(self.g[j]), float(self.k[j])) for j in order)
        return FitResult(
            mixture=WeibullMixture(components=comps),
            log_likelihood=ll,
            iterations=len(self.history),
            converged=self.converged,
            flags=tuple(self.flags + self.pass_flags),
            history=tuple(self.history),
        )


def _em_map(rows: _Rows, w: np.ndarray, g: np.ndarray, k: np.ndarray):
    """One EM round of every run: the log-likelihoods and component masses
    at (w, g, k), then the weights mass / n and the Newton scales and shapes.

    A run with a non-finite log-likelihood or a mass below 1e-8, which the
    driver drops, takes its M-step from even responsibilities, so it warns
    of nothing and moves no other run's numbers; its w', g', k' mean nothing.
    """
    ll, resp, mass = _estep(rows, w, g, k)
    drop = ~np.isfinite(ll) | (mass < _DEGENERATE_MASS).any(axis=-1)
    s0 = mass
    if drop.any():
        even = 1.0 / k.shape[-1]
        resp[drop] = even if rows.pad is None else np.where(rows.pad[drop], 0.0, even)
        s0 = rows.sum(resp)
    return (ll, mass, mass / rows.n[:, None], *_newton_shapes(rows, resp, s0, k))


def _em_lockstep(points: list, runs: list[_Run], tol: float, max_iter: int) -> list[tuple[_Run, np.ndarray]]:
    """One EM pass of every run, all with one component count, in lock-step.

    Each round maps every live run once (`_em_map`) and sorts it: a
    non-finite log-likelihood ends the run with the parameters that gave
    it; a component mass below 1e-8 discards its pass, and it is returned
    with the components it keeps; a gain of at most tol times the last
    log-likelihood ends it converged, round max_iter unconverged; the rest
    stay live, compacted in one place.
    """
    # rows of one interval side by side make one slice per interval
    live = sorted(runs, key=lambda r: r.interval)
    c = len(live[0].w)
    rows = _Rows(points, [r.interval for r in live], c)
    w, g, k = (np.array([getattr(r, name) for r in live]) for name in "wgk")
    # no gain passes against NaN, the last log-likelihood of a first round
    prev = np.full(len(live), np.nan)
    dropped = []
    for it in range(max_iter):
        ll, mass, w1, g1, k1 = _em_map(rows, w, g, k)
        bad = ~np.isfinite(ll)
        dead = (mass < _DEGENERATE_MASS).any(axis=-1)
        # a tol near the float limit may take tol * |prev| to inf, which compares as it should
        with np.errstate(over="ignore"):
            done = ll - prev <= tol * np.abs(prev)
        stay = []
        for j, (run, value, is_bad, is_dead, is_done, flags) in enumerate(zip(
                live, ll.tolist(), bad.tolist(), dead.tolist(), done.tolist(), _bound_flags(k1))):
            if is_bad:
                run.pass_flags.append("non-finite log-likelihood")
                run.end(w[j], g[j], k[j], converged=False)
            elif is_dead:
                dropped.append((run, mass[j] >= _DEGENERATE_MASS))
            else:
                run.history.append(value)
                run.pass_flags += [f for f in flags if f not in run.pass_flags]
                if is_done or it == max_iter - 1:
                    run.end(w1[j], g1[j], k1[j], converged=is_done)
                else:
                    stay.append(j)
        if not stay:
            break
        if len(stay) < len(live):
            live = [live[j] for j in stay]
            rows = _Rows(points, [r.interval for r in live], c)
            w1, g1, k1, ll = w1[stay], g1[stay], k1[stay], ll[stay]
        w, g, k, prev = w1, g1, k1, ll
    return dropped


def _batches(points: list, runs: list[_Run], c: int):
    """`runs`, shortest interval first, in lock-step batches of at most
    _LOCKSTEP_CELLS cells of c components; a run that alone holds more is
    a batch of its own."""
    batch = []
    for run in sorted(runs, key=lambda r: (len(points[r.interval][0]), r.interval)):
        if batch and (len(batch) + 1) * c * len(points[run.interval][0]) > _LOCKSTEP_CELLS:
            yield batch
            batch = []
        batch.append(run)
    if batch:
        yield batch


def _run_starts(points: list, starts: list[tuple[int, int, np.ndarray]], tol: float,
                max_iter: int) -> list[FitResult]:
    """EM from the moment start of each (interval, components, labels),
    dropping dead components; results in the order of `starts`.  Sizes run
    from the largest count down, each size's lock-step batches one
    `run_indexed` task apiece; a run that drops a component joins the count
    it keeps."""
    runs = [_Run(i, *_moment_start(points[i][0], labels, c)) for i, c, labels in starts]
    pending: dict[int, list[_Run]] = {}
    for run in runs:
        pending.setdefault(len(run.w), []).append(run)
    while pending:
        size = max(pending)
        batches = list(_batches(points, pending.pop(size), size))
        for dropped in run_indexed(len(batches), lambda j: _em_lockstep(points, batches[j], tol, max_iter)):
            for run, keep in dropped:
                run.drop(keep)
                pending.setdefault(int(keep.sum()), []).append(run)
    return [run.result(points[run.interval][0]) for run in runs]


def _start_labels(logd: np.ndarray, order: np.ndarray, c: int, seed: int, idx: int) -> np.ndarray:
    """k-means labels of start `idx` (_kmeans_logd): quantile centres at 0, then seeded draws."""
    rng = None if idx == 0 else np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
    )
    return _kmeans_logd(logd, order, c, rng)


def _fit_intervals(logds: list[np.ndarray], counts: list[int], seeds: list[int], tol: float,
                   max_iter: int, n_starts: int) -> list[FitResult]:
    """The best of each interval's distinct starts, every start run in lock-step."""
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if n_starts > _MAX_STARTS:
        raise ValueError(f"{n_starts} starts exceed the limit of {_MAX_STARTS:.0e}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    points = [(logd, _moments(logd)) for logd in logds]
    starts = []
    for i, (logd, c, seed) in enumerate(zip(logds, counts, seeds)):
        # a start is fixed by its k-means labels, so a start whose labels
        # repeat an earlier one's would repeat its whole run: only the first
        # is run, which keeps ties going to the lowest start index
        distinct: dict[bytes, np.ndarray] = {}
        order = np.argsort(logd, kind="stable")
        for idx in range(n_starts):
            labels = _start_labels(logd, order, c, seed, idx)
            distinct.setdefault(labels.tobytes(), labels)
        starts += [(i, c, labels) for labels in distinct.values()]
    best: list[FitResult | None] = [None] * len(logds)
    for (i, _, _), r in zip(starts, _run_starts(points, starts, tol, max_iter)):
        if best[i] is None or r.log_likelihood > best[i].log_likelihood:
            best[i] = r
    return best


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
    return _fit_intervals([np.log(d)], [n_components], [seed], tol, max_iter, n_starts)[0]


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
    requested component.  Each interval's fit is `fit_weibull_mixture` on
    its durations with the interval's child seed, bit for bit; the starts
    of all intervals run together.
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
    if any(c < 1 for c in counts):
        raise ValueError("n_components must be >= 1")
    logds = [np.log(_prepare(d[idx == i])) for i in range(len(counts))]
    seeds = [int(np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(1)[0])
             for i in range(len(counts))]
    fits = _fit_intervals(logds, counts, seeds, tol, max_iter, n_starts)
    model = DurationModel(
        boundaries=tuple(float(x) for x in b),
        mixtures=tuple(f.mixture for f in fits),
    )
    return model, tuple(fits)
