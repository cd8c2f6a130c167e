"""Distribution-comparison metrics for desk-scale acceptance runs.

Moment errors against the analytic mixture moments, the two-sample energy
distance, and a Gaussian-fit KL.  Energy distance uses the empirical-
measure (V-statistic) form: it is nonnegative, symmetric, and exactly zero
iff the two sample sets coincide as multisets.

In one dimension the energy distance equals twice the integrated squared
difference of the two empirical CDFs (Szekely & Rizzo, "Energy statistics:
A class of statistics based on distances", 2013), which one sort of the
pooled samples evaluates exactly in O((n+m) log(n+m)).  D > 1 sums all
pairwise distances with ``cdist``, whose module (``scipy.spatial``) is
imported on first use: only D > 1 reaches it, and importing it takes
longer than a whole 1-D run's metrics.  Two constants shape that sum.
``_BLOCK`` fixes its order: the rows pair up in _BLOCK x _BLOCK blocks,
whose totals add left to right, each total the bits of
``cdist(block_a, block_b).sum()``.  ``_LEAF`` bounds its memory: a block's
total is formed down numpy's own pairwise-summation tree, and no
``cdist`` call returns more than _LEAF distances plus two rows.  The bits
are pinned by ``tests/test_metrics.py::TestPairwiseDistanceSum``.

The moments, the Gaussian-fit KL and the energy distance sum over the
samples in canonical (lexicographic) row order, so each is exactly
permutation-invariant.  :func:`quality_reports` is the one quality pass of
``sample`` (one cell) and ``sweep`` (every cell): it takes the (cells, n, D)
stack, a target checked once by the caller and one reference draw, puts
each set in canonical order once, sorts the reference once and, at D > 1,
sums the reference's self-term once, and gives each cell the bits the
public per-set functions give it.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import NumericalError
from .gmm import GmmSpec

_BLOCK = 2048
_LEAF = 2 ** 18
# pooled values the 1-D energy distance sorts in one call: 32 KB
_STACK = 2 ** 12
# numpy adds a run of at most this many float64 values without splitting it
_PAIRWISE_RUN = 128


@dataclass
class SampleQualityReport:
    """Moment and distance diagnostics for one sample set vs. a target."""

    mean_error_l2: float
    cov_frobenius_error: float
    n: int
    energy_distance: float | None = None
    gaussian_kl: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _as_rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("samples must be a (n, D) array")
    return x


def _canonical(x) -> np.ndarray:
    """Samples as (n, D) rows in canonical (lexicographic) order, so that
    summations over them are exactly permutation-invariant."""
    x = _as_rows(x)
    return x[np.lexsort(x.T[::-1])]


def check_target(mean, cov, *, kl: bool = False) -> None:
    """Raise NumericalError unless a sample set can be scored against a
    target of this mean and covariance.

    The moment report needs a finite mean and a finite, nonzero covariance
    (its covariance error is relative to the covariance's Frobenius norm);
    the Gaussian-fit KL (``kl=True``) also needs the covariance positive
    definite.  Everything here is known from the target alone, so a run can
    call this before it draws any samples.
    """
    for name, value in (("mean", mean), ("covariance", cov)):
        if not np.all(np.isfinite(value)):
            raise NumericalError(f"target {name} is not finite")
    if np.linalg.norm(cov) == 0.0:
        raise NumericalError("target covariance is zero: no relative "
                             "covariance error")
    if kl and np.linalg.slogdet(cov)[0] <= 0:
        raise NumericalError("target covariance must be positive definite")


def moment_report(samples, target: GmmSpec) -> SampleQualityReport:
    """Empirical mean/covariance vs. the analytic mixture moments.

    The covariance error is relative to the target's Frobenius norm; a
    target that :func:`check_target` rejects raises NumericalError.
    """
    x = _canonical(samples)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if x.shape[1] != target.dim:
        raise ValueError(
            f"dimension mismatch: samples D={x.shape[1]}, target D={target.dim}"
        )
    ref_mean, ref_cov = target.mean(), target.cov()
    check_target(ref_mean, ref_cov)
    return _moment_report(x, ref_mean, ref_cov)


def _moment_report(x: np.ndarray, ref_mean, ref_cov) -> SampleQualityReport:
    """:func:`moment_report` of canonical samples x (n >= 2) against a
    target mean and covariance of their dimension that
    :func:`check_target` accepts."""
    n, d = x.shape
    mean_err = float(np.linalg.norm(x.mean(axis=0) - ref_mean))
    emp_cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    cov_err = float(np.linalg.norm(emp_cov - ref_cov)
                    / np.linalg.norm(ref_cov))
    return SampleQualityReport(mean_error_l2=mean_err,
                               cov_frobenius_error=cov_err, n=n)


def _pairwise_distance_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of all pairwise Euclidean distances between the rows of a and b.

    The rows pair up in _BLOCK x _BLOCK blocks, and the block totals add in
    loop order.  Each total is ``float(cdist(block_a, block_b).sum())`` bit
    for bit, with no distance matrix of the block formed: numpy sums a
    contiguous float64 array by pairwise summation (Higham 1993), cutting
    a run of more than _PAIRWISE_RUN values at half its length rounded down
    to a multiple of 8.  The walk below cuts the block's raveled distances
    the same way until a run holds at most _LEAF values, computes ``cdist``
    for just the rows that run touches (``cdist`` computes each pair on its
    own, so a row's distances are the same bits in any call), sums the
    run's slice with numpy, and adds the run totals back up the tree.
    ``TestPairwiseDistanceSum`` compares it with the matrix form.
    """
    from scipy.spatial.distance import cdist  # deferred: see module docstring

    def run_sum(rows: np.ndarray, cols: np.ndarray, lo: int, hi: int) -> float:
        # entries [lo, hi) of cdist(rows, cols).ravel(), summed as numpy would
        count = hi - lo
        if count > max(_LEAF, _PAIRWISE_RUN):
            half = count // 2
            half -= half % 8
            return (run_sum(rows, cols, lo, lo + half)
                    + run_sum(rows, cols, lo + half, hi))
        width = cols.shape[0]
        first, stop = lo // width, -(-hi // width)
        dist = cdist(rows[first:stop], cols).ravel()
        return float(dist[lo - first * width:hi - first * width].sum())

    total = 0.0
    for i in range(0, a.shape[0], _BLOCK):
        block = a[i:i + _BLOCK]
        for j in range(0, b.shape[0], _BLOCK):
            cols = b[j:j + _BLOCK]
            total += run_sum(block, cols, 0, block.shape[0] * cols.shape[0])
    return total


def _energy_distances_1d(a: np.ndarray, b: np.ndarray) -> list[float]:
    """2 * integral of (F_a - F_b)^2 over the pooled sample range, for each
    row of the (cells, n) stack a against the (m,) sample b.

    Each point of ``a`` weighs +m and each point of ``b`` weighs -n, so the
    running sum of the sorted weights is n*m*(F_a - F_b) on each gap between
    consecutive pooled values, in exact integer arithmetic.  Blocks of
    cells of at most _STACK pooled values sort at once; each cell's total is
    its own dot.  The sorts are stable, so sorting b first moves no bit.
    """
    cells, n = a.shape
    m = b.size
    b = np.sort(b, kind="stable")
    weights = np.concatenate([np.full(n, m, dtype=np.int64),
                              np.full(m, -n, dtype=np.int64)])
    step = max(1, _STACK // (n + m))
    out = []
    for lo in range(0, cells, step):
        block = a[lo:lo + step]
        pooled = np.concatenate(
            [block, np.broadcast_to(b, (block.shape[0], m))], axis=1)
        order = np.argsort(pooled, axis=1, kind="stable")
        gaps = np.diff(np.take_along_axis(pooled, order, axis=1), axis=1)
        # c**2 overflows int64 once n*m exceeds ~3e9: square in float
        c = np.cumsum(weights[order], axis=1)[:, :-1].astype(float)
        out += [2.0 * float((row * row) @ gap) / (n * m) ** 2
                for row, gap in zip(c, gaps)]
    return out


def _energy_distances(xs, b: np.ndarray) -> list[float]:
    """:func:`energy_distance` from each canonical (n, D) set of the stack
    xs to the rows b, with b sorted, and at D > 1 its self-term summed,
    once."""
    if xs.shape[1] == 0 or b.shape[0] == 0:
        raise ValueError("both sample sets must be nonempty")
    if xs.shape[2] != b.shape[1]:
        raise ValueError("dimension mismatch between sample sets")
    if not (np.isfinite(xs).all() and np.isfinite(b).all()):
        raise ValueError("sample sets must be finite")
    if b.shape[1] == 1:
        return _energy_distances_1d(xs[..., 0], b[:, 0])
    b = _canonical(b)
    n, m = xs.shape[1], b.shape[0]
    within_b = _pairwise_distance_sum(b, b) / (m * m)
    out = []
    for a in xs:
        cross = _pairwise_distance_sum(a, b) / (n * m)
        within_a = _pairwise_distance_sum(a, a) / (n * n)
        out.append(max(2.0 * cross - within_a - within_b, 0.0))
    return out


def energy_distance(a, b) -> float:
    """Two-sample energy distance 2 E||A-B|| - E||A-A'|| - E||B-B'||.

    Expectations are over the empirical measures, so identical multisets
    give exactly zero and the result is always nonnegative.  Non-finite
    input raises ``ValueError``.

    D = 1 uses the CDF identity ED = 2 * integral (F_a - F_b)^2 dx: a sum of
    nonnegative terms, bitwise symmetric in (a, b), within 2.2e-16 relative
    of an exact rational reference.  D > 1 sums the three pairwise terms
    with ``cdist`` in the order ``_BLOCK`` fixes, holding at most about
    _LEAF distances (2 MB) at a time; the bits are those of summing each
    block's full distance matrix, pinned by ``TestPairwiseDistanceSum``.
    The terms cancel, so its error scales with E||A-B|| rather than with
    the result (2.1e-14 relative seen on 1-D sets).

    Both sets are put in canonical order first.  At D = 1 that moves no
    bit: the pooled sort is stable, and rows that tie sit on a gap of zero,
    which adds exactly nothing whatever their order.
    """
    return _energy_distances(_canonical(a)[None], _as_rows(b))[0]


def quality_reports(xs, target_mean, target_cov, reference,
                    kl_target=None) -> list[SampleQualityReport]:
    """Bit for bit :func:`moment_report` and :func:`energy_distance` of
    each set of the (cells, n, D) stack ``xs`` against one target, which
    :func:`check_target` has passed, and one ``reference`` draw; with
    :func:`gaussian_kl_fit` against ``kl_target`` = (mean, cov) if given.
    Each set is sorted once (at D = 1 the stack in one call), and the
    reference once, with its D > 1 self-term."""
    xs = np.asarray(xs, dtype=float)
    rows = (np.sort(xs, axis=1, kind="stable") if xs.shape[2] == 1
            else np.stack([_canonical(x) for x in xs]))
    reports = []
    for x, distance in zip(rows, _energy_distances(rows, _as_rows(reference))):
        report = _moment_report(x, target_mean, target_cov)
        report.energy_distance = distance
        if kl_target is not None:
            report.gaussian_kl = _gaussian_kl(x, *kl_target)
        reports.append(report)
    return reports


def gaussian_kl_fit(samples, target_mean, target_cov) -> float:
    """Fit a Gaussian to the samples and return KL(fitted || target).

    The fit needs n > D samples (ValueError otherwise); a target that
    :func:`check_target` rejects for the KL, or a singular fitted
    covariance, raises NumericalError.
    """
    x = _canonical(samples)
    target_mean = np.atleast_1d(np.asarray(target_mean, dtype=float))
    target_cov = np.asarray(target_cov, dtype=float)
    if target_cov.ndim == 0:
        target_cov = target_cov[None, None]
    if x.shape[0] <= x.shape[1]:
        raise ValueError("need more samples than dimensions to fit")
    check_target(target_mean, target_cov, kl=True)
    return _gaussian_kl(x, target_mean, target_cov)


def _gaussian_kl(x: np.ndarray, target_mean: np.ndarray,
                 target_cov: np.ndarray) -> float:
    """:func:`gaussian_kl_fit` of canonical samples x (n > D) against a
    (D,) mean and (D, D) covariance that ``check_target(..., kl=True)``
    accepts."""
    n, d = x.shape
    logdet_t = np.linalg.slogdet(target_cov)[1]

    fit_mean = x.mean(axis=0)
    fit_cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    sign_f, logdet_f = np.linalg.slogdet(fit_cov)
    if sign_f <= 0:
        raise NumericalError("fitted covariance is singular")

    target_inv = np.linalg.inv(target_cov)
    diff = fit_mean - target_mean
    kl = 0.5 * (np.trace(target_inv @ fit_cov) + diff @ target_inv @ diff
                - d + logdet_t - logdet_f)
    return max(float(kl), 0.0)
