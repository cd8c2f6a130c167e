"""Distribution-comparison metrics for desk-scale acceptance runs.

Moment errors against the analytic mixture moments, the two-sample energy
distance, and a Gaussian-fit KL.  Energy distance uses the empirical-
measure (V-statistic) form: it is nonnegative, symmetric, and exactly zero
iff the two sample sets coincide as multisets.

In one dimension the energy distance equals twice the integrated squared
difference of the two empirical CDFs (Szekely & Rizzo, "Energy statistics:
A class of statistics based on distances", 2013), which one sort of the
pooled samples evaluates exactly in O((n+m) log(n+m)).  D > 1 sums all
pairwise distances with ``cdist`` and ``pdist``, whose module
(``scipy.spatial``) is imported on first use: only D > 1 reaches it, and
importing it takes longer than a whole 1-D run's metrics.  ``_BLOCK``
fixes the order of that sum and bounds its memory: the rows pair up in
_BLOCK x _BLOCK blocks whose totals add in loop order, so no call returns
more than _BLOCK**2 distances (2 MB).  A self-term, E||A-A'||, sums each
distance once, over the blocks on and above the diagonal, and doubles the
total.  The bits are pinned by
``tests/test_metrics.py::TestPairwiseDistanceSum``.

The moments, the Gaussian-fit KL and the energy distance sum over the
samples in canonical (lexicographic) row order, so each is exactly
permutation-invariant.  :func:`quality_reports` is the one quality pass of
``sample`` (one cell) and ``sweep`` (every cell): it takes the (cells, n, D)
stack, a target checked once by the caller and one reference draw, puts
each set in canonical order once, sorts the reference once and, at D > 1,
sums the reference's self-term once, computes every cell's moments in one
stacked pass, and gives each cell the bits the public per-set functions
give it.

No sum over the rows goes through BLAS: the moments are numpy's own
reductions along the row axis (no ``np.cov``), and the 1-D energy distance
adds each cell's terms without a ``ddot``.  OpenBLAS splits a long
reduction across its threads, so through BLAS the bits would depend on
``OPENBLAS_NUM_THREADS``; this way no value does.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import NumericalError
from .gmm import GmmSpec

_BLOCK = 512
# pooled values the 1-D energy distance sorts in one call: 32 KB
_STACK = 2 ** 12


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
    n, means, covs = _moments(x[None])
    return _moment_report(n, means[0], covs[0], ref_mean, ref_cov,
                          np.linalg.norm(ref_cov))


def _moments(xs: np.ndarray) -> tuple:
    """(n, means (cells, D), unbiased covariances (cells, D, D)) of the
    (cells, n, D) stack xs of canonical sets: the one place the quality
    metrics compute the sample moments.

    Every sum over the rows is numpy's own reduction along one row of a
    contiguous array, so a cell's bits do not depend on the other cells of
    the stack or on the BLAS thread count: the means are ``x.mean(axis=0)``
    of each set, and covariance entry (i, j) is the pairwise sum of the
    products of centred coordinates i and j, times 1 / (n - 1).  Row i of
    the covariances comes from one (cells, D - i, n) product, so no
    (n, D, D) temporary is formed.
    """
    cells, n, d = xs.shape
    means = xs.mean(axis=1)
    # (cells, D, n): each coordinate's centred values in one contiguous row
    centred = np.ascontiguousarray((xs - means[:, None]).transpose(0, 2, 1))
    covs = np.empty((cells, d, d))
    for i in range(d):
        covs[:, i, i:] = np.add.reduce(centred[:, i:i + 1] * centred[:, i:],
                                       axis=2)
        covs[:, i + 1:, i] = covs[:, i, i + 1:]
    covs *= 1.0 / (n - 1)
    return n, means, covs


def _moment_report(n, emp_mean, emp_cov, ref_mean, ref_cov,
                   ref_cov_norm) -> SampleQualityReport:
    """:func:`moment_report` from one cell's :func:`_moments` of n >= 2
    samples, against a target mean and covariance of their dimension that
    :func:`check_target` accepts, and the covariance's Frobenius norm."""
    mean_err = float(np.linalg.norm(emp_mean - ref_mean))
    cov_err = float(np.linalg.norm(emp_cov - ref_cov) / ref_cov_norm)
    return SampleQualityReport(mean_error_l2=mean_err,
                               cov_frobenius_error=cov_err, n=n)


def _pairwise_distance_sum(a: np.ndarray, b=None) -> float:
    """Sum of the Euclidean distances from every row of a to every row of
    b, or with b omitted, between every ordered pair of rows of a.

    The rows pair up in _BLOCK x _BLOCK blocks, and the block totals, each
    numpy's pairwise sum of one ``cdist`` result, add in loop order.  With
    b omitted only the blocks on and above the diagonal are computed: a
    diagonal block's distinct pairs with ``pdist``, and each block right
    of it with ``cdist``.  That total counts each unordered pair once, so
    doubling it, exactly, gives the ordered sum.  ``TestPairwiseDistanceSum``
    rebuilds these bits and checks them against ``math.fsum``.
    """
    # deferred: see module docstring
    from scipy.spatial.distance import cdist, pdist

    total = 0.0
    for i in range(0, a.shape[0], _BLOCK):
        block = a[i:i + _BLOCK]
        if b is None:
            total += float(pdist(block).sum())
        cols = a[i + _BLOCK:] if b is None else b
        for j in range(0, cols.shape[0], _BLOCK):
            total += float(cdist(block, cols[j:j + _BLOCK]).sum())
    return 2.0 * total if b is None else total


def _energy_distances_1d(a: np.ndarray, b: np.ndarray) -> list[float]:
    """2 * integral of (F_a - F_b)^2 over the pooled sample range, for each
    row of the (cells, n) stack a against the (m,) sample b.

    Each point of ``a`` weighs +m and each point of ``b`` weighs -n, so the
    running sum of the sorted weights is n*m*(F_a - F_b) on each gap between
    consecutive pooled values, in exact integer arithmetic.  Blocks of
    cells of at most _STACK pooled values sort at once, and each cell's
    total is numpy's pairwise sum along its row of the block, without BLAS.
    The sorts are stable, so sorting b first moves no bit.
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
        totals = np.add.reduce(c * c * gaps, axis=1)
        out += [2.0 * total / (n * m) ** 2 for total in totals.tolist()]
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
    within_b = _pairwise_distance_sum(b) / (m * m)
    out = []
    for a in xs:
        # the cross sum and the doubled self-terms round apart, so the same
        # multiset scores its exact 0.0 here
        if np.array_equal(a, b):
            out.append(0.0)
            continue
        cross = _pairwise_distance_sum(a, b) / (n * m)
        within_a = _pairwise_distance_sum(a) / (n * n)
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
    with :func:`_pairwise_distance_sum`, over _BLOCK x _BLOCK blocks in
    loop order, holding at most _BLOCK**2 distances (2 MB) at a time; a
    self-term sums one triangle of blocks, each distinct pair once, and
    doubles it.  ``TestPairwiseDistanceSum`` pins the bits.
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
    reference once, with its D > 1 self-term; the moments of the whole
    stack come from one :func:`_moments` pass."""
    xs = np.asarray(xs, dtype=float)
    rows = (np.sort(xs, axis=1, kind="stable") if xs.shape[2] == 1
            else np.stack([_canonical(x) for x in xs]))
    # first: it raises ValueError on a non-finite sample, which the moments
    # would only warn about
    distances = _energy_distances(rows, _as_rows(reference))
    n, means, covs = _moments(rows)
    target_norm = np.linalg.norm(target_cov)
    reports = []
    for mean, cov, distance in zip(means, covs, distances):
        report = _moment_report(n, mean, cov, target_mean, target_cov,
                                target_norm)
        report.energy_distance = distance
        if kl_target is not None:
            report.gaussian_kl = _gaussian_kl(mean, cov, *kl_target)
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
    _, means, covs = _moments(x[None])
    return _gaussian_kl(means[0], covs[0], target_mean, target_cov)


def _gaussian_kl(fit_mean, fit_cov, target_mean: np.ndarray,
                 target_cov: np.ndarray) -> float:
    """:func:`gaussian_kl_fit` from one cell's :func:`_moments` of n > D
    samples, against a (D,) mean and (D, D) covariance that
    ``check_target(..., kl=True)`` accepts."""
    d = fit_mean.size
    logdet_t = np.linalg.slogdet(target_cov)[1]
    sign_f, logdet_f = np.linalg.slogdet(fit_cov)
    if sign_f <= 0:
        raise NumericalError("fitted covariance is singular")

    target_inv = np.linalg.inv(target_cov)
    diff = fit_mean - target_mean
    kl = 0.5 * (np.trace(target_inv @ fit_cov) + diff @ target_inv @ diff
                - d + logdet_t - logdet_f)
    return max(float(kl), 0.0)
