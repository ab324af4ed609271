"""Two-qubit state reconstruction from projection coincidence counts.

The pipeline is the classic one for polarization tomography: a linear
(Stokes-style) inversion of the normalized counts seeds a maximum-
likelihood fit over a Cholesky-style parameterization that is physical
by construction, so the returned matrix is always Hermitian, positive
semidefinite and unit trace.

The default objective is the Gaussian approximation to Poisson counting
statistics,

    L(t) = sum_v (N_v p_v(t) - n_v)^2 / (2 N_v p_v(t)),

with n_v the measured counts, N_v the per-projection normalization and
p_v the Born probabilities of the candidate state. The exact Poisson
log-likelihood is available behind ``likelihood="poisson"``; both agree
on high-count data. Per-projection normalizations are estimated from
sums over complete orthogonal basis quadruples, e.g.
counts(HH)+counts(HV)+counts(VH)+counts(VV), scaled by each record's
acquisition weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import ComputationError, ValidationError
from .polarization import ORTHOGONAL, projector_for
from .quantum import project_physical, validate_density_matrix

#: Born probabilities below this floor are clamped inside the likelihood
#: (projections such as HV on an ideal Bell state are exactly dark).
PROBABILITY_FLOOR = 1e-12

_RIDGE = 1e-12

# lower-triangle off-diagonal order: (row, col) pairs below the diagonal
_OFFDIAG = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


@dataclass(frozen=True)
class ProjectionRecord:
    """Coincidence counts for one polarization projection pair.

    ``basis_pair`` is a two-letter string (XX arm then X arm);
    ``acquisition_weight`` captures relative integration time or
    efficiency of this setting (1 = all settings equal).
    """

    basis_pair: str
    counts: float
    acquisition_weight: float = 1.0

    def __post_init__(self):
        if len(self.basis_pair) != 2:
            raise ValidationError(f"basis pair must be two letters, got {self.basis_pair!r}")
        for ch in self.basis_pair:
            if ch not in ORTHOGONAL:
                raise ValidationError(f"unknown polarization label {ch!r}")
        if not np.isfinite(self.counts) or self.counts < 0:
            raise ValidationError(f"counts must be >= 0, got {self.counts!r}")
        if not self.acquisition_weight > 0:
            raise ValidationError("acquisition_weight must be positive")


@dataclass(frozen=True)
class TomographyInput:
    """A complete set of 16 or 36 distinct projection records."""

    records: tuple
    time_bin: Optional[tuple] = None  # (start_ps, width_ps)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        n = len(self.records)
        if n not in (16, 36):
            raise ValidationError(f"need 16 or 36 projection records, got {n}")
        pairs = [r.basis_pair for r in self.records]
        if len(set(pairs)) != n:
            dupes = sorted({p for p in pairs if pairs.count(p) > 1})
            raise ValidationError(f"duplicate basis pairs: {dupes}")

    @property
    def total_counts(self):
        return float(sum(r.counts for r in self.records))


@dataclass
class ReconstructionResult:
    """Physical density matrix plus optimizer diagnostics."""

    rho: np.ndarray
    neg_log_likelihood: float
    iterations: int
    converged: bool
    objective_history: tuple = field(default=(), repr=False)


@dataclass
class BootstrapResult:
    """Mean/std of a metric over Poissonian count resamples."""

    mean: float
    std: float
    n_excluded: int
    values: tuple = field(default=(), repr=False)


def _projection_states(records, circular_convention="minus_i"):
    """Stacked two-photon projection states, one row per record."""
    rows = []
    for rec in records:
        a = projector_for(rec.basis_pair[0], circular_convention)
        b = projector_for(rec.basis_pair[1], circular_convention)
        rows.append(np.kron(a, b))
    return np.array(rows)


def expected_probability(rho, pair):
    """Born probability of a joint projection (jones_xx, jones_x) on rho."""
    rho = validate_density_matrix(rho)
    psi = np.kron(np.asarray(pair[0], dtype=complex), np.asarray(pair[1], dtype=complex))
    p = float(np.real(np.vdot(psi, rho @ psi)))
    return min(1.0, max(0.0, p))


def _born_probabilities(rho, psi_rows):
    p = np.einsum("mi,ij,mj->m", psi_rows.conj(), rho, psi_rows).real
    return np.clip(p, 0.0, 1.0)


def estimate_normalization(input: TomographyInput):
    """Per-projection normalizations N_v from complete-basis count sums.

    Every quadruple {(a,b), (a,b'), (a',b), (a',b')} with primes the
    orthogonal partners sums to the full pair flux; the estimate
    averages all quadruples present in the record set. Returns
    (flux, N_v array aligned with input.records).
    """
    by_pair = {r.basis_pair: r for r in input.records}
    arm_bases = (("H", "V"), ("D", "A"), ("R", "L"))
    estimates = []
    for a, a_ in arm_bases:
        for b, b_ in arm_bases:
            quad = (a + b, a + b_, a_ + b, a_ + b_)
            if all(q in by_pair for q in quad):
                estimates.append(
                    sum(by_pair[q].counts / by_pair[q].acquisition_weight for q in quad)
                )
    if not estimates:
        raise ValidationError("no complete orthogonal basis quadruple in the record set")
    flux = float(np.mean(estimates))
    if flux <= 0:
        raise ValidationError("estimated pair flux is zero; cannot normalize counts")
    weights = np.array([r.acquisition_weight for r in input.records])
    return flux, flux * weights


def linear_inversion(input: TomographyInput, circular_convention="minus_i"):
    """Direct linear solve of counts -> density-matrix entries.

    Returns a Hermitian (symmetrized) 4x4 matrix that may have negative
    eigenvalues when the counts are noisy; it is the standard seed for
    the maximum-likelihood step. Raises on a degenerate projection set.
    """
    if input.total_counts <= 0:
        raise ValidationError("total counts must be positive")
    _, norms = estimate_normalization(input)
    counts = np.array([r.counts for r in input.records], dtype=float)
    probs = counts / norms

    psi_rows = _projection_states(input.records, circular_convention)
    design = np.einsum("mi,mj->mij", psi_rows.conj(), psi_rows).reshape(len(psi_rows), 16)
    if np.linalg.matrix_rank(design) < 16:
        raise ValidationError("degenerate projection set: linear system is singular")
    x, *_ = np.linalg.lstsq(design, probs.astype(complex), rcond=None)
    rho = x.reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


def _t_to_matrix(t):
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    for k, (i, j) in enumerate(_OFFDIAG):
        T[i, j] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return T


def _t_from_rho(rho):
    """Parameter vector whose T^+T/tr reproduces rho (must be PD)."""
    flip = np.fliplr(np.eye(4))
    chol = np.linalg.cholesky(flip @ rho @ flip)
    T = flip @ chol.conj().T @ flip
    t = np.empty(16)
    t[:4] = T.diagonal().real
    for k, (i, j) in enumerate(_OFFDIAG):
        t[4 + 2 * k] = T[i, j].real
        t[5 + 2 * k] = T[i, j].imag
    return t


def rho_from_t(t):
    """Physical density matrix T^+T / tr(T^+T) of a 16-parameter vector."""
    T = _t_to_matrix(np.asarray(t, dtype=float))
    tdt = T.conj().T @ T
    norm = np.real(np.trace(tdt))
    if norm <= 0:
        raise ValidationError("t parameterization has zero norm")
    return tdt / norm


def neg_log_likelihood(rho, input: TomographyInput, likelihood="gaussian",
                       circular_convention="minus_i"):
    """Objective value of a candidate density matrix against the counts."""
    psi_rows = _projection_states(input.records, circular_convention)
    counts = np.array([r.counts for r in input.records], dtype=float)
    _, norms = estimate_normalization(input)
    p = _born_probabilities(np.asarray(rho, dtype=complex), psi_rows)
    return _nll_from_probs(p, counts, norms, likelihood)


def _nll_from_probs(p, counts, norms, likelihood):
    q = np.maximum(p, PROBABILITY_FLOOR)
    if likelihood == "gaussian":
        return float(np.sum((norms * p - counts) ** 2 / (2.0 * norms * q)))
    if likelihood == "poisson":
        return float(np.sum(norms * p - counts * np.log(norms * q)))
    raise ValidationError(f"unknown likelihood {likelihood!r}")


def _nll_grad_p(p, counts, norms, likelihood):
    """dL/dp per projection, consistent with the floored objective."""
    q = np.maximum(p, PROBABILITY_FLOOR)
    clamped = p < PROBABILITY_FLOOR
    if likelihood == "gaussian":
        g = norms / 2.0 - counts**2 / (2.0 * norms * q**2)
        g_clamped = (norms * p - counts) / PROBABILITY_FLOOR
    else:
        g = norms - counts / q
        g_clamped = np.broadcast_to(norms, p.shape)
    return np.where(clamped, g_clamped, g)


def _objective_and_grad(t, psi_rows, counts, norms, likelihood):
    T = _t_to_matrix(t)
    tp = psi_rows @ T.T  # row v = (T psi_v)^T
    quad = np.einsum("mi,mi->m", tp.conj(), tp).real
    s = np.real(np.trace(T.conj().T @ T))
    if s <= 0:
        return 1e300, np.zeros(16)
    p = quad / s

    val = _nll_from_probs(p, counts, norms, likelihood)
    g_p = _nll_grad_p(p, counts, norms, likelihood)

    # W = sum_v g_v |psi_v><psi_v|;  grad_k = 2 Re tr(K E_k) with
    # K = (W/s - c I) T^+, c = sum_v g_v p_v / s, E_k the basis matrix of t_k.
    w = np.einsum("m,mi,mj->ij", g_p, psi_rows, psi_rows.conj())
    c = float(np.dot(g_p, p)) / s
    K = (w / s - c * np.eye(4)) @ T.conj().T

    grad = np.empty(16)
    grad[:4] = 2.0 * np.real(np.diagonal(K))
    for k, (i, j) in enumerate(_OFFDIAG):
        grad[4 + 2 * k] = 2.0 * np.real(K[j, i])
        grad[5 + 2 * k] = -2.0 * np.imag(K[j, i])
    return val, grad


def mle_reconstruct(input: TomographyInput, max_iter=5000, tol=1e-10, seed=None,
                    likelihood="gaussian", circular_convention="minus_i"):
    """Maximum-likelihood density matrix for one projection data set.

    Seeds a quasi-Newton (L-BFGS-B) minimization with the physical
    projection of the linear inversion, via a Cholesky factorization of
    the (slightly regularized) seed. The optimizer works on 16 real
    parameters with an analytic gradient; the accepted objective values
    are recorded and non-increasing. Returns the best matrix seen, so
    the result is never worse than the seed. ``converged`` is False only
    when the iteration budget is exhausted or the line search stalls
    abnormally; ``seed`` jitters the fallback start used when the
    Cholesky seeding itself fails.
    """
    if input.total_counts <= 0:
        raise ValidationError("total counts must be positive")
    psi_rows = _projection_states(input.records, circular_convention)
    counts = np.array([r.counts for r in input.records], dtype=float)
    _, norms = estimate_normalization(input)

    rho_seed = project_physical(linear_inversion(input, circular_convention))
    seed_nll = _nll_from_probs(
        _born_probabilities(rho_seed, psi_rows), counts, norms, likelihood
    )
    try:
        t0 = _t_from_rho((1.0 - _RIDGE) * rho_seed + _RIDGE * np.eye(4) / 4.0)
    except np.linalg.LinAlgError:
        t0 = np.ones(16)
        if seed is not None:
            t0 += 1e-3 * np.random.default_rng(seed).standard_normal(16)

    history = []

    def _record(intermediate_result):
        history.append(intermediate_result.fun)

    options = {"maxiter": max_iter, "gtol": tol, "ftol": 1e-12, "maxfun": 10 * max_iter}
    res = minimize(
        _objective_and_grad,
        t0,
        args=(psi_rows, counts, norms, likelihood),
        method="L-BFGS-B",
        jac=True,
        callback=_record,
        options=options,
    )
    if res.status == 2:  # abnormal line search: retry on numerical gradients
        retry = minimize(
            lambda tk: _objective_and_grad(tk, psi_rows, counts, norms, likelihood)[0],
            res.x,
            method="L-BFGS-B",
            callback=_record,
            options=options,
        )
        if retry.fun <= res.fun:
            res = retry

    rho_opt = rho_from_t(res.x)
    opt_nll = _nll_from_probs(
        _born_probabilities(rho_opt, psi_rows), counts, norms, likelihood
    )
    if opt_nll <= seed_nll:
        rho, nll = rho_opt, opt_nll
    else:  # optimizer made no progress; keep the seed (best so far)
        rho, nll = rho_seed, seed_nll
    converged = bool(res.success)
    return ReconstructionResult(
        rho=rho,
        neg_log_likelihood=nll,
        iterations=int(res.nit),
        converged=converged,
        objective_history=tuple(history),
    )


@dataclass
class BinReconstruction:
    bin_start: float
    bin_width: float
    total_counts: float
    result: ReconstructionResult


@dataclass
class SkippedBin:
    bin_start: float
    bin_width: float
    total_counts: float


@dataclass
class TimeBinnedTomography:
    bins: list
    skipped: list


def time_binned_tomography(histograms, min_counts=100, weights=None, **mle_options):
    """Reconstruct one density matrix per time bin.

    ``histograms`` maps each two-letter basis pair to a coincidence
    histogram (any object with ``origin``, ``bin_width`` and ``counts``);
    all histograms must share binning and time origin, and the pair set
    must be a complete 16- or 36-projection set. Bins whose summed
    counts fall below ``min_counts`` are skipped and reported instead of
    reconstructed. Bins are independent; results are ordered by start
    time regardless of execution order.
    """
    if not histograms:
        raise ValidationError("no histograms given")
    pairs = sorted(histograms)
    if len(pairs) not in (16, 36):
        raise ValidationError(f"need 16 or 36 basis pairs, got {len(pairs)}")
    first = histograms[pairs[0]]
    for p in pairs:
        h = histograms[p]
        if (h.bin_width != first.bin_width or h.origin != first.origin
                or len(h.counts) != len(first.counts)):
            raise ValidationError(f"histogram for {p} has inconsistent binning")
    weights = weights or {}

    counts_matrix = np.array([np.asarray(histograms[p].counts, dtype=float) for p in pairs])
    bins = []
    skipped = []
    for k in range(counts_matrix.shape[1]):
        start = first.origin + k * first.bin_width
        total = float(counts_matrix[:, k].sum())
        if total < min_counts:
            skipped.append(SkippedBin(start, first.bin_width, total))
            continue
        records = [
            ProjectionRecord(p, counts_matrix[i, k], weights.get(p, 1.0))
            for i, p in enumerate(pairs)
        ]
        tomo_input = TomographyInput(tuple(records), time_bin=(start, first.bin_width))
        result = mle_reconstruct(tomo_input, **mle_options)
        bins.append(BinReconstruction(start, first.bin_width, total, result))
    return TimeBinnedTomography(bins=bins, skipped=skipped)


def bootstrap_uncertainty(input: TomographyInput, n_resamples, metric, target=None,
                          seed=None, transform=None, **mle_options):
    """Poissonian bootstrap of fidelity or concurrence.

    Each resample redraws every count as Poisson(n_v), reruns the MLE
    and evaluates the metric; resamples that fail to converge are
    excluded and counted. Deterministic for a fixed seed. ``transform``
    (e.g. a local-unitary correction) is applied to each reconstructed
    matrix before the metric.
    """
    return bootstrap_metrics(input, n_resamples, (metric,), target, seed, transform,
                             **mle_options)[metric]


def bootstrap_metrics(input: TomographyInput, n_resamples, metrics, target=None,
                      seed=None, transform=None, **mle_options):
    """``bootstrap_uncertainty`` for several metrics on one set of resamples.

    Returns {metric: BootstrapResult}. Every metric is evaluated on the
    same reconstructions, so each equals the single-metric bootstrap
    with the same seed, at the cost of one MLE per resample.
    """
    from . import quantum

    if n_resamples < 2:
        raise ValidationError("need at least 2 resamples")
    evaluators = {}
    for metric in metrics:
        if metric == "fidelity":
            if target is None:
                raise ValidationError("fidelity bootstrap needs a target state")
            evaluators[metric] = lambda rho: quantum.fidelity(rho, target)
        elif metric == "concurrence":
            evaluators[metric] = quantum.concurrence
        else:
            raise ValidationError(f"unknown metric {metric!r}")

    rng = np.random.default_rng(seed)
    base_counts = np.array([r.counts for r in input.records], dtype=float)
    values = {metric: [] for metric in evaluators}
    n_excluded = 0
    for _ in range(n_resamples):
        resampled = rng.poisson(base_counts).astype(float)
        records = tuple(
            ProjectionRecord(r.basis_pair, c, r.acquisition_weight)
            for r, c in zip(input.records, resampled)
        )
        result = mle_reconstruct(TomographyInput(records, input.time_bin), **mle_options)
        if not result.converged:
            n_excluded += 1
            continue
        rho = result.rho if transform is None else transform(result.rho)
        for metric, evaluate in evaluators.items():
            values[metric].append(evaluate(rho))
    if n_excluded == n_resamples:
        raise ComputationError("every bootstrap resample failed to converge")
    out = {}
    for metric, vals in values.items():
        arr = np.array(vals)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out[metric] = BootstrapResult(float(arr.mean()), std, n_excluded, tuple(vals))
    return out
