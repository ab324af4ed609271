"""Two-qubit state reconstruction from projection coincidence counts.

The pipeline is the classic one for polarization tomography: a linear
(Stokes-style) inversion of the normalized counts seeds a maximum-
likelihood fit over the Cholesky parameterization of James et al.,
PRA 64, 052312 (2001), rho = T^+T / tr(T^+T) with T lower triangular
and 16 real parameters t, so the returned matrix is always Hermitian,
positive semidefinite and unit trace.

The objective is the Gaussian approximation to Poisson counting
statistics,

    L(t) = sum_v (N_v p_v(t) - n_v)^2 / (2 N_v p_v(t)),

with n_v the measured counts, N_v the per-projection normalization and
p_v the Born probabilities of the candidate state. Per-projection
normalizations are estimated from sums over complete orthogonal basis
quadruples, e.g. counts(HH)+counts(HV)+counts(VH)+counts(VV), scaled by
each record's acquisition weight.

T is linear in t, so every Born probability is a ratio of real
quadratic forms, p_v = t.M_v.t / t.t, and L has a closed-form gradient
and Hessian. The forms depend only on the basis-pair order and are
built once per order. The fit runs ``fitting._damped_minimize``, the
damped Newton solver that the curve fits share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, ValidationError, require_finite
from .fitting import _damped_minimize
from .polarization import BASIS_LABELS, pair_projectors
from .quantum import project_physical, validate_density_matrix

#: Born probabilities below this floor are clamped inside the likelihood
#: (projections such as HV on an ideal Bell state are exactly dark).
PROBABILITY_FLOOR = 1e-12

_RIDGE = 1e-12

# lower-triangle off-diagonal order: (row, col) pairs below the diagonal
_OFFDIAG = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


def _cholesky_basis():
    """E_k with T = sum_k t_k E_k: real diagonal, then (re, im) per off-diagonal."""
    basis = np.zeros((16, 4, 4), dtype=complex)
    for k in range(4):
        basis[k, k, k] = 1.0
    for k, (i, j) in enumerate(_OFFDIAG):
        basis[4 + 2 * k, i, j] = 1.0
        basis[5 + 2 * k, i, j] = 1j
    return basis


_BASIS = _cholesky_basis()
_IDENTITY_16 = np.eye(16)
_IDENTITY_16.setflags(write=False)


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
        pair_projectors(self.basis_pair)  # refuses a label that names no basis pair
        require_finite(counts=self.counts, acquisition_weight=self.acquisition_weight)
        if self.counts < 0:
            raise ValidationError(f"counts must be >= 0, got {self.counts!r}")
        if not self.acquisition_weight > 0:
            raise ValidationError("acquisition_weight must be positive")


@dataclass(frozen=True)
class TomographyInput:
    """A complete set of 16 or 36 distinct projection records."""

    records: tuple

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
    """Physical density matrix plus solver diagnostics."""

    rho: np.ndarray
    neg_log_likelihood: float
    iterations: int
    converged: bool


@dataclass
class BootstrapResult:
    """Mean/std of a metric over Poissonian count resamples."""

    mean: float
    std: float
    n_excluded: int
    values: tuple = field(default=(), repr=False)


def _design(psis):
    """Rows vec |psi_v><psi_v|^*, so that design @ vec(rho) = <psi_v|rho|psi_v>."""
    return np.einsum("mi,mj->mij", psis.conj(), psis).reshape(len(psis), 16)


@dataclass(frozen=True)
class _ProjectionSetup:
    """What a reconstruction needs of one basis-pair order (read-only arrays).

    ``design`` is the linear-inversion matrix (see ``_design``),
    ``forms`` the real symmetric M_v with t.M_v.t = |T psi_v|^2, and
    ``quads`` the record indices (a+b, a+b', a'+b, a'+b') of every
    complete orthogonal quadruple, one row each.
    """

    design: np.ndarray
    full_rank: bool
    forms: np.ndarray
    quads: np.ndarray


_ARM_BASES = tuple(zip(BASIS_LABELS[::2], BASIS_LABELS[1::2]))  # (H,V), (D,A), (R,L)


@functools.lru_cache(maxsize=16)
def _projection_setup(pairs):
    psis = np.array([np.kron(*pair_projectors(p)) for p in pairs])
    design = _design(psis)
    full_rank = bool(np.linalg.matrix_rank(design) == 16)
    cols = np.einsum("kij,mj->mik", _BASIS, psis)  # T psi_v = cols[v] @ t
    forms = np.einsum("mik,mil->mkl", cols.conj(), cols).real
    index = {p: i for i, p in enumerate(pairs)}
    quads = [[index[a + b], index[a + b_], index[a_ + b], index[a_ + b_]]
             for a, a_ in _ARM_BASES for b, b_ in _ARM_BASES
             if {a + b, a + b_, a_ + b, a_ + b_} <= index.keys()]
    quads = np.array(quads, dtype=np.intp).reshape(-1, 4)
    for arr in (design, forms, quads):
        arr.setflags(write=False)
    return _ProjectionSetup(design, full_rank, forms, quads)


def _probabilities(design, rho):
    """Born probabilities clip(Re(design @ vec rho), 0, 1), one per design row."""
    return np.clip((design @ np.ravel(rho)).real, 0.0, 1.0)


def expected_probability(rho, pair):
    """Born probability of a joint projection (jones_xx, jones_x) on rho."""
    psi = np.kron(np.asarray(pair[0], dtype=complex), np.asarray(pair[1], dtype=complex))
    return float(_probabilities(_design(psi[None]), validate_density_matrix(rho))[0])


def _prepared(input):
    """Setup, counts, pair flux and per-projection normalizations N_v of one input.

    Every quadruple {(a,b), (a,b'), (a',b), (a',b')}, primes marking the
    orthogonal partners, sums to the full pair flux; the flux averages
    all quadruples present in the record set.
    """
    if input.total_counts <= 0:
        raise ValidationError("total counts must be positive")
    setup = _projection_setup(tuple(r.basis_pair for r in input.records))
    if not len(setup.quads):
        raise ValidationError("no complete orthogonal basis quadruple in the record set")
    counts = np.array([r.counts for r in input.records], dtype=float)
    weights = np.array([r.acquisition_weight for r in input.records])
    q = (counts / weights)[setup.quads]
    # summed left to right, which fixes the rounding of each quadruple's estimate
    flux = float(np.mean(q[:, 0] + q[:, 1] + q[:, 2] + q[:, 3]))
    if flux <= 0:
        raise ValidationError("estimated pair flux is zero; cannot normalize counts")
    return setup, counts, flux, flux * weights


def _linear_inversion(setup, counts, norms):
    if not setup.full_rank:
        raise ValidationError("degenerate projection set: linear system is singular")
    x, *_ = np.linalg.lstsq(setup.design, (counts / norms).astype(complex), rcond=None)
    rho = x.reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


def _t_from_rho(rho):
    """Parameter vector whose T^+T/tr reproduces rho (must be PD)."""
    flip = np.fliplr(np.eye(4))
    chol = np.linalg.cholesky(flip @ rho @ flip)
    T = flip @ chol.conj().T @ flip
    return np.einsum("kij,ij->k", _BASIS.conj(), T).real


def rho_from_t(t):
    """Physical density matrix T^+T / tr(T^+T) of a 16-parameter vector."""
    T = np.tensordot(np.asarray(t, dtype=float), _BASIS, axes=1)
    tdt = T.conj().T @ T
    norm = np.real(np.trace(tdt))
    if norm <= 0:
        raise ValidationError("t parameterization has zero norm")
    return tdt / norm


def neg_log_likelihood(rho, input: TomographyInput):
    """Objective value of a candidate density matrix against the counts."""
    setup, counts, _, norms = _prepared(input)
    return _nll_from_probs(_probabilities(setup.design, np.asarray(rho, dtype=complex)),
                           counts, norms)


def _nll_from_probs(p, counts, norms):
    q = np.maximum(p, PROBABILITY_FLOOR)
    return float(np.sum((norms * p - counts) ** 2 / (2.0 * norms * q)))


def _objective_and_grad(t, forms, counts, norms):
    """L(t), its gradient in the 16 Cholesky parameters and the terms ``_hessian`` takes.

    With G = M t (row v = M_v t), s = t.t and p_v = t.G_v / s, the
    Jacobian of p is D = (2/s)(G - p t^T) and the gradient is D^T L'(p).
    Below PROBABILITY_FLOOR the objective is the quadratic that the
    floored denominator makes it.
    """
    G = forms @ t
    s = float(t @ t)
    p = (G @ t) / s
    low = p < PROBABILITY_FLOOR
    q = np.maximum(p, PROBABILITY_FLOOR)
    val = _nll_from_probs(p, counts, norms)
    d1 = np.where(low, (norms * p - counts) / PROBABILITY_FLOOR,
                  norms / 2.0 - counts**2 / (2.0 * norms * q**2))
    jac = (2.0 / s) * (G - p[:, None] * t)
    return val, d1 @ jac, (s, p, q, low, d1, jac)


def _hessian(t, grad, terms, forms, counts, norms):
    """Hessian of L at t, D^T diag(L''(p)) D + (2/s)(sum_v L'_v M_v - (L'.p) I)
    - (2/s)(t grad^T + grad t^T), from the terms ``_objective_and_grad`` formed at t."""
    s, p, q, low, d1, jac = terms
    d2 = np.where(low, norms / PROBABILITY_FLOOR, counts**2 / (norms * (q * q * q)))
    # the dot that tensordot(d1, forms, axes=1) makes, without its reshaping
    curv = (np.dot(d1[None], forms.reshape(len(forms), 256)).reshape(16, 16)
            - float(d1 @ p) * _IDENTITY_16)
    cross = np.outer(t, grad)
    return (jac.T * d2) @ jac + (2.0 / s) * (curv - cross - cross.T)


def mle_reconstruct(input: TomographyInput):
    """Maximum-likelihood density matrix for one projection data set.

    Starts from the physical projection of the linear inversion, via a
    Cholesky factorization of the (slightly regularized) seed, and
    minimizes L with ``fitting._damped_minimize`` on its Hessian. L does
    not depend on |t|, so t is scaled to 1 once, not after each step.
    ``iterations`` counts the objective calls after the seed's. Returns
    the better of the fit and the seed, so the result is never worse.
    """
    setup, counts, _, norms = _prepared(input)
    rho_seed = project_physical(_linear_inversion(setup, counts, norms))
    seed_nll = _nll_from_probs(_probabilities(setup.design, rho_seed), counts, norms)
    try:
        t = _t_from_rho((1.0 - _RIDGE) * rho_seed + _RIDGE * np.eye(4) / 4.0)
    except np.linalg.LinAlgError:
        t = np.ones(16)
    t = t / np.linalg.norm(t)

    t, _, iterations, converged = _damped_minimize(
        lambda t: _objective_and_grad(t, setup.forms, counts, norms),
        lambda t, res: (res[1], _hessian(t, *res[1:], setup.forms, counts, norms)), t)
    rho_opt = rho_from_t(t)
    opt_nll = _nll_from_probs(_probabilities(setup.design, rho_opt), counts, norms)
    if opt_nll <= seed_nll:
        rho, nll = rho_opt, opt_nll
    else:  # the fit ended above the seed; keep the seed (best so far)
        rho, nll = rho_seed, seed_nll
    return ReconstructionResult(rho=rho, neg_log_likelihood=nll, iterations=iterations,
                                converged=converged)


@dataclass
class BinReconstruction:
    """One reconstructed bin and the input its MLE saw (for bootstrap)."""

    bin_start: float
    bin_width: float
    total_counts: float
    result: ReconstructionResult
    input: TomographyInput


@dataclass
class SkippedBin:
    bin_start: float
    bin_width: float
    total_counts: float


@dataclass
class TimeBinnedTomography:
    bins: list
    skipped: list


def time_binned_tomography(histograms, min_counts=100, weights=None):
    """Reconstruct one density matrix per time bin.

    ``histograms`` maps each two-letter basis pair to a coincidence
    histogram (any object with ``origin``, ``bin_width`` and ``counts``);
    all histograms must share binning and time origin, and the pair set
    must be a complete 16- or 36-projection set. ``weights`` maps basis
    pairs to acquisition weights (1 when absent). Bins whose summed
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
        tomo_input = TomographyInput(tuple(records))
        result = mle_reconstruct(tomo_input)
        bins.append(BinReconstruction(start, first.bin_width, total, result, tomo_input))
    return TimeBinnedTomography(bins=bins, skipped=skipped)


def bootstrap_metrics(input: TomographyInput, n_resamples, evaluate, seed=None):
    """Poissonian bootstrap of the numbers ``evaluate(rho)`` returns.

    Each resample redraws every count as Poisson(n_v), reruns the MLE
    and calls ``evaluate`` once on the reconstruction; resamples that
    fail to converge are excluded and counted. Deterministic for a fixed
    seed. Returns one BootstrapResult per value of ``evaluate``, in its
    order.
    """
    if n_resamples < 2:
        raise ValidationError("need at least 2 resamples")
    rng = np.random.default_rng(seed)
    base_counts = np.array([r.counts for r in input.records], dtype=float)
    rows = []
    n_excluded = 0
    for _ in range(n_resamples):
        resampled = rng.poisson(base_counts).astype(float)
        records = tuple(
            ProjectionRecord(r.basis_pair, c, r.acquisition_weight)
            for r, c in zip(input.records, resampled)
        )
        result = mle_reconstruct(TomographyInput(records))
        if not result.converged:
            n_excluded += 1
            continue
        rows.append(tuple(evaluate(result.rho)))
    if not rows:
        raise ComputationError("every bootstrap resample failed to converge")
    out = []
    for vals in zip(*rows):
        arr = np.array(vals)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out.append(BootstrapResult(float(arr.mean()), std, n_excluded, vals))
    return tuple(out)
