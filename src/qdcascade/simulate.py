"""Monte Carlo generator for pulsed biexciton-exciton cascade photons.

Each excitation pulse creates a biexciton with probability
``excitation_fraction``. The XX photon is emitted after an exponential
delay with mean ``tau_xx``; the X photon follows after a further
exponential delay with mean ``tau_x``. Only the XX-to-X delay drives
the entangled-state phase, so a projection run samples the joint
polarization outcome from the two-photon state evaluated at that delay.

Recapture (the dot trapping a fresh electron-hole pair after the XX
emission instead of completing the cascade) is modeled as one optional
extra XX photon per pulse. Its delay after the first XX photon is drawn
as Exp(tau_xx) + Exp(tau_xx*t_c/(tau_xx+t_c)), which makes the
inter-photon delay density exactly

    f(d) ~ exp(-d/tau_xx) * (1 - exp(-d/t_c)),

the double-sided-decay-with-dip shape seen in the center peak of the
biexciton autocorrelation, with t_c = ``recapture_time``.

Both runs emit integer-picosecond timestamps that depend only on
(config, seed). A projection run draws everything from one generator.
An autocorrelation run is cut into blocks of ``_PULSE_BLOCK`` pulses;
block k draws its pulses' photons, and the background over its own
span of time, from child k of ``np.random.SeedSequence(seed)``. The
blocks run on the shared pool and are joined in block order, so the
thread count does not change a byte, but the block size does: it is
part of the stream. A Bernoulli draw whose outcome is certain
(probability 0 or 1) is not made: the generator is advanced past it
instead, so every later draw is the same as if it had been made. Each
stream is sorted once, in ``_pack``.

A projection run holds two float arrays of one entry per excited pulse,
the XX and X delays, and one-byte codes per pulse: the excitation draw,
the joint outcome and the two detection flags. Uniforms and pulse start
times are drawn or formed ``_BLOCK`` pulses at a time. The delays turn in
place into the emission times. Each detector's detected times are
compacted ``_BLOCK`` pulses at a time into one array, and freed as soon as
they are rounded to stamps. The joint outcomes are decided from float32
trig where a proven error margin allows and from float64 trig elsewhere;
either way they are those of the float64 rule (see ``_joint_outcomes``),
so the bytes do not depend on numpy's float32 kernels.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import pool
from .constants import HBAR_UEV_PS
from .errors import ValidationError, require_finite
from .polarization import pair_projectors
from .streams import TimestampStream, _ORIGIN_CODE

#: Pulses per block of the outcome computation in ``simulate_projection_run``.
_BLOCK = 65_536

#: Pulses per generator of ``simulate_autocorrelation_run``. Each block has its
#: own child stream, so changing this changes every autocorrelation run.
_PULSE_BLOCK = 2 ** 17


@dataclass(frozen=True)
class EmitterConfig:
    """Physical parameters of the simulated dot and detection chain.

    Units: fss in ueV, lifetimes and recapture_time in ps, rep_rate in
    MHz, background_rate in counts/s per channel; efficiencies and
    probabilities are fractions. Defaults describe a telecom-band
    nanowire dot with a small fine-structure splitting; jitter_sigma
    adds Gaussian detector timing jitter when nonzero.
    """

    fss: float = 4.65
    tau_xx: float = 1100.0
    tau_x: float = 1610.0
    rep_rate: float = 80.0
    recapture_probability: float = 0.0
    recapture_time: float = 546.0
    setup_efficiency: float = 1.0
    detector_efficiency: float = 1.0
    background_rate: float = 0.0
    excitation_fraction: float = 1.0
    jitter_sigma: float = 0.0

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if self.fss < 0:
            raise ValidationError("fss must be nonnegative")
        for name in ("tau_xx", "tau_x", "recapture_time", "rep_rate"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("recapture_probability",):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")
        for name in ("setup_efficiency", "detector_efficiency", "excitation_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1]")
        if self.background_rate < 0:
            raise ValidationError("background_rate must be nonnegative")
        if self.jitter_sigma < 0:
            raise ValidationError("jitter_sigma must be nonnegative")

    @property
    def rep_period_ps(self):
        return 1e6 / self.rep_rate

    @property
    def total_efficiency(self):
        return self.setup_efficiency * self.detector_efficiency


def _resolve_pair(pair):
    """Accept a two-letter label ("VV") or a pair of Jones vectors (XX arm,
    X arm), each of shape (2,), finite and nonzero."""
    if isinstance(pair, str):
        return pair_projectors(pair)
    vectors = []
    for arm, v in zip(("XX", "X"), pair, strict=True):
        name = f"Jones vector of the {arm} arm"
        v = np.asarray(v, dtype=complex)
        if v.shape != (2,):
            raise ValidationError(f"{name} must have shape (2,), got {v.shape}")
        require_finite(**{name: v})
        if not np.any(v):
            raise ValidationError(f"{name} must not be zero")
        vectors.append(v)
    return tuple(vectors)


def _orthogonal_vector(v):
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _draws_below(rng, m, p):
    """``rng.random(m) < p``, or the bool True (p >= 1) or False (p <= 0)
    when every draw is certain; then the m draws are skipped by advancing
    the generator, which takes one 64-bit output per double. The uniforms
    are drawn ``_BLOCK`` at a time, so only the bools are held whole."""
    if 0.0 < p < 1.0:
        below, u = np.empty(m, dtype=bool), np.empty(min(m, _BLOCK))
        for lo in range(0, m, _BLOCK):
            hi = min(lo + _BLOCK, m)
            np.less(rng.random(out=u[:hi - lo]), p, out=below[lo:hi])
        return below
    rng.bit_generator.advance(m)
    return p >= 1.0


def _start_times(excited, lo, hi, config):
    """Start times (ps) of the pulses ``lo`` to ``hi - 1`` that excite the dot,
    in pulse order; ``excited`` is True or those pulses' excitation draws."""
    # float pulse numbers are exact below 2**53
    pulses = (np.arange(lo, hi, dtype=float) if excited is True
              else np.flatnonzero(excited) + float(lo))
    pulses *= config.rep_period_ps
    return pulses


def _check_pulses(n_pulses):
    if not _is_integer(n_pulses) or n_pulses < 0:
        raise ValidationError("n_pulses must be a nonnegative integer")


def _background_times(rng, rate_cps, start_ps, end_ps):
    n = rng.poisson(rate_cps * 1e-12 * (end_ps - start_ps))
    return rng.uniform(start_ps, end_ps, n)


def _detect(times, origins_code, config, rng, start_ps, end_ps):
    """One detector's photons with jitter, then its background over
    [start, end): integer stamps and origin codes, in that order, unsorted."""
    if config.jitter_sigma > 0 and len(times):
        times = times + rng.normal(0.0, config.jitter_sigma, len(times))
    bg = _background_times(rng, config.background_rate, start_ps, end_ps)
    origin = np.full(len(times) + len(bg), origins_code, dtype=np.uint8)
    origin[len(times):] = _ORIGIN_CODE["background"]
    times = np.concatenate([times, bg])  # a new array, so it may be rounded in place
    return np.rint(times, out=times).astype(np.int64), origin


def _pack(stamps, origin, duration_ps):
    """The stream of one detector's stamps: the events in [0, duration) are a
    slice of the stably sorted stamps, as if they were filtered and then sorted."""
    order = np.argsort(stamps, kind="stable")
    stamps, origin = stamps.take(order), origin.take(order)
    # the stamps are integers, so stamp < duration_ps is stamp < ceil(duration_ps)
    lo, hi = np.searchsorted(stamps, (0, math.ceil(duration_ps)))
    return TimestampStream(stamps[lo:hi], origins=origin[lo:hi], _sorted=True)


def _finalize(times, origins_code, duration_ps, config, rng):
    """Jitter, background, quantization and packing of one detector of a run.
    ``times`` is freed once rounded, unless the caller still holds it."""
    stamps, origin = _detect(times, origins_code, config, rng, 0.0, duration_ps)
    del times
    return _pack(stamps, origin, duration_ps)


def _compact(keep, values):
    """``values[keep]``, compacted ``_BLOCK`` entries at a time into one
    output, so that no index array of every kept entry is built."""
    out = np.empty(np.count_nonzero(keep), dtype=values.dtype)
    done = 0
    for lo in range(0, len(values), _BLOCK):
        kept = np.flatnonzero(keep[lo:lo + _BLOCK])
        # the indices are in range; with out=, mode "raise" would take a copy first
        np.take(values[lo:lo + _BLOCK], kept, out=out[done:done + len(kept)], mode="clip")
        done += len(kept)
    return out


def _running_sums(rows, phi, cum, term):
    """Fill ``cum`` (4, n) with the running sums over the rows (const, c, s)
    of const + c cos(phi) + s sin(phi), in float64 whatever the float type of
    ``phi``; cos and sin are taken only when some row uses them."""
    cos_phi = np.cos(phi) if any(c for _, c, _ in rows) else None
    sin_phi = np.sin(phi) if any(s for _, _, s in rows) else None
    for k, (const, c, s) in enumerate(rows):
        row = cum[k]
        row.fill(const)
        if c:
            row += np.multiply(cos_phi, c, out=term, dtype=np.float64)
        if s:
            row += np.multiply(sin_phi, s, out=term, dtype=np.float64)
        if k:
            row += cum[k - 1]
    return cum


def _outcome(us, cum):
    """The outcome of each pulse: how many of the first three running sums
    ``us`` (the pulse's uniform times the total) reaches."""
    return (us >= cum[0]).astype(np.int8) + (us >= cum[1]) + (us >= cum[2])


def _joint_outcomes(a, b, fss, d_x, rng):
    """Joint projection outcome of each pulse, as int8 in 0-3.

    The outcomes index (ab, ab', a'b, a'b'); ``d_x`` holds each pulse's
    XX-to-X delay. Each pulse takes one uniform u from ``rng``, in pulse
    order. Its outcome is the number of k in 0-2 with u*S >= cum_k, where
    cum_k are the running sums of the joint distribution at the pulse's phase
    phi = fss*d_x/hbar and S = cum_3 their total, all in float64 from float64
    ``np.cos``/``np.sin`` of the float64 phi. That exact rule alone sets
    the output.

    A block of oscillating pulses first decides each outcome from float32
    cos and sin of float32(phi), a filtered exact predicate in the manner
    of Shewchuk (Discrete Comput. Geom. 18, 305 (1997)). Its error bound:

    * rounding phi to float32 moves it, and so each trig value, by at most
      |phi| 2^-24;
    * numpy's float32 kernels err by at most 1.2 2^-24 at the same argument
      (numpy 2.4, with its AVX-512 and AVX2 kernels and with neither), the
      float64 ones by about 2^-53;
    * each running sum, and u*S (u < 1), moves by at most
      A = sum_k (|c_k| + |s_k|) times the trig error, so d_k = u*S - cum_k
      moves by at most 2 A (|phi| + 1.3) 2^-24.

    The margin eps = 2 A (max|phi| 2^-22 + 2^-20) + 1e-12 S_max over the
    block, with S_max = sum_k (const_k + |c_k| + |s_k|) >= S and its last
    term for float64 rounding, keeps at least 4x slack on each term. A pulse
    with |d_k| >= eps for every k has the signs of the exact d_k, and so the
    exact outcome (a NaN fails the test). Every other pulse is recomputed by
    the exact rule on its own float64 phi. Every step is elementwise, so a
    subset gets the same bits as the whole block: the float32 kernel only
    chooses which pulses are recomputed, and the bytes do not depend on it.
    A block with eps >= S_max / 32 would leave a large share of its pulses
    undecided, each boundary catching a band 2 eps wide, and the filter
    would cost more than it saves (measured on DA at fss 1e4 ueV). One with
    max|phi| >= 2^22 has a float32 phase off by a radian or more, and when A
    is tiny its phi may lie beyond float32 range. Either block takes the
    exact rule whole, with no float32 cast.
    """
    # With phi = fss*d_x/hbar and z = conj(c_hh)*c_vv,
    # |c_hh + c_vv e^{i phi}|^2 is
    # |c_hh|^2 + |c_vv|^2 + 2 Re(z) cos(phi) - 2 Im(z) sin(phi).
    # For the H/V/D/A/R/L projections at most one of the two oscillating
    # terms is nonzero.
    a_perp, b_perp = _orthogonal_vector(a), _orthogonal_vector(b)
    rows = []
    for va, vb in ((a, b), (a, b_perp), (a_perp, b), (a_perp, b_perp)):
        c_hh = np.conj(va[0] * vb[0]) / np.sqrt(2.0)
        c_vv = np.conj(va[1] * vb[1]) / np.sqrt(2.0)
        z = np.conj(c_hh) * c_vv
        rows.append((abs(c_hh) ** 2 + abs(c_vv) ** 2, 2.0 * z.real, -2.0 * z.imag))
    amp = sum(abs(c) + abs(s) for _, c, s in rows)
    s_max = sum(const for const, _, _ in rows) + amp
    # Working through the pulses in blocks gives the same bits as whole
    # arrays while holding (4, _BLOCK) sums. With no oscillating term (H or V
    # in either arm) the running sums are scalars, made by the same additions
    # as in _running_sums.
    m = len(d_x)
    outcome = np.empty(m, dtype=np.int8)
    u_buf = np.empty(min(m, _BLOCK))
    if amp:
        cum_buf = np.empty((4, min(m, _BLOCK)))
        term_buf, us_buf = np.empty((2, min(m, _BLOCK)))
    else:
        cum = list(itertools.accumulate(const for const, _, _ in rows))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        n = hi - lo
        u = rng.random(out=u_buf[:n])
        if not amp:
            u *= cum[-1]
            outcome[lo:hi] = _outcome(u, cum)
            continue
        phi = fss * d_x[lo:hi] / HBAR_UEV_PS
        phi_max = phi.max()  # phi >= 0
        eps = 2.0 * amp * (phi_max * 2.0 ** -22 + 2.0 ** -20) + 1e-12 * s_max
        redo = slice(None)
        if phi_max < 2.0 ** 22 and eps < s_max / 32:
            cum = _running_sums(rows, phi.astype(np.float32), cum_buf[:, :n], term_buf[:n])
            us = np.multiply(u, cum[3], out=us_buf[:n])
            outcome[lo:hi] = _outcome(us, cum)
            decided = np.ones(n, dtype=bool)
            for row in cum[:3]:
                d = np.subtract(us, row, out=row)
                decided &= np.abs(d, out=d) >= eps
            redo = np.flatnonzero(~decided)
            phi, u = phi[redo], u[redo]
        cum = _running_sums(rows, phi, cum_buf[:, :len(u)], term_buf[:len(u)])
        u *= cum[3]
        outcome[lo:hi][redo] = _outcome(u, cum)
    return outcome


def simulate_projection_run(config: EmitterConfig, pair, n_pulses, seed):
    """One polarization-projection acquisition.

    Each cascaded pair is projected onto (a, b) vs the orthogonal
    complements; a photon reaches its detector only when its arm passes,
    and then survives with the combined setup and detector efficiency.
    Returns (xx_stream, x_stream).
    """
    _check_pulses(n_pulses)
    a, b = _resolve_pair(pair)
    rng = np.random.default_rng(seed)
    duration = n_pulses * config.rep_period_ps
    excited = _draws_below(rng, n_pulses, config.excitation_fraction)
    m = n_pulses if excited is True else int(np.count_nonzero(excited))
    d_xx = rng.exponential(config.tau_xx, m)
    d_x = rng.exponential(config.tau_x, m)
    outcome = _joint_outcomes(a, b, config.fss, d_x, rng)

    # outcomes 0 and 1 pass the XX arm (a), outcomes 0 and 2 the X arm (b);
    # then each photon survives its efficiency draw, drawn XX first
    xx_detected, x_detected = outcome <= 1, (outcome & 1) == 0
    del outcome
    for detected in (xx_detected, x_detected):
        survived = _draws_below(rng, m, config.total_efficiency)
        if survived is not True:
            detected &= survived

    # d_xx becomes the XX emission times (pulse start + XX delay) and then
    # d_x the X emission times, adding the start times block by block
    done = 0
    for lo in range(0, n_pulses, _BLOCK):
        hi = min(lo + _BLOCK, n_pulses)
        start = _start_times(excited if excited is True else excited[lo:hi], lo, hi, config)
        d_xx[done:done + len(start)] += start
        done += len(start)
    del excited
    times = [_compact(xx_detected, d_xx)]
    d_x += d_xx
    del d_xx
    times.append(_compact(x_detected, d_x))
    del d_x, xx_detected, x_detected
    # popped, so _finalize holds each detector's float times alone
    xx_stream = _finalize(times.pop(0), _ORIGIN_CODE["XX"], duration, config, rng)
    x_stream = _finalize(times.pop(), _ORIGIN_CODE["X"], duration, config, rng)
    return xx_stream, x_stream


def _autocorrelation_block(config, species, n_pulses, seed_seq, lo):
    """The photons of the block of pulses from ``lo`` and the background over
    its span, as (stamps, origins) of splitter outputs a and b."""
    rng = np.random.default_rng(seed_seq)
    hi = min(lo + _PULSE_BLOCK, n_pulses)
    excited = _draws_below(rng, hi - lo, config.excitation_fraction)
    times = _start_times(excited, lo, hi, config)
    m = len(times)

    # times turns from pulse times into emission times in place (X: XX then X delay)
    times += rng.exponential(config.tau_xx, m)
    if species == "X":
        times += rng.exponential(config.tau_x, m)
    else:
        recaptured = _draws_below(rng, m, config.recapture_probability)
        if recaptured is not False:
            first = times if recaptured is True else np.compress(recaptured, times)
            gate = config.tau_xx * config.recapture_time / (config.tau_xx + config.recapture_time)
            second = (first + rng.exponential(config.tau_xx, len(first))
                      + rng.exponential(gate, len(first)))
            times = np.concatenate([times, second])
    origin = _ORIGIN_CODE[species]

    detected = _draws_below(rng, len(times), config.total_efficiency)
    if detected is not True:
        times = np.compress(detected, times)
    to_a = rng.random(len(times)) < 0.5
    span = (lo * config.rep_period_ps, hi * config.rep_period_ps)
    return [_detect(np.compress(to_a, times), origin, config, rng, *span),
            _detect(np.compress(~to_a, times), origin, config, rng, *span)]


def simulate_autocorrelation_run(config: EmitterConfig, species, n_pulses, seed):
    """Hanbury Brown-Twiss run of one emission line through a 50:50 splitter.

    X runs emit at most one photon per pulse, timed by the full cascade
    (Exp(tau_xx) + Exp(tau_x) after the pulse). XX runs emit the XX
    photon at Exp(tau_xx) and, with ``recapture_probability``, a second
    XX photon after the recapture delay described in the module
    docstring. The pulse blocks run on the shared pool. Returns the two
    splitter-output streams.
    """
    if species not in ("X", "XX"):
        raise ValidationError(f"species must be 'X' or 'XX', got {species!r}")
    _check_pulses(n_pulses)
    starts = range(0, max(n_pulses, 1), _PULSE_BLOCK)  # a run of no pulses is one empty block
    seeds = np.random.SeedSequence(seed).spawn(len(starts))
    blocks = pool.parallel_map(
        lambda item: _autocorrelation_block(config, species, n_pulses, *item), zip(seeds, starts))
    duration = n_pulses * config.rep_period_ps

    def join(output):
        stamps = np.concatenate([block[output][0] for block in blocks])
        origin = np.concatenate([block[output][1] for block in blocks])
        for block in blocks:  # the joined copy replaces the parts
            block[output] = None
        return _pack(stamps, origin, duration)

    return tuple(pool.parallel_map(join, (0, 1)))
