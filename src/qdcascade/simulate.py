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

All generators are deterministic for a fixed (config, seed) and emit
integer-picosecond timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR_UEV_PS
from .errors import ValidationError
from .polarization import projector_for
from .streams import TimestampStream, _ORIGIN_CODE

#: Detector channel ids used by the generators.
CHANNEL_XX = 0
CHANNEL_X = 1

#: Pulses per block of the outcome computation in ``simulate_projection_run``.
_BLOCK = 65_536


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
    """Accept a two-letter label ("VV") or a pair of Jones vectors."""
    if isinstance(pair, str):
        if len(pair) != 2:
            raise ValidationError(f"basis pair must be two letters, got {pair!r}")
        return projector_for(pair[0]), projector_for(pair[1])
    a, b = pair
    return np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)


def _orthogonal_vector(v):
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def _start_run(config, n_pulses, seed):
    """Check ``n_pulses``; return the run's generator, its duration (ps) and
    the start times (ps) of the pulses that excite the dot, in pulse order."""
    if n_pulses < 0:
        raise ValidationError("n_pulses must be nonnegative")
    rng = np.random.default_rng(seed)
    period = config.rep_period_ps
    excited = rng.random(n_pulses) < config.excitation_fraction
    return rng, n_pulses * period, np.nonzero(excited)[0] * period


def _background_times(rng, rate_cps, duration_ps):
    n = rng.poisson(rate_cps * 1e-12 * duration_ps)
    return rng.uniform(0.0, duration_ps, n)


def _finalize(times, origins_code, channel, duration_ps, config, rng):
    """Jitter, background, quantization and packaging of one channel."""
    if config.jitter_sigma > 0 and len(times):
        times = times + rng.normal(0.0, config.jitter_sigma, len(times))
    origin = np.full(len(times), origins_code, dtype=np.uint8)
    bg = _background_times(rng, config.background_rate, duration_ps)
    times = np.concatenate([times, bg])
    origin = np.concatenate([origin, np.full(len(bg), _ORIGIN_CODE["background"], np.uint8)])
    stamps = np.rint(times).astype(np.int64)
    keep = (stamps >= 0) & (stamps < duration_ps)
    stamps, origin = stamps[keep], origin[keep]
    return TimestampStream(
        np.full(len(stamps), channel, dtype=np.uint8),
        stamps,
        duration_ps,
        origins=origin,
    )


def _joint_outcomes(a, b, fss, d_x, u):
    """Joint projection outcome of each pulse, as int8 in 0-3.

    The outcomes index (ab, ab', a'b, a'b'); ``d_x`` holds each pulse's
    XX-to-X delay and ``u`` its uniform draw, which is scaled in place.
    """
    # Running sums of the joint outcome distribution at each delay, built
    # in place. With phi = fss*d_x/hbar and z = conj(c_hh)*c_vv,
    # |c_hh + c_vv e^{i phi}|^2 is
    # |c_hh|^2 + |c_vv|^2 + 2 Re(z) cos(phi) - 2 Im(z) sin(phi).
    # For the H/V/D/A/R/L projections at most one of the two oscillating
    # terms is nonzero, so cos and sin are computed only when some row uses them.
    a_perp, b_perp = _orthogonal_vector(a), _orthogonal_vector(b)
    rows = []
    for va, vb in ((a, b), (a, b_perp), (a_perp, b), (a_perp, b_perp)):
        c_hh = np.conj(va[0] * vb[0]) / np.sqrt(2.0)
        c_vv = np.conj(va[1] * vb[1]) / np.sqrt(2.0)
        z = np.conj(c_hh) * c_vv
        rows.append((abs(c_hh) ** 2 + abs(c_vv) ** 2, 2.0 * z.real, -2.0 * z.imag))
    use_cos = any(c for _, c, _ in rows)
    use_sin = any(s for _, _, s in rows)
    # Every step is elementwise, so working through the pulses in blocks
    # gives the same bits as whole arrays while holding (4, _BLOCK) sums.
    m = len(d_x)
    outcome = np.empty(m, dtype=np.int8)
    cum_buf = np.empty((4, min(m, _BLOCK)))
    term_buf = np.empty(min(m, _BLOCK))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        cum, term = cum_buf[:, :hi - lo], term_buf[:hi - lo]
        phi = fss * d_x[lo:hi] / HBAR_UEV_PS
        cos_phi = np.cos(phi) if use_cos else None
        sin_phi = np.sin(phi) if use_sin else None
        for k, (const, c, s) in enumerate(rows):
            row = cum[k]
            row.fill(const)
            if c:
                row += np.multiply(cos_phi, c, out=term)
            if s:
                row += np.multiply(sin_phi, s, out=term)
            if k:
                row += cum[k - 1]
        u_blk = u[lo:hi]
        u_blk *= cum[-1]
        outcome[lo:hi] = (u_blk >= cum[0]).astype(np.int8) + (u_blk >= cum[1]) + (u_blk >= cum[2])
    return outcome


def simulate_projection_run(config: EmitterConfig, pair, n_pulses, seed):
    """One polarization-projection acquisition.

    Each cascaded pair is projected onto (a, b) vs the orthogonal
    complements; a photon reaches its detector only when its arm passes,
    and then survives with the combined setup and detector efficiency.
    Returns (xx_stream, x_stream) on channels 0 and 1.
    """
    rng, duration, pulse_t = _start_run(config, n_pulses, seed)
    a, b = _resolve_pair(pair)
    m = len(pulse_t)
    d_xx = rng.exponential(config.tau_xx, m)
    d_x = rng.exponential(config.tau_x, m)
    outcome = _joint_outcomes(a, b, config.fss, d_x, rng.random(m))

    # outcomes 0 and 1 pass the XX arm (a), outcomes 0 and 2 the X arm (b);
    # both efficiency draws are made even when eff == 1, so the draws that
    # follow do not depend on the efficiency
    eff = config.total_efficiency
    xx_detected = (outcome <= 1) & (rng.random(m) < eff)
    x_detected = ((outcome & 1) == 0) & (rng.random(m) < eff)
    del outcome

    # pulse_t becomes the XX emission times, then the X emission times
    pulse_t += d_xx
    del d_xx
    xx_times = pulse_t[xx_detected]
    pulse_t += d_x
    del d_x
    x_times = pulse_t[x_detected]
    del pulse_t, xx_detected, x_detected
    xx_stream = _finalize(xx_times, _ORIGIN_CODE["XX"], CHANNEL_XX, duration, config, rng)
    x_stream = _finalize(x_times, _ORIGIN_CODE["X"], CHANNEL_X, duration, config, rng)
    return xx_stream, x_stream


def simulate_autocorrelation_run(config: EmitterConfig, species, n_pulses, seed):
    """Hanbury Brown-Twiss run of one emission line through a 50:50 splitter.

    X runs emit at most one photon per pulse, timed by the full cascade
    (Exp(tau_xx) + Exp(tau_x) after the pulse). XX runs emit the XX
    photon at Exp(tau_xx) and, with ``recapture_probability``, a second
    XX photon after the recapture delay described in the module
    docstring. Returns the two splitter-output streams.
    """
    if species not in ("X", "XX"):
        raise ValidationError(f"species must be 'X' or 'XX', got {species!r}")
    rng, duration, pulse_t = _start_run(config, n_pulses, seed)
    m = len(pulse_t)

    if species == "X":
        times = pulse_t + rng.exponential(config.tau_xx, m) + rng.exponential(config.tau_x, m)
        origin = _ORIGIN_CODE["X"]
    else:
        first = pulse_t + rng.exponential(config.tau_xx, m)
        recaptured = rng.random(m) < config.recapture_probability
        n_re = int(recaptured.sum())
        gate = config.tau_xx * config.recapture_time / (config.tau_xx + config.recapture_time)
        second = (
            first[recaptured]
            + rng.exponential(config.tau_xx, n_re)
            + rng.exponential(gate, n_re)
        )
        times = np.concatenate([first, second])
        origin = _ORIGIN_CODE["XX"]

    eff = config.total_efficiency
    detected = rng.random(len(times)) < eff
    times = times[detected]
    to_a = rng.random(len(times)) < 0.5

    stream_a = _finalize(times[to_a], origin, 0, duration, config, rng)
    stream_b = _finalize(times[~to_a], origin, 1, duration, config, rng)
    return stream_a, stream_b
