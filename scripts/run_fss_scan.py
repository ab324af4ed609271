#!/usr/bin/env python3
"""Splitting measurement two ways: waveplate scan and phase period.

Synthesizes a polarization-resolved line-position scan (the X and XX
peaks move in antiphase as a half-wave plate rotates), extracts the
splitting from the fixed-period sinusoid fit, and cross-checks it
against the period of the two-photon phase oscillation.
"""

import argparse

import numpy as np

from qdcascade.fitting import fss_from_peak_positions, fss_from_period
from qdcascade.quantum import oscillation_period


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fss", type=float, default=4.6, help="true splitting, ueV")
    parser.add_argument("--noise", type=float, default=0.15,
                        help="line-position noise, ueV")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    angles = np.deg2rad(np.arange(0, 360, 5.0))
    x_line = 1030_000.0 + (args.fss / 2) * np.sin(4 * angles + 0.4)
    xx_line = 1028_000.0 - (args.fss / 2) * np.sin(4 * angles + 0.4)
    x_line += args.noise * rng.standard_normal(len(angles))
    xx_line += args.noise * rng.standard_normal(len(angles))

    fss_x, fit_x = fss_from_peak_positions(angles, x_line)
    fss_xx, fit_xx = fss_from_peak_positions(angles, xx_line)
    print(f"X  scan: splitting {fss_x:.2f} +- {fit_x.std_errors['fss']:.2f} ueV")
    print(f"XX scan: splitting {fss_xx:.2f} +- {fit_xx.std_errors['fss']:.2f} ueV")

    avg = 0.5 * (fss_x + fss_xx)
    period = oscillation_period(avg)
    print(f"average {avg:.2f} ueV -> phase oscillation period {period:.0f} ps")
    print(f"round trip: {period:.0f} ps -> {fss_from_period(period):.3f} ueV")


if __name__ == "__main__":
    main()
