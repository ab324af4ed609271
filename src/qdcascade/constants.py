"""Physical constants in the unit system used throughout the package.

Energies are in microelectronvolts (ueV) and times in picoseconds (ps).
In these units hbar = 658.2119569 ueV*ps (CODATA 6.582119569e-16 eV*s),
so a fine-structure splitting of a few ueV gives phase-oscillation
periods of order a nanosecond, which keeps every quantity in a
float-friendly range.
"""

import math

#: Reduced Planck constant in ueV*ps.
HBAR_UEV_PS = 658.2119569

#: Planck constant in ueV*ps (2*pi*hbar).
H_UEV_PS = 2.0 * math.pi * HBAR_UEV_PS

