"""Enumeration caps, overridable through the FUCHS_ORACLE_CAP env var, and
``CapExceeded``, which every cap raises.

One value replaces both caps: setting FUCHS_ORACLE_CAP to limit radical
enumeration (default 625) also sets the unit-group cap (default 4096), so a
value of 100 makes ``unit_group`` refuse every ring of order above 100.
The cap on a ``.tn`` document's conductor and the cap on the TN
torsion-unit sweep are fixed: FUCHS_ORACLE_CAP does not change them.
"""

from __future__ import annotations

import os


class CapExceeded(ValueError):
    """The work asked for lies beyond a fixed cap (an enumeration or
    unit-group cap, the 2**64 factorization bound, or a witness rebuild)."""


RADICAL_ENUM_CAP = 625
UNIT_GROUP_CAP = 2 ** 12
# Z[zeta_k] arithmetic costs about k^3 and its cyclotomic polynomial is a
# dense list of k + 1 integers; every shipped, test and benchmark model
# has k <= 8
TN_CONDUCTOR_CAP = 256
# root-of-unity tuples the TN B*_tors sweep may try, one root per Galois
# orbit of components, each tuple with an integer solve; Z[zeta_5][C_5]
# tries 100,000 and Z[zeta_8][C_8] would try 16,777,216
TN_UNIT_CANDIDATE_CAP = 2 ** 20


def oracle_cap(default: int) -> int:
    """FUCHS_ORACLE_CAP when it is set, else ``default``.  A value that is
    not an integer of at least 1 raises ValueError naming the variable."""
    value = os.environ.get("FUCHS_ORACLE_CAP")
    if not value:
        return default
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(
            f"FUCHS_ORACLE_CAP must be an integer, got {value!r}") from None
    if cap < 1:
        raise ValueError(f"FUCHS_ORACLE_CAP must be at least 1, got {cap}")
    return cap
