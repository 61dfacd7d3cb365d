"""Enumeration caps, overridable through the FUCHS_ORACLE_CAP env var, and
``CapExceeded``, which every cap raises.

One value replaces both caps: setting FUCHS_ORACLE_CAP to limit radical
enumeration (default 625) also sets the unit-group cap (default 4096), so a
value of 100 makes ``unit_group`` refuse every ring of order above 100.
"""

from __future__ import annotations

import os


class CapExceeded(ValueError):
    """The work asked for lies beyond a fixed cap (an enumeration or
    unit-group cap, the 2**64 factorization bound, or a witness rebuild)."""


RADICAL_ENUM_CAP = 625
UNIT_GROUP_CAP = 2 ** 12


def oracle_cap(default: int) -> int:
    value = os.environ.get("FUCHS_ORACLE_CAP")
    return int(value) if value else default
