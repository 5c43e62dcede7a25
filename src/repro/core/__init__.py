"""The paper's contribution: choke-error-resilient EDAC techniques.

* :mod:`repro.core.tags` -- DCS four-part error tags and Trident EIDs,
* :mod:`repro.core.plru` -- the tree pseudo-LRU replacement policy,
* :mod:`repro.core.cslt` -- the Choke Sensor Lookup Table (ICSLT/ACSLT),
* :mod:`repro.core.dcs` -- Dynamic Choke Sensing (the DATE 2017 scheme),
* :mod:`repro.core.trident` -- the Trident extension (TDC/CET/CCR/CDC),
* :mod:`repro.core.schemes` -- Razor, HFG, and OCST comparison schemes,
* :mod:`repro.core.scheme_sim` -- the per-cycle timing-error simulator
  all schemes replay.
"""

from repro.core.tags import DcsTag, ErrorId, DCS_TAG_BITS, EID_BITS
from repro.core.plru import PseudoLRUTree
from repro.core.cslt import AssociativeCSLT, IndependentCSLT
from repro.core.dcs import DcsScheme
from repro.core.scheme_sim import ErrorTrace, build_error_trace
from repro.core.schemes import HfgScheme, OcstScheme, RazorScheme, SchemeResult
from repro.core.trident import TridentScheme

__all__ = [
    "AssociativeCSLT",
    "DCS_TAG_BITS",
    "DcsScheme",
    "DcsTag",
    "EID_BITS",
    "ErrorId",
    "ErrorTrace",
    "HfgScheme",
    "IndependentCSLT",
    "OcstScheme",
    "PseudoLRUTree",
    "RazorScheme",
    "SchemeResult",
    "TridentScheme",
    "build_error_trace",
]
