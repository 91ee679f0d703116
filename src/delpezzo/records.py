"""Fully populated result records for enumerated candidates."""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .klt import Certified, KltVerdict, NotKltGate, _cascade
from .moduli import _moduli_report
from .topology import _link_report, _require_smooth_link
from .weights import Candidate, count_monomials


@dataclass(frozen=True)
class CandidateRecord:
    """One classified hypersurface family with every derived invariant.

    Every field is recomputable from the candidate alone; records exist so
    enumeration output can be serialized, diffed and tallied without
    re-deriving anything.
    """

    candidate: Candidate
    mu: int
    b2_link: int
    b2_orbifold: int
    l: int
    klt: KltVerdict
    klt_provenance: str  # cascade | case-analysis | prior-work | unknown
    ke: str  # "Y", "?" or "N" (gated)
    moduli_m: int
    moduli_dim_aut: int
    moduli_n: int
    series_id: str | None
    series_k: int | None

    def key(self) -> tuple:
        return self.candidate.key()


def build_record(c: Candidate) -> CandidateRecord:
    """Classify one candidate: topology, KE verdict with provenance, moduli.

    Requires well-formed weights and a quasi-smooth general member, the
    preconditions of `diffeo_type`, `moduli_report` and `certify_KE`; they
    are checked once here, and each invariant is computed once.
    """
    _require_smooth_link(c)
    link = _link_report(c)
    mod = _moduli_report(c, count_monomials(c.weights, c.d))
    verdict = _cascade(c)
    match = catalog.find_series_match(c)
    series_id, series_k = (match[0].id, match[1]) if match else (None, None)

    if isinstance(verdict, Certified):
        provenance, ke = "cascade", "Y"
    elif isinstance(verdict, NotKltGate):
        provenance, ke = "unknown", "N"
    elif match is not None and match[0].ke_at(match[1]) == "Y":
        provenance, ke = match[0].klt_provenance, "Y"
    else:
        provenance, ke = "unknown", "?"

    return CandidateRecord(
        candidate=c,
        mu=link.mu,
        b2_link=link.b2_link,
        b2_orbifold=link.b2_link + 1,
        l=link.l,
        klt=verdict,
        klt_provenance=provenance,
        ke=ke,
        moduli_m=mod.m,
        moduli_dim_aut=mod.dim_aut,
        moduli_n=mod.n,
        series_id=series_id,
        series_k=series_k,
    )
