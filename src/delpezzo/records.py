"""Fully populated result records for admitted candidates.

`classify` is the one admission: a (w, d) enters the classification, and
gets a record, only if it is primitive, a `Candidate`, past gates G1 and G2
and quasi-smooth with X and P(w) well-formed.  `build_record` is its
checked entry for a `Candidate` and refuses exactly what `classify`
rejects, so no record is ever gated: its verdict is `Certified` or
`Unknown`, and its K-E flag "Y" or "?".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import catalog
from .errors import PreconditionError
from .klt import GATE_RULES, Certified, Unknown, _cascade, gate_check
from .moduli import _moduli_report
from .quasismooth import Rejection, hypersurface_rejection
from .topology import _link_report
from .weights import Candidate, WeightSystem


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
    klt: Certified | Unknown
    klt_provenance: str  # cascade | case-analysis | prior-work | unknown
    moduli_m: int
    moduli_dim_aut: int
    moduli_n: int
    series_id: str | None
    series_k: int | None

    @property
    def ke(self) -> str:
        """The K-E flag, read off the provenance: "?" exactly when it is
        "unknown", "Y" for a certificate (provenance "cascade") or a member
        of a family proven K-E."""
        return "?" if self.klt_provenance == "unknown" else "Y"

    def key(self) -> tuple:
        return self.candidate.key()


def classify(w, d: int) -> CandidateRecord | Rejection:
    """The record of (w, d), or the `Rejection` that keeps it out.

    The checks run in order: w is primitive (tested first, so that a
    non-primitive tuple is rejected as such before a `WeightSystem` is built);
    w is an ascending positive 4-tuple with 1 <= I and d > w3, as
    `WeightSystem` and `Candidate` check; then `_rejection`.  A candidate
    that passes them all is built into its record without checking anything
    twice.  The enumeration routes call this only on points their numpy
    prefilter has already admitted, so there every call builds a record.
    """
    g = gcd(*w)
    if g != 1:
        return Rejection("not primitive", f"the weights share the factor {g}")
    try:
        c = Candidate(WeightSystem(tuple(w)), d)
    except ValueError as exc:
        return Rejection("not a candidate", str(exc))
    rejection = _rejection(c)
    return rejection if rejection is not None else _record(c)


def build_record(c: Candidate) -> CandidateRecord:
    """The record of a candidate `classify` admits: topology, KE verdict with
    provenance, moduli.

    A `Candidate` is primitive and has 1 <= I and d > w3, so it passes
    `classify` exactly when it passes `_rejection`; otherwise this raises
    PreconditionError naming that `Rejection`, as `classify` would return it.
    """
    rejection = _rejection(c)
    if rejection is not None:
        raise PreconditionError(f"{c}: {rejection}")
    return _record(c)


def _rejection(c: Candidate) -> Rejection | None:
    """The admission step `classify` and `build_record` share: gates G1 and
    G2, then `hypersurface_rejection`, which every invariant requires."""
    gate = gate_check(c)
    if gate is not None:
        return Rejection(f"gate {gate}", f"{GATE_RULES[gate]} with I = {c.I}, w = {c.weights}")
    return hypersurface_rejection(c)


def _record(c: Candidate) -> CandidateRecord:
    link = _link_report(c)
    mod = _moduli_report(c)
    verdict = _cascade(c)
    match = catalog.find_series_match(c)
    series_id, series_k = (match[0].id, match[1]) if match else (None, None)

    if isinstance(verdict, Certified):
        provenance = "cascade"
    elif match is not None and match[0].ke_at(match[1]) == "Y":
        provenance = match[0].klt_provenance
    else:
        provenance = "unknown"

    return CandidateRecord(
        candidate=c,
        mu=link.mu,
        b2_link=link.b2_link,
        b2_orbifold=link.b2_link + 1,
        l=link.b2_link,
        klt=verdict,
        klt_provenance=provenance,
        moduli_m=mod.m,
        moduli_dim_aut=mod.dim_aut,
        moduli_n=mod.n,
        series_id=series_id,
        series_k=series_k,
    )
