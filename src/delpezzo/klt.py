"""Kähler-Einstein sufficiency: exclusion gates and the certificate cascade.

Two arithmetic gates (2I >= 3*w0, 2I = w0+w1) mark candidates for which the
log-terminality needed for the Kähler-Einstein construction provably fails.
Past the gates, three strict integer inequalities can certify existence:

  R1: 2*I*d < 3*w0*w1                        (unconditional)
  R2: 2*I*d < 3*w0*w2   if the line z0=z1=0 misses the general member
  R3: 2*I*d < 3*w0*w3   if the vertex (0,0,0,1) misses the general member

A candidate passing the gates but no rule stays Unknown; Unknown is a
first-class verdict, never collapsed to "not klt".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .quasismooth import require_hypersurface
from .weights import Candidate, pair_has_monomial

GATE_RULES = {"G1": "2I >= 3w0", "G2": "2I = w0+w1"}


@dataclass(frozen=True)
class NotKltGate:
    """`certify_KE`'s verdict on a gated candidate; no record carries it."""

    gate: str  # "G1" or "G2", as `gate_check` returns it

    def __str__(self) -> str:
        return f"NotKlt (gate {self.gate}: {GATE_RULES[self.gate]})"


@dataclass(frozen=True)
class Certified:
    rule: str  # "R1", "R2" or "R3"
    lhs: int  # 2*I*d
    rhs: int  # 3*w0*w_i for the rule's weight

    def __post_init__(self):
        if not self.lhs < self.rhs:
            raise ValueError(f"certificate not strict: {self.lhs} < {self.rhs} fails")

    def __str__(self) -> str:
        return f"Certified (rule {self.rule}: {self.lhs} < {self.rhs})"


@dataclass(frozen=True)
class Unknown:
    def __str__(self) -> str:
        return "Unknown"


KltVerdict = Union[NotKltGate, Certified, Unknown]


def gate_check(c: Candidate) -> str | None:
    """First failing gate ("G1" before "G2"), or None if both pass."""
    w = c.weights.w
    if 2 * c.I >= 3 * w[0]:
        return "G1"
    if 2 * c.I == w[0] + w[1]:
        return "G2"
    return None


def certify_KE(c: Candidate) -> KltVerdict:
    """Run the gate checks, then the rule cascade R1, R2, R3 in order.

    Requires a candidate that passes `require_hypersurface`; the verdict is
    undefined otherwise and the call is rejected.
    """
    require_hypersurface(c)
    gate = gate_check(c)
    return NotKltGate(gate) if gate is not None else _cascade(c)


def _cascade(c: Candidate) -> Certified | Unknown:
    """The rules R1, R2, R3 in order, for a candidate already past the gates
    and `require_hypersurface`, as every record's is.  R2 needs some
    z2^a z3^b of degree d, so that z0=z1=0 misses the general member; R3
    needs w3 | d, so that z3^(d/w3) keeps (0,0,0,1) off it."""
    w, d = c.weights.w, c.d
    lhs = 2 * c.I * d
    if lhs < 3 * w[0] * w[1]:
        return Certified("R1", lhs, 3 * w[0] * w[1])
    if pair_has_monomial(w[2], w[3], d) and lhs < 3 * w[0] * w[2]:
        return Certified("R2", lhs, 3 * w[0] * w[2])
    if d % w[3] == 0 and lhs < 3 * w[0] * w[3]:
        return Certified("R3", lhs, 3 * w[0] * w[3])
    return Unknown()
