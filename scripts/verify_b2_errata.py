"""Re-derive the disputed b2 cells from explicit monodromy spectra.

For a quasi-homogeneous polynomial f with an isolated singularity, weights
w and degree d, the monodromy eigenvalues are exp(2*pi*i*(deg(m)+|w|)/d)
with m running over a monomial basis of the Milnor algebra C[z]/(grad f).
The link's second Betti number is the multiplicity of the eigenvalue 1.

This never touches the package's divisor calculus: the Milnor algebra is
computed by a Groebner basis (sympy), giving a fully independent check of
the four b2 errata recorded in the catalog, against a control row whose
printed value is consistent.

Requires sympy (not a package dependency); runs in about a second.
"""

import itertools
import sys

import sympy as sp

from delpezzo import catalog
from delpezzo.topology import diffeo_type
from delpezzo.weights import Candidate, normalize_weights

z0, z1, z2, z3 = sp.symbols("z0 z1 z2 z3")
ZS = (z0, z1, z2, z3)

# explicit quasi-smooth members with isolated singularities
MEMBERS = [
    ((2, 3, 5, 9), 18, z0**9 + z1**6 + z2**3 * z1 + z3**2, "control"),
    ((3, 3, 5, 5), 15,
     z0**5 + z1**5 + z0 * z1 * (z0**3 + z1**3) + z2**3 + z3**3 + z2 * z3 * (z2 + z3),
     "erratum b2-3355"),
    ((3, 4, 10, 15), 30, z0**10 + z2**3 + z3**2 + z1**5 * z2, "erratum b2-3-4-10-15"),
    ((5, 13, 19, 35), 70, z0**14 + z3**2 + z1**5 * z0 + z2**3 * z1,
     "erratum b2-5-13-19-35"),
    ((13, 14, 19, 29), 71, z0**4 * z2 + z1**3 * z3 + z2**3 * z1 + z3**2 * z0,
     "erratum b2-13-14-19-29"),
]


def spectrum(f, weights, d):
    """(mu, multiplicity of eigenvalue 1) from the Milnor algebra of f."""
    grads = [sp.expand(sp.diff(f, v)) for v in ZS]
    basis = sp.groebner(grads, *ZS, order="grevlex")
    leads = [lt.as_powers_dict() for lt in
             (sp.LT(g, order="grevlex") for g in basis.exprs)]
    pure = {}
    for lt in leads:
        vars_in = [v for v in ZS if lt.get(v, 0) > 0]
        if len(vars_in) == 1:
            pure[vars_in[0]] = min(pure.get(vars_in[0], 1 << 30), lt[vars_in[0]])
    if not all(v in pure for v in ZS):
        raise RuntimeError("singularity is not isolated for this member")
    lead_exps = [tuple(lt.get(v, 0) for v in ZS) for lt in leads]
    wsum = sum(weights)
    mu = b2 = 0
    for exps in itertools.product(*(range(pure[v]) for v in ZS)):
        if any(all(e >= le for e, le in zip(exps, lead)) for lead in lead_exps):
            continue
        mu += 1
        if (sum(e * w for e, w in zip(exps, weights)) + wsum) % d == 0:
            b2 += 1
    return mu, b2


def main() -> int:
    errata = catalog.b2_errata()
    failures = 0
    for weights, d, f, label in MEMBERS:
        for term in sp.Add.make_args(sp.expand(f)):
            powers = term.as_powers_dict()
            deg = sum(powers.get(v, 0) * w for v, w in zip(ZS, weights))
            assert deg == d, (label, term)
        mu, b2_spectrum = spectrum(f, weights, d)
        c = Candidate(normalize_weights(weights), d)
        b2_pkg = diffeo_type(c).b2_link
        err = errata.get((tuple(weights), d))
        expected = err["computed"]["b2"] - 1 if err else b2_pkg
        ok = b2_spectrum == b2_pkg == expected
        failures += 0 if ok else 1
        print(f"{label}: w={weights} d={d} mu={mu} spectrum b2={b2_spectrum} "
              f"divisor-calculus b2={b2_pkg} -> {'agree' if ok else 'DISAGREE'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
