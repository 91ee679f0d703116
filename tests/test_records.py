import pytest

from delpezzo.errors import PreconditionError
from delpezzo.records import build_record
from delpezzo.weights import Candidate, normalize_weights


def cand(w, d):
    return Candidate(normalize_weights(w), d)


@pytest.mark.parametrize(
    "w,d,reason",
    [
        ((2, 2, 2, 3), 8, "not well-formed"),
        ((2, 3, 4, 5), 13, "not quasi-smooth"),
    ],
)
def test_build_record_checks_preconditions(w, d, reason):
    with pytest.raises(PreconditionError, match=reason):
        build_record(cand(w, d))

