"""Lossless record serialization: JSON, CSV, and presentation markdown.

JSON and CSV carry identical data and round-trip exactly; markdown is for
reading.  No record field is rational: every number is an exact integer.
"""

from __future__ import annotations

import csv
import io
import json

from .klt import Certified, KltVerdict, NotKltGate, Unknown
from .records import CandidateRecord
from .weights import Candidate, WeightSystem


def _klt_dict(v: KltVerdict, provenance: str) -> dict:
    if isinstance(v, Certified):
        return {
            "verdict": "certified",
            "rule": v.rule,
            "lhs": v.lhs,
            "rhs": v.rhs,
            "provenance": provenance,
        }
    if isinstance(v, NotKltGate):
        return {"verdict": "not_klt", "gate": v.gate, "provenance": provenance}
    return {"verdict": "unknown", "provenance": provenance}


def _klt_from_dict(d: dict) -> KltVerdict:
    if d["verdict"] == "certified":
        return Certified(rule=d["rule"], lhs=d["lhs"], rhs=d["rhs"])
    if d["verdict"] == "not_klt":
        return NotKltGate(gate=d["gate"])
    return Unknown()


def record_to_dict(r: CandidateRecord) -> dict:
    out = {
        "index": r.candidate.I,
        "weights": list(r.candidate.weights.w),
        "degree": r.candidate.d,
        "b2_orbifold": r.b2_orbifold,
        "b2_link": r.b2_link,
        "l": r.l,
        "mu": r.mu,
        "klt": _klt_dict(r.klt, r.klt_provenance),
        "moduli": {"m": r.moduli_m, "dimG": r.moduli_dim_aut, "n": r.moduli_n},
    }
    if r.series_id is not None:
        out["series"] = {"id": r.series_id, "k": r.series_k}
    return out


def record_from_dict(d: dict) -> CandidateRecord:
    cand = Candidate(WeightSystem(tuple(d["weights"])), d["degree"])
    verdict = _klt_from_dict(d["klt"])
    provenance = d["klt"]["provenance"]
    if isinstance(verdict, Certified):
        ke = "Y"
    elif isinstance(verdict, NotKltGate):
        ke = "N"
    else:
        ke = "Y" if provenance != "unknown" else "?"
    series = d.get("series")
    return CandidateRecord(
        candidate=cand,
        mu=d["mu"],
        b2_link=d["b2_link"],
        b2_orbifold=d["b2_orbifold"],
        l=d["l"],
        klt=verdict,
        klt_provenance=provenance,
        ke=ke,
        moduli_m=d["moduli"]["m"],
        moduli_dim_aut=d["moduli"]["dimG"],
        moduli_n=d["moduli"]["n"],
        series_id=series["id"] if series else None,
        series_k=series["k"] if series else None,
    )


def to_json(records: list[CandidateRecord]) -> str:
    return json.dumps([record_to_dict(r) for r in records], indent=1) + "\n"


def from_json(text: str) -> list[CandidateRecord]:
    return [record_from_dict(d) for d in json.loads(text)]


CSV_COLUMNS = [
    "index", "w0", "w1", "w2", "w3", "degree", "b2_orbifold", "b2_link", "l",
    "mu", "klt_verdict", "klt_rule", "klt_gate", "klt_lhs", "klt_rhs",
    "klt_provenance", "moduli_m", "moduli_dimG", "moduli_n", "series_id",
    "series_k",
]


def to_csv(records: list[CandidateRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        d = record_to_dict(r)
        klt = d["klt"]
        series = d.get("series", {})
        writer.writerow(
            [
                d["index"], *d["weights"], d["degree"], d["b2_orbifold"],
                d["b2_link"], d["l"], d["mu"], klt["verdict"],
                klt.get("rule", ""), klt.get("gate", ""), klt.get("lhs", ""),
                klt.get("rhs", ""), klt["provenance"], d["moduli"]["m"],
                d["moduli"]["dimG"], d["moduli"]["n"],
                series.get("id", ""), series.get("k", ""),
            ]
        )
    return buf.getvalue()


def from_csv(text: str) -> list[CandidateRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS, "unexpected CSV header"
    out = []
    for row in rows[1:]:
        rec = dict(zip(CSV_COLUMNS, row))
        klt: dict = {"verdict": rec["klt_verdict"], "provenance": rec["klt_provenance"]}
        if rec["klt_rule"]:
            klt.update(
                rule=rec["klt_rule"], lhs=int(rec["klt_lhs"]), rhs=int(rec["klt_rhs"])
            )
        if rec["klt_gate"]:
            klt["gate"] = rec["klt_gate"]
        d = {
            "index": int(rec["index"]),
            "weights": [int(rec[f"w{i}"]) for i in range(4)],
            "degree": int(rec["degree"]),
            "b2_orbifold": int(rec["b2_orbifold"]),
            "b2_link": int(rec["b2_link"]),
            "l": int(rec["l"]),
            "mu": int(rec["mu"]),
            "klt": klt,
            "moduli": {
                "m": int(rec["moduli_m"]),
                "dimG": int(rec["moduli_dimG"]),
                "n": int(rec["moduli_n"]),
            },
        }
        if rec["series_id"]:
            d["series"] = {"id": rec["series_id"], "k": int(rec["series_k"])}
        out.append(record_from_dict(d))
    return out


def to_markdown(records: list[CandidateRecord]) -> str:
    header = (
        "| I | weights | d | b2 | link | mu | K-E | certificate | m | dimG | n | series |\n"
        "|---|---------|---|----|------|----|-----|-------------|---|------|---|--------|\n"
    )
    lines = []
    for r in records:
        if isinstance(r.klt, Certified):
            cert = f"{r.klt.rule}: {r.klt.lhs} < {r.klt.rhs}"
        elif isinstance(r.klt, NotKltGate):
            cert = f"gate {r.klt.gate}"
        else:
            cert = "-" if r.klt_provenance == "unknown" else r.klt_provenance
        series = f"{r.series_id} k={r.series_k}" if r.series_id else ""
        lines.append(
            f"| {r.candidate.I} | {r.candidate.weights} | {r.candidate.d} "
            f"| {r.b2_orbifold} | #{r.l} | {r.mu} | {r.ke} | {cert} "
            f"| {r.moduli_m} | {r.moduli_dim_aut} | {r.moduli_n} | {series} |"
        )
    return header + "\n".join(lines) + ("\n" if lines else "")
