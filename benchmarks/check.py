"""Answers of benchmark jobs and the checks applied to them.

An answer is read back from a job's artifacts and split by how it is
compared with the reference answer recorded in ``reference.json``:

- ``exact``: sizes, statuses, K, exact costs, counts; must be equal.
- ``abs``: certificates and other values of order one; within 1e-9.
- ``rel``: experiment losses and risks; within 1e-9 relative.

Byte-identical artifacts are not required, so a faithful faster
implementation may change the last bits of a float.  Invariants from the
paper are checked on every job in addition to the reference.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

ABS_TOL = 1e-9
REL_TOL = 1e-9
SANDWICH_SLACK = 1e-9


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _certificates(out: Path) -> dict:
    cert = _json(out / "certification.json")
    values = {"eps_weak": cert["eps_weak"], "eps_strong": cert["eps_strong"]}
    for label, norm in (cert.get("per_irrep_norms") or {}).items():
        values[f"norm:{label}"] = norm
    return values


def extract(kind: str, out: Path) -> dict:
    """Answer of a finished job of the given kind, read from ``out``."""
    if kind == "separation":
        (row,) = _csv_rows(out / "separation.csv")
        exact = {k: int(row[k]) for k in ("order", "K", "exact_cost", "approx_cost", "seed")}
        exact["status"] = row["status"]
        return {"exact": exact, "abs": {}, "rel": {}}
    if kind == "lowerbound":
        (report,) = _json(out / "lowerbound.json")["reports"]
        return {
            "exact": {"generates": report["generates"], "support_size": report["support_size"]},
            "abs": {"eps": report["eps_weak_on_regular"]},
            "rel": {},
        }
    if kind == "certify":
        cert = _json(out / "certification.json")
        exact = {"method": cert["method"], "degenerate": cert["degenerate"],
                 "size": _json(out / "scheme.json")["size"]}
        return {"exact": exact, "abs": _certificates(out), "rel": {}}
    if kind == "sample":
        exact = {"draws": _json(out / "certification.json")["draws"],
                 "size": _json(out / "scheme.json")["size"]}
        return {"exact": exact, "abs": _certificates(out), "rel": {}}
    if kind == "kbound":
        payload = _json(out / "kbound.json")
        return {"exact": {"k_bound": payload["k_bound"], "order": payload["order"]},
                "abs": {}, "rel": {}}
    if kind == "irreps":
        info = _json(out / "irreps_info.json")
        exact = {"count": info["count"], "dims": info["dims"],
                 "sum_squared_dims": info["sum_squared_dims"]}
        sums = {}
        for row in _csv_rows(out / "character_table.csv"):
            label = row.pop("irrep")
            values = [complex(cell.replace("i", "j")) for cell in row.values()]
            sums[f"chi_sum:{label}.re"] = sum(v.real for v in values)
            sums[f"chi_sum:{label}.im"] = sum(v.imag for v in values)
        return {"exact": exact, "abs": sums, "rel": {}}
    if kind == "minimize":
        search = _json(out / "search.json")
        return {
            "exact": {"status": search["status"], "size": search["size"]},
            "abs": {"eps": search["eps"], "eps_target": search["eps_target"]},
            "rel": {},
        }
    if kind == "mlp":
        rel = {f"loss:{r['subset_size']}": float(r["test_loss"])
               for r in _csv_rows(out / "loss_vs_subset.csv")}
        last = _csv_rows(out / "loss_vs_epoch.csv")[-1]
        rel["final_epoch_plain"] = float(last["test_loss_plain"])
        rel["final_epoch_averaged"] = float(last["test_loss_averaged"])
        return {"exact": {}, "abs": {}, "rel": rel}
    if kind == "regress":
        rows = _csv_rows(out / "regression.csv")
        rel = {}
        for r in rows:
            rel[f"risk:{r['estimator']}"] = float(r["risk"])
            rel[f"stderr:{r['estimator']}"] = float(r["stderr"])
        return {"exact": {"m": int(rows[0]["m"]), "m_triv": int(rows[0]["m_triv"])},
                "abs": {}, "rel": rel}
    if kind == "figure1":
        summary = _json(out / "figure1_summary.json")
        rel = {f"rel_l2:{m}": v for m, v in summary["rel_l2_to_full"].items()}
        return {"exact": {"grid": summary["grid"]}, "abs": {}, "rel": rel}
    raise KeyError(kind)


def compare(reference: dict, answer: dict) -> list[str]:
    """Mismatches between an answer and its reference, one message each."""
    problems = []
    for field in ("exact", "abs", "rel"):
        ref, got = reference[field], answer[field]
        if set(ref) != set(got):
            problems.append(f"{field} keys differ: {sorted(set(ref) ^ set(got))}")
            continue
        for name, want in ref.items():
            have = got[name]
            if field == "exact":
                ok = have == want
            elif field == "abs":
                ok = abs(have - want) <= ABS_TOL
            else:
                ok = abs(have - want) <= REL_TOL * max(abs(have), abs(want))
            if not ok:
                problems.append(f"{name}: got {have!r}, reference {want!r}")
    return problems


def invariants(kind: str, params: dict, answer: dict) -> list[str]:
    """Violated invariants of one answer, one message each."""
    problems = []
    if kind in ("certify", "sample"):
        weak, strong = answer["abs"]["eps_weak"], answer["abs"]["eps_strong"]
        if not (0.0 <= weak <= strong + SANDWICH_SLACK and strong <= 4.0 * weak + SANDWICH_SLACK):
            problems.append(f"sandwich 0 <= weak <= strong <= 4 weak fails: {weak!r}, {strong!r}")
    if kind == "minimize" and answer["exact"]["status"] == "ok":
        if answer["abs"]["eps"] > params["eps_target"]:
            problems.append(f"status ok but eps {answer['abs']['eps']!r} exceeds the target")
    if kind == "separation":
        d, exact = params["d"], answer["exact"]
        if exact["exact_cost"] != 1 << d:
            problems.append(f"exact cost {exact['exact_cost']} != 2^{d}")
        if d >= 4 and not exact["approx_cost"] < 1 << d:
            problems.append(f"approx cost {exact['approx_cost']} not below 2^{d}")
    if kind == "lowerbound":
        if answer["exact"]["generates"] or answer["abs"]["eps"] < 1.0 - SANDWICH_SLACK:
            problems.append("a non-generating support must certify eps >= 1")
    return problems
