"""Output checks that run outside the timed region.

Three kinds: a digest of each completed report compared with the digests
recorded in `digests.json`, invariants the paper guarantees for every input,
and a brute-force oracle for the paper hull family on small systems.
"""

from __future__ import annotations

import hashlib
import json

# report keys that hold the input file paths, which differ between checkouts
_PATH_KEYS = ("file", "system", "map")


def digest(report: dict) -> str:
    """Short content hash of a report, with input paths left out."""
    body = {k: v for k, v in report.items() if not (k in _PATH_KEYS and isinstance(v, str))}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def input_key(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def paper_family_oracle(grades: list[list]) -> set[frozenset]:
    """Fixed points of the paper-cov hull over all nonempty subsets.

    The hull of S intersects, for each x in S, the ball at x of the smallest
    grade from x into S; S is admissible when that intersection is S.
    """
    n = len(grades)
    full = (1 << n) - 1
    # ball_at[x][level]: points whose grade against x is at least level
    levels = sorted({g for row in grades for g in row if g is not None})
    ball_at = [
        {lev: sum(1 << y for y in range(n) if y == x or grades[x][y] >= lev) for lev in levels}
        for x in range(n)
    ]
    out = set()
    for bits in range(1, full + 1):
        members = [x for x in range(n) if bits >> x & 1]
        hull = full
        for x in members:
            others = [grades[x][y] for y in members if y != x]
            if others:
                hull &= ball_at[x][min(others)]
            else:
                hull &= 1 << x
        if hull == bits:
            out.add(frozenset(members))
    return out


def _family_sets(report: dict, labels: list[str]) -> set[frozenset]:
    index = {lab: i for i, lab in enumerate(labels)}
    return {frozenset(index[m] for m in entry["members"]) for entry in report["family"]}


def check_analyze(sample, reports: dict) -> list[tuple[str, str]]:
    """Invariant violations across one system's completed reports, as
    (operation, message) pairs."""
    bad = []
    n = sample.n
    labels = [f"p{i}" for i in range(n)]
    rep = reports.get("validate")
    if rep is not None:
        axioms = rep["axioms"]
        if sample.constraint in ("r9", "transitive") and not axioms[sample.constraint]["holds"]:
            bad.append(("validate", f"{sample.constraint} reported violated"))
    rep = reports.get("classify")
    if rep is not None and sample.constraint == "transitive" and rep["class_label"] != "ultrametric":
        bad.append(("classify", f"transitive system labelled {rep['class_label']}"))
    families = {}
    for mode in ("paper", "closure"):
        rep = reports.get(f"hulls-{mode}")
        if rep is None:
            continue
        fam = _family_sets(rep, labels)
        families[mode] = fam
        if rep["count"] != len(rep["family"]) or len(fam) != rep["count"]:
            bad.append((f"hulls-{mode}", "count disagrees with the family listed"))
        if frozenset(range(n)) not in fam or any(frozenset([x]) not in fam for x in range(n)):
            bad.append((f"hulls-{mode}", "a singleton or the whole set is missing"))
    if len(families) == 2 and not families["paper"] <= families["closure"]:
        bad.append(("hulls-paper", "paper family is not inside the closure family"))
    if "paper" in families and sample.oracle and families["paper"] != paper_family_oracle(sample.grades):
        bad.append(("hulls-paper", "family differs from the brute-force oracle"))
    rep = reports.get("structure")
    if rep is not None:
        if n >= 2 and rep["normal_structure"]["holds"]:
            bad.append(("structure", "normal structure reported on a finite system"))
        if not rep["compact_structure"]["holds"] or not rep["spherically_complete"]["holds"]:
            bad.append(("structure", "compactness or spherical completeness fails"))
    rep = reports.get("dynamics")
    if rep is not None and sample.grade_preserving and not rep["homomorphism"]["holds"]:
        bad.append(("dynamics", "grade-preserving map reported as not preserving"))
    rep = reports.get("fixpoint")
    if rep is not None and sample.constraint == "transitive" and sample.grade_preserving:
        if any(e["outcome"] == "NEITHER" for e in rep["dichotomy"]["entries"]):
            bad.append(("fixpoint", "NEITHER entry on a transitive system with a preserving map"))
        if any(v["verdict"] == "falsified" for v in rep["regular_fixed_point"].values()):
            bad.append(("fixpoint", "falsified verdict on a transitive system with a preserving map"))
    return bad


KNOWN_FALSE = "prop-r10-metric"


def check_falsify(claim: str, report: dict) -> list[tuple[str, str]]:
    found = report["outcome"] == "counterexample"
    if claim == KNOWN_FALSE and not found:
        return [("falsify", f"{claim}: the known counterexample was not found")]
    if claim != KNOWN_FALSE and found:
        return [("falsify", f"{claim}: unexpected counterexample")]
    return []
