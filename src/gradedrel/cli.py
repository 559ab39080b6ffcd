"""Command-line front end.

Every subcommand builds one report dict; `--json` prints it as JSON and the
default human view renders the same dict, so the two outputs carry identical
data.  `main` writes either view to stdout as it is encoded, so the whole
output is never held as one string.  Exit statuses: 0 success or claim holds, 1 violation or counterexample
found, 2 usage, parse, precondition, or resource errors.

`run` builds its argument parser on the first call and reuses it for every
later call in the process; `build_parser()` still returns a fresh parser.
Each distinct command line is parsed once per process: the parsed
arguments of up to 16 command lines, least recently used dropped first,
are kept and shared by later calls with the same arguments.  A failed
parse, `--help` included, is never kept, so it prints and exits the same
every time.
Every call reads its files afresh.  A system text equal to the one the
previous call parsed reuses that parsed system, with the level table, the
admissible family record (the closure and the column pass that decides
both hull modes and their witnesses), axiom reports, the analysis of the
last map read and the labeler that turns masks into label lists memoised
on it, so the reports on one unchanged file share that work.  A file that
is not UTF-8 text is an i/o error, exit 2.

The labeler holds one table per byte position of a mask, from a byte value
to the labels of its points, filled on first use.  It labels a sequence of
masks at once: every mask's byte at one position is read through that
position's table with one map, and the positions are concatenated per mask.
The hulls report labels its whole family in one such call; a single mask is
a sequence of one.

Each command runs with the cyclic garbage collector paused, and the
collector is re-enabled afterwards only if it was on before, also when the
command raises; parsing and rendering stay outside the pause.  No command
makes a reference cycle: a report is a tree of fresh containers, and the
map analysis points back to its system through a weak reference, so
reference counting alone frees everything a command makes.  Without the
pause the collector scans a growing report many times over; with it, a
report is scanned about once, at the first collection after the command.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import sys as _sysmod
from operator import concat, methodcaller
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import hulls as hulls_mod
from .dyadic import DyadicValue
from .dynamics import (
    SelfMap,
    _analysis,
    is_nonexpansive,
    ks_dichotomy,
    regular_fixed_point,
    VARIANTS,
)
from .errors import GradedRelError, UsageError
from .formats import (
    CounterexampleBundle,
    FormatError,
    parse_distance_matrix,
    parse_selfmap,
    parse_system,
    serialize_bundle,
    serialize_system,
)
from .harness import CLAIMS, falsify
from .hulls import (
    ARBITRARY_CENTER,
    PAPER_COV,
    check_compact_structure,
    check_normal_structure,
    check_spherical_completeness,
)
from .relations import RelationalSystem, Top, check_axiom
from .semimetric import TripleWitness, classify, ingest_distance_matrix

MODE_NAMES = {"paper": PAPER_COV, "closure": ARBITRARY_CENTER}


def _jsonify(obj):
    """Plain-data view of report values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Top):
        return "TOP"
    if isinstance(obj, DyadicValue):
        return str(obj)
    return [_jsonify(v) for v in obj]


class _ByteLabels(dict):
    """The labels of the points a byte holds at one byte position of a
    mask, lowest point first, by byte value.  An entry is filled on first
    use, from the entry without its lowest bit."""

    def __init__(self, labels: Sequence[str]):
        super().__init__({0: ()})
        self.labels = labels  # of the up to eight points at this position

    def __missing__(self, byte: int) -> tuple[str, ...]:
        low = byte & -byte
        entry = self[byte] = (self.labels[low.bit_length() - 1], *self[byte ^ low])
        return entry


def _labeler(sys: RelationalSystem) -> Callable[[Iterable[int]], Iterator[list[str]]]:
    """The labels of each mask's members, lowest point first, mask by mask,
    memoised on the system: the masks' little-endian bytes are joined once,
    each byte position is read through its _ByteLabels table with one map,
    and the positions are concatenated per mask."""
    return sys.cached("labeler", _build_labeler)


def _build_labeler(sys: RelationalSystem) -> Callable[[Iterable[int]], Iterator[list[str]]]:
    size = (sys.n + 7) // 8
    tables = [_ByteLabels(sys.labels[i : i + 8]) for i in range(0, sys.n, 8)]
    to_bytes = methodcaller("to_bytes", size, "little")
    concat_positions = functools.partial(map, concat)

    def labeler(masks: Iterable[int]) -> Iterator[list[str]]:
        matrix = b"".join(map(to_bytes, masks))
        cols = [map(table.__getitem__, matrix[j::size]) for j, table in enumerate(tables)]
        return map(list, functools.reduce(concat_positions, cols))

    return labeler


def _members(sys: RelationalSystem, bits: int) -> list[str]:
    """The labels of a mask's members, lowest point first."""
    [members] = _labeler(sys)((bits,))
    return members


def _axiom_dict(sys: RelationalSystem, axiom_id: str) -> dict:
    rep = check_axiom(sys, axiom_id)
    out = {"holds": rep.holds}
    if rep.witness is not None:
        out["witness"] = _jsonify(rep.witness)
    if rep.bound_grade is not None:
        out["bound_grade"] = _jsonify(rep.bound_grade)
    return out


def _triple_dict(sys: RelationalSystem, w: Optional[TripleWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "x": sys.labels[w.x],
        "z": sys.labels[w.z],
        "y": sys.labels[w.y],
        "d_xy": str(w.d_xy),
        "d_xz": str(w.d_xz),
        "d_zy": str(w.d_zy),
    }


def _system_dict(sys: RelationalSystem) -> dict:
    grades = list(map(list, sys.grades.entries))
    for i, row in enumerate(grades):
        row[i] = "-"
    return {
        "points": sys.n,
        "labels": list(sys.labels),
        "window": [sys.window.lo, sys.window.hi],
        "grades": grades,
    }


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            # the decode error does not know the file; `run` reports this
            # as an io error, exit 2
            raise OSError(
                f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from exc


@functools.lru_cache(maxsize=1)
def _parsed(text: str) -> RelationalSystem:
    # the last text parsed and its system, so consecutive reports on one
    # unchanged file share its memos; a failed parse stores nothing
    return parse_system(text)


def _load_system(path: str) -> RelationalSystem:
    return _parsed(_read_text(path))


def _load_map(path: str, sys: RelationalSystem) -> SelfMap:
    t = parse_selfmap(_read_text(path))
    if t.n != sys.n:
        raise UsageError(f"map covers {t.n} points but the system has {sys.n}")
    return t


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(ns) -> tuple[int, dict]:
    sys = _load_system(ns.system)
    report = {
        "command": "validate",
        "file": ns.system,
        "valid": True,
        "diagnostics": [],
        "system": _system_dict(sys),
        "axioms": {a: _axiom_dict(sys, a) for a in ("r5", "r9", "r10", "transitive")},
    }
    return 0, report


def _cmd_classify(ns) -> tuple[int, dict]:
    sys = _load_system(ns.system)
    rep = classify(sys)
    report = {
        "command": "classify",
        "file": ns.system,
        "class_label": rep.class_label,
        "is_semimetric": rep.is_semimetric,
        "semimetric_witness": _jsonify(rep.semimetric_witness),
        "minimal_inframetric_c": str(rep.minimal_inframetric_c),
        "triangle": {
            "holds": rep.triangle_holds,
            "witness": _triple_dict(sys, rep.triangle_witness),
        },
        "strong_triangle": {
            "holds": rep.strong_triangle_holds,
            "witness": _triple_dict(sys, rep.strong_triangle_witness),
        },
        "axioms": {
            "r9": {"holds": rep.r9.holds},
            "r10": {"holds": rep.r10.holds},
            "transitive": {"holds": rep.transitive.holds},
        },
    }
    status = 0 if (rep.is_semimetric and rep.triangle_holds) else 1
    return status, report


def _cmd_hulls(ns) -> tuple[int, dict]:
    # streamed from the memoised masks: no AdmissibleSet is built, each
    # distinct (center, level) witness ball is one shared dict, and the
    # members are labelled all at once
    sys = _load_system(ns.system)
    mode = MODE_NAMES[ns.mode]
    labels = sys.labels
    masks, witnesses = hulls_mod._witnessed_members(
        sys, mode, lambda pair: {"center": labels[pair[0]], "level": pair[1]}
    )
    family = [
        {"members": members, "witness_balls": witness}
        for members, witness in zip(_labeler(sys)(masks), witnesses, strict=True)
    ]
    report = {
        "command": "hulls",
        "file": ns.system,
        "mode": mode,
        "count": len(family),
        "family": family,
    }
    return 0, report


def _structure_dict(sys: RelationalSystem, rep) -> dict:
    # only a normal-structure report carries a witness
    out = {"holds": rep.holds, "note": rep.note}
    if rep.witness is not None:
        adm, rad = rep.witness
        out["witness"] = {
            "set": _members(sys, adm.points.bits),
            "mode": adm.mode,
            "cheb_radius": str(rad.cheb_radius),
            "diameter": str(rad.diameter),
            "cheb_grade": _jsonify(rad.cheb_grade),
            "diam_grade": _jsonify(rad.diam_grade),
        }
    return out


def _cmd_structure(ns) -> tuple[int, dict]:
    sys = _load_system(ns.system)
    normal = check_normal_structure(sys)
    compact = check_compact_structure(sys)
    spherical = check_spherical_completeness(sys)
    report = {
        "command": "structure",
        "file": ns.system,
        "compact_structure": _structure_dict(sys, compact),
        "normal_structure": _structure_dict(sys, normal),
        "spherically_complete": _structure_dict(sys, spherical),
    }
    status = 0 if (compact.holds and normal.holds and spherical.holds) else 1
    return status, report


def _map_check_dict(sys: RelationalSystem, rep, value_key: str) -> dict:
    out = {"holds": rep.holds}
    if rep.witness is not None:
        x, y, v, v_img = rep.witness
        out["witness"] = {
            "x": sys.labels[x],
            "y": sys.labels[y],
            value_key: _jsonify(v),
            f"image_{value_key}": _jsonify(v_img),
        }
    else:
        out["witness"] = None
    return out


def _cmd_dynamics(ns) -> tuple[int, dict]:
    sys = _load_system(ns.system)
    t = _load_map(ns.map, sys)
    a = _analysis(sys, t)
    non = is_nonexpansive(sys, t)
    per_point = []
    for x, (orb, reg) in enumerate(zip(a.orbits, a.regularity)):
        per_point.append(
            {
                "point": sys.labels[x],
                "image": sys.labels[t.image[x]],
                "orbit": {
                    "tail": [sys.labels[p] for p in orb.tail],
                    "cycle": [sys.labels[p] for p in orb.cycle],
                    "grade_trace": _jsonify(orb.grade_trace),
                },
                "regularity": {
                    "is_fixed": reg.is_fixed,
                    "regular": reg.regular,
                    "regular_offset": reg.regular_offset,
                    "asymptotically_regular": reg.asymptotically_regular,
                    "asymptotic_offset": reg.asymptotic_offset,
                    "weak_regular": reg.weak_regular,
                    "classical_asymptotic": reg.classical_asymptotic,
                },
            }
        )
    report = {
        "command": "dynamics",
        "system": ns.system,
        "map": ns.map,
        "homomorphism": _map_check_dict(sys, a.hom, "grade"),
        "nonexpansive": _map_check_dict(sys, non, "distance"),
        "fixed_points": _members(sys, a.fixed),
        "per_point": per_point,
    }
    return (0 if a.hom.holds else 1), report


def _cmd_fixpoint(ns) -> tuple[int, dict]:
    # the invariant balls are listed once, and both variants share the list
    sys = _load_system(ns.system)
    t = _load_map(ns.map, sys)
    a = _analysis(sys, t)
    dich = ks_dichotomy(sys, t)
    labels = sys.labels
    label = _labeler(sys)
    balls = [
        {
            "members": members,
            "names": [[labels[c], lev] for c, lev in b.names],
            "fixed_inside": fixed_inside,
        }
        for b, members, fixed_inside in zip(
            a.invariant_balls,
            label(b.ball.bits for b in a.invariant_balls),
            label(b.fixed_inside.bits for b in a.invariant_balls),
            strict=True,
        )
    ]
    report = {
        "command": "fixpoint",
        "system": ns.system,
        "map": ns.map,
        "fixed_points": _members(sys, a.fixed),
        "hypotheses": {
            "transitive": check_axiom(sys, "transitive").holds,
            "homomorphism": a.hom.holds,
        },
        "minimal_invariant_admissible": (
            list(label(a.min_admissible)) if a.hom.holds else None
        ),
        "minimal_invariant_balls": [
            {
                "center": labels[c],
                "level": lev,
                "members": _members(sys, sys.level_rows(lev)[c]),
            }
            for c, lev in a.min_balls
        ],
        "dichotomy": {
            "hypotheses_met": dich.hypotheses_met,
            "unmet": list(dich.unmet),
            "entries": [
                {
                    "point": labels[e.point],
                    "level": e.level,
                    "ball": ball,
                    "outcome": e.outcome,
                    "witness": _jsonify(e.witness),
                }
                for e, ball in zip(
                    dich.entries, label(e.ball.bits for e in dich.entries), strict=True
                )
            ],
        },
    }
    rfp = {}
    for variant in VARIANTS:
        rep = regular_fixed_point(sys, t, variant)
        rfp[variant] = {
            "hypotheses_met": rep.hypotheses_met,
            "unmet": list(rep.unmet),
            "verdict": rep.verdict,
            "balls": balls,
        }
    report["regular_fixed_point"] = rfp
    violated = (dich.hypotheses_met and dich.has_neither) or any(
        rfp[v]["verdict"] == "falsified" for v in VARIANTS
    )
    return (1 if violated else 0), report


def _cmd_falsify(ns) -> tuple[int, dict]:
    if ns.trials < 1:
        raise UsageError("--trials must be at least 1")
    verdict = falsify(ns.claim, ns.trials, ns.seed)
    report = {
        "command": "falsify",
        "claim": verdict.claim_id,
        "description": CLAIMS[verdict.claim_id].description,
        "trials": verdict.trials,
        "seed": verdict.seed,
        "outcome": verdict.outcome,
        "vacuous_trials": verdict.vacuous_trials,
    }
    if verdict.instance is not None:
        inst = verdict.instance
        report["instance"] = {
            "trial_index": inst.trial_index,
            "locus": inst.locus,
            "system": _system_dict(inst.system),
            "selfmap": list(inst.selfmap.image) if inst.selfmap is not None else None,
        }
        if ns.out:
            bundle = CounterexampleBundle(
                verdict.claim_id,
                verdict.seed,
                inst.trial_index,
                inst.locus,
                inst.system,
                inst.selfmap,
            )
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(serialize_bundle(bundle))
            report["written"] = ns.out
    return (1 if verdict.outcome == "counterexample" else 0), report


def _cmd_ingest(ns) -> tuple[int, dict]:
    rows = parse_distance_matrix(_read_text(ns.matrix))
    lo, hi = ns.window
    sys = ingest_distance_matrix(rows, (lo, hi))
    text = serialize_system(sys)
    report = {
        "command": "ingest",
        "file": ns.matrix,
        "window": [lo, hi],
        "system": _system_dict(sys),
    }
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        report["written"] = ns.out
    else:
        report["text"] = text
    return 0, report


# ---------------------------------------------------------------------------
# dispatch and rendering


def build_parser() -> argparse.ArgumentParser:
    # the output flags ride on every subparser too, so they work on either
    # side of the subcommand; SUPPRESS keeps the subparser from clobbering
    # a flag given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit the report as JSON",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="suppress the report",
    )

    parser = argparse.ArgumentParser(
        prog="gradedrel",
        description="Graded relational systems: validation, classification, "
        "hull geometry, dynamics, and claim falsification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add("validate", "parse and structurally check a system file")
    p.add_argument("system")

    p = add("classify", "classify the induced distance")
    p.add_argument("system")

    p = add("hulls", "enumerate the admissible family")
    p.add_argument("system")
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="paper")

    p = add("structure", "compact, normal, and spherical reports")
    p.add_argument("system")

    p = add("dynamics", "map checks, orbits, regularity")
    p.add_argument("system")
    p.add_argument("map")

    p = add("fixpoint", "fixed points, invariant sets, dichotomy")
    p.add_argument("system")
    p.add_argument("map")

    p = add("falsify", "search for a claim counterexample")
    p.add_argument("claim", choices=sorted(CLAIMS))
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="write the counterexample bundle here")

    p = add("ingest", "grade a distance matrix into a window")
    p.add_argument("matrix")
    p.add_argument("--window", nargs=2, type=int, required=True, metavar=("LO", "HI"))
    p.add_argument("-o", "--out", help="write the system file here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first `run`, then shared: parsing only reads the parser
    return build_parser()


_DISPATCH = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "hulls": _cmd_hulls,
    "structure": _cmd_structure,
    "dynamics": _cmd_dynamics,
    "fixpoint": _cmd_fixpoint,
    "falsify": _cmd_falsify,
    "ingest": _cmd_ingest,
}


@functools.lru_cache(maxsize=16)
def _parsed_args(argv: tuple[str, ...]) -> argparse.Namespace:
    # one parse per distinct command line, shared by every later call, so
    # the commands only read the namespace; a SystemExit (a usage error or
    # help) propagates and stores nothing
    return _parser().parse_args(list(argv))


def _parse(argv: Sequence[str]) -> Union[argparse.Namespace, int]:
    """The parsed command line, or the exit status argparse stopped with."""
    try:
        return _parsed_args(tuple(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code if code else 0


def run(argv: Sequence[str]) -> tuple[int, dict]:
    """Execute one command line; returns (exit status, report dict)."""
    ns = _parse(argv)
    if isinstance(ns, int):
        return ns, {}
    return _execute(ns)


def _execute(ns: argparse.Namespace) -> tuple[int, dict]:
    # the cyclic collector is paused while the command runs: a report is a
    # tree of fresh containers, and reference counting frees all of it
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _DISPATCH[ns.command](ns)
    except FormatError as exc:
        d = exc.diagnostic
        return 2, {
            "command": ns.command,
            "error": {
                "kind": "parse",
                "code": d.code,
                "line": d.line,
                "column": d.column,
                "message": d.message,
            },
        }
    except GradedRelError as exc:
        return 2, {
            "command": ns.command,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
    except OSError as exc:
        return 2, {
            "command": ns.command,
            "error": {"kind": "io", "message": str(exc)},
        }
    finally:
        if enabled:
            gc.enable()


def render_human(report: dict) -> str:
    """Indented key/value view carrying exactly the JSON report's data."""
    buf = io.StringIO()
    _emit_human(report, buf.write)
    return buf.getvalue()


def _emit_human(report: dict, write: Callable[[str], object]) -> None:
    # the human view, passed to `write` a line at a time
    def emit(value, indent: int, key: Optional[str] = None):
        pad = "  " * indent
        lead = f"{pad}{key}: " if key is not None else pad
        if isinstance(value, dict):
            if key is not None:
                write(f"{pad}{key}:\n")
            for k, v in value.items():
                emit(v, indent + (0 if key is None else 1), k)
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                write(lead + "[" + ", ".join(json.dumps(v) for v in value) + "]\n")
            else:
                if key is not None:
                    write(f"{pad}{key}:\n")
                for v in value:
                    inner = indent + (0 if key is None else 1)
                    write("  " * inner + "-\n")
                    emit(v, inner + 1)
        else:
            write(lead + json.dumps(value) + "\n")

    emit(report, 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _parse(_sysmod.argv[1:] if argv is None else argv)
    if isinstance(ns, int):
        return ns
    status, report = _execute(ns)
    # the flags come from the parse, which also accepts unique prefixes;
    # each report is written as it is encoded, never held as one string
    if not getattr(ns, "quiet", False) and report:
        out = _sysmod.stdout
        if getattr(ns, "json", False):
            json.dump(report, out, indent=2)
            out.write("\n")
        else:
            _emit_human(report, out.write)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
