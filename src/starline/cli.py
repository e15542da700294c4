"""Command-line interface.

One executable, ten subcommands, four exit codes: 0 when the requested
property holds (or the computation simply succeeded), 1 when a checked
property fails (a violated coloring, a failed audit, a sweep
counterexample), 2 for usage or input-format problems, 3 for an internal
error (a defect of this toolkit, such as a certificate its own verifier
rejects), reported as one ``internal error:`` line on stderr.  Every human
report ends with a single line starting with ``RESULT:`` so scripts can
grep one line per invocation; ``--json`` replaces the report with one
machine-readable document.  Graph files may be edge lists or graph6;
``-`` reads standard input.  A leading integer line means edge list,
anything else is treated as graph6 (graph6 bytes can never start with a
digit), and a ``.g6`` suffix forces graph6.  A file with a ``.canon``
suffix holds one canonical form as a hex token, such as a sweep prints
after ``counterexample``, so every reported graph can be re-run.

The conjecture check in ``sweep`` is reported but never affects the exit
code: a counterexample there would be a finding to publish, not a broken
invariant of this toolkit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import atlas, discharge
from .density import girth, mad
from .multigraph import (
    FormatError,
    Multigraph,
    decode_canonical,
    parse_edge_list,
    parse_graph6,
)
from .starcolor import (
    emit_coloring,
    find_violation,
    is_star_coloring,
    parse_coloring,
    star_chromatic_index,
)
from .structure import covers_cube, lemma_audit

PASS = 0
FAIL = 1
USAGE = 2
INTERNAL = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="ascii") as fh:
        return fh.read()


def load_graph(path: str) -> Multigraph:
    text = _read_text(path)
    if path.endswith(".g6"):
        return parse_graph6(text)
    if path.endswith(".canon"):
        tokens = text.split()
        if len(tokens) != 1:
            raise FormatError(f"{path}: expected one canonical-form hex token")
        try:
            form = bytes.fromhex(tokens[0])
        except ValueError:
            raise FormatError(f"{path}: canonical form is not hex") from None
        return decode_canonical(form)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            int(line.split()[0])
        except ValueError:
            return parse_graph6(text)
        return parse_edge_list(text)
    raise FormatError(f"{path}: no graph data found")


def _frac(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_chi(args) -> int:
    g = load_graph(args.file)
    stats: dict[int, int] | None = {} if args.stats else None
    found = star_chromatic_index(g, max_k=args.max_k, stats=stats)
    for k, nodes in (stats or {}).items():
        verdict = "feasible" if found is not None and k == found[0] else "infeasible"
        print(f"stats k={k} {verdict} nodes={nodes}", file=sys.stderr)
    if found is None:
        if args.json:
            _emit_json({"n": g.n, "m": g.m, "chi_s": None, "max_k": args.max_k})
        else:
            print(f"n={g.n} m={g.m}")
            print(f"no star coloring with at most {args.max_k} colors")
            print(f"RESULT: >{args.max_k}")
        return FAIL
    chi, cert = found
    if not (cert.is_total(g.m) and is_star_coloring(g, cert)):
        raise RuntimeError("solver produced a certificate the verifier rejects")
    if args.cert:
        with open(args.cert, "w", encoding="ascii") as fh:
            fh.write(emit_coloring(cert))
    if args.json:
        _emit_json(
            {
                "n": g.n,
                "m": g.m,
                "chi_s": chi,
                "coloring": {str(e): c for e, c in cert.assignment.items()},
            }
        )
    else:
        print(f"n={g.n} m={g.m}")
        print(f"chi_s = {chi}")
        print(f"RESULT: {chi}")
    return PASS


def _cmd_verify(args) -> int:
    g = load_graph(args.file)
    coloring = parse_coloring(_read_text(args.coloring))
    if not coloring.is_total(g.m):
        missing = [e for e in range(g.m) if coloring.color(e) is None]
        raise FormatError(
            f"coloring is partial: {len(missing)} of {g.m} edges uncolored"
        )
    violation = find_violation(g, coloring)
    if args.json:
        payload = {"n": g.n, "m": g.m, "ok": violation is None}
        if violation is not None:
            payload["violation"] = {
                "kind": violation.kind,
                "edges": list(violation.edge_ids),
                "colors": sorted(
                    {coloring.color(e) for e in violation.edge_ids}
                ),
            }
        _emit_json(payload)
        return PASS if violation is None else FAIL
    if violation is None:
        print(f"coloring of {g.m} edges is a star edge-coloring")
        print("RESULT: OK")
        return PASS
    shown = " ".join(map(str, violation.edge_ids))
    colors = " ".join(
        str(coloring.color(e)) for e in violation.edge_ids
    )
    print(f"violation: {violation.kind}")
    print(f"edges: {shown}")
    print(f"colors: {colors}")
    print(f"RESULT: {violation.kind} edges={shown}")
    return FAIL


def _cmd_mad(args) -> int:
    g = load_graph(args.file)
    density, witness = mad(g)
    if args.json:
        _emit_json(
            {
                "n": g.n,
                "m": g.m,
                "mad": _frac(density),
                "witness": list(witness),
            }
        )
    else:
        print(f"mad = {_frac(density)}")
        print(f"witness: {' '.join(map(str, witness))}")
        print(f"RESULT: {_frac(density)}")
    return PASS


def _cmd_girth(args) -> int:
    g = load_graph(args.file)
    value = girth(g)
    text = "inf" if value == math.inf else str(value)
    if args.json:
        _emit_json({"n": g.n, "m": g.m, "girth": None if value == math.inf else value})
    else:
        print(f"girth = {text}")
        print(f"RESULT: {text}")
    return PASS


def _cmd_audit(args) -> int:
    g = load_graph(args.file)
    report = lemma_audit(g)
    if args.json:
        _emit_json(
            {
                "all_pass": report.all_pass,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "witnesses": [list(w) for w in c.witnesses],
                    }
                    for c in report.checks
                ],
            }
        )
        return PASS if report.all_pass else FAIL
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        line = f"{c.name:<{width}}  {verdict}"
        if not c.passed:
            first = ",".join(map(str, c.witnesses[0]))
            line += f"  witnesses={len(c.witnesses)} first=({first})"
        print(line)
    failed = report.failures()
    if failed:
        print(f"RESULT: FAIL ({len(failed)} predicates)")
        return FAIL
    print(f"RESULT: PASS ({len(report.checks)} predicates)")
    return PASS


def _cmd_discharge(args) -> int:
    g = load_graph(args.file)
    ledger = discharge.apply_rules(g)
    report = discharge.audit(g, ledger)
    if args.json:
        _emit_json(
            {
                "initial": [_frac(c) for c in ledger.initial],
                "final": [_frac(c) for c in ledger.final],
                "transfers": [
                    {
                        "rule": t.rule,
                        "from": t.giver,
                        "to": t.taker,
                        "amount": _frac(t.amount),
                    }
                    for t in ledger.transfers
                ],
                "pools": [
                    {"members": list(p.members), "total": _frac(p.total)}
                    for p in ledger.pools
                ],
                "flags": list(ledger.flags),
                "total": _frac(report.total),
                "conserved": report.conserved,
                "negative_vertices": [
                    {"vertex": v, "final": _frac(c)}
                    for v, c in report.negative_vertices
                ],
                "negative_pools": [
                    {"members": list(p.members), "total": _frac(p.total)}
                    for p in report.negative_pools
                ],
                "all_nonnegative": report.all_nonnegative,
            }
        )
        return PASS if report.all_nonnegative else FAIL
    print("vertex  degree  initial  final")
    for v in range(g.n):
        print(
            f"{v:>6}  {g.degree(v):>6}  {_frac(ledger.initial[v]):>7}"
            f"  {_frac(ledger.final[v]):>5}"
        )
    if ledger.transfers:
        print("transfers:")
        for t in ledger.transfers:
            print(f"  {t.rule}: {t.giver} -> {t.taker}  {_frac(t.amount)}")
    else:
        print("transfers: none")
    for p in ledger.pools:
        print(f"pool {','.join(map(str, p.members))}: total {_frac(p.total)}")
    for flag in ledger.flags:
        print(f"flag: {flag}")
    print(f"total charge: {_frac(report.total)}")
    print(f"conserved: {'yes' if report.conserved else 'NO'}")
    if report.all_nonnegative:
        print("RESULT: nonnegative")
        return PASS
    bad_v = len(report.negative_vertices)
    bad_p = len(report.negative_pools)
    print(f"RESULT: negative ({bad_v} vertices, {bad_p} pools)")
    return FAIL


def _cmd_covers_cube(args) -> int:
    g = load_graph(args.file)
    mapping = covers_cube(g)
    if args.json:
        _emit_json(
            {
                "covers": mapping is not None,
                "mapping": None
                if mapping is None
                else {str(v): t for v, t in mapping.items()},
            }
        )
        return PASS if mapping is not None else FAIL
    if mapping is None:
        if g.n and (not g.is_simple or not g.is_connected() or any(d != 3 for d in g.degrees)):
            print("graph is not simple connected cubic")
        print("RESULT: NONE")
        return FAIL
    for v in range(g.n):
        print(f"{v} -> {mapping[v]}")
    print("RESULT: COVERS")
    return PASS


def _atlas_mode(flag: str) -> str:
    return "simple" if flag == "simple" else "multigraph"


def _cmd_enumerate(args) -> int:
    graphs = list(
        atlas.enumerate_graphs(
            args.max_n, _atlas_mode(args.mode), connected=not args.disconnected
        )
    )
    if args.json:
        _emit_json(
            {
                "count": len(graphs),
                "graphs": [
                    {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}
                    for g in graphs
                ],
            }
        )
        return PASS
    for i, g in enumerate(graphs):
        edges = " ".join(f"{u}-{v}" for u, v in g.edges)
        print(f"{i}: n={g.n} m={g.m} edges={edges}")
    print(f"RESULT: {len(graphs)} graphs")
    return PASS


def _cmd_sweep(args) -> int:
    checks = tuple(name.strip() for name in args.check.split(",") if name.strip())
    summary = atlas.sweep(
        args.max_n,
        _atlas_mode(args.mode),
        checks=checks,
        cache=args.cache or None,
        jobs=args.jobs,
    )
    for warning in summary.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    asserted_bad = sum(
        len(c.counterexamples) for c in summary.checks if c.name != "conj6"
    )
    reported_bad = sum(
        len(c.counterexamples) for c in summary.checks if c.name == "conj6"
    )
    if args.json:
        _emit_json(
            {
                "mode": summary.mode,
                "max_n": summary.max_n,
                "graphs": summary.total,
                "checks": [
                    {
                        "name": c.name,
                        "checked": c.checked,
                        "counterexamples": [
                            {"canonical": hexform, "reason": reason}
                            for hexform, reason in c.counterexamples
                        ],
                    }
                    for c in summary.checks
                ],
                "pass": asserted_bad == 0,
            }
        )
        return PASS if asserted_bad == 0 else FAIL
    print(atlas.summary_text(summary))
    if asserted_bad:
        print(f"RESULT: FAIL ({asserted_bad} counterexamples)")
        return FAIL
    note = f", conj6: {reported_bad} reported" if reported_bad else ""
    print(f"RESULT: PASS ({summary.total} graphs{note})")
    return PASS


def _cmd_critical(args) -> int:
    findings = atlas.find_critical(args.max_n, _atlas_mode(args.mode), k=args.k)
    clean = True
    if args.json:
        payload = []
        for f in findings:
            payload.append(
                {
                    "n": f.graph.n,
                    "m": f.graph.m,
                    "edges": [list(e) for e in f.graph.edges],
                    "canonical": f.canon.hex(),
                    "deletion_chi": list(f.deletion_chi),
                    "lemmas_pass": f.lemmas.all_pass,
                    "charge_nonnegative": f.charge.all_nonnegative,
                }
            )
            clean = clean and f.lemmas.all_pass
        _emit_json({"k": args.k, "count": len(findings), "findings": payload})
        return PASS if clean else FAIL
    for f in findings:
        edges = " ".join(f"{u}-{v}" for u, v in f.graph.edges)
        print(f"critical: n={f.graph.n} m={f.graph.m} edges={edges}")
        print(f"  canonical: {f.canon.hex()}")
        chis = " ".join(map(str, f.deletion_chi))
        print(f"  chi_s per deleted vertex: {chis}")
        lemma_verdict = "pass" if f.lemmas.all_pass else "FAIL"
        print(f"  lemma audit: {lemma_verdict}")
        if not f.lemmas.all_pass:
            for c in f.lemmas.failures():
                print(f"    {c.name}: {len(c.witnesses)} witnesses")
            clean = False
        charge_verdict = "nonnegative" if f.charge.all_nonnegative else "negative"
        print(f"  charge audit: {charge_verdict} (total {_frac(f.charge.total)})")
    print(f"RESULT: {len(findings)} critical graphs")
    return PASS if clean else FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starline",
        description="Exact star edge-coloring toolkit for subcubic multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("chi", _cmd_chi, "exact star chromatic index with certificate")
    p.add_argument("file", help="graph file (edge list, graph6 or .canon hex), '-' for stdin")
    p.add_argument("--max-k", type=int, default=None, help="search no further than this many colors")
    p.add_argument("--cert", default=None, help="write the certificate coloring here")
    p.add_argument("--stats", action="store_true", help="print the color placements tried per k to stderr")

    p = add("verify", _cmd_verify, "check a coloring file against a graph")
    p.add_argument("file", help="graph file")
    p.add_argument("coloring", help="coloring file with 'edge-id color' lines")

    p = add("mad", _cmd_mad, "exact maximum average degree with witness")
    p.add_argument("file", help="graph file")

    p = add("girth", _cmd_girth, "shortest cycle length (parallel pair counts as 2)")
    p.add_argument("file", help="graph file")

    p = add("audit", _cmd_audit, "evaluate the structural predicates of minimal obstructions")
    p.add_argument("file", help="graph file")

    p = add("discharge", _cmd_discharge, "run the discharging rules and audit the ledger")
    p.add_argument("file", help="graph file (treated as the pruned graph H)")

    p = add("covers-cube", _cmd_covers_cube, "find a covering map onto the 3-cube")
    p.add_argument("file", help="graph file")

    p = add("enumerate", _cmd_enumerate, "list subcubic graphs up to isomorphism")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=("simple", "multi"), default="simple")
    p.add_argument("--disconnected", action="store_true", help="include disconnected graphs")

    p = add("sweep", _cmd_sweep, "solve every enumerated graph and check the claimed bounds")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=("simple", "multi"), default="simple")
    p.add_argument("--check", default=",".join(atlas.CHECKS), help="comma-separated subset of " + ",".join(atlas.CHECKS))
    p.add_argument("--cache", default=os.environ.get("STARLINE_CACHE"), help="result cache file (default: $STARLINE_CACHE)")
    p.add_argument("--jobs", type=int, default=1, help="solve with at most this many worker processes")

    p = add("critical", _cmd_critical, "hunt vertex-deletion-critical graphs and audit them")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=("simple", "multi"), default="simple")
    p.add_argument("--k", type=int, default=5)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
