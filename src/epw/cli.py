"""Command line front end.

Verbs: local-sextic, double-cover, sextic-sing, degeneracy, strata,
varquad-check, disc-group, classify-root, overlattices, pell, hilb-check,
report.  Exit codes: 0 all checks pass, 1 a check failed (the first
failing assertion is named), 2 usage or input errors.  Every randomized
verb takes --seed and echoes it; identical invocations produce identical
bytes.
"""

import argparse
import json
import sys

from . import checks, jsonio, lattices
from . import hilbert_square as hs


class CheckFailure(RuntimeError):
    pass


class UsageError(RuntimeError):
    pass


def _load(path, expected_kind):
    try:
        with open(path, encoding="utf-8") as fh:
            kind, value = jsonio.load_document(fh.read())
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e)) from None
    except (ValueError, RecursionError) as e:
        # not UTF-8, not JSON, an integer literal too long to convert, arrays
        # nested too deep, or off the schema (SchemaError is a ValueError)
        raise UsageError("%s: %s" % (path, e)) from None
    if kind != expected_kind:
        raise UsageError("%s: expected a %s document, found %s" % (path, expected_kind, kind))
    return value


def _parse_point(text, length):
    """A projective point: `length` rationals, not all zero."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != length:
        raise UsageError("expected %d comma-separated rationals, got %r" % (length, text))
    try:
        point = [jsonio.parse_rational(p) for p in parts]
    except ValueError:
        raise UsageError("bad rational in point %r" % text) from None
    if all(x == 0 for x in point):
        raise UsageError("point %r is the zero vector, not a projective point" % text)
    return point


def _resolve_lattice(args):
    """--lattice-json if given, else --lattice; the parser sets the defaults."""
    if args.lattice_json is not None:
        l = _load(args.lattice_json, "even_lattice")
        if l.det() == 0:
            raise UsageError("%s: degenerate Gram matrix" % args.lattice_json)
        return l
    name = args.lattice
    if name not in lattices.NAMED_LATTICES:
        raise UsageError("unknown lattice %r; known: %s"
                         % (name, ", ".join(sorted(lattices.NAMED_LATTICES))))
    return lattices.NAMED_LATTICES[name]()


def _parse_lattice_vector(l, text):
    """Either comma-separated integers or a combination of named vectors
    like 'e1+e2' or '2*e1-5*e2'."""
    if not "".join(text.split()).strip("+"):
        raise UsageError("vector %r names no coordinate and no named vector" % text)
    text = text.strip()
    if "," in text:
        coords = [_parse_int(p, text) for p in text.split(",")]
        if len(coords) != l.rank:
            raise UsageError("vector needs %d coordinates" % l.rank)
        return coords
    total = [0] * l.rank
    chunk = ""
    for ch in text.replace(" ", "") + "+":
        if ch in "+-" and chunk:
            total = _add_named(total, l, chunk)
            chunk = ch if ch == "-" else ""
        elif ch in "+-" and not chunk:
            chunk = ch if ch == "-" else ""
        else:
            chunk += ch
    return total


def _parse_int(text, context):
    try:
        return int(text)
    except ValueError:
        raise UsageError("bad integer %r in vector %r" % (text, context)) from None


def _add_named(total, l, chunk):
    sign = 1
    if chunk.startswith("-"):
        sign = -1
        chunk = chunk[1:]
    if "*" in chunk:
        c, name = chunk.split("*", 1)
        coeff = sign * _parse_int(c, chunk)
    else:
        coeff, name = sign, chunk
    try:
        v = l.vector(name)
    except KeyError:
        raise UsageError("lattice has no named vector %r" % name) from None
    return [t + coeff * x for t, x in zip(total, v)]


# ---------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------


def _chart_for(frame, point, seed):
    from .local_model import make_chart, ChartError

    try:
        return make_chart(frame, point, seed=seed)
    except ChartError as e:
        raise CheckFailure(str(e)) from None


def cmd_local_sextic(args):
    from .local_model import local_sextic
    from .poly import poly_to_json

    frame = _load(args.frame, "lagrangian_frame")
    point = _parse_point(args.point, 6)
    chart = _chart_for(frame, point, args.seed)
    ls = local_sextic(chart)
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "pathological": ls.is_pathological(),
            "polynomial": poly_to_json(ls.f),
            "parts": [p.to_text() for p in ls.parts],
        }
        return json.dumps(doc, sort_keys=True, indent=1)
    lines = ["seed: %d" % args.seed, "f = %s" % ls.f.to_text()]
    for i, p in enumerate(ls.parts):
        lines.append("f%d = %s" % (i, p.to_text()))
    if ls.is_pathological():
        lines.append("note: determinant vanishes identically (pathological)")
    return "\n".join(lines)


def cmd_double_cover(args):
    from .local_model import double_cover_ideal

    frame = _load(args.frame, "lagrangian_frame")
    point = _parse_point(args.point, 6)
    chart = _chart_for(frame, point, args.seed)
    try:
        dc = double_cover_ideal(chart)
    except ValueError as e:   # a kernel beyond the model's reach
        raise UsageError(str(e)) from None
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "kernel_dimension": dc.k,
            "variables": list(dc.vars),
            "generators": [g.to_text() for g in dc.generators],
            "notice": dc.notice,
        }
        return json.dumps(doc, sort_keys=True, indent=1)
    lines = ["seed: %d" % args.seed, "kernel dimension: %d" % dc.k]
    if dc.notice:
        lines.append("note: %s" % dc.notice)
    for i, g in enumerate(dc.generators):
        lines.append("g%d = %s" % (i, g.to_text()))
    return "\n".join(lines)


def cmd_sextic_sing(args):
    from .local_model import sextic_singularity

    f = _load(args.poly, "polynomial")
    point = _parse_point(args.point, 3)
    try:
        rep = sextic_singularity(f, point)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if args.format == "json":
        return json.dumps(dict(rep.as_dict(), seed=args.seed), sort_keys=True, indent=1)
    d = rep.as_dict()
    return "\n".join(["seed: %d" % args.seed] +
                     ["%s: %s" % (k, d[k]) for k in
                      ("multiplicity", "reduced", "consecutive_triple", "simple")])


def cmd_degeneracy(args):
    from .wedge import degeneracy_dim

    frame = _load(args.frame, "lagrangian_frame")
    point = _parse_point(args.point, 6)
    k = degeneracy_dim(frame, point)
    if args.format == "json":
        return json.dumps({"seed": args.seed, "degeneracy": k}, sort_keys=True)
    return "seed: %d\ndegeneracy dimension: %d\nin Y_A[k] for k <= %d" % (args.seed, k, k)


def cmd_strata(args):
    from .wedge import sigma_level

    frame = _load(args.frame, "lagrangian_frame")
    w = _load(args.plane, "subspace3")
    theta, level = sigma_level(frame, w)
    if args.format == "json":
        return json.dumps({"seed": args.seed, "theta": theta, "level": level},
                          sort_keys=True)
    lines = ["seed: %d" % args.seed,
             "theta (top wedge contained): %s" % theta,
             "level dim(A ∩ (Λ²W ∧ V)): %d" % level]
    if theta:
        lines.append("member of sigma-tilde[d] for d+1 <= %d" % level)
    return "\n".join(lines)


def _ledger(seed, results):
    """The seed and one line per check; exit 1 naming the first failure."""
    lines = ["seed: %d" % seed] + [r.line() for r in results]
    if not all(r.ok for r in results):
        raise CheckFailure("\n".join(lines) + "\nfirst failure: " +
                           next(r.name for r in results if not r.ok))
    return "\n".join(lines)


def cmd_varquad_check(args):
    if args.count < 1:
        raise UsageError("--count must be positive")
    return _ledger(args.seed, checks.quadratic_form_suites(args.seed, args.count))


def cmd_disc_group(args):
    l = _resolve_lattice(args)
    d = lattices.disc_group(l)
    if args.format == "json":
        try:
            els = d.elements()
        except ValueError as e:   # too large to enumerate
            raise UsageError(str(e)) from None
        doc = {
            "seed": args.seed,
            "invariants": d.invariants,
            "order": d.order,
            "q_values": [[list(e), str(d.q_value(e))] for e in els],
        }
        return json.dumps(doc, sort_keys=True, indent=1)
    lines = ["seed: %d" % args.seed,
             "invariant factors: %s" % (d.invariants or "trivial")]
    if d.order <= 64:
        for e in d.elements():
            lines.append("q(%s) = %s mod 2Z" % (",".join(map(str, e)), d.q_value(e)))
    return "\n".join(lines)


def cmd_classify_root(args):
    l = _resolve_lattice(args)
    if not {"e1", "e2"} <= set(l.named):
        raise UsageError("classify-root needs a polarized lattice with named vectors e1 and e2")
    v = _parse_lattice_vector(l, args.vector)
    try:
        tag = lattices.classify_negative_root(v, l)
    except (ValueError, lattices.ClassificationError) as e:
        raise CheckFailure("classification failed: %s" % e) from None
    if args.format == "json":
        return json.dumps({"seed": args.seed, "tag": tag, "square": l.square(v)},
                          sort_keys=True)
    return "seed: %d\nsquare: %d\ntag: %s" % (args.seed, l.square(v), tag)


def cmd_overlattices(args):
    l = _resolve_lattice(args)
    try:
        ovs = lattices.overlattices(l)
    except ValueError as e:   # a discriminant group too large to enumerate
        raise UsageError(str(e)) from None
    # an overlattice of finite index spans the rational space of l
    pos, neg = l.signature() if ovs else (None, None)
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "count": len(ovs),
            "overlattices": [
                {"index": o.index,
                 "det": o.lattice.det(),
                 "signature": [pos, neg],
                 "gram": o.lattice.gram}
                for o in ovs
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=1)
    lines = ["seed: %d" % args.seed, "even index-2 overlattices: %d" % len(ovs)]
    for i, o in enumerate(ovs):
        lines.append("#%d: index=%d det=%d signature=(%d,%d) rank=%d"
                     % (i, o.index, o.lattice.det(), pos, neg, o.lattice.rank))
    return "\n".join(lines)


# pell's output grows with the square of --bound: 1000 writes 1.5 MB.
PELL_BOUND_MAX = 1000


def cmd_pell(args):
    if not 0 <= args.bound <= PELL_BOUND_MAX:
        raise UsageError("--bound must be between 0 and %d" % PELL_BOUND_MAX)
    rows = hs.pell_square_two_classes(args.bound)
    if args.format == "json":
        return json.dumps({"seed": args.seed,
                           "classes": [{"n": n, "x": x, "y": y} for n, x, y in rows]},
                          sort_keys=True, indent=1)
    lines = ["seed: %d" % args.seed,
             "square-2 classes x*mu + y*xi with y + x*sqrt2 = (-1+sqrt2)(3+2sqrt2)^n"]
    for n, x, y in rows:
        lines.append("n=%+d  x=%d  y=%d" % (n, x, y))
    return "\n".join(lines)


def cmd_hilb_check(args):
    return _ledger(args.seed, checks.check_hilbert_ledger(args.seed))


def cmd_report(args):
    ok, text = checks.run_report(seed=args.seed, fast=not args.full)
    if not ok:
        first = next(line for line in text.splitlines() if line.startswith("FAIL"))
        raise CheckFailure(text.rstrip("\n") + "\nfirst failure: " + first[5:])
    return text.rstrip("\n")


VERBS = {
    "local-sextic": cmd_local_sextic,
    "double-cover": cmd_double_cover,
    "sextic-sing": cmd_sextic_sing,
    "degeneracy": cmd_degeneracy,
    "strata": cmd_strata,
    "varquad-check": cmd_varquad_check,
    "disc-group": cmd_disc_group,
    "classify-root": cmd_classify_root,
    "overlattices": cmd_overlattices,
    "pell": cmd_pell,
    "hilb-check": cmd_hilb_check,
    "report": cmd_report,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="epw",
        description="Exact-arithmetic toolkit for EPW sextics.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, fmt=True):
        sp.add_argument("--seed", type=int, default=0)
        if fmt:
            sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("local-sextic", help="local determinant equation at a point")
    sp.add_argument("--frame", required=True, help="LagrangianFrame JSON path")
    sp.add_argument("--point", required=True, help="six comma-separated rationals")
    common(sp)

    sp = sub.add_parser("double-cover", help="double cover ideal at a point")
    sp.add_argument("--frame", required=True)
    sp.add_argument("--point", required=True)
    common(sp)

    sp = sub.add_parser("sextic-sing", help="plane sextic singularity analyzer")
    sp.add_argument("--poly", required=True, help="polynomial JSON path")
    sp.add_argument("--point", required=True, help="three comma-separated rationals")
    common(sp)

    sp = sub.add_parser("degeneracy", help="degeneracy dimension at a point")
    sp.add_argument("--frame", required=True)
    sp.add_argument("--point", required=True)
    common(sp)

    sp = sub.add_parser("strata", help="theta containment and sigma level")
    sp.add_argument("--frame", required=True)
    sp.add_argument("--plane", required=True, help="Subspace3 JSON path")
    common(sp)

    sp = sub.add_parser("varquad-check", help="randomized quadratic-form suites")
    sp.add_argument("--count", type=int, default=50)
    common(sp, fmt=False)

    sp = sub.add_parser("disc-group", help="discriminant group and q-values")
    sp.add_argument("--lattice", default="lambda")
    sp.add_argument("--lattice-json")
    common(sp)

    sp = sub.add_parser("classify-root", help="orbit tag of a negative root")
    sp.add_argument("--lattice", default="lambda")
    sp.add_argument("--lattice-json")
    sp.add_argument("--vector", required=True,
                    help="named combination (e1+e2) or comma-separated coordinates")
    common(sp)

    sp = sub.add_parser("overlattices", help="even index-2 overlattices")
    sp.add_argument("--lattice", default="gamma-tilde")
    sp.add_argument("--lattice-json")
    common(sp)

    sp = sub.add_parser("pell", help="square-2 Pell classes of the quartic model")
    sp.add_argument("--bound", type=int, default=5)
    common(sp)

    sp = sub.add_parser("hilb-check", help="Hilbert-square case ledgers")
    common(sp, fmt=False)

    sp = sub.add_parser("report", help="full reproducible check ledger")
    sp.add_argument("--full", action="store_true",
                    help="spec-level sample sizes instead of the fast ones")
    common(sp, fmt=False)
    return p


def run(argv):
    """Dispatch; returns (exit_code, output_text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (int(e.code) if e.code else 0), ""
    try:
        out = VERBS[args.verb](args)
        return 0, out
    except UsageError as e:
        return 2, "error: %s" % e
    except CheckFailure as e:
        return 1, str(e)


def main():
    code, out = run(sys.argv[1:])
    if out:
        print(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
