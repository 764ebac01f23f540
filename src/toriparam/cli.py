"""Batch command-line frontend.

Stateless single-shot subcommands over polytope JSON files; every command
offers ``--json`` machine output, and the human output is rendered from the
same data.  Exit codes: 0 for success or a true verdict, 1 for a false or
failed verdict, 2 for malformed input, 3 when a valid request exceeds a
search budget (``BudgetExceeded``), 4 for an internal error (a bug).

The parser is built on the first ``main`` call and reused by later calls
in the same process.  sympy is imported with the first polynomial, so
``fan``, ``points``, ``monomials``, ``resolve`` and ``group`` never load it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .decomposition import decompose_univariate, decompose_with_hints
from .errors import BudgetExceeded, NoPreimage, ToriparamError
from .parametrization import (ParamSystem, ParamTuple, check_implicit,
                              compose_system, full_monomial_system,
                              is_primitive_coprime,
                              is_rational_parametrization,
                              subset_monomial_system)
from .polynomials import (MultiPoly, parse, parse_tuple, rational_str,
                          render, render_monomial)
from .polytope import (LatticePolytope, Frame, frame_of, is_smooth,
                       lattice_points, normal_fan)
from .resolution import minimal_resolution, resolved_frame, virtual_facets
from .subtorus import (format_character, format_subgroup,
                       offset_character, rescaling_group, scaling_group)


def _use_color(stream) -> bool:
    mode = os.environ.get("TORIPARAM_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _verdict(text: str, good: bool, stream) -> str:
    if not _use_color(stream):
        return text
    code = "32" if good else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _emit_json(data: dict):
    print(json.dumps(data, sort_keys=True, separators=(", ", ": ")))


def _load_polytope(path: str) -> LatticePolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return LatticePolytope.from_json(json.load(fh))


def _frame(p: LatticePolytope, resolved: bool) -> Frame:
    if not resolved:
        return frame_of(p)
    rf = minimal_resolution(normal_fan(p))
    return resolved_frame(p, rf)


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return text


def _load_system(spec: str, frame: Frame) -> ParamSystem:
    spec = spec.strip()
    if spec == "delta":
        return full_monomial_system(frame)
    text = _read_arg(spec)
    data = json.loads(text)
    if isinstance(data, dict) and "points" in data:
        return subset_monomial_system(frame, data["points"])
    return ParamSystem.from_json(data, frame)


def _load_poly_tuple(spec: str, nparams=None) -> tuple[MultiPoly, ...]:
    text = _read_arg(spec)
    stripped = text.lstrip()
    if stripped.startswith("["):
        entries = json.loads(text)
        width = nparams
        if width is None:
            width = 1
            for entry in entries:
                width = max(width, parse(entry, None, "y").nvars)
        return tuple(parse(entry, width, "y") for entry in entries)
    return parse_tuple(text, nparams, "y")


def _system_warnings(system: ParamSystem):
    for w in system.warnings:
        print(f"warning: {w}", file=sys.stderr)


# -- subcommands -------------------------------------------------------------


def _cmd_fan(args) -> int:
    p = _load_polytope(args.polytope)
    fan = normal_fan(p)
    smooth, bad = is_smooth(fan)
    if args.json:
        data = fan.to_json()
        data["smooth"] = smooth
        data["singular_cones"] = [list(c.ray_indices) for c in bad]
        _emit_json(data)
        return 0
    print(f"rays ({fan.ray_count}):")
    for i, r in enumerate(fan.rays):
        print(f"  x{i + 1}: {list(r)}")
    print("maximal cones:")
    for c in fan.max_cones:
        print(f"  {[i + 1 for i in c.ray_indices]}")
    if smooth:
        print(_verdict("smooth", True, sys.stdout))
    else:
        print(_verdict("singular", False, sys.stdout))
        for c in bad:
            print(f"  singular cone on rays {[i + 1 for i in c.ray_indices]}")
    return 0


def _cmd_points(args) -> int:
    p = _load_polytope(args.polytope)
    pts = lattice_points(p)
    if args.json:
        _emit_json({"count": len(pts), "points": [list(m) for m in pts]})
        return 0
    print(f"{len(pts)} lattice points:")
    for m in pts:
        print(f"  {list(m)}")
    return 0


def _cmd_monomials(args) -> int:
    p = _load_polytope(args.polytope)
    frame = _frame(p, args.resolved)
    pts = lattice_points(p)
    rows = [(m, frame.monomial_exponents(m)) for m in pts]
    if args.json:
        _emit_json({"monomials": [{"m": list(m), "exponents": list(e)}
                                  for m, e in rows]})
        return 0
    for m, e in rows:
        print(f"  {list(m)}: {render_monomial(e)}")
    return 0


def _cmd_group(args) -> int:
    p = _load_polytope(args.polytope)
    frame = _frame(p, args.resolved)
    g = scaling_group(frame.fan)
    chi = offset_character(frame, g)
    kernel = rescaling_group(frame)
    if args.json:
        _emit_json({"scaling_group": g.to_json(),
                    "offset_character": list(chi.exponents),
                    "rescaling_group": kernel.to_json()})
        return 0
    print(f"scaling group: {format_subgroup(g)}")
    print(f"offset character: {format_character(chi)}")
    print(f"rescaling group: {format_subgroup(kernel)}")
    return 0


def _cmd_irreducible(args) -> int:
    p = _load_polytope(args.polytope)
    frame = _frame(p, args.resolved)
    entries = _load_poly_tuple(args.tuple, args.params)
    ok, violated = is_primitive_coprime(entries, frame.fan)
    if args.json:
        _emit_json({"irreducible": ok,
                    "violated_collections": [list(c.ray_indices)
                                             for c in violated]})
        return 0 if ok else 1
    if ok:
        print(_verdict("irreducible along every primitive collection",
                       True, sys.stdout))
        return 0
    print(_verdict("not irreducible", False, sys.stdout))
    for c in violated:
        names = ", ".join(f"x{i + 1}" for i in c.ray_indices)
        print(f"  violated collection {{{names}}}")
    return 1


def _cmd_compose(args) -> int:
    p = _load_polytope(args.polytope)
    frame = _frame(p, args.resolved)
    system = _load_system(args.system, frame)
    _system_warnings(system)
    entries = _load_poly_tuple(args.tuple, args.params)
    f = ParamTuple(entries[0].nvars, entries)
    comp = compose_system(system, f)
    if args.json:
        _emit_json({"content": render(comp.content, "y"),
                    "components": [render(h, "y")
                                   for h in comp.parametrization.components],
                    "tuple_irreducible": comp.tuple_coprime})
        return 0
    print(f"content: {render(comp.content, 'y')}")
    for j, h in enumerate(comp.parametrization.components):
        print(f"  h{j}: {render(h, 'y')}")
    if not comp.tuple_coprime:
        print("note: the tuple is not irreducible; the content is the "
              "factored-out polynomial")
    return 0


def _cmd_decompose(args) -> int:
    p = _load_polytope(args.polytope)
    frame = _frame(p, args.resolved)
    system = _load_system(args.system, frame)
    _system_warnings(system)
    target = _load_poly_tuple(args.target, args.params)
    width = target[0].nvars
    try:
        if args.hints:
            hints = [parse(_read_arg(h), width, "y") for h in args.hints]
            result = decompose_with_hints(target, system, frame.fan, hints)
        else:
            result = decompose_univariate(target, system, frame.fan)
    except NoPreimage as exc:
        if args.json:
            _emit_json({"decomposed": False, "reason": str(exc)})
        else:
            print(_verdict(f"no preimage: {exc}", False, sys.stdout))
        return 1
    if args.json:
        _emit_json({"decomposed": True,
                    "content": render(result.content, "y"),
                    "scalar": rational_str(result.scalar),
                    "tuple": [render(e, "y") for e in result.f.entries],
                    "scalar_absorbed": result.absorbed,
                    "normalization": result.normalization})
        return 0
    print(_verdict("decomposed", True, sys.stdout))
    print(f"content: {render(result.content, 'y')}")
    print(f"scalar: {rational_str(result.scalar)}")
    tup = ", ".join(render(e, "y") for e in result.f.entries)
    print(f"tuple: ({tup})")
    print(f"note: {result.normalization}")
    return 0


def _cmd_resolve(args) -> int:
    p = _load_polytope(args.polytope)
    rf = minimal_resolution(normal_fan(p))
    facets = virtual_facets(p, rf)
    if args.json:
        data = rf.to_json()
        data["virtual_offsets"] = [vf.to_json() for vf in facets]
        _emit_json(data)
        return 0
    added = rf.added_rays
    if not added:
        print("already smooth; no rays added")
    else:
        print(f"added {len(added)} ray(s):")
        for ray, origin in zip(added, rf.origins):
            print(f"  {list(ray)} inside cone "
                  f"{[i + 1 for i in origin.ray_indices]}")
    print("offsets:")
    for i, vf in enumerate(facets):
        print(f"  x{i + 1}: normal {list(vf.normal)}, offset {vf.offset}")
    return 0


def _cmd_verify(args) -> int:
    target = _load_poly_tuple(args.target, args.params)
    if not is_rational_parametrization(target):
        if args.json:
            _emit_json({"holds": False,
                        "reason": "components share a factor or all vanish"})
        else:
            print(_verdict("not a rational parametrization (components share "
                           "a factor or all vanish)", False, sys.stdout))
        return 1
    relation = parse(_read_arg(args.relation), len(target), "x")
    holds = check_implicit(target, relation)
    if args.json:
        _emit_json({"holds": holds})
        return 0 if holds else 1
    print(_verdict("relation holds" if holds else "relation violated",
                   holds, sys.stdout))
    return 0 if holds else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toriparam",
        description="Exact rational parametrizations of projective toric "
                    "varieties from lattice polytopes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, polytope=True):
        sp = sub.add_parser(name, help=helptext)
        if polytope:
            sp.add_argument("polytope", help="polytope JSON file")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        sp.set_defaults(fn=fn)
        return sp

    add("fan", _cmd_fan, "normal fan and smoothness report")
    add("points", _cmd_points, "lattice points of the polytope")

    sp = add("monomials", _cmd_monomials, "point monomials of the polytope")
    sp.add_argument("--resolved", action="store_true",
                    help="use the minimal resolution's coordinates")

    sp = add("group", _cmd_group,
             "scaling group, offset character and its kernel")
    sp.add_argument("--resolved", action="store_true")

    sp = add("irreducible", _cmd_irreducible,
             "check a tuple along every primitive collection")
    sp.add_argument("--tuple", required=True,
                    help="polynomial tuple, e.g. \"(u*v,1,u,v,1)\" or @file")
    sp.add_argument("--params", type=int, default=None,
                    help="parameter count (inferred when omitted)")
    sp.add_argument("--resolved", action="store_true")

    sp = add("compose", _cmd_compose, "substitute a tuple into a system")
    sp.add_argument("--system", required=True,
                    help="'delta', inline JSON, or @file")
    sp.add_argument("--tuple", required=True)
    sp.add_argument("--params", type=int, default=None)
    sp.add_argument("--resolved", action="store_true")

    sp = add("decompose", _cmd_decompose,
             "factor a target through a monomial system")
    sp.add_argument("--system", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--hints", nargs="*", default=None,
                    help="irreducible factors of the target components; "
                    "write a hint that starts with '-' in parentheses, "
                    "as (-u)")
    sp.add_argument("--params", type=int, default=None)
    sp.add_argument("--resolved", action="store_true")

    add("resolve", _cmd_resolve, "minimal resolution and virtual facets")

    sp = add("verify", _cmd_verify,
             "check an implicit relation against a tuple", polytope=False)
    sp.add_argument("--target", required=True)
    sp.add_argument("--relation", required=True,
                    help="relation in x1..xk, k = number of components")
    sp.add_argument("--params", type=int, default=None)

    return ap


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ToriparamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError) as exc:
        print(f"error: malformed input ({exc!r})", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: one line, not a traceback
        print(f"error: internal error ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
