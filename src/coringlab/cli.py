"""Command line driver.

Exit status: 0 when every requested check passes, 1 when any check fails,
2 on malformed input (unknown names, shape mismatches, parse errors).

The session file defaults to the CORINGLAB_SESSION environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from . import session as session_mod
from .reports import InputError, PreconditionFailure, Report, WellDefinednessError


# check kind -> (module, checker, session section).  `run_check` imports the
# checker's module only when its kind runs, so a command loads only what it
# runs.  A new check kind is one row here.
CHECKS = {
    "algebra": ("algebra", "check_algebra", "algebras"),
    "bimodule": ("bimodule", "check_bimodule", "bimodules"),
    "coring": ("coring", "check_coring", "corings"),
    "comodule": ("coring", "check_comodule", "comodules"),
    "entwining": ("entwine", "check_entwining", "entwinings"),
    "r-object": ("rcat", "check_r_object", "r_objects"),
    "cowreath": ("cowreath", "check_cowreath", "cowreaths"),
    "wreath": ("wreath", "check_wreath", "wreaths"),
    "twisting": ("wreath", "check_left_module_twisting", "twistings"),
}


def _add_common(sp):
    sp.add_argument("--session", default=argparse.SUPPRESS,
                    help="session JSON file (default: $CORINGLAB_SESSION)")
    sp.add_argument("--format", choices=("text", "json"),
                    default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coringlab",
        description="verify and build coring, cowreath and wreath structures "
                    "from structure-constant session files",
    )
    p.add_argument("--session", default=os.environ.get("CORINGLAB_SESSION"),
                   help="session JSON file (default: $CORINGLAB_SESSION)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run a checker on a named object")
    chk.add_argument("kind", choices=tuple(CHECKS))
    chk.add_argument("name")
    _add_common(chk)

    bld = sub.add_parser("build", help="run a construction and store it")
    bld.add_argument("kind", choices=(
        "entwined-coring", "cowreath-product", "wreath-product",
        "twisted-product", "lift"))
    bld.add_argument("names", nargs="+",
                     help="input object name(s); lift takes ENTWINING COWREATH")
    bld.add_argument("--out", required=True)
    bld.add_argument("--save", help="write the updated session to this file")
    _add_common(bld)

    ore = sub.add_parser("ore", help="degree-bounded skew polynomial checks")
    ore.add_argument("action", choices=("check", "compare"))
    ore.add_argument("--data", required=True)
    ore.add_argument("--degree", type=int, required=True)
    _add_common(ore)

    adj = sub.add_parser("adjoint", help="adjunction transposes for a cowreath")
    adj.add_argument("direction", choices=("hat", "tilde"))
    adj.add_argument("--cowreath", required=True)
    adj.add_argument("--x", required=True, help="comodule over the base coring")
    adj.add_argument("--y", required=True,
                     help="comodule over the product coring")
    adj.add_argument("--map", required=True, dest="map_name")
    adj.add_argument("--out")
    adj.add_argument("--save")
    _add_common(adj)
    return p


def emit(reports, fmt) -> int:
    if fmt == "json":
        print(json.dumps([r.to_json() for r in reports], indent=1))
    else:
        for r in reports:
            print(r.summary())
    return 0 if all(r.ok for r in reports) else 1


def _load(args) -> session_mod.SessionFile:
    if not args.session:
        raise InputError("no session file: pass --session or set "
                         "CORINGLAB_SESSION")
    return parse_with_location(args.session)


def parse_with_location(path):
    try:
        return session_mod.parse_session(path)
    except FileNotFoundError as exc:
        raise InputError(f"session file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise InputError(f"cannot read session file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"session file {path} is not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc


def _save(raw, path):
    """Write the session to path; a path that cannot be written is an
    InputError naming it."""
    from .session_write import write_session
    try:
        write_session(raw, path)
    except OSError as exc:
        raise InputError(f"cannot write session file {path}: {exc.strerror}") from exc


def run_check(s, kind, name):
    """The reports of the `CHECKS` row of kind on the named entry.  A wreath
    name that only a twisted tensor product has checks its two wreaths and
    its product."""
    if kind not in CHECKS:
        raise InputError(f"unknown check kind {kind!r}")
    module, checker, section = CHECKS[kind]
    if kind == "wreath" and name not in s.wreaths and name in s.ttps:
        from .wreath import check_l_wreath, check_wreath, twisted_tensor_product
        try:
            rw, lw, prod_ext, alg_rep, eta_rep = twisted_tensor_product(*s.ttps[name])
        except PreconditionFailure as exc:
            return [exc.report]
        return [check_wreath(rw), check_l_wreath(lw), alg_rep, eta_rep]
    check = getattr(import_module(f".{module}", __package__), checker)
    return [check(s.lookup(section, name))]


def run_build(s, kind, names, out):
    """Execute a build and serialize the result into the session."""
    want = 2 if kind == "lift" else 1
    if len(names) != want:
        raise InputError(f"build {kind} takes {want} name{'s' * (want > 1)}, "
                         f"got {len(names)}")
    from .session_write import SessionStore
    store = SessionStore(s)
    if kind == "entwined-coring":
        from .entwine import entwined_coring
        cor = entwined_coring(s.lookup("entwinings", names[0]), name=out)
        stored = store.add_coring(out, cor)
        reports = [Report(f"built entwined coring {out}")]
    elif kind == "cowreath-product":
        from .cowreath import cowreath_product
        w = s.lookup("cowreaths", names[0])
        prod, morph = cowreath_product(w, name=out)
        stored = store.add_coring(out, prod)
        reports = [Report(f"built cowreath product {out}"), morph]
    elif kind in ("wreath-product", "twisted-product"):
        from .wreath import twisted_tensor_product, wreath_product
        if kind == "twisted-product":
            rext, text, rmap = s.lookup("ttps", names[0])
            rw, lw, prod_ext, alg_rep, eta_rep = twisted_tensor_product(
                rext, text, rmap)
        else:
            w = s.lookup("wreaths", names[0])
            prod_ext, alg_rep, eta_rep = wreath_product(w, name=out)
        prod_ext.total.name = out
        stored = store.algebra_name(prod_ext.total)
        reports = [Report(f"built wreath product {out}"), alg_rep, eta_rep]
    else:  # lift: the parser admits no other kind
        from .cowreath import entwining_lift_cowreath
        e = s.lookup("entwinings", names[0])
        n = s.lookup("cowreaths", names[1])
        stored = store.add_cowreath(out, entwining_lift_cowreath(e, n, name=out))
        reports = [Report(f"built lifted cowreath {out}")]
    _stored_as(out, stored)
    return reports


def _stored_as(out, stored):
    """Exit 2 unless the result was stored under the --out name: a later
    `check ... OUT` or `--map OUT` would read the entry that holds it."""
    if stored != out:
        raise InputError(f"--out {out} is already taken in the session "
                         f"(the result would be stored as {stored})")


def run_adjoint(s, args):
    from .cowreath import adjunction_hat, adjunction_tilde
    w = s.lookup("cowreaths", args.cowreath)
    x = s.lookup("comodules", args.x)
    y = s.lookup("comodules", args.y)
    f = s.lookup("maps", args.map_name)
    return (adjunction_hat if args.direction == "hat" else adjunction_tilde)(w, x, y, f)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        s = _load(args)
        if args.command == "check":
            return emit(run_check(s, args.kind, args.name), args.format)
        if args.command == "build":
            try:
                reports = run_build(s, args.kind, args.names, args.out)
            except PreconditionFailure as exc:
                return emit([exc.report], args.format)
            if args.save:
                _save(s.raw, args.save)
            return emit(reports, args.format)
        if args.command == "ore":
            from .ore import check_ore_wreath, ore_vs_wreath_product, twist_vs_skew_mul
            d = s.lookup("skewpoly", args.data)
            if args.action == "check":
                reports = [check_ore_wreath(d, args.degree)]
            else:
                reports = [ore_vs_wreath_product(d, args.degree),
                           twist_vs_skew_mul(d, args.degree)]
            return emit(reports, args.format)
        if args.command == "adjoint":
            if args.save and not args.out:
                raise InputError("--save needs --out")
            out_map = run_adjoint(s, args)
            if args.out:
                from .session_write import SessionStore
                _stored_as(args.out, SessionStore(s).map_name(out_map, args.out))
                if args.save:
                    _save(s.raw, args.save)
            payload = {
                "name": out_map.name,
                "matrix": session_mod._fmt_matrix(s.field, out_map.matrix),
            }
            if args.format == "json":
                print(json.dumps(payload, indent=1))
            else:
                print(out_map.name)
                for row in payload["matrix"]:
                    print("  [" + ", ".join(row) + "]")
            return 0
    except (InputError, PreconditionFailure, WellDefinednessError) as exc:
        if isinstance(exc, PreconditionFailure):
            print(exc.report.summary(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
