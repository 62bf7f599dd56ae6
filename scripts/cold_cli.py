#!/usr/bin/env python3
"""Time the README commands as cold processes and list what each imports.

    python3 scripts/cold_cli.py [--runs N] [CHECKOUT ...]

For each README command and each checkout (default: the one holding this
script) it prints the exit code, the median wall time of N cold runs in a
fresh interpreter, and the `coringlab` submodules the command loaded,
followed by `+dataclasses` or `+inspect` when either was loaded.  The
first row, `import coringlab.cli`, runs no command: it is the start-up
every command pays, and what the `cli` workload's `setup_s` times.  With
several checkouts the runs alternate between them, each round starting
with the next checkout, so drift in the machine's speed falls on all of
them alike.  After that table it prints, for each `coringlab` module any
command loaded, its line count, its parser token count (`tokenize`
tokens other than COMMENT and NL), the median ms of `compile()` of its
source over 30 runs in each checkout and the `tracemalloc` peak of one
`compile()`: without cached bytecode every cold command pays that compile,
so this shows the start-up cost of code size.  The package's other
modules are listed with them, marked as loaded by no command, and left
out of the totals.  The compile peak steps up when a module's token count
passes a power of two (the parser's token array doubles), so a module
just past 8,192 tokens peaks about 0.45 MB higher.  Wall time includes
interpreter start-up; nothing here gates a test.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
COMPILES = 30  # compile() runs per module and checkout

# The README commands, in an order where each build runs before the check
# of the session it saves.  `{tmp}` is a scratch directory per checkout.
COMMANDS = [
    ("check coring C2",
     ["--session", "sessions/grouplike_coalgebras.json", "check", "coring", "C2"]),
    ("check coring broken",
     ["--session", "sessions/grouplike_coalgebras.json", "check", "coring", "broken"]),
    ("check entwining dk",
     ["--session", "sessions/entwinings.json", "check", "entwining", "dk",
      "--format", "json"]),
    ("build cowreath-product",
     ["--session", "sessions/cowreaths.json", "build", "cowreath-product", "flip",
      "--out", "P", "--save", "{tmp}/out.json"]),
    ("check coring P", ["--session", "{tmp}/out.json", "check", "coring", "P"]),
    ("build lift",
     ["--session", "sessions/cowreaths.json", "build", "lift", "flip-ent", "flip",
      "--out", "L", "--save", "{tmp}/lift.json"]),
    ("check cowreath flip",
     ["--session", "sessions/cowreaths.json", "check", "cowreath", "flip",
      "--format", "json"]),
    ("check wreath signflip",
     ["--session", "sessions/sign_flip_ttp.json", "check", "wreath", "signflip"]),
    ("check twisting X=R",
     ["--session", "sessions/sign_flip_ttp.json", "check", "twisting", "X=R"]),
    ("ore check",
     ["--session", "sessions/ore_rational.json", "ore", "check", "--data",
      "quantum-plane", "--degree", "4"]),
    ("ore compare",
     ["--session", "sessions/ore_rational.json", "ore", "compare", "--data",
      "commutative", "--degree", "4"]),
    ("adjoint hat",
     ["--session", "perfbench/fixtures/my_session.json", "adjoint", "hat",
      "--cowreath", "W", "--x", "X", "--y", "Y", "--map", "f"]),
]

# The row of a bare `import coringlab.cli`: no arguments, no command.
IMPORT = ("import coringlab.cli", [])

# Runs one command through `coringlab.cli.main` (none when given no
# arguments), then writes the names of the loaded modules, one a line, to
# the file named by its first argument.
CHILD = """\
import sys
from coringlab.cli import main
code = main(sys.argv[2:]) if sys.argv[2:] else 0
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


def run_command(checkout, argv, tmp):
    """(wall seconds, exit code, loaded module names) of one cold run."""
    argv = [a.replace("{tmp}", tmp) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    modules_file = os.path.join(tmp, "modules.txt")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, modules_file, *argv],
                          cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    with open(modules_file, encoding="utf-8") as fh:
        modules = fh.read().split("\n")
    return wall, proc.returncode, modules


def describe(modules):
    """The coringlab submodules, then the heavy standard modules, loaded."""
    names = sorted(m[len("coringlab."):] for m in modules
                   if m.startswith("coringlab."))
    names += [f"+{m}" for m in ("dataclasses", "inspect") if m in modules]
    return " ".join(names)


def tokens(source):
    """The parser's token count of source: every `tokenize` token except
    comments and non-logical newlines."""
    lines = io.StringIO(source).readline
    return sum(1 for t in tokenize.generate_tokens(lines)
               if t.type not in (tokenize.COMMENT, tokenize.NL))


def compile_peak_kb(source, path):
    """The `tracemalloc` peak, in KB, of one `compile()` of source."""
    tracemalloc.start()
    try:
        compile(source, path, "exec")
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def compile_costs(checkouts, modules, runs):
    """{(checkout, module): (lines, tokens, median compile() ms, compile
    peak KB)} for the named coringlab modules.  Each run compiles every
    module once in every checkout, the checkouts next to each other, so
    drift in the machine's speed falls on all of them alike."""
    sources = {}
    for mod in sorted(modules):
        for c in checkouts:
            path = os.path.join(c, "src", *mod.split("."))
            path = (os.path.join(path, "__init__.py") if os.path.isdir(path)
                    else path + ".py")
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    sources[c, mod] = path, fh.read()
    times = {key: [] for key in sources}
    for _ in range(runs):
        for key, (path, source) in sources.items():
            t0 = time.perf_counter()
            compile(source, path, "exec")
            times[key].append(time.perf_counter() - t0)
    return {key: (source.count("\n"), tokens(source),
                  1000 * statistics.median(times[key]), compile_peak_kb(source, path))
            for key, (path, source) in sources.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[os.path.dirname(HERE)])
    ap.add_argument("--runs", type=int, default=5,
                    help="cold runs per command and checkout (default 5)")
    args = ap.parse_args()
    checkouts = [os.path.abspath(c) for c in args.checkouts]

    rows = [IMPORT, *COMMANDS]
    walls = {(c, name): [] for c in checkouts for name, _ in rows}
    seen = {}
    loaded = {c: set() for c in checkouts}
    with tempfile.TemporaryDirectory() as scratch:
        tmps = {c: os.path.join(scratch, str(i)) for i, c in enumerate(checkouts)}
        for tmp in tmps.values():
            os.mkdir(tmp)
        for r in range(args.runs):
            for c in checkouts[r % len(checkouts):] + checkouts[:r % len(checkouts)]:
                for name, argv in rows:
                    wall, code, modules = run_command(c, argv, tmps[c])
                    walls[c, name].append(wall)
                    seen[c, name] = code, describe(modules)
                    loaded[c].update(m for m in modules if m == "coringlab"
                                     or m.startswith("coringlab."))

    width = max(len(c) for c in checkouts)
    for name, _ in rows:
        print(name)
        for c in checkouts:
            code, mods = seen[c, name]
            ms = 1000 * statistics.median(walls[c, name])
            print(f"  {c:<{width}}  exit {code}  {ms:6.1f} ms  {mods}")
    for c in checkouts:
        total = sum(1000 * statistics.median(walls[c, name]) for name, _ in COMMANDS)
        print(f"total of medians  {c:<{width}}  {total:7.1f} ms")

    modules = set().union(*loaded.values())
    unloaded = {f"coringlab.{f[:-3]}" for c in checkouts
                for f in os.listdir(os.path.join(c, "src", "coringlab"))
                if f.endswith(".py") and f != "__init__.py"} - modules
    costs = compile_costs(checkouts, modules | unloaded, COMPILES)
    print("\nlines, parser tokens, median compile() ms and compile() peak "
          "of each module; the totals are of those some command loaded")
    for mod in sorted(modules | unloaded):
        print(mod + ("  (loaded by no command)" if mod in unloaded else ""))
        for c in checkouts:
            lines, toks, ms, kb = costs.get((c, mod), (0, 0, 0.0, 0.0))
            print(f"  {c:<{width}}  {lines:6d} lines  {toks:6d} tokens  "
                  f"{ms:6.2f} ms  {kb:7.0f} KB peak")
    for c in checkouts:
        mine = [costs[c, mod] for mod in modules if (c, mod) in costs]
        print(f"total  {c:<{width}}  {sum(m[0] for m in mine):6d} lines  "
              f"{sum(m[1] for m in mine):6d} tokens  {sum(m[2] for m in mine):6.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
