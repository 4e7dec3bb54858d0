"""What a fresh process imports and builds.

Importing the CLI loads every module the benchmark's tracer wraps, and none
of numpy, `dataclasses` (which imports `inspect`) or `fractions` (which
imports `decimal`).  The structural commands (`group` reports) run on the
Cayley table's Python rows and never load those modules either, nor do
the table-only `verify` checks (orders, structure, automorphism, orbits).
The catalog commands (`chartable`, `irreps`, `cocycle`) compute on Python
ints and load none of numpy, `fractions` or `decimal`, and neither does a
whole `verify`: Light's test and the GSHARP random associativity pass walk
the byte rows, so no command imports numpy.  `verify` never loads
`hashlib`, and one `verify` builds each catalog schema and each table
once.  `irreps` refuses a group that does not carry the spin type before
it builds anything.  `main()` freezes the heap it finds at entry, so no
collection walks it again.  The argv parser is spinchar's own, so no launch
loads `argparse`, `gettext` or `locale`, and `csv` and `json` load only
with the output that needs them.  These are properties of a whole process, so
each test runs its code in a child interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the 14 catalog groups as get_group arguments
CATALOG = ([(name, None) for name in ("G27", "G81", "GBAR", "R243", "GSHARP")]
           + [("G81_param", (a, b)) for a in range(3) for b in range(3)])

# the 14 `group` reports of the benchmark's structure workload
GROUP_ARGS = ([[name] for name in ("G27", "G81", "GBAR", "R243", "GSHARP")]
              + [["G81_param", "--params", "%d,%d" % (a, b)]
                 for a in range(3) for b in range(3)])

# the catalog-building commands: the table in both formats, every irreducible,
# one native family, and one cocycle of each spin kind
CATALOG_ARGS = [["chartable", "--format", "json"], ["chartable", "--format", "csv"],
                ["irreps", "--spin", "all", "--format", "json"],
                ["irreps", "--group", "G81", "--spin", "1,0", "--format", "json"],
                ["cocycle", "--spin", "0,0", "--irrep", "Pi(0,1)", "--format", "json"],
                ["cocycle", "--spin", "0,2", "--irrep", "Pi(0,2;1)", "--format", "json"],
                ["cocycle", "--spin", "1,1", "--irrep", "Pi(1,1;0)", "--format", "json"]]


# modules a cold launch should not pay for unless a command needs them
HEAVY = ("numpy", "dataclasses", "inspect", "fractions", "decimal")

# argparse and what it loads, and the csv printer: no launch here needs them
PARSER_AND_PRINTERS = ("argparse", "gettext", "locale", "csv", "_csv")

# the spinchar modules that perfbench/tracer.py looks up right after the import
TRACED = ("cli", "groups", "cyclo", "cyclo9", "linalg", "mackey", "spinrep", "verify")


def _run(code, **variables):
    """stdout of `code` in a child interpreter; `variables` set (a str) or
    unset (None) environment variables on top of this process's."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, value in variables.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_traced_modules_and_nothing_heavy():
    out = _run("""
import sys
before = set(sys.modules)
import spinchar.cli
print(sorted(m for m in %r if m in sys.modules and m not in before))
print(sorted(m for m in %r if "spinchar." + m not in sys.modules))
""" % (HEAVY, TRACED))
    assert out == "[]\n[]\n"


def test_launches_load_no_argv_parser_or_unused_printer():
    # the import, a text verify and the structure workload's 14 json reports
    out = _run("""
import contextlib, io, sys
before = set(sys.modules)
def new(*extra):
    return sorted(m for m in %r + extra if m in sys.modules and m not in before)
from spinchar.cli import main
print(new("json", "_json"))
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--only", "orders"]) == 0
print(new("json", "_json"))
for args in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
print(new(), "json" in sys.modules)
""" % (PARSER_AND_PRINTERS, [["group"] + args + ["--format", "json"] for args in GROUP_ARGS]))
    assert out == "[]\n[]\n[] True\n"


def test_main_freezes_the_heap_it_finds_at_entry():
    # every object tracked before the call sits in the permanent generation
    # after it; the list of them is held so that none dies in between
    out = _run("""
import contextlib, gc, io
from spinchar.cli import main
tracked = gc.get_objects()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["group", "G27", "--format", "json"]) == 0
print(gc.get_freeze_count() >= len(tracked) > 10000)
""")
    assert out == "True\n"


def test_group_reports_import_no_numpy():
    # nor do the table-only checks, the dual and orbit check among them
    out = _run("""
import contextlib, io, sys
before = set(sys.modules)
from spinchar.cli import main
for args in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
print(sorted(m for m in %r if m in sys.modules and m not in before))
""" % ([["group"] + args + ["--format", "json"] for args in GROUP_ARGS]
       + [["verify", "--only", "orders,structure,automorphism,orbits"]], HEAVY))
    assert out == "[]\n"


def test_catalog_commands_import_no_numpy():
    # nor `fractions` or `decimal`: the cube-root search runs on integer pairs
    out = _run("""
import contextlib, io, sys
from spinchar.cli import main
before = set(sys.modules)
for args in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
print(sorted(m for m in ("numpy", "fractions", "decimal") if m in sys.modules and m not in before))
""" % (CATALOG_ARGS,))
    assert out == "[]\n"


def test_verify_loads_no_numpy_random_or_hashlib():
    # the associativity spot check draws from the standard library's random;
    # the structural checks run first, so each verdict is their own
    out = _run("""
import contextlib, io, sys
from spinchar.cli import main
for args in (%r, ["verify"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
    print(sorted(m for m in %r if m in sys.modules))
""" % (["verify", "--only", "orders,structure,automorphism,orbits,associativity"],
       ("numpy.random", "secrets", "hashlib", "_hashlib")))
    assert out == "[]\n[]\n"


def test_orthogonality_and_cocycle_import_no_numpy():
    # the Gram and column sums run on packed Python ints, the cocycle
    # comparison on byte rows
    out = _run("""
import contextlib, io, sys
from spinchar.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--only", "orthogonality,cocycle"]) == 0
print("numpy" in sys.modules)
""")
    assert out == "False\n"


def test_verify_imports_nothing_heavy():
    # numpy among them: the GSHARP random pass walks the byte rows
    out = _run("""
import contextlib, io, sys
from spinchar.cli import main
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify"]) == 0
print(sorted(m for m in %r if m in sys.modules and m not in before))
""" % (HEAVY,))
    assert out == "[]\n"


def test_verify_builds_each_schema_once():
    # get_group normalizes its arguments before it looks a group up, and
    # builds a schema only for a key it has not seen
    out = _run("""
from collections import Counter
from spinchar import groups, verify
built = Counter()
init = groups.GroupSchema.__init__
def counting(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built[self.key] += 1
groups.GroupSchema.__init__ = counting
assert all(r.passed for r in verify.run_checks())
print(len(built), sorted(built) == sorted(groups._GROUPS), max(built.values()))
""")
    assert out == "14 True 1\n"


def test_verify_builds_each_table_once():
    out = _run("""
from collections import Counter
from spinchar import groups, verify
built = Counter()
build = groups.Group._build_rows
def counting(self):
    built[self.schema.key] += 1
    return build(self)
groups.Group._build_rows = counting
assert all(r.passed for r in verify.run_checks())
print(len(built), max(built.values()))
""")
    assert out == "14 1\n"


def test_lights_test_on_the_rows_imports_no_numpy():
    out = _run("""
import sys
from spinchar.groups import exhaustive_associativity, get_group
print([exhaustive_associativity(get_group(*args)) for args in %r])
print("numpy" in sys.modules)
""" % (CATALOG,))
    assert out == "%s\nFalse\n" % ([None] * 14)


def test_mismatched_irreps_group_is_refused_before_any_build():
    out = _run("""
import contextlib, io
from spinchar import spinrep
from spinchar.cli import main
refused = 0
for group in ("G27", "G81", "GBAR"):
    for spin in spinrep.ALL_SPIN_TYPES:
        if spinrep.native_irreps(spin)[0] != group:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["irreps", "--group", group, "--spin", "%d,%d" % spin])
            assert code == 2 and "does not carry spin type" in err.getvalue()
            refused += 1
print(refused, [name for name in dir(spinrep) if name.endswith("_catalog")
                and getattr(spinrep, name).cache_info().currsize])
""")
    assert out == "22 []\n"
