"""Command-line surface: outputs, formats, determinism, exit codes."""

import contextlib
import csv
import errno
import io
import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from spinchar import cli, verify
from spinchar.cli import main
from spinchar.cyclo9 import parse_scalar, scalar_str
from spinchar.spinrep import ALL_SPIN_TYPES, irreps_by_spin_type


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_report(capsys):
    code, out, _ = run_cli(capsys, "group", "R243", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 243
    assert report["center_order"] == 9
    assert report["derived_order"] == 27
    assert report["class_count"] == 35
    assert {c["to"]: c["passed"] for c in report["coverings"]} == \
        {"G27": True, "G81": True, "GBAR": True}


def test_group_g27(capsys):
    code, out, _ = run_cli(capsys, "group", "G27")
    assert code == 0
    assert "order            27" in out
    assert "classes          11" in out
    assert "x2" in out  # the center is spanned by x2


def test_group_param_and_gsharp(capsys):
    code, out, _ = run_cli(capsys, "group", "G81_param", "--params", "1,2",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 81
    assert report["fingerprint_matches_G81"] is False
    code, out, _ = run_cli(capsys, "group", "G81_param", "--params", "1,0",
                           "--format", "json")
    assert json.loads(out)["fingerprint_matches_G81"] is True
    code, out, _ = run_cli(capsys, "group", "GSHARP", "--format", "json")
    assert json.loads(out)["order"] == 243


def test_unknown_group_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "group", "NOPE")
    assert code == 2
    assert "unknown schema" in err
    code, out, err = run_cli(capsys, "group", "G81_param", "--params", "1,x")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_irreps_listing(capsys):
    code, out, _ = run_cli(capsys, "irreps", "--spin", "1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert [e["name"] for e in data["irreps"]] == \
        ["Pi(1,0;0)", "Pi(1,0;1)", "Pi(1,0;2)"]
    assert all(e["dim"] == 3 for e in data["irreps"])

    code, out, _ = run_cli(capsys, "irreps", "--spin", "0,0", "--format", "json")
    assert json.loads(out)["count"] == 11

    code, out, _ = run_cli(capsys, "irreps", "--spin", "all", "--format", "json")
    assert json.loads(out)["count"] == 35


def test_irreps_spin_alias_and_errors(capsys):
    # negative components need the --spin=-1,0 form: no value starts with "-"
    code, out, _ = run_cli(capsys, "irreps", "--spin=-1,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["irreps"][0]["spin_type"] == [2, 0]
    code, _, err = run_cli(capsys, "irreps", "--spin", "bogus")
    assert code == 2
    code, _, err = run_cli(capsys, "irreps", "--spin", "1,1", "--group", "G27")
    assert code == 2


def _exit_code(argv):
    """main(argv)'s exit code (usage errors and --help included), stdout and
    stderr; main() returns every exit code, so a SystemExit fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            raise AssertionError("main(%r) raised SystemExit(%r)" % (argv, exc.code)) from exc
    return code, out.getvalue(), err.getvalue()


_CHOICES = "(choose from group, irreps, chartable, cocycle, verify)"


@pytest.mark.parametrize("argv, message", [
    ([], "missing command " + _CHOICES),
    (["bogus"], "unknown command 'bogus' " + _CHOICES),
    (["group", "G27", "--bogus"], "unknown option '--bogus' (group takes --params, --format, --out)"),
    (["cocycle", "--irrep"], "argument --irrep: expected one argument"),
    (["group", "G27", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from text, json)"),
    (["irreps"], "the following arguments are required: --spin"),
    (["group", "R243", "G27"], "unexpected argument 'G27'"),
    (["verify", "--timings=1"], "argument --timings: takes no value, got '--timings=1'"),
    # options are spelled in full: no prefix stands for --format
    (["group", "G27", "--form", "json"],
     "unknown option '--form' (group takes --params, --format, --out)"),
])
def test_malformed_argv_is_a_usage_error(argv, message):
    # each is refused by the parser, before any command runs
    assert _exit_code(argv) == (2, "", "error: %s\n" % message)


def test_help_lists_what_the_table_declares():
    code, out, err = _exit_code(["--help"])
    assert (code, err) == (0, "") and _exit_code(["-h"]) == (code, out, err)
    assert all("\n  %s " % name in out for name in cli.COMMANDS)
    for command, (_, summary, positional, options) in cli.COMMANDS.items():
        code, out, err = _exit_code([command, "--help"])
        assert (code, err) == (0, "") and _exit_code([command, "-h"]) == (code, out, err)
        assert summary in out
        names = [name for name, *_ in options] + ([positional[0]] if positional else [])
        assert all("\n  %s" % name in out for name in names), command
        # help counts only when it comes before the first bad token
        assert _exit_code([command, "--bogus=1", "--help"])[0] == 2
        assert _exit_code([command, "--help", "--bogus=1"]) == (code, out, err)


def test_a_failed_write_to_stdout_names_stdout():
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    err = io.StringIO()
    with contextlib.redirect_stdout(Full()), contextlib.redirect_stderr(err):
        code = main(["group", "G27"])
    assert (code, err.getvalue()) == (2, "error: cannot write stdout: No space left on device\n")


def test_each_spin_type_lists_on_r243_and_on_its_one_native_group():
    native = {"non-spin": "G27", "purely-spin": "R243"}
    for spin in ALL_SPIN_TYPES:
        home = native.get(spin.kind, "G81" if spin.mu == 0 else "GBAR")
        want = [rep.name for rep in irreps_by_spin_type(spin)]
        for group in ("G27", "G81", "GBAR", "R243"):
            code, out, err = _exit_code(["irreps", "--group", group, "--spin",
                                         "%d,%d" % spin, "--format", "json"])
            if group in ("R243", home):
                assert (code, err) == (0, ""), (group, spin)
                data = json.loads(out)
                assert [e["name"] for e in data["irreps"]] == want, (group, spin)
                assert {e["group"] for e in data["irreps"]} == {group}
            else:
                assert (code, out) == (2, ""), (group, spin)
                assert "group %s does not carry spin type %s" % (group, spin) in err


def test_irreps_refuses_a_group_without_a_catalog():
    # the groups with a catalog are the ones native_irreps names
    assert cli._NATIVE_CATALOGS == {"G27", "G81", "GBAR", "R243"}
    for group in ("GSHARP", "G81_param", "NOPE", ""):
        for spin in ("1,1", "all"):
            code, out, err = _exit_code(["irreps", "--group", group, "--spin", spin])
            assert (code, out) == (2, "")
            assert err == "error: unknown or catalog-free group %r\n" % group


def test_negative_spin_needs_the_equals_form(capsys):
    code, want, _ = run_cli(capsys, "irreps", "--spin", "2,0", "--group", "G81")
    assert code == 0 and want
    assert run_cli(capsys, "irreps", "--spin=-1,0", "--group", "G81") == (0, want, "")
    for command in ("irreps", "cocycle"):
        # the help shows the form that works ...
        code, out, _ = _exit_code([command, "--help"])
        assert code == 0 and "--spin=-1,0" in out
        # ... because "--spin -1,0" reads as --spin with no value
        code, out, err = _exit_code([command, "--spin", "-1,0"])
        assert (code, out) == (2, "")
        assert "expected one argument" in err and "Traceback" not in err


def test_malformed_pairs_are_usage_errors():
    # --spin and --params share one 'x,y' parser
    for argv in (["irreps", "--spin", "1,2,3"], ["cocycle", "--spin", "x,1"],
                 ["irreps", "--spin", "x,1"], ["cocycle", "--spin", "1,2,3"],
                 ["group", "G81_param", "--params", "1"],
                 ["group", "G81_param", "--params", "1,x"],
                 # int() would read these: only a sign and ASCII digits pass
                 ["group", "G81_param", "--params", "1_0,2"],
                 ["group", "G81_param", "--params", "\u0661,0"],
                 ["irreps", "--spin", "\u0662,0"]):
        code, out, err = _exit_code(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "two comma-separated integers" in err, argv
        assert "Traceback" not in err


def test_chartable_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "chartable", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert len(table["classes"]) == 35
    assert len(table["irreps"]) == 35
    # every cell parses back through the scalar grammar bit-exactly
    for row in table["irreps"]:
        for cell in row["values"]:
            assert scalar_str(parse_scalar(cell)) == cell
    # the anchor row: value 3 at the identity class, 3w at the n2 class
    row = next(r for r in table["irreps"] if r["name"] == "Pi(0,1)")
    reps = [c["rep"] for c in table["classes"]]
    assert row["values"][reps.index("1")] == "3"
    assert row["values"][reps.index("n2^1")] == "3*w"
    # identity column equals the dimension list
    i_id = reps.index("1")
    for r in table["irreps"]:
        assert r["values"][i_id] == str(r["dim"])


def test_chartable_csv(capsys):
    code, out, _ = run_cli(capsys, "chartable", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 37  # header + sizes + 35 irreducibles
    assert rows[0][:3] == ["name", "spin", "dim"]
    assert len(rows[0]) == 3 + 35


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "chartable", "--format", "json")
    _, second, _ = run_cli(capsys, "chartable", "--format", "json")
    assert first == second
    _, g1, _ = run_cli(capsys, "group", "R243", "--format", "json")
    _, g2, _ = run_cli(capsys, "group", "R243", "--format", "json")
    assert g1 == g2


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "chartable", "--out", str(out_path))
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(data["irreps"]) == 35
    missing = tmp_path / "no_such_dir" / "x.csv"
    code, out, err = run_cli(capsys, "chartable", "--out", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    # an empty path is a path that cannot be written, not "no --out given"
    code, out, err = run_cli(capsys, "group", "G27", "--out", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write : ")


def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    calls, real = [], cli.run_checks
    monkeypatch.setattr(cli, "run_checks", lambda only: calls.append(only) or real(only))
    for path, reason in [(tmp_path / "no_such_dir" / "x.txt", "No such file or directory"),
                         (tmp_path, "Is a directory")]:
        code, out, err = run_cli(capsys, "verify", "--out", str(path))
        assert (code, out, err) == (2, "", "error: cannot write %s: %s\n" % (path, reason))
    kept = tmp_path / "kept.txt"
    kept.write_text("old", encoding="utf-8")
    with monkeypatch.context() as m:  # a parent or file without write permission
        m.setattr(os, "access", lambda path, mode: False)
        code, _, err = run_cli(capsys, "verify", "--out", str(kept))
    assert code == 2 and err.endswith(": Permission denied\n")
    assert calls == []  # not one check ran
    # a writable path is not created or truncated before the command succeeds
    code, _, err = run_cli(capsys, "verify", "--only", "bogus", "--out", str(kept))
    assert code == 2 and err.startswith("error: unknown checks: ")
    assert kept.read_text(encoding="utf-8") == "old"
    code, _, _ = run_cli(capsys, "group", "G27", "--out", str(tmp_path / "new.txt"))
    assert code == 0 and sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "new.txt"]


def test_cocycle_command(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "--spin", "1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cocycle_identity"] == "verified"
    assert data["trivial"] is False
    assert len(data["alpha"]) == 27
    values = {v for row in data["alpha"] for v in row}
    assert values == {"1", "w", "-1-1*w"}

    code, out, _ = run_cli(capsys, "cocycle", "--spin", "0,0", "--format", "json")
    assert json.loads(out)["trivial"] is True

    code, out, _ = run_cli(capsys, "cocycle", "--spin", "1,1",
                           "--irrep", "Pi(1,1;2)", "--format", "json")
    assert json.loads(out)["irrep"] == "Pi(1,1;2)"

    code, _, err = run_cli(capsys, "cocycle", "--spin", "1,1", "--irrep", "nope")
    assert code == 2

    # an empty name is a name that matches nothing, not "no --irrep given"
    code, out, err = run_cli(capsys, "cocycle", "--spin", "1,1", "--irrep=")
    assert (code, out) == (2, "")
    assert "no irreducible ''" in err


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "orders,orbits")
    assert code == 0
    assert "PASS orders" in out and "PASS orbits" in out
    assert "2/2 checks passed" in out
    code, out, _ = run_cli(capsys, "verify", "--only", "orders", "--format", "json")
    assert json.loads(out)["passed"] is True


def test_verify_timings_are_opt_in(capsys):
    argv = ["verify", "--only", "orders,orbits"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and all("seconds" not in c for c in json.loads(out)["checks"])
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--timings")
    checks = json.loads(out)["checks"]
    assert code == 0 and [c["name"] for c in checks] == ["orders", "orbits"]
    assert all(type(c["seconds"]) is float and c["seconds"] >= 0 for c in checks)
    code, plain, _ = run_cli(capsys, *argv)
    code, timed, _ = run_cli(capsys, *argv, "--timings")
    assert code == 0 and timed.splitlines()[-1] == plain.splitlines()[-1]
    for line, timed_line in zip(plain.splitlines()[:-1], timed.splitlines()[:-1]):
        assert re.fullmatch(re.escape(line) + r" \[\d+\.\d{3} s\]", timed_line)


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
    assert code == 2
    assert err.startswith("error: unknown checks: 'nonsense' (know orders, ")
    # blank names are shown, not listed invisibly
    code, _, err = run_cli(capsys, "verify", "--only", ",")
    assert code == 2
    assert err.startswith("error: unknown checks: '' (know orders, ")
    code, _, err = run_cli(capsys, "verify", "--only", "orders, ,bogus")
    assert code == 2
    assert err.startswith("error: unknown checks: '', 'bogus' (know ")
    # an empty list names one blank check; it does not mean "run them all"
    code, out, err = run_cli(capsys, "verify", "--only", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown checks: '' (know orders, ")


def test_verify_names_each_unknown_check_once(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "foo,foo")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown checks: 'foo' (know orders, ")
    code, out, err = run_cli(capsys, "verify", "--only", "bar,orders,foo,,bar, foo,")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown checks: 'bar', 'foo', '' (know orders, ")


def test_verify_repeated_check_is_refused(capsys, monkeypatch):
    ran = []
    for name in verify.CHECKS:
        monkeypatch.setitem(verify.CHECKS, name, lambda name=name: ran.append(name))
    code, out, err = run_cli(capsys, "verify", "--only", "orders,orders")
    assert (code, out, err) == (2, "", "error: repeated checks: 'orders'\n")
    code, out, err = run_cli(capsys, "verify", "--only", "orbits,orders,orbits,orders,orbits")
    assert (code, out, err) == (2, "", "error: repeated checks: 'orbits', 'orders'\n")
    assert ran == []


# CLI fuzz: argv from the subcommands, their flags and malformed values.  A
# verify always ends with an --only of cheap checks, so the full suite never
# runs here; --out only names paths that cannot be written.
_FLAG_VALUES = {
    "--params": ["1,2", "1,x", "1", "", "9,-9", "a,b,c"],
    "--format": ["json", "csv", "text", "xml", ""],
    "--spin": ["1,1", "0,0", "2,0", "all", "1", "a,b", "", "-1,2", "3,4"],
    "--group": ["R243", "G27", "G81", "GBAR", "GSHARP", "NOPE", ""],
    "--irrep": ["Pi(1,1;0)", "Pi(0,0,0)", "nope", ""],
    "--only": ["orders", "orbits,intertwiner", ",", "bogus", "characters, orders", ""],
    "--out": ["/nonexistent-dir/x.txt", ".", ""],
}
_COMMAND_FLAGS = {
    "group": ["--params", "--format", "--out"],
    "irreps": ["--spin", "--group", "--format", "--out"],
    "chartable": ["--format", "--out"],
    "cocycle": ["--spin", "--irrep", "--format", "--out"],
    "verify": ["--only", "--format", "--out"],
    "bogus": [],
    "": [],
}
_JUNK = st.one_of(st.sampled_from(["--bogus", "-x", "--help", "--spin", "--params"]),
                  st.text(max_size=4))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_cleanly(data):
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    if command == "group":
        argv += data.draw(st.sampled_from([["R243"], ["G81_param"], ["G27"], ["NOPE"], [""], []]))
    for flag in data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command] or ["--format"]),
                                   max_size=3)):
        argv += [flag, data.draw(st.sampled_from(_FLAG_VALUES[flag]))]
    if command in ("irreps", "cocycle"):
        argv += ["--spin", data.draw(st.sampled_from(_FLAG_VALUES["--spin"]))]
    if data.draw(st.integers(0, 4)) == 0:
        argv.append(data.draw(_JUNK))
    if command == "verify":
        argv += ["--only", data.draw(st.sampled_from(["orders", "orbits", "intertwiner,characters",
                                                      "nope"]))]
    code, _, err = _exit_code(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
