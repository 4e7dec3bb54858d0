"""Command-line surface: outputs, formats, determinism, exit codes."""

import contextlib
import csv
import io
import json

from hypothesis import given, settings, strategies as st

from spinchar.cli import main
from spinchar.cyclo9 import parse_scalar, scalar_str


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
    # negative components need the --spin=-1,0 form (argparse quirk)
    code, out, _ = run_cli(capsys, "irreps", "--spin=-1,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["irreps"][0]["spin_type"] == [2, 0]
    code, _, err = run_cli(capsys, "irreps", "--spin", "bogus")
    assert code == 2
    code, _, err = run_cli(capsys, "irreps", "--spin", "1,1", "--group", "G27")
    assert code == 2


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


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
    assert code == 2
    assert err.startswith("error: unknown checks: 'nonsense' (know orders, ")
    # blank names are shown, not listed invisibly
    code, _, err = run_cli(capsys, "verify", "--only", ",")
    assert code == 2
    assert err.startswith("error: unknown checks: '', '' (know orders, ")
    code, _, err = run_cli(capsys, "verify", "--only", "orders, ,bogus")
    assert code == 2
    assert err.startswith("error: unknown checks: '', 'bogus' (know ")


# CLI fuzz: argv from the subcommands, their flags and malformed values.  A
# verify always ends with an --only of cheap checks, so the full suite never
# runs here; --out only names paths that cannot be written.
_FLAG_VALUES = {
    "--params": ["1,2", "1,x", "1", "", "9,-9", "a,b,c"],
    "--format": ["json", "csv", "text", "xml", ""],
    "--spin": ["1,1", "0,0", "2,0", "all", "1", "a,b", "", "-1,2", "3,4"],
    "--group": ["R243", "G27", "G81", "GBAR", "GSHARP", "NOPE", ""],
    "--irrep": ["Pi(1,1;0)", "Pi(0,0,0)", "nope", ""],
    "--only": ["orders", "orbits,intertwiner", ",", "bogus", "characters, orders"],
    "--out": ["/nonexistent-dir/x.txt", "."],
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
