"""Command-line front end.

Subcommands: `group` (structure report), `irreps` (catalog listing),
`chartable` (the 35x35 spin character table as JSON or CSV), `cocycle`
(restricted factor set of one irreducible), and `verify` (the named check
suite).  Output is deterministic: identical invocations produce identical
bytes, except for the wall seconds of each check that `verify --timings`
adds, the one nondeterministic output.  Exit codes: 0 success, 1
verification failure, 2 usage error.

One table, COMMANDS, declares each command's function, positional argument
and options; `parse_args` reads argv against it and the help is printed from
it.  Options are spelled in full.  `csv` and `json` are imported by the code
that prints them, so a launch loads only what its output needs.
"""

import errno
import gc
import io
import os
import re
import sys
from types import SimpleNamespace

from .groups import (SCHEMA_NAMES, COVERING_MAPS, SchemaError, get_group,
                     verify_efficient_covering, isomorphism_fingerprint)
from .cyclo9 import scalar_str
from .spinrep import (ALL_SPIN_TYPES, SpinType, irreps_by_spin_type, full_catalog,
                      native_irreps, spin_character_table, restrict_to_projective)
from .verify import CHECKS, run_checks


class UsageError(Exception):
    pass


def _parse_pair(text, what):
    """The 'x,y' form of --spin and --params: two integers, each an optional
    sign and ASCII digits (none of the other forms int() reads), each mod 3."""
    parts = text.split(",")
    if len(parts) == 2 and all(re.fullmatch("[+-]?[0-9]+", p) for p in parts):
        try:
            return tuple(int(p) % 3 for p in parts)
        except ValueError:  # a numeral longer than int() reads
            pass
    raise UsageError("%s must be two comma-separated integers, got %r" % (what, text))


def _unwritable(path):
    """The errno that opening `path` for writing would meet, or 0; nothing is created."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return errno.EISDIR
    if not path or not os.path.isdir(parent):
        return errno.ENOENT
    return 0 if os.access(path if os.path.exists(path) else parent, os.W_OK) else errno.EACCES


def _emit(text, out_path):
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj):
    import json
    return json.dumps(obj, indent=2) + "\n"


def cmd_group(args):
    params = None if args.params is None else _parse_pair(args.params, "parameters")
    if args.name not in SCHEMA_NAMES:
        raise UsageError("unknown schema %r (know %s)" % (args.name, ", ".join(SCHEMA_NAMES)))
    group = get_group(args.name, params)
    order = len(group.enumerate_elements())
    fp = isomorphism_fingerprint(group)
    report = {
        "group": args.name,
        "params": list(params) if params else None,
        "order": order,
        "center_order": len(group.center_codes()),
        "center": [group.element_str(c) for c in sorted(group.center_codes())],
        "derived_order": len(group.derived_codes()),
        "class_count": len(group.conjugacy_classes()),
        "element_orders": {str(o): c for o, c in fp.element_orders},
        "class_sizes": {str(s): c for s, c in fp.class_sizes},
        "coverings": [],
    }
    for (big, small), (gen_map, kernel) in sorted(COVERING_MAPS.items()):
        if big == args.name:
            res = verify_efficient_covering(group, kernel, get_group(small), gen_map)
            report["coverings"].append({"to": small, "passed": res.passed})
    if args.name == "G81_param":
        same = fp == isomorphism_fingerprint(get_group("G81"))
        report["fingerprint_matches_G81"] = same

    if args.format == "json":
        return _json(report), 0
    lines = ["%s%s" % (args.name, " (a=%d, b=%d)" % params if params else "")]
    lines.append("  order            %d" % report["order"])
    lines.append("  center           %d elements: %s"
                 % (report["center_order"], ", ".join(report["center"])))
    lines.append("  derived subgroup %d elements" % report["derived_order"])
    lines.append("  classes          %d" % report["class_count"])
    lines.append("  element orders   %s" % report["element_orders"])
    for cov in report["coverings"]:
        lines.append("  covering -> %-5s %s" % (cov["to"], "pass" if cov["passed"] else "FAIL"))
    if "fingerprint_matches_G81" in report:
        lines.append("  fingerprint matches G81: %s" % report["fingerprint_matches_G81"])
    return "\n".join(lines) + "\n", 0


_NATIVE_CATALOGS = {native_irreps(spin)[0] for spin in ALL_SPIN_TYPES}


def _native_irreps(group_name, spin):
    if spin is None and group_name != "R243":
        raise UsageError("--spin all is only available for R243")
    if group_name == "R243":
        return list(full_catalog()) if spin is None else irreps_by_spin_type(spin)
    native, build = native_irreps(spin)
    if native != group_name:
        raise UsageError("group %s does not carry spin type %s natively"
                         % (group_name, spin))
    return build()


def cmd_irreps(args):
    spin = None if args.spin == "all" else SpinType(*_parse_pair(args.spin, "spin type"))
    if args.group not in _NATIVE_CATALOGS:
        raise UsageError("unknown or catalog-free group %r" % args.group)
    reps = _native_irreps(args.group, spin)
    entries = []
    for rep in sorted(reps, key=lambda r: (tuple(r.spin_type), r.name)):
        entries.append({
            "name": rep.name,
            "spin_type": list(rep.spin_type),
            "dim": rep.dim,
            "group": args.group,
            "images": {gen: rep.images[gen].str_rows()
                       for gen in rep.group.schema.gens},
        })
    if args.format == "json":
        return _json({"group": args.group, "count": len(entries), "irreps": entries}), 0
    lines = []
    for e in entries:
        lines.append("%s  spin (%d,%d)  dim %d"
                     % (e["name"], e["spin_type"][0], e["spin_type"][1], e["dim"]))
        for gen, rows in e["images"].items():
            lines.append("  %-4s %s" % (gen, rows))
    lines.append("%d irreducibles" % len(entries))
    return "\n".join(lines) + "\n", 0


def cmd_chartable(args):
    table = spin_character_table()
    classes = [{"rep": table.group.element_str(code), "size": size}
               for code, size in table.classes]
    irreps = [{"name": name, "spin_type": list(st), "dim": dim,
               "values": [scalar_str(v) for v in values]}
              for name, st, dim, values in table.rows]
    if args.format == "json":
        return _json({"group": "R243", "classes": classes, "irreps": irreps}), 0
    if args.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "spin", "dim"] + [c["rep"] for c in classes])
        writer.writerow(["", "", "size"] + [c["size"] for c in classes])
        for row in irreps:
            writer.writerow([row["name"], "(%d,%d)" % tuple(row["spin_type"]),
                             row["dim"]] + row["values"])
        return buf.getvalue(), 0
    raise UsageError("chartable supports json or csv")


def cmd_cocycle(args):
    if args.spin == "all":
        raise UsageError("cocycle needs one spin type, not 'all'")
    spin = SpinType(*_parse_pair(args.spin, "spin type"))
    reps = irreps_by_spin_type(spin)
    if args.irrep is not None:
        match = [r for r in reps if r.name == args.irrep]
        if not match:
            raise UsageError("no irreducible %r of spin type %s (have %s)"
                             % (args.irrep, spin, ", ".join(r.name for r in reps)))
        rep = match[0]
    else:
        rep = reps[0]
    coc = restrict_to_projective(rep)
    violation = coc.identity_violation()
    g27 = coc.base
    payload = {
        "group": "G27",
        "irrep": rep.name,
        "spin_type": list(rep.spin_type),
        "elements": [g27.element_str(g) for g in range(g27.order)],
        "alpha": [[scalar_str(coc.value(g, h)) for h in range(g27.order)]
                  for g in range(g27.order)],
        "trivial": bool(coc.is_trivial()),
        "cocycle_identity": "verified" if violation is None else "FAILED at %s" % (violation,),
    }
    text = _json(payload) if args.format == "json" else _cocycle_text(payload)
    return text, 0 if violation is None else 1


def _cocycle_text(payload):
    lines = ["cocycle of %s (spin type (%d,%d)) on the base group"
             % (payload["irrep"], payload["spin_type"][0], payload["spin_type"][1]),
             "identity: %s; trivial: %s" % (payload["cocycle_identity"], payload["trivial"])]
    for g, row in zip(payload["elements"], payload["alpha"]):
        lines.append("%-18s %s" % (g, " ".join("%-6s" % v for v in row)))
    return "\n".join(lines) + "\n"


def cmd_verify(args):
    only = args.only.split(",") if args.only is not None else None
    try:
        results = run_checks(only)
    except KeyError as exc:
        raise UsageError(exc.args[0])  # str() of a KeyError would quote it
    passed = all(r.passed for r in results)
    if args.format == "json":
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        if args.timings:
            for entry, r in zip(checks, results):
                entry["seconds"] = round(r.seconds, 6)
        text = _json({"passed": passed, "checks": checks})
    else:
        lines = ["%s %-16s %s" % ("PASS" if r.passed else "FAIL", r.name, r.detail)
                 + (" [%.3f s]" % r.seconds if args.timings else "") for r in results]
        lines.append("%d/%d checks passed" % (sum(r.passed for r in results), len(results)))
        text = "\n".join(lines) + "\n"
    return text, 0 if passed else 1


# The command line, one entry per command: its function, summary, positional
# argument as (name, help) or None, and options as (name, default, choices,
# help).  An option whose default is REQUIRED must be given; one whose default
# is False is a flag.  No value starts with "-": negative spins need --spin=-1,0.
REQUIRED = object()
_SPIN_HELP = "'e,m' (e.g. 1,0; -1 means 2, written --spin=-1,0)"
_TEXT_OR_JSON = ("--format", "text", ("text", "json"), None)
_OUT = ("--out", None, None, "write to this file instead of stdout")
COMMANDS = {
    "group": (cmd_group, "structure report for a catalog group",
              ("name", "one of %s" % ", ".join(SCHEMA_NAMES)),
              [("--params", None, None, "a,b pair for G81_param"), _TEXT_OR_JSON, _OUT]),
    "irreps": (cmd_irreps, "list irreducibles of a spin type", None,
               [("--spin", REQUIRED, None, _SPIN_HELP + " or 'all'"),
                ("--group", "R243", None, None), _TEXT_OR_JSON, _OUT]),
    "chartable": (cmd_chartable, "emit the 35x35 spin character table", None,
                  [("--format", "json", ("json", "csv"), None), _OUT]),
    "cocycle": (cmd_cocycle, "restricted factor set of one irreducible", None,
                [("--spin", REQUIRED, None, _SPIN_HELP), ("--irrep", None, None, None),
                 _TEXT_OR_JSON, _OUT]),
    "verify": (cmd_verify, "run the verification suite", None,
               [("--only", None, None, "comma-separated check names (%s)" % ", ".join(CHECKS)),
                _TEXT_OR_JSON, _OUT,
                ("--timings", False, None,
                 "add each check's wall seconds (nondeterministic output)")]),
}


def parse_args(argv):
    """The function and arguments of the command that `argv` names, or its
    help when -h or --help comes before any error; a bad argv raises
    UsageError.  A repeated option keeps its last value."""
    command, tokens = (argv[0] if argv else None), iter(argv[1:])
    if command in ("-h", "--help"):
        return _help, SimpleNamespace(command=None, out=None)
    if command not in COMMANDS:
        raise UsageError("%s (choose from %s)" % ("unknown command %r" % command if argv
                                                  else "missing command", ", ".join(COMMANDS)))
    _, _, positional, options = COMMANDS[command]
    spec = {opt[0]: opt for opt in options}
    values = {name: default for name, default, _, _ in options}
    if positional:
        values[positional[0]] = REQUIRED
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, SimpleNamespace(command=command, out=None)
        if not token.startswith("-"):
            if not positional or values[positional[0]] is not REQUIRED:
                raise UsageError("unexpected argument %r" % token)
            values[positional[0]] = token
            continue
        name, eq, value = token.partition("=")
        if name not in spec:
            raise UsageError("unknown option %r (%s takes %s)" % (name, command, ", ".join(spec)))
        _, default, choices, _ = spec[name]
        if default is False:
            if eq:
                raise UsageError("argument %s: takes no value, got %r" % (name, token))
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                raise UsageError("argument %s: expected one argument" % name)
        if choices and value not in choices:
            raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                             % (name, value, ", ".join(choices)))
        values[name] = value
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError("the following arguments are required: %s" % ", ".join(missing))
    return COMMANDS[command][0], SimpleNamespace(
        **{name.lstrip("-"): value for name, value in values.items()})


def _help(args):
    """The help of one command, or of the program when args.command is None."""
    if args.command is None:
        head = "spinchar: exact spin characters of the order-27 group of exponent 3"
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, summary, positional, options = COMMANDS[args.command]
        head, rows = "spinchar %s: %s" % (args.command, summary), [positional] if positional else []
        for name, default, choices, text in options:
            form = name if default is False else "%s %s" % (
                name, "{%s}" % ",".join(choices) if choices else name[2:].upper())
            note = ("(required)" if default is REQUIRED
                    else "(default: %s)" % default if default else "")
            rows.append((form, ("%s %s" % (text or "", note)).strip()))
    return "\n".join([head] + [("  %-22s %s" % row).rstrip() for row in rows]) + "\n", 0


def main(argv=None):
    """Run one command and return its exit code, 2 for a bad argv (never a
    SystemExit).  main() owns its process: it first freezes the heap that
    exists at entry (the interpreter, the standard library and spinchar's
    modules) into the permanent generation, so no later collection walks it
    again, those at interpreter shutdown included."""
    gc.freeze()
    try:
        run, args = parse_args(sys.argv[1:] if argv is None else argv)
        bad = args.out is not None and _unwritable(args.out)
        if bad:  # refused before any work; a race at the write is caught below
            raise UsageError("cannot write %s: %s" % (args.out, os.strerror(bad)))
        text, code = run(args)
    except (UsageError, SchemaError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        _emit(text, args.out)
    except OSError as exc:
        print("error: cannot write %s: %s" % ("stdout" if args.out is None else args.out,
                                              exc.strerror or exc), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
