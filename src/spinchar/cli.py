"""Command-line front end.

Subcommands: `group` (structure report), `irreps` (catalog listing),
`chartable` (the 35x35 spin character table as JSON or CSV), `cocycle`
(restricted factor set of one irreducible), and `verify` (the named check
suite).  Output is deterministic: identical invocations produce identical
bytes, except for the wall seconds of each check that `verify --timings`
adds, the one nondeterministic output.  Exit codes: 0 success, 1
verification failure, 2 usage error.
"""

import argparse
import csv
import errno
import gc
import io
import json
import os
import re
import sys

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


COMMANDS = {"group": cmd_group, "irreps": cmd_irreps, "chartable": cmd_chartable,
            "cocycle": cmd_cocycle, "verify": cmd_verify}


def build_parser():
    spin_help = "'e,m' (e.g. 1,0; -1 means 2, written --spin=-1,0)"
    parser = argparse.ArgumentParser(
        prog="spinchar",
        description="Exact spin representations and characters of the "
                    "order-27 group of exponent 3 via its order-243 "
                    "representation group.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="structure report for a catalog group")
    p.add_argument("name", help="one of %s" % ", ".join(SCHEMA_NAMES))
    p.add_argument("--params", help="a,b pair for G81_param")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("irreps", help="list irreducibles of a spin type")
    p.add_argument("--spin", required=True, help=spin_help + " or 'all'")
    p.add_argument("--group", default="R243")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("chartable", help="emit the 35x35 spin character table")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("cocycle", help="restricted factor set of one irreducible")
    p.add_argument("--spin", required=True, help=spin_help)
    p.add_argument("--irrep")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="comma-separated check names (%s)" % ", ".join(CHECKS))
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true",
                   help="add each check's wall seconds (nondeterministic output)")
    return parser


def main(argv=None):
    """Run one command and return its exit code.  main() owns its process:
    it first freezes the heap that exists at entry (the interpreter, the
    standard library and spinchar's modules) into the permanent generation,
    so no later collection walks it again, those at interpreter shutdown
    included."""
    gc.freeze()
    args = build_parser().parse_args(argv)
    bad = args.out is not None and _unwritable(args.out)
    if bad:  # refused before any work; a race at the write is caught below
        print("error: cannot write %s: %s" % (args.out, os.strerror(bad)), file=sys.stderr)
        return 2
    try:
        text, code = COMMANDS[args.command](args)
    except (UsageError, SchemaError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        _emit(text, args.out)
    except OSError as exc:
        print("error: cannot write %s: %s" % (args.out, exc.strerror or exc), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
