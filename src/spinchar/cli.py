"""Command-line front end.

Subcommands: `group` (structure report), `irreps` (catalog listing),
`chartable` (the 35x35 spin character table as JSON or CSV), `cocycle`
(restricted factor set of one irreducible), and `verify` (the named check
suite).  Output is deterministic: identical invocations produce identical
bytes.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import sys

from .groups import (SCHEMA_NAMES, COVERING_MAPS, SchemaError, get_group,
                     verify_efficient_covering, isomorphism_fingerprint)
from .cyclo9 import scalar_str
from .spinrep import (SpinType, irreps_by_spin_type, full_catalog,
                      spin_character_table, restrict_to_projective,
                      g27_nonspin_catalog, g81_partial_catalog,
                      gbar_partial_catalog)
from .verify import CHECKS, run_checks


class UsageError(Exception):
    pass


def _parse_spin(text):
    if text == "all":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("spin type must be 'e,m' or 'all', got %r" % text)
    try:
        e, m = (int(p) for p in parts)
    except ValueError:
        raise UsageError("spin type components must be integers, got %r" % text)
    return SpinType(e % 3, m % 3)


def _parse_params(text):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("parameters must be 'a,b', got %r" % text)
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise UsageError("parameters must be integers, got %r" % text)
    return (a % 3, b % 3)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj):
    return json.dumps(obj, indent=2) + "\n"


def cmd_group(args):
    params = _parse_params(args.params)
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
        return _json(report)
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
    return "\n".join(lines) + "\n"


_NATIVE_CATALOGS = {"G27", "G81", "GBAR", "R243"}


def _native_irreps(group_name, spin):
    if group_name == "R243":
        if spin is None:
            return list(full_catalog())
        return irreps_by_spin_type(spin)
    if spin is None:
        raise UsageError("--spin all is only available for R243")
    if group_name == "G27" and spin == SpinType(0, 0):
        return g27_nonspin_catalog()
    if group_name == "G81" and spin.mu == 0 and spin.eps != 0:
        return g81_partial_catalog(spin.eps)[2]
    if group_name == "GBAR" and spin.eps == 0 and spin.mu != 0:
        return gbar_partial_catalog(spin.mu)[2]
    raise UsageError("group %s does not carry spin type %s natively"
                     % (group_name, spin))


def cmd_irreps(args):
    spin = _parse_spin(args.spin)
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
        return _json({"group": args.group, "count": len(entries), "irreps": entries})
    lines = []
    for e in entries:
        lines.append("%s  spin (%d,%d)  dim %d"
                     % (e["name"], e["spin_type"][0], e["spin_type"][1], e["dim"]))
        for gen, rows in e["images"].items():
            lines.append("  %-4s %s" % (gen, rows))
    lines.append("%d irreducibles" % len(entries))
    return "\n".join(lines) + "\n"


def cmd_chartable(args):
    table = spin_character_table()
    classes = [{"rep": table.group.element_str(code), "size": size}
               for code, size in table.classes]
    irreps = [{"name": name, "spin_type": list(st), "dim": dim,
               "values": [scalar_str(v) for v in values]}
              for name, st, dim, values in table.rows]
    if args.format == "json":
        return _json({"group": "R243", "classes": classes, "irreps": irreps})
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "spin", "dim"] + [c["rep"] for c in classes])
        writer.writerow(["", "", "size"] + [c["size"] for c in classes])
        for row in irreps:
            writer.writerow([row["name"], "(%d,%d)" % tuple(row["spin_type"]),
                             row["dim"]] + row["values"])
        return buf.getvalue()
    raise UsageError("chartable supports json or csv")


def cmd_cocycle(args):
    spin = _parse_spin(args.spin)
    if spin is None:
        raise UsageError("cocycle needs one spin type, not 'all'")
    reps = irreps_by_spin_type(spin)
    if args.irrep is not None:
        match = [r for r in reps if r.name == args.irrep]
        if not match:
            raise UsageError("no irreducible %r of spin type %s (have %s)"
                             % (args.irrep, spin, ", ".join(r.name for r in reps)))
        rep = match[0]
    else:
        rep = reps[0]
    _, coc = restrict_to_projective(rep)
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
    only = args.only.split(",") if args.only else None
    try:
        results = run_checks(only)
    except KeyError as exc:
        raise UsageError(exc.args[0])  # str() of a KeyError would quote it
    passed = all(r.passed for r in results)
    if args.format == "json":
        text = _json({"passed": passed,
                      "checks": [{"name": r.name, "passed": r.passed,
                                  "detail": r.detail} for r in results]})
    else:
        lines = ["%s %-16s %s" % ("PASS" if r.passed else "FAIL", r.name, r.detail)
                 for r in results]
        lines.append("%d/%d checks passed" % (sum(r.passed for r in results), len(results)))
        text = "\n".join(lines) + "\n"
    return text, 0 if passed else 1


def build_parser():
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
    p.add_argument("--spin", required=True, help="'e,m' (e.g. 1,0; -1 means 2) or 'all'")
    p.add_argument("--group", default="R243")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("chartable", help="emit the 35x35 spin character table")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("cocycle", help="restricted factor set of one irreducible")
    p.add_argument("--spin", required=True)
    p.add_argument("--irrep")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="comma-separated check names (%s)" % ", ".join(CHECKS))
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "group":
            text, code = cmd_group(args), 0
        elif args.command == "irreps":
            text, code = cmd_irreps(args), 0
        elif args.command == "chartable":
            text, code = cmd_chartable(args), 0
        elif args.command == "cocycle":
            text, code = cmd_cocycle(args)
        else:
            text, code = cmd_verify(args)
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
