"""Named verification checks covering the full structural story.

Each check runs an exact computation and returns a CheckReport; the CLI
`verify` command and the acceptance tests drive the same functions.  All
comparisons are literal equality -- there are no tolerances anywhere.
"""

import time

from .cyclo import ONE, root_of_unity
from .cyclo9 import scalar_str
from .linalg import CycMatrix, J_SHIFT, K_SHIFT
from .groups import (CheckReport, Subgroup, get_group, covering_data, verify_efficient_covering,
                     verify_phi_automorphism, check_schema, exhaustive_associativity,
                     random_triples_associative, isomorphism_fingerprint,
                     quotient_fingerprint)
from .mackey import dual_group, act_on_dual, orbit_decomposition
from .spinrep import (SpinType, full_catalog, spin_character_table,
                      verify_rep, restrict_to_projective, g81_partial_catalog,
                      gbar_partial_catalog, r243_pure_catalog, g27_nonspin_catalog,
                      intertwiner_alpha, mu_route_direct, table_cocycle)


def check_orders():
    failures = []
    expected = [("G27", None, 27), ("G81", None, 81), ("GBAR", None, 81),
                ("R243", None, 243)]
    expected += [("G81_param", (a, b), 81) for a in range(3) for b in range(3)]
    for name, params, want in expected:
        got = len(get_group(name, params).enumerate_elements())
        if got != want:
            failures.append("%s%s has order %d, expected %d"
                            % (name, params or "", got, want))
    gsharp = len(get_group("GSHARP").enumerate_elements())
    return CheckReport("orders", failures,
                       "13 catalog groups enumerate to their advertised orders; "
                       "GSHARP enumerates to %d" % gsharp)


def check_structure():
    failures = []
    r243 = get_group("R243")
    center = r243.center_codes()
    want_center = frozenset(r243.code_of((a, b, 0, 0, 0))
                            for a in range(3) for b in range(3))
    if center != want_center:
        failures.append("center of R243 is not the 9-element multiplier span")
    derived = r243.derived_codes()
    want_derived = frozenset(r243.code_of((a, b, 0, c, 0))
                             for a in range(3) for b in range(3) for c in range(3))
    if derived != want_derived:
        failures.append("derived subgroup of R243 is not the expected 27 elements")
    for big, small in [("R243", "G27"), ("R243", "G81"), ("R243", "GBAR"),
                       ("G81", "G27"), ("GBAR", "G27")]:
        gen_map, kernel = covering_data(big, small)
        rep = verify_efficient_covering(get_group(big), kernel, get_group(small), gen_map)
        if not rep.passed:
            failures.append("%s -> %s covering failed: %s"
                            % (big, small, " | ".join(rep.failures)))
    if quotient_fingerprint(r243, ["z12"]) != isomorphism_fingerprint(get_group("GBAR")):
        failures.append("R243/<z12> does not match the z23-first covering group")
    if quotient_fingerprint(r243, ["z23"]) != isomorphism_fingerprint(get_group("G81")):
        failures.append("R243/<z23> does not match the z12-first covering group")
    return CheckReport("structure", failures,
                       "center 9, derived 27, five efficient coverings pass, "
                       "both quotient fingerprints match")


def check_automorphism():
    failures = []
    for a in range(3):
        for b in range(3):
            rep = verify_phi_automorphism(a, b)
            if not rep.passed:
                failures.append("(a=%d,b=%d): %s" % (a, b, " | ".join(rep.failures)))
    return CheckReport("automorphism", failures,
                       "all 9 parameter pairs pass (bijection, (a,b) cube "
                       "relations, regeneration, order-81 primed span)")


def check_orbits():
    failures = []
    g27 = get_group("G27")
    duals = dual_group(Subgroup.generated(g27, ["x1", "x2"]))
    for chi in duals:
        m, n = chi.label
        if act_on_dual(g27.code("x3"), chi).label != ((m + n) % 3, n):
            failures.append("base-group dual action sends %s wrongly" % (chi.label,))
    dec = orbit_decomposition(duals, ["x3"])
    free = sorted(o.representative.label for o in dec if len(o.members) == 3)
    fixed = sorted(o.representative.label for o in dec if len(o.members) == 1)
    if free != [(0, 1), (0, 2)] or fixed != [(0, 0), (1, 0), (2, 0)]:
        failures.append("base-group orbit decomposition is wrong: %s / %s" % (free, fixed))
    for o in dec:
        want = 1 if len(o.members) == 3 else 3
        if o.stabilizer.order != want:
            failures.append("stabilizer of %s has order %d"
                            % (o.representative.label, o.stabilizer.order))

    g81 = get_group("G81")
    duals0 = dual_group(Subgroup.generated(g81, ["z12", "xi1"]))
    for chi in duals0:
        e, m = chi.label
        if act_on_dual(g81.code("xi2"), chi).label != (e, (m + e) % 3):
            failures.append("covering-group dual action sends %s wrongly" % (chi.label,))
    dec0 = orbit_decomposition(duals0, ["xi2"])
    for o in dec0:
        e, m = o.representative.label
        if e == 0 and (len(o.members), o.stabilizer.order) != (1, 3):
            failures.append("fixed point %s has wrong orbit data" % (o.representative.label,))
        if e != 0 and ((e, m) != (e, 0) or len(o.members) != 3 or o.stabilizer.order != 1):
            failures.append("spin orbit %s has wrong orbit data" % (o.representative.label,))
    return CheckReport("orbits", failures,
                       "dual actions and orbit/stabilizer data match on both levels")


def _displayed_bases():
    """(eps, mu, P) for the induced bases the paper displays, P(eps,0) on G81
    and P(eps,mu) on R243, from the catalogs as they are at each call."""
    return ([(eps, 0, g81_partial_catalog(eps)[0]) for eps in (1, 2)]
            + [(eps, mu, r243_pure_catalog(eps, mu)[0]) for eps in (1, 2) for mu in (1, 2)])


def check_anchors():
    failures = []
    for rep in g27_nonspin_catalog():
        if rep.name.startswith("Pi(0,") and rep.dim == 3:
            n = int(rep.name[5])
            if rep.images["x3"] != J_SHIFT:
                failures.append("%s image of x3 is not the cyclic shift" % rep.name)
            if rep.images["x1"] != CycMatrix.diagonal([ONE, root_of_unity(-n),
                                                       root_of_unity(n)]):
                failures.append("%s image of x1 is wrong" % rep.name)
            if rep.images["x2"] != CycMatrix.scalar(3, root_of_unity(n)):
                failures.append("%s image of x2 is wrong" % rep.name)
    for eps, mu, P in _displayed_bases():
        *_, base, section = P.images  # generator names in normal-form order
        want = {"z12": CycMatrix.scalar(3, root_of_unity(eps)),
                "z23": CycMatrix.scalar(3, root_of_unity(mu)),
                base: CycMatrix.diagonal([ONE, root_of_unity(-eps), root_of_unity(eps)]),
                section: J_SHIFT}
        for gen, image in P.images.items():
            if image != want[gen]:
                failures.append("%s image of %s is wrong" % (P.name, gen))
    return CheckReport("anchors", failures,
                       "induced matrices match the displayed forms entrywise")


def check_intertwiner():
    failures = []
    for eps in (1, 2):
        _, jw, _ = g81_partial_catalog(eps)
        alpha = intertwiner_alpha(eps)
        expect = (CycMatrix.identity(3) + J_SHIFT.scale(root_of_unity(-eps))
                  + K_SHIFT).scale(alpha)
        if jw != expect:
            failures.append("eps=%d intertwiner differs from alpha(I + w^-eps J + K)" % eps)
        if 3 * alpha ** 3 * (1 + 2 * root_of_unity(-eps)) != 1:
            failures.append("eps=%d alpha identity fails" % eps)
        if jw ** 3 != CycMatrix.identity(3):
            failures.append("eps=%d cube is not the identity" % eps)
        if jw.det() != root_of_unity(eps):
            failures.append("eps=%d determinant is not w^eps" % eps)
        if not jw.is_unitary():
            failures.append("eps=%d intertwiner is not unitary" % eps)
    return CheckReport("intertwiner", failures,
                       "solved intertwiners equal alpha(I + w^-eps J + K) with "
                       "alpha = -eps(w - w^2)/3; cube I, det w^eps, unitary")


def check_characters():
    failures = []
    g27 = get_group("G27")
    for n in (1, 2):
        rep = next(r for r in g27_nonspin_catalog() if r.name == "Pi(0,%d)" % n)
        for code in range(g27.order):
            b1, b2, b3 = g27.exps_of(code)
            tr = rep.eval(code).trace()
            if b1 == 0 and b3 == 0:
                if tr != 3 * root_of_unity(b2 * n):
                    failures.append("Pi(0,%d) at x2^%d is not 3w^%d" % (n, b2, b2 * n))
            elif not tr.is_zero():
                failures.append("Pi(0,%d) does not vanish off the center" % n)
    for eps, mu, P in _displayed_bases():
        weights = [{"z12": eps, "z23": mu}[gen] for gen in P.group.schema.multiplier]
        for code, tr in P.character_values().items():
            exps = P.group.exps_of(code)  # the multiplier generators lead the schema
            if not any(exps[len(weights):]):
                if tr != 3 * root_of_unity(sum(w * e for w, e in zip(weights, exps))):
                    failures.append("%s central value wrong" % P.name)
            elif not tr.is_zero():
                failures.append("%s character not concentrated on the multiplier" % P.name)
    return CheckReport("characters", failures,
                       "character formula and all three support claims hold exactly")


def check_census():
    failures = []
    catalog = full_catalog()
    by_type = {}
    for rep in catalog:
        by_type.setdefault(rep.spin_type, []).append(rep.dim)
    total, square_sum = len(catalog), sum(r.dim * r.dim for r in catalog)
    if total != 35:
        failures.append("catalog has %d irreducibles, expected 35" % total)
    if square_sum != 243:
        failures.append("sum of dim^2 is %d, expected 243" % square_sum)
    for st, dims in by_type.items():
        want = [1] * 9 + [3, 3] if st == SpinType(0, 0) else [3, 3, 3]
        if sorted(dims) != want:
            failures.append("spin type %s has dims %s" % (st, sorted(dims)))
    for st, dims in by_type.items():
        if sum(d * d for d in dims) != 27:
            failures.append("spin type %s has dim^2 sum %d" % (st, sum(d * d for d in dims)))
    nclasses = len(get_group("R243").conjugacy_classes())
    if nclasses != total:
        failures.append("%d conjugacy classes vs %d irreducibles" % (nclasses, total))
    return CheckReport("census", failures,
                       "35 irreducibles: 9x1 + 2x3 non-spin, 3x3 per other type; "
                       "dim^2 sums 243 total and 27 per type; 35 classes")


def check_orthogonality():
    failures = []
    table = spin_character_table()
    gram = table.gram_matrix()
    for i in range(len(gram)):
        for j in range(len(gram)):
            want = 1 if i == j else 0
            if gram[i][j] != want:
                failures.append("gram[%d][%d] = %s (rows %s, %s)"
                                % (i, j, gram[i][j], table.rows[i][0], table.rows[j][0]))
    bad = table.column_orthogonality_violation()
    if bad is not None:
        failures.append("column orthogonality fails at class pair %s" % (bad,))
    return CheckReport("orthogonality", failures,
                       "35x35 Gram matrix is the identity; column relations hold "
                       "with exact centralizer orders")


def check_cocycle():
    failures = []
    verdicts = {}  # the identity is decided once per distinct table
    a, b = table_cocycle()
    n = len(a)
    # byte 3 a + b at g n + h: no byte exceeds 8, so none carries
    pair = (3 * int.from_bytes(b"".join(a), "big")
            + int.from_bytes(b"".join(b), "big")).to_bytes(n * n, "big")
    # eps a + mu b mod 3, one table per spin type and all zero for (0,0), so
    # the comparison below also decides "trivial if non-spin" and "constant
    # per type"; "nontrivial if spin" guards table_cocycle itself
    expected = {}
    for rep in full_catalog():
        coc = restrict_to_projective(rep)
        if coc.exps not in verdicts:
            verdicts[coc.exps] = coc.identity_violation()
        bad = verdicts[coc.exps]
        if bad is not None:
            failures.append("%s cocycle identity fails at %s" % (rep.name, bad))
        eps, mu = rep.spin_type
        if rep.spin_type not in expected:
            expected[rep.spin_type] = pair.translate(
                bytes((eps * (v // 3) + mu * (v % 3)) % 3 for v in range(256)))
        got, want = b"".join(coc.exps), expected[rep.spin_type]
        if got != want:
            first = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
            failures.append("%s cocycle differs from the table-only derivation at %s"
                            % (rep.name, divmod(first, n)))
        if rep.spin_type != SpinType(0, 0) and coc.is_trivial():
            failures.append("%s has spin type %s but a trivial cocycle"
                            % (rep.name, rep.spin_type))
    return CheckReport("cocycle", failures,
                       "2-cocycle identity holds on all 27^3 triples for each of "
                       "the 35 restrictions; trivial iff non-spin; constant per type")


def check_associativity():
    failures = []
    names = [("G27", None), ("G81", None), ("GBAR", None), ("R243", None),
             ("GSHARP", None)]
    names += [("G81_param", (a, b)) for a in range(3) for b in range(3)]
    for name, params in names:
        group = get_group(name, params)
        problems = check_schema(group)
        if problems:
            failures.append("%s%s: %s" % (name, params or "", " | ".join(problems)))
        bad = exhaustive_associativity(group)
        if bad is not None:
            failures.append("%s%s associativity fails at %s" % (name, params or "", bad))
    bad = random_triples_associative(get_group("GSHARP"), 10 ** 6, seed=2024)
    if bad is not None:
        failures.append("GSHARP random-triple associativity fails at %s" % (bad,))
    return CheckReport("associativity", failures,
                       "exhaustive on all 14 schema tables plus 10^6 random "
                       "GSHARP triples; all collection rules reproduce")


def check_representations():
    bases = ([P for _, _, P in _displayed_bases()]
             + [gbar_partial_catalog(mu)[0] for mu in (1, 2)])
    failures = []
    for rep in list(full_catalog()) + bases:
        report = verify_rep(rep)
        if not report.passed:
            failures.append("%s: %s" % (rep.name, report.detail))
    return CheckReport("representations", failures,
                       "all 35 catalog representations and the 8 induced base "
                       "representations pass every relation exactly")


def check_stairways():
    failures = []
    table = spin_character_table()  # its (0, mu) rows are the stairway builds
    for mu in (1, 2):
        direct = sorted(r.character().key() for r in mu_route_direct(mu))
        stair = sorted(tuple(map(scalar_str, values))
                       for _, spin, _, values in table.rows if spin == (0, mu))
        if direct != stair:
            failures.append("(0,%d) direct build differs from the stairway build" % mu)
    return CheckReport("stairways", failures,
                       "(0,mu) built on the second stairway matches the direct "
                       "build on the representation group, character for character")


CHECKS = {
    "orders": check_orders,
    "structure": check_structure,
    "automorphism": check_automorphism,
    "orbits": check_orbits,
    "anchors": check_anchors,
    "intertwiner": check_intertwiner,
    "characters": check_characters,
    "census": check_census,
    "orthogonality": check_orthogonality,
    "cocycle": check_cocycle,
    "associativity": check_associativity,
    "representations": check_representations,
    "stairways": check_stairways,
}


def run_checks(only=None):
    """Run the named checks (all by default) and return their results, each
    with its wall time in seconds as `seconds`."""
    if only is None:
        names = list(CHECKS)
    else:
        names = [n.strip() for n in only]
        unknown = dict.fromkeys(n for n in names if n not in CHECKS)
        if unknown:
            raise KeyError("unknown checks: %s (know %s)"
                           % (", ".join(map(repr, unknown)), ", ".join(CHECKS)))
        repeated = dict.fromkeys(n for i, n in enumerate(names) if n in names[:i])
        if repeated:
            raise KeyError("repeated checks: %s" % ", ".join(map(repr, repeated)))
    results = []
    for name in names:
        start = time.perf_counter()
        results.append(CHECKS[name]())
        results[-1].seconds = time.perf_counter() - start
    return results
