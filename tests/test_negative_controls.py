"""Negative controls: plant one defect each and show the named check bites.

A check that passes on correct data proves little unless it is also shown
to fail on wrong data.  Each test below corrupts exactly one thing -- a
generator image, a character value, a class size, a section element, a
covering kernel, a quotient generator, a cube rule, a table entry, an
intertwiner, a presentation, an action convention, a subgroup representation's generator
image, a domain that is not a set of normal forms, a catalog slot -- and asserts that the check responsible for it reports the
defect.  Planted groups and tables are fresh copies; no cached object is
mutated.  One positive control holds an intertwiner as equal values of the
other scalar type and shows that its check still passes.
"""

import dataclasses
import re

import pytest

from spinchar import groups, spinrep, verify
from spinchar.cyclo import OMEGA, Cyc
from spinchar.cyclo9 import Cyc9, zeta9
from spinchar.groups import Group, GroupSchema, Subgroup, get_group
from spinchar.linalg import CycMatrix
from spinchar.mackey import MackeyError, SubRep, dual_group, induce
from spinchar.spinrep import (RepError, Representation, canonical_section, full_catalog,
                              irreps_by_spin_type, r243_pure_catalog, restrict_to_projective,
                              spin_character_table, verify_rep)


def _scaled(rep, gen, factor):
    images = dict(rep.images)
    images[gen] = images[gen].scale(factor)
    return Representation(rep.group, images, rep.name, rep.spin_type)


def test_scaled_generator_is_not_projective():
    rep = _scaled(irreps_by_spin_type((1, 1))[0], "n1", 2)
    with pytest.raises(RepError, match="not projective"):
        restrict_to_projective(rep)


def test_huge_generator_is_refused_not_wrapped():
    rep = _scaled(irreps_by_spin_type((1, 1))[0], "n1", 10 ** 12)
    with pytest.raises(RepError, match="lattice"):
        restrict_to_projective(rep)


def test_huge_generator_fails_verify_rep_with_a_report():
    rep = _scaled(irreps_by_spin_type((1, 1))[0], "n1", 10 ** 12)
    report = verify_rep(rep)
    assert not report.passed
    assert "lattice" in report.detail


def _perturbed_table(row, cls):
    table = spin_character_table()
    rows = [(name, st, dim, list(values)) for name, st, dim, values in table.rows]
    rows[row][3][cls] = rows[row][3][cls] + 1
    return dataclasses.replace(table, rows=rows)


def test_perturbed_character_fails_gram(monkeypatch):
    row = 20
    table = _perturbed_table(row, 0)  # class 0 is the identity
    gram = table.gram_matrix()
    n = len(gram)
    bad = {(i, j) for i in range(n) for j in range(n)
           if gram[i][j] != (1 if i == j else 0)}
    # chi(1) = dim is nonzero for every row, so exactly row and column 20 move
    assert bad == {(row, j) for j in range(n)} | {(i, row) for i in range(n)}

    monkeypatch.setattr(verify, "spin_character_table", lambda: table)
    result = verify.check_orthogonality()
    assert not result.passed
    assert "gram[%d][%d]" % (row, row) in result.detail


def test_swapped_class_size_fails_columns():
    table = spin_character_table()
    classes = list(table.classes)
    k = next(i for i, (_, size) in enumerate(classes) if size == 9)
    (c0, s0), (ck, sk) = classes[0], classes[k]
    classes[0], classes[k] = (c0, sk), (ck, s0)
    bad = dataclasses.replace(table, classes=classes).column_orthogonality_violation()
    assert bad is not None
    i, j, total = bad
    assert (i, j) == (0, 0)
    assert total == 243  # |centralizer of 1|, where the swapped size claims 27


def test_swapped_lift_fails_the_table_cross_check(monkeypatch):
    r243 = get_group("R243")
    section = canonical_section()
    z12 = r243.generator("z12").code
    g0 = 5
    section[g0] = r243.mult(z12, section[g0])  # another lift of the same element

    monkeypatch.setattr(verify, "restrict_to_projective",
                        lambda rep: restrict_to_projective(rep, section))
    result = verify.check_cocycle()
    assert not result.passed
    failures = result.detail.split("; ")
    # the table stays projective and constant per type; only the
    # comparison with the table-only derivation catches the moved lift
    assert all("differs from the table-only derivation" in f for f in failures)
    named = {f.split(" cocycle")[0] for f in failures}
    # a lift moved by z12 changes the cocycle exactly when eps != 0
    assert named == {rep.name for e in (1, 2) for m in range(3)
                     for rep in irreps_by_spin_type((e, m))}


def test_wrong_covering_kernel_fails_structure(monkeypatch):
    real = verify.covering_data

    def planted(big, small):
        gen_map, kernel = real(big, small)
        return (gen_map, ("z12",)) if (big, small) == ("R243", "G81") else (gen_map, kernel)

    monkeypatch.setattr(verify, "covering_data", planted)
    result = verify.check_structure()
    assert not result.passed
    assert result.detail.startswith("R243 -> G81 covering failed: not a homomorphism at (")
    assert "['" not in result.detail  # messages are joined, not a list repr
    assert len(result.failures) == 1  # the other four coverings still pass


def test_wrong_quotient_generator_fails_structure(monkeypatch):
    real = verify.quotient_fingerprint
    # R243/<z12, z23> is the base group, not the z23-first covering group
    monkeypatch.setattr(verify, "quotient_fingerprint",
                        lambda group, gens: real(group, list(gens) + ["z23"]))
    result = verify.check_structure()
    assert not result.passed
    assert result.detail == "R243/<z12> does not match the z23-first covering group"


def test_scaled_direct_route_image_fails_stairways(monkeypatch):
    real = verify.mu_route_direct

    def planted(mu):
        reps = real(mu)
        if mu == 2:
            reps[1] = _scaled(reps[1], "n1", OMEGA)
        return reps

    monkeypatch.setattr(verify, "mu_route_direct", planted)
    result = verify.check_stairways()
    assert not result.passed
    assert result.detail == "(0,2) direct build differs from the stairway build"


def test_non_multiplicative_direct_character_is_refused(monkeypatch):
    # one value off the generators is changed, so the generator images still
    # pass every relation and only the full value table shows the defect
    real = spinrep.DualCharacter

    def planted(subgroup, gen_codes, label, exps):
        exps = dict(exps)
        top = max(exps)  # z12^2 z23^2 n1^2 n2^2, not a generator
        exps[top] = (exps[top] + 1) % 3
        return real(subgroup, gen_codes, label, exps)

    monkeypatch.setattr(spinrep, "DualCharacter", planted)
    with pytest.raises(RepError, match="not multiplicative"):
        spinrep.mu_route_direct(1)


def test_perturbed_catalog_image_fails_representations(monkeypatch):
    catalog = full_catalog()
    k = next(i for i, rep in enumerate(catalog) if rep.name == "Pi(2,1;1)")
    rep = catalog[k]
    rows = [list(row) for row in rep.images["n2"].rows]
    rows[0][1] = rows[0][1] + 1
    images = dict(rep.images, n2=CycMatrix(rows))
    planted = catalog[:k] + (Representation(rep.group, images, rep.name, rep.spin_type),) \
        + catalog[k + 1:]

    monkeypatch.setattr(verify, "full_catalog", lambda: planted)
    result = verify.check_representations()
    assert not result.passed
    assert result.detail.startswith("Pi(2,1;1): ")
    assert len(result.failures) == 1  # only the planted irreducible fails
    assert "rule" in result.detail and "lhs=" in result.detail


def test_off_by_one_cube_rule_fails_automorphism(monkeypatch):
    real = groups.get_group
    sch = groups.schema("G81_param", (1, 0))
    # xi1^3 = z12^2 where the (1, 0) presentation says xi1^3 = z12
    planted = Group(GroupSchema(sch.name, sch.gens, sch.central, sch.conj,
                                {1: (0, 0)}, sch.multiplier, sch.params))
    monkeypatch.setattr(groups, "get_group", lambda name, params=None:
                        planted if (name, params) == ("G81_param", (1, 0))
                        else real(name, params))
    result = verify.check_automorphism()
    assert not result.passed
    # the witness pair multiplies to xi1^3, the planted rule
    assert result.failures == ["(a=1,b=0): presented (a,b) group does not map onto the "
                               "primed subgroup: failure at (xi1^1) * (xi1^2)"]


def test_swapped_table_entry_fails_associativity(monkeypatch):
    real = verify.get_group
    g27 = real("G27")
    table = g27.table.copy()
    table[1, [2, 3]] = table[1, [3, 2]]  # row 1 stays a permutation
    planted = Group(g27.schema, table)
    monkeypatch.setattr(verify, "get_group", lambda name, params=None:
                        planted if name == "G27" else real(name, params))
    result = verify.check_associativity()
    assert not result.passed
    assert all(f.startswith("G27") for f in result.failures)
    m = re.search(r"G27 associativity fails at \((\d+), (\d+), (\d+)\)", result.detail)
    assert m is not None, result.detail
    g, h, k = map(int, m.groups())
    assert table[table[g, h], k] != table[g, table[h, k]]
    assert "['" not in result.detail


def _rewritten_jw(monkeypatch, convert):
    real = verify.g81_partial_catalog

    def planted(eps):
        P, jw, rest = real(eps)
        return P, CycMatrix([[convert(x) for x in row] for row in jw.rows]), rest

    monkeypatch.setattr(verify, "g81_partial_catalog", planted)
    return verify.check_intertwiner()


def test_jw_scaled_by_w_fails_intertwiner(monkeypatch):
    # w*jw still has cube I, det w^eps and is unitary; only alpha breaks
    result = _rewritten_jw(monkeypatch, lambda x: x * OMEGA)
    assert not result.passed
    assert result.failures == ["eps=%d intertwiner differs from alpha(I + w^-eps J + K)"
                               % eps for eps in (1, 2)]


def test_jw_held_as_the_other_scalar_type_passes_intertwiner(monkeypatch):
    # positive control: equal values of the other scalar type change nothing
    def other_type(x):
        if isinstance(x, Cyc):
            return Cyc9.from_scalar(x)
        return x if x.to_cyc() is None else x.to_cyc()

    result = _rewritten_jw(monkeypatch, other_type)
    assert result.passed
    assert result.detail == verify.check_intertwiner().detail


def test_missing_generator_fails_orders(monkeypatch):
    real = verify.get_group
    sch = groups.schema("G27")
    # x3 dropped from the presentation: collection closes on <x1, x2>
    planted = Group(GroupSchema(sch.name, sch.gens[:2], sch.central, {}))
    monkeypatch.setattr(verify, "get_group", lambda name, params=None:
                        planted if name == "G27" else real(name, params))
    result = verify.check_orders()
    assert not result.passed
    assert result.failures == ["G27 has order 9, expected 27"]


def test_inverted_action_convention_fails_orbits(monkeypatch):
    real = verify.act_on_dual

    def planted(w, chi):
        # (w.chi)(u) = chi(w u w^-1), the opposite of the documented convention
        group = chi.subgroup.group
        return real(group.inv[group.element(w).code], chi)

    monkeypatch.setattr(verify, "act_on_dual", planted)
    result = verify.check_orbits()
    assert not result.passed
    # x3 fixes exactly the characters with n = 0, xi2 those with e = 0
    assert result.failures == (
        ["base-group dual action sends %s wrongly" % ((m, n),)
         for m in range(3) for n in (1, 2)]
        + ["covering-group dual action sends %s wrongly" % ((e, m),)
           for e in (1, 2) for m in range(3)])


def _perturbed_image(rho, gen, i, j, coeff=0):
    """A copy of rho with entry (i, j) of the image of `gen` raised by z^coeff."""
    images = dict(rho.images)
    rows = [list(row) for row in images[gen].rows]
    rows[i][j] = rows[i][j] + zeta9(coeff)
    images[gen] = CycMatrix(rows)
    return SubRep(rho.subgroup, list(images.values()), rho.name)


def test_perturbed_lattice_entry_fails_anchors(monkeypatch):
    real = verify.r243_pure_catalog

    def planted(eps, mu):
        P, jw, reps = real(eps, mu)
        if (eps, mu) == (1, 2):
            P = _perturbed_image(P, "n1", 0, 1)  # an off-diagonal entry of diag(...)
        return P, jw, reps

    monkeypatch.setattr(verify, "r243_pure_catalog", planted)
    result = verify.check_anchors()
    assert not result.passed
    assert result.failures == ["P(1,2) image of n1 is wrong"]


def test_scaled_central_image_fails_characters(monkeypatch):
    # through Representation.images_at: x2 is central, so Pi(0,1)(x2) = w I
    real = verify.g27_nonspin_catalog

    def planted():
        reps = list(real())
        k = next(i for i, rep in enumerate(reps) if rep.name == "Pi(0,1)")
        reps[k] = _scaled(reps[k], "x2", OMEGA)
        return reps

    monkeypatch.setattr(verify, "g27_nonspin_catalog", planted)
    result = verify.check_characters()
    assert not result.passed
    assert result.failures == ["Pi(0,1) at x2^%d is not 3w^%d" % (b, b) for b in (1, 2)]


def test_perturbed_central_entry_fails_characters(monkeypatch):
    # through SubRep.character_values: P(1,0)(z12) = w I gains 1 at (0, 0),
    # so z12 and z12^2 lose their central values, and z12^a xi1^b (a, b
    # nonzero) gain a trace; the cyclic xi2 factor keeps a zero diagonal
    real = verify.g81_partial_catalog

    def planted(eps):
        P, jw, reps = real(eps)
        return (_perturbed_image(P, "z12", 0, 0) if eps == 1 else P), jw, reps

    monkeypatch.setattr(verify, "g81_partial_catalog", planted)
    result = verify.check_characters()
    assert not result.passed
    central, spread = "P(1,0) central value wrong", \
        "P(1,0) character not concentrated on the multiplier"
    assert result.failures == [central, spread, spread] * 2


def test_duplicated_irreducible_fails_census(monkeypatch):
    catalog = full_catalog()
    # the last (2,2) irreducible replaced by a copy of the first character
    planted = catalog[:-1] + (catalog[0],)
    monkeypatch.setattr(verify, "full_catalog", lambda: planted)
    result = verify.check_census()
    assert not result.passed
    assert result.failures == [
        "sum of dim^2 is 235, expected 243",
        "spin type (0,0) has dims %s" % ([1] * 10 + [3, 3]),
        "spin type (2,2) has dims [3, 3]",
        "spin type (0,0) has dim^2 sum 28",
        "spin type (2,2) has dim^2 sum 18",
    ]


def _first_broken_rule(rho):
    """Reference for SubRep.verify: the same rules in plain CycMatrix
    arithmetic, each element evaluated as its product of generator powers."""
    group = rho.group
    names, gens = list(rho.images), rho.subgroup.gen_codes

    def image(code):
        out = CycMatrix.identity(rho.dim)
        for name, g in zip(names, gens):
            out = out * rho.images[name] ** (code // g % 3)
        return out

    for name, g in zip(names, gens):
        lhs, rhs = rho.images[name] ** 3, image(group.power(g, 3))
        if lhs != rhs:
            return "cube rule for %s" % name, lhs, rhs
    for j in range(len(gens)):
        Mj = rho.images[names[j]]
        for i in range(j):
            lhs = Mj * rho.images[names[i]] * Mj.inverse()
            rhs = image(group.conjugate(gens[i], gens[j]))
            if lhs != rhs:
                return "conjugation rule phi(%s)%s" % (names[j], names[i]), lhs, rhs
    return None


def test_perturbed_generator_image_fails_subrep_verify():
    P, _, _ = r243_pure_catalog(1, 1)
    assert P.verify() is None and _first_broken_rule(P) is None
    rules = {}
    for gen in P.images:
        planted = _perturbed_image(P, gen, 2, 1, coeff=4)
        bad = planted.verify()
        assert bad is not None and bad == _first_broken_rule(planted)
        desc, lhs, rhs = bad
        assert gen in desc and lhs != rhs
        rules[gen] = desc
        report = verify_rep(planted)
        assert report.name == "P(1,1)"
        assert report.failures == ["%s: lhs=%s rhs=%s" % (desc, lhs.str_rows(), rhs.str_rows())]
    # z^4 at (2, 1) leaves diag(1, w^2, w)^3 = I, so n1 breaks a conjugation rule
    assert rules == {"z12": "cube rule for z12", "z23": "cube rule for z23",
                     "n1": "conjugation rule phi(n2)n1", "n2": "cube rule for n2"}


def test_subrep_needs_a_normal_form_domain():
    g27 = get_group("G27")
    one = [CycMatrix([[1]])]
    for gens in (["x1 x3"], ["x2", "x1"], ["x1", "x3"], []):
        # not a generator; out of normal-form order; <x1, x3> is all of G27;
        # no generator, so no dimension
        domain = Subgroup.generated(g27, gens)
        with pytest.raises(MackeyError):
            SubRep(domain, one * len(gens), "bad")
    chi = SubRep(Subgroup.generated(g27, ["x1", "x2"]), one * 2, "trivial")
    with pytest.raises(MackeyError, match="outside the domain"):
        chi.eval(g27.generator("x3").code)


def test_perturbed_base_image_fails_representations(monkeypatch):
    real = verify.r243_pure_catalog

    def planted(eps, mu):
        P, jw, reps = real(eps, mu)
        return (_perturbed_image(P, "n2", 2, 1, coeff=4) if (eps, mu) == (1, 1) else P), jw, reps

    monkeypatch.setattr(verify, "r243_pure_catalog", planted)
    result = verify.check_representations()
    assert len(result.failures) == 1
    assert result.failures[0].startswith("P(1,1): cube rule for n2: lhs=")


def test_perturbed_character_fails_induction():
    g27 = get_group("G27")
    chi = dual_group(Subgroup.generated(g27, ["x1", "x2"]), ["x1", "x2"])[4].as_subrep()
    x3 = g27.generator("x3")
    section = [g27.identity(), x3, x3 * x3]
    induce(chi, section)
    planted = _perturbed_image(chi, "x1", 0, 0, coeff=3)  # chi(x1) + w
    with pytest.raises(MackeyError, match="not a homomorphism"):
        induce(planted, section)


def test_negated_generator_fails_only_its_cube_rule():
    # -n1 still satisfies every conjugation rule (n1 enters each side once),
    # but (-n1)^3 = -I where the presentation says n1^3 = 1
    rep = irreps_by_spin_type((1, 2))[0]
    report = verify_rep(_scaled(rep, "n1", -1))
    assert report.failures == [
        "cube rule for n1: lhs=%s rhs=%s"
        % ([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
           [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])]


def test_reordered_diagonal_fails_only_a_conjugation_rule():
    # diag(1, w^2, w) -> diag(w^2, 1, w) keeps n1^3 = I but breaks
    # phi(n2)n1 = z12^-1 n1
    rep = irreps_by_spin_type((1, 2))[0]
    rows = [list(row) for row in rep.images["n1"].rows]
    rows[0][0], rows[1][1] = rows[1][1], rows[0][0]
    images = dict(rep.images, n1=CycMatrix(rows))
    report = verify_rep(Representation(rep.group, images, rep.name, rep.spin_type))
    assert len(report.failures) == 1
    assert report.detail.startswith("conjugation rule phi(n2)n1: lhs=")
