"""Negative controls: plant one defect each and show the named check bites.

A check that passes on correct data proves little unless it is also shown
to fail on wrong data.  Each test below corrupts exactly one thing -- a
generator image, a character value, a class size, a section element, a
covering kernel, a quotient generator, a cube rule, a table entry, an
intertwiner -- and asserts that the check responsible for it reports the
defect.  Planted groups are fresh copies; no cached Group is mutated.  One
positive control holds an intertwiner as equal values of the other scalar
type and shows that its check still passes.
"""

import dataclasses
import re

import pytest

from spinchar import groups, verify
from spinchar.cyclo import OMEGA, Cyc
from spinchar.cyclo9 import Cyc9
from spinchar.groups import Group, GroupSchema, get_group
from spinchar.linalg import CycMatrix
from spinchar.spinrep import (RepError, Representation, canonical_section, full_catalog,
                              irreps_by_spin_type, restrict_to_projective,
                              spin_character_table)


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
