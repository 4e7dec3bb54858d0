"""Negative controls: plant one defect each and show the named check bites.

A check that passes on correct data proves little unless it is also shown
to fail on wrong data.  Each test below corrupts exactly one thing -- a
generator image, a character value, a class size, a class count, a section
element, a covering kernel, a quotient generator, a cube rule, a table
entry, a cocycle table, an intertwiner, a presentation, an action
convention, a subgroup representation's generator image, a domain that is
not a set of normal forms, a catalog slot -- and asserts that the check
responsible for it reports the defect.  Planted groups and tables are
fresh copies; no cached object is mutated.  One positive control holds an
intertwiner as equal values of the other scalar type and shows that its
check still passes.
"""

import random
import re
from types import SimpleNamespace

import pytest

from spinchar import groups, spinrep, verify
from spinchar.cyclo import OMEGA, Cyc, root_of_unity
from spinchar.cyclo9 import Cyc9, zeta9
from spinchar.groups import Group, GroupSchema, Subgroup, get_group
from spinchar.linalg import J_SHIFT, CycMatrix
from spinchar.mackey import MackeyError, SubRep, dual_group, induce
from spinchar.spinrep import (CocycleTable, RepError, Representation, canonical_section,
                              full_catalog, irreps_by_spin_type, r243_pure_catalog,
                              restrict_to_projective, spin_character_table, verify_rep)


def _scaled(rep, gen, factor):
    images = dict(rep.images)
    images[gen] = images[gen].scale(factor)
    return Representation(rep.group, images, rep.name)


def test_scaled_generator_is_not_projective():
    rep = _scaled(irreps_by_spin_type((1, 1))[0], "n1", 2)
    with pytest.raises(RepError, match="not projective"):
        restrict_to_projective(rep)


def test_huge_generator_is_refused_not_wrapped():
    # Python ints cannot wrap: T(x1^2) T(x1) = 10^36 I is told apart from T(1) = I
    rep = _scaled(irreps_by_spin_type((1, 1))[0], "n1", 10 ** 12)
    g27 = get_group("G27")
    x1 = g27.gen_codes[0]
    with pytest.raises(RepError, match=r"not projective at \(%d, %d\)" % (g27.power(x1, 2), x1)):
        restrict_to_projective(rep)


def test_huge_generator_fails_verify_rep_with_a_report():
    rep = _scaled(irreps_by_spin_type((1, 1))[0], "n1", 10 ** 12)
    report = verify_rep(rep)
    assert not report.passed
    assert report.detail.startswith("cube rule for n1: lhs=[['%d', '0', '0']" % 10 ** 36)


def _perturbed_table(row, cls):
    table = spin_character_table()
    rows = [(name, st, dim, list(values)) for name, st, dim, values in table.rows]
    rows[row][3][cls] = rows[row][3][cls] + 1
    return table._replace(rows=rows)


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
    bad = table._replace(classes=classes).column_orthogonality_violation()
    assert bad is not None
    i, j, total = bad
    assert (i, j) == (0, 0)
    assert total == 243  # |centralizer of 1|, where the swapped size claims 27


def test_value_times_w_fails_an_off_diagonal_column_pair():
    # |w x| = |x| leaves every diagonal column sum; the first pair to move
    # is (identity, that class), by dim conj(x) (w^2 - 1)
    table = spin_character_table()
    row = 30
    name, spin, dim, values = table.rows[row]
    g = next(c for c in range(1, len(values)) if values[c] != 0)
    rows = list(table.rows)
    rows[row] = (name, spin, dim, values[:g] + [values[g] * OMEGA] + values[g + 1:])
    bad = table._replace(rows=rows).column_orthogonality_violation()
    assert bad == (0, g, dim * values[g].conj() * (OMEGA ** 2 - 1))


def test_moved_z5_coefficient_fails_exactly_its_gram_row_and_column(monkeypatch):
    # the highest packed digit of one value at the identity class moves;
    # every chi(1) is nonzero, so exactly the Gram row and column of that
    # character move, and the first column pair to fail is the identity's
    row, table = 7, spin_character_table()
    rows = [(name, st, dim, list(values)) for name, st, dim, values in table.rows]
    rows[row][3][0] = rows[row][3][0] + zeta9(5)
    monkeypatch.setattr(verify, "spin_character_table", lambda: table._replace(rows=rows))
    result = verify.check_orthogonality()
    assert not result.passed
    named = {tuple(map(int, pair))
             for pair in re.findall(r"gram\[(\d+)\]\[(\d+)\]", result.detail)}
    n = len(rows)
    assert named == {(row, j) for j in range(n)} | {(i, row) for i in range(n)}
    assert result.failures[-1].startswith("column orthogonality fails at class pair (0, 0, ")


@pytest.mark.parametrize("which", [0, 1])
def test_planted_table_cocycle_byte_is_named_where_it_weighs(monkeypatch, which):
    # one exponent of a (which = 0) or b (which = 1) moved at (g, h): exactly
    # the irreducibles whose eps (or mu) is nonzero differ there, and only there
    g, h = 5, 17
    tables = [list(rows) for rows in spinrep.table_cocycle()]
    planted = bytearray(tables[which][g])
    planted[h] = (planted[h] + 1) % 3
    tables[which][g] = bytes(planted)
    monkeypatch.setattr(verify, "table_cocycle", lambda: tuple(map(tuple, tables)))
    result = verify.check_cocycle()
    assert not result.passed
    assert set(result.failures) == {
        "%s cocycle differs from the table-only derivation at (%d, %d)" % (rep.name, g, h)
        for rep in full_catalog() if rep.spin_type[which]}


def test_all_zero_table_cocycle_fails_only_the_spin_triviality_line(monkeypatch):
    # a table-only derivation and restrictions that are both all zero agree
    # with each other and satisfy the identity: only "trivial cocycle on a
    # spin type" can tell that the derivation lost the multiplier
    zero = tuple(bytes(27) for _ in range(27))
    g27 = get_group("G27")
    monkeypatch.setattr(verify, "table_cocycle", lambda: (zero, zero))
    monkeypatch.setattr(verify, "restrict_to_projective", lambda rep: CocycleTable(g27, zero))
    result = verify.check_cocycle()
    assert not result.passed
    spin = [rep for rep in full_catalog() if rep.spin_type != (0, 0)]
    assert len(spin) == 24
    assert result.failures == ["%s has spin type %s but a trivial cocycle"
                               % (rep.name, rep.spin_type) for rep in spin]


def test_swapped_lift_fails_the_table_cross_check(monkeypatch):
    r243 = get_group("R243")
    section = canonical_section()
    z12 = r243.code("z12")
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


def test_moved_generator_lift_is_multiplied_in_full(monkeypatch):
    # s(x3) -> z12 s(x3) is no R243 generator, so the restriction skips no
    # pair of the x3 column: it forms all 27 of its products, against 9 on
    # the canonical section, where images_at already formed the other 18
    r243, g27 = get_group("R243"), get_group("G27")
    x1, x3 = g27.code("x1"), g27.code("x3")
    moved = canonical_section()
    moved[x3] = r243.mult(r243.code("z12"), moved[x3])
    rep = irreps_by_spin_type((1, 1))[0]
    right = []  # the right factor of each generator-rule product
    monkeypatch.setattr(spinrep, "state_mul",
                        lambda a, b, _real=spinrep.state_mul: right.append(b) or _real(a, b))
    for section, want in ((canonical_section(), (25, 9)), (moved, (25, 27))):
        right.clear()
        restrict_to_projective(rep, section)
        T = rep.images_at([section[x1], section[x3]])
        assert (right.count(T[0]), right.count(T[1])) == want
        assert len(right) == sum(want)
    monkeypatch.undo()
    monkeypatch.setattr(verify, "restrict_to_projective",
                        lambda rep: restrict_to_projective(rep, moved))
    result = verify.check_cocycle()
    assert not result.passed
    failures = result.detail.split("; ")
    assert all("differs from the table-only derivation" in f for f in failures)
    assert {f.split(" cocycle")[0] for f in failures} == {
        rep.name for e in (1, 2) for m in range(3) for rep in irreps_by_spin_type((e, m))}


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
    # z12 -> w: n2 n1 n2^-1 is n1 times a power of z12, so the commuting
    # one-dimensional images break the conjugation rule phi(n2)n1
    real = spinrep.DualCharacter

    def planted(subgroup, label):
        return real(subgroup, (1,) + label[1:])

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
    planted = catalog[:k] + (Representation(rep.group, images, rep.name),) \
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


def test_swapped_relation_entry_fails_the_schema_rules(monkeypatch):
    real = verify.get_group
    r243 = real("R243")
    z12, z23, n1, n2, n3 = r243.gen_codes
    x = r243.mult(n1, n2)  # outside the relation pairs of row n3
    rows = [list(row) for row in r243.rows]
    rows[n3][n1], rows[n3][x] = rows[n3][x], rows[n3][n1]  # row n3 stays a permutation
    planted = Group(r243.schema, rows)
    monkeypatch.setattr(verify, "get_group", lambda name, params=None:
                        planted if name == "R243" else real(name, params))
    result = verify.check_associativity()
    assert not result.passed
    assert all(f.startswith("R243") for f in result.failures)
    assert "R243: phi(n3)n1 violates its rule" in result.failures


def test_swapped_table_entry_fails_associativity(monkeypatch):
    real = verify.get_group
    g27 = real("G27")
    table = [list(row) for row in g27.rows]
    table[1][2], table[1][3] = table[1][3], table[1][2]  # row 1 stays a permutation
    planted = Group(g27.schema, table)
    monkeypatch.setattr(verify, "get_group", lambda name, params=None:
                        planted if name == "G27" else real(name, params))
    result = verify.check_associativity()
    assert not result.passed
    assert all(f.startswith("G27") for f in result.failures)
    m = re.search(r"G27 associativity fails at \((\d+), (\d+), (\d+)\)", result.detail)
    assert m is not None, result.detail
    g, h, k = map(int, m.groups())
    assert table[table[g][h]][k] != table[g][table[h][k]]
    assert "['" not in result.detail


def test_swapped_gsharp_entry_fails_both_associativity_passes(monkeypatch):
    # the 10^6 random GSHARP triples hit the swap too, not only Light's test
    real = verify.get_group
    gsharp = real("GSHARP")
    table = [list(row) for row in gsharp.rows]
    table[5][7], table[5][11] = table[5][11], table[5][7]  # row 5 stays a permutation
    planted = Group(gsharp.schema, table)
    monkeypatch.setattr(verify, "get_group", lambda name, params=None:
                        planted if name == "GSHARP" else real(name, params))
    result = verify.check_associativity()
    assert not result.passed
    assert all(f.startswith("GSHARP") for f in result.failures)
    for label in ("GSHARP associativity", "GSHARP random-triple associativity"):
        m = re.search(label + r" fails at \((\d+), (\d+), (\d+)\)", result.detail)
        assert m is not None, (label, result.detail)
        g, h, k = map(int, m.groups())
        assert table[table[g][h]][k] != table[g][table[h][k]]


def test_random_pass_alone_catches_single_entry_changes_of_gsharp():
    # each changed entry lies on a pair (g, h) that the pass checks with 17
    # codes k for every seed, where 10^6 independent triples could miss it
    rows = get_group("GSHARP").rows
    rng = random.Random(30)
    for _ in range(12):
        g, h = rng.randrange(243), rng.randrange(243)
        value = rng.choice([x for x in range(243) if x != rows[g][h]])
        planted = list(rows)
        planted[g] = rows[g][:h] + bytes([value]) + rows[g][h + 1:]
        for seed in range(5):
            witness = groups.random_triples_associative(Group(None, planted), 10 ** 6,
                                                       seed=seed)
            assert witness is not None, (g, h, value, seed)
            a, b, c = witness
            assert planted[planted[a][b]][c] != planted[a][planted[b][c]]


def _rewritten_jw(monkeypatch, convert=lambda x: x, matrix_type=CycMatrix):
    real = verify.g81_partial_catalog

    def planted(eps):
        P, jw, rest = real(eps)
        return P, matrix_type([[convert(x) for x in row] for row in jw.rows]), rest

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


@pytest.mark.parametrize("methods, line", [
    # an off-by-one power: jw^3 computed as jw^4 = jw
    ({"__pow__": lambda self, k: CycMatrix.__pow__(self, k + 1)}, "cube is not the identity"),
    # the sign of the pivot permutation flipped
    ({"det": lambda self: -CycMatrix.det(self)}, "determinant is not w^eps"),
    # the transpose without the conjugation
    ({"conj_transpose": lambda self: CycMatrix([list(col) for col in zip(*self.rows)])},
     "intertwiner is not unitary"),
], ids=["cube", "det", "unitary"])
def test_planted_matrix_method_fails_only_its_intertwiner_line(monkeypatch, methods, line):
    # the solved intertwiners keep their entries, so the alpha lines hold,
    # and only the line that calls the planted method can fail
    planted_type = type("PlantedMatrix", (CycMatrix,), dict(methods, __slots__=()))
    result = _rewritten_jw(monkeypatch, matrix_type=planted_type)
    assert result.failures == ["eps=%d %s" % (eps, line) for eps in (1, 2)]


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
        return real(group.inv[group.code(w)], chi)

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


def test_identity_x1_image_fails_only_the_off_center_line(monkeypatch):
    # Pi(0,1)(x1) = I keeps every central image, so the central values hold;
    # x1^a x2^b (a != 0) then traces to 3 w^b, six nonzero values off the center
    real = verify.g27_nonspin_catalog

    def planted():
        reps = list(real())
        k = next(i for i, rep in enumerate(reps) if rep.name == "Pi(0,1)")
        images = dict(reps[k].images, x1=CycMatrix.identity(3))
        reps[k] = Representation(reps[k].group, images, reps[k].name)
        return reps

    monkeypatch.setattr(verify, "g27_nonspin_catalog", planted)
    result = verify.check_characters()
    assert not result.passed
    assert result.failures == ["Pi(0,1) does not vanish off the center"] * 6


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


def test_perturbed_second_multiplier_entry_fails_characters(monkeypatch):
    # through the mu term: P(1,2)(z23) = w^2 I gains z^3 = w at (1, 1), so the
    # six z12^a z23^b (b != 0) lose 3 w^(a + 2b), and z12^a z23^b n1^c (c != 0)
    # gain a trace; the cyclic n2 factor keeps a zero diagonal
    real = verify.r243_pure_catalog

    def planted(eps, mu):
        P, jw, reps = real(eps, mu)
        return (_perturbed_image(P, "z23", 1, 1, coeff=3) if (eps, mu) == (1, 2) else P), jw, reps

    monkeypatch.setattr(verify, "r243_pure_catalog", planted)
    result = verify.check_characters()
    assert not result.passed
    central, spread = "P(1,2) central value wrong", \
        "P(1,2) character not concentrated on the multiplier"
    assert result.failures == [central, spread, spread] * 6


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


def test_merged_classes_fail_only_the_class_count_line(monkeypatch):
    # R243 reporting its last two classes as one: 34 classes, 35 irreducibles
    real = verify.get_group
    classes = real("R243").conjugacy_classes()
    merged = classes[:-2] + [(classes[-2][0], tuple(sorted(classes[-2][1] + classes[-1][1])))]
    planted = SimpleNamespace(conjugacy_classes=lambda: merged)
    monkeypatch.setattr(verify, "get_group", lambda name, params=None:
                        planted if name == "R243" else real(name, params))
    result = verify.check_census()
    assert not result.passed
    assert result.failures == ["34 conjugacy classes vs 35 irreducibles"]


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
        chi.eval(g27.code("x3"))
    # images of different sizes, or not matrices at all
    eye2 = CycMatrix.identity(2)
    for images in ([one[0], eye2], [eye2, one[0]], [one[0], [[1]]]):
        with pytest.raises(MackeyError, match="of one size"):
            SubRep(Subgroup.generated(g27, ["x1", "x2"]), images, "bad")
    with pytest.raises(MackeyError, match="of one size"):
        Representation(g27, {"x1": one[0], "x2": one[0], "x3": eye2}, "bad")


def test_perturbed_base_image_fails_representations(monkeypatch):
    real = verify.r243_pure_catalog

    def planted(eps, mu):
        P, jw, reps = real(eps, mu)
        return (_perturbed_image(P, "n2", 2, 1, coeff=4) if (eps, mu) == (1, 1) else P), jw, reps

    monkeypatch.setattr(verify, "r243_pure_catalog", planted)
    result = verify.check_representations()
    assert len(result.failures) == 1
    assert result.failures[0].startswith("P(1,1): cube rule for n2: lhs=")


@pytest.mark.parametrize("gen, rule", [("n2", "cube rule for n2"),
                                       ("n1", "conjugation rule phi(n2)n1")])
def test_extension_of_a_broken_base_inherits_nothing(gen, rule):
    # the twists inherit the rules among P's generators only from a P that
    # passes; from a broken one they check every rule and name its own
    P, jw, _ = r243_pure_catalog(1, 1)
    planted = _perturbed_image(P, gen, 2, 1, coeff=4)
    assert planted.verify()[0] == rule
    with pytest.raises(RepError, match=re.escape("extension is not a representation: %s: "
                                                 % rule)):
        spinrep.extend_and_tensor(planted, jw, 0, "n3", "Pi(1,1;0)")
    assert spinrep.extend_and_tensor(P, jw, 0, "n3", "Pi(1,1;0)").verify() is None
    # a base must hand over its own image objects
    images = dict(P.images, n3=jw, **{gen: planted.images[gen]})
    with pytest.raises(MackeyError, match="share the group and its generator images"):
        Representation(P.group, images, "bad", base=P)


def test_perturbed_character_fails_induction():
    g27 = get_group("G27")
    chi = dual_group(Subgroup.generated(g27, ["x1", "x2"]))[4].as_subrep()
    x3 = g27.code("x3")
    section = [0, x3, g27.mult(x3, x3)]
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
    assert rep.verify() is None  # the untouched images are inverted first
    planted = Representation(rep.group, images, rep.name)
    bad = planted.verify()
    assert bad == _first_broken_rule(planted)
    desc, lhs, rhs = bad
    assert desc == "conjugation rule phi(n2)n1"
    assert verify_rep(planted).failures == ["%s: lhs=%s rhs=%s"
                                            % (desc, lhs.str_rows(), rhs.str_rows())]


def test_non_intertwining_jw_fails_the_extension(monkeypatch):
    # J_SHIFT has cube I but intertwines no induced P: the conjugation rules
    # of the extension, checked by verify_rep, are what refuse it
    monkeypatch.setattr(spinrep, "intertwiner_solutions",
                        lambda rho, w: [J_SHIFT.scale(root_of_unity(k)) for k in range(3)])
    for build in (spinrep.g81_partial_catalog, spinrep.gbar_partial_catalog,
                  spinrep.r243_pure_catalog, spinrep.full_catalog):
        build.cache_clear()
    for build, args, rule in ((spinrep.g81_partial_catalog, (1,), "phi(xi3)xi1"),
                              (spinrep.gbar_partial_catalog, (2,), "phi(xb2)xb1"),
                              (spinrep.r243_pure_catalog, (1, 2), "phi(n3)n1")):
        with pytest.raises(RepError, match=re.escape(
                "extension is not a representation: conjugation rule " + rule + ":")):
            build(*args)
