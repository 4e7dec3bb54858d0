"""Acceptance suite: the exit criteria for the whole build.

Each test exercises one criterion end to end at its stated tolerance, which
is literal equality everywhere (all arithmetic is exact), and prints one
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they go.
"""

from spinchar.cyclo import root_of_unity
from spinchar.linalg import CycMatrix, J_SHIFT, K_SHIFT
from spinchar.groups import get_group
from spinchar.spinrep import (SpinType, full_catalog, g81_partial_catalog,
                              intertwiner_alpha, restrict_to_projective,
                              spin_character_table)
from spinchar import verify


def _criterion(number, label, result):
    line = "criterion %2d (%s): %s — %s" % (
        number, label, "PASS" if result.passed else "FAIL", result.detail)
    print(line)
    assert result.passed, line


def test_criterion_01_group_orders():
    _criterion(1, "group orders", verify.check_orders())
    assert len(get_group("G27").enumerate_elements()) == 27
    assert len(get_group("R243").enumerate_elements()) == 243
    for a in range(3):
        for b in range(3):
            assert len(get_group("G81_param", (a, b)).enumerate_elements()) == 81


def test_criterion_02_representation_group_structure():
    _criterion(2, "R(G) structure and efficient covering", verify.check_structure())
    r243 = get_group("R243")
    assert len(r243.center_codes()) == 9
    assert len(r243.derived_codes()) == 27
    assert r243.center_codes() <= r243.derived_codes()


def test_criterion_03_parameterized_presentations():
    _criterion(3, "parameter family relation transport", verify.check_automorphism())


def test_criterion_04_orbit_structure():
    _criterion(4, "dual orbits and stabilizers", verify.check_orbits())


def test_criterion_05_matrix_anchors():
    _criterion(5, "induced matrix anchors", verify.check_anchors())


def test_criterion_06_intertwiner():
    _criterion(6, "solved intertwiner", verify.check_intertwiner())
    for eps in (1, 2):
        _, jw, _ = g81_partial_catalog(eps)
        alpha = intertwiner_alpha(eps)
        assert jw == (CycMatrix.identity(3)
                      + J_SHIFT.scale(root_of_unity(-eps)) + K_SHIFT).scale(alpha)
        assert 3 * alpha ** 3 * (1 + 2 * root_of_unity(-eps)) == 1
        assert jw ** 3 == CycMatrix.identity(3)
        assert jw.det() == root_of_unity(eps)
        assert jw.is_unitary()


def test_criterion_07_character_anchors():
    _criterion(7, "character formula and supports", verify.check_characters())


def test_criterion_08_catalog_census():
    _criterion(8, "catalog census", verify.check_census())
    catalog = full_catalog()
    assert len(catalog) == 35
    assert sum(r.dim ** 2 for r in catalog) == 243
    dims = sorted(r.dim for r in catalog if r.spin_type == SpinType(0, 0))
    assert dims == [1] * 9 + [3, 3]
    assert len(get_group("R243").conjugacy_classes()) == 35


def test_criterion_09_orthogonality():
    _criterion(9, "row and column orthogonality", verify.check_orthogonality())
    table = spin_character_table()
    gram = table.gram_matrix()
    n = len(gram)
    assert all(gram[i][j] == (1 if i == j else 0)
               for i in range(n) for j in range(n))


def test_criterion_10_projective_layer():
    _criterion(10, "2-cocycles of all restrictions", verify.check_cocycle())
    rep = next(r for r in full_catalog() if r.spin_type == SpinType(1, 0))
    coc = restrict_to_projective(rep)
    assert coc.identity_violation() is None
    assert set(b"".join(coc.exps)) <= {0, 1, 2}


def test_criterion_11_engine_soundness():
    _criterion(11, "associativity everywhere", verify.check_associativity())
    _criterion(11, "every catalog representation verifies", verify.check_representations())


def test_supplementary_stairway_consistency():
    _criterion(12, "two stairways agree (supplementary)", verify.check_stairways())
