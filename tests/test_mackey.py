"""Duals, the action on them, orbits, and matrix induction."""

import pytest

from spinchar.cyclo import ONE, root_of_unity
from spinchar.cyclo9 import Cyc9
from spinchar.linalg import CycMatrix, J_SHIFT
from spinchar.groups import Subgroup, get_group
from spinchar.mackey import (DualCharacter, MackeyError, SubRep, act_on_dual,
                             dual_group, induce, orbit_decomposition)


def g27_dual():
    g27 = get_group("G27")
    U = Subgroup.generated(g27, ["x1", "x2"])
    return g27, U, dual_group(U, ["x1", "x2"])


def test_dual_group_counts_and_multiplicativity():
    g27, U, duals = g27_dual()
    assert len(duals) == 9
    t = g27.table
    codes = sorted(U.codes)
    for chi in duals:
        for u in codes:
            for v in codes:
                assert chi.value(t[u, v]) == chi.value(u) * chi.value(v)


def test_dual_group_rejects_nonabelian_and_dependent_generators():
    g81 = get_group("G81")
    U = Subgroup.generated(g81, ["z12", "xi1", "xi2"])
    with pytest.raises(MackeyError):
        dual_group(U, ["z12", "xi1", "xi2"])
    g27 = get_group("G27")
    X2 = Subgroup.generated(g27, ["x2"])
    with pytest.raises(MackeyError):
        dual_group(X2, ["x2", "x2"])


def test_trivial_subgroup_dual():
    g27 = get_group("G27")
    T = Subgroup.generated(g27, [])
    duals = dual_group(T, [])
    assert len(duals) == 1 and duals[0].value(0) == ONE


def test_action_formula_on_base_dual():
    g27, U, duals = g27_dual()
    w = g27.generator("x3")
    for chi in duals:
        m, n = chi.label
        assert act_on_dual(w, chi).label == ((m + n) % 3, n)
        assert act_on_dual(g27.identity(), chi).label == chi.label


def test_action_is_a_group_action():
    g27, U, duals = g27_dual()
    w = g27.generator("x3")
    for chi in duals:
        one_then_other = act_on_dual(w, act_on_dual(w, chi))
        together = act_on_dual(w * w, chi)
        assert one_then_other.exps == together.exps


def test_action_formula_on_covering_dual():
    g81 = get_group("G81")
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    duals = dual_group(U0, ["z12", "xi1"])
    xi2 = g81.generator("xi2")
    for chi in duals:
        e, m = chi.label
        assert act_on_dual(xi2, chi).label == (e, (m + e) % 3)


def test_action_requires_invariant_domain():
    g81 = get_group("G81")
    X1 = Subgroup.generated(g81, ["xi1"])
    duals = dual_group(X1, ["xi1"])
    with pytest.raises(MackeyError):
        act_on_dual(g81.generator("xi2"), duals[1])


def test_orbit_decomposition_base():
    g27, U, duals = g27_dual()
    dec = orbit_decomposition(duals, ["x3"])
    assert sorted(o.representative.label for o in dec.orbits) == \
        [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    for o in dec.orbits:
        m, n = o.representative.label
        if n == 0:
            assert len(o.members) == 1 and o.stabilizer.order == 3
        else:
            assert len(o.members) == 3 and o.stabilizer.order == 1
        assert len(o.members) * o.stabilizer.order == 3


def test_orbit_decomposition_trivial_action():
    g27, U, duals = g27_dual()
    dec = orbit_decomposition(duals, [])
    assert len(dec.orbits) == 9
    assert all(len(o.members) == 1 and o.stabilizer.order == 1 for o in dec.orbits)


def test_orbit_decomposition_checks_full_value_table():
    # a listed character that agrees with the moved one on its label but not
    # elsewhere in U is not the image of the action
    g27, U, duals = g27_dual()
    i = next(k for k, chi in enumerate(duals) if chi.label == (1, 1))
    chi = duals[i]
    other = next(c for c in sorted(U.codes) if c and c not in chi.gen_codes)
    exps = dict(chi.exps)
    exps[other] = (exps[other] + 1) % 3
    duals[i] = DualCharacter(chi.subgroup, chi.gen_codes, chi.label, exps)
    with pytest.raises(MackeyError, match="leaves the listed dual"):
        orbit_decomposition(duals, ["x3"])


def test_spin_orbits_on_covering():
    g81 = get_group("G81")
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    duals = dual_group(U0, ["z12", "xi1"])
    dec = orbit_decomposition(duals, ["xi2"])
    by_rep = dec.by_representative()
    for eps in (1, 2):
        orbit = by_rep[(eps, 0)]
        assert orbit.members == tuple(sorted((eps, m) for m in range(3)))
        assert orbit.stabilizer.order == 1


def test_induced_base_matrices():
    g27, U, duals = g27_dual()
    w = g27.generator("x3")
    section = [g27.identity(), w, w * w]
    for n in (1, 2):
        chi = next(c for c in duals if c.label == (0, n))
        ind = induce(chi.as_subrep(), section)
        assert ind.dim == 3
        assert ind.eval(g27.generator("x3").code) == J_SHIFT
        assert ind.eval(g27.generator("x1").code) == CycMatrix.diagonal(
            [ONE, root_of_unity(-n), root_of_unity(n)])
        assert ind.eval(g27.generator("x2").code) == CycMatrix.scalar(
            3, root_of_unity(n))
        assert ind.verify() is None


def test_induction_dimension_and_identity_section():
    g81 = get_group("G81")
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    duals = dual_group(U0, ["z12", "xi1"])
    chi = next(c for c in duals if c.label == (1, 0))
    xi2 = g81.generator("xi2")
    ind = induce(chi.as_subrep(), [g81.identity(), xi2, xi2 * xi2])
    assert ind.dim == 3 * 1
    same = induce(chi.as_subrep(), [g81.identity()])
    assert all(same.eval(c) == chi.as_subrep().eval(c) for c in U0.codes)


def test_images_as_the_other_scalar_type_are_the_same_representation():
    # induced images are Cyc matrices; the same values held as Cyc9 must
    # evaluate, verify, trace and induce identically
    g27, U, duals = g27_dual()
    chi = duals[5].as_subrep()
    as_cyc9 = SubRep(chi.subgroup, [CycMatrix([[Cyc9.from_scalar(M[0, 0])]])
                                    for M in chi.images.values()], chi.name)
    assert all(as_cyc9.eval(c) == chi.eval(c) for c in U.codes)
    assert as_cyc9.character_values() == chi.character_values()
    assert as_cyc9.verify() is None
    w = g27.generator("x3")
    section = [g27.identity(), w, w * w]
    a, b = induce(chi, section), induce(as_cyc9, section)
    assert a.images == b.images and all(a.eval(y) == b.eval(y) for y in range(27))
    with pytest.raises(MackeyError):
        as_cyc9.eval(g27.generator("x3").code)  # outside the domain <x1, x2>


def test_induction_rejects_bad_sections():
    g27, U, duals = g27_dual()
    chi = duals[3].as_subrep()
    x1 = g27.generator("x1")
    with pytest.raises(MackeyError):
        # section overlapping the base subgroup's cosets
        induce(chi, [g27.identity(), x1, x1 * x1])
    w = g27.generator("x3")
    with pytest.raises(MackeyError):
        induce(chi, [w, w * w, g27.identity()])  # must start at the identity
