"""Representation building: intertwiners, catalogs, characters, cocycles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinchar import spinrep
from spinchar.cyclo import root_of_unity
from spinchar.cyclo9 import Cyc9
from spinchar.linalg import CycMatrix, J_SHIFT, K_SHIFT
from spinchar.groups import get_group, covering_data
from spinchar.spinrep import (RepError, Representation, SpinType,
                              catalog_census, extend_and_tensor, full_catalog,
                              g27_nonspin_catalog, g81_partial_catalog,
                              inflate, inner_product,
                              intertwiner_solutions, irreps_by_spin_type,
                              intertwiner_alpha, mu_route_direct, r243_pure_catalog,
                              restrict_to_projective, solve_intertwiner,
                              spin_character_table, verify_rep)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_spin_type_classification():
    assert SpinType(0, 0).kind == "non-spin"
    assert SpinType(1, 0).kind == "partially-spin"
    assert SpinType(0, 2).kind == "partially-spin"
    assert SpinType(2, 1).kind == "purely-spin"
    assert len({SpinType(e, m) for e in range(3) for m in range(3)}) == 9


class TestIntertwiner:
    def test_solved_form_matches_alpha_formula(self):
        for eps in (1, 2):
            _, jw, _ = g81_partial_catalog(eps)
            alpha = intertwiner_alpha(eps)
            expect = (CycMatrix.identity(3) + J_SHIFT.scale(root_of_unity(-eps))
                      + K_SHIFT).scale(alpha)
            assert jw == expect
            assert jw.det() == root_of_unity(eps)
            assert jw ** 3 == CycMatrix.identity(3)
            assert jw.is_unitary()

    def test_commutation_chain(self):
        # a solution of the first twisted equation automatically satisfies
        # the square and cube equations
        g81 = get_group("G81")
        P, jw, _ = g81_partial_catalog(1)
        D = P.eval(g81.generator("xi1").code)
        assert D * jw == J_SHIFT * jw * D
        assert D * jw ** 2 == K_SHIFT * jw ** 2 * D
        assert D * jw ** 3 == jw ** 3 * D
        assert J_SHIFT * jw == jw * J_SHIFT

    def test_three_normalized_solutions(self):
        P, _, _ = g81_partial_catalog(1)
        sols = intertwiner_solutions(P, "xi3")
        assert len(sols) == 3
        assert len(set(sols)) == 3
        for M in sols:
            assert M ** 3 == CycMatrix.identity(3)
        assert {sols[0].scale(root_of_unity(k)) for k in range(3)} == set(sols)

    def test_bad_cube_root_is_refused(self, monkeypatch):
        # a planted cyc9_cbrt returning twice the root leaves M^3 = 8 I
        P, _, _ = g81_partial_catalog(1)
        real = spinrep.cyc9_cbrt
        monkeypatch.setattr(spinrep, "cyc9_cbrt", lambda v: 2 * real(v))
        with pytest.raises(RepError, match="cube is not the identity"):
            intertwiner_solutions(P, "xi3")

    def test_bad_cube_root_is_refused_under_optimization(self):
        # the same plant under python -O, which strips assert statements
        script = "\n".join([
            "from spinchar import spinrep",
            "P, _, _ = spinrep.g81_partial_catalog(1)",
            "real = spinrep.cyc9_cbrt",
            "spinrep.cyc9_cbrt = lambda v: 2 * real(v)",
            "try:",
            "    spinrep.intertwiner_solutions(P, 'xi3')",
            "except spinrep.RepError as exc:",
            "    print('refused:', exc)",
        ])
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "refused: normalized intertwiner cube is not the identity\n"

    def test_acting_element_must_normalize_the_domain(self):
        # xi3 xi1 xi3^-1 = z12 xi1 xi2^2 leaves <z12, xi1>
        from spinchar.groups import Subgroup
        from spinchar.mackey import MackeyError, dual_group
        U0 = Subgroup.generated(get_group("G81"), ["z12", "xi1"])
        chi = dual_group(U0, ["z12", "xi1"])[4].as_subrep()
        with pytest.raises(MackeyError, match="outside the domain"):
            intertwiner_solutions(chi, "xi3")

    def test_trivial_action_gives_scalar(self):
        # a central acting element fixes everything; the intertwiner of a
        # one-dimensional representation normalizes to 1
        from spinchar.groups import Subgroup
        from spinchar.mackey import dual_group
        g81 = get_group("G81")
        U0 = Subgroup.generated(g81, ["z12", "xi1"])
        chi = dual_group(U0, ["z12", "xi1"])[4].as_subrep()
        jw = solve_intertwiner(chi, "z12")
        assert jw == CycMatrix.identity(1)

    def test_purely_spin_needs_ninth_roots(self):
        for eps in (1, 2):
            for mu in (1, 2):
                _, jw, _ = r243_pure_catalog(eps, mu)
                assert jw ** 3 == CycMatrix.identity(3)
                assert jw.is_unitary()
                assert jw.trace().is_zero()
                # no entry lies in the cube-root subfield scaled rationally:
                # the whole matrix is a zeta9 twist of an omega matrix
                assert any(isinstance(x, Cyc9) and x.to_cyc() is None
                           for row in jw.rows for x in row)


class TestCatalog:
    def test_non_spin_catalog(self):
        reps = g27_nonspin_catalog()
        assert len(reps) == 11
        dims = sorted(r.dim for r in reps)
        assert dims == [1] * 9 + [3, 3]
        for rep in reps:
            assert verify_rep(rep).passed

    def test_per_type_counts(self):
        for spin, want in [((0, 0), 11), ((1, 0), 3), ((0, 1), 3), ((1, 1), 3),
                           ((2, 2), 3), ((2, 0), 3), ((0, 2), 3)]:
            reps = irreps_by_spin_type(spin)
            assert len(reps) == want
            for rep in reps:
                assert rep.spin_type == SpinType(*spin)
                assert rep.group.schema.name == "R243"

    def test_census(self):
        census = catalog_census(full_catalog())
        assert census.total == 35
        assert census.dim_square_sum == 243
        assert all(v == 27 for v in census.per_type_square_sums().values())

    def test_extension_requires_coverage(self):
        P, jw, _ = g81_partial_catalog(1)
        with pytest.raises(RepError):
            extend_and_tensor(P, jw, 0, "xi1", "bad")  # xi3 left uncovered

    def test_inflation_keeps_characters(self):
        r243 = get_group("R243")
        gen_map, _ = covering_data("R243", "G81")
        _, _, reps = g81_partial_catalog(1)
        lifted = inflate(reps[0], r243, gen_map)
        assert lifted.spin_type == SpinType(1, 0)
        assert verify_rep(lifted).passed
        # the lift evaluates through the covering map
        for name in ("z12", "n1", "n2", "n3"):
            src = gen_map.get(name)
            want = reps[0].images[src] if src else CycMatrix.identity(3)
            assert lifted.images[name] == want


def test_verify_rep_negative_control():
    rep = next(r for r in g27_nonspin_catalog() if r.name == "Pi(0,1)")
    images = dict(rep.images)
    rows = [list(r) for r in images["x1"].rows]
    rows[0][0], rows[1][1] = rows[1][1], rows[0][0]  # swap two diagonal entries
    images["x1"] = CycMatrix(rows)
    bad = Representation(rep.group, images, "corrupted")
    report = verify_rep(bad)
    assert not report.passed
    assert report.detail


def test_batched_images_match_generator_products():
    # reference: the product of generator-image powers in normal-form
    # order, in CycMatrix arithmetic
    for rep in (irreps_by_spin_type((2, 1))[1], irreps_by_spin_type((0, 0))[10]):
        group = rep.group
        codes = list(range(0, group.order, 7)) + [group.order - 1]
        L, den = rep.images_at(codes)
        for k, code in enumerate(codes):
            want = CycMatrix.identity(rep.dim)
            for gen, e in zip(group.schema.gens, group.exps_of(code)):
                want = want * rep.images[gen] ** e
            assert CycMatrix.from_lattice(L[k], den) == want
            assert rep.eval(code) == want


class TestCharacters:
    def test_induced_character_formula(self):
        g27 = get_group("G27")
        for n in (1, 2):
            rep = next(r for r in g27_nonspin_catalog() if r.name == "Pi(0,%d)" % n)
            for code in range(27):
                b1, b2, b3 = g27.exps_of(code)
                tr = rep.eval(code).trace()
                if b1 == 0 and b3 == 0:
                    assert tr == 3 * root_of_unity(b2 * n)
                else:
                    assert tr.is_zero()

    def test_character_supports(self):
        g81 = get_group("G81")
        z12_span = {g81.power(g81.generator("z12").code, e) for e in range(3)}
        for eps in (1, 2):
            P, _, _ = g81_partial_catalog(eps)
            for code, tr in P.character_values().items():
                assert (code in z12_span) == (not tr.is_zero())
        r243 = get_group("R243")
        mult = {r243.code_of((a, b, 0, 0, 0)) for a in range(3) for b in range(3)}
        for eps in (1, 2):
            for mu in (1, 2):
                P, _, _ = r243_pure_catalog(eps, mu)
                for code, tr in P.character_values().items():
                    assert (code in mult) == (not tr.is_zero())

    def test_inner_products(self):
        reps = {r.name: r for r in g27_nonspin_catalog()}
        c1 = reps["Pi(0,1)"].character()
        c2 = reps["Pi(0,2)"].character()
        triv = reps["Pi(0,0,0)"].character()
        assert inner_product(c1, c1) == 1
        assert inner_product(c1, c2) == 0
        assert inner_product(triv, triv) == 1
        assert c1.at(0) == 3

    def test_base_group_completeness(self):
        # Mackey completeness at the base: 11 pairwise-orthogonal characters
        # with squared dimensions summing to the group order
        reps = g27_nonspin_catalog()
        assert sum(r.dim ** 2 for r in reps) == 27
        chars = [r.character() for r in reps]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                assert inner_product(ci, cj) == (1 if i == j else 0)

    def test_purely_spin_characters_leave_base_field(self):
        reps = irreps_by_spin_type((1, 1))
        seen_ninth = False
        for rep in reps:
            for value in rep.character().values.values():
                if isinstance(value, Cyc9) and value.to_cyc() is None:
                    seen_ninth = True
        assert seen_ninth

    def test_mismatched_schemas_rejected(self):
        c1 = g27_nonspin_catalog()[0].character()
        c2 = irreps_by_spin_type((1, 0))[0].character()
        with pytest.raises(RepError):
            inner_product(c1, c2)


class TestTwistInvariance:
    def test_catalog_independent_of_cube_root_choice(self):
        for eps in (1, 2):
            P, _, reps = g81_partial_catalog(eps)
            base = sorted(r.character().key() for r in reps)
            for sol in intertwiner_solutions(P, "xi3"):
                alt = [extend_and_tensor(P, sol, r, "xi3", "alt(%d)" % r)
                       for r in range(3)]
                assert sorted(r.character().key() for r in alt) == base

    def test_stairway_equals_direct_route(self):
        for mu in (1, 2):
            stair = sorted(r.character().key() for r in irreps_by_spin_type((0, mu)))
            direct = sorted(r.character().key() for r in mu_route_direct(mu))
            assert stair == direct


class TestProjectiveRestriction:
    def test_non_spin_restriction_is_linear(self):
        rep = irreps_by_spin_type((0, 0))[0]
        _, coc = restrict_to_projective(rep)
        assert coc.is_trivial()
        assert coc.identity_violation() is None

    def test_partially_spin_cocycle(self):
        rep = irreps_by_spin_type((1, 0))[0]
        T, coc = restrict_to_projective(rep)
        assert not coc.is_trivial()
        assert coc.identity_violation() is None
        assert set(np.unique(coc.exps)) <= {0, 1, 2}
        # normalized section: alpha(1, g) = alpha(g, 1) = 1
        assert not coc.exps[0, :].any() and not coc.exps[:, 0].any()
        # the restriction is a genuine projective representation
        g27 = get_group("G27")
        for g in range(0, 27, 5):
            for h in range(0, 27, 7):
                lhs = T[g] * T[h]
                rhs = T[int(g27.table[g, h])].scale(coc.value(g, h))
                assert lhs == rhs

    def test_same_cocycle_across_twists(self):
        tables = []
        for rep in irreps_by_spin_type((2, 1)):
            _, coc = restrict_to_projective(rep)
            tables.append(coc.exps)
        assert all(np.array_equal(t, tables[0]) for t in tables)

    def test_rejects_bad_section(self):
        rep = irreps_by_spin_type((1, 0))[0]
        r243 = get_group("R243")
        section = {g: r243.code_of((0, 0) + get_group("G27").exps_of(g))
                   for g in range(27)}
        section[3] = r243.code_of((0, 0, 0, 0, 0))  # no longer a lift
        with pytest.raises(RepError):
            restrict_to_projective(rep, section)


def test_character_table_shape_and_values():
    table = spin_character_table()
    assert len(table.rows) == 35
    assert len(table.classes) == 35
    assert [size for _, size in table.classes].count(1) == 9
    assert table.classes[0][0] == 0
    names = [name for name, _, _, _ in table.rows]
    assert names == sorted(names, key=lambda n: (
        next((tuple(st), n) for name2, st, _, _ in table.rows if name2 == n)))
    # identity column equals the dimension list
    id_col = [values[0] for _, _, _, values in table.rows]
    dims = [dim for _, _, dim, _ in table.rows]
    assert all(v == d for v, d in zip(id_col, dims))
