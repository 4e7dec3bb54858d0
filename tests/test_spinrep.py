"""Representation building: intertwiners, catalogs, characters, cocycles."""

import os
import subprocess
import sys
from pathlib import Path

import random

import pytest

from spinchar import mackey, spinrep
from spinchar.cyclo import OMEGA, ZERO, root_of_unity
from spinchar.cyclo9 import Cyc9, matrix_state, scalar_str, state_mul, state_times_w
from spinchar.linalg import CycMatrix, J_SHIFT, K_SHIFT
from spinchar.groups import get_group, covering_data
from spinchar.spinrep import (CocycleTable, RepError, Representation, SpinType,
                              canonical_section, extend_and_tensor, full_catalog,
                              g27_nonspin_catalog, g81_partial_catalog, inflate,
                              intertwiner_solutions, irreps_by_spin_type,
                              intertwiner_alpha, mu_route_direct, r243_pure_catalog,
                              restrict_to_projective, solve_intertwiner,
                              spin_character_table, verify_rep)

SRC = Path(__file__).resolve().parents[1] / "src"


def inner_product(group, c1, c2):
    """(1/|G|) sum_g c1(g) conj(c2(g)), exactly, class by class, for two
    characters of `group` in class order."""
    classes = group.conjugacy_classes()
    if not len(c1) == len(c2) == len(classes):
        raise RepError("class functions live on different groups")
    total = ZERO
    for (_, members), x, y in zip(classes, c1, c2):
        total = total + x * y.conj() * len(members)
    return total / group.order


def character_key(rep):
    """The character's values as canonical strings, in class order."""
    return tuple(map(scalar_str, rep.character()))


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
        D = P.eval(g81.code("xi1"))
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
        chi = dual_group(U0)[4].as_subrep()
        with pytest.raises(MackeyError, match="outside the domain"):
            intertwiner_solutions(chi, "xi3")

    def test_trivial_action_gives_scalar(self):
        # a central acting element fixes everything; the intertwiner of a
        # one-dimensional representation normalizes to 1
        from spinchar.groups import Subgroup
        from spinchar.mackey import dual_group
        g81 = get_group("G81")
        U0 = Subgroup.generated(g81, ["z12", "xi1"])
        chi = dual_group(U0)[4].as_subrep()
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

    @pytest.mark.parametrize("spin", ["ab", (1,), None, (1, 0.5), (1, 2, 3)])
    def test_spin_type_is_a_pair_of_integers(self, spin):
        # one reader for both entry points, and a pair of integers is read mod 3
        for read in (irreps_by_spin_type, spinrep.native_irreps):
            with pytest.raises(RepError, match="a spin type is a pair of integers"):
                read(spin)
        assert spinrep.native_irreps([4, -3])[0] == "G81"

    def test_extension_requires_coverage(self):
        P, jw, _ = g81_partial_catalog(1)
        with pytest.raises(RepError, match="bad: generator xi3 has no image"):
            extend_and_tensor(P, jw, 0, "xi1", "bad")  # xi3 left uncovered

    def test_missing_generator_image_is_refused(self):
        g27 = get_group("G27")
        with pytest.raises(RepError, match="r: generator x2 has no image"):
            Representation(g27, {"x1": CycMatrix([[1]])}, "r")
        with pytest.raises(RepError, match="generator x3 has no image"):
            Representation(g27, {"x1": CycMatrix([[1]]), "x2": CycMatrix([[1]])}, "r")

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


def test_catalog_representations_share_one_domain():
    r243 = get_group("R243")
    domains = {id(rep.subgroup) for rep in full_catalog()}
    assert len(domains) == 1
    whole = full_catalog()[0].subgroup
    assert whole.codes == frozenset(range(r243.order)) and whole.gen_codes == r243.gen_codes


def test_catalog_splits_each_induction_base_once(monkeypatch):
    for build in (spinrep.g27_nonspin_catalog, spinrep.g81_partial_catalog,
                  spinrep.gbar_partial_catalog, spinrep.r243_pure_catalog,
                  spinrep.full_catalog, spinrep._base_orbits):
        build.cache_clear()  # cold catalogs, as in a fresh `spinchar chartable`
    duals, orbits = [], []
    real_dual, real_orbits = spinrep.dual_group, spinrep.orbit_decomposition

    def counting_dual(sub):
        duals.append((sub.group.schema.name, sub.gen_codes))
        return real_dual(sub)

    def counting_orbits(chars, w_gens):
        sub = chars[0].subgroup
        orbits.append((sub.group.schema.name, sub.gen_codes))
        return real_orbits(chars, w_gens)
    monkeypatch.setattr(spinrep, "dual_group", counting_dual)
    monkeypatch.setattr(spinrep, "orbit_decomposition", counting_orbits)
    full_catalog()
    # G27's base for the non-spin type, then one base each for G81, GBAR, R243
    assert sorted(name for name, _ in duals) == ["G27", "G81", "GBAR", "R243"]
    assert len(set(duals)) == 4
    assert sorted(orbits) == sorted(duals)


def test_complex_conjugates_close_the_catalog():
    """Entrywise conjugation sends each irreducible of spin type (e, m) to a
    representation of type (-e, -m) whose character is a catalog row."""
    by_character = {character_key(rep): rep.name for rep in full_catalog()}
    partner = {}
    for rep in full_catalog():
        images = {gen: CycMatrix([[x.conj() for x in row] for row in M.rows])
                  for gen, M in rep.images.items()}
        bar = Representation(rep.group, images, "conj " + rep.name)
        assert verify_rep(bar).passed
        assert bar.spin_type == SpinType(-rep.spin_type.eps % 3, -rep.spin_type.mu % 3)
        partner[rep.name] = by_character[character_key(bar)]
    assert sorted(partner.values()) == sorted(partner)
    assert all(partner[partner[name]] == name for name in partner)
    assert partner["Pi(1,1;0)"] == "Pi(2,2;2)" and partner["Pi(0,1)"] == "Pi(0,2)"


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


def _generator_product(rep, code):
    """Reference for images_at: the product of generator-image powers in
    normal-form order, in CycMatrix arithmetic."""
    want = CycMatrix.identity(rep.dim)
    for gen, e in zip(rep.group.schema.gens, rep.group.exps_of(code)):
        want = want * rep.images[gen] ** e
    return want


def test_batched_images_match_generator_products():
    for rep in (irreps_by_spin_type((2, 1))[1], irreps_by_spin_type((0, 0))[10]):
        group = rep.group
        codes = list(range(0, group.order, 7)) + [group.order - 1]
        for code, image in zip(codes, rep.images_at(codes)):
            want = _generator_product(rep, code)
            assert CycMatrix.from_state(image) == want
            assert image == matrix_state(want.rows)  # equal values have equal states
            assert rep.eval(code) == want


def test_images_at_skips_identity_factors(monkeypatch):
    rep = irreps_by_spin_type((1, 1))[0]
    group = rep.group
    rep.powers()  # built once, on first use, before the count starts
    products = []
    monkeypatch.setattr(mackey, "state_mul",
                        lambda a, b, _real=state_mul: products.append((a, b)) or _real(a, b))
    first, last = group.gen_codes[0], group.gen_codes[-1]
    classes = [code for code, _ in group.conjugacy_classes()]

    def prefixes(codes):
        """The distinct normal-form prefixes of the codes with two or more
        nonzero exponents: each costs one product, once per call."""
        out = set()
        for code in codes:
            exps = group.exps_of(code)
            used = [i for i, e in enumerate(exps) if e]
            out.update(group.code_of(exps[:i + 1]) for i in used[1:])
        return len(out)

    # powers of one generator need no product, first * last one, and a
    # repeated code is multiplied once
    for codes, want in (([0, first, group.power(first, 2)], 0), ([first, last, 0], 0),
                        ([group.mult(first, last)] * 2, 1), (classes, prefixes(classes)),
                        ([], 0)):
        products.clear()
        images = rep.images_at(codes)
        assert len(products) == want
        assert len(images) == len(codes)
        for code, image in zip(codes, images):
            assert CycMatrix.from_state(image) == _generator_product(rep, code)
    assert 0 < prefixes(classes) < sum(max(0, sum(map(bool, group.exps_of(c))) - 1)
                                       for c in classes)


def test_restriction_skips_the_products_images_at_formed(monkeypatch):
    # 20 products form the 27 section images; of the 54 generator-rule
    # pairs over x1 and x3, the 20 whose product images_at formed are skipped
    rep = irreps_by_spin_type((1, 1))[0]
    assert rep.dim == 3 and rep.spin_type.kind == "purely-spin"
    rep.powers()  # built once, on first use, before the count starts
    counts = {mackey: 0, spinrep: 0}
    for module in counts:
        def counting(a, b, _module=module):
            counts[_module] += 1
            return state_mul(a, b)
        monkeypatch.setattr(module, "state_mul", counting)
    restrict_to_projective(rep)
    assert (counts[mackey], counts[spinrep]) == (20, 34)


def test_restriction_forms_w_multiples_only_after_a_product(monkeypatch):
    # w T(gx) and w^2 T(gx) are formed only after a full product T(g) T(x)
    # missed the multiple before: none for a skipped pair, k for a full
    # product whose scalar is w^k (54 were formed up front before)
    rep = irreps_by_spin_type((1, 1))[0]
    rep.powers()  # built once, on first use, before the count starts
    events = []
    monkeypatch.setattr(spinrep, "state_mul",
                        lambda a, b: events.append("*") or state_mul(a, b))
    monkeypatch.setattr(spinrep, "state_times_w",
                        lambda t: events.append("w") or state_times_w(t))
    coc = restrict_to_projective(rep)
    runs = "".join(events).split("*")
    assert runs[0] == "" and len(runs) == 35  # every multiple follows one of 34 products
    assert all(run in ("", "w", "ww") for run in runs)
    g27 = get_group("G27")
    ks = [coc.exps[g][x] for g in range(27) for x in (g27.code("x1"), g27.code("x3"))]
    assert events.count("w") == sum(ks) == 27


_COUNTING = """
from spinchar import cyclo9, linalg, mackey, spinrep, verify
counts = [0, 0]
mul, trace = cyclo9.state_mul, cyclo9.state_mul_trace
def counting_mul(a, b):
    counts[0] += 1
    return mul(a, b)
def counting_trace(a, b):
    counts[1] += 1
    return trace(a, b)
for module in (linalg, mackey, spinrep):
    module.state_mul = counting_mul
mackey.state_mul_trace = counting_trace
%s
print(*counts)
"""


@pytest.mark.parametrize("run, want", [
    ("assert all(result.passed for result in verify.run_checks())", (4504, 1060)),
    ("spinrep.spin_character_table()", (1047, 700)),
])
def test_cold_runs_make_the_recorded_products(run, want):
    # full products and trace-only ones of a cold `spinchar verify` and a
    # cold `chartable` (7,655 and 2,013 full products before the cuts)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _COUNTING % run], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert tuple(map(int, proc.stdout.split())) == want


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
        z12_span = {g81.power(g81.code("z12"), e) for e in range(3)}
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
        g27 = get_group("G27")
        assert inner_product(g27, c1, c1) == 1
        assert inner_product(g27, c1, c2) == 0
        assert inner_product(g27, triv, triv) == 1
        assert c1[0] == 3

    def test_base_group_completeness(self):
        # Mackey completeness at the base: 11 pairwise-orthogonal characters
        # with squared dimensions summing to the group order
        reps = g27_nonspin_catalog()
        assert sum(r.dim ** 2 for r in reps) == 27
        chars = [r.character() for r in reps]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                assert inner_product(get_group("G27"), ci, cj) == (1 if i == j else 0)

    def test_purely_spin_characters_leave_base_field(self):
        reps = irreps_by_spin_type((1, 1))
        seen_ninth = False
        for rep in reps:
            for value in rep.character():
                if isinstance(value, Cyc9) and value.to_cyc() is None:
                    seen_ninth = True
        assert seen_ninth

    def test_mismatched_schemas_rejected(self):
        c1 = g27_nonspin_catalog()[0].character()
        c2 = irreps_by_spin_type((1, 0))[0].character()
        with pytest.raises(RepError):
            inner_product(get_group("G27"), c1, c2)


class TestTwistInvariance:
    def test_catalog_independent_of_cube_root_choice(self):
        for eps in (1, 2):
            P, _, reps = g81_partial_catalog(eps)
            base = sorted(map(character_key, reps))
            for sol in intertwiner_solutions(P, "xi3"):
                alt = [extend_and_tensor(P, sol, r, "xi3", "alt(%d)" % r)
                       for r in range(3)]
                assert sorted(map(character_key, alt)) == base

    def test_stairway_equals_direct_route(self):
        for mu in (1, 2):
            stair = sorted(map(character_key, irreps_by_spin_type((0, mu))))
            direct = sorted(map(character_key, mu_route_direct(mu)))
            assert stair == direct


def _all_pairs_exps(rep, section=None):
    """Reference for the generator rule: T(g) T(h) against w^k T(gh) at all
    729 pairs, with each w^k T(gh) scaled in CycMatrix arithmetic.  Returns
    the exponent table as bytes rows, or raises RepError naming the first
    pair without a unique k."""
    g27 = get_group("G27")
    section = canonical_section() if section is None else section
    n = g27.order
    T = rep.images_at([section[g] for g in range(n)])
    targets = [[matrix_state(CycMatrix.from_state(t).scale(root_of_unity(k)).rows)
                for k in range(3)] for t in T]
    exps = [bytearray(n) for _ in range(n)]
    for g in range(n):
        for h in range(n):
            prod = state_mul(T[g], T[h])
            ks = [k for k, target in enumerate(targets[g27.mult(g, h)]) if target == prod]
            if len(ks) != 1:
                raise RepError("%s is not projective at (%d, %d)" % (rep.name, g, h))
            exps[g][h] = ks[0]
    return tuple(map(bytes, exps))


def _moved_lift_section():
    """The canonical section with the lift of element 5 moved by z12."""
    r243 = get_group("R243")
    section = list(canonical_section())
    section[5] = r243.mult(r243.code("z12"), section[5])
    return section


def _edited_images(rep, edit):
    """A fresh copy of rep whose images pass through edit(codes, images)."""
    copy = Representation(rep.group, dict(rep.images), rep.name)

    def images_at(codes):
        return edit(list(codes), rep.images_at(codes))
    copy.images_at = images_at
    return copy


def _scaled_state(state, c):
    return matrix_state(CycMatrix.from_state(state).scale(c).rows)


def _first_identity_violation(coc):
    """Reference for CocycleTable.identity_violation: the loop over all n^3
    triples in (g, h, k) order."""
    t, a, n = coc.base.rows, coc.exps, coc.base.order
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if (a[g][h] + a[t[g][h]][k] - a[g][t[h][k]] - a[h][k]) % 3:
                    return (g, h, k)
    return None


class TestProjectiveRestriction:
    def test_non_spin_restriction_is_linear(self):
        rep = irreps_by_spin_type((0, 0))[0]
        coc = restrict_to_projective(rep)
        assert coc.is_trivial()
        assert coc.identity_violation() is None

    def test_partially_spin_cocycle(self):
        rep = irreps_by_spin_type((1, 0))[0]
        coc = restrict_to_projective(rep)
        assert not coc.is_trivial()
        assert coc.identity_violation() is None
        assert set(b"".join(coc.exps)) <= {0, 1, 2}
        # normalized section: alpha(1, g) = alpha(g, 1) = 1
        assert not any(coc.exps[0]) and not any(row[0] for row in coc.exps)
        # the restriction is a genuine projective representation at every pair
        g27 = get_group("G27")
        section = canonical_section()
        T = [rep.eval(section[g]) for g in range(g27.order)]
        for g in range(g27.order):
            for h in range(g27.order):
                rhs = T[g27.mult(g, h)].scale(coc.value(g, h))
                assert T[g] * T[h] == rhs

    def test_generator_rule_matches_all_pairs_reference(self):
        moved = _moved_lift_section()
        for rep in full_catalog():
            for section in (None, moved):
                want = _all_pairs_exps(rep, section)
                got = restrict_to_projective(rep, section).exps
                assert got == want, (rep.name, section is moved)

    def test_scaled_non_generator_row_is_not_projective(self):
        # T(x1 x3) doubled: no generator image moves, yet both rules reject it
        g27 = get_group("G27")
        section = canonical_section()
        x1x3 = section[g27.mult(g27.gen_codes[0], g27.gen_codes[2])]

        def double(codes, images):
            k = codes.index(x1x3)
            images[k] = _scaled_state(images[k], 2)
            return images
        rep = _edited_images(irreps_by_spin_type((1, 1))[0], double)
        with pytest.raises(RepError, match="not projective"):
            _all_pairs_exps(rep)
        with pytest.raises(RepError, match="not projective"):
            restrict_to_projective(rep)

    def test_identity_image_w_is_not_projective(self):
        # T(1) = w I is a projective table with alpha(g, 1) = w, which the
        # all-pairs comparison accepts; the generator rule needs T(1) = I
        def scale_identity(codes, images):
            images[0] = _scaled_state(images[0], OMEGA)
            return images
        rep = _edited_images(irreps_by_spin_type((1, 1))[0], scale_identity)
        assert _all_pairs_exps(rep)[1][0] == 1
        with pytest.raises(RepError, match=r"not projective at \(0, 0\)"):
            restrict_to_projective(rep)

    def test_zero_images_are_not_projective(self):
        # T(1) = I and every other T(y) = 0: each T(g) T(x) = 0 matches all
        # three w^k T(gx), so no scalar is unique and the first pair fails
        def zero_off_identity(codes, images):
            zero = matrix_state([[0] * 3] * 3)
            return [image if code == 0 else zero for code, image in zip(codes, images)]
        rep = _edited_images(irreps_by_spin_type((1, 1))[0], zero_off_identity)
        x1 = get_group("G27").gen_codes[0]
        with pytest.raises(RepError, match=r"not projective at \(0, %d\)" % x1):
            restrict_to_projective(rep)
        with pytest.raises(RepError, match=r"not projective at \(0, 1\)"):
            _all_pairs_exps(rep)

    def test_same_cocycle_across_twists(self):
        tables = []
        for rep in irreps_by_spin_type((2, 1)):
            coc = restrict_to_projective(rep)
            tables.append(coc.exps)
        assert all(t == tables[0] for t in tables)

    def test_rejects_bad_section(self):
        # a checked section is remembered; a refused one is checked afresh
        rep = irreps_by_spin_type((1, 0))[0]
        r243 = get_group("R243")
        section = {g: r243.code_of((0, 0) + get_group("G27").exps_of(g))
                   for g in range(27)}
        section[3] = r243.code_of((0, 0, 0, 0, 0))  # no longer a lift
        moved_one = list(canonical_section())
        moved_one[0] = r243.code("z12")
        for _ in range(2):
            restrict_to_projective(rep)
            with pytest.raises(RepError, match="does not lift the base group elements"):
                restrict_to_projective(rep, section)
            with pytest.raises(RepError, match="must send the identity to the identity"):
                restrict_to_projective(rep, moved_one)
        for not_a_rep in (None, "Pi(1,0;0)", get_group("R243")):
            with pytest.raises(RepError, match="expects a representation of R243"):
                restrict_to_projective(not_a_rep)
        # a missing entry or a non-code is refused before the lift is checked
        for short in ([0, 1], range(26)):
            with pytest.raises(RepError, match="needs an entry for each of the 27"):
                restrict_to_projective(rep, short)
        for junk in ([None] * 27, [1.5] * 27):
            with pytest.raises(RepError, match="must be R243 element codes"):
                restrict_to_projective(rep, junk)

    def test_recursion_matches_per_column_reference(self):
        # reference: each column h on its own, from the generator columns
        # along the letters of h, a(g, h) = sum over h = w x v (x a letter)
        # of a(g w, x) - a(w, x), with no other column read
        g27 = get_group("G27")
        n, t, gens = g27.order, g27.rows, g27.gen_codes
        for section in (None, _moved_lift_section()):
            for rep in full_catalog():
                got = restrict_to_projective(rep, section).exps
                want = [bytearray(n) for _ in range(n)]
                for h in range(n):
                    for g in range(n):
                        prefix, total = 0, 0
                        for i in g27.letters_of(h):
                            x = gens[i]
                            total += got[t[g][prefix]][x] - got[prefix][x]
                            prefix = t[prefix][x]
                        want[g][h] = total % 3
                assert got == tuple(map(bytes, want)), rep.name

    def test_identity_violation_matches_the_triple_loop(self):
        g27 = get_group("G27")
        tables = [restrict_to_projective(rep).exps for rep in full_catalog()]
        for exps in tables:
            coc = CocycleTable(g27, exps)
            assert coc.identity_violation() is None
            assert _first_identity_violation(coc) is None
        # one entry moved off a cocycle, at random and at the corners
        rng = random.Random(25)
        spots = [(0, 0), (0, 26), (26, 0), (26, 26)]
        spots += [(rng.randrange(27), rng.randrange(27)) for _ in range(12)]
        for k, (g, h) in enumerate(spots):
            planted = [bytearray(row) for row in tables[k * 2 % len(tables)]]
            planted[g][h] = (planted[g][h] + 1 + k % 2) % 3
            coc = CocycleTable(g27, tuple(map(bytes, planted)))
            witness = coc.identity_violation()
            assert witness is not None and witness == _first_identity_violation(coc), (g, h)


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
