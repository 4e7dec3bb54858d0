"""Duals, the action on them, orbits, and matrix induction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinchar.cyclo import ONE, root_of_unity
from spinchar.cyclo9 import Cyc9
from spinchar.linalg import CycMatrix, J_SHIFT
from spinchar.groups import Group, Subgroup, get_group
from spinchar.mackey import (DualCharacter, MackeyError, SubRep, act_on_dual, dual_group,
                             induce, orbit_decomposition)


def g27_dual():
    g27 = get_group("G27")
    U = Subgroup.generated(g27, ["x1", "x2"])
    return g27, U, dual_group(U)


def test_dual_group_counts_and_multiplicativity():
    g27, U, duals = g27_dual()
    assert len(duals) == 9
    t = g27.rows
    codes = sorted(U.codes)
    for chi in duals:
        for u in codes:
            for v in codes:
                assert chi.exponent(t[u][v]) == (chi.exponent(u) + chi.exponent(v)) % 3


def test_dual_group_rejects_nonabelian_and_dependent_generators():
    g81 = get_group("G81")
    U = Subgroup.generated(g81, ["z12", "xi1", "xi2"])
    with pytest.raises(MackeyError, match="abelian"):
        dual_group(U)
    g27 = get_group("G27")
    X2 = Subgroup.generated(g27, ["x2"])
    with pytest.raises(MackeyError, match="schema generators"):
        dual_group(X2._replace(gen_codes=X2.gen_codes * 2))
    with pytest.raises(MackeyError, match="schema generators"):
        dual_group(Subgroup.generated(g27, ["x1 x2"]))
    U = Subgroup.generated(g27, ["x1", "x2"])
    with pytest.raises(MackeyError, match="normal forms"):
        dual_group(U._replace(gen_codes=U.gen_codes[:1]))


def test_dual_group_refuses_a_generator_of_order_9():
    # in G81_param(1,0), xi1^3 = z12: <z12, xi1> is Z/9 and the normal
    # forms on its generators, but an exponent label at xi1 is no character
    g81 = get_group("G81_param", (1, 0))
    U = Subgroup.generated(g81, ["z12", "xi1"])
    assert U.order == 9 and U.is_abelian()
    xi1 = g81.code("xi1")
    assert g81.power(xi1, 3) == g81.code("z12")
    with pytest.raises(MackeyError, match="order 3"):
        dual_group(U)


def test_trivial_subgroup_dual():
    g27 = get_group("G27")
    T = Subgroup.generated(g27, [])
    duals = dual_group(T)
    assert len(duals) == 1 and duals[0].exponent(0) == 0
    with pytest.raises(MackeyError, match="outside the domain"):
        duals[0].exponent(g27.code("x1"))


def test_action_formula_on_base_dual():
    g27, U, duals = g27_dual()
    w = g27.code("x3")
    for chi in duals:
        m, n = chi.label
        assert act_on_dual(w, chi).label == ((m + n) % 3, n)
        assert act_on_dual(0, chi).label == chi.label


def test_action_is_a_group_action():
    g27, U, duals = g27_dual()
    w = g27.code("x3")
    for chi in duals:
        one_then_other = act_on_dual(w, act_on_dual(w, chi))
        together = act_on_dual(g27.mult(w, w), chi)
        assert one_then_other == together


@pytest.mark.parametrize("name, domain, acting", [("G27", ["x1", "x2"], "x3"),
                                                  ("G81", ["z12", "xi1"], "xi2")])
def test_action_is_conjugation_read_from_the_table(monkeypatch, name, domain, acting):
    # (w.chi)(u) = chi(w^-1 u w) at every u of the base, for every w of the
    # acting group, and each action conjugates the k domain generators only
    group = get_group(name)
    U = Subgroup.generated(group, domain)
    W = Subgroup.generated(group, [acting])
    t, inv = group.rows, group.inv
    calls = []
    real = Group.conjugate

    def counting(self, g, h):
        calls.append((g, h))
        return real(self, g, h)

    monkeypatch.setattr(Group, "conjugate", counting)
    duals = dual_group(U)
    for w in sorted(W.codes):
        moved = []
        for chi in duals:
            calls.clear()
            moved.append(act_on_dual(w, chi))
            assert len(calls) == len(U.gen_codes)
            for u in U.codes:
                assert moved[-1].exponent(u) == chi.exponent(t[t[inv[w]][u]][w])
        assert sorted(moved) == sorted(duals)  # a permutation of the dual


def test_action_formula_on_covering_dual():
    g81 = get_group("G81")
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    duals = dual_group(U0)
    xi2 = g81.code("xi2")
    for chi in duals:
        e, m = chi.label
        assert act_on_dual(xi2, chi).label == (e, (m + e) % 3)


def test_action_requires_invariant_domain():
    g81 = get_group("G81")
    X1 = Subgroup.generated(g81, ["xi1"])
    duals = dual_group(X1)
    with pytest.raises(MackeyError):
        act_on_dual(g81.code("xi2"), duals[1])


def test_orbit_decomposition_base():
    g27, U, duals = g27_dual()
    dec = orbit_decomposition(duals, ["x3"])
    assert sorted(o.representative.label for o in dec) == \
        [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    for o in dec:
        m, n = o.representative.label
        if n == 0:
            assert len(o.members) == 1 and o.stabilizer.order == 3
        else:
            assert len(o.members) == 3 and o.stabilizer.order == 1
        assert len(o.members) * o.stabilizer.order == 3


def test_orbit_decomposition_trivial_action():
    g27, U, duals = g27_dual()
    dec = orbit_decomposition(duals, [])
    assert len(dec) == 9
    assert all(len(o.members) == 1 and o.stabilizer.order == 1 for o in dec)


def test_orbit_decomposition_refuses_an_unlisted_image():
    # x3 sends (0, 1) to (1, 1), which the list leaves out
    g27, U, duals = g27_dual()
    with pytest.raises(MackeyError, match="leaves the listed dual"):
        orbit_decomposition([chi for chi in duals if chi.label != (1, 1)], ["x3"])


def _frontier_orbits(duals, w_gens):
    """The orbit search as a frontier walk over the generators of <w_gens>,
    then a second sweep of <w_gens> for the stabilizer: (representative,
    members, stabilizer codes) per orbit, representatives in label order."""
    group = duals[0].subgroup.group
    by_label = {chi.label: chi for chi in duals}
    w_sub = Subgroup.generated(group, w_gens)
    seen, out = set(), []
    for label in sorted(by_label):
        if label in seen:
            continue
        frontier, members = [label], {label}
        while frontier:
            cur = frontier.pop()
            for w in w_sub.gen_codes:
                nxt = act_on_dual(w, by_label[cur]).label
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
        seen |= members
        rep = by_label[min(members)]
        stab = tuple(sorted(w for w in w_sub.codes if act_on_dual(w, rep) == rep))
        out.append((rep, tuple(sorted(members)), stab))
    return out


def test_orbits_match_the_frontier_reference():
    cases = [(dual_group(Subgroup.generated(get_group(name), base)), [section])
             for name, base, section in [("G27", ["x1", "x2"], "x3"),
                                         ("G81", ["z12", "xi1"], "xi2"),
                                         ("GBAR", ["z23", "xb2"], "xb3"),
                                         ("R243", ["z12", "z23", "n1"], "n2")]]
    # mu_route_direct's linear characters of the non-abelian <z12, z23, n1, n2>
    U = Subgroup.generated(get_group("R243"), ["z12", "z23", "n1", "n2"])
    cases += [([DualCharacter(U, (0, mu, a, b)) for a in range(3) for b in range(3)], ["n3"])
              for mu in (1, 2)]
    cases.append((g27_dual()[2], []))
    for duals, w_gens in cases:
        got = [(o.representative, o.members, o.stabilizer.gen_codes, o.stabilizer.codes)
               for o in orbit_decomposition(duals, w_gens)]
        want = [(rep, members, stab, frozenset(stab))
                for rep, members, stab in _frontier_orbits(duals, w_gens)]
        assert got == want, w_gens


def test_spin_orbits_on_covering():
    g81 = get_group("G81")
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    duals = dual_group(U0)
    by_rep = {o.representative.label: o for o in orbit_decomposition(duals, ["xi2"])}
    for eps in (1, 2):
        orbit = by_rep[(eps, 0)]
        assert orbit.members == tuple(sorted((eps, m) for m in range(3)))
        assert orbit.stabilizer.order == 1


def test_induced_base_matrices():
    g27, U, duals = g27_dual()
    w = g27.code("x3")
    section = [0, w, g27.mult(w, w)]
    for n in (1, 2):
        chi = next(c for c in duals if c.label == (0, n))
        ind = induce(chi.as_subrep(), section)
        assert ind.dim == 3
        assert ind.eval(g27.code("x3")) == J_SHIFT
        assert ind.eval(g27.code("x1")) == CycMatrix.diagonal(
            [ONE, root_of_unity(-n), root_of_unity(n)])
        assert ind.eval(g27.code("x2")) == CycMatrix.scalar(
            3, root_of_unity(n))
        assert ind.verify() is None


def test_induction_dimension_and_identity_section():
    g81 = get_group("G81")
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    duals = dual_group(U0)
    chi = next(c for c in duals if c.label == (1, 0))
    xi2 = g81.code("xi2")
    ind = induce(chi.as_subrep(), [0, xi2, g81.mult(xi2, xi2)])
    assert ind.dim == 3 * 1
    same = induce(chi.as_subrep(), [0])
    assert all(same.eval(c) == chi.as_subrep().eval(c) for c in U0.codes)


def test_images_as_the_other_scalar_type_are_the_same_representation():
    # induced images are Cyc matrices; the same values held as Cyc9 must
    # evaluate, verify, trace and induce identically
    g27, U, duals = g27_dual()
    chi = duals[5].as_subrep()
    as_cyc9 = SubRep(chi.subgroup, [CycMatrix([[Cyc9.from_scalar(M.rows[0][0])]])
                                    for M in chi.images.values()], chi.name)
    assert all(as_cyc9.eval(c) == chi.eval(c) for c in U.codes)
    assert as_cyc9.character_values() == chi.character_values()
    assert as_cyc9.verify() is None
    w = g27.code("x3")
    section = [0, w, g27.mult(w, w)]
    a, b = induce(chi, section), induce(as_cyc9, section)
    assert a.images == b.images and all(a.eval(y) == b.eval(y) for y in range(27))
    with pytest.raises(MackeyError):
        as_cyc9.eval(g27.code("x3"))  # outside the domain <x1, x2>


def test_induction_rejects_bad_sections():
    g27, U, duals = g27_dual()
    chi = duals[3].as_subrep()
    x1 = g27.code("x1")
    with pytest.raises(MackeyError, match="not a transversal: cosets overlap"):
        # section overlapping the base subgroup's cosets
        induce(chi, [0, x1, g27.mult(x1, x1)])
    w = g27.code("x3")
    with pytest.raises(MackeyError):
        induce(chi, [w, g27.mult(w, w), 0])  # must start at the identity


def test_bad_domain_is_refused_after_a_good_one_on_its_generators():
    # the domain check is remembered per subgroup; a domain with the same
    # generators and other codes is checked afresh
    g27, U, _ = g27_dual()
    images = [CycMatrix([[ONE]])] * 2
    x1x2, x3 = g27.parse_element("x1 x2"), g27.gen_codes[2]
    bad = Subgroup(g27, U.codes - {x1x2} | {x3}, U.gen_codes)
    for _ in range(2):
        assert SubRep(U, images).subgroup is U
        with pytest.raises(MackeyError, match="not the normal forms on its generators"):
            SubRep(bad, images)


def test_one_verify_run_checks_each_object_once(monkeypatch):
    """The catalogs check their induced and purely-spin irreducibles while
    they build them, and `check_representations` checks them again; the
    second call reads the verdict kept on the object."""
    from spinchar import spinrep, verify

    for build in (spinrep.g27_nonspin_catalog, spinrep.g81_partial_catalog,
                  spinrep.gbar_partial_catalog, spinrep.r243_pure_catalog,
                  spinrep.full_catalog, spinrep.spin_character_table):
        build.cache_clear()  # cold catalogs, as in a fresh `spinchar verify`
    calls, computed = [], []
    real_verify, real_rule = SubRep.verify, SubRep._first_broken_rule

    def counting_verify(self):
        calls.append(self)
        return real_verify(self)

    def counting_rule(self):
        computed.append(self)
        return real_rule(self)

    monkeypatch.setattr(SubRep, "verify", counting_verify)
    monkeypatch.setattr(SubRep, "_first_broken_rule", counting_rule)
    assert all(result.passed for result in verify.run_checks())
    objects = {id(rep) for rep in calls}
    # some objects are asked twice, and each is computed once
    assert len(calls) > len(objects)
    assert len(computed) == len({id(rep) for rep in computed}) == len(objects)


def test_one_verify_inverts_each_distinct_image_once():
    """`SubRep.verify` takes each generator image's inverse from a memo kept
    for the process, so a fresh `spinchar verify` runs `CycMatrix.inverse`
    once per distinct image value; the child process starts with no memo."""
    script = """
from spinchar import verify
from spinchar.linalg import CycMatrix
inverted = []
inverse = CycMatrix.inverse
def counting(self):
    inverted.append(self)
    return inverse(self)
CycMatrix.inverse = counting
assert all(result.passed for result in verify.run_checks())
print(len(inverted), len(set(inverted)))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls, distinct = map(int, proc.stdout.split())
    assert calls == distinct > 0
