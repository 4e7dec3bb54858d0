"""Little-group machinery for finite semidirect products U x| W, U abelian.

Duals of abelian subgroups, the conjugation action on them (and on any
listed linear characters) with the convention (w.chi)(u) = chi(w^-1 u w),
orbit/stabilizer decomposition, and
explicit matrix induction over a coset section on the delta-function basis
(contragredient convention, so inducing the trivial-orbit characters of the
base group reproduces the cyclic shift J exactly).  A representation holds
only its generator images; values and the homomorphism check run on the
exact int64 lattice of `cyclo9`.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cyclo import root_of_unity
from .cyclo9 import (from_lattice, lattice_common, lattice_einsum, lattice_equal,
                     lattice_identity, lattice_matmul, to_lattice)
from .linalg import CycMatrix
from .groups import Subgroup


class MackeyError(ValueError):
    """Violated precondition: non-abelian base, bad section, bad action."""


class DualCharacter:
    """A linear character valued in cube roots of unity: an element of the
    dual of an abelian subgroup, or a one-dimensional character of a
    non-abelian one.

    `label` is the exponent tuple at `gen_codes` (for a dual, the chosen
    independent generators); it must tell apart the characters that are
    listed together.  The full value table is kept as omega-exponents per
    element code, and orbit_decomposition matches moved characters on it,
    not on the label alone.
    """

    def __init__(self, subgroup, gen_codes, label, exps):
        self.subgroup = subgroup
        self.gen_codes = tuple(gen_codes)
        self.label = tuple(label)
        self.exps = exps  # dict: element code -> exponent of omega

    def value(self, code):
        return root_of_unity(self.exps[int(code)])

    def as_subrep(self, name=None):
        images = [CycMatrix([[self.value(g)]]) for g in self.subgroup.gen_codes]
        return SubRep(self.subgroup, images, name or ("chi%s" % (self.label,)))

    def __eq__(self, other):
        return isinstance(other, DualCharacter) and self.exps == other.exps \
            and self.subgroup.codes == other.subgroup.codes

    def __repr__(self):
        return "DualCharacter(label=%s)" % (self.label,)


def dual_group(subgroup, independent_gens):
    """All characters of an abelian subgroup, labeled by exponent tuples.

    The generators must be independent of order 3: their power products must
    enumerate the subgroup bijectively.  The trivial subgroup with no
    generators yields the single trivial character.
    """
    group = subgroup.group
    if not subgroup.is_abelian():
        raise MackeyError("dual_group requires an abelian subgroup")
    gen_codes = [group.element(g).code for g in independent_gens]
    k = len(gen_codes)
    if 3 ** k != subgroup.order:
        raise MackeyError("%d generators cannot span a subgroup of order %d"
                          % (k, subgroup.order))
    # enumerate power products once; they must hit every element exactly once
    table = group.table
    codes_by_vec = {}
    for vec in product(range(3), repeat=k):
        acc = 0
        for g, e in zip(gen_codes, vec):
            for _ in range(e):
                acc = int(table[acc, g])
        codes_by_vec[vec] = acc
    if set(codes_by_vec.values()) != set(subgroup.codes):
        raise MackeyError("generators are not independent in the subgroup")

    duals = []
    for label in product(range(3), repeat=k):
        exps = {}
        for vec, code in codes_by_vec.items():
            exps[code] = sum(l * e for l, e in zip(label, vec)) % 3
        duals.append(DualCharacter(subgroup, gen_codes, label, exps))
    return duals


def act_on_dual(w, chi):
    """(w.chi)(u) = chi(w^-1 u w); the domain must be w-invariant."""
    group = chi.subgroup.group
    w = group.element(w).code
    winv = int(group.inv[w])
    moved = {}
    for code in chi.exps:
        conj = group.conjugate(code, winv)  # w^-1 * code * w
        if conj not in chi.exps:
            raise MackeyError("conjugation by the acting element leaves the domain")
        moved[code] = chi.exps[conj]
    label = tuple(moved[g] for g in chi.gen_codes)
    return DualCharacter(chi.subgroup, chi.gen_codes, label, moved)


@dataclass
class Orbit:
    representative: DualCharacter
    members: tuple          # labels, sorted
    stabilizer: Subgroup


@dataclass
class OrbitDecomposition:
    orbits: list

    def by_representative(self):
        return {orb.representative.label: orb for orb in self.orbits}


def orbit_decomposition(duals, w_gens, group=None):
    """Partition of the dual under the subgroup generated by w_gens.

    Orbit representatives are the lexicographically least labels; each
    stabilizer is returned as an explicit subgroup of <w_gens> and the
    orbit-stabilizer count is checked.
    """
    if not duals:
        return OrbitDecomposition([])
    group = group or duals[0].subgroup.group
    by_label = {chi.label: chi for chi in duals}
    if len(by_label) != len(duals):
        raise MackeyError("duplicate labels in the dual list")
    w_sub = Subgroup.generated(group, list(w_gens))
    gen_codes = [group.element(g).code for g in w_gens]

    seen = set()
    orbits = []
    for label in sorted(by_label):
        if label in seen:
            continue
        frontier = [label]
        members = {label}
        while frontier:
            cur = frontier.pop()
            for w in gen_codes:
                moved = act_on_dual(w, by_label[cur])
                nxt = moved.label
                if nxt not in by_label or moved.exps != by_label[nxt].exps:
                    raise MackeyError("action leaves the listed dual")
                if nxt not in members:
                    members.add(nxt)
                    frontier.append(nxt)
        seen |= members
        rep = by_label[min(members)]
        stab_codes = frozenset(w for w in w_sub.codes
                               if act_on_dual(w, rep).exps == rep.exps)
        stabilizer = Subgroup(group, stab_codes, tuple(sorted(stab_codes)))
        if len(members) * len(stab_codes) != w_sub.order:
            raise MackeyError("orbit-stabilizer count violated")
        orbits.append(Orbit(rep, tuple(sorted(members)), stabilizer))
    return OrbitDecomposition(orbits)


class SubRep:
    """A matrix representation of a subgroup, held by its generator images.

    The domain's generators are schema generators in normal-form order, and
    its elements are exactly the normal forms supported on them, so the
    image of any element is the product of generator powers read off its
    exponent vector.  The images are given in generator order, one
    CycMatrix each, and kept by generator name in `images`.  `images_at`
    multiplies cached generator powers on the exact int64 lattice of
    `cyclo9`, many elements per call.  The powers are built on first use,
    so a representation whose entries do not fit the lattice can still be
    built and printed; evaluating it raises CycError.  No table is kept.
    """

    def __init__(self, subgroup, images, name=None):
        group = subgroup.group
        gens = subgroup.gen_codes
        if list(gens) != [g for g in group.gen_codes if g in gens]:
            raise MackeyError("domain generators must be schema generators in normal-form order")
        if len(images) != len(gens) or not gens:
            raise MackeyError("need one image per domain generator, and at least one")
        weights = np.array(gens, dtype=np.int64)
        normal_forms = np.array(list(product(range(3), repeat=len(gens)))) @ weights
        if frozenset(normal_forms.tolist()) != subgroup.codes:
            raise MackeyError("the domain is not the normal forms on its generators")
        self.subgroup = subgroup
        self.group = group
        self.images = {group.schema.gens[group.gen_codes.index(g)]: M
                       for g, M in zip(gens, images)}
        self.dim = images[0].n
        self.name = name
        self._weights = weights
        self._powers = None

    def powers(self):
        """(P, den): P[k, e] / den is the lattice image of the k-th domain
        generator to the power e, for e = 0, 1, 2; shape (ngens, 3, d, d, 6)."""
        if self._powers is None:
            L, den = to_lattice([M.rows for M in self.images.values()])
            sq, sq_den = lattice_matmul(L, den, L, den)
            eye = np.broadcast_to(lattice_identity(self.dim), L.shape)
            (eye, L, sq), den = lattice_common((eye, 1), (L, den), (sq, sq_den))
            self._powers = (np.stack([eye, L, sq], axis=1), den)
        return self._powers

    def images_at(self, codes):
        """The images at many element codes as one lattice (L, den), L of
        shape (len(codes), d, d, 6): the product of the generator powers in
        each code's normal form, one lattice product per generator."""
        codes = np.array(codes, dtype=np.int64).reshape(-1)
        exps = codes[:, None] // self._weights % 3
        outside = np.flatnonzero(exps @ self._weights != codes)
        if len(outside):
            raise MackeyError("element %d lies outside the domain of %s"
                              % (codes[outside[0]], self.name))
        P, den = self.powers()
        out, out_den = P[0, exps[:, 0]], den
        for k in range(1, len(P)):
            out, out_den = lattice_matmul(out, out_den, P[k, exps[:, k]], den)
        return out, out_den

    def eval(self, code):
        L, den = self.images_at([code])
        return CycMatrix.from_lattice(L[0], den)

    def character_values(self, codes=None):
        """The traces at `codes` (default: the whole domain), by code."""
        codes = sorted(self.subgroup.codes) if codes is None else list(codes)
        L, den = self.images_at(codes)
        traces = lattice_einsum("cjjp->cp", L)
        return {code: from_lattice(t, den) for code, t in zip(codes, traces)}

    def verify(self):
        """The exact homomorphism check: the first broken rule of the
        domain's presentation as (description, lhs, rhs), or None.

        The rules are the cube rules g^3 and the literal conjugation rules
        gj gi gj^-1 (i before j) among the domain's generators, with right
        sides evaluated at the product codes from the Cayley table.  The
        domain is exactly the normal forms on these generators, so the
        rules hold iff evaluation is a homomorphism.  Each family runs as
        one lattice batch (one CycMatrix inverse per generator after the
        first); only a failing rule is converted back to matrices for its
        witness.  Raises CycError when entries leave the lattice.
        """
        group = self.group
        table = group.table
        names = list(self.images)
        gens = np.array(self.subgroup.gen_codes)
        P, den = self.powers()
        cubes = lattice_matmul(P[:, 2], den, P[:, 1], den)
        bad = _first_mismatch(cubes, self.images_at(table[table[gens, gens], gens]))
        if bad is not None:
            k, lhs, rhs = bad
            return "cube rule for %s" % names[k], lhs, rhs
        rules = [(j, i) for j in range(len(gens)) for i in range(j)]
        if not rules:
            return None
        inverses, inv_den = to_lattice([M.inverse().rows
                                        for M in list(self.images.values())[1:]])
        js, iss = np.array(rules).T
        conj, conj_den = lattice_matmul(P[js, 1], den, P[iss, 1], den)
        conj = lattice_matmul(conj, conj_den, inverses[js - 1], inv_den)
        words = self.images_at([group.conjugate(gens[i], gens[j]) for j, i in rules])
        bad = _first_mismatch(conj, words)
        if bad is not None:
            k, lhs, rhs = bad
            j, i = rules[k]
            return "conjugation rule phi(%s)%s" % (names[j], names[i]), lhs, rhs
        return None

    def __repr__(self):
        return "SubRep(%s, dim=%d, |domain|=%d)" % (self.name, self.dim,
                                                    self.subgroup.order)


def _first_mismatch(lhs, rhs):
    """(k, lhs[k], rhs[k]) as CycMatrix for the first unequal pair of two
    lattice batches, or None."""
    (L, L_den), (R, R_den) = lhs, rhs
    bad = np.flatnonzero(~lattice_equal(L, L_den, R, R_den).all(axis=(1, 2, 3)))
    if not len(bad):
        return None
    k = bad[0]
    return k, CycMatrix.from_lattice(L[k], L_den), CycMatrix.from_lattice(R[k], R_den)


def induce(rho, section, name=None):
    """Induce a subgroup representation along a right-coset section.

    `section` lists coset representatives s_0, ..., s_{k-1} (s_0 = 1) with
    the induced group being H * {s_j}; the matrix of y has block (j, i)
    equal to rho(u) where s_j y = u s_i.  The blocks are computed only at
    the target's generators, the schema generators it contains (H's and the
    section generator s of (1, s, s^2)), with one `images_at` call.  Raises
    when the section is not an exact transversal, when the target is not
    the normal forms on its generators, or when the result fails the
    homomorphism check.
    """
    H = rho.subgroup
    group = rho.group
    table = group.table
    sect = np.array([group.element(s).code for s in section])
    if sect[0] != 0:
        raise MackeyError("section must start at the identity")

    cosets = table[sorted(H.codes)][:, sect].T      # row i: the coset H s_i
    if len(np.unique(cosets)) != cosets.size:
        raise MackeyError("section is not a transversal: cosets overlap")
    coset_of = np.full(group.order, -1)
    coset_of[cosets] = np.arange(len(sect))[:, None]
    target_codes = frozenset(cosets.ravel().tolist())

    gens = [g for g in group.gen_codes if g in target_codes]
    t = table[sect[:, None], gens]                  # s_j y, shape (k, m)
    i = coset_of[t]
    if (i < 0).any():
        raise MackeyError("section does not close under the target")
    k, m, d = len(sect), len(gens), rho.dim
    L, den = rho.images_at(table[t, group.inv[sect[i]]])   # u = s_j y s_i^-1
    blocks = np.zeros((m, k, d, k, d, 6), dtype=np.int64)
    # block (j, i) of y sits at rows j*d.. and columns i*d.. after the reshape
    blocks[np.arange(m), np.arange(k)[:, None], :, i] = L.reshape(k, m, d, d, 6)
    images = [CycMatrix.from_lattice(B, den) for B in blocks.reshape(m, k * d, k * d, 6)]
    out = SubRep(Subgroup(group, target_codes, tuple(gens)), images, name)
    bad = out.verify()
    if bad is not None:
        raise MackeyError("induced representation is not a homomorphism: %s" % bad[0])
    return out
