"""Little-group machinery for finite semidirect products U x| W, U abelian.

Duals of abelian subgroups, the conjugation action on them (and on any
listed linear characters) with the convention (w.chi)(u) = chi(w^-1 u w),
orbit/stabilizer decomposition, and
explicit matrix induction over a coset section on the delta-function basis
(contragredient convention, so inducing the trivial-orbit characters of the
base group reproduces the cyclic shift J exactly).  Subgroup representations
hold their value tables on the exact int64 lattice of `cyclo9`.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cyclo import root_of_unity
from .cyclo9 import (from_lattice, lattice_einsum, lattice_equal, lattice_identity,
                     lattice_matmul, to_lattice)
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
        roots, _ = to_lattice([root_of_unity(e) for e in range(3)])
        codes = list(self.exps)
        table = np.zeros((self.subgroup.group.order, 1, 1, 6), dtype=np.int64)
        table[codes, 0, 0] = roots[[self.exps[c] for c in codes]]
        return SubRep(self.subgroup, table, 1, name or ("chi%s" % (self.label,)))

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
    """A matrix representation of a subgroup, held as one exact lattice.

    `table` is an int64 array of shape (|G|, d, d, 6) indexed by the element
    codes of the whole group G: the image of a code u of the subgroup is
    table[u] / den, entry by entry in the power-basis coefficients of
    `cyclo9`.  Rows outside the subgroup are zero and never read.
    `DualCharacter.as_subrep` and `induce` write the table directly; `eval`
    converts one row to a CycMatrix for callers that solve with it or print
    it.
    """

    def __init__(self, subgroup, table, den, name=None):
        if table.shape[0] != subgroup.group.order or table.shape[1] != table.shape[2]:
            raise MackeyError("representation table does not match its domain")
        self.subgroup = subgroup
        self.table = table
        self.den = den
        self.dim = table.shape[1]
        self.name = name

    def eval(self, code):
        code = int(code)
        if code not in self.subgroup.codes:
            raise MackeyError("element %d lies outside the domain of %s" % (code, self.name))
        return CycMatrix.from_lattice(self.table[code], self.den)

    def verify(self):
        """Exact homomorphism check over generator edges (hence all pairs).

        Returns None, (0, 0) when the identity does not map to I, or the
        first (u, g) with rho(u) rho(g) != rho(ug), u in the subgroup's
        iteration order and g among its generators.  One lattice product
        per generator covers every u at once.
        """
        T, den = self.table, self.den
        if not lattice_equal(T[0], den, lattice_identity(self.dim), 1).all():
            return (0, 0)
        mult = self.subgroup.group.table
        codes = np.fromiter(self.subgroup.codes, dtype=np.int64)
        gens = self.subgroup.gen_codes
        at_codes = T[codes]
        bad = np.zeros((len(codes), len(gens)), dtype=bool)
        for k, g in enumerate(gens):
            prod, prod_den = lattice_matmul(at_codes, den, T[g], den)
            same = lattice_equal(prod, prod_den, T[mult[codes, g]], den)
            bad[:, k] = ~same.all(axis=(1, 2, 3))
        hits = np.argwhere(bad)
        if len(hits):
            u, k = hits[0]
            return (int(codes[u]), int(gens[k]))
        return None

    def character_values(self):
        codes = list(self.subgroup.codes)
        traces = lattice_einsum("cjjp->cp", self.table[codes])
        return {code: from_lattice(t, self.den) for code, t in zip(codes, traces)}

    def __repr__(self):
        return "SubRep(%s, dim=%d, |domain|=%d)" % (self.name, self.dim,
                                                    self.subgroup.order)


def induce(rho, section, name=None):
    """Induce a subgroup representation along a right-coset section.

    `section` lists coset representatives s_0, ..., s_{k-1} (s_0 = 1) with
    the induced group being H * {s_j}; the matrix of y has block (j, i)
    equal to rho(u) where s_j y = u s_i.  The blocks are placed into the
    induced lattice table with index arrays, one section element at a time.
    Raises when the section is not an exact transversal or when the result
    fails the homomorphism check.
    """
    H = rho.subgroup
    group = H.group
    table = group.table
    inv = group.inv
    sect = np.array([group.element(s).code for s in section])
    if sect[0] != 0:
        raise MackeyError("section must start at the identity")

    coset_of = np.full(group.order, -1)
    for i, s in enumerate(sect):
        for h in H.codes:
            y = int(table[h, s])
            if coset_of[y] >= 0:
                raise MackeyError("section is not a transversal: cosets overlap")
            coset_of[y] = i
    target_codes = frozenset(int(y) for y in np.flatnonzero(coset_of >= 0))

    k = len(sect)
    d = rho.dim
    ys = np.fromiter(target_codes, dtype=np.int64)
    blocks = np.zeros((group.order, k, d, k, d, 6), dtype=np.int64)
    for j, sj in enumerate(sect):
        t = table[sj, ys]
        i = coset_of[t]
        if (i < 0).any():
            raise MackeyError("section does not close under the target")
        u = table[t, inv[sect[i]]]
        # block (j, i) of y sits at rows j*d.. and columns i*d.. after the reshape
        blocks[ys, j, :, i] = rho.table[u]

    target = Subgroup(group, target_codes,
                      tuple(H.gen_codes) + tuple(int(s) for s in sect if s))
    out = SubRep(target, blocks.reshape(group.order, k * d, k * d, 6), rho.den, name)
    bad = out.verify()
    if bad is not None:
        raise MackeyError("induced table is not a homomorphism at %r" % (bad,))
    return out
