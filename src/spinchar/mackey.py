"""Little-group machinery for finite semidirect products U x| W, U abelian.

Duals of abelian subgroups, each linear character held as its exponents at
the domain's generators; the conjugation action on them (and on any listed
linear characters), (w.chi)(u) = chi(w^-1 u w), which conjugates only those
generators; orbit/stabilizer decomposition on those labels; and explicit
matrix induction over a coset section on the delta-function basis
(contragredient convention, so inducing the trivial-orbit characters of the
base group reproduces the cyclic shift J exactly).  A representation holds
only its generator images; values, characters and the homomorphism check
run on the exact matrix kernel of `cyclo9`, on Python ints, and read the
Cayley table's rows, so no catalog command imports numpy.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .cyclo import ZERO, root_of_unity
from .cyclo9 import state_mul, state_mul_trace, state_trace
from .linalg import CycMatrix
from .groups import Subgroup


class MackeyError(ValueError):
    """Violated precondition: non-abelian base, bad section, bad action."""


class DualCharacter(NamedTuple):
    """A linear character valued in cube roots of unity: an element of the
    dual of an abelian subgroup, or a one-dimensional character of a
    non-abelian one.

    `label` holds the omega-exponents at the domain's generators, which are
    schema generators in normal-form order; the domain's elements are the
    normal forms on them, so the label fixes every value.
    """

    subgroup: Subgroup
    label: tuple

    def exponent(self, code):
        """The omega-exponent at an element code of the domain."""
        if code not in self.subgroup.codes:
            raise MackeyError("element %d lies outside the domain" % code)
        return sum(l * (code // g % 3) for l, g in zip(self.label, self.subgroup.gen_codes)) % 3

    def as_subrep(self):
        images = [CycMatrix([[root_of_unity(l)]]) for l in self.label]
        return SubRep(self.subgroup, images, "chi%s" % (self.label,))


def dual_group(subgroup):
    """All characters of an abelian subgroup, labeled by exponent tuples at
    its generators.

    The domain must be the normal forms on its generators, each of order 3,
    so that every exponent tuple is a character.  The trivial subgroup with
    no generators yields the single trivial character.
    """
    if not subgroup.is_abelian():
        raise MackeyError("dual_group requires an abelian subgroup")
    _check_domain(subgroup)
    rows = subgroup.group.rows
    if any(rows[rows[g][g]][g] for g in subgroup.gen_codes):
        raise MackeyError("dual_group requires generators of order 3")
    return [DualCharacter(subgroup, label)
            for label in product(range(3), repeat=len(subgroup.gen_codes))]


def act_on_dual(w, chi):
    """(w.chi)(u) = chi(w^-1 u w); the domain must be w-invariant.

    Only the domain's generators are conjugated: conjugation is an
    automorphism, so generators that stay in the domain keep all of it."""
    group = chi.subgroup.group
    winv = group.inv[group.code(w)]
    conj = [group.conjugate(g, winv) for g in chi.subgroup.gen_codes]  # w^-1 g w
    if any(c not in chi.subgroup.codes for c in conj):
        raise MackeyError("conjugation by the acting element leaves the domain")
    return DualCharacter(chi.subgroup, tuple(chi.exponent(c) for c in conj))


class Orbit(NamedTuple):
    representative: DualCharacter
    members: tuple          # labels, sorted
    stabilizer: Subgroup


def orbit_decomposition(duals, w_gens):
    """Partition of the dual under the subgroup generated by w_gens, as
    the list of its `Orbit`s in the order of their representatives.

    One sweep per orbit: the least label not yet seen is acted on by every
    code of <w_gens>, in sorted order; the images are the members, the codes
    that fix it the stabilizer.  Conjugation is an action, so each smaller
    label lies in an orbit already swept.  The orbit-stabilizer count is checked.
    """
    if not duals:
        return []
    group = duals[0].subgroup.group
    by_label = {chi.label: chi for chi in duals}
    if len(by_label) != len(duals):
        raise MackeyError("duplicate labels in the dual list")
    w_codes = sorted(Subgroup.generated(group, w_gens).codes)
    seen, orbits = set(), []
    for label in sorted(by_label):
        if label in seen:
            continue
        rep = by_label[label]
        images = [act_on_dual(w, rep) for w in w_codes]
        if any(by_label.get(chi.label) != chi for chi in images):
            raise MackeyError("action leaves the listed dual")
        members = {chi.label for chi in images}
        stab = tuple(w for w, chi in zip(w_codes, images) if chi == rep)
        if len(members) * len(stab) != len(w_codes):
            raise MackeyError("orbit-stabilizer count violated")
        seen |= members
        orbits.append(Orbit(rep, tuple(sorted(members)), Subgroup(group, frozenset(stab), stab)))
    return orbits


class SubRep:
    """A matrix representation of a subgroup, held by its generator images.

    The domain's generators are schema generators in normal-form order, and
    its elements are exactly the normal forms supported on them, so the
    image of any element is the product of generator powers read off its
    exponent vector.  The images are given in generator order, CycMatrix
    values of one size, and kept by generator name in `images`.  `images_at`
    multiplies cached generator powers as `cyclo9` kernel states, skipping
    every generator whose exponent is 0.  No table is kept.

    `base`, when given, is a SubRep of the same group whose images are among
    these, as the same objects: `verify` takes the rules among its
    generators from base.verify() when that passes.
    """

    def __init__(self, subgroup, images, name=None, base=None):
        _check_domain(subgroup)
        group = subgroup.group
        gens = subgroup.gen_codes
        if len(images) != len(gens) or not gens:
            raise MackeyError("need one image per domain generator, and at least one")
        if any(not isinstance(M, CycMatrix) or M.n != images[0].n for M in images):
            raise MackeyError("images must be CycMatrix values of one size")
        self.subgroup = subgroup
        self.group = group
        self.images = {group.schema.gens[group.gen_codes.index(g)]: M
                       for g, M in zip(gens, images)}
        self.dim = images[0].n
        self.name = name
        if base is not None and (base.group is not group or any(
                self.images.get(gen) is not M for gen, M in base.images.items())):
            raise MackeyError("a base must share the group and its generator images")
        self._base = base
        self._powers = None
        self._verdict = None  # (first broken rule,) once verify has run

    def powers(self):
        """P[k][e]: the state of the k-th domain generator's image to the
        power e, for e = 0, 1, 2, built on first use."""
        if self._powers is None:
            eye = CycMatrix.identity(self.dim).state
            states = [M.state for M in self.images.values()]
            self._powers = [(eye, m, state_mul(m, m)) for m in states]
        return self._powers

    def images_at(self, codes):
        """The images at element codes as kernel states: the products of the
        generator powers in each code's normal form, in generator order.  A
        generator at exponent 0 is skipped, and each normal-form prefix is
        multiplied once per call: one product beyond its prefix's."""
        gens, P = self.subgroup.gen_codes, self.powers()
        known = {0: P[0][0]}  # prefix code -> its image
        out = []
        for code in codes:
            prefix = 0
            for g, powers in zip(gens, P):
                e = code // g % 3
                if e:
                    step = prefix + e * g
                    if step not in known:
                        known[step] = state_mul(known[prefix], powers[e]) if prefix else powers[e]
                    prefix = step
            if prefix != code:
                raise MackeyError("element %d lies outside the domain of %s" % (code, self.name))
            out.append(known[code])
        return out

    def eval(self, code):
        return CycMatrix.from_state(self.images_at([code])[0])

    def character_values(self, codes=None):
        """The traces at `codes` (default: the whole domain), by code.

        A code that no other code extends (is not a proper normal-form
        prefix of another) is never formed as a matrix: its trace is that of
        its last product, tr(A B) = sum a_ij b_ji (`state_mul_trace`), A the
        image of the code without its last letter and B that letter's power.
        The images of the proper prefixes come from one `images_at` call."""
        codes = sorted(self.subgroup.codes) if codes is None else list(codes)
        gens, P = self.subgroup.gen_codes, self.powers()
        lasts, inner = [], set()  # (prefix, k, e) of each code; the proper prefixes
        for code in codes:
            if code not in self.subgroup.codes:
                raise MackeyError("element %d lies outside the domain of %s" % (code, self.name))
            lasts.append(_last_letter(code, gens))
            prefix = lasts[-1][0]
            while prefix and prefix not in inner:
                inner.add(prefix)
                prefix = _last_letter(prefix, gens)[0]
        inner = sorted(inner)
        formed = dict(zip(inner, self.images_at(inner)))
        values = {}
        for code, (prefix, k, e) in zip(codes, lasts):
            if code in formed:
                values[code] = state_trace(formed[code])
            elif prefix:
                values[code] = state_mul_trace(formed[prefix], P[k][e])
            else:
                values[code] = state_trace(P[k][e])
        return values

    def verify(self):
        """The exact homomorphism check: the first broken rule of the
        domain's presentation as (description, lhs, rhs), or None.

        The rules are the cube rules g^3 and the literal conjugation rules
        gj gi gj^-1 (i before j) among the domain's generators, with right
        sides evaluated at the product codes from the Cayley table.  The
        domain is exactly the normal forms on these generators, so the
        rules hold iff evaluation is a homomorphism.  Both sides are kernel
        states (the inverse of each image after the first comes from a memo
        on its value); only a failing rule's sides are turned back into matrices.

        With a `base` whose verify() passes, the rules among the base's
        generators are inherited, not checked again: their left sides are
        formed from the same image objects, and their right-hand codes lie
        in the base's domain, where `images_at` skips every other generator
        and so multiplies the same states in the same order.  A base that
        fails passes nothing on, and every rule is checked.
        """
        if self._verdict is None:
            self._verdict = (self._first_broken_rule(),)
        return self._verdict[0]

    def _first_broken_rule(self):
        group, rows, gens, P = self.group, self.group.rows, self.subgroup.gen_codes, self.powers()
        names = list(self.images)
        base = self._base
        known = base.images if base is not None and base.verify() is None else {}
        cubes = [("cube rule for %s" % names[k], state_mul(P[k][2], P[k][1]), rows[rows[g][g]][g])
                 for k, g in enumerate(gens) if names[k] not in known]
        return _first_mismatch(self, cubes) or _first_mismatch(self, [
            ("conjugation rule phi(%s)%s" % (names[j], names[i]),
             state_mul(state_mul(P[j][1], P[i][1]), _inverse(P[j][1])),
             group.conjugate(gens[i], gens[j])) for j in range(len(gens)) for i in range(j)
            if names[i] not in known or names[j] not in known])

    def __repr__(self):
        return "SubRep(%s, dim=%d, |domain|=%d)" % (self.name, self.dim,
                                                    self.subgroup.order)


def _last_letter(code, gens):
    """(prefix, k, e) with code = prefix gens[k]^e, gens[k] the last letter
    of code's normal form on the generators `gens`; (0, 0, 0) for 1."""
    for k in reversed(range(len(gens))):
        e = code // gens[k] % 3
        if e:
            return code - e * gens[k], k, e
    return 0, 0, 0


@lru_cache(maxsize=256)
def _check_domain(subgroup):
    """Raise unless the domain's generators are schema generators in
    normal-form order and its elements are exactly the normal forms on them."""
    gens, normal_forms = subgroup.gen_codes, {0}
    if list(gens) != [g for g in subgroup.group.gen_codes if g in gens]:
        raise MackeyError("domain generators must be schema generators in normal-form order")
    for g in gens:
        normal_forms = {c + e * g for c in normal_forms for e in range(3)}
    if normal_forms != subgroup.codes:
        raise MackeyError("the domain is not the normal forms on its generators")


@lru_cache(maxsize=256)
def _inverse(state):
    """The state of the inverse of a state's matrix, computed once per
    distinct value: one image recurs in many representations (inflations,
    inductions, extensions)."""
    return CycMatrix.from_state(state).inverse().state


def _first_mismatch(rep, rules):
    """The first of the rules (description, lhs state, code) whose lhs is not
    rep's image at code, as (description, lhs, rhs) with CycMatrix sides, or None."""
    for (desc, lhs, _), rhs in zip(rules, rep.images_at([code for _, _, code in rules])):
        if lhs != rhs:
            return desc, CycMatrix.from_state(lhs), CycMatrix.from_state(rhs)
    return None


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
    rows = group.rows
    sect = [group.code(s) for s in section]
    if sect[0] != 0:
        raise MackeyError("section must start at the identity")

    coset_of = {rows[h][s]: i for i, s in enumerate(sect) for h in H.codes}  # h s_i -> i
    if len(coset_of) != len(sect) * H.order:
        raise MackeyError("section is not a transversal: cosets overlap")
    gens = [g for g in group.gen_codes if g in coset_of]
    placed, codes = [], []  # (y, j, i) and u = s_j y s_i^-1, with s_j y = u s_i
    for y in gens:
        for j, s in enumerate(sect):
            i = coset_of.get(rows[s][y])
            if i is None:
                raise MackeyError("section does not close under the target")
            placed.append((y, j, i))
            codes.append(rows[rows[s][y]][group.inv[sect[i]]])
    k, d = len(sect), rho.dim
    blocks = {y: [[ZERO] * (k * d) for _ in range(k * d)] for y in gens}
    for (y, j, i), U in zip(placed, map(CycMatrix.from_state, rho.images_at(codes))):
        for r, row in enumerate(U.rows):  # block (j, i) at rows j*d.. and columns i*d..
            blocks[y][j * d + r][i * d:(i + 1) * d] = row
    images = [CycMatrix(blocks[y]) for y in gens]
    out = SubRep(Subgroup(group, frozenset(coset_of), tuple(gens)), images, name)
    bad = out.verify()
    if bad is not None:
        raise MackeyError("induced representation is not a homomorphism: %s" % bad[0])
    return out
