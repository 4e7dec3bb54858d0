"""Irreducible representations of the order-243 representation group by spin
type, their exact characters, and the projective restriction to the base
group with its 2-cocycle.

Spin type (eps, mu) records the scalars w^eps, w^mu by which a representation
moves the two central multiplier generators.  The nine types split into the
non-spin type (built on the base group via induced representations), two
partially-spin families (built on the two intermediate coverings via the
intertwiner-extension method for a semidirect product with non-abelian
base), and four purely-spin families (built on the representation group
itself), then inflated to the representation group along the covering maps.
Each is a `Representation`: a `mackey.SubRep` of a whole group plus its spin type.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclo import CycError, ZERO, ONE, OMEGA, OMEGA2, root_of_unity, root_exponent
from .cyclo9 import (CONJ, MUL_W, cyc9_cbrt, from_lattice, lattice_einsum, lattice_equal,
                     lattice_matmul, scalar_str, to_lattice)
from .linalg import CycMatrix, intertwiner_space
from .groups import CheckReport, Subgroup, get_group, covering_data
from .mackey import DualCharacter, SubRep, dual_group, orbit_decomposition, induce


class RepError(ValueError):
    """A representation failed a structural requirement."""


class SpinType(NamedTuple):
    eps: int
    mu: int

    @property
    def kind(self):
        if self.eps == 0 and self.mu == 0:
            return "non-spin"
        if self.eps != 0 and self.mu != 0:
            return "purely-spin"
        return "partially-spin"

    def __str__(self):
        return "(%d,%d)" % (self.eps, self.mu)


ALL_SPIN_TYPES = tuple(SpinType(e, m) for e in range(3) for m in range(3))


def _sign_exp(e):
    # spin exponents are customarily written 1, -1; exponent 2 means -1
    return 1 if e % 3 == 1 else -1


def trace_anchor(e):
    """Canonical intertwiner trace -sgn(e)*(w - w^2) from the alpha formula."""
    return (OMEGA - OMEGA2) * (-_sign_exp(e))


def intertwiner_alpha(e):
    """alpha = -sgn(e) (w - w^2)/3, the normalizing scalar of the solved
    partially-spin intertwiner (equals -i sgn(e)/sqrt(3))."""
    return trace_anchor(e) / 3


class Representation(SubRep):
    """A SubRep of a whole schema group, with its spin type.

    `images` maps every schema generator's name to its CycMatrix; the spin
    type is read off the multiplier images unless given.
    """

    def __init__(self, group, images, name, spin_type=None):
        whole = Subgroup(group, frozenset(range(group.order)), group.gen_codes)
        super().__init__(whole, [images[gen] for gen in group.schema.gens], name)
        if spin_type is None:
            spin_type = self._infer_spin_type()
        self.spin_type = spin_type

    def _infer_spin_type(self):
        vals = {"z12": 0, "z23": 0}
        for gen in self.group.schema.multiplier:
            scal = self.images[gen].as_scalar()
            e = None if scal is None else root_exponent(scal)
            if e is None:
                raise RepError("%s: multiplier %s is not a root-of-unity scalar"
                               % (self.name, gen))
            vals[gen] = e
        return SpinType(vals["z12"], vals["z23"])

    def character(self):
        reps = [rep for rep, _ in self.group.conjugacy_classes()]
        return ClassFunction(self.group, self.character_values(reps), name=self.name)

    def __repr__(self):
        return "Representation(%s, dim=%d, spin=%s)" % (self.name, self.dim, self.spin_type)


def verify_rep(rep):
    """Check a representation's presentation rules (`SubRep.verify`) and
    that every multiplier generator in its domain maps to a cube-root
    scalar.  The report holds at most one failure, with both sides as
    witnesses; entries that leave the int64 lattice are reported as the
    failure, not raised.
    """
    report = CheckReport(rep.name or "subrep")
    try:
        bad = rep.verify()
    except CycError as exc:
        report.fail("entries leave the exact lattice: %s" % exc)
        return report
    for gen in rep.group.schema.multiplier:
        if bad is None and gen in rep.images:
            scal = rep.images[gen].as_scalar()
            if scal is None or root_exponent(scal) is None:
                bad = ("multiplier %s not a cube-root scalar" % gen,
                       rep.images[gen], CycMatrix.identity(rep.dim))
    if bad is not None:
        desc, lhs, rhs = bad
        report.fail("%s: lhs=%s rhs=%s" % (desc, lhs.str_rows(), rhs.str_rows()))
    return report


@dataclass
class ClassFunction:
    """Exact class function, stored by class representative code."""

    group: object
    values: dict
    name: str = ""

    def at(self, code):
        cls = self.group.class_index_of()[int(code)]
        rep = self.group.conjugacy_classes()[cls][0]
        return self.values[rep]

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group.schema.key == other.group.schema.key
                and self.values == other.values)

    def key(self):
        return tuple(scalar_str(self.values[rep])
                     for rep, _ in self.group.conjugacy_classes())


def inner_product(c1, c2):
    """(1/|G|) sum_g c1(g) conj(c2(g)), exactly, class by class."""
    if c1.group.schema.key != c2.group.schema.key:
        raise RepError("class functions live on different schemas")
    total = ZERO
    for rep, members in c1.group.conjugacy_classes():
        total = total + c1.values[rep] * c2.values[rep].conj() * len(members)
    return total / c1.group.order


# -- the intertwiner step ---------------------------------------------------

def intertwiner_solutions(rho, w):
    """The three normalized intertwiners J with rho(w u w^-1) J = J rho(u)
    and J^3 = I, for an irreducible rho whose twist by w is equivalent to it.

    Raises MackeyError when w does not normalize rho's domain (`eval`
    refuses a twisted generator outside it), and RepError when the solution
    space is not 1-dimensional (a Schur violation), when no scaling in
    Q(zeta9) normalizes the cube, or when a normalized cube is not I.
    """
    group = rho.group
    w = group.element(w).code
    pairs = []
    for u in rho.subgroup.gen_codes:
        pairs.append((rho.eval(group.conjugate(u, w)), rho.eval(u)))
    basis = intertwiner_space(pairs, rho.dim)
    if len(basis) != 1:
        raise RepError("intertwiner space has dimension %d, expected 1" % len(basis))
    X = basis[0]
    c = (X ** 3).as_scalar()
    if c is None or c.is_zero():
        raise RepError("intertwiner cube is not a nonzero scalar")
    # the normalizing scalar may need ninth roots of unity; cyc9_cbrt
    # returns a Q(w) root whenever one exists
    t = cyc9_cbrt(ONE / c)
    if t is None:
        raise RepError("no cube root in Q(zeta9) normalizes the intertwiner")
    out = []
    for k in range(3):
        M = X.scale(t * root_of_unity(k))
        if M ** 3 != CycMatrix.identity(rho.dim):
            raise RepError("normalized intertwiner cube is not the identity")
        out.append(M)
    return out


def solve_intertwiner(rho, w, preferred_trace=None):
    """One canonical normalized intertwiner.

    Among the three cube-root scalings the one matching `preferred_trace`
    is returned when that pins a unique solution (the partially-spin anchor
    trace 3*alpha); otherwise the lexicographically least serialization.
    The returned J is re-verified against the twisted equations for w, w^2
    and w^3, each as one batch of lattice products over rho's generators.
    """
    sols = intertwiner_solutions(rho, w)
    chosen = None
    if preferred_trace is not None:
        hits = [M for M in sols if M.trace() == preferred_trace]
        if len(hits) == 1:
            chosen = hits[0]
    if chosen is None:
        eye = CycMatrix.identity(rho.dim)
        if eye in sols:
            chosen = eye  # untwisted extension, e.g. under a trivial action
        else:
            chosen = min(sols, key=lambda M: tuple(scalar_str(x)
                                                   for row in M.rows for x in row))

    group = rho.group
    wc = group.element(w).code
    gens = list(rho.subgroup.gen_codes)
    G, G_den = rho.images_at(gens)
    J, J_den = to_lattice(chosen.rows)
    Ji, Ji_den = J, J_den
    wi = wc
    for i in (1, 2, 3):
        if i > 1:
            Ji, Ji_den = lattice_matmul(Ji, Ji_den, J, J_den)
            wi = group.mult(wi, wc)
        twisted, t_den = rho.images_at([group.conjugate(u, wi) for u in gens])
        lhs = lattice_matmul(twisted, t_den, Ji, Ji_den)
        rhs = lattice_matmul(Ji, Ji_den, G, G_den)
        if not lattice_equal(*lhs, *rhs).all():
            raise RepError("intertwiner power %d fails its equation" % i)
    return chosen


def extend_and_tensor(rho, jw, r, w_gen, name):
    """Extend rho across the acting generator and twist by w^r.

    rho must cover every schema generator except `w_gen`, which maps to
    w^r * jw.  The result is verified against the full schema.
    """
    images = dict(rho.images)
    images[w_gen] = jw.scale(root_of_unity(r))
    missing = [gen for gen in rho.group.schema.gens if gen not in images]
    if missing:
        raise RepError("generator %s is covered by neither rho nor w" % missing[0])
    rep = Representation(rho.group, images, name)
    report = verify_rep(rep)
    if not report.passed:
        raise RepError("extension is not a representation: %s" % report.detail)
    return rep


# -- catalog construction ----------------------------------------------------

@lru_cache(maxsize=None)
def g27_nonspin_catalog():
    """The 11 irreducibles of the base group: 9 one-dimensional characters
    with trivial central value, and the two induced 3-dimensional ones."""
    g27 = get_group("G27")
    reps = []
    for m in range(3):
        for q in range(3):
            images = {"x1": CycMatrix([[root_of_unity(m)]]),
                      "x2": CycMatrix([[ONE]]),
                      "x3": CycMatrix([[root_of_unity(q)]])}
            reps.append(Representation(g27, images, "Pi(%d,0,%d)" % (m, q)))
    U = Subgroup.generated(g27, ["x1", "x2"])
    duals = dual_group(U, ["x1", "x2"])
    w = g27.generator("x3")
    section = [g27.identity(), w, w * w]
    for n in (1, 2):
        chi = next(c for c in duals if c.label == (0, n))
        ind = induce(chi.as_subrep(), section, name="Pi(0,%d)" % n)
        reps.append(Representation(g27, ind.images, ind.name))
    return reps


def induced_base_rep(group, u0_gens, orbit_label, section_gen, name):
    """Orbit representative character of the abelian base, induced one
    step up along the cyclic section (1, s, s^2)."""
    U0 = Subgroup.generated(group, u0_gens)
    duals = dual_group(U0, u0_gens)
    dec = orbit_decomposition(duals, [section_gen])
    orbit = dec.by_representative().get(orbit_label)
    if orbit is None:
        raise RepError("no orbit with representative %s" % (orbit_label,))
    if orbit.stabilizer.order != 1:
        raise RepError("expected a free orbit for %s" % (orbit_label,))
    s = group.generator(section_gen)
    return induce(orbit.representative.as_subrep(), [group.identity(), s, s * s],
                  name=name)


@lru_cache(maxsize=None)
def g81_partial_catalog(eps):
    """The three irreducibles of spin type (eps, 0), eps != 0, on the first
    covering group, via intertwiner extension of the induced P(eps, 0)."""
    if eps % 3 == 0:
        raise RepError("partially-spin type needs eps != 0")
    eps %= 3
    g81 = get_group("G81")
    P = induced_base_rep(g81, ["z12", "xi1"], (eps, 0), "xi2", "P(%d,0)" % eps)
    jw = solve_intertwiner(P, "xi3", preferred_trace=trace_anchor(eps))
    reps = [extend_and_tensor(P, jw, r, "xi3", "Pi(%d,0;%d)" % (eps, r))
            for r in range(3)]
    return P, jw, reps


@lru_cache(maxsize=None)
def gbar_partial_catalog(mu):
    """The three irreducibles of spin type (0, mu), mu != 0, built on the
    other stairway's covering group (z23 adjoined first)."""
    if mu % 3 == 0:
        raise RepError("partially-spin type needs mu != 0")
    mu %= 3
    gbar = get_group("GBAR")
    P = induced_base_rep(gbar, ["z23", "xb2"], (mu, 0), "xb3", "P(0,%d)" % mu)
    jw = solve_intertwiner(P, "xb1", preferred_trace=trace_anchor(mu))
    reps = [extend_and_tensor(P, jw, t, "xb1", "Pi(0,%d;%d)" % (mu, t))
            for t in range(3)]
    return P, jw, reps


@lru_cache(maxsize=None)
def r243_pure_catalog(eps, mu):
    """The three irreducibles of purely-spin type (eps, mu), built on the
    representation group itself."""
    if eps % 3 == 0 or mu % 3 == 0:
        raise RepError("purely-spin type needs eps, mu != 0")
    eps %= 3
    mu %= 3
    r243 = get_group("R243")
    P = induced_base_rep(r243, ["z12", "z23", "n1"], (eps, mu, 0), "n2",
                         "P(%d,%d)" % (eps, mu))
    jw = solve_intertwiner(P, "n3")
    reps = [extend_and_tensor(P, jw, s, "n3", "Pi(%d,%d;%d)" % (eps, mu, s))
            for s in range(3)]
    return P, jw, reps


def inflate(rep, big, gen_map):
    """Promote a quotient-group representation along a covering map.

    gen_map sends big's generator names to source names; missing names (the
    covering kernel) map to the identity matrix.
    """
    eye = CycMatrix.identity(rep.dim)
    images = {gen: rep.images[gen_map[gen]] if gen in gen_map else eye
              for gen in big.schema.gens}
    return Representation(big, images, rep.name)


def irreps_by_spin_type(spin):
    """Complete inequivalent list for one spin type, as representations of
    the representation group (quotient constructions inflated)."""
    spin = SpinType(spin[0] % 3, spin[1] % 3)
    r243 = get_group("R243")
    if spin.kind == "non-spin":
        gen_map, _ = covering_data("R243", "G27")
        reps = [inflate(r, r243, gen_map) for r in g27_nonspin_catalog()]
    elif spin.eps != 0 and spin.mu == 0:
        gen_map, _ = covering_data("R243", "G81")
        reps = [inflate(r, r243, gen_map) for r in g81_partial_catalog(spin.eps)[2]]
    elif spin.eps == 0:
        gen_map, _ = covering_data("R243", "GBAR")
        reps = [inflate(r, r243, gen_map) for r in gbar_partial_catalog(spin.mu)[2]]
    else:
        reps = r243_pure_catalog(spin.eps, spin.mu)[2]
    for rep in reps:
        if rep.spin_type != spin:
            raise RepError("%s landed in spin type %s, wanted %s"
                           % (rep.name, rep.spin_type, spin))
    return sorted(reps, key=lambda r: r.name)


@lru_cache(maxsize=None)
def full_catalog():
    """All 35 irreducibles of the representation group, in table row order."""
    out = []
    for spin in ALL_SPIN_TYPES:
        out.extend(irreps_by_spin_type(spin))
    return tuple(out)


@dataclass
class Census:
    by_type: dict      # SpinType -> sorted dimension list
    total: int
    dim_square_sum: int

    def per_type_square_sums(self):
        return {st: sum(d * d for d in dims) for st, dims in self.by_type.items()}


def catalog_census(catalog):
    by_type = {}
    for rep in catalog:
        by_type.setdefault(rep.spin_type, []).append(rep.dim)
    for st in by_type:
        by_type[st].sort()
    return Census(by_type, len(catalog), sum(r.dim * r.dim for r in catalog))


# -- the spin character table -------------------------------------------------

@dataclass
class CharTable:
    group: object
    classes: list   # (representative code, class size)
    rows: list      # (name, SpinType, dim, list of Cyc values)

    def _lattice(self):
        """The row values as a (rows, classes, 6) lattice array, its complex
        conjugate, and their common denominator."""
        X, den = to_lattice([values for _, _, _, values in self.rows])
        return X, lattice_einsum("icp,pq->icq", X, CONJ), den

    def gram_matrix(self):
        """Exact Gram matrix of the rows under the character inner product."""
        X, Xc, den = self._lattice()
        sizes = np.array([s for _, s in self.classes], dtype=np.int64)
        weighted = lattice_einsum("icp,c->icp", X, sizes)
        gram, gram_den = lattice_matmul(weighted, den, np.swapaxes(Xc, 0, 1), den)
        scale = gram_den * self.group.order
        return [[from_lattice(v, scale) for v in row] for row in gram]

    def column_orthogonality_violation(self):
        """First (g, h) class pair violating sum_chi chi(g) conj(chi(h)) =
        |centralizer(g)| [g ~ h], or None."""
        X, Xc, den = self._lattice()
        sums, sums_den = lattice_matmul(np.swapaxes(X, 0, 1), den, Xc, den)
        want = np.zeros_like(sums)
        for c, (_, size) in enumerate(self.classes):
            want[c, c, 0] = self.group.order // size
        bad = np.argwhere(~lattice_equal(sums, sums_den, want, 1).all(axis=2))
        if len(bad):
            i, j = (int(x) for x in bad[0])
            return (i, j, from_lattice(sums[i, j], sums_den))
        return None


@lru_cache(maxsize=None)
def spin_character_table():
    r243 = get_group("R243")
    classes = [(rep, len(members)) for rep, members in r243.conjugacy_classes()]
    rows = []
    for rep in full_catalog():
        chi = rep.character()
        values = [chi.values[c] for c, _ in classes]
        rows.append((rep.name, rep.spin_type, rep.dim, values))
    return CharTable(r243, classes, rows)


# -- projective restriction ---------------------------------------------------

@dataclass
class CocycleTable:
    """Factor set on the base group, stored as omega-exponents mod 3."""

    base: object
    exps: np.ndarray  # (27, 27) int8

    def value(self, g, h):
        return root_of_unity(int(self.exps[g, h]))

    def is_trivial(self):
        return not self.exps.any()

    def identity_violation(self):
        """First triple violating a(g,h) a(gh,k) = a(g,hk) a(h,k), or None."""
        t = self.base.table
        e = self.exps.astype(np.int16)
        lhs = (e[:, :, None] + e[t, :]) % 3
        rhs = (e[:, t] + e[None, :, :]) % 3
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            return tuple(int(x) for x in bad[0])
        return None


def canonical_section():
    """The exponent-preserving lift of the base group into the
    representation group (zero multiplier exponents)."""
    g27 = get_group("G27")
    r243 = get_group("R243")
    return {g: r243.code_of((0, 0) + g27.exps_of(g)) for g in range(g27.order)}


def table_cocycle():
    """The factor set of the canonical section from the R243 Cayley table
    alone, sharing no code with the matrix path of restrict_to_projective.

    s(g) s(h) s(gh)^-1 = z12^a z23^b for every pair; returns the (27, 27)
    exponent arrays (a, b).  An irreducible of spin type (eps, mu) then
    restricts with cocycle exponents (eps a + mu b) mod 3.
    """
    g27 = get_group("G27")
    r243 = get_group("R243")
    section = canonical_section()
    s = np.array([section[g] for g in range(g27.order)])
    table = r243.table
    c = table[table[s[:, None], s[None, :]], r243.inv[s[g27.table]]]
    a = np.full(r243.order, -1)
    b = np.full(r243.order, -1)
    for x in range(3):
        for y in range(3):
            code = r243.code_of((x, y, 0, 0, 0))
            a[code], b[code] = x, y
    if (a[c] < 0).any():
        raise RepError("section cocycle leaves the multiplier subgroup")
    return a[c], b[c]


def restrict_to_projective(rep, section=None):
    """Restrict a representation of the representation group along a section
    of the covering onto the base group.

    Returns (T, cocycle) with T the 27-entry matrix table T(g) = rep(s(g))
    and the exact factor set alpha(g, h) = T(g) T(h) T(gh)^-1, checked to be
    a scalar cube root of unity at every pair.

    The check runs on the exact lattice of `cyclo9`: the 27 section images
    come from `Representation.images_at` as one integer array over a common
    denominator, the products T(g) T(h) are formed one row g at a time with
    `lattice_matmul`, and each product is compared coefficient by
    coefficient with w^k T(gh) for k = 0, 1, 2.  The exponent is the unique
    matching k; a pair with no match, or with three (T(gh) = 0), raises
    RepError, as does data too large for the int64 lattice.
    """
    g27 = get_group("G27")
    r243 = rep.group
    if r243.schema.name != "R243":
        raise RepError("projective restriction expects a representation of R243")
    if section is None:
        section = canonical_section()
    # the section must invert the covering map
    for g in range(g27.order):
        exps = r243.exps_of(section[g])
        if tuple(exps[2:]) != g27.exps_of(g):
            raise RepError("section does not lift the base group elements")
    if r243.exps_of(section[0]) != (0, 0, 0, 0, 0):
        raise RepError("section must send the identity to the identity")

    n = g27.order
    matches = np.empty((3, n, n), dtype=bool)  # [k, g, h]: T(g) T(h) = w^k T(gh)
    try:
        L, den = rep.images_at([section[g] for g in range(n)])
        wL = lattice_einsum("gijp,pq->gijq", L, MUL_W)
        targets = np.stack([L, wL, lattice_einsum("gijp,pq->gijq", wL, MUL_W)])
        for g in range(n):
            prods, prods_den = lattice_matmul(L[g], den, L, den)
            same = lattice_equal(prods, prods_den, targets[:, g27.table[g]], den)
            matches[:, g] = same.all(axis=(2, 3, 4))
    except CycError as exc:
        raise RepError("restriction of %s leaves the exact lattice: %s" % (rep.name, exc))
    bad = np.argwhere(matches.sum(axis=0) != 1)
    if len(bad):
        g, h = bad[0]
        raise RepError("restriction of %s is not projective at (%d, %d)"
                       % (rep.name, g, h))
    T = {g: CycMatrix.from_lattice(L[g], den) for g in range(n)}
    return T, CocycleTable(g27, matches.argmax(axis=0).astype(np.int8))


# -- alternative constructions used as cross-checks ---------------------------

def mu_route_direct(mu):
    """Spin type (0, mu) built directly on the representation group: the
    one-dimensional spin-(0, mu) characters of the non-abelian subgroup
    generated by the multiplier and the first two lifted generators, induced
    along the last generator's section.  Must match the stairway build up to
    relabeling; used by the test suite."""
    if mu % 3 == 0:
        raise RepError("needs mu != 0")
    mu %= 3
    r243 = get_group("R243")
    U = Subgroup.generated(r243, ["z12", "z23", "n1", "n2"])
    # linear characters with z12 -> 1, z23 -> w^mu; they factor through
    # U/<z12>, which is elementary abelian, and are labeled by their
    # exponents at (n1, n2)
    gen_codes = [r243.generator(g).code for g in ("n1", "n2")]
    chis = []
    for a in range(3):
        for b in range(3):
            exps = {}
            for code in U.codes:
                _, e1, e2, e3, _ = r243.exps_of(code)
                exps[code] = (mu * e1 + a * e2 + b * e3) % 3
            chi = DualCharacter(U, gen_codes, (a, b), exps)
            sub = chi.as_subrep()  # a homomorphism that must reproduce every value
            if sub.verify() is not None or sub.character_values() != {
                    code: chi.value(code) for code in U.codes}:
                raise RepError("direct-route character is not multiplicative")
            chis.append(chi)
    n3 = r243.generator("n3")
    out = []
    for orbit in orbit_decomposition(chis, ["n3"]).orbits:
        label = orbit.representative.label
        ind = induce(orbit.representative.as_subrep(), [r243.identity(), n3, n3 * n3],
                     name="Ind%s" % (label,))
        out.append(Representation(r243, ind.images, ind.name))
    return out
