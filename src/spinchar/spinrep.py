"""Irreducible representations of the order-243 representation group by spin
type, their exact characters, and the projective restriction to the base
group with its 2-cocycle.

Spin type (eps, mu) records the scalars w^eps, w^mu by which a representation
moves the two central multiplier generators.  The non-spin type is built on
the base group by induction; the two partially-spin families on the two
intermediate coverings and the four purely-spin ones on the representation
group itself are one recipe, `_stairway`: a base character induced one step
(Mackey), then extended across the last generator by an intertwiner.
`native_irreps` alone says which group carries a spin type, and
`irreps_by_spin_type` inflates along the covering maps.  Each is a
`Representation`: a `mackey.SubRep` of a whole group plus its spin type.
A character is one tuple of values at the representatives of
`Group.conjugacy_classes()`, in that order, the form of a `CharTable` row.
"""

from functools import lru_cache
import numbers
from operator import mul
from typing import NamedTuple

from .cyclo import ONE, OMEGA, OMEGA2, ZERO, root_of_unity, root_exponent
from .cyclo9 import cyc9_cbrt, pack_table, state_mul, state_times_w
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


def _spin_type(spin):
    """SpinType(eps % 3, mu % 3) of a pair of integers; RepError for anything else."""
    if (not isinstance(spin, (tuple, list)) or len(spin) != 2
            or not all(isinstance(e, numbers.Integral) for e in spin)):
        raise RepError("a spin type is a pair of integers, not %r" % (spin,))
    return SpinType(int(spin[0]) % 3, int(spin[1]) % 3)


def intertwiner_alpha(e):
    """alpha = -sgn(e) (w - w^2)/3, the normalizing scalar of the solved
    partially-spin intertwiner (equals -i sgn(e)/sqrt(3)), sgn(e) = 1 for
    e = 1 mod 3, else -1; its trace, 3 alpha, anchors the solve."""
    return (OMEGA2 - OMEGA) / 3 if e % 3 == 1 else (OMEGA - OMEGA2) / 3


@lru_cache(maxsize=None)
def _whole(group):
    """The whole group as one Subgroup, shared by its representations."""
    return Subgroup(group, frozenset(range(group.order)), group.gen_codes)


class Representation(SubRep):
    """A SubRep of a whole schema group, with its spin type.

    `images` maps every schema generator's name to its CycMatrix; the spin
    type is read off the multiplier images.  `base` is passed to `SubRep`,
    whose `verify` then inherits the base's rules.
    """

    def __init__(self, group, images, name, base=None):
        missing = [gen for gen in group.schema.gens if gen not in images]
        if missing:
            raise RepError("%s: generator %s has no image" % (name, missing[0]))
        super().__init__(_whole(group), [images[gen] for gen in group.schema.gens], name, base)
        self.spin_type = self._infer_spin_type()

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
        """The values at the class representatives, in class order."""
        reps = [rep for rep, _ in self.group.conjugacy_classes()]
        return tuple(map(self.character_values(reps).__getitem__, reps))

    def __repr__(self):
        return "Representation(%s, dim=%d, spin=%s)" % (self.name, self.dim, self.spin_type)


def verify_rep(rep):
    """Check a representation's presentation rules (`SubRep.verify`) and
    that every multiplier generator in its domain maps to a cube-root
    scalar.  The report holds at most one failure, with both sides as
    witnesses.
    """
    report = CheckReport(rep.name or "subrep")
    bad = rep.verify()
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


# -- the intertwiner step ---------------------------------------------------

def intertwiner_solutions(rho, w):
    """The three normalized intertwiners J with rho(w u w^-1) J = J rho(u)
    and J^3 = I, for an irreducible rho whose twist by w is equivalent to it.

    Raises MackeyError when w does not normalize rho's domain (`eval`
    refuses a twisted generator outside it), and RepError when the solution
    space is not 1-dimensional (a Schur violation), when no scaling in
    Q(zeta9) normalizes the cube, or when a normalized cube is not I: with
    X^3 = cI and w^3 = 1, each (t w^k X)^3 is t^3 c I, one scalar test.
    """
    group = rho.group
    w = group.code(w)
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
    if t ** 3 * c != 1:
        raise RepError("normalized intertwiner cube is not the identity")
    return [X.scale(t * root_of_unity(k)) for k in range(3)]


def solve_intertwiner(rho, w, preferred_trace=None):
    """One canonical normalized intertwiner.

    Among the three cube-root scalings the one matching `preferred_trace`
    is returned when that pins a unique solution (the partially-spin anchor
    trace 3*alpha); otherwise the lexicographically least serialization.
    `extend_and_tensor` checks the extension by J against the presentation,
    whose rules joining w to rho's generators decide that J intertwines.
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
            chosen = min(sols, key=CycMatrix.str_rows)
    return chosen


def extend_and_tensor(rho, jw, r, w_gen, name):
    """Extend rho across the acting generator and twist by w^r.

    rho must cover every schema generator except `w_gen`, which maps to
    w^r * jw.  The result is verified against the full schema, in which it
    inherits the rules among rho's generators when rho.verify() passes
    (`induce` has already checked them, on the same image objects and the
    same right-hand codes), so only the rules that involve `w_gen` are
    checked.  A rho that fails passes nothing on, so every rule is checked,
    its broken one among them.
    """
    images = dict(rho.images)
    images[w_gen] = jw.scale(root_of_unity(r))
    rep = Representation(rho.group, images, name, base=rho)
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
    for n in (1, 2):
        ind = induced_base_rep(g27, ["x1", "x2"], (0, n), "x3", "Pi(0,%d)" % n)
        reps.append(Representation(g27, ind.images, ind.name))
    return reps


@lru_cache(maxsize=None)
def _base_orbits(group, u0_gens, section_gen):
    """The base dual's orbits under the section generator, by representative."""
    duals = dual_group(Subgroup.generated(group, u0_gens))
    return {orbit.representative.label: orbit
            for orbit in orbit_decomposition(duals, [section_gen])}


def induced_base_rep(group, u0_gens, orbit_label, section_gen, name):
    """Orbit representative character of the abelian base, induced one
    step up along the cyclic section (1, s, s^2)."""
    orbit = _base_orbits(group, tuple(u0_gens), section_gen).get(orbit_label)
    if orbit is None:
        raise RepError("no orbit with representative %s" % (orbit_label,))
    if orbit.stabilizer.order != 1:
        raise RepError("expected a free orbit for %s" % (orbit_label,))
    s = group.code(section_gen)
    return induce(orbit.representative.as_subrep(), [0, s, group.mult(s, s)], name=name)


def _stairway(spin, group, base_gens, section_gen, ext_gen, anchor=None):
    """One climb of the stairway for spin type `spin` on the named group:
    the base character labelled by the spin's nonzero exponents, then 0, is
    induced along `section_gen` (Mackey) to P, which is extended across
    `ext_gen` by its intertwiner J (of trace `anchor` when that pins it) and
    twisted by w^r.  Returns (P, J, [Pi(e,m;0), Pi(e,m;1), Pi(e,m;2)])."""
    spin = SpinType(*spin)
    label = tuple(e for e in spin if e) + (0,)
    P = induced_base_rep(get_group(group), base_gens, label, section_gen, "P%s" % (spin,))
    jw = solve_intertwiner(P, ext_gen, preferred_trace=anchor)
    reps = [extend_and_tensor(P, jw, r, ext_gen, "Pi(%d,%d;%d)" % (spin + (r,)))
            for r in range(3)]
    return P, jw, reps


@lru_cache(maxsize=None)
def g81_partial_catalog(eps):
    """The three irreducibles of spin type (eps, 0), eps != 0, on the first
    covering group, via intertwiner extension of the induced P(eps, 0)."""
    if eps % 3 == 0:
        raise RepError("partially-spin type needs eps != 0")
    return _stairway((eps % 3, 0), "G81", ["z12", "xi1"], "xi2", "xi3", 3 * intertwiner_alpha(eps))


@lru_cache(maxsize=None)
def gbar_partial_catalog(mu):
    """The three irreducibles of spin type (0, mu), mu != 0, built on the
    other stairway's covering group (z23 adjoined first)."""
    if mu % 3 == 0:
        raise RepError("partially-spin type needs mu != 0")
    return _stairway((0, mu % 3), "GBAR", ["z23", "xb2"], "xb3", "xb1", 3 * intertwiner_alpha(mu))


@lru_cache(maxsize=None)
def r243_pure_catalog(eps, mu):
    """The three irreducibles of purely-spin type (eps, mu), built on the
    representation group itself."""
    if eps % 3 == 0 or mu % 3 == 0:
        raise RepError("purely-spin type needs eps, mu != 0")
    return _stairway((eps % 3, mu % 3), "R243", ["z12", "z23", "n1"], "n2", "n3")


def inflate(rep, big, gen_map):
    """Promote a quotient-group representation along a covering map.

    gen_map sends big's generator names to source names; missing names (the
    covering kernel) map to the identity matrix.
    """
    eye = CycMatrix.identity(rep.dim)
    images = {gen: rep.images[gen_map[gen]] if gen in gen_map else eye
              for gen in big.schema.gens}
    return Representation(big, images, rep.name)


def native_irreps(spin):
    """The name of the group that carries spin type `spin` natively, and a
    function that builds its irreducibles of that type: G27 for non-spin,
    the covering adjoining the one nonzero multiplier for partially-spin,
    R243 for purely-spin.  The name comes before any building, so a caller
    can refuse a group at no cost.  RepError unless `spin` is a pair of
    integers."""
    spin = _spin_type(spin)
    if spin.kind == "non-spin":
        return "G27", g27_nonspin_catalog
    if spin.kind == "purely-spin":
        return "R243", lambda: r243_pure_catalog(*spin)[2]
    if spin.mu == 0:
        return "G81", lambda: g81_partial_catalog(spin.eps)[2]
    return "GBAR", lambda: gbar_partial_catalog(spin.mu)[2]


def irreps_by_spin_type(spin):
    """Complete inequivalent list for one spin type, as representations of
    the representation group (quotient constructions inflated)."""
    spin = _spin_type(spin)
    group, build = native_irreps(spin)
    reps = build()
    if group != "R243":
        gen_map, _ = covering_data("R243", group)
        reps = [inflate(r, get_group("R243"), gen_map) for r in reps]
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


# -- the spin character table -------------------------------------------------

class CharTable(NamedTuple):
    group: object
    classes: list   # (representative code, class size)
    rows: list      # (name, SpinType, dim, list of Cyc values)

    def _packed(self):
        """`cyclo9.pack_table` of the row values, bounded for the weighted
        row sums of the Gram matrix and the unweighted column sums, each
        compared with at most the group order."""
        weight = max(sum(size for _, size in self.classes), len(self.rows))
        return pack_table([values for _, _, _, values in self.rows], weight, self.group.order)

    def gram_matrix(self):
        """Exact Gram matrix of the rows under the character inner product;
        an entry is decoded only when it is neither 0 nor 1."""
        packing, rows, conj = self._packed()
        order = self.group.order
        one = order * packing.den ** 2
        gram = []
        for row in rows:
            weighted = [size * v for (_, size), v in zip(self.classes, row)]
            line = []
            for conj_row in conj:
                r = sum(map(mul, weighted, conj_row)) % packing.modulus
                line.append(ZERO if r == 0 else ONE if r == one else packing.unpack(r, order))
            gram.append(line)
        return gram

    def column_orthogonality_violation(self):
        """First (g, h) class pair violating sum_chi chi(g) conj(chi(h)) =
        |centralizer(g)| [g ~ h], or None."""
        packing, rows, conj = self._packed()
        den2, conj_columns = packing.den ** 2, list(zip(*conj))
        for g, column in enumerate(zip(*rows)):
            centralizer = self.group.order // self.classes[g][1] * den2
            for h, conj_column in enumerate(conj_columns):
                s = sum(map(mul, column, conj_column))
                if s % packing.modulus != (centralizer if g == h else 0):
                    return (g, h, packing.unpack(s))
        return None


@lru_cache(maxsize=None)
def spin_character_table():
    r243 = get_group("R243")
    classes = [(rep, len(members)) for rep, members in r243.conjugacy_classes()]
    rows = []
    for rep in full_catalog():
        rows.append((rep.name, rep.spin_type, rep.dim, list(rep.character())))
    return CharTable(r243, classes, rows)


# -- projective restriction ---------------------------------------------------

class CocycleTable(NamedTuple):
    """Factor set on the base group (whose Cayley rows are bytes): exps[g][h],
    in one bytes row per g, is the omega-exponent 0, 1 or 2 of alpha(g, h)."""

    base: object
    exps: tuple

    def value(self, g, h):
        return root_of_unity(self.exps[g][h])

    def is_trivial(self):
        return not any(map(any, self.exps))

    def identity_violation(self):
        """First triple (g, h, k), in that order, violating
        a(g,h) a(gh,k) = a(g,hk) a(h,k), or None.

        The four exponents are laid out over all n^3 triples as byte
        strings, at index (g n + h) n + k, and lhs + 2 rhs, which is 0 mod 3
        exactly where the identity holds, is one integer sum: no byte of it
        exceeds 12, so none carries into the next."""
        n, rows, exps = self.base.order, self.base.rows, self.exps
        padded = [row + bytes(256 - n) for row in exps]  # translation tables
        spread = bytes(i // n for i in range(n * n))  # h n + k -> h
        g_h = b"".join(spread.translate(row) for row in padded)
        gh_k = b"".join(map(exps.__getitem__, b"".join(rows)))
        g_hk = b"".join(row.translate(table) for table in padded for row in rows)
        h_k = b"".join(exps) * n
        lhs = int.from_bytes(g_h, "big") + int.from_bytes(gh_k, "big")
        rhs = int.from_bytes(g_hk, "big") + int.from_bytes(h_k, "big")
        first = (lhs + 2 * rhs).to_bytes(n ** 3, "big").translate(_NONZERO_MOD3).find(1)
        if first < 0:
            return None
        g, hk = divmod(first, n * n)
        return (g,) + divmod(hk, n)


_NONZERO_MOD3 = bytes(v % 3 != 0 for v in range(256))


@lru_cache(maxsize=None)
def canonical_section():
    """The exponent-preserving lift of the base group into the
    representation group (zero multiplier exponents), as R243 codes by G27
    code, checked by `_lifting_section`."""
    g27, r243 = get_group("G27"), get_group("R243")
    return _lifting_section(tuple(r243.code_of((0, 0) + g27.exps_of(g))
                                  for g in range(g27.order)))


def table_cocycle():
    """The factor set of the canonical section from the R243 Cayley table
    alone, sharing no code with the matrix path of restrict_to_projective.

    s(g) s(h) s(gh)^-1 = z12^a z23^b for every pair; returns 27 bytes rows
    whose byte h of row g is 3 a + b, from 729 lookups in R243's rows and
    inverses.  An irreducible of spin type (eps, mu) then restricts with
    cocycle exponents (eps a + mu b) mod 3.
    """
    g27, r243 = get_group("G27"), get_group("R243")
    s = canonical_section()
    rows, inv = r243.rows, r243.inv
    # z12^a z23^b has code 81 a + 27 b: byte 3 a + b, and 255 off the multiplier
    pair = bytes(code // 27 if code % 27 == 0 else 255 for code in range(256))
    c = [bytes(rows[rows[s[g]][s[h]]][inv[s[gh]]] for h, gh in enumerate(row)).translate(pair)
         for g, row in enumerate(g27.rows)]
    if any(255 in row for row in c):
        raise RepError("section cocycle leaves the multiplier subgroup")
    return tuple(c)


def restrict_to_projective(rep, section=None):
    """Restrict a representation of the representation group along a section
    of the covering onto the base group, and return its factor set: the
    CocycleTable of alpha(g, h) with T(g) T(h) = alpha(g, h) T(gh), where
    T(g) = rep(s(g)), checked to be a cube root of unity at every pair.

    The check runs on the exact kernel of `cyclo9`, on the 27 section images
    from one `Representation.images_at` call.  T(1) must be the identity.
    The generator rule is checked only for the base group's generators that
    the others do not generate (x1 and x3: x2 is their commutator, so it
    lies in their closure): T(gx) is tested nonzero, then T(g) T(x) is
    compared whole with w^0, w^1 and w^2 T(gx) in turn, each multiple
    formed only after the one before it failed to match.  A nonzero T(gx)
    makes the three multiples distinct (w^j T = w^k T with j != k forces
    T = 0), so the first match is the unique k.  A failure raises RepError.

    That decides every pair.  For each checked x, g -> gx is a bijection, so
    every y is some gx, and a unique k there needs T(y) != 0; a scalar
    relating T(g) T(h) to T(gh) is then unique when it exists.  It
    exists by induction along a breadth-first spanning tree of the Cayley
    graph over the checked generators: for h = h' x (h' before h in the
    tree), T(h) = w^-a(h',x) T(h') T(x), so T(g) T(h) =
    w^(a(g,h') + a(gh',x) - a(h',x)) T(gh), starting from a(g, 1) = 0
    because T(1) = I.  The other columns are filled by that recursion in
    tree order.

    A pair is not multiplied when `images_at` has already formed its
    product, which it reads off the lifted R243 codes, never the G27 codes:
    s(x) is one R243 generator w, s(g) has no letter after w and a w-exponent
    below 2, and s(gx) = s(g) + w.  `images_at` formed T(gx) as T(p) w^(e+1)
    from the image T(p) of s(g) without its w-power w^e, and T(g) as
    T(p) w^e, so T(g) T(x) = T(gx) literally (e = 0) or by associativity of
    exact products (e = 1): k = 0, and only T(gx) != 0 is checked.  On the
    canonical section that leaves 34 of the 54 products T(g) T(x).
    """
    g27 = get_group("G27")
    if not isinstance(rep, SubRep) or rep.group.schema.name != "R243":
        raise RepError("projective restriction expects a representation of R243")
    n, rows = g27.order, g27.rows
    gens, tree = _spanning_tree(g27)
    lift = (canonical_section() if section is None
            else _lifting_section(tuple(section[g] for g in range(n))))
    T = rep.images_at(lift)
    if T[0] != CycMatrix.identity(rep.dim).state:
        raise RepError("restriction of %s is not projective at (0, 0)" % rep.name)
    letters = set(rep.group.gen_codes)
    a = [bytearray(n) for _ in range(n)]
    for g, s in enumerate(lift):
        for x in gens:
            y, w = rows[g][x], lift[x]
            if not any(map(any, T[y][0])):
                k = None  # T(gx) = 0 matches every multiple: no unique scalar
            elif w in letters and s % w == 0 and s // w % 3 < 2 and lift[y] == s + w:
                k = 0  # T(g) T(x) is T(y)
            else:
                prod = state_mul(T[g], T[x])
                k = next((k for k, t in enumerate(_w_multiples(T[y])) if t == prod), None)
            if k is None:
                raise RepError("restriction of %s is not projective at (%d, %d)"
                               % (rep.name, g, x))
            a[g][x] = k
    for h, prefix, x in tree:
        for g in range(n):
            a[g][h] = (a[g][prefix] + a[rows[g][prefix]][x] - a[prefix][x]) % 3
    return CocycleTable(g27, tuple(map(bytes, a)))


def _w_multiples(t):
    """w^0 t, w^1 t and w^2 t, each formed only when the one before it has
    been read."""
    yield t
    yield (t := state_times_w(t))
    yield state_times_w(t)


@lru_cache(maxsize=None)
def _spanning_tree(group):
    """The schema generators of `group` that the others do not generate, and
    a breadth-first spanning tree of its Cayley graph over them: one
    (h, prefix, x) with h = prefix x for each h other than 1 and those
    generators, each prefix 1, a generator or listed before h."""
    gens = list(group.gen_codes)
    for x in group.gen_codes:
        others = [y for y in gens if y != x]
        if x in group.closure(others):
            gens = others
    rows, order, tree = group.rows, [0], []
    for h in order:  # grows while it is read: breadth first
        for x in gens:
            y = rows[h][x]
            if y not in order:
                order.append(y)
                if h:
                    tree.append((y, h, x))
    return tuple(gens), tuple(tree)


@lru_cache(maxsize=256)
def _lifting_section(section):
    """`section` (R243 codes by G27 code), checked to lift G27 and fix 1."""
    g27, r243 = get_group("G27"), get_group("R243")
    for g, code in enumerate(section):
        if r243.exps_of(code)[2:] != g27.exps_of(g):
            raise RepError("section does not lift the base group elements")
    if r243.exps_of(section[0]) != (0, 0, 0, 0, 0):
        raise RepError("section must send the identity to the identity")
    return section


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
    # linear characters with z12 -> 1, z23 -> w^mu, labeled by their exponents
    # at (z12, z23, n1, n2); they factor through the elementary abelian U/<z12>
    chis = [DualCharacter(U, (0, mu, a, b)) for a in range(3) for b in range(3)]
    if any(chi.as_subrep().verify() is not None for chi in chis):
        raise RepError("direct-route character is not multiplicative")
    n3 = r243.code("n3")
    out = []
    for orbit in orbit_decomposition(chis, ["n3"]):
        label = orbit.representative.label[2:]
        ind = induce(orbit.representative.as_subrep(), [0, n3, r243.mult(n3, n3)],
                     name="Ind%s" % (label,))
        out.append(Representation(r243, ind.images, ind.name))
    return out
