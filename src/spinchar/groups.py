"""Power-commutator presentations of the groups in play, and exact structure.

Each group is a `GroupSchema`: an ordered list of generators, every normal
form being g_0^{e_0} ... g_{k-1}^{e_{k-1}} with exponents mod 3, together
with conjugation rules phi(g_j)g_i = g_j g_i g_j^{-1} (given as a normal-form
word, only for j > i; a generator with none commutes) and power rules for
the cubes.  A single product is defined by left-to-right collection of the
concatenated words; higher-ordered generators move rightward past
lower-ordered ones.

The catalog:

  G27        the base group: x2 central, phi(x3)x1 = x1 x2^2
  G81        first covering, z12 = [x1-lift, x2-lift] adjoined
  G81_param  the (a, b) family with cubes x1^3 = z12^a, x3^3 = z12^b
  GSHARP     G81 plus a central zeta with zeta^3 = z12 (order settled by
             enumeration, not prose)
  R243       the representation group, z23 adjoined on top of G81
  GBAR       the other stairway: z23 adjoined to G27 first

The commutator convention is [g, h] = g h g^{-1} h^{-1}; with the rules below
this reproduces x2 = [x1, x3], z12 = [xi1, xi2], xi2 = [xi1, xi3] and
z23 = [n2, n3] exactly, and makes the covering maps between the schemas
honest homomorphisms.

An element is its code everywhere: the base-3 value of its exponent
vector, most significant generator first, so code order is exactly
lexicographic order on exponent vectors, and 0 is the identity.
`Group.code` takes a code, or the text form `element_str` prints (a bare
generator name included), and refuses anything else with SchemaError, as
it refuses all text on a group given by its table alone, which has none.

Cayley tables are byte rows over element codes: one `bytes` object per
element, and `rows[g][h]` is g*h as an int.  So a table stops at order
256, above every catalog group's 243 (`_check_order` raises SchemaError
past it); `collect` still works on a larger schema.  A table is built up
the polycyclic series, one generator at a time, from k(k+1)/2 collections
of rule words (`Group._right`); collection of whole words stays the
independent oracle that `check_schema` and the tests hold it to.  One walk
up the series, `_extend_to_codes`, gives each level's table and the whole
table from the right-multiplication columns, and every conjugation map and
homomorphism from generator images; only its start row differs.  A given
table (a quotient, or a planted defect) enters only as `Group(None, table)`,
compacted the same way and refused unless it is a nonempty n x n table over
range(n).  Every structural algorithm -- inverses, center, derived subgroup,
closures (the enumeration of elements is the closure of the generators),
classes, quotients, homomorphism tests, and the whole-table checks that
take a `Group`, Light's test of every triple's associativity and `verify`'s
random pass over every pair of GSHARP -- reads those rows; those that need
a generating set read it from the table too (`Group._generators`).  They
walk whole rows, not one element at a time: `_compose` sends a row of
codes through a column or row of the table in one `bytes.translate`.
Codes given to a closure, a quotient or a homomorphism are read as
`Group.code` reads an int.
"""

from collections import Counter
from itertools import chain
import numbers
import random
from typing import NamedTuple


class SchemaError(ValueError):
    """Unknown schema name, bad parameters, or malformed rules."""


class CollectionError(RuntimeError):
    """Collection exceeded its step bound; the schema is inconsistent."""


_COLLECT_BOUND = 200_000


class GroupSchema:
    """A power-commutator presentation with exponent-3 normal forms."""

    def __init__(self, name, gens, conj_rules, power_rules=None, multiplier=(), params=None):
        self.name = name
        self.gens = tuple(gens)
        k = len(self.gens)
        self.ngens = k
        self.params = params
        self.multiplier = tuple(multiplier)
        self.conj = dict(conj_rules)
        self.power = tuple((power_rules or {}).get(i, ()) for i in range(k))
        self._validate()

    def _validate(self):
        for (j, i), word in self.conj.items():
            if not j > i:
                raise SchemaError("conjugation rules must have j > i")
            if any(l >= j for l in word):
                raise SchemaError("rule word for phi(g_%d)g_%d not below g_%d" % (j, i, j))
            if list(word) != sorted(word):
                raise SchemaError("rule words must be normal-form ordered")
        for j, word in enumerate(self.power):
            if any(l >= j for l in word):
                raise SchemaError("power word for g_%d not below g_%d" % (j, j))

    def conj_word(self, j, i):
        """Normal-form word for phi(g_j)g_i; identity action unless listed."""
        return self.conj.get((j, i), (i,))

    def __repr__(self):
        return "GroupSchema(%s)" % (self.name if self.params is None
                                    else "%s%s" % (self.name, (self.params,)))


def collect(schema, letters):
    """Left-to-right collection of a generator word into an exponent vector."""
    w = list(letters)
    conj = schema.conj
    power = schema.power
    i = 0
    steps = 0
    while i < len(w):
        steps += 1
        if steps > _COLLECT_BOUND:
            raise CollectionError("collection exceeded %d steps in %s"
                                  % (_COLLECT_BOUND, schema.name))
        a = w[i]
        if i + 1 < len(w) and a > w[i + 1]:
            b = w[i + 1]
            w[i:i + 2] = conj.get((a, b), (b,)) + (a,)
            i = i - 2 if i >= 2 else 0  # a pair or cube may form just behind
            continue
        if i + 2 < len(w) and a == w[i + 1] == w[i + 2]:
            w[i:i + 3] = power[a]
            i = i - 2 if i >= 2 else 0
            continue
        i += 1
    exps = [0] * schema.ngens
    for l in w:
        exps[l] += 1
    if any(e > 2 for e in exps):
        raise CollectionError("collection left an exponent >= 3 in %s" % schema.name)
    return tuple(exps)


def _check_order(n, label):
    """SchemaError unless a table of order n fits one `bytes` row per
    element; `label` names the table."""
    if n > 256:
        raise SchemaError("%s has order %d; byte rows hold at most 256 codes" % (label, n))


def _compose(codes, col):
    """col[c] for each code c in `codes`, as a row: one `bytes.translate`.
    Every walk over a table below goes through it."""
    return codes.translate(col.ljust(256, b"\0"))


def _orbit(start, maps):
    """The set of codes reached from the code `start` by the maps, rows of
    codes, one frontier at a time."""
    found, frontier = {start}, bytes([start])
    while frontier:
        new = set(chain.from_iterable(_compose(frontier, m) for m in maps)) - found
        found |= new
        frontier = bytes(new)
    return found


def _extend_to_codes(image_cols, start=b"\0"):
    """The row whose entry i 3^k + g is start[i] phi(g), for each i < len(start)
    and code g on k = len(image_cols) letters, phi(g) being the images of g's
    letters multiplied left to right in the table with the images' columns.
    Built one letter at a time: the codes q t^e on the first l + 1 letters
    are 3 q + e, and s phi(q t^e) is s phi(q) moved e times through the
    column of t's image, so each letter costs two compositions.

    From b"\0" it is the row of phi (a homomorphism or a conjugation map);
    from bytes(range(n)) through a group's right columns it is the table,
    row-major, since g (q t^e) = (g q) t^e."""
    phi = start
    for col in image_cols:
        once = _compose(phi, col)
        out = bytearray(3 * len(phi))
        out[0::3], out[1::3], out[2::3] = phi, once, _compose(once, col)
        phi = out
    return bytes(phi)


def _compact_rows(table, n, label):
    """A given table of order n as byte rows; SchemaError above order 256,
    and CollectionError unless it has n > 0 rows, naming the first row that
    is not n codes in range(n).  `label` names the table in the errors."""
    _check_order(n, label)
    if not n:
        raise CollectionError("%s has no rows" % label)
    if len(table) != n:
        raise CollectionError("%s has %d rows, expected %d" % (label, len(table), n))
    out = []
    for g, row in enumerate(table):
        row = [int(x) for x in row]
        if len(row) != n:
            raise CollectionError("%s row %d has %d entries, expected %d"
                                  % (label, g, len(row), n))
        if not 0 <= min(row) <= max(row) < n:
            raise CollectionError("%s row %d has an entry outside range(%d)"
                                  % (label, g, n))
        out.append(bytes(row))
    return out


# -- the schema catalog ---------------------------------------------------

SCHEMA_NAMES = ("G27", "G81", "G81_param", "GSHARP", "R243", "GBAR")


def _catalog_key(name, params):
    """The catalog's (name, params) key, params as the (a, b) pair mod 3;
    SchemaError for an unknown name or parameters that do not fit it."""
    if name != "G81_param":
        if params is not None:
            raise SchemaError("%s takes no parameters" % (name,))
        if name not in SCHEMA_NAMES:
            raise SchemaError("unknown schema %r (know %s)" % (name, ", ".join(SCHEMA_NAMES)))
        return name, None
    if params is None:
        raise SchemaError("G81_param requires an (a, b) parameter pair")
    if (not isinstance(params, (tuple, list)) or len(params) != 2
            or not all(isinstance(x, numbers.Integral) for x in params)):
        raise SchemaError("G81_param takes a pair of integers, not %r" % (params,))
    return name, (int(params[0]) % 3, int(params[1]) % 3)


def schema(name, params=None):
    """Build a schema from the catalog; params is the (a, b) pair mod 3."""
    name, params = _catalog_key(name, params)
    if name == "G27":
        # x2 is central; phi(x3)x1 = x2^-1 x1 = x1 x2^2
        return GroupSchema("G27", ("x1", "x2", "x3"), conj_rules={(2, 0): (0, 1, 1)})
    if name == "G81":
        return GroupSchema("G81", ("z12", "xi1", "xi2", "xi3"), conj_rules=_G81_CONJ,
                           multiplier=("z12",))
    if name == "G81_param":
        a, b = params
        return GroupSchema("G81_param", ("z12", "xi1", "xi2", "xi3"), conj_rules=_G81_CONJ,
                           power_rules={1: (0,) * a, 3: (0,) * b},
                           multiplier=("z12",), params=(a, b))
    if name == "GSHARP":
        # G81 with an extra central zeta, zeta^3 = z12
        return GroupSchema("GSHARP", ("z12", "zeta", "xi1", "xi2", "xi3"),
                           conj_rules={(3, 2): (0, 0, 2), (4, 2): (0, 2, 3, 3)},
                           power_rules={1: (0,)})
    if name == "R243":
        # phi(n2)n1 = z12^-1 n1, phi(n3)n1 = z12 n1 n2^2, phi(n3)n2 = z23^-1 n2
        return GroupSchema("R243", ("z12", "z23", "n1", "n2", "n3"),
                           conj_rules={(3, 2): (0, 0, 2), (4, 2): (0, 2, 3, 3), (4, 3): (1, 1, 3)},
                           multiplier=("z12", "z23"))
    if name == "GBAR":
        # z23 = [xb2, xb3] adjoined first; [xb1, xb2] stays trivial
        return GroupSchema("GBAR", ("z23", "xb1", "xb2", "xb3"),
                           conj_rules={(3, 1): (1, 2, 2), (3, 2): (0, 0, 2)}, multiplier=("z23",))


# phi(xi2)xi1 = z12^2 xi1,  phi(xi3)xi1 = z12 xi1 xi2^2,  phi(xi3)xi2 = xi2
_G81_CONJ = {(2, 1): (0, 0, 1), (3, 1): (0, 1, 2, 2)}


# -- the engine ------------------------------------------------------------

class Group:
    """A schema together with its Cayley table and derived structure.

    Element codes are ints in range(order); code 0 is the identity.  All
    cached structure is built eagerly enough to be shared read-only.  With
    no schema the group is given by its Cayley table alone (a quotient, or
    any other nonempty n x n table of codes, validated here); the
    table-driven structure below works the same, while element words, their
    text and collection need a schema.  Either way the order is at most 256
    (SchemaError above).
    """

    def __init__(self, sch, table=None):
        self.schema = sch
        self._inv = None
        self._cache = {}
        self._label = "table" if sch is None else sch.name + " table"  # in errors
        if sch is None:
            self.order = len(table)
        else:
            k = sch.ngens
            self.ngens = k
            self.order = 3 ** k
            _check_order(self.order, self._label)
            self.gen_codes = tuple(3 ** (k - 1 - i) for i in range(k))  # code of each generator
        self._rows = None if table is None else _compact_rows(table, self.order, self._label)

    # element code <-> exponent vector ------------------------------------

    def exps_of(self, code):
        return tuple(code // wgt % 3 for wgt in self.gen_codes)

    def code_of(self, exps):
        return sum(e % 3 * w for e, w in zip(exps, self.gen_codes))

    def letters_of(self, code):
        word = []
        for i, wgt in enumerate(self.gen_codes):
            word.extend([i] * (code // wgt % 3))
        return word

    # multiplication -------------------------------------------------------

    def mult_collect(self, g, h):
        """Honest collection product of two codes (the defining operation)."""
        return self.code_of(collect(self.schema, self.letters_of(g) + self.letters_of(h)))

    @property
    def rows(self):
        """Cayley table as one `bytes` row per element; rows[g][h] = g*h, an int."""
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows

    def _right(self):
        """right[i][g] = g * g_i for every code g, the columns `_build_rows`
        walks into the table.

        Built up the series G_1 < ... < G_k, G_l on the first l generators:
        g_l's rule words lie in G_l, so each element of G_{l+1} is q t^e with
        q in G_l, t = g_l, and has code 3 code_l(q) + e.  With phi(x) = t x t^-1
        on G_l (its generator images collected, then extended in code order)
        and u = t^3 collected, q t^e g_i = (q phi^e(g_i)) t^e for i < l, and
        q t^e t is q t^(e+1), or q u when e = 2: l + 1 collections per step.
        G_l's table is the walk of the columns so far (`_extend_to_codes`),
        row-major, and the columns phi is extended through are its strides.
        """
        sch, k = self.schema, self.ngens
        right = []
        for l in range(k):
            m = 3 ** l
            flat = _extend_to_codes(right, bytes(range(m)))  # flat[q m + x] = q x in G_l
            # phi(g_i) for i < l, then u, as codes in G_l
            words = [sch.conj_word(l, i) for i in range(l)] + [sch.power[l]]
            *images, u = [self.code_of(collect(sch, w)) // 3 ** (k - l) for w in words]
            phi = _extend_to_codes([flat[a::m] for a in images])
            orbits = [(3 ** (l - 1 - i), a, phi[a]) for i, a in enumerate(images)]
            right = [bytes([3 * flat[q * m + x] + e for q in range(m)
                            for e, x in enumerate(orbit)])
                     for orbit in orbits]  # g_i, phi(g_i), phi^2(g_i)
            right.append(bytes([3 * q + e + 1 if e < 2 else 3 * flat[q * m + u]
                                for q in range(m) for e in range(3)]))
        return right

    def _build_rows(self):
        """The table's rows, cut from the one walk of the right columns."""
        n = self.order
        flat = _extend_to_codes(self._right(), bytes(range(n)))
        return [flat[g:g + n] for g in range(0, n * n, n)]

    @property
    def inv(self):
        """inv[g] is the code of g^-1."""
        if self._inv is None:
            if any(row.count(0) != 1 for row in self.rows):
                raise CollectionError("%s is not a group table" % self._label)
            self._inv = [row.index(0) for row in self.rows]
        return self._inv

    def mult(self, g, h):
        """g h for validated codes, ints in range(order), read unchecked like
        the four methods below: a negative code wraps, a larger one is an IndexError."""
        return self.rows[g][h]

    def conjugate(self, g, h):
        """h g h^-1, i.e. phi(h) applied to g; validated codes, as for `mult`."""
        r = self.rows
        return r[r[h][g]][self.inv[h]]

    def commutator(self, g, h):
        """[g, h] = g h g^-1 h^-1; validated codes, as for `mult`."""
        r = self.rows
        return r[r[r[g][h]][self.inv[g]]][self.inv[h]]

    def power(self, g, e):
        """g^e for an int e; a validated code g, as for `mult`."""
        if e < 0:
            return self.power(self.inv[g], -e)
        r = self.rows
        out = 0
        for _ in range(e % self.element_order(g)):
            out = r[out][g]
        return out

    def element_order(self, g):
        """The order of g; a validated code, as for `mult`."""
        r = self.rows
        x = g
        o = 1
        while x != 0:
            x = r[x][g]
            o += 1
            if o > self.order:
                raise CollectionError("order computation ran away")
        return o

    # enumeration ----------------------------------------------------------

    def enumerate_elements(self):
        """The closure of the schema's generators, or of those read from the
        table alone, in code order, computed once; its length is the group
        order as actually realized by the table."""
        if "elements" not in self._cache:
            gens = self._generators() if self.schema is None else self.gen_codes
            self._cache["elements"] = tuple(sorted(self.closure(gens)))
        return list(self._cache["elements"])

    # structure ------------------------------------------------------------

    def center_codes(self):
        """The codes whose row equals their column, read as a stride of the
        joined rows."""
        if "center" not in self._cache:
            n, flat = self.order, b"".join(self.rows)
            self._cache["center"] = frozenset(
                g for g, row in enumerate(self.rows) if row == flat[g::n])
        return self._cache["center"]

    def _columns(self, codes):
        """Column c of the table, rows[g][c] for every g, for each code c,
        as rows; each is cut from the rows once per group and kept.  A code
        is read as `code` reads an int, so anything else is a SchemaError."""
        cols, out = self._cache.setdefault("columns", {}), []
        for c in codes:
            if type(c) is not int or c not in cols:
                c = self._code_int(c)
                if c not in cols:
                    cols[c] = bytes([row[c] for row in self.rows])
            out.append(cols[c])
        return out

    def _generators(self):
        """The generating set read from the table, for every group: each
        least code outside the closure of those before it."""
        if "gens" not in self._cache:
            gens, span = [], {0}
            for g in range(self.order):
                if g not in span:
                    gens.append(g)
                    span = self.closure(gens)
            self._cache["gens"] = tuple(gens)
        return self._cache["gens"]

    def derived_codes(self):
        """[G, G]: the normal closure of the generators' commutators, closed
        under conjugation by the generators until nothing new appears."""
        if "derived" not in self._cache:
            gens = self._generators()
            new = {self.commutator(g, h) for g in gens for h in gens}
            found, derived = new, self.closure(new)
            while new:  # conjugate what the last round added
                new = {self.conjugate(c, x) for c in new for x in gens} - derived
                found = found | new
                derived = self.closure(found)
            self._cache["derived"] = derived
        return self._cache["derived"]

    def closure(self, codes):
        """Subgroup generated by the given codes (as a frozenset): the
        identity closed under right multiplication by each code, a frontier
        at a time through the codes' columns (SchemaError for a non-code)."""
        return frozenset(_orbit(0, set(self._columns(codes))))

    def conjugacy_classes(self):
        """List of (least-code representative, sorted tuple of member codes):
        the orbits of conjugation by the generators' inverses, t^-1 x t for
        every x being column t composed with row t^-1."""
        if "classes" not in self._cache:
            rows, inv, n = self.rows, self.inv, self.order
            gens = self._generators()
            perms = [_compose(col, rows[inv[t]]) for t, col in zip(gens, self._columns(gens))]
            seen, classes = set(), []
            for g in range(n):
                if g not in seen:  # g is the least code of its class
                    orbit = _orbit(g, perms)
                    seen |= orbit
                    classes.append((g, tuple(sorted(orbit))))
            self._cache["classes"] = classes
        return self._cache["classes"]

    def element_orders(self):
        if "orders" not in self._cache:
            self._cache["orders"] = tuple(self.element_order(g) for g in range(self.order))
        return self._cache["orders"]

    def quotient(self, normal_codes):
        """The quotient by a normal subgroup (given as a code set), as a
        table-only Group; coset i is the i-th least coset minimum.
        SchemaError for a non-code, or a set that is empty, not closed
        under the product or not normal."""
        r, inv = self.rows, self.inv
        normal = frozenset(map(self._code_int, normal_codes))
        if not normal or any(r[a][b] not in normal for a in normal for b in normal):
            raise SchemaError("the code set %s is not a subgroup" % sorted(normal))
        if any(r[row[m]][inv[g]] not in normal for g, row in enumerate(r) for m in normal):
            raise SchemaError("subgroup is not normal")
        coset_min = [min(row[m] for m in normal) for row in r]
        reps = sorted(set(coset_min))
        index = {c: i for i, c in enumerate(reps)}
        return Group(None, [[index[coset_min[r[a][b]]] for b in reps] for a in reps])

    # formatting -------------------------------------------------------------

    def _gen_names(self):
        """The generator names; SchemaError for a group given by its table alone."""
        if self.schema is None:
            raise SchemaError("a group given by its table alone has no element text")
        return self.schema.gens

    def element_str(self, code):
        """The normal form of a code, read as `code` reads an int, as text."""
        gens = self._gen_names()
        parts = ["%s^%d" % (g, e) for g, e in zip(gens, self.exps_of(self._code_int(code))) if e]
        return " ".join(parts) if parts else "1"

    def parse_element(self, text):
        """The code of a normal form in the text that `element_str` prints:
        "1", or `gen^e` factors with e in {1, 2} (a bare `gen` is `gen^1`),
        each generator at most once and in schema order.  Any other text,
        such as a product that would need collecting, is a SchemaError."""
        gens, exps, last = self._gen_names(), [0] * self.ngens, -1
        parts = text.split()
        if parts == ["1"]:
            return 0
        for part in parts or [""]:  # blank text fails as an unknown generator
            gen, caret, e = part.partition("^")
            i = gens.index(gen) if gen in gens else -1
            if i <= last or (caret and e not in ("1", "2")):
                raise SchemaError("%r is not a normal form of %s" % (text, self.schema.name))
            exps[i], last = int(e) if caret else 1, i
        return self.code_of(exps)

    def code(self, spec):
        """The code of an element given as a code or, when the group has a
        schema, in its text form; SchemaError for anything else."""
        return self.parse_element(spec) if isinstance(spec, str) else self._code_int(spec)

    def _code_int(self, spec):
        """An int code (any `numbers.Integral`) in range(order) as an int;
        SchemaError for anything else."""
        if isinstance(spec, numbers.Integral) and 0 <= spec < self.order:
            return int(spec)
        raise SchemaError("%r is not an element code of a group of order %d"
                          % (spec, self.order))


_GROUPS = {}


def get_group(name, params=None):
    """Shared Group instance per schema (tables built once per process).

    Keyed on the normalized (name, params), so every spelling of a call
    (params omitted, None, or congruent mod 3) shares one Group, and the
    schema is built only for a key not seen before.
    """
    key = _catalog_key(name, params)
    group = _GROUPS.get(key)
    if group is None:
        group = _GROUPS[key] = Group(schema(*key))
    return group


class Subgroup(NamedTuple):
    """A subgroup as an explicit code set, with a chosen generating list."""

    group: Group
    codes: frozenset
    gen_codes: tuple

    @staticmethod
    def generated(group, gens):
        gen_codes = tuple(group.code(g) for g in gens)
        return Subgroup(group, group.closure(gen_codes), gen_codes)

    @property
    def order(self):
        return len(self.codes)

    def is_abelian(self):
        r = self.group.rows
        return all(r[a][b] == r[b][a] for a in self.codes for b in self.codes)

    def __contains__(self, code):
        return code in self.codes


# -- whole-table checks ----------------------------------------------------

def _table_rows(group):
    """The rows of a Group; SchemaError for anything else, a raw table too."""
    if not isinstance(group, Group):
        raise SchemaError("a whole-table check takes a Group, not %s; "
                          "wrap a raw table as Group(None, table)" % type(group).__name__)
    return group.rows


def exhaustive_associativity(group):
    """(x s) y == x (s y) over all triples of the group's table, by Light's
    test; a violating (x, s, y) or None.  The middles s that pass are closed
    under the product, so n^2 products for each of 0 and the generating set
    read from the table (`Group._generators`) decide all n^3 triples: every
    other code lies in the closure, the orbit of 0 under right multiplication
    by the generators, so it is a product of middles that pass.  Only the
    table is read, so a group given by its table alone needs no schema; a
    raw table enters as `Group(None, table)`, which validates it.

    For each s, row x s is held against row s composed with row x
    (`_compose`).  The witness is the least x, then the least y, for the
    first failing s."""
    rows = _table_rows(group)
    for s in (0,) + group._generators():
        for x, row in enumerate(rows):
            rhs = _compose(rows[s], row)  # x (s y) for every y
            if rows[row[s]] != rhs:
                y = next(y for y, (a, b) in enumerate(zip(rows[row[s]], rhs)) if a != b)
                return (x, s, y)
    return None


def _uniform_codes(rng, n, count):
    """`count` codes drawn uniformly from range(n) by `rng`, as a row: random
    bytes masked to n's bit length, and the bytes >= n rejected and drawn
    again."""
    mask = (1 << (n - 1).bit_length()) - 1
    codes = b""
    while len(codes) < count:
        need = count - len(codes)
        words = rng.randbytes(need).translate(bytes(range(mask + 1)) * (256 // (mask + 1)))
        codes += words.translate(None, bytes(range(n, mask + 1)))
    return codes


def random_triples_associative(group, count, seed=0):
    """Spot-check associativity on at least `count` random triples; a
    violating (g, h, k) or None if all pass.

    Every pair (g, h) is checked with its own m = ceil(count / n^2) codes k,
    drawn uniformly by `random.Random(seed)` (`_uniform_codes`, n m codes
    for each g in turn): the k's composed through row g h are held against
    them composed through row h, then row g.  That is n^2 m >= `count`
    triples, and every pair for certain.  It is no weaker than `count`
    independent uniform triples: if s(g, h) of the n codes k violate at the
    pair (g, h), and S is the sum of all s, the pass misses every violation
    with probability prod (1 - s/n)^m.  log(1 - x) is concave, so by Jensen
    this is at most (1 - S/n^3)^(m n^2), which is at most (1 - S/n^3)^count,
    the chance that `count` uniform triples miss them all.

    It reads `group.rows`; a raw table enters as `Group(None, table)`, which
    validates it.  The rows are padded to 256 bytes once, so each
    composition is one `bytes.translate`.  The witness is the least g, then
    the least h, then the first drawn k."""
    rows = _table_rows(group)
    n = len(rows)
    m = -(-count // (n * n))
    rng = random.Random(seed)
    cols = [row.ljust(256, b"\0") for row in rows]
    for g, row in enumerate(rows):
        ks, col = _uniform_codes(rng, n, n * m), cols[g]  # pair (g, h) takes ks[h m:h m + m]
        for h, gh in enumerate(row):
            k = ks[h * m:h * m + m]
            left, right = k.translate(cols[gh]), k.translate(cols[h]).translate(col)
            if left != right:
                i = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
                return (g, h, k[i])
    return None


def _relation_pairs(group):
    """(j, i, g, h, word) per defining relation, as the product g*h it fixes
    to the normal-form word: g_j's power rule as (g_j, g_j^2) with i = j, and
    for i < j the conjugation rule g_j g_i = phi(g_j)g_i g_j as (g_j, g_i)."""
    sch, gens = group.schema, group.gen_codes
    for j, gj in enumerate(gens):
        yield j, j, gj, 2 * gj, sch.power[j]
        for i in range(j):
            yield j, i, gj, gens[i], sch.conj_word(j, i) + (j,)


def check_schema(group):
    """Sound-engine checks: closure order, identity, every defining relation."""
    sch = group.schema
    if sch is None:
        raise SchemaError("a group given by its table alone has no relations to check")
    n = group.order
    problems = []
    elements = group.enumerate_elements()
    if len(elements) != n or elements != list(range(n)):
        problems.append("enumeration closure has %d elements, expected %d" % (len(elements), n))
    r = group.rows
    if list(r[0]) != list(range(n)) or any(row[0] != g for g, row in enumerate(r)):
        problems.append("identity is not neutral")
    for j, i, g, h, word in _relation_pairs(group):
        if r[g][h] != group.code_of(collect(sch, word)):
            problems.append("cube of %s violates its power rule" % sch.gens[j] if i == j
                            else "phi(%s)%s violates its rule" % (sch.gens[j], sch.gens[i]))
    return problems


# -- fingerprints and quotients ---------------------------------------------

class Fingerprint(NamedTuple):
    """Isomorphism-invariant data; equality is necessary for isomorphism."""

    order: int
    element_orders: tuple      # sorted (order, multiplicity) pairs
    class_sizes: tuple         # sorted (size, multiplicity) pairs
    center_order: int
    derived_order: int
    abelianization_orders: tuple


def isomorphism_fingerprint(group):
    if "fingerprint" not in group._cache:
        derived = group.derived_codes()
        abelianization = group.quotient(derived)
        group._cache["fingerprint"] = Fingerprint(
            order=group.order,
            element_orders=_tally(group.element_orders()),
            class_sizes=_tally(len(members) for _, members in group.conjugacy_classes()),
            center_order=len(group.center_codes()),
            derived_order=len(derived),
            abelianization_orders=_tally(abelianization.element_orders()),
        )
    return group._cache["fingerprint"]


def _tally(values):
    """Sorted (value, multiplicity) pairs."""
    return tuple(sorted(Counter(values).items()))


def quotient_fingerprint(group, normal_gens):
    """Fingerprint of group/<normal_gens> (the subgroup must be normal)."""
    codes = group.closure([group.code(g) for g in normal_gens])
    return isomorphism_fingerprint(group.quotient(codes))


# -- covering maps -----------------------------------------------------------

class CheckReport:
    """Outcome of a multi-part verification: failure messages carrying their
    witnesses, the text that stands for a pass, and the wall seconds the
    check took when its runner measured them (not part of the outcome)."""

    def __init__(self, name, failures=None, ok_text=""):
        self.name = name
        self.failures = [] if failures is None else failures
        self.ok_text = ok_text
        self.seconds = None

    @property
    def passed(self):
        return not self.failures

    @property
    def detail(self):
        return "; ".join(self.failures) if self.failures else self.ok_text

    def fail(self, message):
        self.failures.append(message)


def hom_from_gen_images(small, image_codes):
    """The row phi[g] of the total map into small that sends generator i of
    a domain on len(image_codes) generators to image_codes[i].

    Defined on normal forms by multiplying images left to right; whether it
    is a homomorphism is for the caller to check.
    """
    return _extend_to_codes(small._columns(image_codes))


def homomorphism_violation(big, small, phi):
    """A pair (g, h) with phi(g h) != phi(g) phi(h), or None.

    phi must be built by `hom_from_gen_images`, and big's table must be the
    group its presentation defines (`check_associativity` decides this for
    all 14 catalog tables).  Then phi is a homomorphism iff the generator
    images satisfy the defining relations (von Dyck), so only the
    k + k(k-1)/2 pairs of `_relation_pairs` are tested.
    """
    r, sr = big.rows, small.rows
    for _, _, g, h, _ in _relation_pairs(big):
        if phi[r[g][h]] != sr[phi[g]][phi[h]]:
            return g, h
    return None


def verify_efficient_covering(big, kernel_gens, small, gen_map):
    """Check that big --> small is an efficient covering with the given kernel.

    kernel_gens: names of big's generators spanning the declared kernel.
    gen_map: dict sending each remaining big generator name to a small
    generator name (kernel generators map to the identity).
    """
    report = CheckReport("covering %s -> %s" % (big.schema.name, small.schema.name))
    kernel_codes = [big.code(g) for g in kernel_gens]
    kernel = big.closure(kernel_codes)

    center = big.center_codes()
    derived = big.derived_codes()
    if not kernel <= center:
        report.fail("kernel is not central")
    if not kernel <= derived:
        report.fail("kernel is not inside the derived subgroup")

    image_codes = []
    for name in big.schema.gens:
        target = gen_map.get(name)
        if name in kernel_gens or target is None:
            image_codes.append(0)
        else:
            image_codes.append(small.code(target))
    phi = hom_from_gen_images(small, image_codes)

    bad = homomorphism_violation(big, small, phi)
    if bad is not None:
        g, h = bad
        report.fail("not a homomorphism at (%s) * (%s)"
                    % (big.element_str(g), big.element_str(h)))
        return report

    actual_kernel = frozenset(g for g, x in enumerate(phi) if x == 0)
    if actual_kernel != kernel:
        report.fail("kernel is %d elements, declared subgroup has %d"
                    % (len(actual_kernel), len(kernel)))
    if len(set(phi)) != small.order:
        report.fail("map is not surjective")
    if big.order != len(kernel) * small.order:
        report.fail("|big| != |kernel| * |small|")
    return report


def verify_phi_automorphism(a, b):
    """Relation-transport check inside GSHARP for the parameter pair (a, b).

    The substitution xi1 -> xi1 zeta^a, xi3 -> xi3 zeta^b (zeta, z12, xi2
    fixed) is a shear on normal forms, not a homomorphism of GSHARP when
    (a, b) != (0, 0): it sends the relation xi1^3 = 1 to xi1'^3 = z12^a.
    That relation transport is the point.  Verified here:

      * the substitution permutes GSHARP's elements (bijection);
      * the images regenerate GSHARP together with zeta, and without zeta
        generate a subgroup of order 81;
      * z12 and the images satisfy every relation of the (a, b)
        presentation, in particular xi1'^3 = z12^a and xi3'^3 = z12^b, so
        the (a, b)-presented group maps homomorphically onto that subgroup
        (von Dyck), and the map is a bijection.

    Whether that subgroup is isomorphic to the unparameterized covering
    group is not a pass/fail condition: brute force shows it holds exactly
    when b = 0 (the b != 0 subgroups have a different order-9 element
    count), so it is data, not an invariant; `spinchar group G81_param`
    reports it as fingerprint_matches_G81.
    """
    a %= 3
    b %= 3
    gs = get_group("GSHARP")
    report = CheckReport("phi automorphism (a=%d, b=%d)" % (a, b))
    r = gs.rows
    z12, zeta = gs.code("z12"), gs.code("zeta")
    image_codes = []
    for name, g in zip(gs.schema.gens, gs.gen_codes):
        if name == "xi1":
            g = r[g][gs.power(zeta, a)]
        elif name == "xi3":
            g = r[g][gs.power(zeta, b)]
        image_codes.append(g)
    phi = hom_from_gen_images(gs, image_codes)
    if len(set(phi)) != gs.order:
        report.fail("substitution map is not a bijection of GSHARP")

    regenerated = gs.closure(image_codes)
    if len(regenerated) != gs.order:
        report.fail("images plus zeta fail to regenerate GSHARP")
    primed_gens = [z12] + image_codes[2:]
    primed = gs.closure(primed_gens)
    if len(primed) != 81:
        report.fail("primed generators span order %d, expected 81" % len(primed))

    # the (a, b)-presented group maps onto the primed subgroup bijectively
    param = get_group("G81_param", (a, b))
    onto = hom_from_gen_images(gs, primed_gens)
    bad = homomorphism_violation(param, gs, onto)
    if bad is not None:
        g, h = bad
        report.fail("presented (a,b) group does not map onto the primed "
                    "subgroup: failure at (%s) * (%s)"
                    % (param.element_str(g), param.element_str(h)))
    elif set(onto) != set(primed):
        report.fail("presented (a,b) group image differs from primed subgroup")
    return report


# the standard covering maps between catalog schemas
COVERING_MAPS = {
    ("R243", "G27"): ({"n1": "x1", "n2": "x2", "n3": "x3"}, ("z12", "z23")),
    ("R243", "G81"): ({"z12": "z12", "n1": "xi1", "n2": "xi2", "n3": "xi3"}, ("z23",)),
    ("R243", "GBAR"): ({"z23": "z23", "n1": "xb1", "n2": "xb2", "n3": "xb3"}, ("z12",)),
    ("G81", "G27"): ({"xi1": "x1", "xi2": "x2", "xi3": "x3"}, ("z12",)),
    ("GBAR", "G27"): ({"xb1": "x1", "xb2": "x2", "xb3": "x3"}, ("z23",)),
}


def covering_data(big_name, small_name):
    """(gen_map, kernel generator names) for a catalog covering."""
    try:
        return COVERING_MAPS[(big_name, small_name)]
    except KeyError:
        raise SchemaError("no catalog covering %s -> %s" % (big_name, small_name))
