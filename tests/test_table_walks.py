"""The table walks of `groups` held to the per-element algorithms they replaced.

`groups` composes whole code rows, one `bytes.translate` each.  The
references below walk the same tables one element at a time, as the
package did before: Cayley rows from right columns by prefix, closure by
depth-first search, the center by transposing the table, classes by
conjugating with every element, and a homomorphism extended by prefix.
They run on the 14 catalog groups, on every quotient that
`check_structure` and the fingerprints build, and on G81 tables with one
planted swap, where both sides must agree or raise the same typed error.
Classes are defined on group tables only: on a table that is no group, the
orbits of the generators' conjugations and the sets conjugated by every
element are different non-answers, and Light's test (`check_associativity`)
is what refuses such a table.
"""

import itertools

import pytest

from spinchar import groups
from spinchar.groups import CollectionError, Group, get_group

CATALOG = ([(name, None) for name in ("G27", "G81", "GBAR", "R243", "GSHARP")]
           + [("G81_param", (a, b)) for a in range(3) for b in range(3)])


def _split_last(code, ngens):
    """(prefix, letter) with code = prefix * g_letter in normal form."""
    i, w = ngens - 1, 1
    while code // w % 3 == 0:
        i, w = i - 1, 3 * w
    return code - w, i


def ref_rows_from_right(right):
    n = len(right[0])
    cols = [list(range(n))]
    for h in range(1, n):
        prefix, letter = _split_last(h, len(right))
        cols.append([right[letter][x] for x in cols[prefix]])
    return [[cols[h][g] for h in range(n)] for g in range(n)]


def ref_closure(rows, codes):
    gens, cur, todo = {int(c) for c in codes}, {0}, [0]
    while todo:
        row = rows[todo.pop()]
        for c in gens:
            x = row[c]
            if x not in cur:
                cur.add(x)
                todo.append(x)
    return frozenset(cur)


def ref_center(rows):
    cols = list(zip(*rows))
    return frozenset(g for g, row in enumerate(rows) if tuple(row) == cols[g])


def ref_classes(rows, inv):
    seen, classes = set(), []
    for g in range(len(rows)):
        if g not in seen:
            orbit = tuple(sorted({rows[row[g]][ih] for row, ih in zip(rows, inv)}))
            seen.update(orbit)
            classes.append((g, orbit))
    return classes


def ref_extend(ngens, rows, image_codes, start=(0,)):
    phi = [0]
    for g in range(1, 3 ** ngens):
        prefix, letter = _split_last(g, ngens)
        phi.append(rows[phi[prefix]][image_codes[letter]])
    return [rows[s][x] for s in start for x in phi]


def _extend(rows, images, start=b"\0"):
    return groups._extend_to_codes([bytes(row[a] for row in rows) for a in images], start)


def _outcome(f, *args):
    """f's result, or the type and text of the error it raised."""
    try:
        return f(*args)
    except (CollectionError, IndexError) as exc:
        return type(exc), str(exc)


def _code_sets(group):
    """Code sets to close: each generator, each pair, all, and the center."""
    gens = group._generators()
    return ([(g,) for g in gens] + list(itertools.combinations(gens, 2))
            + [gens, sorted(ref_center(group.rows))])


def _assert_walks_match(group):
    rows = group.rows
    for codes in _code_sets(group):
        assert _outcome(group.closure, codes) == _outcome(ref_closure, rows, codes), codes
    assert group.center_codes() == ref_center(rows)
    assert _outcome(group.conjugacy_classes) == _outcome(lambda: ref_classes(rows, group.inv))


def _quotients():
    """The quotients `check_structure` and the fingerprints build: R243 by
    <z12> and by <z23>, and every fingerprinted group by its derived subgroup."""
    r243 = get_group("R243")
    out = [r243.quotient(r243.closure([r243.code(z)])) for z in ("z12", "z23")]
    fingerprinted = [get_group(name, params) for name, params in CATALOG] + out
    return out + [group.quotient(group.derived_codes()) for group in fingerprinted]


@pytest.mark.parametrize("name, params", CATALOG)
def test_catalog_walks_match_the_references(name, params):
    group = get_group(name, params)
    assert [list(row) for row in group._build_rows()] == ref_rows_from_right(group._right())
    _assert_walks_match(group)
    rows, k = group.rows, group.ngens
    for images in (group.gen_codes, [0] * k, [group.order - 1 - g for g in group.gen_codes]):
        assert list(_extend(rows, images)) == ref_extend(k, rows, images)
    # from a start row other than the identity: every entry start[i] phi(g)
    backwards = bytes(reversed(range(group.order)))
    assert list(_extend(rows, group.gen_codes, backwards)) \
        == ref_extend(k, rows, group.gen_codes, backwards)


def test_quotient_walks_match_the_references():
    quotients = _quotients()
    assert len(quotients) == 18
    for q in quotients:
        _assert_walks_match(q)


def test_covering_extensions_match_the_reference():
    for big_name, small_name in groups.COVERING_MAPS:
        big, small = get_group(big_name), get_group(small_name)
        gen_map, kernel = groups.covering_data(big_name, small_name)
        images = [0 if name in kernel else small.code(gen_map[name]) for name in big.schema.gens]
        assert (list(groups.hom_from_gen_images(small, images))
                == ref_extend(big.ngens, small.rows, images))


def _planted_g81(swap):
    """A copy of G81's table with the entries at the two (row, column)
    cells swapped."""
    g81 = get_group("G81")
    rows = [list(row) for row in g81.rows]
    (g1, h1), (g2, h2) = swap
    rows[g1][h1], rows[g2][h2] = rows[g2][h2], rows[g1][h1]
    return Group(g81.schema, rows)


def test_planted_g81_swap_gives_the_references_outcome():
    # the identity's entry of column 5 moved to another row: no inverse of
    # one element, so both class algorithms raise the same CollectionError
    g81 = get_group("G81")
    planted = _planted_g81([(g81.inv[5], 5), (8, 5)])
    _assert_walks_match(planted)
    with pytest.raises(CollectionError, match="G81 table is not a group table"):
        planted.conjugacy_classes()
    images = list(planted.gen_codes)
    assert (list(groups.hom_from_gen_images(planted, images))
            == ref_extend(4, planted.rows, images))


def test_row_swap_keeps_the_closure_center_and_extension_of_the_reference():
    # a swap inside one row keeps every row a permutation; the table is no
    # group (Light's test refuses it), so there are no classes to compare,
    # but closure, center and extension read the same entries either way
    planted = _planted_g81([(5, 7), (5, 9)])
    assert groups.exhaustive_associativity(planted) is not None
    rows = planted.rows
    for codes in _code_sets(planted):
        assert planted.closure(codes) == ref_closure(rows, codes), codes
    assert planted.center_codes() == ref_center(rows)
    for images in (planted.gen_codes, [5, 7, 9, 11]):
        assert (list(_extend(rows, images))
                == ref_extend(4, rows, images))
