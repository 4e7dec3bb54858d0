"""The group engine: collection, structure, coverings, fingerprints."""

import itertools
import tracemalloc

import numpy as np
import pytest

from spinchar import groups, verify
from spinchar.groups import (CollectionError, GroupSchema, Group, SchemaError, Subgroup,
                             check_schema, covering_data, exhaustive_associativity,
                             get_group, hom_from_gen_images,
                             homomorphism_violation, isomorphism_fingerprint, quotient_fingerprint,
                             random_triples_associative, schema,
                             verify_efficient_covering, verify_phi_automorphism)


def _table(group):
    """The Cayley table as a read-only uint8 array over the joined rows,
    table[g, h] = g*h, for the array references."""
    n = group.order
    return np.frombuffer(b"".join(group.rows), np.uint8).reshape(n, n)


def test_schema_catalog_guards():
    # get_group normalizes its arguments itself and keeps schema's texts
    for args, text in ((("NOPE",), "unknown schema 'NOPE' (know G27, G81, G81_param, "
                                   "GSHARP, R243, GBAR)"),
                       (("G27", (1, 1)), "G27 takes no parameters"),
                       (("G81_param",), "G81_param requires an (a, b) parameter pair"),
                       (("G81_param", (1,)), "G81_param takes a pair of integers, not (1,)")):
        for build in (schema, get_group):
            with pytest.raises(SchemaError) as info:
                build(*args)
            assert str(info.value) == text
    # a name of any type is refused as a SchemaError
    with pytest.raises(SchemaError, match=r"\('G27', 'x'\) takes no parameters"):
        get_group(("G27", "x"), (1, 1))
    with pytest.raises(SchemaError, match=r"unknown schema \['G27'\]"):
        get_group(["G27"])
    # malformed pairs are refused, not truncated or passed to int()
    for bad in ((1,), ("a", "b"), (1.5, 2), (1, 2, 3), 12):
        with pytest.raises(SchemaError):
            schema("G81_param", bad)
        with pytest.raises(SchemaError):
            get_group("G81_param", bad)


def test_collection_examples():
    g27 = get_group("G27")
    x1, x3 = g27.code("x1"), g27.code("x3")
    assert g27.exps_of(g27.mult_collect(x3, x1)) == (1, 2, 1)
    assert g27.mult_collect(x1, 0) == x1

    r243 = get_group("R243")
    n1, n3 = r243.code("n1"), r243.code("n3")
    prod = r243.mult_collect(n3, n1)
    assert r243.exps_of(prod) == (1, 0, 1, 2, 1)
    assert r243.element_str(prod) == "z12^1 n1^1 n2^2 n3^1"


def test_commutators_and_conjugation():
    g81 = get_group("G81")
    xi1, xi2, xi3 = (g81.code(n) for n in ("xi1", "xi2", "xi3"))
    assert g81.commutator(xi1, xi3) == xi2
    assert g81.commutator(xi1, xi2) == g81.code("z12")
    r243 = get_group("R243")
    n1, n2, n3 = (r243.code(n) for n in ("n1", "n2", "n3"))
    assert r243.commutator(n2, n3) == r243.code("z23")
    assert r243.commutator(n1, n3) == n2
    assert r243.commutator(n1, n2) == r243.code("z12")
    # conjugate(g, h) = h g h^-1 agrees with the schema rule
    assert r243.exps_of(r243.conjugate(n1, n3)) == (1, 0, 1, 2, 0)
    assert g81.element_order(0) == 1
    assert g81.element_order(xi1) == 3


def test_element_text_round_trip():
    r243 = get_group("R243")
    for code in (0, 1, 100, 242):
        text = r243.element_str(code)
        assert r243.parse_element(text) == code
    assert r243.element_str(0) == "1"
    assert r243.parse_element("n1") == r243.parse_element("n1^1")
    # element_str never emits a blank element or a dangling caret
    for bad in ("bogus^1", "", "   ", "n1^", "n1^ n2"):
        with pytest.raises(SchemaError):
            r243.parse_element(bad)


def test_parse_element_accepts_only_normal_forms():
    for name, params in CATALOG:
        group = get_group(name, params)
        assert [group.parse_element(group.element_str(g)) for g in range(group.order)] \
            == list(range(group.order))
    # the first three texts spell these products, which an exponent vector
    # read mod 3 would get wrong; none of the five is a normal form
    param, r243, gsharp = get_group("G81_param", (1, 0)), get_group("R243"), get_group("GSHARP")
    assert param.element_str(param.power(param.code("xi1"), 3)) == "z12^1"
    assert r243.element_str(r243.mult_collect(r243.code("n3"), r243.code("n1"))) \
        == "z12^1 n1^1 n2^2 n3^1"
    assert gsharp.element_str(gsharp.inv[gsharp.code("zeta")]) == "z12^2 zeta^2"
    for group, text in ((param, "xi1^3"), (r243, "n3 n1"), (gsharp, "zeta^-1"),
                        (r243, "n1 n1"), (r243, "n1^0")):
        with pytest.raises(SchemaError, match="not a normal form"):
            group.parse_element(text)


def test_code_refuses_what_is_not_an_element():
    g27 = get_group("G27")
    assert [g27.code(26), g27.code(np.int64(5)), g27.code("x1^1 x3^2")] \
        == [26, 5, g27.code_of((1, 0, 2))]
    quotient = g27.quotient(g27.center_codes())
    assert quotient.code(8) == 8
    for group, bad in ((g27, 300), (g27, 27), (g27, -1), (g27, 1.0), (g27, None),
                       (g27, (1, 0, 0)), (g27, b"x1"), (quotient, 9), (quotient, "x1")):
        with pytest.raises(SchemaError):
            group.code(bad)
    # a group given by its table alone has no element text either way
    with pytest.raises(SchemaError, match="no element text"):
        quotient.element_str(1)
    with pytest.raises(SchemaError, match="no element text"):
        quotient.parse_element("x1")


def test_enumerated_orders():
    assert len(get_group("G27").enumerate_elements()) == 27
    assert len(get_group("G81").enumerate_elements()) == 81
    assert len(get_group("GBAR").enumerate_elements()) == 81
    assert len(get_group("R243").enumerate_elements()) == 243
    for a in range(3):
        for b in range(3):
            assert len(get_group("G81_param", (a, b)).enumerate_elements()) == 81


def test_enumeration_is_computed_once_per_group(monkeypatch):
    calls = []
    real_collect = groups.collect

    def counting_collect(*args, **kwargs):
        calls.append(args)
        return real_collect(*args, **kwargs)

    monkeypatch.setattr(groups, "collect", counting_collect)
    g27 = Group(schema("G27"))  # a fresh instance, not the shared one
    first = g27.enumerate_elements()
    assert first == list(range(27)) and calls
    calls.clear()
    second = g27.enumerate_elements()
    assert second == first and not calls
    second.append(99)  # callers get their own list
    assert g27.enumerate_elements() == first


def test_gsharp_order_settled_by_enumeration():
    # the presentation prose suggests 81*3; enumeration decides: 243,
    # with the adjoined central generator genuinely of order 9
    gsharp = get_group("GSHARP")
    assert len(gsharp.enumerate_elements()) == 243
    zeta = gsharp.code("zeta")
    assert gsharp.element_order(zeta) == 9
    assert gsharp.power(zeta, 3) == gsharp.code("z12")


def test_center_and_derived():
    g27 = get_group("G27")
    assert g27.center_codes() == frozenset(g27.code_of((0, e, 0)) for e in range(3))
    r243 = get_group("R243")
    assert r243.center_codes() == frozenset(
        r243.code_of((a, b, 0, 0, 0)) for a in range(3) for b in range(3))
    assert r243.derived_codes() == frozenset(
        r243.code_of((a, b, 0, c, 0))
        for a in range(3) for b in range(3) for c in range(3))
    # outputs are verified subgroups
    t = _table(r243)
    for codes in (r243.center_codes(), r243.derived_codes()):
        arr = sorted(codes)
        assert all(int(t[a, b]) in codes for a in arr for b in arr)


def test_conjugacy_classes():
    g27 = get_group("G27")
    classes = g27.conjugacy_classes()
    assert len(classes) == 11
    assert sorted(len(m) for _, m in classes) == [1, 1, 1] + [3] * 8
    assert classes[0] == (0, (0,))  # the identity class is a singleton
    for rep, members in classes:
        assert rep == min(members)
    assert len(get_group("R243").conjugacy_classes()) == 35
    assert len(get_group("G81").conjugacy_classes()) == 17
    assert len(get_group("GBAR").conjugacy_classes()) == 17


def test_element_orders_divide_nine():
    for name in ("G27", "G81", "GBAR", "R243", "GSHARP"):
        for o in get_group(name).element_orders():
            assert o in (1, 3, 9)


def test_schema_soundness_and_associativity():
    for name, params in [("G27", None), ("G81", None), ("GBAR", None),
                         ("R243", None), ("GSHARP", None), ("G81_param", (1, 2))]:
        group = get_group(name, params)
        assert check_schema(group) == []
        assert exhaustive_associativity(group) is None
    assert random_triples_associative(get_group("GSHARP"), 10000, seed=5) is None


def test_collection_matches_table():
    rng = np.random.default_rng(99)
    for name in ("G27", "G81", "R243", "GSHARP"):
        group = get_group(name)
        t = _table(group)
        for _ in range(250):
            a, b = (int(x) for x in rng.integers(0, group.order, 2))
            assert group.mult_collect(a, b) == t[a, b]


def test_inconsistent_schema_fails_loudly():
    # phi(x3)x1 = x2 does not extend to order 3 on x3: phi^3(x1) != x1
    bad = GroupSchema("BAD", ("x1", "x2", "x3"), central={1},
                      conj_rules={(2, 0): (1,)})
    group = Group(bad)
    try:
        detected = (check_schema(group) != []
                    or exhaustive_associativity(group) is not None)
    except CollectionError:
        detected = True  # the engine refused the non-group table outright
    assert detected


def _g27_variant(central, power_rules):
    sch = schema("G27")
    return Group(GroupSchema("G27", sch.gens, central, sch.conj, power_rules))


def test_inconsistent_power_rule_fails_lights_test():
    # x3^3 = x1 on top of G27: every rule checks out, but the table is not
    # associative
    group = _g27_variant({1}, {2: (0,)})
    assert check_schema(group) == []
    assert exhaustive_associativity(group) == (1, 1, 2)


def test_inconsistent_noncentral_power_rule_is_not_a_group_table():
    # x2 not central and x2^3 = x1: some row misses the identity
    group = _g27_variant((), {1: (0,)})
    with pytest.raises(CollectionError, match="table is not a group table"):
        group.inv


def test_tables_agree_with_collection():
    # the table is built up the polycyclic series; collection of whole words
    # is the independent oracle for every generator column
    for name, params in CATALOG:
        group = get_group(name, params)
        right = group._right()
        for g in range(group.order):
            word = group.letters_of(g)
            for i in range(group.ngens):
                assert right[i][g] == group.code_of(groups.collect(group.schema, word + [i]))
    for name, params in (("G27", None), ("G81_param", (0, 2))):
        group = get_group(name, params)
        n = group.order
        assert ([[group.mult_collect(g, h) for h in range(n)] for g in range(n)]
                == [list(r) for r in group.rows])


def test_table_build_collects_only_rule_words(monkeypatch):
    calls = []
    real_collect = groups.collect

    def counting_collect(*args, **kwargs):
        calls.append(args)
        return real_collect(*args, **kwargs)

    monkeypatch.setattr(groups, "collect", counting_collect)
    rows = Group(schema("R243")).rows  # a fresh instance, not the shared one
    assert 0 < len(calls) <= 15  # k(k+1)/2 for k = 5 generators
    assert rows == get_group("R243").rows


def test_efficient_coverings():
    for big, small in [("R243", "G27"), ("R243", "G81"), ("R243", "GBAR"),
                       ("G81", "G27"), ("GBAR", "G27")]:
        gen_map, kernel = covering_data(big, small)
        report = verify_efficient_covering(get_group(big), kernel,
                                           get_group(small), gen_map)
        assert report.passed, (big, small, report.failures)


def test_covering_rejects_wrong_kernel():
    gen_map, _ = covering_data("R243", "G27")
    report = verify_efficient_covering(get_group("R243"), ("z12",),
                                       get_group("G27"), gen_map)
    assert not report.passed


def _scan_violation(big, small, phi):
    """Reference: the first pair (g, h), in row order, with
    phi(g h) != phi(g) phi(h) over all n^2 products, or None."""
    sr = small.rows
    for g, row in enumerate(big.rows):
        for h, gh in enumerate(row):
            if phi[gh] != sr[phi[g]][phi[h]]:
                return g, h
    return None


def _agrees_with_the_scan(big, small, images):
    """homomorphism_violation on the map with these generator images is
    None exactly when the n^2 scan is, and any pair it returns violates
    the product; returns whether the map is a homomorphism."""
    phi = hom_from_gen_images(small, images)
    bad = homomorphism_violation(big, small, phi)
    assert (bad is None) == (_scan_violation(big, small, phi) is None), images
    if bad is not None:
        g, h = bad
        assert phi[big.rows[g][h]] != small.rows[phi[g]][phi[h]]
    return bad is None


def _covering_images(big, small, gen_map, kernel):
    return [0 if name in kernel or name not in gen_map
            else small.code(gen_map[name]) for name in big.schema.gens]


def test_relation_pairs_decide_the_coverings_and_their_central_moves():
    for big_name, small_name in groups.COVERING_MAPS:
        big, small = get_group(big_name), get_group(small_name)
        gen_map, kernel = covering_data(big_name, small_name)
        images = _covering_images(big, small, gen_map, kernel)
        assert _agrees_with_the_scan(big, small, images)
        moved = 0
        for k in range(big.ngens):
            for c in sorted(small.center_codes() - {0}):
                planted = list(images)
                planted[k] = small.rows[images[k]][c]
                moved += not _agrees_with_the_scan(big, small, planted)
        assert moved > 0, (big_name, small_name)


def test_relation_pairs_decide_every_param_shear():
    gs = get_group("GSHARP")
    r = gs.rows
    z12, zeta, xi1, xi2, xi3 = gs.gen_codes
    homs = set()
    for a, b in itertools.product(range(3), repeat=2):
        param = get_group("G81_param", (a, b))
        for a2, b2 in itertools.product(range(3), repeat=2):
            images = [z12, r[xi1][gs.power(zeta, a2)], xi2, r[xi3][gs.power(zeta, b2)]]
            if _agrees_with_the_scan(param, gs, images):
                homs.add((a, b, a2, b2))
    # the shear (a', b') carries the (a, b) relations exactly when it is (a, b)
    assert homs == {(a, b, a, b) for a, b in itertools.product(range(3), repeat=2)}


def test_relation_pairs_decide_every_g27_endomorphism_candidate():
    g27 = get_group("G27")
    homs = sum(_agrees_with_the_scan(g27, g27, list(images))
               for images in itertools.product(range(27), repeat=3))
    assert homs == 729


def test_homomorphism_check_reads_only_the_relation_pairs():
    class CountingList(list):
        reads = 0

        def __getitem__(self, index):
            CountingList.reads += 1
            return super().__getitem__(index)

    r243, g27 = get_group("R243"), get_group("G27")
    gen_map, kernel = covering_data("R243", "G27")
    phi = CountingList(hom_from_gen_images(g27, _covering_images(r243, g27, gen_map, kernel)))
    assert homomorphism_violation(r243, g27, phi) is None
    # three reads for each of the 5 + 10 relation pairs, not n^2 = 59,049 products
    assert 0 < CountingList.reads <= 3 * 15


def test_phi_automorphism_all_pairs():
    for a in range(3):
        for b in range(3):
            report = verify_phi_automorphism(a, b)
            assert report.passed, (a, b, report.failures)


def find_param_isomorphism(a, b):
    """Explicit isomorphism G81_param(a, b) -> G81, or None when none exists.

    Searches generator images u (for xi1) and v (for xi3) in G81; the images
    of xi2 and z12 are then forced as [u, v] and [u, [u, v]].  Brute force
    finds an isomorphism exactly for the b = 0 pairs.
    """
    a %= 3
    b %= 3
    param = get_group("G81_param", (a, b))
    g81 = get_group("G81")
    n = g81.order
    for u in range(n):
        for v in range(n):
            x2 = g81.commutator(u, v)
            z = g81.commutator(u, x2)
            if z == 0:
                continue
            if g81.power(u, 3) != g81.power(z, a):
                continue
            if g81.power(v, 3) != g81.power(z, b):
                continue
            if g81.power(x2, 3) != 0 or g81.commutator(x2, v) != 0:
                continue
            if g81.commutator(z, u) != 0 or g81.commutator(z, v) != 0:
                continue
            images = [z, u, x2, v]
            psi = hom_from_gen_images(g81, images)
            if len(set(psi)) != n:
                continue
            if homomorphism_violation(param, g81, psi) is None:
                return {"z12": z, "xi1": u, "xi2": x2, "xi3": v}
    return None


def test_param_family_isomorphism_pattern():
    """|G'| = 81 always; brute force shows G' is isomorphic to the covering
    group exactly when b = 0 (four distinct isomorphism classes arise)."""
    fp81 = isomorphism_fingerprint(get_group("G81"))
    classes = set()
    for a in range(3):
        for b in range(3):
            fp = isomorphism_fingerprint(get_group("G81_param", (a, b)))
            assert fp.order == 81
            classes.add(fp.element_orders)
            assert (fp == fp81) == (b == 0)
            iso = find_param_isomorphism(a, b)
            assert (iso is not None) == (b == 0)
    assert len(classes) == 4


def test_fingerprints():
    assert isomorphism_fingerprint(get_group("G81")) == \
        isomorphism_fingerprint(get_group("GBAR"))
    assert isomorphism_fingerprint(get_group("G27")) != \
        isomorphism_fingerprint(get_group("G81"))
    r243 = get_group("R243")
    assert quotient_fingerprint(r243, ["z12"]) == \
        isomorphism_fingerprint(get_group("GBAR"))
    assert quotient_fingerprint(r243, ["z23"]) == \
        isomorphism_fingerprint(get_group("G81"))


def test_quotient_is_a_table_group():
    r243 = get_group("R243")
    mult = r243.closure([r243.code("z12"), r243.code("z23")])
    q = r243.quotient(mult)
    assert q.schema is None and q.order == 27
    assert exhaustive_associativity(q) is None
    assert q.mult(0, 5) == 5 and q.mult(5, int(q.inv[5])) == 0
    # R243 / multiplier is the base group, structure for structure
    g27 = get_group("G27")
    assert sorted(q.element_orders()) == sorted(g27.element_orders())
    assert len(q.center_codes()) == 3 and len(q.derived_codes()) == 3
    assert len(q.conjugacy_classes()) == 11
    assert isomorphism_fingerprint(q) == isomorphism_fingerprint(g27)
    with pytest.raises(SchemaError, match="not normal"):
        r243.quotient(r243.closure([r243.code("n1")]))


def test_subgroup_helper():
    g81 = get_group("G81")
    U = Subgroup.generated(g81, ["z12", "xi1", "xi2"])
    assert U.order == 27
    assert not U.is_abelian()
    U0 = Subgroup.generated(g81, ["z12", "xi1"])
    assert U0.order == 9 and U0.is_abelian()


CATALOG = ([(name, None) for name in ("G27", "G81", "GBAR", "R243", "GSHARP")]
           + [("G81_param", (a, b)) for a in range(3) for b in range(3)])


def test_get_group_keys_on_the_normalized_schema():
    for name, params in CATALOG:
        group = get_group(name, params)
        if params is None:
            assert get_group(name) is group and get_group(name, params=None) is group
        else:
            assert get_group(name, list(params)) is group
            assert get_group(name, tuple(p + 3 for p in params)) is group


def test_rows_and_table_agree():
    for name, params in CATALOG:
        assert all(type(r) is bytes for r in get_group(name, params).rows), (name, params)
    g27 = get_group("G27")
    from_array = Group(None, _table(g27).astype(np.int64))
    assert from_array.rows == g27.rows and from_array.inv == g27.inv
    assert all(type(x) is int for row in from_array.rows for x in row)
    r243 = get_group("R243")
    q = r243.quotient(r243.center_codes())
    assert q.order == 27 and all(type(x) is int for row in q.rows for x in row)


@pytest.mark.parametrize("name", ["R243", "GSHARP"])
def test_row_structure_matches_array_reference(name):
    # the array formulations the row algorithms replaced
    group = get_group(name)
    t = _table(group)
    n = group.order
    inv = np.nonzero(t == 0)[1]
    assert group.inv == inv.tolist()
    assert group.center_codes() == frozenset(np.nonzero((t == t.T).all(axis=1))[0].tolist())
    gg, hh = np.divmod(np.arange(n * n), n)
    comms = np.unique(t[t[t[gg, hh], inv[gg]], inv[hh]])
    assert group.derived_codes() == group.closure(comms.tolist())
    arr = np.array(sorted(group.derived_codes()))
    assert set(np.unique(t[np.ix_(arr, arr)]).tolist()) == set(arr.tolist())
    classes = sorted({tuple(np.unique(t[t[:, g], inv]).tolist()) for g in range(n)})
    assert group.conjugacy_classes() == [(c[0], c) for c in classes]
    reps, index = np.unique(t[:, arr].min(axis=1), return_inverse=True)
    assert ([list(r) for r in group.quotient(arr.tolist()).rows]
            == index[t[np.ix_(reps, reps)]].tolist())


def test_fresh_r243_rows_stay_small_in_memory():
    Group(schema("G27")).rows  # warm the code paths outside the trace
    tracemalloc.start()
    try:
        group = Group(schema("R243"))  # a fresh instance, not the shared one
        group.rows
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 128 * 2 ** 10  # 80 KiB; 491 KiB as lists of Python ints


def _r729():
    """R243 x Z/3: R243's presentation with a central sixth generator c."""
    r243 = schema("R243")
    return GroupSchema("R729", r243.gens + ("c",), central={0, 1, 5}, conj_rules=r243.conj)


def test_schema_above_256_elements_collects_but_builds_no_table():
    sch, r243 = _r729(), schema("R243")
    for build in (lambda: Group(sch), lambda: Group(sch, [[0] * 729] * 729)):
        with pytest.raises(SchemaError) as info:
            build()
        assert str(info.value) == "R729 table has order 729; byte rows hold at most 256 codes"
    # collection needs no table: c is central of order 3, and the other
    # letters collect as they do in R243
    rng = np.random.default_rng(29)
    for _ in range(50):
        word = rng.integers(6, size=12).tolist()
        assert (groups.collect(sch, word)
                == groups.collect(r243, [l for l in word if l < 5]) + (word.count(5) % 3,))


def test_tables_above_256_elements_are_refused():
    # as ints or as byte rows
    for table in (_cyclic(300), [bytes(300)] * 300):
        with pytest.raises(SchemaError) as info:
            Group(None, table)
        assert str(info.value) == "table has order 300; byte rows hold at most 256 codes"
    # order 256 is the largest that fits, and a planted swap is still caught there
    z256 = _cyclic(256)
    assert all(type(row) is bytes for row in Group(None, z256).rows)
    assert exhaustive_associativity(Group(None, z256)) is None
    assert random_triples_associative(Group(None, z256), 10 ** 5, seed=3) is None
    planted = _planted(z256, 255, 0, 254)
    for check in (exhaustive_associativity, lambda t: random_triples_associative(t, 10 ** 5)):
        witness = check(Group(None, planted))
        assert witness is not None and _violates(planted, witness)


def test_malformed_tables_are_refused():
    for table, message in (([[0, 1], [1]], "row 1 has 1 entries, expected 2"),
                           ([[0, 1, 2], [1, 2, 0], [2, 0, 5]],
                            "row 2 has an entry outside range\\(3\\)"),
                           ([[0, -1], [1, 0]], "row 0 has an entry outside range\\(2\\)"),
                           ([[0, 1], [1, 0], [0, 1]], "row 0 has 2 entries, expected 3"),
                           # byte rows are checked like any other table
                           ([b"\x00\x05", b"\x01\x00"], "row 0 has an entry outside range\\(2\\)"),
                           ([b"\x00\x01\x02", b"\x01\x00"], "row 0 has 3 entries, expected 2"),
                           ([b"\x00\x01", b"\x01"], "row 1 has 1 entries, expected 2"),
                           ([], "has no rows")):
        with pytest.raises(CollectionError, match="^table " + message):
            Group(None, table)
    g27 = get_group("G27")
    rows = [list(row) for row in g27.rows]
    with pytest.raises(CollectionError, match="G27 table has 26 rows, expected 27"):
        Group(g27.schema, rows[:-1])
    rows[4][7] = 27
    with pytest.raises(CollectionError, match="G27 table row 4 has an entry outside"):
        Group(g27.schema, rows)
    rows[4] = rows[4][:-1]
    with pytest.raises(CollectionError, match="G27 table row 4 has 26 entries"):
        Group(g27.schema, rows)


def _light_verdict(table):
    """Light's test, held to the n^3 reference: for each x, (x y) z against
    x (y z) over all y, z at once."""
    bad = exhaustive_associativity(Group(None, table))
    n = len(table)
    assert (bad is None) == all(np.array_equal(table[table[x]], table[x][table])
                                for x in range(n))
    if bad is not None:
        x, s, y = bad
        assert table[table[x, s], y] != table[x, table[s, y]]
    return bad


def test_light_test_agrees_with_the_cubic_reference():
    r243 = get_group("R243")
    tables = [_table(get_group(name, params)) for name, params in CATALOG]
    tables.append(_table(r243.quotient(r243.closure([r243.code(z) for z in ("z12", "z23")]))))
    # relabelled codes: the greedy generating set is a different one
    perm = np.random.default_rng(3).permutation(r243.order)
    relabelled = np.empty_like(_table(r243))
    relabelled[np.ix_(perm, perm)] = perm[_table(r243)]
    for table in tables + [relabelled]:
        assert _light_verdict(table) is None


def test_light_test_agrees_with_the_cubic_reference_on_planted_swaps():
    rng = np.random.default_rng(11)
    caught = 0
    for name in ("G27", "G81", "R243"):
        for _ in range(20):
            table = _table(get_group(name)).copy()
            row = rng.integers(len(table))
            a, b = rng.choice(len(table), 2, replace=False)
            table[row, [a, b]] = table[row, [b, a]]
            caught += _light_verdict(table) is not None
    assert caught == 60


def _order_3_magma_sample():
    """All 113 semigroups of order 3, then a seeded sample of 1000 of the
    other 19,570 magmas, as int16 tables."""
    tables = np.array(list(itertools.product(range(3), repeat=9)),
                      dtype=np.int16).reshape(-1, 3, 3)
    i = np.arange(len(tables))[:, None, None, None]
    x, y, z = np.ix_(range(3), range(3), range(3))
    same = tables[i, tables[i, x, y], z] == tables[i, x, tables[i, y, z]]
    assoc = np.flatnonzero(same.reshape(len(tables), -1).all(axis=1))
    assert len(assoc) == 113
    others = np.setdiff1d(np.arange(len(tables)), assoc)
    picked = np.concatenate([assoc, np.random.default_rng(5).choice(others, 1000, replace=False)])
    return [tables[j] for j in picked]


def test_light_test_agrees_with_the_cubic_reference_on_order_3_magmas():
    # off group tables the greedy set and its closure matter
    verdicts = [_light_verdict(table) is None for table in _order_3_magma_sample()]
    assert sum(verdicts) == 113


def test_random_triples_decide_order_3_magmas_like_the_cubic_reference():
    # 60 codes k at each of the 9 pairs draw every k at every pair, so on
    # order 3 the pass is exhaustive, and a pair it skipped would show
    verdicts = []
    for table in _order_3_magma_sample():
        witness = random_triples_associative(Group(None, table), 9 * 60, seed=0)
        assert witness is None or _violates(table, witness)
        verdicts.append(witness is None)
    assert verdicts == [True] * 113 + [False] * 1000


def test_associativity_passes_stay_small_in_memory():
    # a fresh R243 with its rows built, so its generating set is read inside the trace
    gsharp, r243 = get_group("GSHARP"), Group(schema("R243"))
    r243.rows
    random_triples_associative(gsharp, 10, seed=1)  # warm the code paths outside the trace
    tracemalloc.start()
    try:
        random_triples_associative(gsharp, 10 ** 6, seed=2024)
        random_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        exhaustive_associativity(r243)
        light_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 0.08 MB, mostly the rows padded to 256 bytes, with the codes drawn one g
    # at a time; 1 MB for the codes alone if all were drawn at once
    assert random_peak < 0.25 * 2 ** 20
    # 30 kB on the byte rows, most of it the generating set read cold; 0.23 MB
    # on a uint8 array, 11.6 MB for the n^3 comparison
    assert light_peak < 2 ** 16


def _violates(table, witness):
    g, h, k = witness
    return table[table[g, h], k] != table[g, table[h, k]]


def _cyclic(n):
    """The Cayley table of Z/n as int16."""
    return ((np.arange(n)[:, None] + np.arange(n)) % n).astype(np.int16)


def _planted(table, row, a, b):
    table = table.copy()
    table[row, [a, b]] = table[row, [b, a]]
    return table


def test_random_triples_are_reproducible_from_the_seed():
    planted = _planted(_table(get_group("GSHARP")), 5, 7, 9)
    group = Group(None, planted)
    witness = random_triples_associative(group, 10 ** 6, seed=2024)
    assert witness is not None and _violates(planted, witness)
    assert random_triples_associative(group, 10 ** 6, seed=2024) == witness
    assert all(random_triples_associative(group, 10 ** 5, seed=s) is not None
               for s in range(3))


def _recording_draws(monkeypatch):
    """The rows of codes k that `random_triples_associative` draws, one per
    g, recorded as it draws them."""
    real, draws = groups._uniform_codes, []

    def recording(rng, n, count):
        draws.append(real(rng, n, count))
        return draws[-1]

    monkeypatch.setattr(groups, "_uniform_codes", recording)
    return draws


@pytest.mark.parametrize("n", [3, 243, 256])
def test_random_triples_draw_every_code_and_nothing_else(monkeypatch, n):
    # one row of n m codes for each g, m codes for each pair (g, h)
    draws = _recording_draws(monkeypatch)
    assert random_triples_associative(Group(None, _cyclic(n)), 30000, seed=1) is None
    m = -(-30000 // n ** 2)
    assert [len(ks) for ks in draws] == [n * m] * n
    assert set(itertools.chain.from_iterable(draws)) == set(range(n))


def test_verify_checks_17_codes_at_every_pair_of_gsharp(monkeypatch):
    # 17 x 243^2 = 1,003,833 triples, the least multiple of 243^2 >= 10^6
    draws = _recording_draws(monkeypatch)
    assert verify.check_associativity().passed
    assert [len(ks) for ks in draws] == [17 * 243] * 243
    assert sum(map(len, draws)) == 1_003_833


def _derived_reference(group):
    """The subgroup generated by all n^2 commutators."""
    r, inv, n = group.rows, group.inv, group.order
    return group.closure({r[r[r[g][h]][inv[g]]][inv[h]] for g in range(n) for h in range(n)})


def test_derived_subgroup_from_generator_commutators_matches_all_commutators():
    r243 = get_group("R243")
    groups_ = [get_group(name, params) for name, params in CATALOG]
    groups_ += [r243.quotient(r243.closure([r243.code(z)])) for z in ("z12", "z23")]
    groups_ += [group.quotient(_derived_reference(group)) for group in groups_]
    for group in groups_:
        assert group.derived_codes() == _derived_reference(group)
    assert [len(group.derived_codes()) for group in groups_[14:16]] == [9, 9]
