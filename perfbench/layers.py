"""Per-layer metrics of the traced run, and what each one should move.

Each entry of LAYERS is (metric, site, stat, moves):

- metric: the name printed with --trace 1 and listed in BENCHMARK.json.
- site: "<module>.<name>" or "<module>.<Class>.<method>" inside spinchar, the
  function the tracer wraps, or None for a metric the harness measures itself.
- stat: "calls", "s" (inclusive seconds), "self_s" (inclusive seconds minus
  child spans) or "hit_ratio" (calls that returned a value / calls).
- moves: {workload: [metrics]} -- the end-to-end metric (wall_s, setup_s) and
  the per-command wall time (cmd.*_s) the layer should move, per workload.
  A traced run fails if the site records zero calls on a mapped workload.

SITES maps each site to its wrapper kind: "span" records time and calls,
"count" only calls (used on the scalar and matrix hot paths), "hits" is a
span that also counts non-None results.
"""

CHECKS = ("orders", "structure", "automorphism", "orbits", "anchors",
          "intertwiner", "characters", "census", "orthogonality", "cocycle",
          "associativity", "representations", "stairways")
STRUCTURAL_CHECKS = ("orders", "structure", "automorphism", "orbits",
                     "associativity")
COMMANDS = ("verify", "chartable", "irreps", "cocycle", "group")

_V = {"verify-full": ["wall_s", "cmd.verify_s"]}
_VS = {"verify-full": ["wall_s", "cmd.verify_s"],
       "structure": ["wall_s", "cmd.verify_s"]}
_S = {"structure": ["wall_s", "cmd.group_s", "cmd.verify_s"]}
_S_VERIFY = {"structure": ["wall_s", "cmd.verify_s"]}
_COCYCLE = {"verify-full": ["wall_s", "cmd.verify_s"],
            "export": ["wall_s", "cmd.cocycle_s"]}
_EXPORT = {"export": ["wall_s", "cmd.chartable_s", "cmd.irreps_s", "cmd.cocycle_s"]}
_TABLE = {"export": ["wall_s", "cmd.chartable_s", "cmd.irreps_s"]}
_SETUP = {w: ["setup_s"] for w in ("verify-full", "export", "structure")}

LAYERS = [
    ("cli.import_s", None, "import_s", _SETUP),
    ("cli.main.self_s", "cli.main", "self_s", _EXPORT),
]
LAYERS += [("verify.check_%s.s" % c, "verify.check_%s" % c, "s",
            _VS if c in STRUCTURAL_CHECKS else _V) for c in CHECKS]
LAYERS += [
    ("spinrep.restrict_to_projective.calls", "spinrep.restrict_to_projective", "calls", _COCYCLE),
    ("spinrep.restrict_to_projective.s", "spinrep.restrict_to_projective", "s", _COCYCLE),
    ("spinrep.restrict_to_projective.self_s", "spinrep.restrict_to_projective", "self_s", _COCYCLE),
    ("spinrep.CocycleTable.identity_violation.s", "spinrep.CocycleTable.identity_violation", "s", _COCYCLE),
    ("spinrep.CharTable.gram_matrix.s", "spinrep.CharTable.gram_matrix", "s", _V),
    ("spinrep.CharTable.column_orthogonality_violation.s",
     "spinrep.CharTable.column_orthogonality_violation", "s", _V),
    ("spinrep.g27_nonspin_catalog.s", "spinrep.g27_nonspin_catalog", "s", _TABLE),
    ("spinrep.g81_partial_catalog.s", "spinrep.g81_partial_catalog", "s", _TABLE),
    ("spinrep.gbar_partial_catalog.s", "spinrep.gbar_partial_catalog", "s", _TABLE),
    ("spinrep.r243_pure_catalog.s", "spinrep.r243_pure_catalog", "s", _TABLE),
    ("spinrep.solve_intertwiner.calls", "spinrep.solve_intertwiner", "calls", _TABLE),
    ("spinrep.solve_intertwiner.s", "spinrep.solve_intertwiner", "s", _TABLE),
    ("spinrep.spin_character_table.s", "spinrep.spin_character_table", "s",
     {"export": ["wall_s", "cmd.chartable_s"]}),
    ("spinrep.verify_rep.calls", "spinrep.verify_rep", "calls", _V),
    ("spinrep.verify_rep.s", "spinrep.verify_rep", "s", _V),
    ("spinrep.mu_route_direct.s", "spinrep.mu_route_direct", "s", _V),
    ("spinrep.Representation.eval.calls", "spinrep.Representation.eval", "calls", _V),
    ("mackey.induce.calls", "mackey.induce", "calls", _EXPORT),
    ("mackey.induce.s", "mackey.induce", "s", _EXPORT),
    ("mackey.orbit_decomposition.s", "mackey.orbit_decomposition", "s", _EXPORT),
    ("mackey.dual_group.s", "mackey.dual_group", "s", _EXPORT),
    ("mackey.SubRep.verify.s", "mackey.SubRep.verify", "s", _EXPORT),
    ("linalg.CycMatrix.mul.calls", "linalg.CycMatrix.__mul__", "calls", _V),
    ("linalg.CycMatrix.inverse.calls", "linalg.CycMatrix.inverse", "calls", _V),
    ("linalg.intertwiner_space.s", "linalg.intertwiner_space", "s",
     {"export": ["wall_s", "cmd.chartable_s"]}),
    ("linalg.nullspace.calls", "linalg.nullspace", "calls",
     {"export": ["wall_s", "cmd.chartable_s"]}),
    ("linalg.nullspace.s", "linalg.nullspace", "s",
     {"export": ["wall_s", "cmd.chartable_s"]}),
    ("cyclo.Cyc.mul.calls", "cyclo.Cyc.__mul__", "calls", _V),
    ("cyclo9.Cyc9.mul.calls", "cyclo9.Cyc9.__mul__", "calls", _V),
    ("cyclo.cyc_cbrt.calls", "cyclo.cyc_cbrt", "calls", _EXPORT),
    ("cyclo.cyc_cbrt.s", "cyclo.cyc_cbrt", "s", _EXPORT),
    ("cyclo.cyc_cbrt.hit_ratio", "cyclo.cyc_cbrt", "hit_ratio", _EXPORT),
    ("cyclo9.cyc9_cbrt.calls", "cyclo9.cyc9_cbrt", "calls", _EXPORT),
    ("cyclo9.cyc9_cbrt.s", "cyclo9.cyc9_cbrt", "s", _EXPORT),
    ("cyclo9.scalar_str.calls", "cyclo9.scalar_str", "calls", _EXPORT),
    ("cyclo9.scalar_str.s", "cyclo9.scalar_str", "s", _EXPORT),
    ("groups.collect.calls", "groups.collect", "calls", _S),
    ("groups.collect.s", "groups.collect", "s", _S),
    ("groups.Group.enumerate_elements.s", "groups.Group.enumerate_elements", "s", _S),
    ("groups.Group.conjugacy_classes.s", "groups.Group.conjugacy_classes", "s", _S),
    ("groups.verify_efficient_covering.s", "groups.verify_efficient_covering", "s", _S),
    ("groups.verify_phi_automorphism.s", "groups.verify_phi_automorphism", "s", _S_VERIFY),
    ("groups.isomorphism_fingerprint.s", "groups.isomorphism_fingerprint", "s", _S),
    ("groups.exhaustive_associativity.s", "groups.exhaustive_associativity", "s", _S_VERIFY),
    ("groups.random_triples_associative.s", "groups.random_triples_associative", "s", _S_VERIFY),
]
# Per-command wall time of the untraced pass of a traced run: the breakdown
# of wall_s that the layer metrics above point at.
LAYERS += [("cmd.%s_s" % c, None, "cmd_s", {}) for c in COMMANDS]
LAYERS += [("trace.overhead_s", None, "overhead_s", {})]

_COUNTERS = {"linalg.CycMatrix.__mul__", "linalg.CycMatrix.inverse",
             "cyclo.Cyc.__mul__", "cyclo9.Cyc9.__mul__",
             "spinrep.Representation.eval"}
_HITS = {"cyclo.cyc_cbrt"}
SITES = {site: "count" if site in _COUNTERS else "hits" if site in _HITS else "span"
         for _metric, site, _stat, _moves in LAYERS if site is not None}


def unit_of(stat):
    if stat == "calls":
        return "count"
    if stat == "hit_ratio":
        return "ratio"
    return "s"


def better_of(stat):
    return "higher" if stat == "hit_ratio" else "lower"


def per_layer_spec():
    """The per_layer list of BENCHMARK.json, in LAYERS order."""
    return [{"name": m, "unit": unit_of(stat), "better": better_of(stat)}
            for m, _site, stat, _moves in LAYERS]
