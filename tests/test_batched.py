"""The batched k-panel pass against its oracle, the scalar functions.

Every comparison is exact (==): the batched gap, bound, ratio and verdict
must equal engine.hadamard_gap/hadamard_bound, engine.bullen_gap/
bullen_bound and engine.verify bit for bit, so no report changes; the
verify commands and sweep both run on the batched pass.
"""

import itertools
import math

import numpy as np
import pytest

from fracbound import bounds, engine
from fracbound.bounds import (BullenConfig, HadamardConfig, InconsistencyError,
                              PanelConfigs, abs_moments_closed, v_bullen, v_hadamard)
from fracbound.cli import RunConfig, cmd_sweep, cmd_verify_bullen, cmd_verify_hadamard
from fracbound.corpus import (WitnessArrays, exact_rl_left, exact_rl_mid,
                              exact_rl_panels, exact_rl_right, random_lipschitz,
                              random_lipschitz_arrays, tent, to_text)
from fracbound.quadrature import DomainError, Interval, Order, power_array

ALPHAS = (0.25, 0.5, 1.0, 1.5, 3.5)
INTERVALS = (Interval(0.0, 1.0), Interval(-3.0, 5.0), Interval(1000.0, 1002.0))
TWO_NODE_LAMS = (0.0, 0.3, 0.5, 0.8, 1.0)
THREE_NODE_WEIGHTS = ((0.2, 0.5, 0.3), (0.0, 0.6, 0.4), (0.35, 0.0, 0.65),
                      (0.45, 0.55, 0.0), (1.0, 0.0, 0.0))


def witnesses(itv: Interval):
    return (random_lipschitz(11, itv), random_lipschitz(12, itv, m_max=0.0),
            random_lipschitz(13, itv, segments=1),
            engine.corpus.LipschitzWitness(tent(itv, (itv.a + itv.b) / 2.0), 1.0))


def node_candidates(itv: Interval, edges) -> list:
    """Interval ends, panel edges and panel midpoints: every sorted choice
    of k of them (with repetition) hits every ordering case, ties included."""
    points = set(edges) | {itv.a, itv.b}
    cuts = sorted(points)
    points |= {(lo + hi) / 2.0 for lo, hi in zip(cuts, cuts[1:])}
    return sorted(points)


def two_node_cases(itv: Interval):
    for alpha, lam in itertools.product(ALPHAS, TWO_NODE_LAMS):
        v = HadamardConfig(itv, Order(alpha), lam, itv.a, itv.a).v_node
        for nodes in itertools.combinations_with_replacement(node_candidates(itv, (v,)), 2):
            yield HadamardConfig(itv, Order(alpha), lam, *nodes), (lam, 1.0 - lam), nodes


def three_node_cases(itv: Interval):
    for alpha, weights in itertools.product(ALPHAS, THREE_NODE_WEIGHTS):
        probe = BullenConfig(itv, Order(alpha), *weights, itv.a, itv.a, itv.a)
        edges = (probe.v1_node, probe.v2_node)
        for nodes in itertools.combinations_with_replacement(node_candidates(itv, edges), 3):
            yield BullenConfig(itv, Order(alpha), *weights, *nodes), weights, nodes


SCALAR = {
    2: (two_node_cases, engine.hadamard_gap, engine.hadamard_bound, v_hadamard),
    3: (three_node_cases, engine.bullen_gap, engine.bullen_bound, v_bullen),
}


@pytest.mark.parametrize("itv", INTERVALS, ids=lambda i: f"[{i.a:g},{i.b:g}]")
@pytest.mark.parametrize("k", (2, 3))
def test_batched_equals_scalar_exactly(k, itv):
    cases_fn, gap_fn, bound_fn, v_fn = SCALAR[k]
    cases = list(cases_fn(itv))
    tags = {v_fn(cfg).case_tag for cfg, _, _ in cases}
    assert len(tags) == (3 if k == 2 else 8)
    batch = PanelConfigs(itv, [cfg.order.alpha for cfg, _, _ in cases],
                         [w for _, w, _ in cases], [x for _, _, x in cases])
    for witness in witnesses(itv):
        rows = WitnessArrays.repeat(witness, len(cases))
        gap = engine.panel_gap(batch, rows)
        bound = engine.panel_bound(batch, rows.constants)
        ratio, passed = engine.verify_panels(gap, bound)
        want = []
        for cfg, _, _ in cases:
            g = gap_fn(cfg, witness)
            bd = bound_fn(cfg, witness.constant)
            res = engine.verify(g, bd)
            want.append((g, bd, res.ratio, res.passed))
        got = list(zip(gap.tolist(), bound.tolist(), ratio.tolist(), passed.tolist()))
        mismatched = [(cfg, w, g) for cfg, w, g in zip((c for c, _, _ in cases), want, got)
                      if w != g]
        assert not mismatched, mismatched[:3]


@pytest.mark.parametrize("itv", INTERVALS, ids=lambda i: f"[{i.a:g},{i.b:g}]")
@pytest.mark.parametrize("k", (2, 3))
def test_batched_quadrature_gap_equals_scalar_exactly(k, itv):
    # Every panel of every row in one oracle call, each row on its own
    # witness, gives the bits of the one-row calls config_gap makes.
    cases = list(SCALAR[k][0](itv))[::5]
    batch = PanelConfigs(itv, [cfg.order.alpha for cfg, _, _ in cases],
                         [w for _, w, _ in cases], [x for _, _, x in cases])
    rows = random_lipschitz_arrays(range(len(cases)), itv)
    gap, converged = engine.panel_quadrature_gap(batch, rows)
    assert converged.all()
    want = [engine.config_gap(cfg.panels, rows.witness(i), method="quadrature")
            for i, (cfg, _, _) in enumerate(cases)]
    assert gap.tolist() == want


@pytest.mark.parametrize("k", (2, 3))
def test_batched_edges_encodings_and_panel_integrals_exact(k):
    itv = Interval(-3.0, 5.0)
    cases = list(SCALAR[k][0](itv))
    batch = PanelConfigs(itv, [cfg.order.alpha for cfg, _, _ in cases],
                         [w for _, w, _ in cases], [x for _, _, x in cases])
    nodes, edges = batch.nodes, batch.edges
    assembled = abs_moments_closed(-nodes[:, 0], -edges[:, 1], -edges[:, 0], batch.alpha)
    for p in range(1, k):
        assembled = assembled + abs_moments_closed(nodes[:, p], edges[:, p], edges[:, p + 1],
                                                   batch.alpha)
    breakdowns = [SCALAR[k][3](cfg) for cfg, _, _ in cases]
    assert assembled.tolist() == [bd.cross_total for bd in breakdowns]
    assert bounds.v_panels(batch).tolist() == [bd.total for bd in breakdowns]
    f = random_lipschitz(5, itv).function
    rows = WitnessArrays.repeat(random_lipschitz(5, itv), len(cases))
    panels = exact_rl_panels(rows, batch.edges, batch.alpha)
    for i, (cfg, _, _) in enumerate(cases):
        edges = (cfg.v_node,) if k == 2 else (cfg.v1_node, cfg.v2_node)
        assert batch.edges[i].tolist() == [itv.a, *edges, itv.b]
        assert batch.row(i) == cfg.panels
        want = [exact_rl_left(f, cfg.order, edges[0])]
        want += [exact_rl_mid(f, lo, hi, cfg.order) for lo, hi in zip(edges, edges[1:])]
        want += [exact_rl_right(f, cfg.order, edges[-1])]
        assert panels[i].tolist() == want


@pytest.mark.parametrize("itv", INTERVALS, ids=lambda i: f"[{i.a:g},{i.b:g}]")
@pytest.mark.parametrize("functional", ("hadamard", "bullen"))
def test_sweep_equals_scalar_configs_exactly(functional, itv, tmp_path):
    # sweep runs on the batched pass; its grid through the scalar configs
    # must give the same records, bit for bit.
    witness = random_lipschitz(7, itv)
    path = tmp_path / "witness.txt"
    path.write_text(to_text(witness.function))
    rep = cmd_sweep(RunConfig(trials=1, alpha_grid=ALPHAS, interval=itv), functional,
                    witness_path=str(path))
    a, b = itv.a, itv.b
    for rec in rep.records:
        order, lam, delta = Order(rec["alpha"]), rec["lam"], rec["delta"]
        outer = (delta * a + (1.0 - delta) * b, (1.0 - delta) * a + delta * b)
        if functional == "hadamard":
            cfg = HadamardConfig(itv, order, lam, *outer)
            gap_fn, bound_fn = engine.hadamard_gap, engine.hadamard_bound
        else:
            eta = rec["eta"]
            cfg = BullenConfig(itv, order, lam, eta, 1.0 - lam - eta,
                               outer[0], (a + b) / 2.0, outer[1])
            gap_fn, bound_fn = engine.bullen_gap, engine.bullen_bound
        gap, bound = gap_fn(cfg, witness), bound_fn(cfg, witness.constant)
        want = (gap, bound, engine.verify(gap, bound).ratio)
        assert (rec["gap"], rec["bound"], rec["ratio"]) == want


def test_witness_arrays_equal_scalar_witnesses():
    itv = Interval(-3.0, 5.0)
    seeds = [0, 7, 2 ** 62 + 5, 123456789]
    arrays = random_lipschitz_arrays(seeds, itv, m_max=1.5)
    probes = np.array([[-4.0, -3.0, -1.2345, 0.0, 2.5, 4.999, 5.0, 6.0]] * len(seeds))
    values = arrays(probes)
    for i, seed in enumerate(seeds):
        w = random_lipschitz(seed, itv, m_max=1.5)
        assert arrays.witness(i) == w
        points = list(probes[i]) + list(w.function.breakpoints)
        got = arrays(np.array([points])[[0] * len(seeds)])[i].tolist()
        assert got == [w.function(t) for t in points]
        assert values[i].tolist() == [w.function(t) for t in probes[i]]


def test_power_array_is_libm_pow():
    rng = np.random.default_rng(3)
    base = np.concatenate([rng.uniform(0.0, 3.0, 5000), [0.0, -0.0, -1e-17, 1.0, 2.0]])
    for e in (0.25, 0.5, 1.0, 1.5, 3.5, 4.5):
        want = [0.0 if x <= 0.0 else x ** e for x in base.tolist()]
        assert power_array(base, e).tolist() == want
    with pytest.raises(OverflowError):
        power_array(np.array([1e10]), 170.0)


# ----------------------------------------------------------------------
# the checks the scalar configs and bound run still fire
# ----------------------------------------------------------------------

ITV = Interval(0.0, 1.0)


@pytest.mark.parametrize("weights, nodes", [
    ([[1.5, -0.5]], [[0.2, 0.4]]),                  # lam outside [0, 1]
    ([[0.3, 0.3, 0.3]], [[0.2, 0.4, 0.6]]),         # weights do not sum to 1
    ([[-0.1, 0.6, 0.5]], [[0.2, 0.4, 0.6]]),        # negative weight
    ([[0.5, 0.5]], [[0.4, 0.2]]),                   # nodes out of order
    ([[0.2, 0.5, 0.3]], [[0.2, 0.6, 0.4]]),
    ([[0.2, 0.5, 0.3]], [[-0.1, 0.4, 0.6]]),        # node outside the interval
    ([[0.5, 0.5]], [[0.2, 1.5]]),
])
def test_panel_configs_reject_what_scalar_configs_reject(weights, nodes):
    w, x = weights[0], nodes[0]
    with pytest.raises(DomainError):
        if len(x) == 2:
            HadamardConfig(ITV, Order(1.0), w[0], *x)
        else:
            BullenConfig(ITV, Order(1.0), *w, *x)
    ok_w = [[0.5, 0.5]] if len(x) == 2 else [[0.2, 0.5, 0.3]]
    ok_x = [[0.2, 0.4]] if len(x) == 2 else [[0.2, 0.4, 0.6]]
    with pytest.raises(DomainError):
        PanelConfigs(ITV, [1.0, 1.0], ok_w + weights, ok_x + nodes)


def test_panel_configs_reject_bad_orders():
    with pytest.raises(DomainError):
        PanelConfigs(ITV, [200.0], [[0.5, 0.5]], [[0.2, 0.4]])
    with pytest.raises(DomainError):
        PanelConfigs(ITV, [math.nan], [[0.5, 0.5]], [[0.2, 0.4]])


def _corrupt(fn, index, delta):
    def corrupted(*args):
        out = fn(*args)
        arr = out[0] if isinstance(out, tuple) else out
        arr[index] += delta
        return out
    return corrupted


@pytest.mark.parametrize("sweep", (cmd_verify_hadamard, cmd_verify_bullen))
def test_corrupted_literal_term_raises(sweep, monkeypatch):
    # row 5, the node term of the first panel
    monkeypatch.setattr(bounds, "_literal_terms", _corrupt(bounds._literal_terms, (5, 1), 1e-6))
    with pytest.raises(InconsistencyError, match="row 5"):
        sweep(RunConfig(trials=3))


@pytest.mark.parametrize("sweep", (cmd_verify_hadamard, cmd_verify_bullen))
def test_corrupted_assembled_moment_raises(sweep, monkeypatch):
    # row 7 of every panel moment
    monkeypatch.setattr(bounds, "abs_moments_closed",
                        _corrupt(bounds.abs_moments_closed, 7, -1e-6))
    with pytest.raises(InconsistencyError, match="row 7"):
        sweep(RunConfig(trials=3))


@pytest.mark.parametrize("sweep", (cmd_verify_hadamard, cmd_verify_bullen))
def test_slip_in_a_literal_panel_expression_raises(sweep, monkeypatch):
    # The moment encoding shares no expression with the literal one, so a
    # slip in one per-panel literal expression (here the middle-branch
    # node term of panel 1, off by 1e-3 relative) reaches the guard.
    panel_forms = bounds._panel_forms

    def slipped(cfg):
        parts = panel_forms(cfg)
        parts[1][0]["middle"] *= 1.0 + 1e-3
        return parts

    monkeypatch.setattr(bounds, "_panel_forms", slipped)
    with pytest.raises(InconsistencyError, match="literal="):
        sweep(RunConfig(trials=200))


def test_negative_bound_total_raises(monkeypatch):
    def negated(fn):
        def inner(*args):
            out = fn(*args)
            arr = out[0] if isinstance(out, tuple) else out
            arr *= -1.0
            return out
        return inner
    monkeypatch.setattr(bounds, "_literal_terms", negated(bounds._literal_terms))
    monkeypatch.setattr(bounds, "abs_moments_closed", negated(bounds.abs_moments_closed))
    with pytest.raises(InconsistencyError, match="nonnegative"):
        cmd_verify_bullen(RunConfig(trials=2))


def test_verify_panels_matches_verify_and_rejects_negatives():
    gap = np.array([0.0, 0.5, 1.0, 1.0, 2.0 + 3e-9, 1e-10])
    bound = np.array([0.0, 0.5, 0.5, 0.0, 2.0, 0.0])
    ratio, passed = engine.verify_panels(gap, bound)
    for g, bd, r, p in zip(gap.tolist(), bound.tolist(), ratio.tolist(), passed.tolist()):
        res = engine.verify(g, bd)
        assert (r, p) == (res.ratio, res.passed)
    with pytest.raises(DomainError):
        engine.verify_panels(np.array([0.1]), np.array([-1e-13]))


# ----------------------------------------------------------------------
# the corollary audit against a scalar reference
# ----------------------------------------------------------------------

def reference_instances(itv: Interval, order: Order):
    """(formula_id, params, printed, scalar config, side scale) of every
    audited instance, in report order, through the scalar configs."""
    a, b, width, alpha = itv.a, itv.b, itv.width, order.alpha
    pw = bounds._pw
    lambdas, deltas = engine.AUDIT_LAMBDAS, engine.AUDIT_DELTAS
    for lam in lambdas:
        for delta in deltas:
            cfg = HadamardConfig(itv, order, lam, delta * a + (1.0 - delta) * b,
                                 (1.0 - delta) * a + delta * b)
            yield ("symmetric_pair_coeff", (("lam", lam), ("delta", delta)),
                   bounds.l_coeff(order, lam, delta) * width / (alpha + 1.0), cfg, 1.0)
    for lam in lambdas:
        v = (1.0 - lam) * a + lam * b
        yield ("coincident_node_bound", (("lam", lam),),
               (pw(v - a, alpha + 1.0) + pw(b - v, alpha + 1.0)) / ((alpha + 1.0) * width ** alpha),
               HadamardConfig(itv, order, lam, v, v), 1.0)
    for lam in lambdas:
        yield ("endpoint_pair_bound", (("lam", lam),),
               alpha * width * (pw(lam, alpha + 1.0) + pw(1.0 - lam, alpha + 1.0)) / (alpha + 1.0),
               HadamardConfig(itv, order, lam, a, b), 1.0)
    for lam in lambdas:
        for dn in engine.AUDIT_NODE_DELTAS:
            node = dn * a + (1.0 - dn) * b
            yield ("shifted_single_node_bound", (("lam", lam), ("node_delta", dn)),
                   width * (pw(dn, alpha + 1.0) + pw(1.0 - dn, alpha + 1.0)) / (alpha + 1.0),
                   HadamardConfig(itv, order, lam, node, node), 1.0)
    yield ("quarter_pair_bound", (("lam", 0.5), ("delta", 0.75)),
           width * (1.0 + 2.0 ** (alpha - 1.0) * (alpha - 1.0))
           / (2.0 ** (alpha + 1.0) * (alpha + 1.0)),
           HadamardConfig(itv, order, 0.5, (3.0 * a + b) / 4.0, (a + 3.0 * b) / 4.0),
           2.0 ** (alpha - 1.0))
    for lam, eta in engine.AUDIT_SIMPLEX:
        for delta in deltas:
            cfg = BullenConfig(itv, order, lam, eta, 1.0 - lam - eta,
                               delta * a + (1.0 - delta) * b, (a + b) / 2.0,
                               (1.0 - delta) * a + delta * b)
            yield (f"midpoint_triple_coeff_case{bounds.n_case_index(lam, eta, delta)}",
                   (("lam", lam), ("eta", eta), ("delta", delta)),
                   bounds.n_coeff(order, lam, eta, delta) * width / (alpha + 1.0), cfg, 1.0)

    def theta_cfg(theta):
        return BullenConfig(itv, order, theta / 2.0, 1.0 - theta, theta / 2.0,
                            a, (a + b) / 2.0, b)
    for theta in engine.AUDIT_THETAS:
        yield ("theta_weighted_triple_bound", (("theta", theta),),
               bounds.weighted_bullen_coeff(order, theta) * width / (alpha + 1.0),
               theta_cfg(theta), 1.0)
    yield ("bullen_theta_half_bound", (("theta", 0.5),),
           bounds.bullen_remark_coeff(alpha) * width, theta_cfg(0.5), 2.0 ** (alpha - 1.0))
    yield ("simpson_theta_third_bound", (("theta", 1.0 / 3.0),),
           bounds.simpson_remark_coeff(alpha) * width, theta_cfg(1.0 / 3.0),
           6.0 ** (alpha - 1.0))


def reference_finding(order, formula_id, pt, printed, cfg, scale, witness_list):
    """One finding by the scalar path: the bound of the config, and the
    first witness of largest ratio against the smaller agreeing bound."""
    bound_fn = engine.hadamard_bound if isinstance(cfg, HadamardConfig) else engine.bullen_bound
    oracle = scale * bound_fn(cfg, 1.0)
    deviation = abs(printed - oracle)
    coeff = min(printed, oracle) if deviation <= engine.ERRATUM_THRESHOLD else oracle
    worst = None
    for w in witness_list:
        res = engine.verify(scale * engine.config_gap(cfg.panels, w), coeff * w.constant)
        if worst is None or res.ratio > worst.ratio:
            worst = res
    params = (("alpha", order.alpha),) + pt
    erratum = (engine.ErratumEntry(formula_id, deviation, params)
               if deviation > engine.ERRATUM_THRESHOLD else None)
    return engine.CorollaryFinding(formula_id, params, printed, oracle, deviation, worst,
                                   erratum)


@pytest.mark.parametrize("seeds", [(101, 202, 303), (8, 9, 10)], ids=str)
def test_corollary_suite_equals_scalar_reference(seeds):
    itv = Interval(0.0, 1.0)
    witness_list = [random_lipschitz(s, itv) for s in seeds]
    for alpha in (1e-6, 0.25, 1.0, 1.5, 3.5, 30.0, 170.0):
        order = Order(alpha)
        want = [reference_finding(order, *inst, witness_list)
                for inst in reference_instances(itv, order)]
        got = engine.corollary_suite(itv, order, seeds)
        assert len(got) == len(want) == 192
        for g, w in zip(got, want):
            assert (g.formula_id, g.params) == (w.formula_id, w.params)
            assert g.as_record() == w.as_record(), g.formula_id
            assert g.gap_result == w.gap_result and g.erratum == w.erratum
