"""The single-replica float sweep of ``_run_batch`` and the float program of
``compile_exprs``: their bits, their fault handling, and the single-point
evaluation of forces and coefficient fields that uses the same program."""

import math
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgle.expressions import (BinOp, Call, ExpressionError, Num, Var,
                              compile_exprs, diff_expr, parse_expr,
                              validate_expr)
from qgle.fordkac import FordKacSpectrum, fordkac_ensemble
from qgle.model import CoefficientField, Domain, ExtendedState, ForceField, \
    ModelSpec
from qgle.simulate import IntegratorSpec, replay_trajectory, simulate

from conftest import EXAMPLE_GAMMA_ENTRIES, EXAMPLE_SIGMA_ENTRIES, prony_model
from test_simulate import REFERENCE_CASES, assert_same_bytes, \
    reference_extended


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float_operations_have_the_ufuncs_bits():
    # the float sweep and ``_Evaluator.point`` rely on these equalities;
    # a numpy or libm build where they fail must fail here, not change
    # trajectories in the last bit
    rng = np.random.default_rng(2024)
    wide = rng.uniform(-1e6, 1e6, 500_000)
    narrow = rng.uniform(-10.0, 10.0, 500_000)
    # magnitudes from 1e-300 to 1e300, as a euclidean q can reach
    extreme = np.exp(rng.uniform(-690.0, 690.0, 100_000)) \
        * rng.choice([-1.0, 1.0], 100_000)
    x = np.concatenate([wide, narrow, extreme])
    y = np.concatenate([narrow, rng.uniform(-1e6, 1e6, 500_000), extreme[::-1]])
    xs, ys = x.tolist(), y.tolist()
    for ufunc, fn in ((np.sin, math.sin), (np.cos, math.cos)):
        assert _same_bits(list(map(fn, xs)), ufunc(x)), ufunc.__name__
        # a one-element array takes the ufunc's short path
        assert _same_bits([fn(v) for v in xs[:20_000:10]],
                          [ufunc(x[i:i + 1])[0] for i in range(0, 20_000, 10)])
    for ufunc, op in ((np.add, operator.add), (np.subtract, operator.sub),
                      (np.multiply, operator.mul),
                      (np.divide, operator.truediv)):
        with np.errstate(over="ignore"):  # products of the extremes
            assert _same_bits(list(map(op, xs, ys)), ufunc(x, y)), \
                ufunc.__name__
    assert _same_bits([v % 1.0 for v in xs], np.mod(x, 1.0))
    # np.exp of a float is the array result (math.exp rounds differently)
    e = rng.uniform(-700.0, 700.0, 100_000)
    assert _same_bits([np.exp(v) for v in e.tolist()], np.exp(e))


_LEAVES = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False).map(Num),
    st.integers(0, 1).map(Var))
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), sub, sub)),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TREES, min_size=1, max_size=4),
       st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=2,
                max_size=2))
def test_float_program_matches_the_batch_byte_for_byte(trees, point):
    with np.errstate(all="ignore"):
        evaluator = compile_exprs(trees)
        batch = evaluator(np.array([point]))[0]
    try:
        values = evaluator.point(list(point))
    except (ArithmeticError, ValueError):
        # the program gives the point up only where the batch is not a
        # finite value of ordinary floats: a division by 0 or by an
        # infinity, sin or cos of an infinity, or an exp out of range
        return
    assert len(values) == len(trees)
    finite = np.isfinite(values)
    assert np.array_equal(finite, np.isfinite(batch))
    assert _same_bits(np.array(values)[finite], batch[finite])


def test_single_points_take_the_float_program_with_the_batch_bits():
    coeffs = CoefficientField(1, 1, gamma_entries=EXAMPLE_GAMMA_ENTRIES,
                              sigma_entries=EXAMPLE_SIGMA_ENTRIES)
    forces = [ForceField.from_potential_expr(
                  "exp(sin(2*pi*q1))/(2+cos(2*pi*q1)) - q1*q1/3", 1),
              ForceField.nonconservative(1, ["0.5+2*pi*sin(2*pi*q1)"])]
    points = np.random.default_rng(8).uniform(-2.0, 2.0, (200, 1))
    calls = 0
    for point in points:
        for field, batch in ((coeffs.gamma, coeffs.gamma(point[None])),
                             (coeffs.sigma, coeffs.sigma(point[None]))):
            assert _same_bits(field(point), batch[0])
        for force in forces:
            assert _same_bits(force(point), force(point[None])[0])
            if force.is_conservative:
                assert _same_bits(force.grad_potential(point),
                                  force.grad_potential(point[None])[0])
        calls += 1
    assert calls == len(points)
    # the program is what serves a single point
    force = forces[1]
    program = force._columns._registers
    assert program is not None and force(points[0]).shape == (1,)


def test_single_point_that_the_floats_cannot_report_uses_the_batch():
    # (2.25 * 1e300) * 1e300 overflows, silently on floats; the division
    # then drops the infinity, so the point goes to the (1, n) batch, which
    # returns 0 and reports the overflow
    force = ForceField.nonconservative(1, ["1/((2+q1*q1)*1e300*1e300)"])
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        value = force(np.array([0.5]))
    assert value.tolist() == [0.0]
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            force(np.array([0.5]))
    # an overflow that reaches the value is reported too
    coeffs = CoefficientField(1, 1, gamma_entries=[["1", "0"],
                                                   ["0", "q1*1e300*1e300"]],
                              sigma_entries=[["1", "0"], ["0", "1"]])
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        assert coeffs.gamma(np.array([0.5]))[1, 1] == np.inf
    # a caller that does not ignore underflow gets the batch as well
    force = ForceField.nonconservative(1, ["q1*1e-200*1e-200"])
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError):
            force(np.array([0.5]))
    assert force(np.array([0.5])).tolist() == [0.0]


def _silent_model(component):
    """A frictionless, noiseless euclidean model with one expression force
    component."""
    return ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1), beta=1.0,
                     force=ForceField.nonconservative(1, [component]),
                     coeffs=CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                             sigma=np.zeros((2, 2))),
                     Q=np.eye(1))


@pytest.mark.parametrize("component", [
    # the components pass the division screen; at any q a float product
    # overflows and the division or the exp makes the force 0
    "1/((2+q1*q1)*1e300*1e300)",
    "exp(0-(2+q1*q1)*1e300*1e300)"])
@pytest.mark.parametrize("scheme", ["euler_maruyama", "semi_exact_splitting"])
def test_overflow_dropped_by_the_force_warns_like_a_per_step_check(
        scheme, component):
    model = _silent_model(component)
    integ = IntegratorSpec(scheme, dt=0.01, n_steps=5000)
    start = ExtendedState(q=[0.5], p=[1.0], s=[0.0])
    with np.errstate(over="ignore"):
        quiet = simulate(model, integ, start)
    assert np.all(np.isfinite(quiet.q)) and quiet.p[-1, 0] == 1.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        loud = simulate(model, integ, start)
    assert_same_bytes(loud.q, quiet.q)
    assert_same_bytes(loud.p, quiet.p)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            simulate(model, integ, start)


@pytest.mark.parametrize("scheme", ["euler_maruyama", "semi_exact_splitting"])
def test_position_overflow_alone_warns_like_a_per_step_check(scheme):
    # q + dt p overflows to inf while (p, s) stays finite, so only the
    # recorded fault (not the finiteness of the state) calls for the replay
    model = ModelSpec(domain=Domain("euclidean", 1), mass=np.eye(1),
                      beta=1.0, force=ForceField.zero(1),
                      coeffs=CoefficientField(1, 1, gamma=np.zeros((2, 2)),
                                              sigma=np.zeros((2, 2))),
                      Q=np.eye(1))
    integ = IntegratorSpec(scheme, dt=2.0, n_steps=10)
    start = ExtendedState(q=[0.0], p=[1.5e308], s=[0.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        traj = simulate(model, integ, start)
    assert traj.q[-1, 0] == np.inf and traj.p[-1, 0] == 1.5e308
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            simulate(model, integ, start)


@pytest.mark.parametrize("scheme", ["euler_maruyama", "semi_exact_splitting"])
def test_underflow_is_reported_to_a_caller_that_asks(scheme):
    # floats underflow silently, so such a caller gets the numpy steps
    model = _silent_model("q1*1e-200*1e-200")
    integ = IntegratorSpec(scheme, dt=0.01, n_steps=100)
    start = ExtendedState(q=[0.5], p=[1.0], s=[0.0])
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError):
            simulate(model, integ, start)
    assert simulate(model, integ, start).p[-1, 0] == 1.0


@pytest.mark.parametrize("case", [case for case in REFERENCE_CASES
                                  if "posdep" not in case])
def test_single_replica_constant_runs_take_the_sweep_throughout(
        case, monkeypatch):
    # a sweep that failed on every chunk would still give the reference
    # bits, through the numpy replay, so count the numpy steps: none runs
    module = sys.modules["qgle.simulate"]
    step_chunks, counts = module._step_chunks, {"sweeps": 0, "steps": 0}

    def counting(n_steps, stride, state, body, finite, store, chunk, begin,
                 sweep):
        def counted_body(k):
            counts["steps"] += 1
            body(k)

        def counted_sweep(*args):
            counts["sweeps"] += 1
            return sweep(*args)
        return step_chunks(n_steps, stride, state, counted_body, finite,
                           store, chunk, begin, counted_sweep)

    monkeypatch.setattr(module, "_step_chunks", counting)
    make_model, scheme = REFERENCE_CASES[case]
    model = make_model()
    integ = IntegratorSpec(scheme, dt=0.01, n_steps=4100, seed=17, stride=3)
    start = ExtendedState(q=np.linspace(0.3, 0.6, model.n),
                          p=np.linspace(0.5, -0.4, model.n),
                          s=np.full(model.m, -0.2))
    simulate(model, integ, start)
    assert counts == {"sweeps": 2, "steps": 0}


def test_wide_single_replica_run_matches_reference_steps_bitwise():
    # n+m = 33, the widest model of the benchmark's kernel sweep: the float
    # sweep keeps the one-row BLAS product of the 33-wide state
    model = prony_model(modes=[(0.2 + 0.05 * i, 0.5 + 0.1 * i)
                               for i in range(32)])
    integ = IntegratorSpec("semi_exact_splitting", dt=0.01, n_steps=4100,
                           seed=29, store_noise=True, stride=3)
    start = ExtendedState(q=[0.3], p=[0.5], s=np.linspace(-0.4, 0.4, 32))
    traj = simulate(model, integ, start)
    expected = reference_extended(
        model, integ.scheme, integ.dt, integ.n_steps, integ.stride,
        np.array([[0.3]]), np.array([[0.5]]), start.s[None],
        traj.noise[None])
    got = (traj.times, traj.q[None], traj.p[None], traj.s[None])
    for a, b in zip(got, expected):
        assert_same_bytes(a, b)
    replayed = replay_trajectory(model, traj)
    for a, b in ((replayed.q, traj.q), (replayed.p, traj.p),
                 (replayed.s, traj.s)):
        assert_same_bytes(a, b)


def test_quotient_by_a_tiny_or_huge_constant_keeps_its_value():
    # r*r of a constant denominator r underflows (1e-170) or overflows
    # (1e200); the derivative divides by r once instead
    force = ForceField.from_potential_expr("q1*q1/1e-170", 1)
    q = np.array([[0.5], [1e-160]])
    assert force.grad_potential(q)[:, 0].tolist() == [1e170, 2e10]
    assert force.grad_potential(q[1]).tolist() == [2e10]
    slope = diff_expr(parse_expr("2*pi*q1/1e-200"), 0)
    assert compile_exprs([slope])(np.zeros((1, 1)))[0, 0] == \
        2 * math.pi / 1e-200
    # slopes of one turn, whose quotient rule formed inf/inf or 0/0
    for text in ("cos(2*pi*1e-200*q1/1e-200)", "cos(2*pi*1e200*q1/1e200)"):
        validate_expr(parse_expr(text), 1, torus=True)
    # a denominator whose square is a normal float keeps the quotient rule
    assert diff_expr(parse_expr("q1/3"), 0) == parse_expr("3/(3*3)")


def test_torus_screen_bounds_the_number_of_turns():
    validate_expr(parse_expr("sin(2*pi*1000000*q1)"), 1, torus=True)
    for text in ("sin(1e17*q1)", "cos(2*pi*q1/1e-200)",
                 "sin(2*pi*1e10*q1)"):
        with pytest.raises(ExpressionError, match="on a torus"):
            validate_expr(parse_expr(text), 1, torus=True)


@pytest.mark.parametrize("force", [None, ForceField.harmonic([[1.5]])])
def test_fordkac_ensemble_checks_beta_before_it_draws(force):
    spectrum = FordKacSpectrum(((1.0, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^beta must be positive"):
            fordkac_ensemble(force, spectrum, beta=-1.0, dt=1e-2, T=0.1,
                             seed=0, n_replicas=4)
