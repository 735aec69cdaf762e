import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgle.expressions import (
    BinOp,
    Call,
    ExpressionError,
    Num,
    Var,
    compile_exprs,
    diff_expr,
    parse_expr,
    screen_torus_periodicity,
    validate_expr,
)


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def eval_expr(expr, q):
    """Tree-walking reference evaluator for ``compile_exprs``.

    ``q`` is an ``(n,)`` point or an ``(R, n)`` batch; the result is a scalar
    or an ``(R,)`` array, broadcast with numpy ufuncs.
    """
    q = np.asarray(q, dtype=float)
    if isinstance(expr, Num):
        if q.ndim == 2:
            return np.full(q.shape[0], expr.value)
        return np.float64(expr.value)  # IEEE semantics, also for division
    if isinstance(expr, Var):
        return q[..., expr.index]
    if isinstance(expr, Call):
        return _UFUNCS[expr.func](eval_expr(expr.arg, q))
    left = eval_expr(expr.left, q)
    right = eval_expr(expr.right, q)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    with np.errstate(divide="ignore", invalid="ignore"):
        return left / right


def test_example_entry_at_zero():
    assert eval_expr(parse_expr("2+cos(2*pi*q1)"), np.array([0.0])) == pytest.approx(3.0)


def test_square():
    assert eval_expr(parse_expr("q1*q1"), np.array([0.5])) == pytest.approx(0.25)


def test_division_screen_rejects_torus_zero_crossing():
    with pytest.raises(ExpressionError):
        validate_expr(parse_expr("1/(q1)"), 1, torus=True)


def test_division_screen_allows_safe_denominator():
    validate_expr(parse_expr("1/(2+cos(2*pi*q1))"), 1, torus=True)


def test_euclidean_division_screen_covers_the_real_line():
    # the screen runs over R^n on every domain: 1/(2+q1) is singular at
    # q1 = -2, off the torus's unit cell, and is rejected on both
    for torus in (False, True):
        with pytest.raises(ExpressionError, match="over R\\^n"):
            validate_expr(parse_expr("1/(2+q1)"), 1, torus=torus)
    for text in ("1/(q1-2)", "1/(0*q1)", "1/(q1*exp(q1))",
                 "1/(1e999-1e999)"):
        with pytest.raises(ExpressionError):
            validate_expr(parse_expr(text), 1, torus=False)
    for text in ("1/(2+cos(q1))", "1/(1+q1*q1)", "1/(1+exp(q1)*exp(q1))"):
        validate_expr(parse_expr(text), 1, torus=False)
    validate_expr(parse_expr("1/(2+cos(2*pi*q1))"), 1, torus=True)


def test_parse_errors_have_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expr("2+cos(2*pi*q1")
    assert "offset" in str(err.value)
    with pytest.raises(ExpressionError):
        parse_expr("2 $ 3")
    with pytest.raises(ExpressionError):
        parse_expr("foo(q1)")


def test_unary_minus_and_precedence():
    assert eval_expr(parse_expr("-2*q1+1"), np.array([1.0])) == pytest.approx(-1.0)
    assert eval_expr(parse_expr("2+3*4"), np.array([0.0])) == pytest.approx(14.0)
    assert eval_expr(parse_expr("(2+3)*4"), np.array([0.0])) == pytest.approx(20.0)


def test_torus_periodicity_screen():
    screen_torus_periodicity(parse_expr("2+cos(2*pi*q1)"))
    screen_torus_periodicity(parse_expr("sin(4*pi*q1+1)"))
    with pytest.raises(ExpressionError):
        screen_torus_periodicity(parse_expr("q1"))
    with pytest.raises(ExpressionError):
        screen_torus_periodicity(parse_expr("cos(pi*q1)"))
    with pytest.raises(ExpressionError):
        screen_torus_periodicity(parse_expr("cos(q1*q1)"))
    with pytest.raises(ExpressionError):
        screen_torus_periodicity(parse_expr("exp(q1)"))


def test_validate_dimension_gate():
    with pytest.raises(ExpressionError):
        validate_expr(parse_expr("q2"), 1, torus=False)


def test_batched_eval_matches_pointwise():
    tree = parse_expr("sin(2*pi*q1)*cos(2*pi*q2)+q2/(2+q1)")
    pts = np.random.default_rng(0).random((32, 2))
    batched = eval_expr(tree, pts)
    single = np.array([eval_expr(tree, pt) for pt in pts])
    assert np.allclose(batched, single)


def test_symbolic_derivative_matches_finite_difference():
    tree = parse_expr("exp(sin(2*pi*q1))/(2+cos(2*pi*q1))")
    dtree = diff_expr(tree, 0)
    h = 1e-6
    for x in (0.1, 0.37, 0.82):
        fd = (eval_expr(tree, np.array([x + h])) - eval_expr(tree, np.array([x - h]))) / (2 * h)
        assert eval_expr(dtree, np.array([x])) == pytest.approx(fd, rel=1e-8)


def _unpruned_diff(expr, index):
    """The plain chain/product/quotient rules, emitting every term."""
    if isinstance(expr, Num):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0 if expr.index == index else 0.0)
    if isinstance(expr, Call):
        inner = _unpruned_diff(expr.arg, index)
        if expr.func == "sin":
            outer = Call("cos", expr.arg)
        elif expr.func == "cos":
            outer = BinOp("-", Num(0.0), Call("sin", expr.arg))
        else:
            outer = Call("exp", expr.arg)
        return BinOp("*", outer, inner)
    dl = _unpruned_diff(expr.left, index)
    dr = _unpruned_diff(expr.right, index)
    if expr.op in "+-":
        return BinOp(expr.op, dl, dr)
    if expr.op == "*":
        return BinOp("+", BinOp("*", dl, expr.right), BinOp("*", expr.left, dr))
    numerator = BinOp("-", BinOp("*", dl, expr.right), BinOp("*", expr.left, dr))
    return BinOp("/", numerator, BinOp("*", expr.right, expr.right))


def _count_ops(expr):
    if isinstance(expr, (Num, Var)):
        return 0
    if isinstance(expr, Call):
        return 1 + _count_ops(expr.arg)
    return 1 + _count_ops(expr.left) + _count_ops(expr.right)


# the potentials of tests/, bench/ and configs/ give the same bits; the
# two-component ones reach the quotient rule and a component the entry does
# not use, where a dropped 0 * x term can flip the sign of an exact zero
# (-0.0 + 0.0 is +0.0), so they are compared as values
@pytest.mark.parametrize("text, n, same_bits", [
    ("cos(2*pi*q1)", 1, True),
    ("0.2*cos(2*pi*q1)", 1, True),
    ("0.5*cos(2*pi*q1)", 1, True),
    ("q1*q1/2", 1, True),
    ("cos(2*pi*q1)*sin(2*pi*q2)+0.3*cos(2*pi*q2)", 2, False),
    ("exp(sin(2*pi*q1))/(2+cos(2*pi*q1)) - q1*q1/3", 2, False),
])
def test_pruned_gradient_equals_unpruned(text, n, same_bits):
    tree = parse_expr(text)
    axis = np.linspace(-1.5, 1.5, 61)
    grid = np.stack([g.ravel() for g in np.meshgrid(*[axis] * n,
                                                    indexing="ij")], axis=-1)
    for j in range(n):
        pruned, unpruned = diff_expr(tree, j), _unpruned_diff(tree, j)
        assert _count_ops(pruned) < _count_ops(unpruned)
        want = compile_exprs([unpruned])(grid)[:, 0]
        got = compile_exprs([pruned])(grid)[:, 0]
        assert np.all(np.isfinite(want))
        assert np.array_equal(got, want)
        if same_bits:
            assert got.tobytes() == want.tobytes()


def test_cos_gradient_drops_dead_terms():
    # d/dq cos(2 pi q) = (0 - sin(2 pi q)) * (2 pi): no 0*q, no + 0, no * 1
    assert diff_expr(parse_expr("cos(2*pi*q1)"), 0) == BinOp(
        "*", BinOp("-", Num(0.0), Call("sin", parse_expr("2*pi*q1"))),
        BinOp("*", Num(2.0), Num(math.pi)))


def test_compile_matches_tree_walker():
    tree = parse_expr("2+cos(2*pi*q1)*sin(4*pi*q2)")
    fn = compile_exprs([tree])
    pts = np.random.default_rng(1).random((16, 2))
    assert fn(pts)[:, 0].tobytes() == eval_expr(tree, pts).tobytes()


def _assert_columns_match_tree_walker(evaluator, pts):
    """Each column of a joint evaluator has the tree walker's bytes where
    the walker is finite, and is non-finite where it is not."""
    with np.errstate(all="ignore"):
        got = evaluator(pts)
        for k, tree in enumerate(evaluator.trees):
            want = np.broadcast_to(eval_expr(tree, pts), pts.shape[:1])
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got[:, k]), finite)
            assert got[finite, k].tobytes() == want[finite].tobytes()


def test_joint_evaluator_matches_tree_walker_on_shared_subtrees():
    # trees built around the random subtrees a and b, each shared by three
    # or more of them, plus a constant and an unrelated tree, in one
    # evaluator
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (64, 2))
    for _ in range(150):
        a, b, c = (_random_source(rng, 2) for _ in range(3))
        texts = [f"({a})*({c})", f"sin({a})-({b})", f"({b})/(3+cos({a}))",
                 a, "2*pi", f"exp({b})+({a})*({b})", _random_source(rng)]
        _assert_columns_match_tree_walker(
            compile_exprs([parse_expr(t) for t in texts]), pts)


def test_joint_evaluator_matches_tree_walker_on_gradients():
    # a potential and its gradient share most of their subtrees
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, (97, 2))
    for text in ("cos(2*pi*q1)*sin(2*pi*q2)+0.3*cos(2*pi*q2)",
                 "exp(sin(2*pi*q1))/(2+cos(2*pi*q1)) - q1*q1/3",
                 "q1*q1/2+sin(q1)/4"):
        tree = parse_expr(text)
        _assert_columns_match_tree_walker(compile_exprs(
            [tree, diff_expr(tree, 0), diff_expr(tree, 1), Num(0.5)]), pts)


def test_position_dependent_step_evaluates_each_subtree_once():
    # the tilted-cosine force and the Gamma and Sigma entries of the
    # benchmark's position-dependent model, all in 2*pi*q1, are one
    # evaluator holding a single cos and a single sin
    import json

    from qgle.config import parse_config
    from qgle.simulate import _model_evaluator

    a, g = "2+cos(2*pi*q1)", "1+0.5*cos(2*pi*q1)"
    config = {
        "model": {"domain": {"kind": "torus", "dim": 1},
                  "force": {"kind": "nonconservative",
                            "components": ["0.5+2*pi*sin(2*pi*q1)"]}},
        "coefficients": {"kind": "position_dependent", "m": 1,
                         "gamma": [["0", f"0-({a})"],
                                   [a, f"0.5*({g})*({g})"]],
                         "sigma": [["0", "0"], ["0", g]], "Q": [[1.0]]}}
    model = parse_config(json.dumps(config)).model
    evaluator = _model_evaluator(model)
    assert len(evaluator.trees) == 5  # force, 3 Gamma entries, 1 Sigma entry
    _assert_columns_match_tree_walker(
        evaluator, np.random.default_rng(7).random((33, 1)))
    calls = [fn for fn, _ in evaluator.program]
    assert calls.count(np.cos) == 1
    assert calls.count(np.sin) == 1


# --- reference interpreter written independently of the library evaluator ---

def _reference_eval(text, q):
    """Shunting-yard to RPN, then a stack machine."""
    import re
    tokens = re.findall(r"\d+\.\d*|\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/()]", text)
    output, ops = [], []
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3}
    prev = None
    for tok in tokens:
        if re.fullmatch(r"\d+\.\d*|\.\d+|\d+", tok):
            output.append(float(tok))
        elif tok == "pi":
            output.append(math.pi)
        elif re.fullmatch(r"q\d+", tok):
            output.append(q[int(tok[1:]) - 1])
        elif tok in ("sin", "cos", "exp"):
            ops.append(tok)
        elif tok == "(":
            ops.append(tok)
        elif tok == ")":
            while ops[-1] != "(":
                output.append(ops.pop())
            ops.pop()
            if ops and ops[-1] in ("sin", "cos", "exp"):
                output.append(ops.pop())
        else:
            op = "u-" if (tok == "-" and prev in (None, "(", "+", "-", "*", "/")) else tok
            while ops and ops[-1] not in ("(", "sin", "cos", "exp") \
                    and prec[ops[-1]] >= prec[op] and op != "u-":
                output.append(ops.pop())
            ops.append(op)
        prev = tok
    while ops:
        output.append(ops.pop())
    stack = []
    for item in output:
        if isinstance(item, float):
            stack.append(item)
        elif item == "u-":
            stack.append(-stack.pop())
        elif item in ("sin", "cos", "exp"):
            stack.append(getattr(math, item)(stack.pop()))
        else:
            b, a = stack.pop(), stack.pop()
            stack.append({"+": a + b, "-": a - b, "*": a * b,
                          "/": a / b if b != 0 else math.nan}[item])
    assert len(stack) == 1
    return stack[0]


def _random_source(rng, depth=0):
    roll = rng.integers(0, 6 if depth < 4 else 2)
    if roll == 0:
        return f"{rng.uniform(0.5, 3.0):.4f}"
    if roll == 1:
        return f"q{rng.integers(1, 3)}"
    if roll == 2:
        return f"{rng.choice(['sin', 'cos', 'exp'])}({_random_source(rng, depth + 1)})"
    if roll == 3:
        return f"({_random_source(rng, depth + 1)})"
    op = rng.choice(["+", "-", "*", "/"])
    return f"{_random_source(rng, depth + 1)}{op}{_random_source(rng, depth + 1)}"


def test_evaluator_agrees_with_reference_interpreter():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 1000:
        src = _random_source(rng)
        q = rng.uniform(0.1, 0.9, size=2)
        try:
            mine = float(eval_expr(parse_expr(src), q))
        except ExpressionError:
            continue
        ref = _reference_eval(src, q)
        if not (math.isfinite(mine) and math.isfinite(ref)):
            continue
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12), src
        checked += 1


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789qpicosexn+-*/(). ", max_size=40))
def test_parser_never_crashes_and_validated_eval_is_total(text):
    try:
        tree = parse_expr(text)
        validate_expr(tree, 10, torus=False)
    except ExpressionError:
        return  # rejected with a diagnostic; that is the contract
    value = eval_expr(tree, np.array([0.3, 0.7, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9,
                                      0.25, 0.75]))
    assert np.shape(value) == ()
