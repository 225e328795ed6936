"""Parser, differentiator and evaluator for the polynomial expression grammar."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import quadric_body, quadric_boundary_point

from dircurv import ImplicitBody, expr
from dircurv.errors import (
    DivisionByZeroError,
    ExpressionSyntaxError,
    ExpressionTooDeepError,
    NonIntegerExponentError,
    UnknownVariableError,
)


def ev(text, x, n=None):
    return expr.evaluate(expr.parse(text, n if n is not None else len(x)), list(x))


# ---------------------------------------------------------------- parsing


def test_parse_polynomial_evaluates():
    assert ev("2*x1^2 - 3*x2 + 1", [2.0, 1.0]) == 6.0


def test_precedence_power_binds_tighter_than_product():
    assert ev("2*x1^2", [3.0]) == 18.0


def test_precedence_unary_minus_below_power():
    # -x1^2 is -(x1^2), not (-x1)^2
    assert ev("-x1^2", [3.0]) == -9.0


def test_left_associative_subtraction():
    assert ev("2 - 3 - 4", [0.0], n=1) == -5.0


def test_left_associative_division():
    assert ev("12/3/2", [0.0], n=1) == 2.0


def test_number_power():
    assert ev("2^3", [0.0], n=1) == 8.0


def test_parenthesized_subexpression():
    assert ev("(x1 + x2)^2", [1.5, 0.5]) == 4.0


def test_scientific_notation_numbers():
    assert ev("1e-10*x1 + x2", [1.0, 0.0]) == 1e-10
    assert ev("2.5E2", [0.0], n=1) == 250.0


def test_unary_minus_chains():
    assert ev("--x1", [3.0]) == 3.0
    assert ev("2 - -x1", [3.0]) == 5.0


@pytest.mark.parametrize("text,position", [
    ("x1^", 4),
    ("x", 2),
    ("x1 x2", 4),
    ("(x1 + 1", 8),
    ("2 +", 4),
    ("x1^2 + @", 8),
])
def test_syntax_errors_carry_one_based_positions(text, position):
    with pytest.raises(ExpressionSyntaxError) as exc:
        expr.parse(text, 2)
    assert exc.value.position == position
    assert exc.value.location == position


@pytest.mark.parametrize("text", ["x3", "x0"])
def test_unknown_variable_rejected(text):
    with pytest.raises(UnknownVariableError):
        expr.parse(text, 2)


def test_huge_variable_index_or_dimension_is_never_converted_or_printed():
    # int() and str() raise ValueError on an integer of over 4,300 digits
    for text, n in (("x" + "1" * 5000, 2), ("x" + "9" * 700, 10**5000), ("x1 - 1", -10**5000)):
        with pytest.raises(UnknownVariableError) as exc:
            expr.parse(text, n)
        assert len(exc.value.message) < 100
    assert expr.to_text(expr.parse("x" + "0" * 5000 + "2", 2)) == "x2"
    assert expr.to_text(expr.parse("x1^" + "0" * 5000 + "2", 2)) == "x1^2"
    assert expr.to_text(expr.parse("x1", 10**5000)) == "x1"


@pytest.mark.parametrize("text", ["x1^2.5", "x1^-2", "x1^x2"])
def test_non_integer_exponents_rejected(text):
    with pytest.raises((NonIntegerExponentError, ExpressionSyntaxError)):
        expr.parse(text, 2)
    # the fractional and negative cases specifically raise the dedicated error
    if text in ("x1^2.5", "x1^-2"):
        with pytest.raises(NonIntegerExponentError):
            expr.parse(text, 2)


def test_division_by_zero_reports_subtree():
    with pytest.raises(DivisionByZeroError) as exc:
        ev("1/x1", [0.0])
    assert exc.value.location == "x1"
    assert exc.value.exit_code == 3


# ---------------------------------------------------------------- evaluation


def test_power_is_exact_on_dyadic_points():
    # binary exponentiation keeps dyadic rationals exact
    assert ev("x1^4", [0.5]) == 0.0625
    assert ev("x1^4", [0.75]) == 0.31640625
    assert ev("x2 - 1 + x1^4", [0.5, 0.9375]) == 0.0


def test_zero_power_is_one():
    assert ev("x1^0", [0.0]) == 1.0


# ---------------------------------------------------------------- derivative


def test_derivative_of_polynomial():
    d = expr.differentiate(expr.parse("2*x1^2 - 3*x2 + 1", 2), 1)
    assert expr.evaluate(d, [2.0, 1.0]) == 8.0
    assert expr.evaluate(expr.differentiate(expr.parse("2*x1^2 - 3*x2 + 1", 2), 2),
                         [2.0, 1.0]) == -3.0


def test_derivative_of_quotient():
    # d/dx1 of x1/(x1 + 1) = 1/(x1 + 1)^2
    d = expr.differentiate(expr.parse("x1/(x1 + 1)", 1), 1)
    assert expr.evaluate(d, [1.0]) == pytest.approx(0.25, rel=1e-15)


def test_derivative_of_power_chain():
    d = expr.differentiate(expr.parse("(x1 + x2)^3", 2), 2)
    assert expr.evaluate(d, [1.0, 1.0]) == pytest.approx(12.0, rel=1e-15)


def test_second_partials_commute_on_fixed_example():
    e = expr.parse("x1^3*x2^2 + x1*x2", 2)
    d12 = expr.differentiate(expr.differentiate(e, 1), 2)
    d21 = expr.differentiate(expr.differentiate(e, 2), 1)
    for x in ([0.3, -1.7], [2.0, 0.25], [-1.0, -1.0]):
        a, b = expr.evaluate(d12, x), expr.evaluate(d21, x)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


# ---------------------------------------------------------------- printing


def test_round_trip_preserves_evaluation():
    e = expr.parse("2*x1^2 - 3*x2 + 1", 2)
    d = expr.differentiate(e, 1)
    again = expr.parse(expr.to_text(d), 2)
    for x in ([1.7, 0.3], [-2.0, 5.0], [0.0, 0.0]):
        assert expr.evaluate(again, x) == expr.evaluate(d, x)


def test_printer_parenthesizes_by_precedence():
    e = expr.parse("(x1 + 1)*(x1 - 1)", 1)
    assert expr.evaluate(expr.parse(expr.to_text(e), 1), [3.0]) == 8.0


# ---------------------------------------------------------------- substitute


def test_substitute_shifts_variable():
    shifted = expr.substitute(expr.parse("x1^2", 1),
                              {1: expr.Add(expr.Variable(1), expr.Number(1.0))})
    assert expr.evaluate(shifted, [2.0]) == 9.0


# ---------------------------------------------------------------- properties

# random expression trees over two variables.  Div is omitted (poles break
# finite-difference comparisons; the quotient rule is covered above) and
# powers apply to leaves only with small constants, which keeps third
# derivatives small enough that the central-difference comparison below is
# reliable at h = 1e-5.

_atom = st.one_of(
    st.integers(min_value=-2, max_value=2).map(lambda k: expr.Number(float(k))),
    st.sampled_from([1, 2]).map(expr.Variable),
)

_leaf = st.one_of(
    _atom,
    st.tuples(_atom, st.integers(min_value=0, max_value=3)).map(
        lambda ek: expr.Pow(*ek)),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: expr.Add(*ab)),
        st.tuples(children, children).map(lambda ab: expr.Sub(*ab)),
        st.tuples(children, children).map(lambda ab: expr.Mul(*ab)),
        children.map(expr.Neg),
    )


_tree = st.recursive(_leaf, _combine, max_leaves=12)

_coord = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@given(_tree, _coord, _coord, st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_derivative_matches_finite_differences(tree, x1, x2, k):
    x = [x1, x2]
    h = 1e-5
    xp = list(x)
    xm = list(x)
    xp[k - 1] += h
    xm[k - 1] -= h
    fd = (expr.evaluate(tree, xp) - expr.evaluate(tree, xm)) / (2.0 * h)
    exact = expr.evaluate(expr.differentiate(tree, k), x)
    assert math.isfinite(exact)
    assert abs(fd - exact) <= 1e-4 * (1.0 + abs(exact))


@given(_tree, _coord, _coord)
@settings(max_examples=200, deadline=None)
def test_text_round_trip_is_evaluation_exact(tree, x1, x2):
    again = expr.parse(expr.to_text(tree), 2)
    a = expr.evaluate(tree, [x1, x2])
    b = expr.evaluate(again, [x1, x2])
    assert a == b or (math.isnan(a) and math.isnan(b))


@given(_tree, _coord, _coord)
@settings(max_examples=100, deadline=None)
def test_mixed_second_partials_commute(tree, x1, x2):
    d12 = expr.differentiate(expr.differentiate(tree, 1), 2)
    d21 = expr.differentiate(expr.differentiate(tree, 2), 1)
    a = expr.evaluate(d12, [x1, x2])
    b = expr.evaluate(d21, [x1, x2])
    assert abs(a - b) <= 1e-12 * (1.0 + max(abs(a), abs(b)))


def test_overflowing_literal_rejected_with_position():
    with pytest.raises(ExpressionSyntaxError) as exc:
        expr.parse("x1^2 + x2^2 - 1e400", 2)
    assert exc.value.position == 15
    assert exc.value.exit_code == 2
    with pytest.raises(ExpressionSyntaxError) as exc:
        expr.parse("x1 + " + "9" * 400, 1)
    assert exc.value.position == 6
    assert ev("1.7e308 - x1", [0.0]) == 1.7e308


# ---------------------------------------------------------------- batches

# trees with quotients and higher powers; coordinates drawn from a grid that
# includes 0 so that denominators vanish in some columns

_batch_leaf = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]).map(expr.Number),
    st.sampled_from([1, 2, 3]).map(expr.Variable),
)


def _batch_combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: expr.Add(*ab)),
        pair.map(lambda ab: expr.Sub(*ab)),
        pair.map(lambda ab: expr.Mul(*ab)),
        pair.map(lambda ab: expr.Div(*ab)),
        children.map(expr.Neg),
        st.tuples(children, st.integers(min_value=0, max_value=7)).map(
            lambda ek: expr.Pow(*ek)),
    )


_batch_tree = st.recursive(_batch_leaf, _batch_combine, max_leaves=10)
_batch_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b))


@given(_batch_tree, st.lists(st.tuples(_batch_coord, _batch_coord, _batch_coord),
                             min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_batch_evaluation_matches_columns_bit_for_bit(tree, points):
    # round-trip through the parser, so the tree is one the grammar produces
    tree = expr.parse(expr.to_text(tree), 3)
    x = np.array(points).T
    with np.errstate(all="ignore"):
        try:
            columns = np.array([expr.evaluate(tree, x[:, j]) for j in range(x.shape[1])])
        except DivisionByZeroError:
            with pytest.raises(DivisionByZeroError):
                expr.evaluate(tree, x)
            return
    batch = expr.evaluate(tree, x)
    assert batch.shape == (x.shape[1],)
    assert _same_bits(batch, columns)


@st.composite
def _field_at_point(draw):
    """A field over x1..xn, n = 2..5, with quotients and powers, and a point."""
    n = draw(st.integers(min_value=2, max_value=5))
    leaf = st.one_of(
        st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]).map(expr.Number),
        st.integers(min_value=1, max_value=n).map(expr.Variable),
    )
    tree = draw(st.recursive(leaf, _batch_combine, max_leaves=10))
    return n, tree, draw(st.lists(_batch_coord, min_size=n, max_size=n))


@given(_field_at_point())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gradient_and_hessian_equal_per_tree_evaluation_bit_for_bit(case):
    n, tree, point = case
    try:
        origin = expr.evaluate(tree, [0.0] * n)
    except DivisionByZeroError:
        origin = math.nan
    assume(math.isfinite(origin))
    body = ImplicitBody(n=n, f=expr.Sub(tree, expr.Number(abs(origin) + 1.0)), delta=1.0)
    pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1)]
    try:
        grad = [expr.evaluate(body.partial(k), point) for k in range(1, n + 1)]
    except DivisionByZeroError:
        with pytest.raises(DivisionByZeroError):
            body.gradient(point)
    else:
        assert body.gradient(point).tobytes() == np.array(grad).tobytes()
    try:
        hess = [expr.evaluate(body.second_partial(k, l), point) for k, l in pairs]
    except DivisionByZeroError:
        with pytest.raises(DivisionByZeroError):
            body.hessian(point)
        return
    h = body.hessian(point)
    assert h.tobytes() == np.array(hess).reshape(n, n).tobytes()
    assert h.tobytes() == h.T.copy().tobytes()


def test_batch_with_one_zero_denominator_raises():
    tree = expr.parse("1/(x1 - 2) + x2", 2)
    x = np.array([[1.0, 3.0, 2.0, 5.0], [0.0, 1.0, 2.0, 3.0]])
    with pytest.raises(DivisionByZeroError) as exc:
        expr.evaluate(tree, x)
    assert exc.value.location == "x1 - 2.0"
    rest = x[:, [0, 1, 3]]
    assert expr.evaluate(tree, rest).tolist() == [
        expr.evaluate(tree, rest[:, j]) for j in range(3)]


def test_batch_of_leaves_is_a_fresh_array():
    x = np.array([[1.0, 2.0, 3.0]])
    const = expr.evaluate(expr.parse("2.5", 1), x)
    assert const.tolist() == [2.5, 2.5, 2.5]
    var = expr.evaluate(expr.parse("x1", 1), x)
    var[0] = 9.0
    assert x[0, 0] == 1.0
    assert isinstance(expr.evaluate(expr.parse("x1", 1), np.array([4.0])), float)


# ---------------------------------------------------------------- pruning


def _nodes(e):
    yield e
    for a in ("left", "right", "base", "child"):
        if hasattr(e, a):
            yield from _nodes(getattr(e, a))


def _size(e):
    return sum(1 for _ in _nodes(e))


def _raw_diff(e, k):
    """The sum/product/quotient/power rules with every zero branch kept."""
    if isinstance(e, expr.Number):
        return expr.Number(0.0)
    if isinstance(e, expr.Variable):
        return expr.Number(1.0 if e.index == k else 0.0)
    if isinstance(e, expr.Add):
        return expr.Add(_raw_diff(e.left, k), _raw_diff(e.right, k))
    if isinstance(e, expr.Sub):
        return expr.Sub(_raw_diff(e.left, k), _raw_diff(e.right, k))
    if isinstance(e, expr.Mul):
        return expr.Add(expr.Mul(_raw_diff(e.left, k), e.right),
                        expr.Mul(e.left, _raw_diff(e.right, k)))
    if isinstance(e, expr.Div):
        return expr.Div(expr.Sub(expr.Mul(_raw_diff(e.left, k), e.right),
                                 expr.Mul(e.left, _raw_diff(e.right, k))),
                        expr.Pow(e.right, 2))
    if isinstance(e, expr.Pow):
        if e.exponent == 0:
            return expr.Number(0.0)
        return expr.Mul(expr.Mul(expr.Number(float(e.exponent)), expr.Pow(e.base, e.exponent - 1)),
                        _raw_diff(e.base, k))
    return expr.Neg(_raw_diff(e.child, k))


def _pruned_diff(e, k):
    """The pruned rules of ``differentiate`` without the variable mask: every
    subtree is walked, and an x_k-free one prunes to a literal zero."""
    def zero(d):
        return isinstance(d, expr.Number) and d.value == 0.0

    def add(a, b):
        return b if zero(a) else a if zero(b) else expr.Add(a, b)

    def sub(a, b):
        return a if zero(b) else neg(b) if zero(a) else expr.Sub(a, b)

    def mul(a, b):
        return expr.Number(0.0) if zero(a) or zero(b) else expr.Mul(a, b)

    def neg(a):
        return a if zero(a) else expr.Neg(a)

    if isinstance(e, expr.Number):
        return expr.Number(0.0)
    if isinstance(e, expr.Variable):
        return expr.Number(1.0 if e.index == k else 0.0)
    if isinstance(e, expr.Add):
        return add(_pruned_diff(e.left, k), _pruned_diff(e.right, k))
    if isinstance(e, expr.Sub):
        return sub(_pruned_diff(e.left, k), _pruned_diff(e.right, k))
    if isinstance(e, expr.Mul):
        return add(mul(_pruned_diff(e.left, k), e.right), mul(e.left, _pruned_diff(e.right, k)))
    if isinstance(e, expr.Div):
        num = sub(mul(_pruned_diff(e.left, k), e.right), mul(e.left, _pruned_diff(e.right, k)))
        return num if zero(num) else expr.Div(num, expr.Pow(e.right, 2))
    if isinstance(e, expr.Pow):
        if e.exponent == 0:
            return expr.Number(0.0)
        return mul(expr.Mul(expr.Number(float(e.exponent)), expr.Pow(e.base, e.exponent - 1)),
                   _pruned_diff(e.base, k))
    return neg(_pruned_diff(e.child, k))


def _walked_vars(e):
    """The variable set of ``e`` as a bit mask, found by walking every node."""
    return sum({1 << v.index for v in _nodes(e) if isinstance(v, expr.Variable)})


def _same_values(a, b, x):
    """Both trees raise ``DivisionByZeroError`` at x, or give the same bits there."""
    results = []
    for t in (a, b):
        try:
            results.append(np.array(expr.evaluate(t, x)))
        except DivisionByZeroError:
            results.append(None)
    if results[0] is None or results[1] is None:
        return results[0] is results[1]
    return _same_bits(*results)


@given(_batch_tree, st.tuples(_batch_coord, _batch_coord, _batch_coord),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_masked_derivative_is_the_unmasked_pruned_one(tree, point, k):
    got, want = expr.differentiate(tree, k), _pruned_diff(tree, k)
    assert expr.to_text(got) == expr.to_text(want)
    assert _same_values(got, want, list(point))


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_masked_partials_of_dense_quadrics_are_the_unmasked_pruned_ones(n):
    rng = np.random.default_rng(100 + n)
    body, a = quadric_body(rng, n)
    x = quadric_boundary_point(rng, a).tolist()
    for k in range(1, n + 1):
        first = _pruned_diff(body.f, k)
        pairs = [(body.partial(k), first)] + [
            (body.second_partial(k, l), _pruned_diff(first, l)) for l in range(k, n + 1)]
        for got, want in pairs:
            assert expr.to_text(got) == expr.to_text(want)
            assert _same_values(got, want, x)


@given(_batch_tree, st.sampled_from([1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_every_node_carries_the_variables_under_it(tree, k):
    for t in (tree, expr.parse(expr.to_text(tree), 3), expr.differentiate(tree, k),
              expr.substitute(tree, {k: expr.Neg(expr.Variable(1))})):
        for node in _nodes(t):
            assert node._vars == _walked_vars(node)


def test_huge_variable_index_gets_the_all_ones_mask():
    # 1 << 10**15 would need 125 TB, so such a subtree is walked for every k
    big = expr.parse("x" + "9" * 15, 10**16)
    tree = expr.Add(expr.Mul(big, expr.Variable(2)), expr.Variable(1))
    assert big._vars == tree._vars == -1
    for k in (1, 2, 3, big.index):
        assert expr.to_text(expr.differentiate(tree, k)) == expr.to_text(_pruned_diff(tree, k))


@pytest.mark.parametrize("index", [0, -1])
def test_variable_index_below_one_is_refused(index):
    # x0 would read the last coordinate, and a negative index has no mask bit
    with pytest.raises(ValueError):
        expr.Variable(index)


def test_second_partial_of_dense_quadric_does_not_grow_with_n():
    # unpruned, d^2 f / dx1^2 of a dense quadric had 433, 1,137 and 3,051
    # nodes at n = 3, 5 and 8; only the x1^2 term survives pruning
    sizes = {}
    for n in (3, 5, 8, 12):
        body, _ = quadric_body(np.random.default_rng(n), n)
        sizes[n] = _size(expr.differentiate(expr.differentiate(body.f, 1), 1))
    assert sizes == {3: 9, 5: 9, 8: 9, 12: 9}
    assert _size(_raw_diff(_raw_diff(body.f, 1), 1)) > 100 * sizes[12]


def test_derivative_free_of_the_variable_is_a_literal_zero():
    for text in ("x2*x3", "x2/x3 - 4", "-(x2 + x3)^3", "x2^0*x1^0"):
        d = expr.differentiate(expr.parse(text, 3), 1)
        assert isinstance(d, expr.Number) and d.value == 0.0
    # the quotient rule keeps only its nonzero half
    d = expr.differentiate(expr.parse("x2/x3", 3), 2)
    assert isinstance(d, expr.Div) and expr.to_text(d) == "1.0*x3/x3^2"


@given(_batch_tree, st.tuples(_batch_coord, _batch_coord, _batch_coord),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_pruned_derivative_has_the_value_of_the_unpruned_one(tree, point, k):
    x = list(point)
    with np.errstate(all="ignore"):
        try:
            want = expr.evaluate(_raw_diff(tree, k), x)
        except DivisionByZeroError:
            return
    if not math.isfinite(want):
        return  # 0*inf and 0*nan are where pruning may differ, by design
    got = expr.evaluate(expr.differentiate(tree, k), x)
    assert got == want  # equal up to the sign of a zero
    assert _size(expr.differentiate(tree, k)) <= _size(_raw_diff(tree, k))


def test_scalar_overflow_is_silent():
    tree = expr.parse("x1^8 - x2", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expr.evaluate(tree, np.array([1e200, 0.0])) == math.inf
        assert expr.evaluate(tree, [1e200, math.inf]) != expr.evaluate(tree, [1e200, math.inf])


# ---------------------------------------------------------------- depth limit


def _deep(shape, d):
    """A text of the given shape that is exactly d levels deep."""
    return {
        "sum": " + ".join(["x1"] * (d + 1)),                        # d Adds, left-deep
        "product": "x1*(" * (d - 1) + "x1*x2" + ")" * (d - 1),      # d Muls, nested
        "parentheses": "(" * d + "x1 - x2" + ")" * d,               # d open parentheses
        "negation": "-" * d + "x1",                                 # d Negs
        "power": "(" * (d - 1) + "x1" + "^2)" * (d - 1) + "^2",     # d Pows
    }[shape]


SHAPES = ["sum", "product", "parentheses", "negation", "power"]


@pytest.mark.parametrize("shape", SHAPES)
def test_deepest_accepted_tree_parses_differentiates_and_evaluates(shape):
    tree = expr.parse(_deep(shape, expr.MAX_DEPTH), 2)
    second = expr.differentiate(expr.differentiate(tree, 1), 1)
    for e in (tree, second):
        assert math.isfinite(expr.evaluate(e, [0.5, 0.25]))


@pytest.mark.parametrize("shape", SHAPES)
def test_one_level_deeper_is_rejected(shape):
    with pytest.raises(ExpressionTooDeepError) as exc:
        expr.parse(_deep(shape, expr.MAX_DEPTH + 1), 2)
    assert exc.value.code == "expression_too_deep"
    assert exc.value.exit_code == 2


def test_very_deep_texts_are_rejected_without_recursing():
    for text in (" + ".join(["x1"] * 3000), "(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"):
        with pytest.raises(ExpressionTooDeepError):
            expr.parse(text, 2)
