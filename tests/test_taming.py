import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import parse_taming
from mvsde.taming import KINDS, SCHEMES, TamingOperator

ZERO = np.zeros(1)

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
step_sizes = st.sampled_from([2.0**-k for k in range(1, 21)])

# every kind of the table: at its default parameter (1 where the model sets
# it), and at each of a few others its range accepts
DEFAULT_OPS = [
    TamingOperator(kind, None if row.param is None else 1.0 if row.default is None else row.default)
    for kind, row in KINDS.items()
]
EXAMPLE_OPS = DEFAULT_OPS + [
    TamingOperator(kind, p)
    for kind, row in KINDS.items()
    if row.param is not None
    for p in (0.25, 0.5, 1.25)
    if row.range[1](p)
]
# the kinds whose H1 and declared H3 bounds hold with constant 1
H3_OPS = [op for op in DEFAULT_OPS if op.declared_h3 is not None]


def test_modified_frozen_example():
    # 2 / (1 + 0.25 * 4) = 1
    out = TamingOperator("modified").t1(np.array([2.0]), ZERO, 0.25)
    assert out[0] == pytest.approx(1.0)


def test_all_kinds_fix_the_origin():
    for op in EXAMPLE_OPS:
        assert op.t1(ZERO, np.array([3.0]), 0.125)[0] == 0.0
        assert op.t2(ZERO, np.array([3.0]), 0.125)[0] == 0.0


def test_tanh_saturates_at_inverse_step():
    h, alpha = 0.01, 1.0
    out = TamingOperator("tanh", alpha).t1(np.array([1e6]), ZERO, h)
    assert abs(out[0]) <= h**-alpha + 1e-12
    assert out[0] == pytest.approx(100.0)


def test_drift_tamed_leaves_diffusion_untouched():
    v = np.array([3.0, -4.0])
    out = TamingOperator("drift_tamed", 0.5).t2(v, np.zeros(2), 0.3)
    assert np.array_equal(out, v)
    # but does tame the drift using the full Euclidean norm (|v| = 5)
    t1 = TamingOperator("drift_tamed", 0.5).t1(v, np.zeros(2), 0.25)
    assert np.allclose(t1, v / (1.0 + 0.5 * 5.0))


def test_sin_frozen_example():
    h = 0.125
    out = TamingOperator("sin", 1.0).t2(np.array([np.pi / (2 * h)]), ZERO, h)
    assert out[0] == pytest.approx(1.0 / h)


def test_fully_tamed_at_origin_state():
    out = TamingOperator("fully_tamed", 1.0).t1(np.array([1.0]), ZERO, 0.3)
    assert out[0] == 1.0
    # denominator kicks in with the state norm, not the value norm
    big_x = np.array([10.0])
    out = TamingOperator("fully_tamed", 1.0).t1(np.array([1.0]), big_x, 0.25)
    assert out[0] == pytest.approx(1.0 / (1.0 + 0.5 * 10.0**4))


def test_parameter_ranges_enforced():
    with pytest.raises(ValueError):
        TamingOperator("drift_tamed", 0.0)
    with pytest.raises(ValueError):
        TamingOperator("drift_tamed", 0.6)
    with pytest.raises(ValueError):
        TamingOperator("tanh", 1.5)
    with pytest.raises(ValueError):
        TamingOperator("sin", 0.0)
    with pytest.raises(ValueError):
        TamingOperator("fully_tamed", -1.0)
    with pytest.raises(ValueError):
        TamingOperator("modified", 1.0)
    with pytest.raises(ValueError):
        TamingOperator("nope")


def test_declared_consistency_exponents():
    assert TamingOperator("modified").declared_h3 == (0.5, 2.0, 0.5)
    assert TamingOperator("tanh", 1.0).declared_h3 == (0.5, 2.0, 0.5)
    assert TamingOperator("sin", 0.7).declared_h3 == (0.5, 2.0, 0.5)
    assert TamingOperator("identity").declared_h3 is None


@settings(deadline=None, max_examples=200)
@given(v=finite_floats, h=step_sizes)
def test_odd_symmetry_exact(v, h):
    arr = np.array([v])
    for op in EXAMPLE_OPS:
        plus = op.t1(arr, ZERO, h)
        minus = op.t1(-arr, ZERO, h)
        assert np.array_equal(plus, -minus)


@settings(deadline=None, max_examples=200)
@given(v=finite_floats, h=step_sizes)
def test_h1_bounds_modified_tanh_sin(v, h):
    # |T1| <= min{h^-2, |v|} and |T2| <= min{h^-3/2, |v|} with constant 1
    arr = np.array([v])
    tol = 1e-9 * max(1.0, abs(v))
    for op in H3_OPS:
        t1 = abs(op.t1(arr, ZERO, h)[0])
        t2 = abs(op.t2(arr, ZERO, h)[0])
        assert t1 <= min(h**-2, abs(v)) + tol
        assert t2 <= min(h**-1.5, abs(v)) + tol


@settings(deadline=None, max_examples=200)
@given(v=finite_floats, h=step_sizes)
def test_h3_consistency_modified_tanh_sin(v, h):
    # |T(v,h) - v| <= h^(1/2) |v|^2 with constant 1
    arr = np.array([v])
    bound = np.sqrt(h) * v * v
    tol = 1e-9 * max(1.0, abs(v) ** 2)
    for op in H3_OPS:
        gap1 = abs(op.t1(arr, ZERO, h)[0] - v)
        gap2 = abs(op.t2(arr, ZERO, h)[0] - v)
        assert gap1 <= bound + tol
        assert gap2 <= bound + tol


def test_parse_round_trips():
    assert parse_taming("identity").kind == "identity"
    assert parse_taming("me").kind == "modified"
    op = parse_taming("dte(0.25)")
    assert op.kind == "drift_tamed" and op.param == 0.25
    assert parse_taming("dte").param == 0.5
    assert parse_taming("te").param == 1.0
    assert parse_taming("te(0.5)").param == 0.5
    assert parse_taming("se(1.0)").kind == "sin"
    op = parse_taming("fte", model_rho=2.0)
    assert op.kind == "fully_tamed" and op.param == 2.0
    with pytest.raises(ValueError):
        parse_taming("fte")
    with pytest.raises(ValueError):
        parse_taming("me(3)")
    with pytest.raises(ValueError):
        parse_taming("bogus")
    with pytest.raises(ValueError):
        parse_taming("te(abc)")


def test_every_row_parses_back_from_its_config_name():
    # config-file order is the order of the check battery's reports
    assert list(SCHEMES) == ["identity", "dte", "me", "te", "se", "fte"]
    for name, (kind, param, default) in SCHEMES.items():
        op = parse_taming(name, model_rho=1.0)
        assert op.kind == kind and op.param == (None if param is None else default or 1.0)
        assert op.label.split("_")[0] == name
        # the fields alone make the operator: equal, hashed and pickled by value
        twin = TamingOperator(kind, op.param)
        assert op == twin and hash(op) == hash(twin) and pickle.loads(pickle.dumps(op)) == op


def test_fully_tamed_integer_power_matches_pow():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((400, 2)) * rng.uniform(0.1, 5.0, (400, 1))
    v = rng.standard_normal((400, 2))
    h = 0.01
    norm = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    for rho in (0.25, 1.0, 2.0):  # 4 rho = 1, 4, 8: square-and-multiply
        old = v / (1.0 + np.sqrt(h) * norm ** (4.0 * rho))
        op = TamingOperator("fully_tamed", rho)
        np.testing.assert_allclose(op.t1(v, x, h), old, rtol=1e-14, atol=0.0)
    for rho in (0.0, 0.3):  # 4 rho = 0 or not an integer: pow as before
        old = v / (1.0 + np.sqrt(h) * norm ** (4.0 * rho))
        assert np.array_equal(TamingOperator("fully_tamed", rho).t1(v, x, h), old)
