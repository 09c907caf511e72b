import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from helpers import fd_gradient, max_rel_err
from pepring import tensor as T


def scalar_loss(v):
    """Sum of squares, a generic scalar head for gradient checks."""
    return T.reduce_sum(T.mul(v, v))


def test_add_elementwise():
    tape = T.Tape()
    out = T.add(tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]))
    assert np.array_equal(out.value, [4.0, 6.0])


def test_matmul_identity():
    tape = T.Tape()
    v = tape.leaf([[1.0], [-2.0], [0.5]])
    out = T.matmul(tape.constant(np.eye(3)), v)
    assert np.allclose(out.value, v.value, atol=0, rtol=0)


def test_norm_3_4_5():
    tape = T.Tape()
    out = T.norm(tape.leaf([3.0, 4.0]))
    assert out.value == pytest.approx(5.0, abs=1e-9)


def test_shape_error_names_primitive_and_shapes():
    tape = T.Tape()
    with pytest.raises(T.ShapeError) as err:
        T.add(tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((4,))))
    msg = str(err.value)
    assert "add" in msg and "(2, 3)" in msg and "(4,)" in msg


def test_backward_square():
    tape = T.Tape()
    x = tape.leaf(3.0)
    adj = T.backward(tape, T.mul(x, x))
    assert T.gradient(adj, x) == pytest.approx(6.0, rel=1e-12)


def test_backward_sum_exp_at_zero():
    tape = T.Tape()
    x = tape.leaf(np.zeros(5))
    adj = T.backward(tape, T.reduce_sum(T.exp(x)))
    assert np.allclose(T.gradient(adj, x), np.ones(5), atol=1e-12)


def test_backward_requires_scalar():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(T.ShapeError):
        T.backward(tape, x)


def test_detached_leaf_gets_zero_adjoint():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    unused = tape.leaf([5.0, 5.0])
    adj = T.backward(tape, scalar_loss(x))
    assert np.array_equal(T.gradient(adj, unused), np.zeros(2))


def test_backward_linear_in_seed():
    rng = np.random.default_rng(3)
    tape = T.Tape()
    x = tape.leaf(rng.uniform(-2, 2, size=(4, 3)))
    out = T.reduce_sum(T.exp(T.scale(x, 0.3)))
    g1 = T.gradient(T.backward(tape, out, seed=1.0), x)
    g7 = T.gradient(T.backward(tape, out, seed=7.0), x)
    assert max_rel_err(g7, 7.0 * g1, floor=1e-300) < 1e-12


def test_norm_gradient_at_origin_is_zero_not_nan():
    tape = T.Tape()
    x = tape.leaf(np.zeros(3))
    out = T.reduce_sum(T.norm(T.reshape(x, (1, 3))))
    g = T.gradient(T.backward(tape, out), x)
    assert np.all(np.isfinite(g))
    assert np.allclose(g, 0.0)


def _fd_check(build, shapes, seed, tol=1e-4):
    """Gradient-check `build` (maps leaf Vars to a scalar Var) against finite differences."""
    rng = np.random.default_rng(seed)
    values = [rng.uniform(-2.0, 2.0, size=s) for s in shapes]
    tape = T.Tape()
    leaves = [tape.leaf(v) for v in values]
    adj = T.backward(tape, build(tape, *leaves))
    for k in range(len(values)):
        def f(xk, k=k):
            args = [v.copy() for v in values]
            args[k] = xk
            t2 = T.Tape()
            return float(build(t2, *[t2.leaf(a) for a in args]).value)

        assert max_rel_err(T.gradient(adj, leaves[k]), fd_gradient(f, values[k])) < tol


@pytest.mark.parametrize(
    "name,build,shapes",
    [
        ("add", lambda t, a, b: scalar_loss(T.add(a, b)), [(3, 4), (3, 4)]),
        ("add_bias", lambda t, a, b: scalar_loss(T.add(a, b)), [(3, 4), (4,)]),
        ("sub", lambda t, a, b: scalar_loss(T.sub(a, b)), [(5,), (5,)]),
        ("mul", lambda t, a, b: scalar_loss(T.mul(a, b)), [(2, 3), (2, 3)]),
        ("mul_suffix", lambda t, a, b: scalar_loss(T.mul(a, b)), [(2, 3), (3,)]),
        ("div", lambda t, a, b: scalar_loss(T.div(a, T.add(T.mul(b, b), t.constant(1.0)))), [(4,), (4,)]),
        ("scale", lambda t, a: scalar_loss(T.scale(a, -1.7)), [(6,)]),
        ("matmul", lambda t, a, b: scalar_loss(T.matmul(a, b)), [(3, 4), (4, 2)]),
        ("mul_column", lambda t, a, b: scalar_loss(T.mul(a, b)), [(3, 4), (3, 1)]),
        ("sum_axis", lambda t, a: scalar_loss(T.reduce_sum(a, axis=1, keepdims=True)), [(3, 5)]),
        ("sum_all", lambda t, a: T.mul(T.reduce_sum(a), T.reduce_sum(a)), [(3, 2)]),
        ("broadcast", lambda t, a: scalar_loss(T.broadcast(a, (4,))), [(3,)]),
        ("exp", lambda t, a: T.reduce_sum(T.exp(a)), [(7,)]),
        ("tanh", lambda t, a: scalar_loss(T.tanh(a)), [(5,)]),
        ("norm", lambda t, a: T.reduce_sum(T.norm(a)), [(4, 3)]),
        ("concat", lambda t, a, b: scalar_loss(T.concat([a, b], axis=-1)), [(2, 3), (2, 2)]),
        ("gather", lambda t, a: scalar_loss(T.gather(a, [0, 2, 2, 1])), [(3, 4)]),
        ("reshape", lambda t, a: scalar_loss(T.reshape(a, (6,))), [(2, 3)]),
        ("segment_sum", lambda t, a: scalar_loss(T.segment_sum(a, [2, 0, 3, 1])), [(6, 2)]),
        ("segment_sum_weighted", lambda t, a: scalar_loss(
            T.segment_sum(a, [2, 0, 3, 1], np.array([[0.5], [2.0], [-1.0], [0.0]]))), [(6, 2)]),
        ("sub_outer", lambda t, a, b: scalar_loss(T.sub(a, b)), [(3, 1), (1, 4)]),
        ("add_outer", lambda t, a, b: scalar_loss(T.add(a, b)), [(1, 4), (3, 1)]),
        ("div_column", lambda t, a, b: scalar_loss(T.div(a, T.add(T.mul(b, b), t.constant(1.0)))),
         [(2, 3), (2, 1)]),
    ],
)
def test_primitive_gradients_match_finite_differences(name, build, shapes):
    for seed in (0, 1, 2):
        _fd_check(build, shapes, seed=seed)


ELEMENTWISE = [(T.add, np.add), (T.sub, np.subtract), (T.mul, np.multiply), (T.div, np.divide)]


@settings(max_examples=60, deadline=None)
@given(mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       st.integers(0, 2**32 - 1))
def test_elementwise_broadcast_matches_numpy(shapes, seed):
    sx, sy = shapes.input_shapes
    rng = np.random.default_rng(seed)
    xv = rng.uniform(-2.0, 2.0, size=sx)
    yv = rng.uniform(0.5, 2.0, size=sy) * rng.choice([-1.0, 1.0], size=sy)  # away from 0 for div
    weights = rng.uniform(-1.0, 1.0, size=shapes.result_shape)
    for op, np_op in ELEMENTWISE:
        def loss(tape, a, b):
            return T.reduce_sum(T.mul(op(a, b), tape.constant(weights)))

        tape = T.Tape()
        x, y = tape.leaf(xv), tape.leaf(yv)
        assert np.array_equal(op(x, y).value, np_op(xv, yv))
        adj = T.backward(tape, loss(tape, x, y))
        for k, (leaf, value) in enumerate(((x, xv), (y, yv))):
            def f(v, k=k):
                t2 = T.Tape()
                args = [xv, yv]
                args[k] = v
                return float(loss(t2, *(t2.leaf(a) for a in args)).value)

            grad = T.gradient(adj, leaf)
            assert grad.shape == value.shape
            assert max_rel_err(grad, fd_gradient(f, value)) < 1e-5


def test_composed_mlp_gradient():
    def build(t, w0, b0, w1, x):
        h = T.tanh(T.add(T.matmul(x, w0), b0))
        return scalar_loss(T.matmul(h, w1))

    _fd_check(build, [(4, 5), (5,), (5, 2), (3, 4)], seed=11)


def test_gather_out_of_range_raises():
    tape = T.Tape()
    with pytest.raises(T.ShapeError):
        T.gather(tape.leaf(np.zeros((3, 2))), [0, 3])


def test_non_finite_result_raises():
    tape = T.Tape()
    x = tape.leaf([800.0])
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        T.exp(T.mul(x, x))


def test_huge_but_finite_values_pass_the_guard():
    # the fast finite check sums the array; entries this large overflow the
    # sum without any entry being non-finite, which must not raise
    tape = T.Tape()
    with np.errstate(over="ignore"):
        x = tape.leaf([1e308, 1e308])
    assert np.array_equal(x.value, [1e308, 1e308])


def test_tape_freed_without_cycle_collection():
    # add/sub vjps must not hold their operand Vars: a Var points back at
    # its tape, so that would keep every tape alive until a gc pass
    import gc
    import weakref

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tape = T.Tape()
        x = tape.leaf([1.0, 2.0])
        y = tape.constant([3.0, 4.0])
        out = T.reduce_sum(T.sub(T.add(x, y), y))
        T.backward(tape, out)
        ref = weakref.ref(tape)
        del tape, x, y, out
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_gather_scatter_matches_add_at_bitwise():
    rng = np.random.default_rng(5)
    for shape, rows in (((7, 5), 60), ((4,), 30), ((3, 2, 4), 25)):
        x = rng.normal(size=shape)
        idx = rng.integers(0, shape[0], size=rows)  # many repeats per row
        g = rng.normal(size=(rows,) + shape[1:])
        tape = T.Tape()
        leaf = tape.leaf(x)
        out = T.gather(leaf, idx)
        grad = T.gradient(T.backward(tape, T.reduce_sum(T.mul(out, tape.constant(g)))), leaf)
        expected = np.zeros(shape)
        np.add.at(expected, idx, g)
        assert np.array_equal(grad, expected)


def test_gathered_array_not_kept_by_tape():
    import weakref

    arr = np.arange(12.0).reshape(4, 3)
    ref = weakref.ref(arr)
    tape = T.Tape()
    out = T.gather(tape.leaf(arr), [0, 2, 2])
    del arr
    assert ref() is None
    assert np.array_equal(out.value, [[0, 1, 2], [6, 7, 8], [6, 7, 8]])
    assert len(tape._records) == 1  # the tape is still alive and recorded the gather


def test_segment_sum_runs_and_empty_runs():
    tape = T.Tape()
    x = tape.leaf(np.arange(12.0).reshape(6, 2))
    out = T.segment_sum(x, [0, 2, 0, 3, 1, 0])
    assert np.array_equal(out.value, [[0, 0], [2, 4], [0, 0], [18, 21], [10, 11], [0, 0]])
    with pytest.raises(T.ShapeError):
        T.segment_sum(x, [2, 2])


def test_backward_returns_only_inputs():
    tape = T.Tape()
    x = tape.leaf([1.0, 2.0])
    c = tape.constant([3.0, 4.0])
    out = T.reduce_sum(T.mul(T.tanh(x), c))
    assert set(T.backward(tape, out)) == {x.vid, c.vid}
