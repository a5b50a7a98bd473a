"""Core tensor ops: forward values against independent oracles, gradients
against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, rng_for
from engine_ops import (add, leaky_relu_where, matmul, mul, reduce_sum, sigmoid, slice_axis, sub,
                        tanh, transpose)
from stemsep import tensor as T
from stemsep.errors import ShapeError


@pytest.fixture(autouse=True)
def _float64_default():
    with T.using_dtype(np.float64):
        yield


# ---------------------------------------------------------------------------
# Oracles


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def mean_oracle(a):
    total = 0.0
    for v in a.reshape(-1):
        total += v
    return total / a.size


# ---------------------------------------------------------------------------
# Elementwise forward values


def test_leaky_relu_negative_slope():
    out = T.leaky_relu(T.Tensor([-1.0]), slope=0.01)
    assert out.data[0] == pytest.approx(-0.01)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_backward_keeps_input_dtype(dtype):
    rng = rng_for("leaky-dtype")
    x = np.concatenate([[-1.0, 0.0, 1.0], rng.normal(size=61)])
    probe = rng.normal(size=x.size)
    with T.using_dtype(dtype):
        t = T.Tensor(x, requires_grad=True)
        out = T.leaky_relu(t, slope=0.01)
        T.backward(reduce_sum(mul(out, T.Tensor(probe))))
        probe = probe.astype(dtype)
    assert t.grad.dtype == dtype
    # The backward applies the slope the forward applied: out(-1) = -slope.
    slope = -out.data[0]
    neg = t.data < 0
    assert np.array_equal(t.grad[neg], probe[neg] * slope)
    assert np.array_equal(t.grad[~neg], probe[~neg])
    if dtype == np.float64:
        assert np.array_equal(t.grad, probe * np.where(x >= 0, 1.0, 0.01))


SIGNED = np.array([-2.5, -1e-30, -0.0, 0.0, 1e-30, 3.0])


def _input_and_probes(name, dtype):
    rng = rng_for(name)
    x = np.concatenate([SIGNED, SIGNED[::-1], rng.normal(size=52)]).reshape(8, 8)
    probes = [np.concatenate([SIGNED[::-1], SIGNED, rng.normal(size=52)]).reshape(8, 8)
              for _ in range(2)]
    return x.astype(dtype), [p.astype(dtype) for p in probes]


@pytest.mark.parametrize("consumers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_bit_equal_to_where_formula(dtype, consumers):
    # Upstream gradients hold +-0 and negatives; with two consumers the
    # second backward adds into the gradient the first handed over.
    x, probes = _input_and_probes("leaky-bits", dtype)

    def run(op):
        with T.using_dtype(dtype):
            t = T.Tensor(x, requires_grad=True)
            outs = [op(t, 0.01) for _ in range(consumers)]
            terms = [reduce_sum(mul(o, T.Tensor(p))) for o, p in zip(outs, probes)]
            T.backward(terms[0] if consumers == 1 else T.add(*terms))
        return outs[0].data, t.grad

    out, grad = run(T.leaky_relu)
    want_out, want_grad = run(leaky_relu_where)
    assert out.dtype == grad.dtype == dtype
    assert np.array_equal(bits(out), bits(want_out))
    assert np.array_equal(bits(grad), bits(want_grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slice_axis_backward_adds_into_zeros(dtype):
    # Adding, not writing, into the zeroed gradient turns -0.0 into +0.0;
    # a second, overlapping slice adds to the first.
    x, probes = _input_and_probes("slice-bits", dtype)
    with T.using_dtype(dtype):
        t = T.Tensor(x, requires_grad=True)
        first = slice_axis(t, 1, 2, 6)
        second = slice_axis(t, 1, 0, 5)
        T.backward(T.add(reduce_sum(mul(first, T.Tensor(probes[0][:, 2:6]))),
                         reduce_sum(mul(second, T.Tensor(probes[1][:, :5])))))
    want = np.zeros_like(x)
    want[:, :5] += probes[1][:, :5]
    want[:, 2:6] += probes[0][:, 2:6]
    assert t.grad.dtype == dtype
    assert np.array_equal(bits(t.grad), bits(want))
    assert np.signbit(probes[0][0, 3]) and np.signbit(probes[1][0, 3])
    assert not np.signbit(t.grad[0, 3])


def test_hand_over_grad_keeps_a_fresh_array_and_adds_the_next():
    t = T.Tensor(np.zeros(3), requires_grad=True)
    fresh = np.ones(3)
    T.hand_over_grad(t, fresh)
    assert t.grad is fresh
    T.hand_over_grad(t, np.full(3, 2.0))
    assert t.grad is fresh and np.array_equal(fresh, np.full(3, 3.0))
    cast = T.Tensor(np.zeros(3), requires_grad=True)
    T.hand_over_grad(cast, np.ones(3, dtype=np.float32))
    assert cast.grad.dtype == np.float64
    constant = T.Tensor(np.zeros(3))
    T.hand_over_grad(constant, np.ones(3))
    assert constant.grad is None
    with pytest.raises(ShapeError):
        T.hand_over_grad(T.Tensor(np.zeros(2), requires_grad=True), np.ones(3))


def test_add_broadcasts_trailing_suffix():
    a = T.Tensor(np.ones((2, 3, 4)))
    b = T.Tensor(np.arange(4.0))
    out = add(a, b)
    assert out.data.shape == (2, 3, 4)
    assert np.array_equal(out.data[1, 2], 1.0 + np.arange(4.0))


def test_add_rejects_non_suffix_shapes():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((2, 1)))
    for op in (T.add, add):
        with pytest.raises(ShapeError) as err:
            op(a, b)
        assert "(2, 3)" in str(err.value) and "(2, 1)" in str(err.value)


def test_engine_add_takes_one_shape_only():
    # The package adds only equal shapes; broadcasting is a test-side op.
    with pytest.raises(ShapeError):
        T.add(T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.arange(4.0)))
    rng = rng_for("engine-add")
    av, bv, probe = rng.normal(size=(3, 2, 4, 5))
    a, b = T.Tensor(av, requires_grad=True), T.Tensor(bv, requires_grad=True)
    out = T.add(a, b)
    T.backward(reduce_sum(mul(out, T.Tensor(probe))))
    assert np.array_equal(out.data, av + bv)
    assert np.array_equal(a.grad, probe) and np.array_equal(b.grad, probe)


def test_scalar_promotion():
    x = T.Tensor(np.ones(3))
    assert np.array_equal(sub(1.0, x).data, np.zeros(3))
    assert np.array_equal(mul(x, 2.0).data, 2.0 * np.ones(3))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    x = rng_for("matmul-id").normal(size=(3, 5))
    out = matmul(T.Tensor(np.eye(3)), T.Tensor(x))
    assert np.allclose(out.data, x, atol=1e-15)


def test_matmul_ones():
    out = matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))
    assert np.array_equal(out.data, np.full((2, 2), 3.0))


def test_matmul_matches_triple_loop():
    rng = rng_for("matmul-loop")
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 6))
    out = matmul(T.Tensor(a), T.Tensor(b))
    assert np.allclose(out.data, matmul_oracle(a, b), atol=1e-12)


def test_matmul_dimension_mismatch():
    with pytest.raises(ShapeError):
        matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# Reductions


def test_mean_of_constant():
    out = T.reduce_mean(T.Tensor(np.full((3, 4), 2.5)))
    assert out.data == pytest.approx(2.5)


def test_sum_of_zeros():
    assert reduce_sum(T.Tensor(np.zeros((2, 5)))).data == 0.0


def test_mean_matches_accumulation_oracle():
    a = rng_for("mean").normal(size=(3, 7, 2))
    out = T.reduce_mean(T.Tensor(a))
    assert abs(float(out.data) - mean_oracle(a)) < 1e-12


def test_reduce_over_axis_subset():
    a = rng_for("sum-axes").normal(size=(2, 3, 4))
    out = reduce_sum(T.Tensor(a), axes=(0, 2))
    assert np.allclose(out.data, a.sum(axis=(0, 2)), atol=1e-14)


def test_reduce_invalid_axis():
    with pytest.raises(ShapeError):
        reduce_sum(T.Tensor(np.ones((2, 2))), axes=(3,))


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_gives_ones():
    x = T.Tensor(rng_for("bsum").normal(size=(3, 4)), requires_grad=True)
    T.backward(reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_mean_of_squares():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.reduce_mean(mul(x, x)))
    assert np.allclose(x.grad, [1.0, 2.0], atol=1e-15)


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    with pytest.raises(ShapeError):
        T.backward(y)


def test_backward_on_empty_tape():
    x = T.Tensor([1.0], requires_grad=True)
    T.current_tape().clear()
    with pytest.raises(RuntimeError):
        T.backward(x)


def test_backward_accumulates_across_branches():
    # Gradient of a sum of two graph branches equals the per-branch sum.
    rng = rng_for("branches")
    xv = rng.normal(size=(4,))
    x = T.Tensor(xv, requires_grad=True)
    branch_a = reduce_sum(mul(x, x))
    branch_b = reduce_sum(mul(x, 3.0))
    T.backward(T.add(branch_a, branch_b))
    combined = x.grad.copy()

    x.zero_grad()
    T.backward(reduce_sum(mul(x, x)))
    ga = x.grad.copy()
    x.zero_grad()
    T.backward(reduce_sum(mul(x, 3.0)))
    gb = x.grad.copy()
    assert np.allclose(combined, ga + gb, atol=1e-14)


def test_forward_replay_is_bit_identical():
    rng = rng_for("determinism")
    a = rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6))

    def run():
        return matmul(tanh(T.Tensor(a)), sigmoid(T.Tensor(b))).data

    assert np.array_equal(run(), run())


def test_no_grad_blocks_recording():
    x = T.Tensor(np.ones(3), requires_grad=True)
    T.current_tape().clear()
    with T.no_grad():
        y = mul(x, x)
    assert len(T.current_tape()) == 0
    assert not y.requires_grad


def test_tape_records_in_topological_order():
    # Every op's inputs are either leaves or outputs of earlier ops.
    T.current_tape().clear()
    x = T.Tensor(rng_for("topo").normal(size=(3, 3)), requires_grad=True)
    y = matmul(tanh(x), sigmoid(x))
    reduce_sum(mul(y, y))
    seen = {id(x)}
    for op in T.current_tape().ops:
        for inp in op.inputs:
            assert not inp.requires_grad or id(inp) in seen
        seen.add(id(op.out))
    T.current_tape().clear()


# ---------------------------------------------------------------------------
# Shape ops


def test_reshape_transpose_roundtrip_grads():
    x = T.Tensor(rng_for("shape").normal(size=(2, 3, 4)), requires_grad=True)
    y = transpose(T.reshape(x, (6, 4)), (1, 0))
    T.backward(reduce_sum(mul(y, y)))
    assert x.grad.shape == (2, 3, 4)
    assert np.allclose(x.grad, 2.0 * x.data, atol=1e-14)


def test_concat_and_slice_grads():
    a = T.Tensor(np.ones((2, 3)), requires_grad=True)
    b = T.Tensor(np.ones((2, 2)), requires_grad=True)
    joined = T.concat([a, b], axis=1)
    assert joined.data.shape == (2, 5)
    piece = slice_axis(joined, 1, 1, 4)
    T.backward(reduce_sum(piece))
    assert np.array_equal(a.grad, np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
    assert np.array_equal(b.grad, np.array([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("shape,axis", [((3, 4), 0), ((3, 4), 1), ((2, 3, 4), 0), ((2, 3, 4), 1)])
def test_concat_grads_share_no_memory_with_upstream(shape, axis):
    # concat hands each part a fresh gradient; an axis-0 slice of g is
    # contiguous, so handing it over uncopied would alias g.
    rng = rng_for(f"concat-alias-{shape}-{axis}")
    parts = [T.Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2)]
    frozen = T.Tensor(rng.normal(size=shape))
    tape = T.current_tape()
    tape.clear()
    out = T.concat([parts[0], frozen, parts[1]], axis=axis)
    g = rng.normal(size=out.shape)
    tape.ops[-1].backward(g)
    tape.clear()
    for part, piece in zip(parts, np.split(g, 3, axis=axis)[::2]):
        assert np.array_equal(part.grad, piece)
        assert not np.shares_memory(part.grad, g)
    assert frozen.grad is None


def test_stack_grads():
    xs = [T.Tensor(np.full(3, float(i)), requires_grad=True) for i in range(4)]
    out = T.stack(xs, axis=0)
    assert out.data.shape == (4, 3)
    T.backward(reduce_sum(mul(out, 2.0)))
    for x in xs:
        assert np.array_equal(x.grad, np.full(3, 2.0))


def test_slice_out_of_range():
    with pytest.raises(ShapeError):
        slice_axis(T.Tensor(np.ones((2, 3))), 1, 0, 4)


# ---------------------------------------------------------------------------
# gradient_check: the op is the oracle


def test_gradient_check_linear_is_exact():
    # Zeros make the finite-difference sums exact, so the error is literally 0.
    x = T.Tensor(np.zeros(5), requires_grad=True)
    err = T.gradient_check(lambda t: reduce_sum(t), x)
    assert err == 0.0
    y = T.Tensor(rng_for("gc-lin").normal(size=(5,)), requires_grad=True)
    assert T.gradient_check(lambda t: reduce_sum(t), y) < 1e-10


def test_gradient_check_mean_tanh():
    x = T.Tensor(rng_for("gc-tanh").normal(size=(4, 3)), requires_grad=True)
    err = T.gradient_check(lambda t: T.reduce_mean(tanh(t)), x, eps=1e-5)
    assert err < 1e-6


@pytest.mark.parametrize("name,fn", [
    ("sigmoid", lambda t: T.reduce_mean(sigmoid(t))),
    ("tanh", lambda t: reduce_sum(mul(tanh(t), tanh(t)))),
    ("leaky", lambda t: T.reduce_mean(T.leaky_relu(t, 0.01))),
    ("mul", lambda t: T.reduce_mean(mul(t, tanh(t)))),
])
def test_gradient_check_elementwise(name, fn):
    rng = rng_for("gc-" + name)
    x = rng.normal(size=(3, 5))
    if name == "leaky":
        x = np.where(np.abs(x) < 0.1, x + 0.2, x)  # keep clear of the kink
    t = T.Tensor(x, requires_grad=True)
    assert T.gradient_check(fn, t, eps=1e-5) < 1e-4


def test_gradient_check_matmul():
    rng = rng_for("gc-mm")
    a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b_const = rng.normal(size=(4, 2))

    def f(t):
        prod = matmul(t, T.Tensor(b_const))
        return T.reduce_mean(mul(prod, prod))

    assert T.gradient_check(f, a, eps=1e-5) < 1e-4


def test_gradient_check_requires_float64():
    with T.using_dtype(np.float32):
        x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.gradient_check(lambda t: reduce_sum(t), x)


def test_gradient_check_sampled_coordinates():
    x = T.Tensor(rng_for("gc-sample").normal(size=(40,)), requires_grad=True)
    err = T.gradient_check(lambda t: T.reduce_mean(tanh(t)), x, max_coords=8)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_mul_grad_matches_product_rule(rows, cols, data):
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    av, bv = rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols))
    a = T.Tensor(av, requires_grad=True)
    b = T.Tensor(bv, requires_grad=True)
    T.backward(reduce_sum(mul(a, b)))
    assert np.allclose(a.grad, bv, atol=1e-12)
    assert np.allclose(b.grad, av, atol=1e-12)


def test_dual_precision_switch():
    with T.using_dtype(np.float32):
        x = T.Tensor([1.0])
        assert x.data.dtype == np.float32
    y = T.Tensor([1.0])
    assert y.data.dtype == np.float64


def test_every_export_resolves():
    missing = [name for name in T.__all__ if not hasattr(T, name)]
    assert not missing, missing
