import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterembed.errors import InvalidInputError
from clusterembed.mlp import (
    CHECKPOINT_HEADER,
    MlpParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from oracles import rel_err


def small_net(rng, dims=(3, 4, 2), normalize=False):
    return init_params(list(dims), normalize, rng)


def kink_free_input(rng, params, m=5):
    """Inputs whose hidden pre-activations stay away from the ReLU kink,
    so finite differences see a locally smooth function."""
    for _ in range(100):
        x = rng.normal(size=(m, params.input_dim))
        pre_activations, h = [], x
        for w, b in params.layers[:-1]:
            pre_activations.append(h @ w.T + b)
            h = np.maximum(pre_activations[-1], 0.0)
        if all(np.abs(z).min() > 1e-3 for z in pre_activations):
            return x
    raise AssertionError("could not sample a kink-free input")


def test_zero_params_give_zero_output():
    params = MlpParams(layers=[(np.zeros((2, 3)), np.zeros(2))])
    out, _ = forward(params, np.ones((4, 3)))
    assert np.all(out.data == 0.0)


def test_identity_layer_passes_through():
    params = MlpParams(layers=[(np.eye(3), np.zeros(3))])
    x = np.random.default_rng(50).normal(size=(5, 3))
    out, _ = forward(params, x)
    assert np.array_equal(out.data, x)


def test_final_normalize_gives_unit_rows():
    rng = np.random.default_rng(51)
    params = small_net(rng, normalize=True)
    out, _ = forward(params, rng.normal(size=(6, 3)) + 1.0)
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_forward_shape_validation():
    rng = np.random.default_rng(52)
    params = small_net(rng)
    with pytest.raises(InvalidInputError):
        forward(params, np.ones((4, 5)))
    with pytest.raises(InvalidInputError):
        forward(params, np.ones(3))


def test_params_validation():
    with pytest.raises(InvalidInputError):
        MlpParams(layers=[])
    with pytest.raises(InvalidInputError):
        MlpParams(layers=[(np.ones((2, 3)), np.ones(3))])  # bias width
    with pytest.raises(InvalidInputError):
        MlpParams(layers=[(np.ones((2, 3)), np.ones(2)), (np.ones((2, 4)), np.ones(2))])
    with pytest.raises(InvalidInputError):
        MlpParams(layers=[(np.full((2, 3), np.inf), np.ones(2))])


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(53)
    params = small_net(rng)
    _, cache = forward(params, rng.normal(size=(4, 3)))
    grads = backward(params, cache, np.zeros((4, 2)))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)


def test_backward_single_linear_layer_outer_product():
    params = MlpParams(layers=[(np.zeros((2, 3)), np.zeros(2))])
    x = np.array([[1.0, 2.0, 3.0]])
    _, cache = forward(params, x)
    upstream = np.array([[1.0, 0.0]])
    grads = backward(params, cache, upstream)
    assert np.array_equal(grads[0][0], np.array([[1.0, 2.0, 3.0], [0, 0, 0]]))
    assert np.array_equal(grads[0][1], np.array([1.0, 0.0]))


def test_backward_shape_validation():
    rng = np.random.default_rng(54)
    params = small_net(rng)
    _, cache = forward(params, rng.normal(size=(4, 3)))
    with pytest.raises(InvalidInputError):
        backward(params, cache, np.zeros((4, 3)))


@pytest.mark.parametrize("normalize", [False, True])
def test_backward_matches_finite_differences(normalize):
    rng = np.random.default_rng(55)
    params = small_net(rng, dims=(3, 4, 2), normalize=normalize)
    x = kink_free_input(rng, params)
    probe = rng.normal(size=(x.shape[0], 2))

    def loss_from_params(flat):
        layers = []
        pos = 0
        for w, b in params.layers:
            wn = flat[pos : pos + w.size].reshape(w.shape)
            pos += w.size
            bn = flat[pos : pos + b.size]
            pos += b.size
            layers.append((wn, bn))
        trial = MlpParams(layers=layers, final_normalize=normalize)
        out, _ = forward(trial, x)
        return float(np.sum(probe * out.data))

    out, cache = forward(params, x)
    grads = backward(params, cache, probe)
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params.layers])
    from oracles import central_diff_grad

    numeric = central_diff_grad(loss_from_params, flat.copy())
    analytic = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    assert rel_err(analytic, numeric).max() < 1e-4


def test_init_params_bounds_and_determinism():
    a01 = np.sqrt(6.0 / (3 + 4))
    a12 = np.sqrt(6.0 / (4 + 2))
    p1 = init_params([3, 4, 2], False, np.random.default_rng(99))
    p2 = init_params([3, 4, 2], False, np.random.default_rng(99))
    for (w1, b1), (w2, b2) in zip(p1.layers, p2.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
    assert np.abs(p1.layers[0][0]).max() <= a01
    assert np.abs(p1.layers[1][0]).max() <= a12
    with pytest.raises(InvalidInputError):
        init_params([3], False, np.random.default_rng(0))


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(56)
    params = small_net(rng, dims=(3, 5, 2), normalize=True)
    path = tmp_path / "net.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.final_normalize == params.final_normalize
    for (w1, b1), (w2, b2) in zip(params.layers, loaded.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    # byte-stable: saving the loaded params reproduces the file exactly
    path2 = tmp_path / "net2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(small_net(np.random.default_rng(57)), good)
    lines = good.read_text().splitlines()

    bad_header = tmp_path / "a.ckpt"
    bad_header.write_text("not-a-checkpoint\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(InvalidInputError):
        load_checkpoint(bad_header)

    truncated = tmp_path / "b.ckpt"
    truncated.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(InvalidInputError):
        load_checkpoint(truncated)

    nonnumeric = tmp_path / "c.ckpt"
    broken = list(lines)
    broken[2] = broken[2].replace(broken[2].split()[0], "abc", 1)
    nonnumeric.write_text("\n".join(broken) + "\n")
    with pytest.raises(InvalidInputError):
        load_checkpoint(nonnumeric)

    no_normalize = tmp_path / "d.ckpt"
    no_normalize.write_text("\n".join(l for l in lines if not l.startswith("normalize")) + "\n")
    with pytest.raises(InvalidInputError):
        load_checkpoint(no_normalize)
    header = lines[0]
    for dims in ("0 3", "2 0", "-1 3"):
        empty_layer = tmp_path / "e.ckpt"
        empty_layer.write_text(f"{header}\nlayer {dims}\nnormalize 0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_checkpoint(empty_layer)

    second_normalize = tmp_path / "f.ckpt"
    second_normalize.write_text("\n".join([*lines, "normalize 1"]) + "\n")
    with pytest.raises(InvalidInputError, match=f"line {len(lines) + 1}"):
        load_checkpoint(second_normalize)



@st.composite
def checkpoint_texts(draw):
    """Arbitrary text, or layer blocks and flags that are mostly well formed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text())

    def sometimes(usual, *faults):
        pick = draw(st.integers(0, 24))
        return faults[pick] if pick < len(faults) else usual

    lines = [sometimes(CHECKPOINT_HEADER, "mlp-checkpoint v2", "")]
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    for d_in, d_out in zip(widths, widths[1:]):
        lines.append(
            sometimes(f"layer {d_out} {d_in}", f"layer {d_out} {d_in + 1}", f"layer 0 {d_in}",
                      "layer 1", "layer a 1")
        )
        for _ in range(sometimes(d_out, d_out - 1)):
            cells = [draw(floats) for _ in range(sometimes(d_in + 1, d_in, d_in + 2))]
            if cells:
                cells[-1] = sometimes(cells[-1], "nan", "-inf", "1e999", "x")
            lines.append(" ".join(cells))
        lines.append(sometimes("", "normalize 1", draw(st.text(max_size=8))))
    lines.append(sometimes("normalize 1", "normalize 0", "normalize 2", "normalize"))
    return "\n".join(lines) + sometimes("\n", "", "\r\n")


@settings(deadline=None, max_examples=300)
@given(checkpoint_texts())
@example(f"{CHECKPOINT_HEADER}\nlayer 1 1\n0.5 0.0\nlayer 1 2\n0.5 0.5 0.0\nnormalize 0\n")
@example(f"{CHECKPOINT_HEADER}\nlayer 1 1\nnan 0.0\nnormalize 0\n")
def test_load_checkpoint_of_any_text_gives_params_or_names_the_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(text.encode("utf-8"))
    try:
        params = load_checkpoint(path)
    except InvalidInputError as exc:
        assert re.search(r" line \d+: ", str(exc)), str(exc)
    else:
        assert isinstance(params, MlpParams)
