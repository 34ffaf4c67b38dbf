import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trustkit import dataset, metrics, model, ndtensor as nd
from trustkit.errors import CheckpointError, ContractError, DimensionError, ParameterError

from gradcheck import finite_difference, rel_err
from json_values import JSON_VALUES

rng = np.random.default_rng(314)


def reduced_trust(**overrides):
    base = dict(
        image_size=16, patch_size=4, embed_dim=8, num_heads=2, encoder_depth=1,
        decoder_channels=(4, 4), skip_enabled=(True, False), seed=5,
    )
    base.update(overrides)
    return model.TrustConfig(**base)


def unpatchify(patches, patch, size):
    g = size // patch
    return (
        patches.reshape(g, g, patch, patch).transpose(0, 2, 1, 3).reshape(size, size)
    )


# ---- config validation --------------------------------------------------------


def test_config_defaults_valid():
    cfg = model.TrustConfig()
    assert cfg.head_dim == 16
    assert cfg.tokens == 64
    plan = cfg.stage_plan()
    assert [p.resolution for p in plan] == [16, 32, 32, 32]
    assert [p.out_channels for p in plan] == [64, 32, 16, 8]
    # stages 0 and 1 also read the skips from blocks 4 and 2
    assert [p.in_channels for p in plan] == [64 + 64, 64 + 32, 32, 16]
    assert [p.skip_block for p in plan] == [4, 2, None, None]
    assert [p.upsampled for p in plan] == [True, True, False, False]


def test_config_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        model.TrustConfig(image_size=30)
    with pytest.raises(ParameterError):
        model.TrustConfig(embed_dim=65)
    with pytest.raises(ParameterError):
        model.TrustConfig(decoder_channels=(8,))  # cannot reach 32 from 8
    with pytest.raises(ParameterError, match="one flag per skip connection"):
        model.TrustConfig(skip_enabled=(True,))


@pytest.mark.parametrize("make", [
    lambda: model.TrustConfig(decoder_channels=(-4, 32, 16, 8)),
    lambda: model.TrustConfig(decoder_channels=(64, 32, 0, 8)),
    lambda: model.UnetConfig(image_size=0),
    lambda: model.UnetConfig(image_size=-4),
    lambda: model.TrustConfig(seed=-1),
], ids=["decoder-channels-negative", "decoder-channels-0", "unet-image-size-0",
        "unet-image-size-negative", "trust-seed-negative"])
def test_config_refuses_sizes_below_one_before_using_them(make):
    # negative decoder channels used to pass until init_params, a U-Net to
    # accept image sizes 0 and -4, and a negative seed to fail in numpy
    with pytest.raises(ParameterError, match="must be an integer >= "):
        make()


@pytest.mark.parametrize("values, message", [
    ({"epochs": 2.5}, "epochs must be an integer >= 1, got 2.5"),
    ({"epochs": 0}, "epochs must be an integer >= 1, got 0"),
    ({"batch_size": True}, "batch_size must be an integer >= 1, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"learning_rate": math.nan}, "learning_rate must be finite and >= 0, got nan"),
    ({"learning_rate": math.inf}, "learning_rate must be finite and >= 0, got inf"),
    ({"learning_rate": -1e-3}, "learning_rate must be finite and >= 0, got -0.001"),
], ids=["epochs-float", "epochs-0", "batch-bool", "seed-negative", "lr-nan", "lr-inf",
        "lr-negative"])
def test_train_config_refuses_non_integers_and_non_finite_rates(values, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        model.TrainConfig(**values)


@pytest.mark.parametrize("size", range(8, 65, 4))
def test_both_models_build_at_every_size_and_trust_doubles_from_the_token_grid(size):
    for kind, cfg in ((model.TRUST, reduced_trust(image_size=size)),
                      (model.UNET, model.UnetConfig(image_size=size, base_channels=2))):
        assert model.param_count(kind, cfg) == sum(
            p.data.size for p in model.init_params(kind, cfg).values())
    for patch in (1, 2, 4):
        cfg = reduced_trust(image_size=size, patch_size=patch, decoder_channels=(4, 4, 4))
        # log2(patch) doublings from the S/patch token grid, then stages at S
        ups = patch.bit_length() - 1
        plan = cfg.stage_plan()
        assert [stage.resolution for stage in plan] == [
            cfg.token_grid * 2 ** min(s + 1, ups) for s in range(3)]
        assert [stage.upsampled for stage in plan] == [s < ups for s in range(3)]
    if size == 36:  # a 9x9 token grid: 9 -> 18 -> 36
        cfg = reduced_trust(image_size=size)
        out = model.forward_trust(model.init_params(model.TRUST, cfg), cfg,
                                  rng.random((1, size * size)))
        assert out.data.shape == (1, size, size)


@pytest.mark.parametrize("patch", [3, 6, 12])
def test_config_refuses_a_patch_that_is_not_a_power_of_two(patch):
    # x2 stages cannot land on the image size from the token grid of such a patch
    with pytest.raises(ParameterError, match="^patch_size must be a power of two"):
        model.TrustConfig(image_size=36, patch_size=patch)


@pytest.mark.parametrize("depth,sources", [(1, (1, 1)), (2, (2, 2)), (4, (4, 2))])
def test_config_derives_skip_sources_from_depth(tmp_path, depth, sources):
    cfg = model.TrustConfig(image_size=16, embed_dim=8, num_heads=2, encoder_depth=depth)
    assert cfg.skip_sources == sources
    assert [stage.skip_block for stage in cfg.stage_plan()[:2]] == list(sources)
    model.checkpoint_save(model.init_params(model.TRUST, cfg), model.TRUST, cfg,
                          tmp_path / "ckpt.json")
    _, manifest = model.checkpoint_load(tmp_path / "ckpt.json")
    assert model.config_from_manifest(manifest) == cfg


def test_config_to_dict_holds_only_the_settings():
    # the decoder's stages and the skip sources follow from these, so a
    # checkpoint stores neither
    assert list(model.TrustConfig().to_dict()) == [
        "image_size", "patch_size", "embed_dim", "num_heads", "encoder_depth",
        "decoder_channels", "skip_enabled", "seed"]


# ---- forward contracts --------------------------------------------------------


def test_forward_shape_default():
    cfg = model.TrustConfig()
    params = model.init_params(model.TRUST, cfg)
    out = model.forward_trust(params, cfg, rng.random((1, 32 * 32)))
    assert out.data.shape == (1, 32, 32)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_forward_shape_no_skips():
    cfg = model.TrustConfig(skip_enabled=(False, False))
    params = model.init_params(model.TRUST, cfg)
    out = model.forward_trust(params, cfg, rng.random((1, 32 * 32)))
    assert out.data.shape == (1, 32, 32)


def test_skip_ablation_changes_output():
    y = rng.random((1, 32 * 32))
    full = model.TrustConfig()
    none = model.TrustConfig(skip_enabled=(False, False))
    out_full = model.forward_trust(model.init_params(model.TRUST, full), full, y)
    out_none = model.forward_trust(model.init_params(model.TRUST, none), none, y)
    assert out_full.data.shape == out_none.data.shape
    assert not np.allclose(out_full.data, out_none.data, atol=1e-6)


def test_forward_deterministic():
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    y = rng.random((1, 16 * 16))
    a = model.forward_trust(params, cfg, y)
    b = model.forward_trust(params, cfg, y)
    assert a.data.tobytes() == b.data.tobytes()


_REDUCED_CONFIGS = {
    model.TRUST: reduced_trust(),
    model.UNET: model.UnetConfig(image_size=16, base_channels=4, seed=1),
}


_CHECKED_TENSORS = [
    (model.TRUST, "patch_embed.weight"), (model.TRUST, "enc0.attn.k.weight"),
    (model.TRUST, "dec1.conv.weight"), (model.UNET, "enc0.conv.weight"),
    (model.UNET, "dec1.conv.weight"), (model.UNET, "head.bias"),
]


def test_forward_wrong_param_shape_names_tensor():
    # both models, each tensor missing or of the wrong shape
    for (kind, name), fault in itertools.product(_CHECKED_TENSORS, ("missing", "wrong-shape")):
        cfg = _REDUCED_CONFIGS[kind]
        params = model.init_params(kind, cfg)
        if fault == "missing":
            del params[name]
            message = f"missing parameter tensor '{name}'"
        else:
            params[name] = nd.Tensor(np.zeros((3, 3)), requires_grad=True)
            message = rf"parameter '{name}' has shape \(3, 3\), config expects"
        with pytest.raises(ContractError, match=message):
            model.model_spec(kind).forward(params, cfg, rng.random((1, 16 * 16)))


@pytest.mark.parametrize("kind", [model.TRUST, model.UNET])
def test_forward_rejects_a_tensor_outside_the_shape_map(kind):
    # e.g. a key bias, which the attention's softmax would cancel
    cfg = _REDUCED_CONFIGS[kind]
    params = model.init_params(kind, cfg)
    params["enc0.attn.k.bias"] = nd.Tensor(np.zeros(8), requires_grad=True)
    with pytest.raises(ContractError, match="unexpected parameter tensor 'enc0.attn.k.bias'"):
        model.model_spec(kind).forward(params, cfg, rng.random((1, 16 * 16)))


def test_attention_rows_sum_to_one_every_head_and_block():
    cfg = model.TrustConfig()
    params = model.init_params(model.TRUST, cfg)
    capture = {}
    model.forward_trust(params, cfg, rng.random((1, 32 * 32)), capture=capture)
    keys = [k for k in capture if k.endswith(".attn")]
    assert len(keys) == cfg.encoder_depth * cfg.num_heads
    for k in keys:
        assert np.all(np.abs(capture[k].sum(axis=-1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("kind", [model.TRUST, model.UNET])
def test_batched_forward_equals_per_sample_forwards(kind):
    cfg = model.model_spec(kind).config_class()
    params = model.init_params(kind, cfg)
    forward = model.model_spec(kind).forward
    stack = rng.random((3, 32 * 32))
    batched = forward(params, cfg, stack)
    assert batched.data.shape == (3, 32, 32)
    for b in range(3):
        single = forward(params, cfg, stack[b : b + 1])
        assert single.data.shape == (1, 32, 32)
        assert np.abs(batched.data[b] - single.data[0]).max() <= 1e-12


def test_batched_capture_keeps_batch_axis():
    cfg = reduced_trust(encoder_depth=2)
    params = model.init_params(model.TRUST, cfg)
    stack = rng.random((3, 16 * 16))
    batched = {}
    model.forward_trust(params, cfg, stack, capture=batched)
    assert sorted(batched) == sorted(
        [f"enc{i}.head{h}.attn" for i in range(2) for h in range(2)]
        + ["enc0.tokens", "enc1.tokens"])
    for b in range(3):
        single = {}
        model.forward_trust(params, cfg, stack[b : b + 1], capture=single)
        assert single.keys() == batched.keys()
        for key, value in single.items():
            assert batched[key].shape == (3,) + value.shape[1:]
            assert np.abs(batched[key][b] - value[0]).max() <= 1e-12
    att = batched["enc1.head1.attn"]
    assert att.shape == (3, cfg.tokens, cfg.tokens)
    assert np.all(np.abs(att.sum(axis=-1) - 1.0) <= 1e-12)


def test_first_block_attention_matches_per_head_softmax():
    # independent oracle: each head attends with its own d_k columns of Q and K
    cfg = reduced_trust(num_heads=4, embed_dim=16)
    params = model.init_params(model.TRUST, cfg)
    stack = rng.random((2, 16, 16))
    capture = {}
    model.forward_trust(params, cfg, stack.reshape(2, -1), capture=capture)
    tokens = model.patchify(stack, cfg.patch_size) @ params["patch_embed.weight"].data
    tokens = tokens + params["patch_embed.bias"].data + params["pos_embed"].data
    q = tokens @ params["enc0.attn.q.weight"].data + params["enc0.attn.q.bias"].data
    k = tokens @ params["enc0.attn.k.weight"].data
    dk = cfg.head_dim
    for h in range(cfg.num_heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(dk)
        expected = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        assert np.abs(capture[f"enc0.head{h}.attn"] - expected).max() <= 1e-12


_TRUST, _UNET = _REDUCED_CONFIGS[model.TRUST], _REDUCED_CONFIGS[model.UNET]
# entry points that take a (B, S, S) image stack and no other shape
_IMAGE_STACK_ONLY = {
    "token_gram": lambda x: model.token_gram(model.init_params(model.TRUST, _TRUST), _TRUST, x),
    "token_gram_raw": lambda x: model.token_gram({}, _TRUST, x, mode="raw"),
    "ssim_tensor": lambda x: metrics.ssim_tensor(nd.Tensor(x), nd.Tensor(x)).data,
    "sample_losses": lambda x: model.sample_losses("l2", nd.Tensor(x), x).data,
}
# entry points that take a (B, S^2) measurement stack and no other shape
_MEASUREMENT_STACK_ONLY = {
    "input_stage": lambda y: model.input_stage(_TRUST, y).data,
    "forward_trust": lambda y: model.forward_trust(
        model.init_params(model.TRUST, _TRUST), _TRUST, y).data,
    "forward_unet": lambda y: model.forward_unet(
        model.init_params(model.UNET, _UNET), _UNET, y).data,
    "predict": lambda y: model.predict(model.UNET, model.init_params(model.UNET, _UNET), _UNET, y),
    "batch_loss": lambda y: model.batch_loss(
        model.TRUST, model.init_params(model.TRUST, _TRUST), _TRUST, model.TrainConfig(),
        np.zeros((len(y), 16, 16)), y).data,
}


def _forward_trust_concat_decoder(params, cfg, y):
    """forward_trust with the decoder as it was before ``resized_conv2d``:
    upsample, resize the skip, concatenate, and convolve at full resolution."""
    from trustkit.model import forward as fw

    tokens = fw._embed(fw.input_stage(cfg, y).data, params, cfg)
    block_outputs = []
    for i in range(cfg.encoder_depth):
        tokens = fw._encoder_block(tokens, params, i, cfg, None)
        block_outputs.append(tokens)
    cur = fw._tokens_to_grid(tokens, cfg)
    for s, stage in enumerate(cfg.stage_plan()):
        if stage.upsampled:
            cur = nd.upsample_nearest(cur, 2)
        if stage.skip_block is not None:
            skip = fw._tokens_to_grid(block_outputs[stage.skip_block - 1], cfg)
            skip = fw._conv(skip, params, f"skip{s}.proj")
            skip = nd.resize_bilinear(skip, stage.resolution, stage.resolution)
            cur = nd.concat([cur, skip], axis=1)
        cur = nd.relu(fw._conv(cur, params, f"dec{s}.conv", padding=1))
    head = nd.sigmoid(fw._conv(cur, params, "head"))
    return nd.reshape(head, (-1, cfg.image_size, cfg.image_size))


@pytest.mark.parametrize("overrides", [
    {},
    dict(image_size=16),
    dict(image_size=48),  # 12 -> 24 -> 48, then two stages at 48 px
    dict(skip_enabled=(False, False)),
    dict(image_size=8, patch_size=1),  # token grid 8: skips, and no upsampling at all
], ids=["32px", "16px", "48px", "no-skips", "token-grid-is-image-size"])
def test_trust_decoder_equals_the_full_resolution_concat_decoder(overrides):
    cfg = model.TrustConfig(**{"embed_dim": 16, "num_heads": 2, "encoder_depth": 2, **overrides})
    params = model.init_params(model.TRUST, cfg)
    g = np.random.default_rng(11)
    y = g.random((3, cfg.image_size**2))
    weights = nd.Tensor(g.standard_normal((3, cfg.image_size, cfg.image_size)))
    results = []
    for forward in (model.forward_trust, _forward_trust_concat_decoder):
        nd.zero_grads(params.values())
        out = forward(params, cfg, y)
        nd.reduce_sum(nd.mul(out, weights)).backward()
        results.append((out.data, {name: t.grad for name, t in params.items()}))
    (out, grads), (ref_out, ref_grads) = results
    assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
    for name, ref in ref_grads.items():
        err = np.abs(grads[name] - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), (name, err)


def test_forward_rejects_wrong_stack_shape():
    # the image entry points take a (B, S, S) stack and refuse a single (S, S)
    # image; the model entry points take a (B, S^2) measurement stack, their
    # one input form, and refuse a (B, S, S) stack as well
    image_bad = (rng.random((16, 16)), rng.random((16, 8)), rng.random((2, 1, 16, 16)),
                 rng.random(16))
    measurement_bad = (rng.random((2, 16, 16)), rng.random((2, 1, 16 * 16)),
                       rng.random(16 * 16), rng.random((16, 16)))
    for entries, good, bads in ((_IMAGE_STACK_ONLY, (2, 16, 16), image_bad),
                                (_MEASUREMENT_STACK_ONLY, (2, 16 * 16), measurement_bad)):
        for entry, call in entries.items():
            # one output per sample
            out = np.asarray(call(rng.random(good)))
            assert out.shape[:1] == (2,), entry
            assert np.isfinite(out).all(), entry
            for bad in bads:
                with pytest.raises(DimensionError):
                    call(bad)


@pytest.mark.parametrize("kind", model.KINDS)
def test_input_stage_reads_a_square_measurement_stack_as_its_images(kind):
    cfg = _REDUCED_CONFIGS[kind]
    params = model.init_params(kind, cfg)
    forward = model.model_spec(kind).forward
    y = rng.random((3, 16 * 16))
    stage = model.input_stage(cfg, y)
    assert stage.data.shape == (3, 16, 16) and stage.data.tobytes() == y.tobytes()
    assert forward(params, cfg, y).data.shape == (3, 16, 16)
    for m in (16 * 16 // 2, 16 * 16 + 1):
        with pytest.raises(DimensionError, match="square operator dataset"):
            forward(params, cfg, rng.random((3, m)))


def test_loss_rejects_a_target_of_another_shape():
    # an "l2" target of one image would otherwise broadcast against the stack
    stack = rng.random((2, 16, 16))
    for kind, target in itertools.product(model.LOSS_KINDS, (stack[0], stack[:1])):
        with pytest.raises(DimensionError, match="matching"):
            model.loss(kind, nd.Tensor(stack), target)


def test_unet_shape_and_determinism():
    cfg = model.UnetConfig()
    params = model.init_params(model.UNET, cfg)
    y = rng.random((1, 32 * 32))
    a = model.forward_unet(params, cfg, y)
    b = model.forward_unet(params, cfg, y)
    assert a.data.shape == (1, 32, 32)
    assert a.data.tobytes() == b.data.tobytes()
    assert np.all(a.data > 0) and np.all(a.data < 1)


# ---- gradient checks ----------------------------------------------------------


def _model_gradcheck(model_kind, cfg, img_size, tol=1e-4):
    params = model.init_params(model_kind, cfg)
    y = np.random.default_rng(1).random((1, img_size * img_size))
    weights = np.random.default_rng(2).standard_normal((1, img_size, img_size))
    forward = model.model_spec(model_kind).forward

    loss = nd.reduce_sum(nd.mul(forward(params, cfg, y), nd.Tensor(weights)))
    loss.backward()

    names = list(params)
    arrays = [params[n].data.copy() for n in names]

    def f(*arrs):
        trial = {
            n: nd.Tensor(a, requires_grad=False, name=n) for n, a in zip(names, arrs)
        }
        return forward(trial, cfg, y).data.ravel() @ weights.ravel()

    numeric = finite_difference(f, arrays)
    worst = 0.0
    for n, num in zip(names, numeric):
        err = rel_err(params[n].grad, num)
        assert err < tol, f"{n}: rel err {err:.2e}"
        worst = max(worst, err)
    return worst


def test_trust_full_gradient_check_reduced_config():
    _model_gradcheck(model.TRUST, reduced_trust(), 16)


def test_unet_full_gradient_check_reduced_config():
    cfg = model.UnetConfig(image_size=8, base_channels=2, seed=3)
    _model_gradcheck(model.UNET, cfg, 8)


def test_loss_gradients_every_kind():
    pred0 = np.random.default_rng(4).random((1, 9, 9))
    target = np.random.default_rng(5).random((1, 9, 9))
    for kind in model.LOSS_KINDS:
        pred = nd.Tensor(pred0.copy(), requires_grad=True)
        model.loss(kind, pred, target).backward()

        def f(arr):
            return model.loss(kind, nd.Tensor(arr), target).item()

        numeric = finite_difference(f, [pred0.copy()])[0]
        assert rel_err(pred.grad, numeric) < 1e-4, kind


# ---- losses --------------------------------------------------------------------


def test_loss_zero_on_identical():
    x = rng.random((1, 12, 12))
    pred = nd.Tensor(x.copy())
    assert model.loss("l2", pred, x).item() == 0.0
    assert abs(model.loss("l2_ssim", pred, x).item()) < 1e-9
    assert model.loss("l2_l1", pred, x).item() == 0.0


def test_loss_unknown_kind():
    with pytest.raises(ParameterError):
        model.loss("huber", nd.Tensor(np.zeros((1, 4, 4))), np.zeros((1, 4, 4)))


# ---- token gram ----------------------------------------------------------------


def test_token_gram_raw_invariant_under_patchwise_rotation():
    from trustkit import sensing

    cfg = reduced_trust()
    x = rng.random((16, 16))
    patches = model.patchify(x, 4)
    rot = sensing.sample_operator(sensing.ORTHONORMAL_SQUARE, 16, 16, seed=8).matrix
    y = unpatchify(patches @ rot.T, 4, 16)
    params = model.init_params(model.TRUST, cfg)
    g_x = model.token_gram(params, cfg, x[None], mode="raw")
    g_y = model.token_gram(params, cfg, y[None], mode="raw")
    assert np.max(np.abs(g_x - g_y)) < 1e-8


def test_token_gram_symmetry_only_when_tied():
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    img = rng.random((1, 16, 16))
    [gram] = model.token_gram(params, cfg, img)
    assert np.max(np.abs(gram - gram.T)) > 1e-6
    tied = dict(params)
    tied["enc0.attn.k.weight"] = params["enc0.attn.q.weight"]
    tied["enc0.attn.q.bias"] = nd.Tensor(np.zeros(cfg.embed_dim), requires_grad=True)
    [gram_tied] = model.token_gram(tied, cfg, img)
    assert np.max(np.abs(gram_tied - gram_tied.T)) < 1e-12
    [raw] = model.token_gram(params, cfg, img, mode="raw")
    assert np.max(np.abs(raw - raw.T)) < 1e-12


def test_token_gram_of_a_stack_equals_per_image_grams():
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    stack = rng.random((3, 16, 16))
    for mode in ("embedded", "raw"):
        grams = model.token_gram(params, cfg, stack, mode=mode)
        assert grams.shape == (3, cfg.tokens, cfg.tokens)
        for b in range(3):
            single = model.token_gram(params, cfg, stack[b : b + 1], mode=mode)
            assert np.abs(grams[b] - single[0]).max() <= 1e-12


def test_token_gram_deviation_tracks_isometry_constant():
    # raw-pixel grams: deviation between x and patchwise-measured y grows
    # with the operator's estimated constant (rank correlation > 0)
    from scipy.stats import spearmanr

    from trustkit import sensing

    x = rng.random((16, 16))
    patches = model.patchify(x, 4)  # tokens in R^16
    gram_x = patches @ patches.T / 4.0
    deltas, devs = [], []
    specs = [(sensing.ORTHONORMAL_SQUARE, 16)] + [
        (sensing.GAUSSIAN_FAT, m) for m in (6, 8, 10, 12, 14)
    ]
    for kind, m in specs:
        op = sensing.sample_operator(kind, m, 16, seed=31)
        est = sensing.estimate_rip(op, k=3, method=sensing.MONTE_CARLO, budget=800, seed=1)
        yp = patches @ op.matrix.T
        gram_y = yp @ yp.T / 4.0
        deltas.append(est.delta)
        devs.append(float(np.max(np.abs(gram_y - gram_x))))
    rho = spearmanr(deltas, devs).statistic
    assert rho > 0


# ---- parameter counting ---------------------------------------------------------


def test_param_count_default_matches_closed_form():
    cfg = model.TrustConfig()
    d, t, p2 = cfg.embed_dim, cfg.tokens, cfg.patch_dim
    embed = p2 * d + d + t * d
    # attention: four d x d projections, biases on q/v/out only (k bias is
    # cancelled by the row softmax and is not a parameter)
    per_block = 4 * d * d + 3 * d + 2 * (2 * d) + (d * cfg.mlp_dim + cfg.mlp_dim) + (
        cfg.mlp_dim * d + d
    )
    blocks = cfg.encoder_depth * per_block
    # decoder: stage channels 64,32,16,8 with skips into stages 0 and 1
    skips = (64 * d + 64) + (32 * d + 32)
    dec = (64 * (64 + 64) * 9 + 64) + (32 * (64 + 32) * 9 + 32) + (16 * 32 * 9 + 16) + (
        8 * 16 * 9 + 8
    )
    head = 8 + 1
    assert model.param_count(model.TRUST, cfg) == embed + blocks + skips + dec + head


def test_param_count_matches_serialized_shapes(tmp_path):
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    model.checkpoint_save(params, model.TRUST, cfg, tmp_path / "c.json")
    manifest = json.loads((tmp_path / "c.json").read_text())
    total = sum(int(np.prod(t["shape"])) for t in manifest["tensors"])
    assert total == model.param_count(model.TRUST, cfg)


def test_doubling_embed_more_than_doubles_params():
    small = model.param_count(model.TRUST, model.TrustConfig(embed_dim=32))
    big = model.param_count(model.TRUST, model.TrustConfig(embed_dim=64))
    assert big > 2 * small


def _trust_encoder_flops(cfg):
    d, t = cfg.embed_dim, cfg.tokens
    per_block = 4 * t * d * d + 2 * t * t * d + 2 * t * d * cfg.mlp_dim
    return t * cfg.patch_dim * d + cfg.encoder_depth * per_block


def test_flop_estimate_default_trust_matches_closed_form():
    cfg = model.TrustConfig()
    d, g = cfg.embed_dim, cfg.token_grid
    # 1x1 skip projections from the 8x8 token grid into stages 0 and 1
    skips = g * g * 64 * d + g * g * 32 * d
    # 3x3 decoder convolutions at 16, 32, 32, 32 px; stages 0 and 1 also read their skip
    dec = (16 * 16 * 64 * (64 + 64) + 32 * 32 * 32 * (64 + 32) + 32 * 32 * 16 * 32
           + 32 * 32 * 8 * 16) * 9
    head = 32 * 32 * 8
    expected = _trust_encoder_flops(cfg) + skips + dec + head
    assert model.flop_estimate(model.TRUST, cfg) == expected == 68231168


def test_flop_estimate_no_skip_trust_matches_closed_form():
    cfg = model.TrustConfig(skip_enabled=(False, False))
    dec = (16 * 16 * 64 * 64 + 32 * 32 * 32 * 64 + 32 * 32 * 16 * 32 + 32 * 32 * 8 * 16) * 9
    expected = _trust_encoder_flops(cfg) + dec + 32 * 32 * 8
    assert model.flop_estimate(model.TRUST, cfg) == expected == 48963584


def test_flop_estimate_default_unet_matches_closed_form():
    cfg = model.UnetConfig()
    s, c = cfg.image_size, cfg.base_channels
    enc = (s * s * c * 1 + (s // 2) ** 2 * 2 * c * c + (s // 4) ** 2 * 4 * c * 2 * c) * 9
    # decoder convolutions read the upsampled level below plus the encoder skip
    dec = ((s // 2) ** 2 * 2 * c * (4 * c + 2 * c) + s * s * c * (2 * c + c)) * 9
    expected = enc + dec + s * s * c
    assert model.flop_estimate(model.UNET, cfg) == expected == 4210688


def test_flop_estimate_positive_and_monotone():
    base = model.flop_estimate(model.TRUST, model.TrustConfig(embed_dim=32))
    wider = model.flop_estimate(model.TRUST, model.TrustConfig(embed_dim=64))
    assert 0 < base < wider
    assert model.flop_estimate(model.UNET, model.UnetConfig()) > 0


# ---- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = tmp_path / "a" / "ckpt.json"
    model.checkpoint_save(params, model.TRUST, cfg, p1)
    loaded, manifest = model.checkpoint_load(p1)
    p2 = tmp_path / "b" / "ckpt.json"
    model.checkpoint_save(loaded, model.TRUST, model.config_from_manifest(manifest), p2)
    assert (tmp_path / "a" / "ckpt.json.bin").read_bytes() == (tmp_path / "b" / "ckpt.json.bin").read_bytes()
    assert p1.read_text() == p2.read_text()


def test_checkpoint_forward_reproduces_bitwise(tmp_path):
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    y = rng.random((1, 16 * 16))
    before = model.forward_trust(params, cfg, y).data.tobytes()
    model.checkpoint_save(params, model.TRUST, cfg, tmp_path / "c.json")
    loaded, _ = model.checkpoint_load(tmp_path / "c.json")
    after = model.forward_trust(loaded, cfg, y).data.tobytes()
    assert before == after


def test_checkpoint_corrupted_blob(tmp_path):
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    model.checkpoint_save(params, model.TRUST, cfg, tmp_path / "c.json")
    blob = (tmp_path / "c.json.bin").read_bytes()
    (tmp_path / "c.json.bin").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        model.checkpoint_load(tmp_path / "c.json")


def test_checkpoint_version_mismatch(tmp_path):
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    model.checkpoint_save(params, model.TRUST, cfg, tmp_path / "c.json")
    manifest = json.loads((tmp_path / "c.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "c.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        model.checkpoint_load(tmp_path / "c.json")


def _saved_checkpoint(tmp_path):
    cfg = reduced_trust()
    path = tmp_path / "c.json"
    model.checkpoint_save(model.init_params(model.TRUST, cfg), model.TRUST, cfg, path)
    return path


def test_checkpoint_missing_blob_file(tmp_path):
    path = _saved_checkpoint(tmp_path)
    (tmp_path / "c.json.bin").unlink()
    with pytest.raises(CheckpointError, match="blob"):
        model.checkpoint_load(path)


@pytest.mark.parametrize("key", ["blob", "blob_sha256", "tensors", "model_kind", "config"])
def test_checkpoint_missing_manifest_key(tmp_path, key):
    path = _saved_checkpoint(tmp_path)
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=key):
        model.checkpoint_load(path)


@pytest.mark.parametrize("tensors", [
    [1, 2], {"name": "w"}, [{"name": 3, "shape": [2]}], [{"name": "w"}],
    [{"name": "w", "shape": [2, -1]}], [{"name": "w", "shape": [2.0]}],
    [{"name": "w", "shape": "2"}],
])
def test_checkpoint_malformed_tensor_entries(tmp_path, tensors):
    path = _saved_checkpoint(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["tensors"] = tensors
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="tensors"):
        model.checkpoint_load(path)


def test_checkpoint_manifest_not_utf8(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(CheckpointError, match="unreadable checkpoint manifest"):
        model.checkpoint_load(path)


def test_checkpoint_unknown_model_kind(tmp_path):
    path = _saved_checkpoint(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["model_kind"] = "mlp"
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="unknown model kind 'mlp'"):
        model.checkpoint_load(path)


# ---- corrupt checkpoints: typed errors, and eval exits 2 ---------------------------

_CHECKPOINT_ENTRIES = ("format_version", "blob", "blob_sha256", "tensors", "model_kind",
                       "config")


@pytest.fixture(scope="module")
def clean_checkpoint(tmp_path_factory):
    """An 8 px U-Net checkpoint next to an 8 px dataset that ``eval`` scores it on.

    Its width differs from the default config's, so an empty config dict
    gives other parameter shapes.
    """
    root = tmp_path_factory.mktemp("ckpt")
    data = root / "ds"
    dataset.gen_dataset(dataset.DatasetSpec(image_size=8, train=2, val=1, test=2, seed=7), data)
    cfg = model.UnetConfig(image_size=8, base_channels=2, seed=3)
    model.checkpoint_save(model.init_params(model.UNET, cfg), model.UNET, cfg, root / "c.json")
    assert _eval(root / "c.json", data).exit_code == 0
    return root / "c.json", data


def _eval(ckpt, data):
    from click.testing import CliRunner

    from trustkit.cli import main

    return CliRunner().invoke(main, ["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                                     "--out", str(ckpt.parent / "ev")])


def _eval_exits_2(ckpt, data):
    res = _eval(ckpt, data)
    assert res.exit_code == 2, res.output
    assert "checkpoint" in res.output and "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def _copy_checkpoint(src, dst):
    for name in (src.name, src.name + ".bin"):
        (dst / name).write_bytes((src.parent / name).read_bytes())
    return dst / src.name


@settings(max_examples=60)
@given(key=st.sampled_from(_CHECKPOINT_ENTRIES), value=JSON_VALUES)
@example(key="blob", value=5)
@example(key="blob", value=None)
@example(key="blob", value="\x00")
@example(key="format_version", value=True)
def test_any_substituted_manifest_entry_is_a_checkpoint_error(clean_checkpoint, key, value):
    src, data = clean_checkpoint
    manifest = json.loads(src.read_text())
    assume(json.dumps(value, sort_keys=True) != json.dumps(manifest[key], sort_keys=True))
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _copy_checkpoint(src, Path(tmp))
        manifest[key] = value
        ckpt.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            model.checkpoint_load(ckpt)
        _eval_exits_2(ckpt, data)


@settings(max_examples=40)
@given(where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(0, 255),
       truncate=st.booleans())
def test_flipped_or_truncated_blob_is_a_checkpoint_error(clean_checkpoint, where, flip,
                                                         truncate):
    src, data = clean_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _copy_checkpoint(src, Path(tmp))
        blob_file = Path(tmp) / (ckpt.name + ".bin")
        blob = bytearray(blob_file.read_bytes())
        at = int(where * len(blob))
        if truncate:
            del blob[at:]
        else:
            assume(flip)
            blob[at] ^= flip
        blob_file.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            model.checkpoint_load(ckpt)
        _eval_exits_2(ckpt, data)


# ---- model kinds -----------------------------------------------------------------


def test_model_spec_dispatch():
    trust, unet = model.model_spec(model.TRUST), model.model_spec(model.UNET)
    assert trust.config_class is model.TrustConfig and unet.config_class is model.UnetConfig
    assert trust.forward is model.forward_trust and unet.forward is model.forward_unet
    with pytest.raises(ParameterError, match="unknown model kind"):
        model.model_spec("mlp")
    with pytest.raises(ParameterError, match="unknown model kind"):
        model.train("mlp", reduced_trust(), model.TrainConfig(), _NO_DATA, _NO_DATA)


def test_model_spec_forward_follows_module_attribute(monkeypatch):
    # wrappers installed on the forward module after import must be the ones called
    from trustkit.model import forward as forward_module

    def replacement(params, cfg, image):
        return "replaced"

    monkeypatch.setattr(forward_module, "forward_unet", replacement)
    assert model.model_spec(model.UNET).forward is replacement


# ---- training --------------------------------------------------------------------


def _toy_data(n, size, seed):
    """(targets, observations) stacks of n samples: (n, S, S) and (n, S^2)."""
    # smooth blob targets: representable through the token bottleneck
    g = np.random.default_rng(seed)
    i, j = np.mgrid[0:size, 0:size]
    xs, ys = np.empty((n, size, size)), np.empty((n, size, size))
    for t in range(n):
        r, c = g.uniform(4, size - 4, 2)
        xs[t] = 0.9 * np.exp(-((i - r) ** 2 + (j - c) ** 2) / (2 * 2.0**2))
        ys[t] = np.clip(xs[t] + 0.05 * g.random((size, size)), 0.0, 1.0)
    return xs, ys.reshape(n, -1)


def _head(data, n):
    return data[0][:n], data[1][:n]


_NO_DATA = (np.empty((0, 16, 16)), np.empty((0, 16 * 16)))


def _reference_step_grads(kind, cfg, tcfg, params, data):
    """Gradients of the mean per-sample loss, one graph per sample (the
    pre-batching train step)."""
    forward = model.model_spec(kind).forward
    nd.zero_grads(params.values())
    losses = [model.loss(tcfg.loss_kind, forward(params, cfg, y[None]), x[None])
              for x, y in zip(*data)]
    total = losses[0]
    for extra in losses[1:]:
        total = nd.add(total, extra)
    nd.scalar_mul(total, 1.0 / len(losses)).backward()
    return total.data / len(losses), {k: p.grad.copy() for k, p in params.items()}


@pytest.mark.parametrize("kind,cfg,loss_kind", [
    (model.TRUST, reduced_trust(), "l2_ssim"),
    (model.TRUST, reduced_trust(encoder_depth=2), "l2_l1"),
    (model.UNET, model.UnetConfig(image_size=16, base_channels=4, seed=1), "l2_ssim"),
])
def test_batched_step_gradients_match_per_sample_loop(kind, cfg, loss_kind):
    tcfg = model.TrainConfig(loss_kind=loss_kind)
    targets, observations = _toy_data(5, 16, seed=6)
    params = model.init_params(kind, cfg)
    ref_loss, ref = _reference_step_grads(kind, cfg, tcfg, params, (targets, observations))
    nd.zero_grads(params.values())
    loss = nd.reduce_mean(model.batch_loss(kind, params, cfg, tcfg, targets, observations))
    loss.backward()
    assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, p in params.items():
        scale = np.abs(ref[name]).max()
        assert np.abs(p.grad - ref[name]).max() <= 1e-12 * scale, name


def test_trust_train_step_memory_is_bounded():
    # one 16-sample step of the default 32 px model; the per-sample graphs
    # with per-sample im2col columns peaked at 548 MiB on the same step,
    # decoder stages that concatenated their full-resolution inputs at 265 MiB,
    # and a graph that kept bias-free products and attention scores at 172 MiB
    cfg = model.TrustConfig()
    tcfg = model.TrainConfig(epochs=1, batch_size=16)
    g = np.random.default_rng(0)
    samples = [(g.random((32, 32)), g.random(32 * 32)) for _ in range(16)]
    data = tuple(np.stack(stack) for stack in zip(*samples))
    no_data = (np.empty((0, 32, 32)), np.empty((0, 32 * 32)))
    params = model.init_params(model.TRUST, cfg)
    tracemalloc.start()
    try:
        model.train(model.TRUST, cfg, tcfg, data, no_data, params=params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _train_peak(cfg, tcfg, data):
    params = model.init_params(model.TRUST, cfg)
    tracemalloc.start()
    try:
        model.train(model.TRUST, cfg, tcfg, data, _NO_DATA, params=params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_memory_does_not_grow_with_step_count():
    # a step's graph is released before the next step builds its own; when
    # one step's graph outlived it, three steps peaked 1.17 times one step
    cfg = model.TrustConfig(image_size=16, embed_dim=32, num_heads=2, encoder_depth=2)
    tcfg = model.TrainConfig(epochs=1, batch_size=8, loss_kind="l2_ssim")
    data = _toy_data(24, 16, seed=3)
    one_step = _train_peak(cfg, tcfg, (data[0][:8], data[1][:8]))
    three_steps = _train_peak(cfg, tcfg, data)
    assert three_steps <= 1.05 * one_step, f"{three_steps / one_step:.3f} times one step"


def _predict_peak(params, cfg, observations):
    tracemalloc.start()
    try:
        for _ in model.predict(model.TRUST, params, cfg, observations):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_memory_does_not_grow_with_sample_count():
    cfg = model.TrustConfig()
    params = model.init_params(model.TRUST, cfg)
    observations = np.random.default_rng(1).random((32, 32 * 32))
    one_chunk = _predict_peak(params, cfg, observations[: model.PREDICT_CHUNK])
    all_chunks = _predict_peak(params, cfg, observations)
    # a chunk of 4 at 32 px peaks near 11.5 MiB (one sample: 3.0 MiB)
    assert one_chunk < 16 * 2**20, f"chunk peak {one_chunk / 2**20:.1f} MiB"
    assert all_chunks < 1.1 * one_chunk


def test_predict_is_one_graph_free_stack_equal_to_the_whole_stack_forward():
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    y = rng.random((model.PREDICT_CHUNK * 2 + 1, 16 * 16))
    preds = model.predict(model.TRUST, params, cfg, y)
    assert type(preds) is np.ndarray and preds.shape == (len(y), 16, 16)
    assert np.abs(preds - model.forward_trust(params, cfg, y).data).max() <= 1e-12
    assert model.predict(model.TRUST, params, cfg, y[:0]).shape == (0, 16, 16)


@pytest.mark.parametrize("loss_kind", model.LOSS_KINDS)
def test_evaluate_loss_is_the_fsum_of_per_sample_losses(loss_kind):
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    targets, y = _toy_data(model.PREDICT_CHUNK * 2 + 1, 16, seed=5)
    val_loss, *_ = model.evaluate(model.TRUST, params, cfg, (targets, y),
                                  model.TrainConfig(loss_kind=loss_kind))
    preds = model.forward_trust(params, cfg, y)
    expected = math.fsum(model.sample_losses(loss_kind, preds, targets).data) / len(y)
    assert val_loss == expected
    # an empty stack scores as no sample: a loss of 0 and nan metrics
    val_loss, *scores = model.evaluate(model.TRUST, params, cfg, (targets[:0], y[:0]),
                                       model.TrainConfig(loss_kind=loss_kind))
    assert val_loss == 0.0 and all(math.isnan(score) for score in scores)


def test_zero_learning_rate_freezes_parameters():
    cfg = reduced_trust()
    tcfg = model.TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, loss_kind="l2")
    data = _toy_data(8, 16, seed=0)
    params = model.init_params(model.TRUST, cfg)
    before = {k: v.data.copy() for k, v in params.items()}
    result = model.train(model.TRUST, cfg, tcfg, data, _head(data, 2), params=params)
    for k, v in result.params.items():
        assert np.array_equal(v.data, before[k])
    losses = [r.train_loss for r in result.rows]
    assert max(losses) - min(losses) < 1e-12


@pytest.mark.parametrize("kind", model.KINDS)
@pytest.mark.parametrize("loss_kind", ["l2", "l2_ssim"])
def test_zero_learning_rate_logs_one_train_loss_bit_for_bit(kind, loss_kind):
    # the epoch loss is one sum over the samples: a sum of batch means
    # weighted by batch sizes rounds by how the shuffle splits 10 into 3s
    cfg = _REDUCED_CONFIGS[kind]
    data = _toy_data(10, 16, seed=0)
    params = model.init_params(kind, cfg)
    for seed in range(12):
        tcfg = model.TrainConfig(learning_rate=0.0, epochs=4, batch_size=3,
                                 loss_kind=loss_kind, seed=seed)
        result = model.train(kind, cfg, tcfg, data, _head(data, 2), params=params)
        losses = {r.train_loss.hex() for r in result.rows}
        assert len(losses) == 1, (seed, losses)


def test_training_deterministic_same_seed():
    cfg = reduced_trust()
    tcfg = model.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, loss_kind="l2",
                             seed=11)
    data = _toy_data(8, 16, seed=1)
    runs = []
    for _ in range(2):
        result = model.train(model.TRUST, cfg, tcfg, data, _head(data, 2))
        runs.append((result.log_csv(),
                     {k: v.data.tobytes() for k, v in result.params.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_single_sample_overfit():
    # empirical convergence oracle over 3 seeds
    data = _toy_data(1, 16, seed=2)
    steps = 500
    for seed in (0, 1, 2):
        cfg = reduced_trust(seed=seed, embed_dim=16, decoder_channels=(8, 8))
        tcfg = model.TrainConfig(learning_rate=3e-3, epochs=steps, batch_size=1,
                                 loss_kind="l2", seed=seed)
        result = model.train(model.TRUST, cfg, tcfg, data, data)
        assert result.rows[-1].train_loss < 1e-3, f"seed {seed}: {result.rows[-1].train_loss}"


def test_nan_abort_names_tensor():
    cfg = reduced_trust()
    params = model.init_params(model.TRUST, cfg)
    params["patch_embed.bias"].data[0] = np.nan
    tcfg = model.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=1, loss_kind="l2")
    with pytest.raises(ContractError, match="non-finite"):
        model.train(model.TRUST, cfg, tcfg, _toy_data(2, 16, seed=3), _NO_DATA, params=params)


def test_best_checkpoint_holds_the_best_epochs_parameters(tmp_path):
    # a large step: the validation loss is lowest after the first epoch
    cfg = reduced_trust()
    tcfg = model.TrainConfig(learning_rate=0.2, epochs=3, batch_size=4, loss_kind="l2")
    data = _toy_data(8, 16, seed=4)
    long = model.train(model.TRUST, cfg, tcfg, data, _head(data, 2))
    assert long.best_epoch < tcfg.epochs
    short = model.TrainConfig(learning_rate=0.2, epochs=long.best_epoch, batch_size=4,
                              loss_kind="l2")
    blobs = {}
    for name, params in (("long_best", long.best_params), ("long_last", long.params),
                         ("short_last", model.train(model.TRUST, cfg, short, data,
                                                    _head(data, 2)).params)):
        model.checkpoint_save(params, model.TRUST, cfg, tmp_path / f"{name}.json")
        blobs[name] = (tmp_path / f"{name}.json.bin").read_bytes()
    assert blobs["long_best"] == blobs["short_last"]
    assert blobs["long_best"] != blobs["long_last"]


def test_train_writes_checkpoints_and_log(tmp_path):
    # model.train writes nothing; the train command saves what it returns, the
    # two checkpoints and the epoch log, and no file its run record omits
    from click.testing import CliRunner

    from trustkit.cli import main

    data = tmp_path / "ds"
    dataset.gen_dataset(dataset.DatasetSpec(image_size=8, train=6, val=2, test=1, seed=4), data)
    out = tmp_path / "tr"
    res = CliRunner().invoke(main, [
        "train", "--dataset", str(data), "--out", str(out), "--loss", "l2", "--epochs", "2",
        "--lr", "1e-3", "--batch", "4", "--embed-dim", "8", "--depth", "1", "--heads", "2",
    ], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    record = json.loads((out / "run_record.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(record["outputs"] + ["run_record.json"])
    manifest = dataset.load_manifest(data)
    train, val = (dataset.load_split(manifest, split) for split in ("train", "val"))
    cfg = model.TrustConfig(image_size=8, embed_dim=8, num_heads=2, encoder_depth=1)
    tcfg = model.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, loss_kind="l2")
    result = model.train(model.TRUST, cfg, tcfg, (train.x, train.y), (val.x, val.y))
    assert (out / "epochs.csv").read_text() == result.log_csv()
    for name, params in (("ckpt_best", result.best_params), ("ckpt_last", result.params)):
        model.checkpoint_save(params, model.TRUST, cfg, tmp_path / f"{name}.json")
        for file in (f"{name}.json", f"{name}.json.bin"):
            assert (out / file).read_bytes() == (tmp_path / file).read_bytes(), file
