import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradlink.corpus import PAD_ID, SyntheticSpec, generate_synthetic, windows_from_sentences
from gradlink.errors import ConfigError, UsageError
from gradlink.model import (
    PARAM_DTYPE,
    GlobalModel,
    ModelConfig,
    eval_loss,
    forward_trace,
    init_model,
    layer_names,
    linear_layers,
    loss_and_grads,
    param_count,
    param_layout,
    plan_batch,
    sgd_step,
    views,
)

SMALL = ModelConfig(vocab_size=11, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
EPS = np.finfo(PARAM_DTYPE).eps


def _batch(cfg, size, seed=0):
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, cfg.vocab_size, size=(size, cfg.context))
    targets = rng.integers(0, cfg.vocab_size, size=size)
    return windows, targets


def test_init_deterministic_and_seed_sensitive():
    m1 = init_model(SMALL, 42)
    m2 = init_model(SMALL, 42)
    m3 = init_model(SMALL, 43)
    np.testing.assert_array_equal(m1.params, m2.params)
    for name, _ in param_layout(SMALL):
        if name.endswith("weight") or name == "embedding":
            assert not np.array_equal(m1.views[name], m3.views[name])


def test_init_biases_are_exactly_zero():
    m = init_model(SMALL, 0)
    for name, arr in m.views.items():
        if name.endswith(".bias"):
            assert np.all(arr == 0.0)


def test_init_weight_scale_follows_fan_in():
    m = init_model(ModelConfig(vocab_size=50, embed_dim=16, context=2, n_blocks=1), 0)
    fan_in = 2 * 16
    assert np.max(np.abs(m.views["block1.fc.weight"])) <= 1.0 / np.sqrt(fan_in)


def test_uniform_loss_anchor_with_zero_output_weights():
    m = init_model(SMALL, 0)
    m.views["output.weight"][:] = 0.0
    m.views["output.bias"][:] = 0.0
    windows, targets = _batch(SMALL, 6)
    loss, _ = loss_and_grads(m, windows, targets)
    assert m.params.dtype == PARAM_DTYPE
    # rounded by the log, the batch sum and the division of the mean
    assert loss == pytest.approx(np.log(SMALL.vocab_size), rel=4 * EPS)


@pytest.mark.parametrize("fields", [{"embed_dim": True}, {"n_blocks": 2.0}, {"vocab_size": 0}])
def test_model_config_fields_are_integers_at_least_1(fields):
    with pytest.raises(ConfigError, match=f"{next(iter(fields))} must be an integer >= 1"):
        ModelConfig(**{"vocab_size": 5, **fields})


V = SMALL.vocab_size
BAD_IDS = (
    ([[0, 1, -1]], [-2]),  # wrapped to [[0, 1, V - 1]], [V - 2] without a check
    ([[0, 1, 2]], [-1]),
    ([[0, 1, V]], [0]),
    ([[0, 1, 2]], [V]),
    ([[0.0, 1.0, 2.0]], [0]),
    ([[0, 1, 2]], [1.0]),
    ([[True, False, True]], [0]),
    ([[0, 1, 2]], [True]),
)


def test_out_of_range_token_is_usage_error():
    """`checked_batch` is where a batch is checked. An id below 0 or at
    least vocab_size, or of a float or bool dtype, in the windows or the
    targets, is a UsageError: from `plan_batch`, from `loss_and_grads`
    without a plan, which builds one, from `loss_and_grads` with the plan of
    a valid batch, which these arrays are not, and from `eval_loss`. So is a
    shape that does not fit the model or the gradient buffer."""
    m = init_model(SMALL, 0)
    size = param_count(SMALL)
    good = np.array([[3, 4, 5]]), np.array([6])
    plan = plan_batch(SMALL, *good, np.empty(size, PARAM_DTYPE), dense=True)
    for windows, targets in BAD_IDS:
        with pytest.raises(UsageError):
            plan_batch(SMALL, windows, targets, np.empty(size, PARAM_DTYPE), dense=True)
        with pytest.raises(UsageError):
            loss_and_grads(m, windows, targets)
        with pytest.raises(UsageError):
            loss_and_grads(m, windows, targets, plan=plan)
        with pytest.raises(UsageError):
            eval_loss(m, windows, targets)
    loss_and_grads(m, *good, plan=plan)
    for dtype in (np.uint8, np.int32, np.int64):
        windows, targets = np.array([[0, 1, V - 1]], dtype), np.array([V - 1], dtype)
        plan = plan_batch(SMALL, windows, targets, np.empty(size, PARAM_DTYPE), dense=True)
        assert plan.windows is windows and plan.targets is targets

    for score in (loss_and_grads, eval_loss):
        with pytest.raises(UsageError):
            score(m, np.zeros((0, 3), dtype=int), np.zeros(0, dtype=int))
    stack = GlobalModel(SMALL, np.stack([m.params] * 2))
    for windows, targets in (
        (np.zeros(3, dtype=int), np.zeros(1, dtype=int)),  # no batch axis
        (np.zeros((2, 3), dtype=int), np.zeros(2, dtype=int)),  # 2-d batch on a stack
        (np.zeros((3, 2, 3), dtype=int), np.zeros((3, 2), dtype=int)),  # 3 batches, 2 replicas
        (np.zeros((2, 2, 3), dtype=int), np.zeros(2, dtype=int)),
        (np.zeros((0, 2, 3), dtype=int), np.zeros((0, 2), dtype=int)),  # no replica
        (np.zeros((1, 2), dtype=int), np.zeros(1, dtype=int)),  # context 2, not 3
    ):
        with pytest.raises(UsageError):
            loss_and_grads(m if windows.ndim < 2 else stack, windows, targets)
    for windows, targets in (
        (np.zeros(3, dtype=int), np.zeros(1, dtype=int)),  # no batch axis
        (np.zeros((1, 2), dtype=int), np.zeros(1, dtype=int)),  # context 2, not 3
        (np.zeros((2, 3), dtype=int), np.zeros(3, dtype=int)),  # 3 targets for 2 windows
    ):
        with pytest.raises(UsageError):
            eval_loss(m, windows, targets)
    for grads in (np.empty((1, size), PARAM_DTYPE), np.empty(size + 1, PARAM_DTYPE)):
        with pytest.raises(UsageError, match="gradient buffer"):
            plan_batch(SMALL, np.zeros((2, 3), dtype=int), np.zeros(2, dtype=int), grads, True)


def _repeating_windows(rng, k, b, context):
    """(k, b, context) ids from {PAD, 1, 2, 3}. Each client's first window
    is all PAD, client 0's batch is PAD alone, and client 1's repeats token
    2 in most places, so some (client, token) rows sum more than 8
    occurrences, where numpy's pairwise summation starts to unroll."""
    windows = rng.integers(0, 4, size=(k, b, context))
    windows[1][rng.random((b, context)) < 0.8] = 2
    windows[:, 0] = PAD_ID
    windows[0] = PAD_ID
    counts = np.array([np.bincount(w.ravel(), minlength=4) for w in windows])
    assert counts[0, PAD_ID] == b * context > 8 and counts[1, 2] > 8
    return windows


@pytest.mark.parametrize("clip", [None, 1e-3, 0.3, 1e3])
def test_stacked_loss_and_grads_rows_equal_single_calls(clip):
    """Row k of a (K, P) call equals the call on replica k alone, bitwise,
    for loss, plain gradient and clipped gradient. Small token ids make
    windows repeat tokens, as the clipping's embedding term must handle,
    and in the larger batch a client's batch repeats a token more than 8
    times, PAD-only windows included, which the embedding's segment sums
    must add up as a single call does."""
    models = [SMALL, ModelConfig(vocab_size=9, embed_dim=5, context=2, n_blocks=3)]
    for seed, (cfg, b) in enumerate(itertools.product(models, (5, 9))):
        k = 4
        rng = np.random.default_rng(seed)
        stack = np.stack([init_model(cfg, seed * 10 + i).params for i in range(k)])
        if b == 5:
            windows = rng.integers(0, 4, size=(k, b, cfg.context))
        else:
            windows = _repeating_windows(rng, k, b, cfg.context)
        targets = rng.integers(0, cfg.vocab_size, size=(k, b))
        out = np.full_like(stack, np.nan)
        plan = plan_batch(cfg, windows, targets, out, dense=True)
        losses, grads = loss_and_grads(GlobalModel(cfg, stack), windows, targets, clip, plan)
        assert grads is out and losses.shape == (k,)
        for i in range(k):
            loss, g = loss_and_grads(GlobalModel(cfg, stack[i].copy()), windows[i], targets[i], clip)
            assert losses[i] == loss
            np.testing.assert_array_equal(grads[i], g)


def test_plan_whose_buffer_does_not_fit_the_parameters_is_usage_error():
    """A plan built for a (2, P) stack owns a (2, P) gradient buffer: a
    (3, P) stack cannot step with it, and the error names both shapes."""
    size = param_count(SMALL)
    rng = np.random.default_rng(3)
    windows = rng.integers(0, SMALL.vocab_size, size=(3, 4, SMALL.context))
    targets = rng.integers(0, SMALL.vocab_size, size=(3, 4))
    plan = plan_batch(SMALL, windows[:2], targets[:2], np.empty((2, size), PARAM_DTYPE), True)
    stack = GlobalModel(SMALL, np.stack([init_model(SMALL, i).params for i in range(3)]))
    with pytest.raises(UsageError, match=rf"\(2, {size}\).*\(3, {size}\)"):
        loss_and_grads(stack, windows, targets, plan=plan)


def test_plan_of_another_batch_is_usage_error():
    """A plan keeps the windows and targets it was built from. Batch A's
    plan given batch B's windows or targets, of the same shapes, is a
    UsageError, not batch A's loss; equal copies of batch A's arrays give
    the bits of batch A's own arrays."""
    model = init_model(SMALL, 0)
    (wa, ta), (wb, tb) = _batch(SMALL, 4, seed=0), _batch(SMALL, 4, seed=1)
    plan = plan_batch(SMALL, wa, ta, np.empty_like(model.params), dense=True)
    for windows, targets in ((wb, tb), (wb, ta), (wa, tb)):
        with pytest.raises(UsageError, match="other windows or targets"):
            loss_and_grads(model, windows, targets, plan=plan)
    loss, grads = loss_and_grads(model, wa, ta, plan=plan)
    expected = grads.copy()
    assert loss_and_grads(model, wa.copy(), ta.copy(), plan=plan)[0] == loss
    np.testing.assert_array_equal(grads.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("dense", [True, False])
def test_segment_sum_scatter_equals_per_occurrence_float64_loop(dense):
    """A plan's scatter against a float64 loop that adds each occurrence's
    row to its (client, token) row. Each row of the float32 result is a sum
    of n float32 terms, within n eps of the sum of their magnitudes. The
    plan's rows are the rows used, each once; a dense plan zeroes every
    other row, and any other plan leaves it as it was."""
    k, b, d = 4, 7, 5
    rng = np.random.default_rng(21)
    windows = _repeating_windows(rng, k, b, SMALL.context)
    grads = np.empty((k, param_count(SMALL)), dtype=PARAM_DTYPE)
    plan = plan_batch(SMALL, windows, rng.integers(0, SMALL.vocab_size, size=(k, b)), grads, dense)
    demb = (rng.normal(size=(k, b, SMALL.context, d)) * 10.0 ** rng.integers(-3, 4, size=(k, b, 1, 1)))
    demb = demb.astype(PARAM_DTYPE)
    table = np.full((k, SMALL.vocab_size, d), np.nan, dtype=PARAM_DTYPE)
    plan.scatter(demb, table)

    expected = np.zeros(table.shape)
    magnitude = np.zeros(table.shape)
    uses = np.zeros(table.shape[:2], dtype=int)
    for (client, i, c), token in np.ndenumerate(windows):
        expected[client, token] += demb[client, i, c]
        magnitude[client, token] += np.abs(demb[client, i, c])
        uses[client, token] += 1
    used = uses > 0
    assert sorted(zip(*plan.rows)) == sorted(zip(*np.nonzero(used)))
    assert uses.max() > 8
    error = np.abs(table[used] - expected[used])
    assert np.all(error <= uses[used][:, None] * EPS * magnitude[used])
    if dense:
        np.testing.assert_array_equal(table[~used], 0.0)
    else:
        assert np.isnan(table[~used]).all()


def _relu_pattern(m, windows):
    trace = forward_trace(m, windows)
    return [pre > 0 for pre in trace.block_pre]


def _finite_difference_check(cfg, seed, n_coords=25, h=1e-5):
    """Central differences on a float64 copy of the initial model, whose
    rounding leaves room for a step of 1e-5; the model code follows the
    dtype of its parameters. The float32 gradient that training uses must
    then match the float64 one to float32 precision."""
    m32 = init_model(cfg, seed)
    m = GlobalModel(cfg, m32.params.astype(np.float64))
    windows, targets = _batch(cfg, 4, seed)
    _, grads = loss_and_grads(m, windows, targets)
    _, grads32 = loss_and_grads(m32, windows, targets)
    assert grads32.dtype == PARAM_DTYPE
    assert np.linalg.norm(grads32 - grads) <= 16 * EPS * np.linalg.norm(grads)
    pick = np.random.default_rng(seed + 1)
    for (name, p), g in zip(m.views.items(), views(cfg, grads).values()):
        flat, gflat = p.ravel(), g.ravel()
        idxs = pick.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_and_grads(m, windows, targets)
            pat_p = _relu_pattern(m, windows)
            flat[idx] = orig - h
            lm, _ = loss_and_grads(m, windows, targets)
            pat_m = _relu_pattern(m, windows)
            flat[idx] = orig
            if any(not np.array_equal(a, b) for a, b in zip(pat_p, pat_m)):
                continue  # ReLU kink inside the stencil; derivative not smooth here
            fd = (lp - lm) / (2 * h)
            # Round-off floor of the stencil: each computed loss is L(1 + d)
            # with |d| a few ulps, say |d| <= 4 eps, so fd is off by up to
            # (|lp| + |lm|) * 4 eps / (2h) <= 4 eps max(|lp|, |lm|) / h, about
            # 2e-10 here, whatever the true slope. Agreement is asked to 1e-4
            # relative on top of that.
            roundoff = 4 * np.finfo(float).eps * max(abs(lp), abs(lm)) / h
            assert abs(gflat[idx] - fd) <= 1e-4 * abs(fd) + roundoff, (
                f"{name}[{idx}]: analytic {gflat[idx]} vs fd {fd}"
            )


@settings(max_examples=5, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 1000),
)
def test_gradients_match_finite_differences(n_blocks, ffn_mult, seed):
    cfg = ModelConfig(vocab_size=7, embed_dim=4, context=2, n_blocks=n_blocks, ffn_mult=ffn_mult)
    _finite_difference_check(cfg, seed, n_coords=6)


def test_batch1_weight_grads_are_outer_products():
    m = init_model(SMALL, 5)
    windows, targets = _batch(SMALL, 1, 5)
    _, flat = loss_and_grads(m, windows, targets)
    g = views(SMALL, flat)
    trace = forward_trace(m, windows)
    for i in range(SMALL.n_blocks):
        fc_in = trace.block_inputs[i][0]
        proj_in = trace.block_hidden[i][0]
        b = f"block{i + 1}"
        np.testing.assert_allclose(
            g[b + ".fc.weight"], np.outer(g[b + ".fc.bias"], fc_in), atol=1e-10
        )
        np.testing.assert_allclose(
            g[b + ".proj.weight"], np.outer(g[b + ".proj.bias"], proj_in), atol=1e-10
        )


def test_weight_grad_rank_bounded_by_batch_size():
    m = init_model(SMALL, 6)
    for b in (1, 2, 3):
        windows, targets = _batch(SMALL, b, 6)
        _, flat = loss_and_grads(m, windows, targets)
        g = views(SMALL, flat)
        for i in range(1, SMALL.n_blocks + 1):
            # singular values above the rounding floor of the dtype
            assert np.linalg.matrix_rank(g[f"block{i}.fc.weight"]) <= b


def test_softmax_rows_sum_to_one():
    m = init_model(SMALL, 7)
    windows, _ = _batch(SMALL, 8, 7)
    logits = forward_trace(m, windows).logits
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=SMALL.vocab_size * EPS)


def test_forward_is_pure():
    m = init_model(SMALL, 8)
    windows, _ = _batch(SMALL, 8, 8)
    np.testing.assert_array_equal(
        forward_trace(m, windows).logits, forward_trace(m, windows).logits
    )


def test_sgd_step_lr_zero_is_identity():
    m = init_model(SMALL, 9)
    _, g = loss_and_grads(m, *_batch(SMALL, 4, 9))
    before = m.params.copy()
    sgd_step(m.params, g, 0.0)
    np.testing.assert_array_equal(m.params, before)


def test_sgd_step_scalar_arithmetic():
    m = init_model(SMALL, 10)
    g = np.zeros_like(m.params)
    m.views["output.bias"][0] = 1.0
    views(SMALL, g)["output.bias"][0] = 2.0
    sgd_step(m.params, g, 0.1)
    assert m.views["output.bias"][0] == pytest.approx(0.8)


def test_sgd_step_in_place_rounds_as_p_minus_lr_g():
    m = init_model(SMALL, 13)
    _, g = loss_and_grads(m, *_batch(SMALL, 4, 13))
    stack = np.stack([m.params, -m.params])
    expected = stack - 0.37 * np.stack([g, 2 * g])
    sgd_step(stack, np.stack([g, 2 * g]), 0.37)
    np.testing.assert_array_equal(stack, expected)


def test_two_steps_equal_one_combined_step():
    m = init_model(SMALL, 11)
    _, g1 = loss_and_grads(m, *_batch(SMALL, 4, 11))
    _, g2 = loss_and_grads(m, *_batch(SMALL, 4, 12))
    one = m.params - 0.1 * (g1 + g2)
    sgd_step(m.params, g1, 0.1)
    sgd_step(m.params, g2, 0.1)
    # each side rounds a few times at the magnitude of the parameters
    np.testing.assert_allclose(m.params, one, rtol=0, atol=4 * EPS * np.abs(one).max())


def test_sgd_step_shape_mismatch_is_usage_error():
    m = init_model(SMALL, 12)
    other = ModelConfig(vocab_size=5, embed_dim=8, context=3, n_blocks=2, ffn_mult=2)
    with pytest.raises(UsageError):
        sgd_step(m.params, np.zeros(param_count(other)), 0.1)
    with pytest.raises(UsageError):
        sgd_step(m.params, np.zeros(param_count(SMALL) + 1), 0.1)
    with pytest.raises(UsageError):
        sgd_step(np.stack([m.params] * 2), np.zeros(param_count(SMALL)), 0.1)


def test_views_tile_the_flat_vector_in_layout_order():
    for cfg in (SMALL, ModelConfig(vocab_size=9, embed_dim=4, context=2, n_blocks=3, ffn_mult=3)):
        flat = np.arange(param_count(cfg), dtype=np.float64)
        named = views(cfg, flat)
        assert [(name, v.shape) for name, v in named.items()] == list(param_layout(cfg))
        assert list(named)[-3:] == ["embedding", "output.weight", "output.bias"]
        assert all(np.shares_memory(v, flat) for v in named.values())
        # consecutive, in order, every coordinate exactly once
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in named.values()]), flat
        )


def test_views_of_a_stack_are_the_views_of_each_row():
    n = param_count(SMALL)
    stack = np.arange(3 * n, dtype=np.float64).reshape(3, n)
    named = views(SMALL, stack)
    for k in range(3):
        for name, arr in views(SMALL, stack[k]).items():
            np.testing.assert_array_equal(named[name][k], arr)
    assert all(np.shares_memory(v, stack) for v in named.values())


def test_views_of_wrong_length_are_usage_errors():
    n = param_count(SMALL)
    for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((2, n + 1)), np.zeros((1, 1, n))):
        with pytest.raises(UsageError):
            views(SMALL, bad)
        with pytest.raises(UsageError):
            GlobalModel(SMALL, bad)


def test_linear_layer_manifest_matches_layout_weight_shapes():
    for cfg in (SMALL, ModelConfig(vocab_size=9, embed_dim=4, context=2, n_blocks=3, ffn_mult=3)):
        d, h, v = cfg.embed_dim, cfg.ffn_mult * cfg.embed_dim, cfg.vocab_size
        expected = []
        for i in range(1, cfg.n_blocks + 1):
            expected += [
                (f"block{i}.fc.weight", (h, cfg.context * d if i == 1 else d)),
                (f"block{i}.fc.bias", (h,)),
                (f"block{i}.proj.weight", (d, h)),
                (f"block{i}.proj.bias", (d,)),
            ]
        expected += [("embedding", (v, d)), ("output.weight", (v, d)), ("output.bias", (v,))]
        assert list(param_layout(cfg)) == expected
        assert [(f"{name}.weight", (rows, cols)) for name, rows, cols in linear_layers(cfg)] == [
            (name, shape) for name, shape in expected if name.startswith("block") and len(shape) == 2
        ]


def test_selector_layer_order_and_feature_length():
    cfg = ModelConfig(vocab_size=9, embed_dim=4, context=2, n_blocks=1, ffn_mult=3)
    shapes = dict(param_layout(cfg))
    both = layer_names("both", cfg.n_blocks)
    fc = layer_names("fc", cfg.n_blocks)
    proj = layer_names("proj", cfg.n_blocks)
    assert fc + proj == both
    hidden = cfg.ffn_mult * cfg.embed_dim
    size = sum(int(np.prod(shapes[name + ".weight"])) for name in both)
    assert size == hidden * cfg.context * cfg.embed_dim + cfg.embed_dim * hidden
    # a block list picks its blocks in ascending order, FC layers first
    assert layer_names(" Both@3,1 ", 3) == ("block1.fc", "block3.fc", "block1.proj", "block3.proj")
    assert layer_names("proj@2", 3) == ("block2.proj",)


def test_selector_unknown_block_is_usage_error():
    with pytest.raises(UsageError):
        layer_names("fc@5", SMALL.n_blocks)


def test_eval_loss_deterministic_and_training_reduces_it():
    shards, vocab = generate_synthetic(
        SyntheticSpec(n_clients=2, train_sentences=25, valid_sentences=5, overlap=0.0), 0
    )
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, context=3, n_blocks=1, ffn_mult=2)
    m = init_model(cfg, 0)
    sentences = shards[0].train + shards[1].train
    windows, targets = windows_from_sentences(sentences, cfg.context)
    assert eval_loss(m, windows, targets) == eval_loss(m, windows, targets)
    initial = np.log(cfg.vocab_size)
    rng = np.random.default_rng(0)
    for _ in range(200):
        idx = rng.choice(windows.shape[0], size=16, replace=False)
        _, g = loss_and_grads(m, windows[idx], targets[idx])
        sgd_step(m.params, g, 0.1)
    assert eval_loss(m, windows, targets) < initial


def test_eval_loss_equals_the_loss_of_one_batch():
    """eval_loss and loss_and_grads share one softmax, so over the same
    windows eval_loss's sum of chunks equals the mean of one batch up to
    the rounding of their float32 sums. Each side sums at most 1,300
    positive losses pairwise, in blocks of 128 with 8 accumulators: within
    about (16 + log2(1300 / 128)) eps of the total, so 64 eps for both."""
    m = init_model(SMALL, 14)
    windows, targets = _batch(SMALL, 1300, 14)  # three EVAL_CHUNKs
    loss, _ = loss_and_grads(m, windows, targets)
    assert eval_loss(m, windows, targets) == pytest.approx(loss, rel=64 * EPS, abs=0)
    assert eval_loss(m, windows.reshape(2, 650, -1), targets.reshape(2, 650)) == eval_loss(
        m, windows, targets
    )
    stack = GlobalModel(SMALL, np.stack([m.params, init_model(SMALL, 15).params]))
    losses, _ = loss_and_grads(stack, np.stack([windows] * 2), np.stack([targets] * 2))
    assert losses[0] == loss
    assert eval_loss(GlobalModel(SMALL, stack.params[1]), windows, targets) == pytest.approx(
        losses[1], rel=64 * EPS, abs=0
    )


def test_memorizes_deterministic_corpus():
    # "a b a b ..." with enough capacity is fully predictable from context
    cfg = ModelConfig(vocab_size=4, embed_dim=8, context=2, n_blocks=1, ffn_mult=4)
    m = init_model(cfg, 0)
    sent = np.array([2, 3] * 12, dtype=np.int64)
    windows, targets = windows_from_sentences([sent], cfg.context)
    for _ in range(500):
        _, g = loss_and_grads(m, windows, targets)
        sgd_step(m.params, g, 0.5)
    assert eval_loss(m, windows, targets) < 0.1
