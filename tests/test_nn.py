import numpy as np
import pytest

from restock import nn
from restock.nn import (AdamState, LossIndex, MlpConfig, MlpParams, backward,
                        head_values, init_params, load_checkpoint,
                        save_checkpoint)
import oracles


def grads_of(params: MlpParams, x, actions, targets, head_mask):
    """``backward`` over the heads of ``head_mask``, into a fresh buffer."""
    return backward(params, x, actions, targets,
                    LossIndex(params.config, head_mask, len(x)),
                    MlpParams(params.config))


def td_loss(params: MlpParams, x, actions, targets, head_mask) -> float:
    """Masked sum over heads of mean((Q_h(s, a) - y_h)^2), one head at a
    time: the oracle the fused backward pass is checked against."""
    heads = head_values(params, x).transpose(1, 0, 2)
    idx = np.arange(len(actions))
    total = 0.0
    for h, q in enumerate(heads):
        if head_mask[h]:
            err = q[idx, actions] - targets[h]
            total += float(np.mean(err * err))
    return total


def sgd_step(params: MlpParams, grads: MlpParams, lr: float) -> MlpParams:
    """Plain in-place gradient step on the flat vector."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    params.flat -= lr * grads.flat
    return params


def named_arrays(params: MlpParams) -> list[np.ndarray]:
    return [*params.trunk_w, *params.trunk_b, *params.head_w, *params.head_b]


def small_config(**kw):
    defaults = dict(input_dim=4, hidden_dims=(5, 6), num_heads=3, num_actions=4)
    defaults.update(kw)
    return MlpConfig(**defaults)


def test_zero_params_give_zero_outputs():
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(0))
    zero = MlpParams(cfg)
    assert params.flat.size == zero.flat.size
    np.testing.assert_array_equal(
        head_values(zero, np.random.default_rng(1).random((3, 4))), 0.0)


def test_forward_is_deterministic_and_finite():
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).random((5, 4))
    q1, q2 = head_values(params, x), head_values(params, x)
    assert q1.shape == (5, cfg.num_heads, cfg.num_actions)
    np.testing.assert_array_equal(q1, q2)
    assert np.all(np.isfinite(q1))


def test_forward_rejects_nonfinite_input():
    params = init_params(small_config(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        head_values(params, np.array([np.nan, 0, 0, 0]))


def test_head_isolation():
    cfg = small_config()
    rng = np.random.default_rng(2)
    params = init_params(cfg, rng)
    x = rng.random((2, 4))
    before = head_values(params, x)
    params.head_w[1] += 0.5
    after = head_values(params, x)
    np.testing.assert_array_equal(before[:, 0], after[:, 0])
    np.testing.assert_array_equal(before[:, 2], after[:, 2])
    assert not np.array_equal(before[:, 1], after[:, 1])


def test_zero_loss_gives_zero_gradients():
    cfg = small_config()
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    x = rng.random((4, 4))
    actions = rng.integers(0, 4, size=4)
    q = head_values(params, x)
    targets = q[np.arange(4), :, actions].T
    loss, grads = grads_of(params, x, actions, targets, np.ones(3, bool))
    assert loss == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_array_equal(grads.flat, 0.0)


def test_masking_all_heads_zeroes_trunk_gradient():
    cfg = small_config()
    rng = np.random.default_rng(4)
    params = init_params(cfg, rng)
    x = rng.random((4, 4))
    actions = rng.integers(0, 4, size=4)
    targets = rng.random((3, 4))
    _, grads = grads_of(params, x, actions, targets, np.zeros(3, bool))
    np.testing.assert_array_equal(grads.flat, 0.0)


def test_masked_head_gets_zero_gradient():
    cfg = small_config()
    rng = np.random.default_rng(5)
    params = init_params(cfg, rng)
    x = rng.random((6, 4))
    actions = rng.integers(0, 4, size=6)
    targets = rng.random((3, 6))
    mask = np.array([True, False, True])
    _, grads = grads_of(params, x, actions, targets, mask)
    np.testing.assert_array_equal(grads.head_w[1], 0.0)
    np.testing.assert_array_equal(grads.head_b[1], 0.0)
    assert np.any(grads.head_w[0] != 0)


def finite_difference_grads(params, x, actions, targets, mask, h=1e-5):
    grads = MlpParams(params.config)
    flat_p, flat_g = params.flat, grads.flat
    for k in range(flat_p.size):
        orig = flat_p[k]
        flat_p[k] = orig + h
        up = td_loss(params, x, actions, targets, mask)
        flat_p[k] = orig - h
        dn = td_loss(params, x, actions, targets, mask)
        flat_p[k] = orig
        flat_g[k] = (up - dn) / (2.0 * h)
    return grads


def relative_error(a, b):
    num = np.linalg.norm(a - b)
    den = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return num / den


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(8):
        cfg = MlpConfig(input_dim=int(rng.integers(2, 5)),
                        hidden_dims=(int(rng.integers(3, 6)),
                                     int(rng.integers(3, 6))),
                        num_heads=int(rng.integers(1, 4)),
                        num_actions=int(rng.integers(2, 5)))
        params = init_params(cfg, rng)
        # random biases keep pre-activations off the ReLU kink, where
        # central differences disagree with the subgradient
        for b in params.trunk_b + params.head_b:
            b += rng.uniform(-0.5, 0.5, b.shape)
        batch = int(rng.integers(1, 5))
        x = rng.standard_normal((batch, cfg.input_dim))
        actions = rng.integers(0, cfg.num_actions, size=batch)
        targets = rng.standard_normal((cfg.num_heads, batch))
        mask = rng.random(cfg.num_heads) < 0.8
        loss, analytic = grads_of(params, x, actions, targets, mask)
        assert loss == pytest.approx(td_loss(params, x, actions, targets,
                                             mask), rel=1e-12, abs=1e-15)
        numeric = finite_difference_grads(params, x, actions, targets, mask)
        for a, n in zip(named_arrays(analytic), named_arrays(numeric)):
            if np.linalg.norm(n) == 0 and np.linalg.norm(a) == 0:
                continue
            assert relative_error(a, n) < 1e-4


def test_sgd_step_examples():
    cfg = MlpConfig(input_dim=1, hidden_dims=(1,), num_heads=1, num_actions=1)
    params = MlpParams(cfg)
    params.trunk_w[0][0, 0] = 2.0
    params.head_w[0][0, 0] = 1.0
    grads = MlpParams(cfg)
    before = params.copy()
    sgd_step(params, grads, lr=0.5)
    np.testing.assert_array_equal(params.trunk_w[0], before.trunk_w[0])

    grads.trunk_w[0][0, 0] = 0.5
    sgd_step(params, grads, lr=1.0)
    assert params.trunk_w[0][0, 0] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        sgd_step(params, grads, lr=0.0)


def test_adam_steps_are_deterministic():
    cfg = small_config()
    rng = np.random.default_rng(7)
    x = rng.random((8, 4))
    actions = rng.integers(0, 4, size=8)
    targets = rng.random((3, 8))
    results = []
    for _ in range(2):
        params = init_params(cfg, np.random.default_rng(7))
        opt = AdamState(params, lr=1e-3)
        for _ in range(5):
            _, grads = grads_of(params, x, actions, targets, np.ones(3, bool))
            opt.step(params, grads)
        results.append(params)
    np.testing.assert_array_equal(results[0].flat, results[1].flat)


def test_training_reduces_regression_loss():
    cfg = MlpConfig(input_dim=3, hidden_dims=(16, 16), num_heads=1,
                    num_actions=2)
    rng = np.random.default_rng(8)
    params = init_params(cfg, rng)
    opt = AdamState(params, lr=1e-3)
    x = rng.standard_normal((64, 3))
    actions = rng.integers(0, 2, size=64)
    targets = rng.standard_normal((1, 64))
    mask = np.ones(1, bool)
    first = td_loss(params, x, actions, targets, mask)
    for _ in range(1000):
        _, grads = grads_of(params, x, actions, targets, mask)
        opt.step(params, grads)
    final = td_loss(params, x, actions, targets, mask)
    assert final < 0.1 * first


def test_checkpoint_roundtrip_exact(tmp_path):
    cfg = small_config()
    rng = np.random.default_rng(9)
    params = init_params(cfg, rng)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, metadata={"mode": "dqn", "episode": 7})
    loaded, cfg2, meta = load_checkpoint(path)
    assert cfg2 == cfg
    assert meta == {"mode": "dqn", "episode": 7}
    np.testing.assert_array_equal(params.flat, loaded.flat)


# ------------------------------------------------------------ flat layout

def test_flat_vector_and_named_views_share_memory():
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(10))
    sizes = [a.size for a in named_arrays(params)]
    assert params.flat.size == sum(sizes)
    params.flat[:] = np.arange(params.flat.size)
    # the first trunk matrix leads the vector; the fused head matrix holds
    # head h in columns [h * actions, (h + 1) * actions)
    np.testing.assert_array_equal(params.trunk_w[0].ravel(),
                                  np.arange(4 * 5))
    a = cfg.num_actions
    for h in range(cfg.num_heads):
        np.testing.assert_array_equal(params.head_w[h],
                                      params.heads_w[:, h * a:(h + 1) * a])
        np.testing.assert_array_equal(params.head_b[h],
                                      params.heads_b[h * a:(h + 1) * a])
    params.head_b[2][1] = -7.0
    assert params.flat[-a + 1] == -7.0
    params.flat[0] = 99.0
    assert params.trunk_w[0][0, 0] == 99.0
    with pytest.raises(ValueError):
        MlpParams(cfg, np.zeros(params.flat.size + 1))


def test_init_params_draws_per_head_blocks_in_order():
    """Same draws, in the same order, as one uniform array per layer and
    per head."""
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    dims = (cfg.input_dim, *cfg.hidden_dims)
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = np.sqrt(6.0 / fan_in)
        np.testing.assert_array_equal(
            params.trunk_w[k], rng.uniform(-limit, limit, (fan_in, fan_out)))
        np.testing.assert_array_equal(params.trunk_b[k], 0.0)
    limit = np.sqrt(6.0 / dims[-1])
    for h in range(cfg.num_heads):
        np.testing.assert_array_equal(
            params.head_w[h],
            rng.uniform(-limit, limit, (dims[-1], cfg.num_actions)))
    np.testing.assert_array_equal(params.heads_b, 0.0)


def test_copy_and_target_sync_do_not_alias():
    from restock import agents
    from restock.config import AgentParams
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(12))
    twin = params.copy()
    assert not np.shares_memory(twin.flat, params.flat)
    params.flat += 1.0
    assert not np.array_equal(twin.flat, params.flat)

    bundle = agents.make_bundle("dqn", seed=0, agent=AgentParams(
        hidden_dims=(8, 8), batch_size=4, target_sync=1))
    rng = np.random.default_rng(0)
    s = rng.random((8, 7))
    bundle.buffer.push_block(s, rng.integers(0, 14, 8), rng.random(8),
                             rng.random((8, 3)), s, np.zeros(8, bool))
    agents.train_step(bundle)   # syncs the target (target_sync=1)
    np.testing.assert_array_equal(bundle.target.flat, bundle.params.flat)
    assert not np.shares_memory(bundle.target.flat, bundle.params.flat)
    synced = bundle.target.flat.copy()
    bundle.params.flat += 0.5
    np.testing.assert_array_equal(bundle.target.flat, synced)


def test_masked_head_stays_bit_identical_through_adam():
    cfg = small_config()
    rng = np.random.default_rng(13)
    params = init_params(cfg, rng)
    opt = AdamState(params, lr=1e-2)
    mask = np.array([True, False, True])
    frozen_w, frozen_b = params.head_w[1].copy(), params.head_b[1].copy()
    trunk_before = params.trunk_w[0].copy()
    for _ in range(20):
        x = rng.random((8, 4))
        _, grads = grads_of(params, x, rng.integers(0, 4, 8),
                            rng.random((3, 8)), mask)
        np.testing.assert_array_equal(grads.head_w[1], 0.0)
        opt.step(params, grads)
    assert np.array_equal(params.head_w[1], frozen_w)
    assert np.array_equal(params.head_b[1], frozen_b)
    assert not np.array_equal(params.trunk_w[0], trunk_before)


def test_adam_matches_per_array_reference():
    """The flat step equals Adam written out array by array."""
    cfg = small_config()
    rng = np.random.default_rng(14)
    params = init_params(cfg, rng)
    ref = [a.copy() for a in named_arrays(params)]
    m = [np.zeros_like(a) for a in ref]
    v = [np.zeros_like(a) for a in ref]
    opt = AdamState(params, lr=1e-2)
    for t in range(1, 6):
        grads = MlpParams(cfg, rng.standard_normal(params.flat.size))
        opt.step(params, grads)
        for p, g, mk, vk in zip(ref, named_arrays(grads), m, v):
            mk *= 0.9
            mk += (1.0 - 0.9) * g
            vk *= 0.999
            vk += (1.0 - 0.999) * g * g
            p -= 1e-2 * (mk / (1 - 0.9 ** t)) / (
                np.sqrt(vk / (1 - 0.999 ** t)) + 1e-8)
    for a, b in zip(named_arrays(params), ref):
        np.testing.assert_array_equal(a, b)


def test_only_version_2_checkpoints_load(tmp_path):
    """A version-1 file (one array per trunk layer and per head) or any
    other version than 2 is refused, and the message names the version."""
    import json
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(15))
    arrays = {f"{name}_{k}": np.ascontiguousarray(a)
              for name in ("trunk_w", "trunk_b", "head_w", "head_b")
              for k, a in enumerate(getattr(params, name))}
    meta = {"config": {
        "input_dim": cfg.input_dim, "hidden_dims": list(cfg.hidden_dims),
        "num_heads": cfg.num_heads, "num_actions": cfg.num_actions},
        "metadata": {"variant": "dqn"}}
    for version in (1, 7):
        arrays["meta"] = np.frombuffer(
            json.dumps({**meta, "version": version}).encode(), dtype=np.uint8)
        path = tmp_path / f"v{version}.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=f"version {version}"):
            load_checkpoint(path)


# ------------------------------------------------- in-place learner oracles

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [1, 2, 5, 17, 64])
def test_head_values_is_the_oracle_forward_block(batch):
    cfg = MlpConfig(input_dim=7, hidden_dims=(64, 64), num_heads=4,
                    num_actions=14)
    rng = np.random.default_rng(batch)
    params = init_params(cfg, rng)
    params.flat += rng.uniform(-0.1, 0.1, params.flat.size)
    x = rng.random((batch, 7))
    assert same_bits(head_values(params, x),
                     oracles.forward(params, x)[1].transpose(1, 0, 2))


@pytest.mark.parametrize("batch", [1, 2, 5, 17, 64])
def test_backward_matches_the_fresh_gradient_oracle(batch):
    """Loss and every gradient bit equal the oracle's for every head mask,
    and each call overwrites the whole buffer, whatever it held."""
    cfg = MlpConfig(input_dim=7, hidden_dims=(64, 64), num_heads=4,
                    num_actions=14)
    rng = np.random.default_rng(100 + batch)
    params = init_params(cfg, rng)
    params.flat += rng.uniform(-0.1, 0.1, params.flat.size)
    grads = MlpParams(cfg)
    for mask in ([1, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0]):
        mask = np.array(mask, bool)
        x = rng.random((batch, 7))
        actions = rng.integers(0, 14, batch)
        targets = rng.standard_normal((4, batch))
        grads.flat[:] = np.nan
        loss, out = backward(params, x, actions, targets,
                             LossIndex(cfg, mask, batch), grads)
        want_loss, want = oracles.backward(params, x, actions, targets, mask)
        assert out is grads
        assert same_bits(loss, want_loss)
        assert same_bits(grads.flat, want.flat)


def test_backward_refuses_a_batch_its_index_was_not_built_for():
    cfg = small_config()
    params = init_params(cfg, np.random.default_rng(16))
    index = LossIndex(cfg, np.ones(3, bool), 4)
    with pytest.raises(ValueError, match="batches of 4 rows"):
        backward(params, np.zeros((5, 4)), np.zeros(5, int),
                 np.zeros((3, 5)), index, MlpParams(cfg))


def test_flushing_leaves_no_subnormal_first_moment():
    """A weight whose gradient turns 0 for good has its first moment decay
    into the subnormal range and stay there; a flush at every target sync
    (500 steps) leaves none after 7,000 zero gradients."""
    cfg = small_config()
    rng = np.random.default_rng(17)
    subnormal = []
    for flush in (False, True):
        params = init_params(cfg, rng)
        opt = AdamState(params, lr=1e-3)
        opt.step(params, MlpParams(cfg, rng.standard_normal(
            params.flat.size)))
        zero = MlpParams(cfg)
        for t in range(1, 7001):
            opt.step(params, zero)
            if flush and t % 500 == 0:
                opt.flush_subnormals()
        tiny = np.finfo(float).tiny
        subnormal.append(int(((opt.m != 0) & (np.abs(opt.m) < tiny)).sum()))
    assert subnormal[0] > 0 and subnormal[1] == 0


def test_target_sync_flushes_the_first_moment():
    from restock import agents
    from restock.config import AgentParams
    bundle = agents.make_bundle("dqn", seed=0, agent=AgentParams(
        hidden_dims=(8, 8), batch_size=4, target_sync=3))
    rng = np.random.default_rng(0)
    s = rng.random((8, 7))
    bundle.buffer.push_block(s, rng.integers(0, 14, 8), rng.random(8),
                             rng.random((8, 3)), s, np.zeros(8, bool))
    # a GVF head weight: the dqn variant never gives it a gradient
    k = bundle.params.flat.size - 1
    bundle.opt.m[k] = 5e-324
    for _ in range(2):
        agents.train_step(bundle)
    assert bundle.opt.m[k] == 5e-324        # 0.9 ulp rounds back to 1 ulp
    agents.train_step(bundle)               # the third step syncs
    assert bundle.opt.m[k] == 0.0
