import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from restock import agents, nn
from restock.agents import (DecisionLog, ReplayBuffer, exploration_mode,
                            load_agent, make_bundle, run_episode, save_agent,
                            select_actions, td_targets, train_agent,
                            train_step)
from restock.config import AgentParams, EnvParams, RewardMod
from restock.datagen import DatasetSpec, generate, initial_inventories
from restock.env import ACTION_SET, NUM_ACTIONS, NUM_FEATURES, Simulator
from conftest import make_catalog
import oracles


def select_action(params, s, epsilon, mode, rng):
    """Single-state version of select_actions: (action index, source tag)."""
    actions, tags, _ = select_actions(params, np.atleast_2d(s), epsilon,
                                      mode, rng)
    return int(actions[0]), int(tags[0])


def tiny_bundle(variant="dez_dqn_gvf", seed=0, **kw):
    defaults = dict(buffer_capacity=5000, batch_size=16, train_every=1,
                    target_sync=50, hidden_dims=(16, 16))
    defaults.update(kw)
    return make_bundle(variant, seed=seed, agent=AgentParams(**defaults))


# ------------------------------------------------------------ replay buffer

def test_buffer_rejects_small_sample_and_big_block():
    buf = ReplayBuffer(capacity=8)
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        buf.push_block(np.zeros((9, NUM_FEATURES)), np.zeros(9, int),
                       np.zeros(9), np.zeros((9, 3)), np.zeros((9, NUM_FEATURES)),
                       False)


def test_buffer_overwrites_oldest():
    buf = ReplayBuffer(capacity=10)
    for k in range(4):
        s = np.full((5, NUM_FEATURES), k, dtype=float)
        buf.push_block(s, np.full(5, k), np.full(5, k), np.zeros((5, 3)),
                       s, False)
    assert len(buf) == 10
    # only the two most recent blocks (k=2,3) survive
    assert set(np.unique(buf.a)) == {2, 3}
    batch = buf.sample(np.random.default_rng(1), 10)
    assert set(np.unique(batch[1])) <= {2, 3}


def test_buffer_sampling_is_uniform():
    buf = ReplayBuffer(capacity=64)
    s = np.zeros((64, NUM_FEATURES))
    buf.push_block(s, np.arange(64), np.zeros(64), np.zeros((64, 3)), s, False)
    rng = np.random.default_rng(2)
    counts = np.zeros(64)
    for _ in range(500):
        batch = buf.sample(rng, 64)
        counts += np.bincount(batch[1], minlength=64)
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 0.01


# ------------------------------------------------------------- exploration

def test_schedule_monotone_and_bounded():
    agent = AgentParams(eps_start=1.0, eps_end=0.05, anneal_frac=0.5)
    values = [agent.epsilon(ep, 100) for ep in range(100)]
    assert values[0] == 1.0
    assert values[-1] == pytest.approx(0.05)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.05 <= v <= 1.0 for v in values)


def test_greedy_when_epsilon_zero():
    bundle = tiny_bundle()
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rng.random(NUM_FEATURES)
        a, tag = select_action(bundle.params, s, 0.0, "dez_greedy", bundle.rng)
        q = nn.head_values(bundle.params, s)[0][0]
        assert a == int(np.argmax(q))
        assert tag == agents.TAG_MAIN


def test_degenerate_head_unique_max():
    bundle = tiny_bundle()
    params = nn.MlpParams(bundle.config)
    params.head_b[0][5] = 1.0
    a, tag = select_action(params, np.zeros(NUM_FEATURES), 0.0,
                           "epsilon_greedy", bundle.rng)
    assert a == 5 and tag == agents.TAG_MAIN


def test_argmax_ties_break_to_lowest_index():
    bundle = tiny_bundle()
    params = nn.MlpParams(bundle.config)  # all-equal head outputs
    a, _ = select_action(params, np.zeros(NUM_FEATURES), 0.0,
                         "epsilon_greedy", bundle.rng)
    assert a == 0


def test_selection_invariant_under_positive_affine_maps():
    bundle = tiny_bundle()
    rng = np.random.default_rng(4)
    s = rng.random((10, NUM_FEATURES))
    a1, _, _ = select_actions(bundle.params, s, 0.0, "dez_greedy", bundle.rng)
    scaled = bundle.params.copy()
    for k in range(4):
        scaled.head_w[k] *= 3.0
        scaled.head_b[k] *= 3.0
        scaled.head_b[k] += 0.7
    a2, _, _ = select_actions(scaled, s, 0.0, "dez_greedy", bundle.rng)
    np.testing.assert_array_equal(a1, a2)


def test_dez_and_epsilon_greedy_agree_at_zero_epsilon():
    bundle = tiny_bundle()
    rng = np.random.default_rng(5)
    s = rng.random((50, NUM_FEATURES))
    a1, _, _ = select_actions(bundle.params, s, 0.0, "dez_greedy",
                              np.random.default_rng(1))
    a2, _, _ = select_actions(bundle.params, s, 0.0, "epsilon_greedy",
                              np.random.default_rng(2))
    np.testing.assert_array_equal(a1, a2)


def test_dez_source_tags_uniform_at_full_epsilon():
    bundle = tiny_bundle()
    rng = np.random.default_rng(6)
    s = rng.random((1000, NUM_FEATURES))
    counts = np.zeros(4)
    for _ in range(100):
        _, tags, _ = select_actions(bundle.params, s, 1.0, "dez_greedy",
                                    bundle.rng)
        assert not np.any(tags == agents.TAG_MAIN)
        counts += np.bincount(tags, minlength=5)[1:]
    assert counts.sum() == 100_000
    assert stats.chisquare(counts).pvalue > 0.01


def test_gvf_exploration_picks_head_argmin():
    bundle = tiny_bundle()
    params = nn.MlpParams(bundle.config)
    params.head_b[2][7] = -1.0  # gvf2's minimizer is action 7
    rng = np.random.default_rng(8)
    seen = False
    for _ in range(200):
        a, tag = select_action(params, np.zeros(NUM_FEATURES), 1.0,
                               "dez_greedy", rng)
        if tag == agents.TAG_GVF2:
            assert a == 7
            seen = True
    assert seen


# ------------------------------------------------------------- TD learning

def fixed_batch(bundle, s, a, r, c, s_next, terminal):
    return (np.atleast_2d(s), np.asarray(a), np.asarray(r, float),
            np.atleast_2d(c), np.atleast_2d(s_next), np.asarray(terminal))


def test_td_targets_terminal_and_zero_gamma():
    bundle = tiny_bundle()
    s = np.random.default_rng(0).random((1, NUM_FEATURES))
    batch = fixed_batch(bundle, s, [3], [0.5], [[0.1, 0.2, 0.3]], s, [True])
    targets = td_targets(bundle, batch)
    assert targets[0, 0] == pytest.approx(0.5)
    np.testing.assert_allclose(targets[1:, 0], [0.1, 0.2, 0.3])

    bundle.agent = replace(bundle.agent, gamma=0.0)
    batch = fixed_batch(bundle, s, [3], [0.5], [[0.1, 0.2, 0.3]], s, [False])
    targets = td_targets(bundle, batch)
    assert targets[1, 0] == pytest.approx(0.1)


def test_td_targets_use_min_for_gvf_heads():
    bundle = tiny_bundle()
    s = np.random.default_rng(1).random((1, NUM_FEATURES))
    qs = nn.head_values(bundle.target, s)
    batch = fixed_batch(bundle, s, [0], [0.0], [[0.0, 0.0, 0.0]], s, [False])
    targets = td_targets(bundle, batch)
    gamma = bundle.agent.gamma
    assert targets[0, 0] == pytest.approx(gamma * qs[:, 0].max())
    assert targets[2, 0] == pytest.approx(gamma * qs[:, 2].min())


def test_train_step_respects_head_mask():
    bundle = tiny_bundle(variant="dqn")
    rng = np.random.default_rng(2)
    s = rng.random((100, NUM_FEATURES))
    bundle.buffer.push_block(s, rng.integers(0, NUM_ACTIONS, 100),
                             rng.random(100), rng.random((100, 3)), s,
                             np.zeros(100, bool))
    gvf_before = [w.copy() for w in bundle.params.head_w[1:]]
    main_before = bundle.params.head_w[0].copy()
    for _ in range(5):
        assert train_step(bundle) is not None
    for before, after in zip(gvf_before, bundle.params.head_w[1:]):
        np.testing.assert_array_equal(before, after)
    assert not np.array_equal(main_before, bundle.params.head_w[0])


def test_train_step_deterministic_across_bundles():
    results = []
    for _ in range(2):
        bundle = tiny_bundle(seed=9)
        rng = np.random.default_rng(3)
        s = rng.random((200, NUM_FEATURES))
        bundle.buffer.push_block(s, rng.integers(0, NUM_ACTIONS, 200),
                                 rng.random(200), rng.random((200, 3)), s,
                                 np.zeros(200, bool))
        for _ in range(20):
            train_step(bundle)
        results.append(bundle.params)
    np.testing.assert_array_equal(results[0].flat, results[1].flat)


def chain_buffer(bundle, states, cumulant_table, reward_table, gamma_steps=None):
    """Deterministic cycle s0 -> s1 -> ... -> s0, same for every action."""
    n = len(states)
    s, a, r, c, s2 = [], [], [], [], []
    rng = np.random.default_rng(0)
    for k in range(n):
        for act in range(NUM_ACTIONS):
            s.append(states[k])
            a.append(act)
            r.append(reward_table[k])
            c.append(cumulant_table[k])
            s2.append(states[(k + 1) % n])
    reps = max(1, bundle.agent.batch_size * 4 // len(a))
    s = np.tile(np.array(s), (reps, 1))
    a = np.tile(np.array(a), reps)
    r = np.tile(np.array(r), reps)
    c = np.tile(np.array(c), (reps, 1))
    s2 = np.tile(np.array(s2), (reps, 1))
    bundle.buffer.push_block(s, a, r, c, s2, np.zeros(len(a), bool))


def test_single_state_chain_learns_geometric_sum():
    bundle = tiny_bundle(seed=4, target_sync=25, batch_size=64, gamma=0.9)
    state = np.full(NUM_FEATURES, 0.5)
    chain_buffer(bundle, [state], [[0.3, 0.3, 0.3]], [0.3])
    for _ in range(4000):
        train_step(bundle)
    bundle.opt.lr = 1e-4  # polish away the gradient-noise floor
    for _ in range(2000):
        train_step(bundle)
    qs = nn.head_values(bundle.params, state)
    expect = 0.3 / (1.0 - 0.9)  # = 3.0
    for head in range(4):
        np.testing.assert_allclose(qs[0][head], expect, rtol=0.01)


def test_three_state_chain_matches_value_iteration():
    bundle = tiny_bundle(seed=5, target_sync=25, batch_size=64, gamma=0.9)
    states = [np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 0.5),
              np.ones(NUM_FEATURES)]
    cumulants = [[0.8, 1.0, 0.2], [0.1, 0.0, 0.5], [0.4, 0.0, 0.9]]
    rewards = [0.6, -0.2, 0.3]

    # brute-force value iteration on the cycle
    v_main = np.zeros(3)
    v_gvf = np.zeros((3, 3))
    for _ in range(2000):
        v_main = np.array(rewards) + 0.9 * np.roll(v_main, -1)
        v_gvf = np.array(cumulants) + 0.9 * np.roll(v_gvf, -1, axis=0)

    chain_buffer(bundle, states, cumulants, rewards)
    for _ in range(6000):
        train_step(bundle)
    bundle.opt.lr = 1e-4
    for _ in range(6000):
        train_step(bundle)
    for k, s in enumerate(states):
        qs = nn.head_values(bundle.params, s)
        assert np.allclose(qs[0][0], v_main[k], rtol=0.01, atol=0.02)
        for g in range(3):
            assert np.allclose(qs[0][1 + g], v_gvf[k, g], rtol=0.01, atol=0.02)
    # bounded cumulants keep GVF2 inside [0, 1/(1-gamma)] (+5%)
    band = 1.0 / (1.0 - bundle.agent.gamma)
    for s in states:
        q2 = nn.head_values(bundle.params, s)[:, 2]
        assert np.all(q2 >= -0.05 * band) and np.all(q2 <= 1.05 * band)


# ------------------------------------------------------------ full episodes

def small_world(p=4, seed=13, horizon=80, train_len=60):
    ds = generate(DatasetSpec(products=p, horizon=horizon, train_len=train_len,
                              seed=seed))
    sim = Simulator(ds.catalog, ds.demand, EnvParams(forecast_window=4))
    return ds, sim


def test_eval_episode_is_repeatable_and_pure():
    ds, sim = small_world()
    bundle = tiny_bundle(seed=1)
    x0 = initial_inventories(4, 100)
    before = bundle.params.flat.copy()
    m1 = run_episode(bundle, sim, *ds.test_window, x0=x0, mode="eval")
    m2 = run_episode(bundle, sim, *ds.test_window, x0=x0, mode="eval")
    assert m1 == m2
    np.testing.assert_array_equal(before, bundle.params.flat)
    assert len(bundle.buffer) == 0


def test_stored_rewards_are_consistent_with_env_identity():
    ds, sim = small_world()
    bundle = tiny_bundle(seed=2)
    x0 = initial_inventories(4, 3)
    run_episode(bundle, sim, 0, 30, x0=x0, mode="train", epsilon=0.5)
    assert len(bundle.buffer) == 30 * 4
    # every stored per-product reward batch matches the business reward
    # minus the capacity penalty when averaged per period
    r = bundle.buffer.r[:len(bundle.buffer)].reshape(30, 4)
    sim2 = Simulator(ds.catalog, ds.demand, EnvParams(forecast_window=4))
    sim2.reset(x0, 0)
    # replay with the stored actions to recompute the env-side quantities
    a = bundle.buffer.a[:len(bundle.buffer)].reshape(30, 4)
    from restock.env import ACTION_SET
    for k in range(30):
        out = sim2.step(ACTION_SET[a[k]])
        expect = out.component_means[0] - out.component_means[6]
        assert r[k].mean() == pytest.approx(expect, abs=1e-9)


def test_run_episode_refuses_a_window_past_the_demand_data():
    ds, sim = small_world()             # 80 periods of demand
    bundle = tiny_bundle(seed=2)
    run_episode(bundle, sim, 70, 10, x0=np.full(4, 0.5), mode="eval")
    for start, length in ((70, 11), (80, 1), (0, 81)):
        with pytest.raises(ValueError, match="past the demand data"):
            run_episode(bundle, sim, start, length, x0=np.full(4, 0.5),
                        mode="eval")


def test_training_episode_deterministic_trajectories():
    snaps = []
    for _ in range(2):
        ds, sim = small_world()
        bundle = tiny_bundle(seed=21)
        hist = train_agent(bundle, sim, episodes=3, start=0, length=40,
                           x0_provider=lambda ep: initial_inventories(
                               4, np.random.SeedSequence([7, ep])))
        snaps.append((bundle.params, [m.mean_business_reward for m in hist]))
    assert snaps[0][1] == snaps[1][1]
    np.testing.assert_array_equal(snaps[0][0].flat, snaps[1][0].flat)


def test_losses_stay_finite_on_smoke_dataset():
    ds, sim = small_world(p=10, seed=31, horizon=160, train_len=120)
    bundle = tiny_bundle(seed=3, buffer_capacity=20_000)
    x0p = lambda ep: initial_inventories(10, np.random.SeedSequence([1, ep]))
    steps = 0
    for ep in range(10):
        run_episode(bundle, sim, 0, 120, x0=x0p(ep), mode="train",
                    epsilon=0.3, episode_index=ep)
    assert bundle.train_steps >= 1000
    batch = bundle.buffer.sample(bundle.rng, bundle.agent.batch_size)
    rec = train_step(bundle, batch)
    assert np.isfinite(rec["loss"])
    qs = nn.head_values(bundle.params, batch[0])
    assert np.all(np.isfinite(qs))


def test_decision_log_layout():
    ds, sim = small_world()
    bundle = tiny_bundle(seed=4)
    log = DecisionLog()
    run_episode(bundle, sim, 0, 20, x0=np.full(4, 0.5), mode="eval",
                decision_log=log)
    arrays = log.arrays()
    assert arrays["period"].shape == (80,)
    assert set(np.unique(arrays["product"])) == {0, 1, 2, 3}
    assert np.all(arrays["action_value"] >= 0)
    # one flat column per decisions.csv column, period-major; a log that
    # opens a second window is sized for it
    run_episode(bundle, sim, 5, 7, x0=np.full(4, 0.5), mode="eval",
                decision_log=log)
    arrays = log.arrays()
    assert list(arrays) == ["period", "product", "inventory", "order",
                            "action_index", "action_value", "tag", "gvf1",
                            "gvf2", "gvf3"]
    for k in ("period", "product", "action_index", "tag"):
        assert arrays[k].dtype == np.int64, k
    np.testing.assert_array_equal(arrays["period"], np.repeat(range(5, 12), 4))
    np.testing.assert_array_equal(arrays["product"], np.tile(range(4), 7))
    np.testing.assert_array_equal(arrays["order"], ds.demand[5:12].ravel())
    np.testing.assert_array_equal(arrays["action_value"],
                                  ACTION_SET[arrays["action_index"]])


def test_fine_tune_zero_episodes_is_identity():
    """Fine-tuning is train_agent under a flat schedule; zero episodes
    leave the policy untouched, and the flat schedule yields eps exactly."""
    ds, sim = small_world()
    bundle = tiny_bundle(seed=6, eps_start=0.1, eps_end=0.1)
    before = bundle.params.flat.copy()
    assert train_agent(bundle, sim, episodes=0, start=0, length=20,
                       x0_provider=lambda ep: np.full(4, 0.5)) == []
    np.testing.assert_array_equal(before, bundle.params.flat)
    history = train_agent(bundle, sim, episodes=3, start=0, length=20,
                          x0_provider=lambda ep: np.full(4, 0.5))
    assert [m.epsilon for m in history] == [0.1, 0.1, 0.1]
    assert [m.episode for m in history] == [0, 1, 2]


def test_fine_tune_sees_modified_rewards():
    ds, _ = small_world()
    env = EnvParams(forecast_window=4)
    base = Simulator(ds.catalog, ds.demand, env)
    heavy = Simulator(ds.catalog, ds.demand, env,
                      RewardMod(wastage_weight=4.0))
    x0 = np.full(4, 0.9)
    base.reset(x0, 0)
    heavy.reset(x0, 0)
    zero = np.zeros(4)
    ob, oh = base.step(zero), heavy.step(zero)
    assert oh.component_means[0] == pytest.approx(
        ob.component_means[0] - 3.0 * ob.q_waste.mean())
    np.testing.assert_allclose(
        oh.per_product_rewards, ob.per_product_rewards - 3.0 * ob.q_waste)


def test_checkpoint_roundtrip_preserves_policy(tmp_path):
    ds, sim = small_world()
    bundle = tiny_bundle(seed=8)
    train_agent(bundle, sim, episodes=2, start=0, length=30,
                x0_provider=lambda ep: np.full(4, 0.4))
    path = tmp_path / "agent.npz"
    save_agent(path, bundle, env={}, reward_mod={})
    restored = load_agent(path, seed=8)
    assert restored.variant == bundle.variant
    s = np.random.default_rng(0).random((20, NUM_FEATURES))
    a1, _, _ = select_actions(bundle.params, s, 0.0, "dez_greedy",
                              np.random.default_rng(1))
    a2, _, _ = select_actions(restored.params, s, 0.0, "dez_greedy",
                              np.random.default_rng(2))
    np.testing.assert_array_equal(a1, a2)


def test_load_agent_restores_stored_hyperparameters(tmp_path):
    bundle = tiny_bundle(seed=9, buffer_capacity=300, batch_size=8,
                         gamma=0.8, hidden_dims=(12, 10), lr=5e-4)
    path = tmp_path / "agent.npz"
    save_agent(path, bundle, env={}, reward_mod={})
    restored = load_agent(path, seed=3)
    assert restored.agent == bundle.agent
    assert restored.buffer.capacity == 300
    assert restored.config == bundle.config
    assert restored.opt.lr == 5e-4
    np.testing.assert_array_equal(restored.params.flat, bundle.params.flat)
    # an explicit agent must match the stored network shape
    with pytest.raises(ValueError):
        load_agent(path, seed=3, agent=AgentParams())


def test_load_agent_refuses_checkpoint_without_scoring_keys(tmp_path):
    """A checkpoint that does not store its agent, env and reward mod
    cannot be scored as it was produced: it is refused, even when the
    caller passes the agent, and the error names every missing key."""
    bundle = tiny_bundle(seed=10, gamma=0.7, hidden_dims=(12, 10))
    path = tmp_path / "agent.npz"
    save_agent(path, bundle, env={}, reward_mod={})
    params, _, meta = nn.load_checkpoint(path)
    for drop in (("agent",), ("env", "reward_mod"),
                 ("agent", "env", "reward_mod")):
        nn.save_checkpoint(path, params, {
            **{k: v for k, v in meta.items() if k not in drop},
            "gamma": 0.7})
        with pytest.raises(ValueError, match=re.escape(repr(list(drop)))):
            load_agent(path, seed=10)
        with pytest.raises(ValueError, match=re.escape(repr(list(drop)))):
            load_agent(path, seed=10, agent=bundle.agent)


@pytest.mark.parametrize("bad", [
    dict(train_every=0), dict(target_sync=0), dict(batch_size=0),
    dict(buffer_capacity=0), dict(buffer_capacity=8, batch_size=16),
    dict(lr=0.0), dict(lr=-1e-3), dict(lr=float("nan")),
    dict(gamma=-0.1), dict(gamma=1.5), dict(eps_start=1.2),
    dict(eps_end=-0.05)])
def test_agent_params_reject_invalid_values(bad):
    with pytest.raises(ValueError):
        AgentParams(**bad)


def test_agent_params_accept_their_bounds():
    AgentParams(train_every=1, target_sync=1, batch_size=1,
                buffer_capacity=1, gamma=0.0, eps_start=0.0, eps_end=1.0)
    AgentParams(gamma=1.0, eps_start=1.0, eps_end=0.0)


def test_make_bundle_rejects_unknown_variant():
    with pytest.raises(ValueError):
        make_bundle("ppo", seed=0)
    assert exploration_mode(tiny_bundle("dqn")) == "epsilon_greedy"
    assert exploration_mode(tiny_bundle("dez_dqn_gvf")) == "dez_greedy"


def test_dez_choice_matches_per_head_reference():
    """One argmin over the gathered GVF heads picks what a loop over the
    heads picks, from the same random draws."""
    bundle = tiny_bundle(seed=11)
    s = np.random.default_rng(12).random((200, NUM_FEATURES))
    actions, tags, qs = select_actions(bundle.params, s, 0.6, "dez_greedy",
                                       np.random.default_rng(13))
    rng = np.random.default_rng(13)
    explore = rng.random(200) < 0.6
    g = rng.integers(0, 4, size=200)
    expect = np.argmax(qs[:, 0], axis=1)
    expect[explore & (g == 0)] = rng.integers(
        0, NUM_ACTIONS, size=int((explore & (g == 0)).sum()))
    for k in (1, 2, 3):
        chosen = explore & (g == k)
        expect[chosen] = np.argmin(qs[chosen, k], axis=1)
    np.testing.assert_array_equal(actions, expect)
    np.testing.assert_array_equal(tags, np.where(explore, 1 + g, 0))


# ------------------------------------------------------ hot-path oracles

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def perturbed_bundle(variant, seed, **kw):
    """A default-sized bundle whose weights and biases are all nonzero."""
    bundle = make_bundle(variant, seed, AgentParams(**kw))
    rng = np.random.default_rng(seed)
    bundle.params.flat += rng.uniform(-0.2, 0.2, bundle.params.flat.size)
    bundle.target = bundle.params.copy()
    bundle.target.flat += rng.uniform(-0.2, 0.2, bundle.params.flat.size)
    return bundle


@pytest.mark.parametrize("p", [1, 5, 100])
@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("mode", ["epsilon_greedy", "dez_greedy"])
def test_select_actions_matches_the_oracle(p, epsilon, mode):
    """Same actions, tags and head values as the oracle, from the same
    draws: both Generators end in the same state."""
    bundle = perturbed_bundle("dez_dqn_gvf", p)
    feats = np.random.default_rng(p).random((p, NUM_FEATURES))
    rng, oracle_rng = (np.random.default_rng([p, 7]) for _ in range(2))
    for _ in range(5):
        actions, tags, qs = select_actions(bundle.params, feats, epsilon,
                                           mode, rng)
        want = oracles.select_actions(bundle.params, feats, epsilon, mode,
                                      oracle_rng)
        assert same_bits(actions, want[0]) and same_bits(tags, want[1])
        assert same_bits(qs, want[2].transpose(1, 0, 2))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("batch", [1, 2, 9, 33, 64])
@pytest.mark.parametrize("variant", ["dqn", "dez_dqn_gvf"])
def test_td_targets_match_the_oracle(batch, variant):
    bundle = perturbed_bundle(variant, batch)
    rng = np.random.default_rng(batch)
    sample = (rng.random((batch, NUM_FEATURES)), rng.integers(0, 14, batch),
              rng.standard_normal(batch), rng.random((batch, 3)),
              rng.random((batch, NUM_FEATURES)), rng.random(batch) < 0.3)
    assert same_bits(td_targets(bundle, sample),
                     oracles.td_targets(bundle.target, bundle.agent.gamma,
                                        sample))


def test_replay_buffer_matches_the_oracle():
    """Blocks that fit, blocks that wrap the ring and blocks of its whole
    capacity leave the same slots; samples take the same rows and draws."""
    buf, oracle = ReplayBuffer(50), oracles.ReplayBuffer(50)
    rng, rng_oracle = (np.random.default_rng(21) for _ in range(2))
    data = np.random.default_rng(22)
    for k in (20, 20, 7, 13, 50, 1, 49, 3, 26):
        block = (data.random((k, NUM_FEATURES)), data.integers(0, 14, k),
                 data.standard_normal(k), data.random((k, 3)),
                 data.random((k, NUM_FEATURES)), bool(k % 2))
        buf.push_block(*block)
        oracle.push_block(*block)
        assert len(buf) == len(oracle)
        for name in ("s", "a", "r", "c", "s_next", "terminal"):
            stored = slice(0, len(buf))
            assert same_bits(getattr(buf, name)[stored],
                             getattr(oracle, name)[stored]), name
        for batch in (1, min(len(buf), 64)):
            got = buf.sample(rng, batch)
            want = oracle.sample(rng_oracle, batch)
            assert all(same_bits(a, b) for a, b in zip(got, want))
    assert rng.bit_generator.state == rng_oracle.bit_generator.state


@pytest.mark.parametrize("variant", ["dqn", "dqn_gvf", "dez_dqn_gvf"])
def test_train_step_matches_the_oracle_learner(variant):
    """Steps of the in-place learner (one gradient buffer, targets from
    the fused output block) leave the parameters, the optimizer state and
    the target net with the oracle learner's bits, through a target sync."""
    rng = np.random.default_rng(23)
    block = (rng.random((300, NUM_FEATURES)), rng.integers(0, 14, 300),
             rng.standard_normal(300), rng.random((300, 3)),
             rng.random((300, NUM_FEATURES)), rng.random(300) < 0.1)
    bundles = [make_bundle(variant, 3, AgentParams(batch_size=32,
                                                   target_sync=7))
               for _ in range(2)]
    for bundle in bundles:
        bundle.buffer.push_block(*block)
    fast, slow = bundles
    mask = np.zeros(4, bool)
    mask[0] = True
    mask[1:] = variant != "dqn"
    for _ in range(10):
        loss = train_step(fast)["loss"]
        batch = slow.buffer.sample(slow.rng, 32)
        targets = oracles.td_targets(slow.target, slow.agent.gamma, batch)
        want, grads = oracles.backward(slow.params, batch[0], batch[1],
                                       targets, mask)
        slow.opt.step(slow.params, grads)
        slow.train_steps += 1
        if slow.train_steps % 7 == 0:
            slow.target.flat[:] = slow.params.flat
        assert same_bits(loss, want)
    for a, b in ((fast.params.flat, slow.params.flat),
                 (fast.target.flat, slow.target.flat),
                 (fast.opt.m, slow.opt.m), (fast.opt.v, slow.opt.v)):
        assert same_bits(a, b)
