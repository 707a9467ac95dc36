"""Random generators of passive transformations and covariance matrices."""

import hashlib

import numpy as np
import pytest

from gaussimag.channels import (
    RealnessClass,
    apply_stack,
    draw_real_channel,
    random_real_channel,
    real_channel_stack,
)
from gaussimag.linalg import symplectic_form
from gaussimag.sampling import (
    cm_stack,
    cross_entry_stack,
    draw_cm,
    draw_cross_entry,
    draw_haar,
    draw_real_state,
    draw_state,
    inject_cross_entry,
    orthogonal_symplectic_stack,
    random_cm,
    random_real_state,
    random_state,
    real_state_stack,
    state_stack,
)
from gaussimag.states import GaussianState

# sha256 over d and cm bytes of random_state(n, default_rng([n, k]),
# max_squeeze=2) for k < count: the wide reference pool of the benchmark.
# Recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on x86-64 with
# AVX-512; another BLAS build may round differently.
WIDE_POOL = {
    8: (1024, "443392c09498def9405a9fd64a729ad6956bef49701603fa30145b76a0c3affa"),
    16: (1024, "3aa5be58ea4fe6b7c53963e5c0d17d72d42240ff1e798dd8a00f3fc638eaeef1"),
    32: (384, "4b2184646a7abfcd812874ffb896065a9a1369ecd0bc31580ab503b17aad575c"),
    64: (128, "d8aed7606b635dac8e0eebb63200e56e4c84ebf0306773b34f894c1b6df78676"),
}
ITEMS = 8  # items per stack in the byte-identity tests


@pytest.mark.parametrize("n", range(1, 9))
def test_orthogonal_symplectic(n, rng):
    o = orthogonal_symplectic_stack(draw_haar(n, rng)[None])[0]
    delta = symplectic_form(n)
    assert np.abs(o @ o.T - np.eye(2 * n)).max() <= 1e-12
    assert np.abs(o @ delta @ o.T - delta).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 17))
def test_random_cm_is_physical(n, rng):
    for _ in range(5):
        cm = random_cm(n, rng, max_squeeze=2.0)
        GaussianState(np.zeros(2 * n), cm)  # raises unless symmetric and physical


def generators(n):
    return [np.random.default_rng([n, k, 11]) for k in range(ITEMS)]


def same(*arrays):
    return len({(a.shape, a.tobytes()) for a in arrays}) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_builders_match_the_samplers(n):
    # item k of a stack equals the one-item sampler on generator k, byte for byte
    cms = cm_stack([draw_cm(n, rng, max_squeeze=2.0) for rng in generators(n)])
    for cm, rng in zip(cms, generators(n)):
        assert same(cm, random_cm(n, rng, max_squeeze=2.0))

    d, cm = state_stack([draw_state(n, rng) for rng in generators(n)])
    for k, rng in enumerate(generators(n)):
        state = random_state(n, rng)
        assert same(d[k], state.d) and same(cm[k], state.cm)

    real_draws, cross_draws = [], []
    for k, rng in enumerate(generators(n)):
        real_draws.append(draw_real_state(n, rng))
        cross_draws.append(draw_cross_entry(n, rng, 0.01 * (k + 1)))
    d, cm = real_state_stack(real_draws)
    planted = cross_entry_stack(cm, cross_draws)
    for k, rng in enumerate(generators(n)):
        real = random_real_state(n, rng)
        assert same(d[k], real.d) and same(cm[k], real.cm)
        broken = inject_cross_entry(real, rng, 0.01 * (k + 1))
        assert same(d[k], broken.d) and same(planted[k], broken.cm)


@pytest.mark.parametrize("kind", [RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL])
@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_channels_match_the_sampler(n, kind):
    draws = []
    for rng in generators(n):
        draws.append((draw_state(n, rng), draw_real_channel(n, kind, rng)))
    d, cm = state_stack([s for s, _ in draws])
    t, noise, d0 = real_channel_stack([c for _, c in draws])
    d_out, cm_out = apply_stack(t, noise, d0, d, cm)
    for k, rng in enumerate(generators(n)):
        state = random_state(n, rng)
        channel = random_real_channel(n, kind, rng)
        assert same(t[k], channel.t) and same(noise[k], channel.noise) and same(d0[k], channel.d0)
        out = channel.apply(state)
        assert same(d_out[k], out.d) and same(cm_out[k], out.cm)


@pytest.mark.parametrize("n", sorted(WIDE_POOL))
def test_wide_reference_pool_is_unchanged(n):
    count, digest = WIDE_POOL[n]
    one, stacked = hashlib.sha256(), hashlib.sha256()
    draws = []
    for k in range(count):
        state = random_state(n, np.random.default_rng([n, k]), max_squeeze=2.0)
        one.update(state.d.tobytes() + state.cm.tobytes())
        draws.append(draw_state(n, np.random.default_rng([n, k]), max_squeeze=2.0))
    for d, cm in zip(*state_stack(draws)):
        stacked.update(d.tobytes() + cm.tobytes())
    assert one.hexdigest() == stacked.hexdigest() == digest
