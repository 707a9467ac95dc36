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
    draw_real_state,
    draw_state,
    orthogonal_symplectic_stack,
    random_real_state,
    random_state,
    real_state_stack,
    state_stack,
)
from gaussimag.states import GaussianState, validate

from conftest import inject_cross_entry, random_cm

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
# sha256 over the outputs of the builders that skip validation, in the order of
# test_full_validation_accepts_every_built_state; same numpy and BLAS as WIDE_POOL
TRUSTED = {
    "real_state_stack": "0df95a75c06ddf28260f08942250cdf6bd9e81a8b3b132961678ab94c082e241",
    "cross_entry_stack": "a6c4d74cccefc04ce465c5aa1cc5c337f090e01dbaa4ec4359dbeb46cad36545",
    "apply_stack": "0e42565a4505d4b8780344dab4611e5aa23c1b3f8d8eb2473c1acf190c44b97d",
}


@pytest.mark.parametrize("n", range(1, 9))
def test_orthogonal_symplectic(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))  # Ginibre
    o = orthogonal_symplectic_stack(z[None])[0]
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


@pytest.mark.parametrize("n", range(1, 9))
def test_mixed_kind_channel_stack(n):
    # kinds alternate within one stack, as monotonicity builds them
    kinds = (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL)
    draws = [draw_real_channel(n, kinds[k % 2], rng) for k, rng in enumerate(generators(n))]
    t, noise, d0 = real_channel_stack(draws)
    for k, rng in enumerate(generators(n)):
        channel = random_real_channel(n, kinds[k % 2], rng)
        assert same(t[k], channel.t) and same(noise[k], channel.noise) and same(d0[k], channel.d0)


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


@pytest.mark.parametrize("eps", [0.0, -0.01, 0.13, np.nan])
def test_cross_entry_outside_the_margin_is_rejected(eps):
    with pytest.raises(ValueError, match=rf"^eps must be in \(0, 0.125\], got {eps}$"):
        draw_cross_entry(2, np.random.default_rng(0), eps)


def test_full_validation_accepts_every_built_state():
    # the builders skip validation: validate must accept each output with no
    # error and return it unchanged; the digests pin the outputs themselves
    kinds = (RealnessClass.COMPLETELY_REAL, RealnessClass.COVARIANT_REAL)
    digests = {name: hashlib.sha256() for name in TRUSTED}
    for j, kind in enumerate(kinds):
        for n in range(1, 9):
            state_draws, channel_draws, real_draws, cross_draws = [], [], [], []
            for k in range(64):
                rng = np.random.default_rng([n, k, j, 12])
                state_draws.append(draw_state(n, rng, max_squeeze=2.0))
                channel_draws.append(draw_real_channel(n, kind, rng))
                real_draws.append(draw_real_state(n, rng))
                cross_draws.append(draw_cross_entry(n, rng, 0.125 * (1.0 - rng.random())))
            d, cm = state_stack(state_draws)
            d_out, cm_out = apply_stack(*real_channel_stack(channel_draws), d, cm)
            d_real, cm_real = real_state_stack(real_draws)
            planted = cross_entry_stack(cm_real, cross_draws)
            built = {
                "state_stack": cm,
                "real_state_stack": cm_real,
                "cross_entry_stack": planted,
                "apply_stack": cm_out,
            }
            for name, stack in built.items():
                checked, _, errors = validate(stack)
                assert errors == [None] * len(stack), (name, n, kind)
                assert same(checked, stack), (name, n, kind)
            digests["real_state_stack"].update(d_real.tobytes() + cm_real.tobytes())
            digests["cross_entry_stack"].update(planted.tobytes())
            digests["apply_stack"].update(d_out.tobytes() + cm_out.tobytes())
    assert {name: h.hexdigest() for name, h in digests.items()} == TRUSTED
