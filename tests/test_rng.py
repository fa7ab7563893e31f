import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from oracles import ScalarSplitMix64, splitmix64_finalize
from telegraphctl.rng import _BLOCK, PortableRandom, derive_seed


def test_same_seed_same_stream():
    a = PortableRandom(1234)
    b = PortableRandom(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_uniform_range_and_moments():
    rng = PortableRandom(7)
    xs = [rng.uniform() for _ in range(200_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 3 * (1 / math.sqrt(12)) / math.sqrt(len(xs))
    assert abs(np.var(xs) - 1 / 12) < 3e-3


def test_derive_seed_is_documented_mixing():
    # finalize(seed XOR ((i+1) * golden-gamma)) per the module contract
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    for seed in (0, 42, 2**63 + 17):
        for i in (0, 1, 55):
            assert derive_seed(seed, i) == splitmix64_finalize(seed ^ ((i + 1) * gamma & mask))
    with pytest.raises(ValueError):
        derive_seed(1, -1)


STREAM_DRAWS = [
    ("next_u64", lambda r: r.next_u64()),
    ("uniform", lambda r: r.uniform()),
    ("bernoulli", lambda r: r.bernoulli(0.3)),
    ("exponential", lambda r: r.exponential(50.0)),
    ("poisson 0.5", lambda r: r.poisson(0.5)),
    ("poisson 16", lambda r: r.poisson(16.0)),
    ("poisson 45.3", lambda r: r.poisson(45.3)),  # two Knuth chunks
    ("normal", lambda r: r.normal()),
    ("gamma 0.7", lambda r: r.gamma(0.7)),
    ("neg_binomial", lambda r: r.neg_binomial(28.0, 2.0)),
]


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])  # the last wraps the state
def test_block_stream_matches_scalar_reference(seed):
    fast, ref = PortableRandom(seed), ScalarSplitMix64(seed)
    for round_ in range(30):
        for name, draw in STREAM_DRAWS:
            assert draw(fast) == draw(ref), (round_, name)
    assert ref.drawn > 3 * _BLOCK  # several refills were crossed
    assert fast.next_u64() == ref.next_u64()


@pytest.mark.parametrize("left", [0, 1, 5])
def test_knuth_loop_straddles_refill(left):
    fast, ref = PortableRandom(42), ScalarSplitMix64(42)
    for _ in range(_BLOCK - left):
        assert fast.uniform() == ref.uniform()
    assert fast.poisson(28.0) == ref.poisson(28.0)
    assert ref.drawn > _BLOCK  # the loop ran on into the next block
    assert fast.next_u64() == ref.next_u64()


def test_recorded_seed42_outputs():
    # recorded with the one-draw-at-a-time generator; the first output is
    # the published SplitMix64 value for seed 42
    rng = PortableRandom(42)
    assert rng.next_u64() == 0xBDD732262FEB6E95
    assert rng.uniform() == float.fromhex("0x1.477f199d93378p-3")
    for _ in range(600):
        rng.uniform()
    assert rng.uniform() == float.fromhex("0x1.a7aad318a0080p-3")
    assert rng.exponential(50.0) == float.fromhex("0x1.d4a7eca77bc53p-5")
    assert rng.normal() == float.fromhex("-0x1.8100d5a6f04dap-1")
    assert rng.normal() == float.fromhex("0x1.82d958f4525b7p+0")
    assert rng.gamma(0.7) == float.fromhex("0x1.dfbccc0b9b9a1p-4")
    assert rng.poisson(45.3) == 35
    assert rng.neg_binomial(28.0, 2.0) == 18
    assert rng.next_u64() == 0xCED35AAE88A21C53


# Without the checks the first four calls never return (the samplers' loops
# compare against NaN or infinity) and the last two return NaN, so the calls
# run in a child process that a hang kills at the timeout.
_NON_FINITE_CALLS = {
    "poisson(nan)": "mean must be finite and >= 0, got nan",
    "poisson(inf)": "mean must be finite and >= 0, got inf",
    "neg_binomial(5.0, nan)": "fano must be finite and > 1, got nan",
    "neg_binomial(inf, 2.0)": "mean must be finite and >= 0, got inf",
    "exponential(nan)": "rate must be finite and > 0, got nan",
    "gamma(nan)": "shape must be finite and > 0, got nan",
}


def test_samplers_reject_non_finite_parameters():
    code = (
        "from math import inf, nan\n"
        "from telegraphctl.rng import PortableRandom\n"
        "rng = PortableRandom(1)\n"
        f"for call in {list(_NON_FINITE_CALLS)!r}:\n"
        "    try:\n"
        "        print(call, 'returned', eval('rng.' + call))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert proc.stdout.splitlines() == list(_NON_FINITE_CALLS.values())


def test_exponential_inverse_cdf_mean():
    rng = PortableRandom(5)
    xs = [rng.exponential(50.0) for _ in range(100_000)]
    assert abs(np.mean(xs) - 0.02) < 3 * 0.02 / math.sqrt(len(xs))
    with pytest.raises(ValueError):
        rng.exponential(0.0)


@pytest.mark.parametrize("mean", [0.7, 12.0, 28.0, 80.0])
def test_poisson_moments(mean):
    rng = PortableRandom(11)
    n = 100_000
    xs = np.array([rng.poisson(mean) for _ in range(n)])
    assert abs(xs.mean() - mean) < 3 * math.sqrt(mean / n)
    # sample Fano factor has sd ~ sqrt(2/n) for Poisson
    assert abs(xs.var() / xs.mean() - 1.0) < 3 * math.sqrt(2 / n)


def test_poisson_chunking_preserves_distribution():
    # mean 45 crosses the 30-per-chunk boundary; compare histogram to pmf
    rng = PortableRandom(21)
    n = 200_000
    xs = np.array([rng.poisson(45.0) for _ in range(n)])
    lo, hi = 20, 75
    counts = np.bincount(xs, minlength=200)
    obs = np.concatenate(([xs[(xs < lo)].size], counts[lo:hi], [xs[xs >= hi].size]))
    pm = poisson.pmf(np.arange(lo, hi), 45.0)
    exp = np.concatenate(([poisson.cdf(lo - 1, 45.0)], pm, [poisson.sf(hi - 1, 45.0)])) * n
    stat = chisquare(obs, exp)
    assert stat.pvalue > 1e-3


def test_poisson_zero_mean():
    rng = PortableRandom(3)
    assert all(rng.poisson(0.0) == 0 for _ in range(10))


def test_neg_binomial_moments():
    rng = PortableRandom(13)
    n = 100_000
    mean, fano = 28.0, 2.0
    xs = np.array([rng.neg_binomial(mean, fano) for _ in range(n)])
    assert abs(xs.mean() - mean) < 3 * math.sqrt(fano * mean / n)
    # sd of the sample Fano for NB: sqrt((2 + 6/shape... ) ~ use generous 4x Poisson bound
    assert abs(xs.var() / xs.mean() - fano) < 4 * math.sqrt(2 / n) * fano * 2
    with pytest.raises(ValueError):
        rng.neg_binomial(10.0, 1.0)


def test_normal_and_gamma_moments():
    rng = PortableRandom(17)
    n = 100_000
    zs = np.array([rng.normal() for _ in range(n)])
    assert abs(zs.mean()) < 3 / math.sqrt(n)
    assert abs(zs.var() - 1.0) < 3 * math.sqrt(2 / n)
    shape = 0.6  # exercises the shape < 1 boost
    gs = np.array([rng.gamma(shape) for _ in range(n)])
    assert abs(gs.mean() - shape) < 4 * math.sqrt(shape / n)
    assert abs(gs.var() - shape) < 5 * math.sqrt(shape / n) * 2
