"""Byte-identity of the compiled piece samplers, and their exact laws.

For each sampler route, a sha256 per instance over every tree-table
piece in node order: its trees (each as its sorted edge ids), the bytes of
its float probabilities and its exact probabilities.  The instances are
the five conftest families and random-4reg at n = 12, generator seeds 0-3,
the instances whose compiles the fit and decomposition oracles cover.  A
change that moves any tree or any probability bit must say why and update
the digest in the same change.
"""

import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from htsp.generators import generate_random_4reg
from htsp.hierarchy import build_hierarchy
from htsp.pipeline import EnumeratedPieceSampler, SamplerParams, build_piece_samplers
from tests.conftest import ALL_FAMILIES, family_instance
from tests.reference import exact_probs

COMPILED = {
    "mi": {
        "double-cycle": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k5-gadget": "718120baab134cbe2c3a7faa3082269f50a783446ecbe4cf40cd71c3ac4f07d7",
        "nested": "cb637986a0304a33ec555713c946e7aedd017cc962cc8e6f4348d5b52ce238b2",
        "random-4reg": "3bba71cdf02947bc87607efd87b33b8c0d2da1fccff90e6b72e712b218492c60",
        "zoo": "9308afc6793f9cbae7474275c7fbcf9a2fb42ea3cfa526257e53f79a1ec2a5b3",
        "random-4reg-12-0": "4dbb44090c414ad50467c5232b590f8477b5f2a7fef3ee07bcb79d45dfb9ee48",
        "random-4reg-12-1": "2fe42bdfeb3f86b9edd744b66cb91aaa0386fa0d5302fe4a118de6ca754d7e2e",
        "random-4reg-12-2": "a0843c85dd6ac501e57a226686118715ccbb73d0121c17d1955b0ba18e4b0313",
        "random-4reg-12-3": "3bba71cdf02947bc87607efd87b33b8c0d2da1fccff90e6b72e712b218492c60",
    },
    "maxent": {
        "double-cycle": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k5-gadget": "718120baab134cbe2c3a7faa3082269f50a783446ecbe4cf40cd71c3ac4f07d7",
        "nested": "d32e44da34a2fba968f254635d94aba0c1866173993d9287d2cbad549f75f6f4",
        "random-4reg": "d119b8e217156a46e93e39c893b3e1ac22fef93d0e513d51c056ff90280d4eb3",
        "zoo": "451105aa2405ffb08b4bc5e412dddd9f803545e7a0d0caaab1751567b4bec8ca",
        "random-4reg-12-0": "d23e6d931a24d55f0e28c5ebf747d0034ac629128b7e03b12bb5aa22c73efd25",
        "random-4reg-12-1": "6959ccbfdf79b0c29924ae2a08a1e1953a5a9e9dd50c6da2837c01c3fe1e4a46",
        "random-4reg-12-2": "11fd5d270cf744c1d2cc9300fbd932021b46200382897c78209763be34a8567f",
        "random-4reg-12-3": "d119b8e217156a46e93e39c893b3e1ac22fef93d0e513d51c056ff90280d4eb3",
    },
    "mix": {
        "double-cycle": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k5-gadget": "718120baab134cbe2c3a7faa3082269f50a783446ecbe4cf40cd71c3ac4f07d7",
        "nested": "d5a8d0f8a8af11ee6eef6308589d6da230509bc3d357567f8736a34587cf7d97",
        "random-4reg": "e7c37321146db4be2da0d43482615ef4098f2dd4a3bdd63955ad776995dbc8ae",
        "zoo": "7e7a7271fc23af594c5ded80834663287bf33ecc1a622b5502e37198cab9b214",
        "random-4reg-12-0": "fc12e9922e7d1d424bd8d41ab850b7d87304557de8722dccd4bf151639a5aec0",
        "random-4reg-12-1": "01ee345bc0948b89e512ccd2cbf979d73e1911f42ce20880870486b1a923e546",
        "random-4reg-12-2": "9d6ebdf902f3c7f2b53edd4d4cd95dcb5272b4372281128c1bf126b07b097004",
        "random-4reg-12-3": "e7c37321146db4be2da0d43482615ef4098f2dd4a3bdd63955ad776995dbc8ae",
    },
}


def instance(name: str):
    if name in ALL_FAMILIES:
        return family_instance(name)
    return generate_random_4reg(12, np.random.default_rng(int(name.rsplit("-", 1)[1])))


def compiled_digest(samplers) -> str:
    h = hashlib.sha256()
    for nid in sorted(samplers):
        s = samplers[nid]
        if isinstance(s, EnumeratedPieceSampler):
            h.update(repr([sorted(t) for t in s.trees]).encode())
            h.update(s.probs.tobytes())
            h.update(repr(exact_probs(s)).encode())
    return h.hexdigest()


@functools.cache
def compiled(name: str, sampler: str) -> dict:
    return build_piece_samplers(build_hierarchy(instance(name)), SamplerParams(sampler=sampler))


@pytest.mark.parametrize("sampler", sorted(COMPILED))
def test_compiled_samplers_digest(sampler):
    got = {name: compiled_digest(compiled(name, sampler)) for name in COMPILED[sampler]}
    assert got == COMPILED[sampler]


@pytest.mark.parametrize("sampler", sorted(COMPILED))
def test_the_exact_law_is_the_drawn_table(sampler):
    """Every tree-table piece's exact numerators sum to its denominator.
    Where the max-entropy fit enters a degree piece, its exact law is its
    float probabilities read as exact dyadic values over their exact sum,
    the law the guide table draws.  Every float probability lies within two
    ulps of its exact quotient: a float table is normalized by its float
    sum, and so is a matroid-route one after its quotients are rounded, so
    one ulp does not hold on either route."""
    for name in COMPILED[sampler]:
        for s in compiled(name, sampler).values():
            if not isinstance(s, EnumeratedPieceSampler):
                continue
            assert sum(s.exact_nums) == s.exact_den, name
            exact = [Fraction(k, s.exact_den) for k in s.exact_nums]
            probs = s.probs.tolist()
            if s.kind == "degree" and sampler != "mi":
                total = sum(map(Fraction, probs))
                assert exact == [Fraction(p) / total for p in probs], name
            assert all(abs(Fraction(p) - q) <= 2 * Fraction(math.ulp(p))
                       for p, q in zip(probs, exact)), name
