"""Byte-identity of the compiled piece samplers.

For each sampler route, a sha256 per instance over every tree-table
piece in node order: its trees (each as its sorted edge ids), the bytes of
its float probabilities and, on the matroid route, its exact
probabilities.  The instances are the five conftest families and
random-4reg at n = 12, generator seeds 0-3, the instances whose compiles
the fit and decomposition oracles cover.  A change that moves any tree or
any probability bit must say why and update the digest in the same change.
"""

import hashlib

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
        "nested": "530f612794ceaa733d6c254975955a88edefaa21ab716633e635af2e310b7ad2",
        "random-4reg": "437c6203f175a5a219224142e7e4a4f3d3be0b8223f0fd2ffe5d1cc4fcf89b2f",
        "zoo": "6348cede2ba62ac6cf81d023876a9c4a356ed333b2f966b8a24e1c203249c44e",
        "random-4reg-12-0": "e1d6a17a0457763c26b329bf47219bda460237b5f4846894886e20778731e379",
        "random-4reg-12-1": "e8934f25d7849249a5ade698c80c23cd03f0a247031368c0940cce8bdf90d67d",
        "random-4reg-12-2": "45ade664d38173be4825895a8718241229c4f44b2da76e27e7e993dfe84dd99f",
        "random-4reg-12-3": "437c6203f175a5a219224142e7e4a4f3d3be0b8223f0fd2ffe5d1cc4fcf89b2f",
    },
    "mix": {
        "double-cycle": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k5-gadget": "718120baab134cbe2c3a7faa3082269f50a783446ecbe4cf40cd71c3ac4f07d7",
        "nested": "23f21abe7b06708066aee19392601855513e7a0c5f352e960fd8e37082743121",
        "random-4reg": "2274f47197475207931f277e58eb35496a8418c755b3e71cd1e1539cfb552ca9",
        "zoo": "10accb1950a2cf6a9b9ca07c40d4bb58774391784714ae3ff3187d4b4676cea1",
        "random-4reg-12-0": "8a309e5acd49f9f7da8e59147f7249ba105d3ad9adc57f5bfd68f0555cf63acc",
        "random-4reg-12-1": "aa335e6a72597ff728676fcbce485306b70597464737fb368693653e8ead3886",
        "random-4reg-12-2": "a7b1d3413efbe98e817c378d0a3e4723e3aaf0757499c0cd5c7dc7246be2b346",
        "random-4reg-12-3": "2274f47197475207931f277e58eb35496a8418c755b3e71cd1e1539cfb552ca9",
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
            if s.exact_nums is not None:
                h.update(repr(exact_probs(s)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("sampler", sorted(COMPILED))
def test_compiled_samplers_digest(sampler):
    got = {}
    for name in COMPILED[sampler]:
        h = build_hierarchy(instance(name))
        got[name] = compiled_digest(build_piece_samplers(h, SamplerParams(sampler=sampler)))
    assert got == COMPILED[sampler]
