"""The exact layer on integer numerators against its ``Fraction`` form.

``tests/reference.py`` keeps the piece laws, the joint parity law, event
probabilities and the expected net decrease as ``Fraction`` dicts.  Every
even-at-last probability, coin rate, marginal, net decrease and
correlation-event probability must be the same ``Fraction``, on every
sampler.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htsp.engine import CompiledInstance
from htsp.generators import generate
from htsp.join import coin_table, parity_law
from htsp.oracle import (correlation_event_probability, correlation_tuples,
                         exact_expected_net_decrease, exact_marginals)
from htsp.pipeline import CyclePieceSampler, SamplerParams
from tests import reference
from tests.conftest import ALL_FAMILIES, FAMILY_SEED, family_instance

SAMPLERS = ("mi", "maxent", "mix")
#: the conftest families, and larger cycle and K5 instances: (family, size)
INSTANCES = {name: None for name in ALL_FAMILIES} | {
    "double-cycle-24": ("double-cycle", {"k": 24}),
    "double-cycle-100": ("double-cycle", {"k": 100}),
    "k5-gadget-30": ("k5-gadget", {"k": 30}),
}


@functools.cache
def compiled(name: str, sampler: str) -> CompiledInstance:
    if INSTANCES[name] is None:
        inst = family_instance(name)
    else:
        family, size = INSTANCES[name]
        inst = generate(family, np.random.default_rng(FAMILY_SEED), **size)
    return CompiledInstance(inst, SamplerParams(sampler=sampler))


def assert_same(new, old) -> None:
    """``new`` is ``old``: an equal ``Fraction``."""
    assert type(new) is Fraction and new == old, (new, old)


def assert_same_values(new: dict, old: dict) -> None:
    assert list(new) == list(old)
    for key in old:
        assert_same(new[key], old[key])


def as_fractions(law: dict, den: int) -> dict:
    """A law of numerators over ``den`` as ``Fraction``s."""
    return {state: Fraction(k, den) for state, k in law.items()}


CASES = [(name, sampler) for name in INSTANCES for sampler in SAMPLERS]


@pytest.mark.parametrize("name,sampler", CASES)
def test_instance_values_match_the_fraction_layer(name, sampler):
    ci = compiled(name, sampler)
    eal = reference.eal_probabilities(ci.eal_conditions, ci.classes, ci.samplers)
    assert_same_values(ci.eal_probability, eal)
    coins = coin_table(ci.classes, ci.coin_groups, eal, ci.sp.effective_lambda)
    rates = {grp: coin.rate for grp, coin in coins.items()}
    assert_same_values({grp: coin.rate for grp, coin in ci.coins.items()}, rates)
    assert_same_values(
        exact_marginals(ci.h, ci.samplers, ci.classes),
        {e: reference.exact_marginal(ci.samplers[cl.settled], e) for e, cl in ci.classes.items()})
    assert_same_values(exact_expected_net_decrease(ci),
                       reference.expected_net_decrease(ci, eal, rates))


@pytest.mark.parametrize("name,sampler", CASES)
def test_correlation_events_match_the_fraction_layer(name, sampler):
    ci = compiled(name, sampler)
    for nid, s in ci.samplers.items():
        if isinstance(s, CyclePieceSampler):
            continue
        piece = ci.h.nodes[nid].piece
        for row, tups in correlation_tuples(piece).items():
            for tup in tups:
                prob, event = correlation_event_probability(s, piece, row, tup)
                assert_same(prob, reference.piece_probability(s, event))


def first_piece(name: str, sampler: str, kind: str):
    ci = compiled(name, sampler)
    return next(s for _, s in sorted(ci.samplers.items()) if s.kind == kind)


#: one piece of each kind: (instance, sampler, kind); the degree piece on
#: the matroid route and on the mix
PIECES = [("double-cycle", "mix", "cycle"), ("zoo", "mix", "cycle"), ("k5-gadget", "mix", "k5"),
          ("zoo", "mi", "degree"), ("zoo", "mix", "degree")]


def piece_edges(s) -> list[int]:
    """The piece's edge ids, and one id no piece of a test instance has."""
    ids = [e for pair in s.pairs for e in pair] if isinstance(s, CyclePieceSampler) \
        else s.cols.tolist()
    return sorted(ids) + [10 ** 6]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PIECES), st.data())
def test_piece_parity_laws_match_the_fraction_laws(case, data):
    s = first_piece(*case)
    ids = piece_edges(s)
    sets = data.draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=5))
    law, den = s.parity_law(sets)
    old = reference.piece_parity_law(s, sets)
    assert type(den) is int and all(type(k) is int for k in law.values())
    assert_same_values(as_fractions(law, den), old)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SAMPLERS), st.data())
def test_joint_parity_law_matches_the_fraction_law(sampler, data):
    """Sets across the pieces of zoo, where degree-piece laws of either
    route meet cycle and degree laws in node order."""
    ci = compiled("zoo", sampler)
    sets = data.draw(st.lists(st.sets(st.integers(0, ci.m - 1)), min_size=1, max_size=5))
    law, den = parity_law(ci.samplers, ci.classes, sets)
    assert_same_values(as_fractions(law, den),
                       reference.parity_law(ci.samplers, ci.classes, sets))
