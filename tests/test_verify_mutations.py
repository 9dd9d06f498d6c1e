"""verify on certificates with one node replaced or deleted, drawn by
hypothesis: every draw gives a VerifyResult within seconds, and only a
certificate with the original bytes is accepted."""

import copy
import time
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from sl23.certify import VerifyResult, certify, dumps, verify

# one certificate per construction tag: generic9, generic10, special, sl11
CASES = [(9, 3), (10, 5), (10, 3), (11, 2)]

MENU = ["0", "1", "2", "3", "-1", "00", "01", " 1", "1.0", "٢", "",
        "x", "yy", "irreducible", "generic9", "9" * 5000, 0, 1, -1, 2.5,
        True, False, None, [], {}, ["1"], [["1", "1"]], {"x": "1"}]


def deeply_nested_list(depth=100_000):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


def nodes(tree, path=()):
    """(path, value) for every node below the root, parents first."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for k, v in items:
        yield path + (k,), v
        yield from nodes(v, path + (k,))


@lru_cache(maxsize=None)
def corpus(case):
    cert = certify(*case)
    found = list(nodes(cert))
    leaves = [v for _, v in found if not isinstance(v, (dict, list))]
    return cert, dumps(cert), [p for p, _ in found], leaves


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_verify_survives_one_mutation(data):
    cert, text, paths, leaves = corpus(data.draw(st.sampled_from(CASES)))
    path = data.draw(st.sampled_from(paths))
    kind = data.draw(st.sampled_from(["delete", "menu", "leaf", "deep"]))
    mutated = copy.deepcopy(cert)
    parent = mutated
    for k in path[:-1]:
        parent = parent[k]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "deep":
        parent[path[-1]] = deeply_nested_list()
    else:
        parent[path[-1]] = data.draw(st.sampled_from(MENU if kind == "menu" else leaves))
    t0 = time.perf_counter()
    r = verify(mutated)
    assert time.perf_counter() - t0 < 5
    assert isinstance(r, VerifyResult)
    if r.ok:
        assert dumps(mutated) == text
