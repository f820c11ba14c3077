"""The A/B summary of tools/ab_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [1, 2, 5, 10, 13])
def test_quartiles_follow_numpys_linear_percentile(ab, n):
    runs = list(np.random.default_rng(n).uniform(1.0, 3.0, n))
    assert ab.quartiles(runs) == pytest.approx(np.percentile(runs, [25, 50, 75]), rel=1e-14)


def test_a_gain_needs_nine_tenths_of_ten_pairs_and_the_parents_spread(ab):
    parent = [2.0, 2.1, 1.9, 2.2, 2.0, 1.8, 2.1, 2.0, 1.9, 2.0]
    change = [x - 0.3 for x in parent]
    block = ab.summarise(parent, change, "lower", 0.25)
    assert block["pairs_change_better"] == 10
    assert block["parent"]["median"] == 2.0 and block["change"]["median"] == pytest.approx(1.7)
    assert block["change_over_parent_median"] == 0.85
    assert block["within_bound"]
    assert block["gain_rule"]["holds"]
    # a tie counts for neither side, and two of ten lost pairs break the rule
    tied = change[:1] + parent[1:2] + change[2:]
    assert ab.summarise(parent, tied, "lower", 0.25)["pairs_change_better"] == 9
    assert ab.summarise(parent, tied, "lower", 0.25)["gain_rule"]["holds"]
    lost = [2.5, 2.5] + change[2:]
    assert not ab.summarise(parent, lost, "lower", 0.25)["gain_rule"]["holds"]
    # every pair won, but by less than the parent's interquartile range
    close = [x - 0.05 for x in parent]
    block = ab.summarise(parent, close, "lower", 0.25)
    assert block["pairs_change_better"] == 10 and not block["gain_rule"]["holds"]
    # nine pairs are too few, however they go
    assert not ab.summarise(parent[:9], change[:9], "lower", 0.25)["gain_rule"]["holds"]


def test_higher_is_better_flips_the_sign_and_the_bound(ab):
    parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 102.0, 98.0, 101.0, 99.0]
    faster = [x * 1.3 for x in parent]
    block = ab.summarise(parent, faster, "higher", 0.25)
    assert block["pairs_change_better"] == 10 and block["gain_rule"]["holds"]
    slower = [x * 0.7 for x in parent]
    block = ab.summarise(parent, slower, "higher", 0.25)
    assert block["pairs_change_better"] == 0
    assert not block["within_bound"] and not block["gain_rule"]["holds"]
    assert ab.summarise(parent, [x * 0.8 for x in parent], "higher", 0.25)["within_bound"]
