"""Assignment solver and OSPA distance."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import phdtrack
from phdtrack.metrics import OspaParams, assignment_min_cost, ospa


def brute_force_min(cost):
    """Minimum assignment cost by enumerating every permutation."""
    m, n = cost.shape
    if m > n:
        return brute_force_min(cost.T)
    best = np.inf
    for perm in itertools.permutations(range(n), m):
        best = min(best, float(cost[np.arange(m), perm].sum()))
    return best


def test_params_validation():
    with pytest.raises(ValueError):
        OspaParams(cutoff=0.0)
    with pytest.raises(ValueError):
        OspaParams(order=0.5)
    assert OspaParams().cutoff == 100.0
    assert OspaParams().order == 2.0


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(13)
    for size in range(2, 6):
        for _ in range(40):
            cost = rng.uniform(0.0, 10.0, size=(size, size))
            pairs, total = assignment_min_cost(cost)
            assert total == pytest.approx(brute_force_min(cost), abs=1e-12)
            assert pairs.shape == (size, 2)
            assert total == pytest.approx(cost[pairs[:, 0], pairs[:, 1]].sum())


def test_assignment_rectangular():
    rng = np.random.default_rng(14)
    cost = rng.uniform(0.0, 5.0, size=(2, 5))
    pairs, total = assignment_min_cost(cost)
    assert pairs.shape == (2, 2)
    assert total == pytest.approx(brute_force_min(cost), abs=1e-12)
    tall = rng.uniform(0.0, 5.0, size=(6, 3))
    _, total_tall = assignment_min_cost(tall)
    assert total_tall == pytest.approx(brute_force_min(tall), abs=1e-12)


# OSPA's entries: distances, some saturated at the cutoff, plus integer ties and zeros
COST_ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.integers(0, 3).map(float), st.just(0.0))


@settings(max_examples=400, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data(),
       cutoff=st.sampled_from([0.5, 2.0, 50.0, np.inf]), order=st.sampled_from([1.0, 2.0]))
def test_assignment_matches_scipy(shape, data, cutoff, order):
    raw = data.draw(arrays(float, shape, elements=COST_ENTRIES))
    cost = np.sign(raw) * np.minimum(np.abs(raw), cutoff) ** order
    pairs, total = assignment_min_cost(cost)
    rows, cols = linear_sum_assignment(cost)
    assert total == pytest.approx(float(cost[rows, cols].sum()), rel=1e-12, abs=1e-12)
    assert pairs.shape == (min(shape), 2)
    assert np.all(np.diff(pairs[:, 0]) > 0)
    assert len(set(pairs[:, 1])) == len(pairs)
    assert np.all((pairs >= 0) & (pairs < shape))
    assert total == cost[pairs[:, 0], pairs[:, 1]].sum()


def test_import_loads_no_scipy():
    """A fresh interpreter importing the package and its CLI never loads scipy."""
    src = str(Path(phdtrack.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import phdtrack, phdtrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                            check=True, timeout=120)
    assert result.stdout.strip() == "[]"


def test_assignment_input_validation():
    with pytest.raises(ValueError):
        assignment_min_cost(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        assignment_min_cost(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        assignment_min_cost(np.array([[np.inf, 1.0], [1.0, 2.0]]))


def test_ospa_worked_examples():
    params = OspaParams(cutoff=100.0, order=2.0)
    same = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ospa(same, same, params)[0] == pytest.approx(0.0, abs=1e-12)
    total, loc, card = ospa(np.zeros((0, 3)), np.array([[1.0, 1.0, 1.0]]), params)
    assert total == pytest.approx(100.0, abs=1e-9)
    assert loc == 0.0
    assert card == pytest.approx(100.0, abs=1e-9)
    total, loc, card = ospa(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]]), params)
    assert total == pytest.approx(5.0, abs=1e-9)
    assert loc == pytest.approx(5.0, abs=1e-9)
    assert card == 0.0
    # one matched pair at distance 0 plus one unmatched point beyond the
    # cutoff: total = (100^2 / 2)^(1/2)
    x = np.array([[0.0, 0.0, 0.0]])
    y = np.array([[0.0, 0.0, 0.0], [500.0, 500.0, 500.0]])
    total, loc, card = ospa(x, y, params)
    assert total == pytest.approx(100.0 / np.sqrt(2.0), abs=1e-9)


def test_ospa_empty_both():
    assert ospa(np.zeros((0, 3)), np.zeros((0, 3))) == (0.0, 0.0, 0.0)


def test_ospa_truncates_before_assignment():
    # without truncation the solver would pair (0 <-> far) and (eps <-> 0) to
    # shave the large distance; with truncation both far pairings saturate
    # and the total stays at the saturated value
    params = OspaParams(cutoff=10.0, order=1.0)
    x = np.array([[0.0], [1000.0]])
    y = np.array([[0.5], [2000.0]])
    total, loc, card = ospa(x, y, params)
    assert total == pytest.approx((0.5 + 10.0) / 2.0)
    assert card == 0.0


def test_ospa_decomposition_identity():
    rng = np.random.default_rng(21)
    params = OspaParams(cutoff=50.0, order=2.0)
    for _ in range(200):
        x = rng.uniform(0.0, 100.0, size=(int(rng.integers(0, 5)), 3))
        y = rng.uniform(0.0, 100.0, size=(int(rng.integers(1, 5)), 3))
        total, loc, card = ospa(x, y, params)
        assert 0.0 <= total <= params.cutoff + 1e-12
        assert total ** 2 == pytest.approx(loc ** 2 + card ** 2, rel=1e-10, abs=1e-10)


def test_ospa_metric_axioms():
    rng = np.random.default_rng(22)
    params = OspaParams(cutoff=20.0, order=2.0)
    for _ in range(300):
        sets = [rng.uniform(0.0, 50.0, size=(int(rng.integers(0, 5)), 2)) for _ in range(3)]
        x, y, z = sets
        dxy = ospa(x, y, params)[0]
        dyx = ospa(y, x, params)[0]
        assert dxy == pytest.approx(dyx, rel=1e-12, abs=1e-12)
        assert ospa(x, x, params)[0] == pytest.approx(0.0, abs=1e-12)
        dxz = ospa(x, z, params)[0]
        dyz = ospa(y, z, params)[0]
        assert dxz <= dxy + dyz + 1e-9


def test_ospa_dimension_mismatch():
    with pytest.raises(ValueError):
        ospa(np.zeros((1, 2)), np.zeros((1, 3)))
