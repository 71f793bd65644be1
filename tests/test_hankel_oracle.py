"""The library's Hankel values against 60-digit ones.

``data/hankel_oracle.json`` holds the Hankel values of every preset's
FOM at n = 10 and 20, computed by ``tools/hankel_oracle.py`` in mpmath
at 60 digits from the same double-precision A, b and c.

``test_hankel_values_match_oracle`` takes errors over sigma_1.  Each
bound is about ten times the largest error measured at n = 10 and 20
with the pivoted-Cholesky factors (one BLAS thread); the
eigendecomposition factors they replaced measured up to 1.2e-9
(``small_all_ex3_in2``) and missed up to 8 of the resolved values.

``test_hankel_values_per_value`` takes each value's error over itself,
with one fixed bound for every preset; the cases the library misses are
strict xfails that quote the measured error.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cablemass.balance import (RANK_TOL, error_bound, gramians,
                               square_root_transform)
from cablemass.cli import PRESETS, get_preset
from cablemass.model import build_system

ORACLE = json.loads((Path(__file__).parent / "data"
                     / "hankel_oracle.json").read_text())
NS = (10, 20)
# preset: (largest |sigma_i - oracle_i| / sigma_1, largest |bound - oracle
# bound| / sigma_1 at the preset's r); measured, per preset over n = 10 and
# 20: exp_stab_Ex1 6.4e-13 and 1.7e-12, exp_stability2 1.4e-13 and 2.3e-14,
# small_damp_ex1_in2 8.0e-14 and 1.5e-13, small_damp_ex5_in4 2.9e-12 and
# 3.6e-12, small_stiff_ex2_in1 9.1e-13 and 8.3e-14, small_stiff_ex1_in4
# 2.0e-12 and 1.1e-11, small_stiff_ex5_in4 3.9e-8 and 8.0e-12 (sigma_1 and
# sigma_2 of its near-marginal pair), both small_all presets 9.2e-13 and
# 7.9e-13
TOLERANCES = {
    "exp_stab_Ex1": (7e-12, 2e-11),
    "exp_stability2": (2e-12, 3e-13),
    "small_damp_ex1_in2": (8e-13, 2e-12),
    "small_damp_ex5_in4": (3e-11, 4e-11),
    "small_stiff_ex2_in1": (1e-11, 1e-12),
    "small_stiff_ex1_in4": (3e-11, 2e-10),
    "small_stiff_ex5_in4": (4e-7, 8e-11),
    "small_all_ex3_in2": (1e-11, 8e-12),
    "small_all_ex3_in4": (1e-11, 8e-12),
}
CASES = [(name, n) for name in PRESETS for n in NS]


def oracle_values(name: str, n: int) -> np.ndarray:
    return np.array([float(s) for s in ORACLE["sigma"][name][str(n)]])


def test_data_covers_every_preset():
    assert ORACLE["digits"] == 60
    assert set(ORACLE["sigma"]) == set(PRESETS) == set(TOLERANCES)
    for name, n in CASES:
        sigma = oracle_values(name, n)
        assert sigma.size == 2 * n
        # values near 1e-30 sigma_1 are the 60-digit rounding floor, and
        # a PQ eigenvalue rounded below zero is stored as 0
        assert np.all(sigma >= 0.0) and np.all(np.diff(sigma) <= 0.0)


@pytest.mark.parametrize("name, n", CASES, ids=[f"{p}-{n}" for p, n in CASES])
def test_hankel_values_match_oracle(name, n):
    preset = get_preset(name)
    sys = build_system(preset.params, n)
    p, q = gramians(sys)
    hsv = square_root_transform(p, q, preset.r).hsv
    sigma = oracle_values(name, n)
    # every value clearly above the rank threshold is resolved, and none
    # clearly below it (the counts agreed exactly in every case measured)
    assert np.count_nonzero(sigma > 2.0 * RANK_TOL * sigma[0]) <= hsv.size
    assert hsv.size <= np.count_nonzero(sigma > 0.5 * RANK_TOL * sigma[0])
    value_tol, bound_tol = TOLERANCES[name]
    assert np.abs(hsv - sigma[:hsv.size]).max() <= value_tol * sigma[0]
    true_bound = 2.0 * sigma[preset.r:].sum()
    assert abs(error_bound(hsv, preset.r) - true_bound) \
        <= bound_tol * sigma[0]


# Every value above PER_VALUE_FLOOR * sigma_1 is resolved and within
# PER_VALUE_RTOL of itself, and so is the preset-r error bound.  On
# small_stiff_ex5_in4 the floor is taken over sigma_3: its top pair is
# the near-marginal mode.
PER_VALUE_RTOL = 1e-6
PER_VALUE_FLOOR = 1e-9
# (preset, n): the largest relative error measured (one BLAS thread) of a
# value above the floor, and of the bound where it also misses
PER_VALUE_MISSES = {
    ("exp_stab_Ex1", 10): "value error 3.0e-6",
    ("exp_stab_Ex1", 20): "value error 3.0e-6",
    ("small_damp_ex1_in2", 20): "value error 5.0e-6",
    ("small_damp_ex5_in4", 20): "value error 1.4e-5, bound error 3.4e-5",
    ("small_stiff_ex1_in4", 10): "value error 1.1e-5",
    ("small_stiff_ex1_in4", 20): "value error 1.7e-4",
    ("small_stiff_ex5_in4", 10):
        "8 of 14 values above the floor unresolved, bound error 5.4e-2",
    ("small_stiff_ex5_in4", 20):
        "9 of 15 values above the floor unresolved, bound error 2.2e-1",
    ("small_all_ex3_in2", 10): "value error 1.2e-6",
    ("small_all_ex3_in2", 20): "value error 3.0e-5",
    ("small_all_ex3_in4", 10): "value error 1.2e-6",
    ("small_all_ex3_in4", 20): "value error 3.0e-5",
}
PER_VALUE_CASES = [
    pytest.param(name, n, id=f"{name}-{n}", marks=[pytest.mark.xfail(
        raises=AssertionError, strict=True, reason=PER_VALUE_MISSES[name, n])]
        if (name, n) in PER_VALUE_MISSES else [])
    for name, n in CASES]


@pytest.mark.parametrize("name, n", PER_VALUE_CASES)
def test_hankel_values_per_value(name, n):
    preset = get_preset(name)
    sys = build_system(preset.params, n)
    p, q = gramians(sys)
    hsv = square_root_transform(p, q, preset.r).hsv
    sigma = oracle_values(name, n)
    ref = sigma[2] if name == "small_stiff_ex5_in4" else sigma[0]
    above = sigma[sigma > PER_VALUE_FLOOR * ref]
    assert above.size <= hsv.size
    assert np.all(np.abs(hsv[:above.size] - above) <= PER_VALUE_RTOL * above)
    true_bound = 2.0 * sigma[preset.r:].sum()
    assert abs(error_bound(hsv, preset.r) - true_bound) \
        <= PER_VALUE_RTOL * true_bound
