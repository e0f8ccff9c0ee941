"""The public short calls, simulate, integrate_flow and rubin_simulate: the
typed error each bad input raises, and the arrays of the records they return."""

import copy
import math
import pickle

import numpy as np
import pytest

from vrrw import (
    ClockConfig,
    InteractionMatrix,
    ModelParameters,
    NumericError,
    ValidationError,
    integrate_flow,
    power_weight,
    rubin_simulate,
    simulate,
)
from vrrw.dynamics import FLOW_STEP_LIMIT

P = ModelParameters.for_complete_graph(3, 2.5)
CLOCK = ClockConfig(matrix=P.matrix, weight=power_weight(2.5))
V0 = [0.5, 0.3, 0.2]


def _overflowing(level):
    """A clock weight that leaves the double range at level 3."""
    return 1e300 ** (level + 1) if level >= 3 else float(level + 1)


BAD_CALLS = {
    # simulate(p, start, horizon, seed)
    "walk-start-bool": (ValidationError, lambda: simulate(P, True, 50, 1)),
    "walk-start-float": (ValidationError, lambda: simulate(P, 1.0, 50, 1)),
    "walk-start-negative": (ValidationError, lambda: simulate(P, -1, 50, 1)),
    "walk-start-past-n": (ValidationError, lambda: simulate(P, 3, 50, 1)),
    "walk-horizon-bool": (ValidationError, lambda: simulate(P, 0, True, 1)),
    "walk-horizon-float": (ValidationError, lambda: simulate(P, 0, 50.0, 1)),
    "walk-horizon-0": (ValidationError, lambda: simulate(P, 0, 0, 1)),
    "walk-seed-bool": (ValidationError, lambda: simulate(P, 0, 50, False)),
    "walk-seed-float": (ValidationError, lambda: simulate(P, 0, 50, 1.0)),
    "walk-seed-negative": (ValidationError, lambda: simulate(P, 0, 50, -1)),
    "walk-checkpoint-float": (ValidationError, lambda: simulate(P, 0, 50, 1, checkpoints=[2.5])),
    "walk-checkpoint-past-horizon": (ValidationError, lambda: simulate(P, 0, 50, 1, checkpoints=[51])),
    "walk-weight-overflow": (NumericError, lambda: simulate(ModelParameters.for_complete_graph(3, 100.0), 0, 1000, 1)),
    # integrate_flow(p, v0, t_end, dt)
    "flow-v0-nan": (NumericError, lambda: integrate_flow(P, [math.nan, 0.5, 0.5], 1.0, 0.1)),
    "flow-v0-off-simplex": (ValidationError, lambda: integrate_flow(P, [0.5, 0.5, 0.5], 1.0, 0.1)),
    "flow-v0-negative": (ValidationError, lambda: integrate_flow(P, [1.2, -0.1, -0.1], 1.0, 0.1)),
    "flow-v0-wrong-size": (ValidationError, lambda: integrate_flow(P, [0.5, 0.5], 1.0, 0.1)),
    "flow-t-end-bool": (ValidationError, lambda: integrate_flow(P, V0, True, 0.1)),
    "flow-dt-string": (ValidationError, lambda: integrate_flow(P, V0, 1.0, "0.1")),
    "flow-dt-past-t-end": (ValidationError, lambda: integrate_flow(P, V0, 0.1, 0.2)),
    "flow-dt-0": (ValidationError, lambda: integrate_flow(P, V0, 1.0, 0.0)),
    "flow-t-end-inf": (ValidationError, lambda: integrate_flow(P, V0, math.inf, 0.1)),
    "flow-past-step-limit": (ValidationError, lambda: integrate_flow(P, V0, 1.0, 0.5 / FLOW_STEP_LIMIT)),
    # rubin_simulate(config, start, jump_budget, seed); a negative seed is a key mod 2**64
    "clock-start-bool": (ValidationError, lambda: rubin_simulate(CLOCK, True, 50, 1)),
    "clock-start-float": (ValidationError, lambda: rubin_simulate(CLOCK, 1.0, 50, 1)),
    "clock-start-negative": (ValidationError, lambda: rubin_simulate(CLOCK, -1, 50, 1)),
    "clock-start-past-n": (ValidationError, lambda: rubin_simulate(CLOCK, 3, 50, 1)),
    "clock-budget-bool": (ValidationError, lambda: rubin_simulate(CLOCK, 0, True, 1)),
    "clock-budget-float": (ValidationError, lambda: rubin_simulate(CLOCK, 0, 50.0, 1)),
    "clock-budget-0": (ValidationError, lambda: rubin_simulate(CLOCK, 0, 0, 1)),
    "clock-seed-bool": (ValidationError, lambda: rubin_simulate(CLOCK, 0, 50, True)),
    "clock-seed-float": (ValidationError, lambda: rubin_simulate(CLOCK, 0, 50, 1.0)),
    "clock-weight-overflow": (
        NumericError,
        lambda: rubin_simulate(ClockConfig(matrix=P.matrix, weight=_overflowing), 0, 50, 1),
    ),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_short_calls_keep_their_typed_errors(name):
    error, call = BAD_CALLS[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error


def _root(a):
    """The array that owns the memory a views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _records():
    """A record of each short call: a lone walk past its 52-entry power
    table's worth of steps, one within it, a clock race and a flow."""
    flow = integrate_flow(ModelParameters.for_complete_graph(5, 1.5), [0.3, 0.25, 0.2, 0.15, 0.1], 0.3, 0.01)
    race = rubin_simulate(CLOCK, 1, 500, 7)
    return {
        "walk": simulate(P, 0, 5000, 3).__dict__,
        "walk-50": simulate(P, 2, 50, 4, record_sites=True).__dict__,
        "walk-unlogged": simulate(P, 2, 50, 4, record_sites=False).__dict__,
        "walk-checkpoints": simulate(P, 0, 300, 5, checkpoints=[7, 150]).__dict__,
        "race": {"jump_times": race.jump_times, **race.walk.__dict__},
        "flow": flow.__dict__,
    }


@pytest.mark.parametrize("kind", ["walk", "walk-50", "walk-unlogged", "walk-checkpoints", "race", "flow"])
def test_record_arrays_are_read_only_and_hold_no_workspace(kind):
    # a record keeps no view into walk_run's or clock_run's workspace: each
    # array owns its memory, or views one no larger than itself
    arrays = {k: v for k, v in _records()[kind].items() if isinstance(v, np.ndarray)}
    assert len(arrays) >= 3
    for name, a in arrays.items():
        assert not a.flags.writeable, name
        assert _root(a).nbytes <= a.nbytes, name
        with pytest.raises(ValueError):
            a.flat[0] = 0


def test_a_copied_or_pickled_model_takes_its_matrix_address_afresh():
    # the cached address names the original's entries; a copy that kept it
    # would walk on memory that its own entries do not own
    p = ModelParameters.for_complete_graph(3, 2.5)
    want = simulate(p, 0, 50, 1).sites
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin.effective_matrix.address != p.effective_matrix.address
        np.testing.assert_array_equal(simulate(twin, 0, 50, 1).sites, want)


def test_a_matrix_laid_out_otherwise_walks_on_a_kept_copy():
    # int entries in Fortran order: the matrix keeps them as C-contiguous
    # doubles, whose address the compiled calls read
    entries = np.asfortranarray((np.ones((3, 3)) - np.eye(3)).astype(np.int64))
    odd = ModelParameters(matrix=InteractionMatrix(size=3, entries=entries, row_sum=2.0), alpha=2.5)
    for _ in range(3):
        np.testing.assert_array_equal(simulate(odd, 0, 50, 1).sites, simulate(P, 0, 50, 1).sites)
    kept = odd.effective_matrix.entries
    assert kept.flags.c_contiguous and kept.dtype == np.float64
    assert odd.effective_matrix.address == kept.ctypes.data
