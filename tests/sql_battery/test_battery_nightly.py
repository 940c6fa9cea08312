"""Larger-seed battery sweep, deselected by default.

Runs the same differential contract as ``test_battery_shape`` over a
*different* seed and a bigger corpus, so fresh query shapes keep
probing the 4 x 3 x 2 combination grid.  Selected explicitly::

    PYTHONPATH=src python -m pytest tests/sql_battery -m battery

(The default ``addopts`` deselect ``battery``, like ``perf``.)
"""

from collections import Counter

import pytest

from repro.appsys.datagen import generate_enterprise_data

from .generator import generate_corpus
from .runner import ARCHITECTURES, MODES, OPTIMIZERS, run_combo
from .test_battery_shape import TIME_TOLERANCE

NIGHTLY_SEED = 20270101
NIGHTLY_COUNT = 800

pytestmark = pytest.mark.battery


@pytest.fixture(scope="module")
def nightly_corpus():
    return generate_corpus(seed=NIGHTLY_SEED, count=NIGHTLY_COUNT)


@pytest.fixture(scope="module")
def nightly_outcomes(nightly_corpus):
    data = generate_enterprise_data()
    return {
        (architecture, mode, optimizer): run_combo(
            architecture, mode, optimizer, nightly_corpus, data=data
        )
        for architecture in ARCHITECTURES
        for mode in MODES
        for optimizer in OPTIMIZERS
    }


def test_nightly_full_grid_parity(nightly_corpus, nightly_outcomes):
    failures = []
    for i, query in enumerate(nightly_corpus):
        for architecture in ARCHITECTURES:
            for optimizer in OPTIMIZERS:
                base = nightly_outcomes[(architecture, "row", optimizer)][i]
                o = nightly_outcomes[(architecture, "columnar", optimizer)][i]
                if o.rows != base.rows or o.elapsed != base.elapsed:
                    failures.append((i, "mode", architecture.name, "columnar", optimizer))
        for mode in MODES:
            for optimizer in OPTIMIZERS:
                base = nightly_outcomes[(ARCHITECTURES[0], mode, optimizer)][i]
                for architecture in ARCHITECTURES[1:]:
                    o = nightly_outcomes[(architecture, mode, optimizer)][i]
                    if o.rows != base.rows or (
                        abs(o.elapsed - base.elapsed) > TIME_TOLERANCE
                    ):
                        failures.append((i, "arch", architecture.name, mode, optimizer))
        for architecture in ARCHITECTURES:
            for mode in MODES:
                syn = nightly_outcomes[(architecture, mode, "syntactic")][i]
                cost = nightly_outcomes[(architecture, mode, "cost")][i]
                if query.total_order:
                    rows_ok = cost.rows == syn.rows
                else:
                    rows_ok = Counter(map(tuple, cost.rows)) == Counter(
                        map(tuple, syn.rows)
                    )
                time_ok = (
                    query.remote
                    or query.lateral
                    or abs(cost.elapsed - syn.elapsed) <= TIME_TOLERANCE
                )
                if not rows_ok or not time_ok:
                    failures.append((i, "optimizer", architecture.name, mode))
    assert not failures, (
        f"{len(failures)} divergences; first: {failures[0]} "
        f"sql: {nightly_corpus[failures[0][0]].sql}"
    )
