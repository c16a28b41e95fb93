"""Shared fixtures: the paper's running example and small workloads."""

import asyncio

import pytest

from repro.core.forest import AbstractionForest
from repro.workloads.telephony import (
    TelephonyBenchmark,
    example13_polynomials,
    figure1_database,
    months_tree,
    plans_tree,
)
from repro.workloads.tpch import generate


@pytest.fixture(scope="session")
def ex13_polys():
    """The polynomials {P1, P2} of Example 13."""
    return example13_polynomials()


@pytest.fixture(scope="session")
def figure2_tree():
    """The plans abstraction tree of Figure 2."""
    return plans_tree()


@pytest.fixture(scope="session")
def figure3_tree():
    """The months abstraction tree of Figure 3."""
    return months_tree()


@pytest.fixture(scope="session")
def paper_forest(figure2_tree, figure3_tree):
    """The two-tree forest used by Examples 8 and 15."""
    return AbstractionForest([figure2_tree, figure3_tree])


@pytest.fixture(scope="session")
def figure1_relations():
    """(Cust, Calls, Plans) of Figure 1."""
    return figure1_database()


@pytest.fixture(scope="session")
def tiny_tpch():
    """A small, session-cached TPC-H database."""
    return generate(scale_factor=0.001, seed=42)


@pytest.fixture(scope="session")
def small_telephony():
    """A small, session-cached telephony benchmark."""
    return TelephonyBenchmark(customers=60, num_plans=16, months=6,
                              zip_pool=8, seed=11)


@pytest.fixture
def hold(monkeypatch):
    """A ``GET /hold`` route on every what-if service the test boots.

    A request to it is admitted, never parks in the batcher and
    finishes only once the returned :class:`asyncio.Event` is set (or
    its deadline passes), so single asks parked meanwhile stay parked.
    """
    from repro.service.app import WhatIfService

    release = asyncio.Event()
    route = WhatIfService._route

    async def holding_route(self, request):
        if request.path != "/hold":
            return await route(self, request)
        await release.wait()
        return 200, {}

    monkeypatch.setattr(WhatIfService, "_route", holding_route)
    return release
