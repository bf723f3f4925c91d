"""Public-API surface snapshot.

Pins the exported names and the signatures of the stable entry points
so an accidental API change fails CI instead of shipping.  The CI
workflow additionally runs this module with ``-W
error::DeprecationWarning``: the supported surface stays warning-clean.

Updating this file is the deliberate act that changes the public API.
"""

import inspect
import warnings

import pytest

import repro
from repro import DiscSession, uniform_dataset

#: The exported surface, frozen.  ``DiscSession``/``SelectRequest``/
#: ``EngineSpec``/``execute_request`` arrived with the request-pipeline
#: redesign (ISSUE 4); everything else predates it.
EXPECTED_ALL = sorted([
    "DiscSession",
    "SelectRequest",
    "EngineSpec",
    "build_index",
    "disc_select",
    "execute_request",
    "basic_disc",
    "greedy_disc",
    "greedy_c",
    "fast_c",
    "zoom_in",
    "zoom_out",
    "local_zoom",
    "verify_disc",
    "DiscResult",
    "Dataset",
    "uniform_dataset",
    "clustered_dataset",
    "cities_dataset",
    "cameras_dataset",
    "get_metric",
    "NeighborIndex",
    "BruteForceIndex",
    "GridIndex",
    "MTree",
    "MTreeIndex",
    "__version__",
])

#: callable -> exact signature string (annotations as written).
EXPECTED_SIGNATURES = {
    repro.build_index: (
        "(data: 'Union[Dataset, np.ndarray]', metric=None, *, "
        "engine: 'str' = 'auto', **engine_options) -> 'NeighborIndex'"
    ),
    repro.disc_select: (
        "(data: 'Union[Dataset, np.ndarray]', radius: 'float', *, "
        "metric=None, method: 'str' = 'greedy', engine: 'str' = 'auto', "
        "engine_options: 'Optional[dict]' = None, **method_options) "
        "-> 'DiscResult'"
    ),
    repro.execute_request: (
        "(data: 'Union[Dataset, np.ndarray]', "
        "request: 'Union[SelectRequest, dict]', *, metric=None) "
        "-> 'DiscResult'"
    ),
    DiscSession.__init__: (
        "(self, data: 'Union[Dataset, np.ndarray]', metric=None, *, "
        "engine: 'str' = 'auto', cache_radii: 'int' = 8, "
        "adjacency_cache: 'Optional[AdjacencyCache]' = None, "
        "**engine_options)"
    ),
    DiscSession.select: (
        "(self, radius: 'float', *, method: 'str' = 'greedy', **options) "
        "-> 'DiscResult'"
    ),
    DiscSession.select_many: (
        "(self, radii: 'Sequence[float]', *, method: 'str' = 'greedy', "
        "**options) -> 'List[DiscResult]'"
    ),
    DiscSession.execute: (
        "(self, request: 'Union[SelectRequest, dict]') -> 'DiscResult'"
    ),
    DiscSession.zoom_in: (
        "(self, new_radius: 'float', *, greedy: 'bool' = True) -> 'DiscResult'"
    ),
    DiscSession.zoom_out: (
        "(self, new_radius: 'float', *, variant: 'Optional[str]' = 'a') "
        "-> 'DiscResult'"
    ),
    DiscSession.local_zoom: (
        "(self, center_id: 'int', new_radius: 'float', *, "
        "greedy: 'bool' = True) -> 'DiscResult'"
    ),
    DiscSession.compare_methods: (
        "(self, radius: 'float', *, seed: 'int' = 0) -> 'dict'"
    ),
}


def test_exported_names_match_snapshot():
    assert sorted(repro.__all__) == EXPECTED_ALL


def test_exported_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize(
    "func,expected",
    EXPECTED_SIGNATURES.items(),
    ids=[f.__qualname__ for f in EXPECTED_SIGNATURES],
)
def test_signature_snapshot(func, expected):
    assert str(inspect.signature(func)) == expected


def test_supported_surface_is_warning_clean():
    """The supported API must not trip the warnings-as-errors lane."""
    data = uniform_dataset(n=60, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = DiscSession(data, engine="brute")
        session.select(0.2)
        repro.build_index(data, engine="brute")
        repro.disc_select(data, 0.2, engine="brute")
        repro.execute_request(data, repro.SelectRequest(radius=0.2))
