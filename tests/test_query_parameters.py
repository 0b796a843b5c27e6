"""One ``k`` / ``theta`` / ``radius`` rule on every path.

A fractional, boolean or non-positive ``k``, a NaN ``theta`` and a
negative ``radius`` raise the same :class:`QueryParameterError` from the
serial extension and from the engine, and answer 400 with the same
message through ``service.submit`` and over HTTP.  The client sends the
values as given (numpy scalars unwrapped), so the wire cannot turn
``k=2.5`` into 2 or ``k=True`` into 1.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.engine import MotifEngine
from repro.errors import QueryParameterError
from repro.extensions import discover_top_k_motifs
from repro.extensions.clustering import cluster_subtrajectories
from repro.extensions.join import join_top_k, similarity_join
from repro.index import CorpusIndex
from repro.service import BadRequestError, MotifService, ServiceClient, make_server
from repro.trajectory import Trajectory

rng = np.random.default_rng(0)
TRAJ = Trajectory(rng.normal(size=(24, 2)).cumsum(axis=0))
CORPUS = [Trajectory(rng.normal(size=(6, 2)).cumsum(axis=0)) for _ in range(5)]
QUERY = CORPUS[0]
WIRE_CORPUS = [t.points.tolist() for t in CORPUS]

# op -> (serial call, engine call, (service op, params), client call),
# each taking the one bad value.
VERBS = {
    "top_k": (
        lambda v: discover_top_k_motifs(TRAJ, min_length=4, k=v),
        lambda e, v: e.top_k(TRAJ, min_length=4, k=v),
        lambda v: ("top_k", {"trajectory": TRAJ.points.tolist(),
                             "min_length": 4, "k": v}),
        lambda c, v: c.top_k(TRAJ, min_length=4, k=v),
    ),
    "join_top_k": (
        lambda v: join_top_k(CORPUS, CORPUS, v),
        lambda e, v: e.join_top_k(CORPUS, CORPUS, k=v, index="tree"),
        lambda v: ("join_top_k", {"left": WIRE_CORPUS, "right": WIRE_CORPUS,
                                  "k": v, "index": "tree"}),
        lambda c, v: c.join_top_k(CORPUS, CORPUS, k=v, index="tree"),
    ),
    "knn": (
        lambda v: CorpusIndex(CORPUS).knn_scan(QUERY, v),
        lambda e, v: e.knn(QUERY, CORPUS, k=v),
        lambda v: ("knn", {"query": QUERY.points.tolist(),
                           "corpus": WIRE_CORPUS, "k": v}),
        lambda c, v: c.knn(QUERY, CORPUS, k=v),
    ),
    "join": (
        lambda v: similarity_join(CORPUS, CORPUS, v),
        lambda e, v: e.join(CORPUS, CORPUS, v, index="tree"),
        lambda v: ("join", {"left": WIRE_CORPUS, "right": WIRE_CORPUS,
                            "theta": v, "index": "tree"}),
        lambda c, v: c.join(CORPUS, CORPUS, v, index="tree"),
    ),
    "cluster": (
        lambda v: cluster_subtrajectories(TRAJ, window_length=5, theta=v),
        lambda e, v: e.cluster(TRAJ, window_length=5, theta=v),
        lambda v: ("cluster", {"trajectory": TRAJ.points.tolist(),
                               "window_length": 5, "theta": v}),
        lambda c, v: c.cluster(TRAJ, window_length=5, theta=v),
    ),
    "range": (
        lambda v: CorpusIndex(CORPUS).range_scan(QUERY, v),
        lambda e, v: e.range(QUERY, CORPUS, v),
        lambda v: ("range", {"query": QUERY.points.tolist(),
                             "corpus": WIRE_CORPUS, "radius": v}),
        lambda c, v: c.range(QUERY, CORPUS, v),
    ),
}

CASES = [
    (op, value)
    for op in ("top_k", "join_top_k", "knn")
    for value in (2.5, True, 0)
] + [
    (op, value) for op in ("join", "cluster") for value in (math.nan, -1.0)
] + [("range", -1), ("range", math.nan)]


@pytest.fixture(scope="module")
def stack():
    """An engine, a started service and an HTTP client of it."""
    service = MotifService(workers=1)
    service.start()
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=httpd.server_address[1], retries=0)
    with MotifEngine(workers=1) as engine:
        yield engine, service, client
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10.0)
    service.stop()


@pytest.mark.parametrize("op,value", CASES,
                         ids=[f"{op}-{value!r}" for op, value in CASES])
def test_one_error_on_every_path(stack, op, value):
    engine, service, client = stack
    serial, in_engine, request, over_http = VERBS[op]
    with pytest.raises(QueryParameterError) as serial_err:
        serial(value)
    message = str(serial_err.value)
    with pytest.raises(QueryParameterError) as engine_err:
        in_engine(engine, value)
    assert str(engine_err.value) == message
    with pytest.raises(BadRequestError) as submit_err:
        service.submit(*request(value))
    assert submit_err.value.status == 400
    assert str(submit_err.value) == message
    with pytest.raises(BadRequestError) as http_err:
        over_http(client, value)
    assert http_err.value.status == 400
    assert str(http_err.value) == message


def test_client_sends_values_as_given(stack):
    _, _, client = stack
    # An integral float and a numpy integer are valid k and answer as
    # the plain int does.
    want = client.join_top_k(CORPUS, CORPUS, k=3)
    assert client.join_top_k(CORPUS, CORPUS, k=3.0) == want
    assert client.join_top_k(CORPUS, CORPUS, k=np.int64(3)) == want
    with pytest.raises(BadRequestError, match="got 2.5"):
        client.join_top_k(CORPUS, CORPUS, k=np.float64(2.5))
