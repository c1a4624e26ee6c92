"""Ablation: the objective function (paper eq. 10).

The paper minimizes total routing-resource usage and notes it is
"straightforward to apply alternative objective functions", e.g.
power-weighting registers.  The mapper emits eq. (10) with one
``set_objective_terms`` call over the routing columns, so another
objective is an edit of that call, not a runtime option.  This bench
times the route-usage objective solved to optimality.
"""

import pytest

from repro.arch import GridSpec, build_grid
from repro.kernels import conv_2x2_f
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus
from repro.mrrg import build_mrrg_from_module, prune


@pytest.fixture(scope="module")
def fabric():
    top = build_grid(GridSpec(rows=3, cols=3), name="fab3")
    return prune(build_mrrg_from_module(top, 1))


def test_route_usage_objective(benchmark, fabric):
    mapper = ILPMapper(ILPMapperOptions(time_limit=120))
    result = benchmark.pedantic(
        lambda: mapper.map(conv_2x2_f(), fabric),
        rounds=1, iterations=1,
    )
    assert result.status is MapStatus.MAPPED
    assert result.proven_optimal
