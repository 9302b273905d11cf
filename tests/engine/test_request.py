"""The uniform SolveRequest entry point and the options check."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
from repro.baselines.common import (
    SOLVERS,
    Options,
    SolveRequest,
    get_solver,
    get_solver_info,
    register_solver,
    solver_names,
)
from repro.baselines.dijkstra import solve_dijkstra
from repro.calibration import default_cost, default_gpu
from repro.engine import sweep_options
from repro.errors import EngineError, SolverError
from repro.graphs.suite import SuiteEntry
from repro.harness import run_suite
from repro.serve import Session
from repro.trace import Tracer


class TestSolveRequest:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_request_matches_legacy_call(self, name, small_road):
        """Every registered solver gives bit-identical results through the
        request path and a direct call of its function."""
        info = get_solver_info(name)
        spec = default_gpu()
        cost = default_cost(spec)
        kwargs = {}
        if info.accepts("spec"):
            kwargs = {"spec": spec, "cost": cost}
        direct = info.fn(small_road, 0, **kwargs)
        via_request = info.solve(
            SolveRequest(graph=small_road, source=0, spec=spec, cost=cost)
        )
        assert np.array_equal(direct.dist, via_request.dist)
        assert direct.work_count == via_request.work_count
        assert direct.time_us == via_request.time_us

    def test_sources_forwarded(self, small_road):
        info = get_solver_info("dijkstra")
        res = info.solve(
            SolveRequest(graph=small_road, source=0, options={"sources": [0, 5]})
        )
        assert res.dist[0] == 0.0 and res.dist[5] == 0.0

    def test_delta_forwarded(self, small_road):
        info = get_solver_info("cpu-ds")
        a = info.solve(SolveRequest(graph=small_road, options={"delta": 3.0}))
        b = info.solve(SolveRequest(graph=small_road, options={"delta": 200.0}))
        assert np.array_equal(a.dist, b.dist)  # same answer, different Δ

    def test_options_reach_the_solver(self, small_road):
        from repro.core import AddsConfig

        spec = default_gpu()
        res = get_solver("adds").solve(
            SolveRequest(
                graph=small_road,
                spec=spec,
                cost=default_cost(spec),
                options={"config": AddsConfig(n_wtbs=2)},
            )
        )
        assert res.stats["n_wtbs"] == 2

    def test_tracer_rejected_by_untraceable(self, small_road):
        with pytest.raises(SolverError, match="does not take option 'tracer'"):
            get_solver("dijkstra").solve(
                SolveRequest(graph=small_road, options={"tracer": Tracer()})
            )

    def test_delta_rejected_without_capability(self, small_road):
        with pytest.raises(SolverError, match="delta"):
            get_solver("dijkstra").solve(
                SolveRequest(graph=small_road, options={"delta": 5.0})
            )

    def test_config_rejected_without_capability(self, small_road):
        spec = default_gpu()
        with pytest.raises(SolverError, match="config"):
            get_solver("nf").solve(
                SolveRequest(graph=small_road, spec=spec, options={"config": object()})
            )

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_option_the_solver_lacks_is_rejected(self, name, small_road):
        """Through a request and through ``repro.sssp``, an option the
        solver lacks is a SolverError naming the solvers that take it —
        never a bare TypeError from the solver call."""
        lacking = sorted(
            set().union(*(i.params for i in SOLVERS.values()))
            - get_solver(name).params
        )[0]
        takers = solver_names(accepts=lacking)
        assert takers and name not in takers
        request = SolveRequest(graph=small_road, options={lacking: 1.0})
        with pytest.raises(SolverError, match=lacking) as exc:
            get_solver(name).solve(request)
        assert all(t in str(exc.value) for t in takers)
        with pytest.raises(SolverError, match=lacking):
            repro.sssp(small_road, 0, algorithm=name, **{lacking: 1.0})

    def test_retired_scheduler_option_is_rejected(self, small_road):
        """``scheduler`` named a queue design before ADDS had one queue;
        it is now an option no solver takes."""
        with pytest.raises(SolverError, match="does not take option 'scheduler'"):
            get_solver("adds").solve(
                SolveRequest(graph=small_road, options={"scheduler": "bucket"})
            )

    @pytest.mark.parametrize("delta", [float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("name", ["adds", "nf", "gun-nf", "cpu-ds"])
    def test_non_positive_or_nan_delta_rejected(self, name, delta, small_road):
        with pytest.raises(SolverError, match="positive"):
            get_solver(name).solve(
                SolveRequest(graph=small_road, options={"delta": delta})
            )

    @pytest.mark.parametrize("name", ["adds", "nf", "gun-nf", "cpu-ds"])
    def test_infinite_delta_matches_dijkstra(self, name, small_road):
        ref = solve_dijkstra(small_road, 0).dist
        res = get_solver(name).solve(
            SolveRequest(graph=small_road, options={"delta": float("inf")})
        )
        assert np.array_equal(res.dist, ref)

    def test_sssp_rejects_delta_for_dijkstra(self, small_road):
        with pytest.raises(SolverError, match="cpu-ds"):
            repro.sssp(small_road, algorithm="dijkstra", delta=3.0)

    def test_device_pair_only_reaches_device_solvers(self, small_road):
        """``cost`` of a request is the GPU cost model; dijkstra's own
        ``cost=`` parameter (a CPU model) must not receive it."""
        spec = default_gpu()
        res = get_solver("dijkstra").solve(
            SolveRequest(graph=small_road, spec=spec, cost=default_cost(spec))
        )
        assert res.reached() == small_road.num_vertices


class TestOptions:
    def test_none_means_default_and_is_dropped(self):
        assert dict(Options(delta=None, perturb_seed=3)) == {"perturb_seed": 3}

    def test_frozen(self):
        opts = Options(delta=2.0)
        with pytest.raises(TypeError):
            opts["delta"] = 3.0  # type: ignore[index]
        request = SolveRequest(graph=None, options={"delta": 2.0})
        assert isinstance(request.options, Options)

    def test_picklable(self):
        opts = Options(perturb_seed=3, delta=2.0)
        assert pickle.loads(pickle.dumps(opts)) == opts

    def test_to_json_keeps_scalars_only(self):
        opts = Options(perturb_seed=3, delta=2.0, tracer=Tracer())
        assert opts.to_json() == {"delta": 2.0, "perturb_seed": 3}


class TestSweepOptions:
    def test_option_no_solver_takes_is_rejected(self):
        with pytest.raises(EngineError, match="'delta' has no effect"):
            sweep_options(("dijkstra", "nv"), {"delta": 5.0})


class TestCapabilityFlags:
    def test_device_solvers(self):
        assert solver_names(accepts="spec") == [
            "adds", "gun-bf", "gun-nf", "nf", "nv",
        ]

    def test_traceable_solvers(self):
        assert solver_names(accepts="tracer") == [
            "adds", "gun-bf", "gun-nf", "nf", "nv",
        ]
        assert "dijkstra" not in solver_names(accepts="tracer")

    def test_delta_family(self):
        names = solver_names(accepts="delta")
        assert "adds" in names and "cpu-ds" in names
        assert "gun-bf" not in names

    def test_registry_values_are_callable(self):
        for name, info in SOLVERS.items():
            assert callable(info.fn)
            assert info.name == name

    def test_params_are_the_keyword_only_parameters(self):
        assert get_solver("dijkstra").params == {
            "sources", "cpu", "cost", "warm_from", "updates",
        }


class TestNewOption:
    """A solver with a new keyword needs no plumbing anywhere else: the
    option reaches it through every front door."""

    @pytest.fixture
    def probe_solver(self):
        seen = []

        def solve_probe(graph, source=0, *, probe=None):
            seen.append(probe)
            return solve_dijkstra(graph, source)

        register_solver("probe-solver")(solve_probe)
        yield seen
        SOLVERS.pop("probe-solver")

    def test_probe_reaches_the_solver(self, probe_solver, small_road):
        repro.sssp(small_road, 0, algorithm="probe-solver", probe=1)
        entry = SuiteEntry(
            name="road", category="road", factory=lambda: small_road
        )
        run = run_suite(
            solvers=("probe-solver",), suite=[entry], jobs=1,
            options={"probe": 2},
        )
        assert not run.failures
        with Session(
            solver="probe-solver", options={"probe": 3}, autostart=False
        ) as session:
            session.add_graph("road", small_road)
            session.query("road", 0)
        assert probe_solver == [1, 2, 3]

    def test_sweep_naming_an_unaccepted_option_raises(
        self, probe_solver, small_road
    ):
        entry = SuiteEntry(
            name="road", category="road", factory=lambda: small_road
        )
        with pytest.raises(EngineError, match="probe"):
            run_suite(
                solvers=("dijkstra", "nf"), suite=[entry], options={"probe": 1}
            )
        with pytest.raises(EngineError, match="probe-solver"):
            Session(solver="dijkstra", options={"probe": 1}, autostart=False)
