"""Config objects: EngineConfig / RunOptions.

The kwargs collapse made ``EngineConfig`` (engine construction) and
``RunOptions`` (sweep/bench execution) the only calling conventions:
an engagement option passed directly to ``DLSBLNCP`` or ``run_plan``
is a plain ``TypeError``.
"""

import warnings

import pytest

from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.dlt.platform import NetworkKind
from repro.sweep import RunOptions, SweepPlan, run_plan

W = [2.0, 3.0, 5.0]
Z = 0.4


class TestEngineConfig:
    def test_config_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = DLSBLNCP(
                W, NetworkKind.NCP_FE, Z,
                config=EngineConfig(bidding_mode="commit")).run()
        assert outcome.completed

    def test_unknown_kwarg_is_a_type_error_listing_fields(self):
        with pytest.raises(TypeError, match="bogus"):
            DLSBLNCP(W, NetworkKind.NCP_FE, Z, bogus=1)

    def test_from_config_classmethod(self):
        config = EngineConfig(num_blocks=60)
        mech = DLSBLNCP.from_config(W, NetworkKind.NCP_FE, Z, config)
        assert mech.run().completed

    def test_injected_memo_requires_memoized_redundancy(self):
        from repro.perf import ComputationCache

        with pytest.raises(ValueError, match="memoized"):
            EngineConfig(memo=ComputationCache(), redundancy="independent")


class TestRunOptions:
    def plan(self, n=6):
        return SweepPlan.from_scenarios(
            "utility-point",
            [{"w": W, "z": Z, "kind": "ncp-fe", "i": 0,
              "bid_factor": 1.0 + 0.05 * i, "exec_factor": 1.0}
             for i in range(n)])

    def test_options_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_plan(self.plan(), RunOptions(workers=1))
        assert len(result.records) == 6

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="pool_size"):
            run_plan(self.plan(), pool_size=4)


class TestTopLevelReexports:
    def test_facade_importable_from_repro(self):
        import repro

        for name in ("EngagementRequest", "SweepRequest", "BenchRequest",
                     "EngineConfig", "RunOptions", "execute", "ApiError"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_quickstart_facade_snippet_runs(self):
        from repro import EngagementRequest, execute

        result = execute(EngagementRequest(w=(2.0, 3.0, 5.0), z=0.3))
        assert result.completed
