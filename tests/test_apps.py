"""The four applications: correctness on every memory system.

Every run executes the real algorithm through the simulator and is
verified against an independent reference (numpy Cholesky, stable
ranks, sequential Barnes-Hut, networkx max-flow).
"""

import numpy as np
import pytest

from repro.config import MachineConfig
from repro.apps import BarnesHut, Cholesky, IntegerSort, Maxflow, barneshut, reference_run
from repro.apps.base import run_on
from repro.apps.intsort import bucket_stable_ranks
from repro.workloads.bodies import BodySet, uniform_disc
from repro.workloads.graphs import reference_max_flow
from repro.workloads.matrices import random_spd

PAPER_SYSTEMS = ["z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp"]

CFG = MachineConfig(nprocs=4)


class TestIntegerSort:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(IntegerSort(n_keys=256, nbuckets=16), system, CFG)

    def test_correct_on_sc(self):
        run_on(IntegerSort(n_keys=256, nbuckets=16), "SCinv", CFG)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
    def test_odd_processor_counts(self, nprocs):
        run_on(IntegerSort(n_keys=100, nbuckets=8), "RCinv", MachineConfig(nprocs=nprocs))

    def test_keys_exceeding_buckets(self):
        run_on(IntegerSort(n_keys=200, nbuckets=8, max_key=64), "RCinv", CFG)

    def test_more_procs_than_convenient_split(self):
        run_on(IntegerSort(n_keys=10, nbuckets=4), "RCinv", MachineConfig(nprocs=8))

    def test_bucket_stable_ranks_reference(self):
        keys = np.array([3, 1, 3, 0, 1])
        ranks = bucket_stable_ranks(keys, 4, 4)
        assert ranks.tolist() == [3, 1, 4, 0, 2]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IntegerSort(n_keys=0)
        with pytest.raises(ValueError):
            IntegerSort(n_keys=10, nbuckets=16, max_key=8)

    def test_verification_catches_corruption(self):
        app = IntegerSort(n_keys=64, nbuckets=8)
        run_on(app, "RCinv", CFG)
        app.ranks.poke(0, 99999)
        with pytest.raises(AssertionError):
            app.verify()


class TestCholesky:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(Cholesky(grid=(4, 4)), system, CFG)

    @pytest.mark.parametrize("grid", [(2, 2), (3, 5), (6, 6)])
    def test_grid_shapes(self, grid):
        run_on(Cholesky(grid=grid), "RCinv", CFG)

    def test_random_spd_matrix(self):
        run_on(Cholesky(matrix=random_spd(24, density=0.15, seed=4)), "RCupd", CFG)

    def test_single_processor(self):
        run_on(Cholesky(grid=(4, 4)), "RCinv", MachineConfig(nprocs=1))

    def test_factor_matches_numpy(self):
        app = Cholesky(grid=(5, 5))
        run_on(app, "RCadapt", CFG)
        want = np.linalg.cholesky(app.a.dense())
        assert np.allclose(app.computed_factor(), want, atol=1e-8)

    def test_verification_catches_corruption(self):
        app = Cholesky(grid=(3, 3))
        run_on(app, "RCinv", CFG)
        app.lvals.poke(0, 1e9)
        with pytest.raises(AssertionError):
            app.verify()


class TestBarnesHut:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(BarnesHut(n_bodies=16, steps=2), system, CFG)

    def test_rotation_epochs(self):
        # 6 steps with rotation every 2: three different assignments
        run_on(BarnesHut(n_bodies=16, steps=6, boost_interval=2), "RCinv", CFG)

    def test_no_boost(self):
        run_on(BarnesHut(n_bodies=12, steps=3, boost_interval=0), "RCupd", CFG)

    def test_bodies_not_divisible_by_procs(self):
        run_on(BarnesHut(n_bodies=13, steps=2), "RCinv", CFG)

    def test_single_step(self):
        run_on(BarnesHut(n_bodies=8, steps=1), "RCcomp", CFG)

    def test_verification_catches_corruption(self):
        app = BarnesHut(n_bodies=8, steps=1)
        run_on(app, "RCinv", CFG)
        app.px.poke(0, 1e9)
        with pytest.raises(AssertionError):
            app.verify()

    @pytest.mark.parametrize("array", ["px", "vx"])
    def test_memoised_reference_still_catches_corruption(self, monkeypatch, array):
        monkeypatch.setattr(barneshut, "_REFERENCE_MEMO", {})
        calls = []
        real = barneshut.force_reference
        monkeypatch.setattr(
            barneshut, "force_reference", lambda *a: calls.append(1) or real(*a)
        )
        run_on(BarnesHut(n_bodies=8, steps=2), "RCinv", CFG)
        computed = len(calls)
        app = BarnesHut(n_bodies=8, steps=2)
        run_on(app, "RCupd", CFG)
        assert computed > 0 and len(calls) == computed  # second verify hit the memo
        getattr(app, array).poke(3, getattr(app, array).peek(3) + 1e-3)
        with pytest.raises(AssertionError):
            app.verify()
        assert len(calls) == computed

    def test_reference_memo_keys_every_input(self, monkeypatch):
        bodies = uniform_disc(24, seed=3)
        base = dict(bodies=bodies, steps=3, dt=0.02, theta=0.5, eps=0.05)
        heavier = BodySet(bodies.pos, bodies.vel, bodies.mass.copy())
        heavier.mass[0] *= 2.0
        changes = [
            {"bodies": heavier},
            {"steps": 4},
            {"dt": 0.03},
            {"theta": 1.0},
            {"eps": 0.1},
        ]
        for change in changes:
            monkeypatch.setattr(barneshut, "_REFERENCE_MEMO", {})
            want_base = reference_run(**base)
            got = reference_run(**{**base, **change})
            assert len(barneshut._REFERENCE_MEMO) == 2
            assert not np.array_equal(got[0], want_base[0]), change
            monkeypatch.setattr(barneshut, "_REFERENCE_MEMO", {})
            fresh = reference_run(**{**base, **change})
            np.testing.assert_array_equal(got[0], fresh[0])
            np.testing.assert_array_equal(got[1], fresh[1])

    def test_reference_is_read_only(self, monkeypatch):
        monkeypatch.setattr(barneshut, "_REFERENCE_MEMO", {})
        pos, vel = reference_run(uniform_disc(8), 1, 0.02, 0.5, 0.05)
        for arr in (pos, vel):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_reference_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(barneshut, "_REFERENCE_MEMO", {})
        bound = barneshut._REFERENCE_MEMO_MAX
        bodies = uniform_disc(4)
        dts = [0.01 * (k + 1) for k in range(bound + 3)]
        for dt in dts:
            reference_run(bodies, 1, dt, 0.5, 0.05)
            assert len(barneshut._REFERENCE_MEMO) <= bound
        kept = {key[1] for key in barneshut._REFERENCE_MEMO}  # key = (steps, dt, ...)
        assert kept == set(dts[-bound:])

    def test_force_memo_serves_a_second_system_at_20_steps(self, monkeypatch):
        calls = []
        real = barneshut.force_and_cost
        monkeypatch.setattr(
            barneshut, "force_and_cost", lambda *a: calls.append(1) or real(*a)
        )
        monkeypatch.setattr(barneshut, "_FORCE_MEMO", {})
        results, computed = {}, {}
        for system in ("RCinv", "RCupd"):
            before = len(calls)
            results[system] = run_on(BarnesHut(n_bodies=32, steps=20), system, CFG)
            computed[system] = len(calls) - before
        assert computed == {"RCinv": 32 * 20, "RCupd": 0}
        for system, shared in results.items():
            monkeypatch.setattr(barneshut, "_FORCE_MEMO", {})
            assert run_on(BarnesHut(n_bodies=32, steps=20), system, CFG) == shared


class TestMaxflow:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(Maxflow(n=12, extra_edges=18, seed=1), system, CFG)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed):
        app = Maxflow(n=14, extra_edges=20, seed=seed)
        run_on(app, "RCinv", CFG)
        assert app.flow_value() == reference_max_flow(app.net)

    def test_single_processor(self):
        run_on(Maxflow(n=10, extra_edges=12, seed=2), "RCinv", MachineConfig(nprocs=1))

    def test_flow_conservation_everywhere(self):
        app = Maxflow(n=16, extra_edges=24, seed=5)
        run_on(app, "RCupd", CFG)
        net = app.net
        for v in range(net.n):
            inflow = sum(app.flow.peek(int(e)) for e in net.adj[v])
            if v == net.source:
                assert inflow > 0 or app.flow_value() == 0
            elif v == net.sink:
                assert inflow == -app.flow_value()

    def test_backbone_only_graph(self):
        run_on(Maxflow(n=8, extra_edges=0, seed=3), "RCinv", CFG)

    def test_verification_catches_corruption(self):
        app = Maxflow(n=10, extra_edges=12, seed=1)
        run_on(app, "RCinv", CFG)
        app.excess.poke(app.net.sink, 10**9)
        with pytest.raises(AssertionError):
            app.verify()
