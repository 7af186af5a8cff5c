import pytest

import faultscope as fs
from faultscope import GenerationError


class TestGenEr:
    def test_deterministic(self):
        a = fs.gen_er(9, 0.4, seed=7)
        b = fs.gen_er(9, 0.4, seed=7)
        assert a.topology == b.topology
        assert a.retries == b.retries

    def test_seed_varies(self):
        assert fs.gen_er(9, 0.4, seed=7).topology != fs.gen_er(9, 0.4, seed=8).topology

    def test_always_connected(self):
        for seed in range(10):
            assert fs.gen_er(8, 0.3, seed=seed).topology.is_connected()

    def test_certain_edge(self):
        t = fs.gen_er(2, 1.0, seed=0).topology
        assert t.nodes == ("n0", "n1")
        assert len(t.edges) == 1

    def test_density_tracks_p(self):
        # 190 candidate pairs at p = 51/190; connectivity conditioning
        # pushes the mean a little above 51
        mean = sum(len(fs.gen_er(20, 51 / 190, seed=s).topology.edges) for s in range(30)) / 30
        assert 48 < mean < 57

    def test_gives_up(self):
        with pytest.raises(GenerationError):
            fs.gen_er(12, 0.02, seed=1)

    @pytest.mark.parametrize("n,p", [(1, 0.5), (3, 0.0), (3, 1.5)])
    def test_bad_arguments(self, n, p):
        with pytest.raises(ValueError):
            fs.gen_er(n, p, seed=0)

    def test_bad_p_named_with_its_value(self):
        with pytest.raises(ValueError, match=r"edge probability p must be in \(0, 1\], got 0\.0$"):
            fs.gen_er(5, 0.0, seed=1)
        with pytest.raises(ValueError, match=r"edge probability p must be in \[0, 1\], got 1\.5$"):
            fs.random_graph(5, 1.5, seed=1)

    def test_node_cap_refused_before_any_label(self, monkeypatch):
        def never(n):
            raise AssertionError("node labels built past the node cap")

        monkeypatch.setattr("faultscope.randomnet._node_labels", never)
        cap = fs.randomnet.DEFAULT_MAX_NODES
        with pytest.raises(ValueError, match=f"node count n must be in 2..{cap}, got {cap + 1}"):
            fs.gen_er(cap + 1, 0.5, seed=1)
        with pytest.raises(ValueError, match=f"node count n must be in 1..{cap}, got {cap + 1}"):
            fs.random_graph(cap + 1, 0.5, seed=1)

    def test_no_monitors_yet(self):
        assert fs.gen_er(5, 0.9, seed=0).topology.monitors == frozenset()


@pytest.fixture(scope="module")
def base() -> fs.Topology:
    return fs.gen_er(9, 0.4, seed=7).topology


class TestPlaceMonitors:
    def test_deterministic(self, base):
        a = fs.place_monitors(base, 3, seed=1)
        assert a == fs.place_monitors(base, 3, seed=1)
        assert a.mu == 3
        assert a.monitors <= set(base.nodes)

    def test_seed_varies(self, base):
        a = fs.place_monitors(base, 3, seed=1)
        b = fs.place_monitors(base, 3, seed=2)
        assert a.monitors != b.monitors

    def test_all_monitors(self, base):
        assert fs.place_monitors(base, 9, seed=0).sigma == 0

    @pytest.mark.parametrize("mu", [0, 10])
    def test_range(self, base, mu):
        with pytest.raises(ValueError, match=rf"monitor count mu must be in 1\.\.9, got {mu}$"):
            fs.place_monitors(base, mu, seed=0)


class TestRandomGraph:
    def test_deterministic(self):
        assert fs.random_graph(6, 0.3, seed=4) == fs.random_graph(6, 0.3, seed=4)

    def test_may_be_disconnected(self):
        g = fs.random_graph(8, 0.12, seed=0)
        assert not g.is_connected()
