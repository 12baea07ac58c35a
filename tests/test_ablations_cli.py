"""Tests for the design-choice ablations, the DoS special case, and the CLI."""

import pytest

from repro.core.access_path import ZERO_PATH
from repro.core.tag import Tag
from repro.experiments import Scenario, run_scenario
from repro.ndn.cs import ContentStore
from repro.ndn.name import Name
from repro.ndn.node import Node
from repro.ndn.packets import Data, Interest

from tests.conftest import build_mini_net


class Probe(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, cs_capacity=0)
        self.datas = []

    def on_data(self, data, in_face):
        self.datas.append(data)


# ----------------------------------------------------------------------
# NACK-carries-content vs drop-only (the paper's Protocol 3 choice)
# ----------------------------------------------------------------------
class TestNackAblation:
    def aggregated_pair(self, nack_carries_content):
        from repro.core.config import TacticConfig
        from repro.crypto.cost_model import ZERO_COST_MODEL

        net = build_mini_net(
            TacticConfig(
                cost_model=ZERO_COST_MODEL,
                nack_carries_content=nack_carries_content,
            )
        )
        good = Probe(net.sim, "good")
        bad = Probe(net.sim, "bad")
        for probe in (good, bad):
            net.network.add_node(probe, routable=False)
            net.network.connect(probe, net.core1, bandwidth_bps=500e6, latency=0.001)
        net.provider.directory.enroll("good", 3)
        good_tag = net.provider.issue_tag_direct("good", ZERO_PATH)
        forged = Tag(
            provider_key_locator=good_tag.provider_key_locator,
            client_key_locator="/bad/KEY/pub",
            access_level=3,
            access_path=ZERO_PATH,
            expiry=good_tag.expiry,
            signature=b"f" * 32,
        )
        name = Name("/prov-0/obj-0/chunk-0")
        # The forged request goes FIRST (becomes the primary the
        # content router/origin validates); the good one aggregates.
        net.sim.schedule(0.0, bad.faces[0].send, Interest(name=name, tag=forged, flag_f=0.0))
        net.sim.schedule(0.0001, good.faces[0].send, Interest(name=name, tag=good_tag, flag_f=0.0))
        net.run(until=10.0)
        return good, bad

    def test_nack_with_content_saves_aggregated_valid_request(self):
        good, bad = self.aggregated_pair(nack_carries_content=True)
        assert len(good.datas) == 1 and good.datas[0].nack is None
        assert bad.datas == [] or all(d.nack is not None for d in bad.datas)

    def test_drop_only_starves_aggregated_valid_request(self):
        good, bad = self.aggregated_pair(nack_carries_content=False)
        # The paper's rationale, demonstrated by its absence: with
        # drop-only, the invalid primary kills the whole PIT entry and
        # the valid aggregated requester gets nothing.
        assert good.datas == []
        assert bad.datas == []


# ----------------------------------------------------------------------
# Section 6.B: the malicious-provider short-expiry DoS
# ----------------------------------------------------------------------
class TestShortExpiryDos:
    def test_tag_churn_bounded_and_service_survives(self):
        # "a malicious content provider can orchestrate a network DoS
        # attack by adjusting its tags validity to a short period (e.g.,
        # one second) ... However, obtaining a fresh tag only requires
        # one request per client" — a low-rate DoS.
        result = run_scenario(
            Scenario.paper_topology(1, duration=12.0, seed=3, scale=0.2).with_config(
                tag_expiry=1.0
            )
        )
        q, r = result.tag_rates()
        clients = len(result.clients)
        # One refresh per client per provider-in-use per second, bounded
        # by clients * providers.
        assert q <= clients * len(result.providers) * 1.1
        # Content retrieval still dwarfs registration traffic...
        content_rate = result.metrics.total_requested(False) / result.config.duration
        assert content_rate > 20 * q
        # ...and clients barely notice.
        assert result.client_delivery_ratio() > 0.97


# ----------------------------------------------------------------------
# Content-store eviction policies
# ----------------------------------------------------------------------
class TestCsPolicies:
    def fill(self, policy):
        cs = ContentStore(capacity=3, policy=policy)
        for i in range(3):
            cs.insert(Data(name=Name(f"/a/{i}")))
        return cs

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ContentStore(capacity=3, policy="random")

    def test_fifo_ignores_recency(self):
        cs = self.fill("fifo")
        cs.lookup("/a/0")  # would refresh under LRU
        cs.insert(Data(name=Name("/a/3")))
        assert cs.lookup("/a/0") is None  # evicted despite the hit
        assert cs.lookup("/a/1") is not None

    def test_lru_respects_recency(self):
        cs = self.fill("lru")
        cs.lookup("/a/0")
        cs.insert(Data(name=Name("/a/3")))
        assert cs.lookup("/a/0") is not None
        assert cs.lookup("/a/1") is None

    def test_lfu_keeps_hot_entries(self):
        cs = self.fill("lfu")
        for _ in range(5):
            cs.lookup("/a/2")
        cs.insert(Data(name=Name("/a/3")))  # evicts a cold entry
        assert cs.lookup("/a/2") is not None
        cs.insert(Data(name=Name("/a/4")))
        assert cs.lookup("/a/2") is not None

    def test_hit_ratio(self):
        cs = self.fill("lru")
        cs.lookup("/a/0")
        cs.lookup("/missing")
        assert cs.hit_ratio() == pytest.approx(0.5)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_protocols_agnostic_to_policy(self, policy):
        # TACTIC's outcomes must not depend on the eviction policy.
        result = run_scenario(
            Scenario.paper_topology(1, duration=6.0, seed=4, scale=0.15).with_config(
                cs_policy=policy
            )
        )
        assert result.client_delivery_ratio() > 0.98
        assert result.attacker_delivery_ratio() < 0.01


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for artifact in ("fig5", "fig8", "table4", "table5"):
            assert artifact in out

    def test_table4_run(self, capsys):
        from repro.__main__ import main

        code = main(
            ["table4", "--duration", "3", "--scale", "0.15", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "Topo 1" in out

    def test_fig7_run(self, capsys):
        from repro.__main__ import main

        assert main(["fig7", "--duration", "3", "--scale", "0.15"]) == 0
        assert "Fig. 7" in capsys.readouterr().out

    def test_fig6_multi_topology(self, capsys):
        from repro.__main__ import main

        code = main(
            ["fig6", "--topologies", "1", "2", "--duration", "3", "--scale", "0.15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Topo 1" in out and "Topo 2" in out

    def test_fig8_run(self, capsys):
        from repro.__main__ import main

        assert main(["fig8", "--duration", "3", "--scale", "0.15"]) == 0
        assert "Fig. 8" in capsys.readouterr().out

    def test_table5_run(self, capsys):
        from repro.__main__ import main

        assert main(["table5", "--duration", "3", "--scale", "0.15"]) == 0
        assert "Table V" in capsys.readouterr().out

    def test_bad_artifact_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_malformed_repro_jobs_exits_two(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(SystemExit) as exc:
            main(["fig7", "--duration", "1", "--scale", "0.1"])
        assert exc.value.code == 2
        assert "REPRO_JOBS='four'" in capsys.readouterr().err
