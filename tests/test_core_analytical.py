"""Tests for the closed-form performance model, incl. cross-validation
against the discrete-event simulator."""

import pytest

import repro.hivemind.averager as averager
from repro.core import predict
from repro.hivemind import HivemindRunConfig, PeerSpec, run_hivemind
from repro.network import build_topology


def make_peers(counts, gpu="t4"):
    peers = []
    for location, n in counts.items():
        for i in range(n):
            peers.append((f"{location}/{i}", gpu))
    return peers


class TestSinglePeer:
    def test_single_peer_is_the_baseline(self):
        topo = build_topology({"gc:us": 1})
        prediction = predict("conv", make_peers({"gc:us": 1}), topo)
        assert prediction.throughput_sps == pytest.approx(80.0)
        assert prediction.transfer_s == 0.0
        assert prediction.granularity == float("inf")


class TestPaperAnchors:
    """The analytical model must land near the paper's headline numbers."""

    @pytest.mark.parametrize("counts,model,expected,tolerance", [
        ({"gc:us": 8}, "conv", 261.9, 0.15),            # A-8 CV
        ({"gc:us": 8}, "rxlm", 575.1, 0.15),            # A-8 NLP
        ({"gc:us": 2}, "conv", 70.1, 0.15),             # A-2 CV
        ({"gc:us": 2}, "rxlm", 211.4, 0.15),            # A-2 NLP
        ({"gc:us": 4}, "conv", 140.4, 0.15),            # A-4 CV
        ({"gc:us": 1, "gc:eu": 1}, "conv", 68.4, 0.15),     # B-2 CV
        ({"gc:us": 1, "gc:eu": 1}, "rxlm", 177.3, 0.20),    # B-2 NLP
        ({"gc:us": 2, "gc:eu": 2}, "conv", 135.8, 0.15),    # B-4 CV
    ])
    def test_throughput_anchor(self, counts, model, expected, tolerance):
        topo = build_topology(counts)
        prediction = predict(model, make_peers(counts), topo)
        assert prediction.throughput_sps == pytest.approx(expected,
                                                          rel=tolerance)

    def test_a10_anchors(self):
        topo = build_topology({"lambda:us-west": 8})
        peers = make_peers({"lambda:us-west": 8}, gpu="a10")
        cv = predict("conv", peers, topo)
        nlp = predict("rxlm", peers, topo)
        assert cv.throughput_sps == pytest.approx(620.6, rel=0.15)
        assert nlp.throughput_sps == pytest.approx(1059.9, rel=0.15)

    def test_granularity_anchors(self):
        """CONV 21.6 and RXLM 4.2 on 2xA10 at TBS 32K (Figure 4)."""
        topo = build_topology({"lambda:us-west": 2})
        peers = make_peers({"lambda:us-west": 2}, gpu="a10")
        assert predict("conv", peers, topo).granularity == pytest.approx(
            21.6, rel=0.25
        )
        assert predict("rxlm", peers, topo).granularity == pytest.approx(
            4.2, rel=0.35
        )


REGIONS = ("gc:us", "gc:eu", "gc:asia", "gc:aus")

# 1, 2 and 4 regions x 4 and 8 T4 peers split evenly x CONV and RXLM
# (4 regions x 4 peers is one peer per continent), plus a heterogeneous
# RTX8000 + 4xT4 hybrid.
GRID = [
    ({location: peers // regions for location in REGIONS[:regions]}, model)
    for regions in (1, 2, 4)
    for peers in (4, 8)
    for model in ("conv", "rxlm")
] + [({"onprem:eu": 1, "gc:eu": 4}, "conv")]

# The simulator tracks the prediction to within 1.4 % on this grid; a
# 5 % error in the averager's bytes moves granularity by 2.8-4.6 %.
REL = 0.02


def prediction_gaps(counts, model):
    """Relative gaps of the simulated run from the prediction, as
    ``(throughput, granularity)``."""
    topo = build_topology(counts)
    gpus = {"onprem:eu": "rtx8000"}
    peers = [(f"{location}/{i}", gpus.get(location, "t4"))
             for location, n in counts.items() for i in range(n)]
    prediction = predict(model, peers, topo)
    simulated = run_hivemind(HivemindRunConfig(
        model=model,
        peers=[PeerSpec(site, gpu) for site, gpu in peers],
        topology=topo,
        epochs=3,
        monitor_interval_s=None,
        account_data_loading=False,
    ))
    return (
        abs(simulated.throughput_sps / prediction.throughput_sps - 1.0),
        abs(simulated.granularity / prediction.granularity - 1.0),
    )


class TestCrossValidation:
    """The closed-form prediction is the oracle for ``run_hivemind``."""

    @pytest.mark.parametrize("counts,model", GRID)
    def test_simulator_matches_prediction(self, counts, model):
        throughput_gap, granularity_gap = prediction_gaps(counts, model)
        assert throughput_gap <= REL
        assert granularity_gap <= REL

    def test_grid_catches_inflated_averaging_bytes(self, monkeypatch):
        """The grid fails at every point when the averager ships 5 %
        more bytes than the model's payload."""
        real = averager.compressed_nbytes
        monkeypatch.setattr(averager, "compressed_nbytes",
                            lambda size, codec: 1.05 * real(size, codec))
        for counts, model in GRID:
            assert max(prediction_gaps(counts, model)) > REL, (counts, model)


class TestShape:
    def test_prediction_requires_peers(self):
        topo = build_topology({"gc:us": 1})
        with pytest.raises(ValueError):
            predict("conv", [], topo)

    @pytest.mark.parametrize("tbs", [0, -64])
    def test_prediction_rejects_batch_size_the_simulator_rejects(self, tbs):
        topo = build_topology({"gc:us": 4})
        with pytest.raises(ValueError, match="target_batch_size must be >= 1"):
            predict("conv", make_peers({"gc:us": 4}), topo,
                    target_batch_size=tbs)

    def test_fast_accumulation_gets_instability_penalty(self):
        topo = build_topology({"lambda:us-west": 8})
        peers = make_peers({"lambda:us-west": 8}, gpu="a10")
        fast = predict("rn18", peers, topo, target_batch_size=8192)
        assert fast.calc_s < 5.0
        assert fast.matchmaking_s > 5.0

    def test_epoch_decomposition(self):
        topo = build_topology({"gc:us": 4})
        p = predict("conv", make_peers({"gc:us": 4}), topo)
        assert p.epoch_s == pytest.approx(p.calc_s + p.comm_s)
        assert p.local_throughput_sps > p.throughput_sps
