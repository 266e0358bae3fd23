"""Unit tests for the measurement harnesses."""

import pytest

from repro.analysis import (
    anton_transfer_ns,
    bandwidth_efficiency,
    breakdown_162ns,
    latency_vs_hops,
    ping_pong_ns,
    render_series,
    render_table,
)
from repro.analysis.latency import _destination_for_hops
from repro.analysis.transfer import (
    half_bandwidth_payload,
    infiniband_transfer_ns,
    transfer_split_series,
)


def test_ping_pong_one_hop_is_162():
    assert ping_pong_ns((4, 4, 4), (1, 0, 0)) == pytest.approx(162.0)


def test_bidirectional_at_least_unidirectional():
    uni = ping_pong_ns((4, 4, 4), (1, 0, 0), bidirectional=False)
    bi = ping_pong_ns((4, 4, 4), (1, 0, 0), bidirectional=True)
    assert bi >= uni


def test_destination_path_matches_fig5():
    """Hops 1–4 along X, 5–8 add Y, 9–12 add Z."""
    assert _destination_for_hops((8, 8, 8), 3) == (3, 0, 0)
    assert _destination_for_hops((8, 8, 8), 6) == (4, 2, 0)
    assert _destination_for_hops((8, 8, 8), 12) == (4, 4, 4)
    with pytest.raises(ValueError):
        _destination_for_hops((8, 8, 8), 13)


def test_latency_vs_hops_monotone():
    pts = latency_vs_hops(shape=(4, 4, 4), rounds=2)
    lat = [p.uni_0b for p in pts]
    assert lat == sorted(lat)
    for p in pts:
        if p.hops > 0:  # intra-node writes never touch a torus link
            assert p.uni_256b > p.uni_0b


def test_breakdown_sums_to_headline():
    assert sum(v for _, v in breakdown_162ns()) == pytest.approx(162.0)


def test_anton_transfer_insensitive_to_message_count():
    """Fig. 7: Anton's 2 KB transfer grows modestly with message count."""
    t1 = anton_transfer_ns(2048, 1)
    t64 = anton_transfer_ns(2048, 64)
    assert t64 / t1 < 4.5  # paper shows ~3.5x at 64 messages
    assert t64 > t1


def test_infiniband_transfer_blows_up_with_message_count():
    t1 = infiniband_transfer_ns(2048, 1)
    t64 = infiniband_transfer_ns(2048, 64)
    assert t64 / t1 > 5.0


def test_transfer_series_cross_machine_gap():
    series = transfer_split_series(message_counts=(1, 16))
    for p in series:
        assert p.infiniband_ns > 4 * p.anton_4hop_ns > 4 * 0  # Anton wins
        assert p.anton_4hop_ns > p.anton_1hop_ns


def test_bandwidth_efficiency_50pct_near_28_bytes():
    """§III.D: ~28-byte messages reach 50% of max data bandwidth."""
    p50 = half_bandwidth_payload()
    assert 24 <= p50 <= 32
    assert bandwidth_efficiency(256) == pytest.approx(1.0)
    assert bandwidth_efficiency(p50) >= 0.5 > bandwidth_efficiency(p50 - 4)


def test_bandwidth_efficiency_validation():
    with pytest.raises(ValueError):
        bandwidth_efficiency(0)


def test_render_table():
    text = render_table("T", ["a", "b"], [[1, 2.5], [3, 4.0]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "2.50" in text


def test_render_series():
    text = render_series("S", "x", [1, 2], {"curve": [10.0, 20.0]})
    assert "curve" in text and "20.0" in text


def test_reduction_harness_small():
    from repro.analysis import measure_allreduce

    p = measure_allreduce((2, 2, 2))
    assert p.nodes == 8
    assert 0 < p.reduce0_us < p.reduce32_us


def test_butterfly_vs_dimension_ordered_small():
    from repro.analysis import butterfly_vs_dimension_ordered

    t_do, t_bf = butterfly_vs_dimension_ordered((4, 4, 4))
    assert t_do < t_bf


def test_cli_breakdown(capsys):
    from repro.__main__ import main

    assert main(["breakdown"]) == 0
    out = capsys.readouterr().out
    assert "162" in out


def test_cli_allreduce(capsys):
    from repro.__main__ import main

    assert main(["allreduce", "--shape", "2x2x2"]) == 0
    assert "8 (2x2x2)" in capsys.readouterr().out


def test_cli_bad_shape():
    import pytest as _pytest

    from repro.__main__ import main

    with _pytest.raises(SystemExit):
        main(["allreduce", "not-a-shape"])
