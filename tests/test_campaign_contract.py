"""The campaign contract: one registry, two report shapes, one gate list
per campaign, one CLI.

Every campaign is ``run(seed, size) -> report`` / ``gates(report, size)
-> failures`` / ``verdict(report) -> str`` / a default output name; these
tests pin the contract itself, each campaign's gate list against a
doctored scorecard, and the CLI end to end on the four fast campaigns.
"""

import copy
import dataclasses
import json

import pytest

from repro.adversary import campaign as adversary
from repro.chaos import CampaignReport, RaceReport, collapse, flows, restart
from repro.chaos import routeobs
from repro.chaos.__main__ import build_parser, main
from repro.chaos.campaigns import CAMPAIGNS, SIZES, Campaign
from repro.chaos.faults import GatewayCrash, LinkFlap
from repro.chaos.monitors import InvariantMonitor, Violation
from repro.harness.presets import build_as_chain
from repro.harness.scaletopo import SMALL_RING
from repro.metrics.export import canonical_json
from repro.netmgmt import ManagementPlane


# ----------------------------------------------------------------------
# (a) The registry
# ----------------------------------------------------------------------
def test_registry_lists_eight_campaigns_behind_one_contract():
    assert sorted(CAMPAIGNS) == ["adversary", "collapse", "flows", "managed",
                                 "observed", "random", "restart", "routeobs"]
    for record in CAMPAIGNS.values():
        assert isinstance(record, Campaign)
        assert callable(record.run)
        assert callable(record.gates)
        assert callable(record.verdict)
        assert set(record.sizes) <= set(SIZES) and "full" in record.sizes
    outs = [record.out for record in CAMPAIGNS.values()]
    assert len(set(outs)) == len(outs)
    assert len(dataclasses.fields(Campaign)) == 5


def test_cli_choices_are_the_registry():
    actions = {a.dest: a for a in build_parser()._actions}
    assert actions["campaign"].choices == sorted(CAMPAIGNS)
    assert actions["campaign"].default in CAMPAIGNS
    flags = sorted(a.dest for a in actions.values() if a.dest != "help")
    assert flags == ["campaign", "out", "seed", "size"]


def test_one_small_ring_preset_feeds_both_sized_campaigns():
    sized = sorted(name for name, c in CAMPAIGNS.items() if "small" in c.sizes)
    assert sized == ["collapse", "routeobs"]
    cfg = collapse._leg_config(7, "fifo", mixed=True, size="small")
    for key, value in SMALL_RING.items():
        assert getattr(cfg, key) == value


# ----------------------------------------------------------------------
# (b) RaceReport folds over its legs
# ----------------------------------------------------------------------
def _stub_leg(name, *, violation=False, reconverged=True):
    fault = LinkFlap(0, 1.0, 2.0) if reconverged else GatewayCrash("G", 1.0, 2.0)
    fault.applied_at, fault.cleared_at = 1.0, 3.0
    fault.reconverged_at = 3.5 if reconverged else None
    monitor = InvariantMonitor()
    if violation:
        monitor.violations.append(Violation(2.0, monitor.name, "stub breach"))
    return CampaignReport(name, [fault], [monitor], {"leg": name})


def test_race_report_folds_ok_faults_and_counters_over_legs():
    bad = _stub_leg("first", violation=True)
    stuck = _stub_leg("second", reconverged=False)
    report = RaceReport("stub[seed=1]", {"first": bad, "second": stuck},
                        {"winner": "none"}, lambda r: [])
    assert not report.ok
    assert report.violation_count == 1
    assert not report.all_reconverged
    assert report.faults == bad.faults + stuck.faults
    assert report.counters == {"first": {"leg": "first"},
                               "second": {"leg": "second"}}
    assert set(report.to_dict()) == {"campaign", "legs", "scorecard"}
    assert list(report.to_dict()["legs"]) == ["first", "second"]
    assert report.to_json() == canonical_json(report.to_dict())
    assert report.to_json() == report.to_json()
    # Rendering: the campaign's tables, then each non-empty violation table.
    assert "stub breach" in report.render()
    assert "'second'" not in report.render()

    clean = RaceReport("stub", {"only": _stub_leg("only")}, {}, lambda r: [])
    assert clean.ok and clean.all_reconverged and clean.render() == ""


# ----------------------------------------------------------------------
# (c) Gate lists against doctored scorecards
# ----------------------------------------------------------------------
def _collapse_report(*, ratio=0.30, busy_mean=1.0, busy_min=0.99,
                     detected=True):
    def entry(aggregate, per_flow):
        return {"goodput_bps": {"aggregate": aggregate,
                                "conforming_per_flow_mean": per_flow},
                "bottleneck_busy": {"mean": busy_mean, "min": busy_min},
                "harm": {"misbehaving_duplicate_fraction": 0.99}}
    card = {"baseline": entry(1000.0, 100.0),
            "fifo": entry(1000.0 * ratio, 10.0),
            "red": entry(700.0, 60.0),
            "red_drr": entry(900.0, 95.0)}
    fifo_leg = CampaignReport("fifo", [], [], {"netmgmt": {"per_fault": [
        {"kind": "misbehaving-hosts", "detected": detected, "mttd": 6.0}]}})
    return RaceReport("collapse[stub]", {"fifo": fifo_leg}, card,
                      collapse.tables)


def test_collapse_depth_gates_apply_at_full_size_only():
    assert collapse.gates(_collapse_report(), "full") == []
    assert "collapse reproduced" in collapse.verdict(_collapse_report())
    shallow = _collapse_report(ratio=0.41)
    (failure,) = collapse.gates(shallow, "full")
    assert failure.startswith("no collapse")
    assert collapse.gates(shallow, "small") == []
    assert "collapse reproduced" not in collapse.verdict(shallow)


def test_collapse_busy_gate_reads_the_least_busy_bottleneck():
    # A mean of 0.96 would pass; one idle-ish bottleneck must not hide.
    (failure,) = collapse.gates(
        _collapse_report(busy_mean=0.96, busy_min=0.94), "full")
    assert "94.0% busy" in failure
    assert collapse.gates(
        _collapse_report(busy_mean=0.96, busy_min=0.94), "small") == []
    (failure,) = collapse.gates(_collapse_report(detected=False), "small")
    assert "never detected the collapse" in failure


def _flows_report(*, conversations_died=3):
    card = {"vc": {"conversations_died": conversations_died},
            "fifo": {"usable_saturation_pct": 60.0},
            "drr": {"usable_saturation_pct": 99.0,
                    "soft_state": {"reinstalled_within_interval": True}}}
    drr_leg = CampaignReport("drr", [], [], {"netmgmt": {
        "per_fault": [{"kind": "gateway-crash", "detected": True}],
        "reservation_loss": {"detected": True}}})
    return RaceReport("flows[stub]", {"drr": drr_leg}, card, flows.tables)


def test_flows_gate_requires_the_vc_conversation_to_die():
    # (The real seed-7 report passes the same list in test_flows_chaos.)
    assert flows.gates(_flows_report(), "full") == []
    (failure,) = flows.gates(_flows_report(conversations_died=0), "full")
    assert failure.startswith("VC conversation survived")


def test_adversary_gates_cover_fuzz_violations_and_broken_promotion():
    adversary_report = adversary.run_adversary_campaign(7)
    assert adversary_report.ok and adversary_report.all_reconverged
    assert list(adversary_report.legs) == ["byzantine"]
    assert adversary.gates(adversary_report, "full") == []
    assert "exchanges absorbed" in adversary.verdict(adversary_report)
    assert len(adversary_report.tables(adversary_report)) == 3

    doctored = copy.copy(adversary_report)
    doctored.scorecard = copy.deepcopy(adversary_report.scorecard)
    doctored.scorecard["fuzz"]["tcp"]["violations"].append("stub accept")
    doctored.scorecard["rollouts"]["egp_broken"]["promoted_at"] = 30.0
    assert adversary.gates(doctored, "full") == [
        "fuzz[tcp]: stub accept",
        "rollout[egp_broken]: broken config reached the fleet "
        "(promoted before rollback)"]
    # A fuzz violation is a gate failure, not an invariant violation.
    assert doctored.ok


def test_restart_gate_is_payload_integrity():
    report = restart.run_restart_campaign(7)
    assert restart.gates(report, "full") == []
    assert "payload intact" in restart.verdict(report)
    report.counters.update(payload_intact=False, payload_lost_bytes=400)
    (failure,) = restart.gates(report, "full")
    assert failure.startswith("payload corrupted — 400 byte(s) lost")


# ----------------------------------------------------------------------
# The dead MTTD gate (a plane that detected nothing has no MTTD)
# ----------------------------------------------------------------------
def test_undetected_faults_have_no_mttd():
    net = build_as_chain(2, seed=3, settle=10.0).net
    plane = ManagementPlane(net, station="H1")      # never started
    fault = GatewayCrash("I2", 12.0, 3.0)
    fault.applied_at, fault.cleared_at = 12.0, 15.0
    counters = plane.counters([fault])
    assert counters["detected_faults"] == 0
    assert counters["mttd_mean"] is None and counters["mttd_max"] is None


# ----------------------------------------------------------------------
# (d) The CLI, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,extra", [
    ("restart", []), ("observed", []), ("managed", []),
    ("routeobs", ["--size", "small"])])
def test_main_passes_writes_and_repeats_byte_identically(
        name, extra, tmp_path, capsys):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run / CAMPAIGNS[name].out
        out.parent.mkdir()
        assert main(["--campaign", name, "--seed", "7", "--out", str(out),
                     *extra]) == 0
        outs.append(out)
    assert "\nOK: " in capsys.readouterr().out
    assert outs[0].read_bytes() == outs[1].read_bytes()
    if name == "observed":
        spans = [out.with_name("obs-spans.jsonl") for out in outs]
        assert spans[0].read_bytes() == spans[1].read_bytes() != b""
    if name == "managed":
        station = json.loads(outs[0].read_text())["counters"]["station"]
        assert station["station"] == "H1" and station["alerts"]
    if name == "routeobs":
        # The real report passes its own gates; one undetected fault, and
        # a leg with no detection at all, each fail exactly where expected.
        card = json.loads(outs[0].read_text())["scorecard"]
        report = RaceReport("routeobs", {}, card, routeobs.tables)
        assert routeobs.gates(report, "small") == []
        card["ring"]["detected_faults"] -= 1
        assert routeobs.gates(report, "small") == [
            "ring: only 2/3 faults detected"]
        card["diamond"].update(detected_faults=0, mttd_mean=None,
                               mttd_max=None)
        assert sorted(routeobs.gates(report, "small")) == [
            "diamond: no finite MTTD", "diamond: only 0/1 faults detected",
            "ring: only 2/3 faults detected"]


def test_main_fails_on_a_failed_gate(tmp_path, capsys, monkeypatch):
    failing = dataclasses.replace(
        CAMPAIGNS["restart"], gates=lambda report, size: ["stub gate"])
    monkeypatch.setitem(CAMPAIGNS, "restart", failing)
    out = tmp_path / "r.json"
    assert main(["--campaign", "restart", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "FAIL: stub gate" in captured.err
    assert "OK:" not in captured.out
    assert out.exists()


def test_size_is_rejected_where_no_small_shape_exists(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--campaign", "flows", "--size", "small",
              "--out", str(tmp_path / "f.json")])
    assert exit_info.value.code == 2
    assert "collapse, routeobs" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()
