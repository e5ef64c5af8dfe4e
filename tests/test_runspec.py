"""Tests for the declarative run schema (:class:`repro.runspec.RunSpec`).

One list of run options feeds the ``repro run`` flags, sweep points and
``POST /run`` bodies; the library path raises :class:`PointConfigError`
and never ``SystemExit``.
"""

import dataclasses
import json

import pytest

from repro.campaign import PointConfigError, normalize_point, run_point
from repro.cli import build_parser, main, simulate_from_args
from repro.runspec import RunSpec
from repro.stats import result_to_dict

BASE = {"topology": "Ring(4)", "bandwidths": "100",
        "workload": "allreduce", "payload_mib": 1}
SPEC_FIELDS = {f.name for f in dataclasses.fields(RunSpec)}
RUN_OUTPUT_FLAGS = {"collectives", "json_out", "chrome_trace", "timeline",
                    "sim_rate", "metrics_out"}


def parse_run(*flags):
    return build_parser().parse_args(["run", *flags])


class TestSchema:
    def test_run_flags_are_the_spec_fields_plus_outputs(self):
        args = parse_run("--topology", "Ring(4)", "--bandwidths", "100")
        options = set(vars(args)) - {"command", "func"}
        assert options == SPEC_FIELDS | RUN_OUTPUT_FLAGS

    def test_cli_defaults_are_the_spec_defaults(self):
        args = parse_run("--topology", "Ring(4)", "--bandwidths", "100")
        assert RunSpec.from_args(args) == RunSpec(topology="Ring(4)",
                                                  bandwidths="100")

    def test_normalized_point_has_every_field(self):
        assert set(normalize_point(BASE)) == SPEC_FIELDS

    def test_bad_choice_is_a_typed_error(self):
        with pytest.raises(PointConfigError, match="scheduler"):
            RunSpec(topology="Ring(4)", bandwidths="100", scheduler="nope")


#: One library-path failure per error class: (point, message fragment).
LIBRARY_ERRORS = {
    "bandwidth-count": (dict(BASE, topology="Ring(4)_Switch(2)"),
                        "1 value"),
    "mp-not-dividing": (dict(BASE, topology="Ring(4)_Switch(2)",
                             bandwidths="100,50", workload="gpt3", mp=3),
                        "--mp 3 does not divide"),
    "model-and-model-json": (dict(BASE, model="llama3-8b",
                                  model_json="x.json"),
                             "mutually exclusive"),
    "faults-off-analytical": (dict(BASE, backend="flow",
                                   faults="straggler@npu1:2x@t=0"),
                              "analytical"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_path_raises_point_config_error(case):
    point, message = LIBRARY_ERRORS[case]
    with pytest.raises(PointConfigError, match=message):
        run_point(point)
    with pytest.raises(PointConfigError, match=message):
        RunSpec(**normalize_point(point)).simulate()


class TestPointFields:
    def test_folding_axis_gives_identical_results(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--topology", "Ring(4)_Switch(2)",
                     "--bandwidths", "100,50", "--workload", "allreduce",
                     "--payload-mib", "1", "--grid", "folding=auto|off",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        auto, off = json.loads(out.read_text())["points"]
        assert (auto["config"]["folding"], off["config"]["folding"]) == (
            "auto", "off")
        assert auto["result"] == off["result"]

    def test_strict_invariants_is_a_point_field(self):
        point = normalize_point(dict(BASE, check_invariants="true",
                                     strict_invariants="yes"))
        assert point["strict_invariants"] is True
        assert run_point(point)["invariants"]["ok"] is True


@pytest.mark.xfail(strict=True, reason=(
    "sweep points and POST /run bodies keep bandwidths/latencies to 6 "
    "significant digits (format 'g'), repro run keeps them exact; both "
    "sides are pinned by the benchmark's recorded digests"))
def test_cli_and_point_agree_on_unrounded_latencies():
    flags = {"topology": "Ring(8)", "bandwidths": "83",
             "latencies": "602.409639", "workload": "allreduce",
             "scheduler": "baseline", "payload_mib": "32"}
    args = parse_run(*[item for name, value in flags.items()
                       for item in ("--" + name.replace("_", "-"), value)])
    _topology, result, _resilience = simulate_from_args(args)
    assert run_point(flags) == result_to_dict(result)
