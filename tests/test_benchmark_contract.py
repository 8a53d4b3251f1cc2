"""The benchmark in perfbench/ reaches the program through fixed module
attributes: its traced replay swaps the functions named in
tracing.PATCH_POINTS for timing wrappers, and its workloads call a few
names bound in laneweave.cli. A binding that moves or disappears breaks
`--trace 1` runs, which only the slow perfbench self-test runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from laneweave import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CLI_NAMES = ("read_drive_log_csv", "format_profile_csv", "RunConfig", "_utc_now", "main")


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCH_POINTS


@pytest.mark.parametrize("module_name, attr", [point[:2] for point in _patch_points()])
def test_patch_point_resolves(module_name, attr):
    module = importlib.import_module(f"laneweave.{module_name}")
    assert callable(getattr(module, attr, None)), f"laneweave.{module_name}.{attr}"


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_binds_workload_name(name):
    assert hasattr(cli, name), f"laneweave.cli.{name}"
