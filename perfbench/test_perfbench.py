"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

They run real children, so they take about half a minute.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402


def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def harness(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_harness_names():
    bench = spec()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_printed_metrics_match_benchmark_json():
    bench = spec()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = harness("--workload", "pmcat-audit", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in bench[key]}


def test_seed_fixes_corruptions_and_each_is_flagged():
    from emergent import check_partially_monoidal, extract_instance, load_theory

    clean = {name: extract_instance(load_theory(wl.fixture(name))[0]) for name in ("s4", "s3_diagonal")}
    planted = wl.plant(clean, 11)
    assert planted == wl.plant(clean, 11)
    assert planted != wl.plant(clean, 12)
    assert len(planted) == len(clean) * len(wl.CORRUPTIONS) * wl.PER_KIND
    for name, inst in clean.items():
        assert check_partially_monoidal(inst) == ()
    for name, kind, key, value in planted:
        bad = wl.corrupt(clean[name], kind, key, value)
        assert bad != clean[name]
        assert wl.CORRUPTIONS[kind] in {v.kind for v in check_partially_monoidal(bad)}


def test_speed_gauge_scales_by_the_reference_loop_around_and_during_operations(monkeypatch):
    loop = [2 * wl.REFERENCE_S]
    monkeypatch.setattr(wl, "reference_time", lambda: loop[0])
    gauge = wl.SpeedGauge()
    # The loop ran at half the reference speed throughout: half the time.
    assert gauge.scale(0.0, 3.0) == pytest.approx((1.5, 3.0))
    start = time.perf_counter()
    gauge.sample()
    loop[0] = wl.REFERENCE_S
    scaled, raw = gauge.scale(start, start + 3.0)
    # The loop timed during the operation is taken out of its time, and
    # the scale is the loop's mean over before, during and after.
    assert raw == pytest.approx(3.0 - 2 * wl.REFERENCE_S)
    n = wl.BETWEEN_SAMPLES
    assert scaled == pytest.approx(raw * (2 * n + 1) / (2 * (n + 1) + n))


def test_tampered_golden_digest_raises_fail_frac():
    golden = json.loads(run.GOLDEN.read_text())
    op = wl.op_id(wl.CLI_OPS["check-small"][-1])
    golden["ops"][op]["sha256"] = "0" * 64
    out = io.StringIO()
    result = run.run("check-small", 0, 0.1, False, golden, out=out)
    assert result["failed"] == 1 and not result["correct"]
    fail_frac = next(line for line in out.getvalue().splitlines() if line.startswith("fail_frac"))
    assert float(fail_frac.split()[1]) == pytest.approx(1 / result["attempted"], rel=1e-5)


def test_refuses_a_directory_without_the_engine(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (bench_dir / "golden.json").write_text(run.GOLDEN.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-27", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_golden_records_the_invalid_fixture_exit_codes():
    golden = json.loads(run.GOLDEN.read_text())["ops"]
    expected = {"bad_permutation": 2, "bad_syntax": 2, "not_centreless": 2, "not_transitive": 2, "s3_capped": 3}
    for name, code in expected.items():
        assert golden[f"check --input fixtures/{name}.json"]["exit"] == code
