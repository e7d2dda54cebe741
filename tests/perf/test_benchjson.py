"""Tests for the BENCH_*.json schema: write, validate, load."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    BenchResult,
    Metric,
    load_results_dir,
    validate_bench_result,
    write_bench_json,
)
from repro.perf.benchjson import bench_json_path


class TestWriteBenchJson:
    def test_writes_schema_valid_file(self, tmp_path):
        path = write_bench_json(
            "demo",
            {
                "elapsed_s": 1.25,
                "speedup": Metric(3.0, unit="x", higher_is_better=True,
                                  portable=True),
            },
            config={"scale": 0.1},
            directory=tmp_path,
        )
        assert path == bench_json_path(tmp_path, "demo")
        payload = json.loads(path.read_text())
        assert validate_bench_result(payload) == []
        assert payload["schema_version"] == 1
        assert payload["name"] == "demo"
        assert payload["config"] == {"scale": 0.1}
        # plain floats become lower-is-better seconds metrics
        elapsed = payload["metrics"]["elapsed_s"]
        assert elapsed == {
            "value": 1.25,
            "unit": "s",
            "higher_is_better": False,
            "portable": False,
        }
        assert payload["metrics"]["speedup"]["higher_is_better"] is True
        assert "python" in payload["env"]

    def test_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError, match="NaN"):
            write_bench_json(
                "bad", {"x": float("nan")}, directory=tmp_path
            )


class TestValidate:
    def _valid(self) -> dict:
        return json.loads(
            json.dumps(
                BenchResult(
                    name="ok",
                    metrics={"m": Metric(1.0)},
                    config={},
                ).to_dict()
            )
        )

    def test_valid_payload(self):
        assert validate_bench_result(self._valid()) == []

    def test_rejects_non_object(self):
        assert validate_bench_result([1, 2]) == [
            "payload is not a JSON object"
        ]

    def test_rejects_wrong_version(self):
        payload = self._valid()
        payload["schema_version"] = 99
        assert any("schema_version" in e for e in validate_bench_result(payload))

    def test_rejects_empty_metrics(self):
        payload = self._valid()
        payload["metrics"] = {}
        assert any("metrics" in e for e in validate_bench_result(payload))

    def test_rejects_bad_direction(self):
        payload = self._valid()
        payload["metrics"]["m"]["higher_is_better"] = "up"
        assert any(
            "higher_is_better" in e for e in validate_bench_result(payload)
        )

    def test_rejects_non_numeric_value(self):
        payload = self._valid()
        payload["metrics"]["m"]["value"] = "fast"
        assert any(".value" in e for e in validate_bench_result(payload))

    def test_rejects_missing_env_keys(self):
        payload = self._valid()
        payload["env"] = {"machine": "x86_64"}
        assert any("env" in e for e in validate_bench_result(payload))


class TestLoadResultsDir:
    def test_loads_and_reports_problems(self, tmp_path):
        write_bench_json("good", {"t": 1.0}, directory=tmp_path)
        (tmp_path / "BENCH_corrupt.json").write_text("{not json")
        (tmp_path / "BENCH_invalid.json").write_text(
            json.dumps({"schema_version": 1})
        )
        (tmp_path / "unrelated.json").write_text("{}")
        results, problems = load_results_dir(tmp_path)
        assert set(results) == {"good"}
        assert set(problems) == {"BENCH_corrupt.json", "BENCH_invalid.json"}
        assert any("unreadable" in e for e in problems["BENCH_corrupt.json"])

