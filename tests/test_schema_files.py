"""Published JSON Schemas stay in sync with what the tool emits and accepts."""
import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from rtakit.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACE_SCHEMA = json.loads((ROOT / "schema" / "trace.schema.json").read_text())
SCENARIO_SCHEMA = json.loads((ROOT / "schema" / "scenario.schema.json").read_text())


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_emitted_traces_validate_against_published_schema(tmp_path, name):
    # dubins holds an anchored and a static set, gcas a polytope.
    out = tmp_path / f"{name}.trace.json"
    assert main(["run", "--config", str(ROOT / "configs" / name), "--out", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), TRACE_SCHEMA)


def test_shipped_configs_validate_against_published_schema():
    for path in sorted((ROOT / "configs").glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), SCENARIO_SCHEMA)


def test_schema_rejects_wrong_shape():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"agents": {}}, TRACE_SCHEMA)
