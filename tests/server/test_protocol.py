"""Tests for the JSON wire protocol payloads and selection edits."""

import pytest

from repro.model import AVPair, SelectionCriteria, Side
from repro.server.protocol import (
    ProtocolError,
    apply_edit,
    criteria_from_json,
    criteria_to_json,
    error_payload,
    step_to_json,
)


class TestCriteriaJson:
    def test_round_trip(self):
        criteria = SelectionCriteria.of(
            reviewer={"gender": "F", "age_group": "young"},
            item={"city": "NYC"},
        )
        assert criteria_from_json(criteria_to_json(criteria)) == criteria

    def test_root_round_trip(self):
        root = SelectionCriteria.root()
        payload = criteria_to_json(root)
        assert payload == {"reviewer": {}, "item": {}}
        assert criteria_from_json(payload) == root

    def test_none_is_root(self):
        assert criteria_from_json(None) == SelectionCriteria.root()

    def test_unknown_side_rejected(self):
        with pytest.raises(ProtocolError, match="unknown criteria side"):
            criteria_from_json({"robots": {"gender": "F"}})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            criteria_from_json([1, 2, 3])
        with pytest.raises(ProtocolError):
            criteria_from_json({"reviewer": "gender=F"})


class TestApplyEdit:
    @pytest.fixture
    def current(self):
        return SelectionCriteria.of(reviewer={"gender": "F"})

    def test_add(self, current):
        edited = apply_edit(
            current,
            {"add": {"side": "item", "attribute": "city", "value": "NYC"}},
        )
        assert AVPair(Side.ITEM, "city", "NYC") in edited
        assert AVPair(Side.REVIEWER, "gender", "F") in edited

    def test_drop(self, current):
        edited = apply_edit(
            current, {"drop": {"side": "reviewer", "attribute": "gender"}}
        )
        assert edited == SelectionCriteria.root()

    def test_drop_missing_rejected(self, current):
        with pytest.raises(ProtocolError, match="not part of the current"):
            apply_edit(current, {"drop": {"side": "item", "attribute": "city"}})

    def test_sql_replaces_one_side(self, current):
        edited = apply_edit(
            current,
            {
                "sql": {
                    "side": "reviewer",
                    "where": "gender = 'M' AND age_group = 'young'",
                }
            },
        )
        assert edited == SelectionCriteria.of(
            reviewer={"gender": "M", "age_group": "young"}
        )

    def test_sql_keeps_other_side(self):
        current = SelectionCriteria.of(item={"city": "NYC"})
        edited = apply_edit(
            current, {"sql": {"side": "reviewer", "where": "gender = 'F'"}}
        )
        assert AVPair(Side.ITEM, "city", "NYC") in edited
        assert AVPair(Side.REVIEWER, "gender", "F") in edited

    def test_sql_rejects_disjunction(self, current):
        with pytest.raises(ProtocolError, match="conjunctions"):
            apply_edit(
                current,
                {
                    "sql": {
                        "side": "reviewer",
                        "where": "gender = 'F' OR gender = 'M'",
                    }
                },
            )

    def test_full_criteria_replacement(self, current):
        edited = apply_edit(
            current, {"criteria": {"item": {"city": "Austin"}}}
        )
        assert edited == SelectionCriteria.of(item={"city": "Austin"})

    def test_exactly_one_edit_kind_required(self, current):
        with pytest.raises(ProtocolError, match="exactly one"):
            apply_edit(current, {})
        with pytest.raises(ProtocolError, match="exactly one"):
            apply_edit(
                current,
                {
                    "add": {"side": "item", "attribute": "city", "value": "NYC"},
                    "drop": {"side": "reviewer", "attribute": "gender"},
                },
            )

    def test_missing_fields_rejected(self, current):
        with pytest.raises(ProtocolError, match="missing field"):
            apply_edit(current, {"add": {"side": "item", "attribute": "city"}})
        with pytest.raises(ProtocolError, match="unknown side"):
            apply_edit(
                current,
                {"add": {"side": "x", "attribute": "city", "value": "NYC"}},
            )


class TestStepPayload:
    def test_step_shape(self, tiny_engine):
        session = tiny_engine.session()
        record = session.step(with_recommendations=True)
        payload = step_to_json(record)
        assert payload["index"] == 1
        assert payload["group_size"] == record.group_size
        assert payload["operation"] is None
        assert len(payload["maps"]) == len(record.result.selected)
        for rm_payload, rm in zip(payload["maps"], record.result.selected):
            assert rm_payload["dimension"] == rm.dimension
            assert rm_payload["n_subgroups"] == rm.n_subgroups
            assert len(rm_payload["subgroups"]) == rm.n_subgroups
            for sg in rm_payload["subgroups"]:
                assert sum(sg["counts"]) == sg["size"]
        numbers = [r["number"] for r in payload["recommendations"]]
        assert numbers == list(range(1, len(numbers) + 1))

    def test_payload_is_json_serialisable(self, tiny_engine):
        import json

        record = tiny_engine.session().step(with_recommendations=True)
        json.dumps(step_to_json(record))  # labels/values all coerced


class TestErrorPayload:
    def test_shape(self):
        payload = error_payload("nope", "went wrong")
        assert payload == {"error": {"code": "nope", "message": "went wrong"}}

