"""Tests for mapping JSON serialization."""

import pytest

from repro.mapper import ILPMapper, ILPMapperOptions, verify
from repro.mapper.serialize import MappingFormatError, mapping_from_json, mapping_to_json


@pytest.fixture
def mapped(tiny_dfg, mrrg_2x2_ii1):
    result = ILPMapper(ILPMapperOptions(time_limit=120)).map(
        tiny_dfg, mrrg_2x2_ii1
    )
    assert result.mapping is not None
    return result.mapping


def test_round_trip(mapped, tiny_dfg, mrrg_2x2_ii1):
    text = mapping_to_json(mapped)
    again = mapping_from_json(text, tiny_dfg, mrrg_2x2_ii1)
    assert again.placement == mapped.placement
    assert again.routes == mapped.routes
    assert verify(again, strict_operands=True) == []


def test_wrong_dfg_rejected(mapped, fanout_dfg, mrrg_2x2_ii1):
    text = mapping_to_json(mapped)
    with pytest.raises(MappingFormatError, match="is for DFG"):
        mapping_from_json(text, fanout_dfg, mrrg_2x2_ii1)


def test_wrong_ii_rejected(mapped, tiny_dfg, mrrg_2x2_ii2):
    text = mapping_to_json(mapped)
    with pytest.raises(MappingFormatError, match="II="):
        mapping_from_json(text, tiny_dfg, mrrg_2x2_ii2)


def test_malformed_json_rejected(tiny_dfg, mrrg_2x2_ii1):
    with pytest.raises(MappingFormatError, match="invalid JSON"):
        mapping_from_json("{not json", tiny_dfg, mrrg_2x2_ii1)


def test_unknown_node_rejected(mapped, tiny_dfg, mrrg_2x2_ii1):
    text = mapping_to_json(mapped).replace(
        list(mapped.placement.values())[0], "ghost:node"
    )
    with pytest.raises(MappingFormatError):
        mapping_from_json(text, tiny_dfg, mrrg_2x2_ii1)


def test_version_checked(mapped, tiny_dfg, mrrg_2x2_ii1):
    text = mapping_to_json(mapped).replace('"format": 1', '"format": 99')
    with pytest.raises(MappingFormatError, match="unsupported"):
        mapping_from_json(text, tiny_dfg, mrrg_2x2_ii1)
