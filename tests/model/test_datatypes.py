"""Primitive data types (§2): parsing and conformance."""

import datetime

import pytest

from repro.model.datatypes import DataType, conforms, default_value
from repro.model.oids import OID


class TestParse:
    def test_all_six_types_parse(self):
        for name in ("boolean", "integer", "real", "character", "string", "date"):
            assert DataType.parse(name).value == name

    def test_parse_is_case_insensitive(self):
        assert DataType.parse("STRING") is DataType.STRING

    def test_parse_strips_whitespace(self):
        assert DataType.parse("  integer ") is DataType.INTEGER

    def test_unknown_type_lists_valid_ones(self):
        with pytest.raises(ValueError, match="boolean.*string"):
            DataType.parse("float")


class TestConforms:
    def test_none_conforms_to_every_type(self):
        for data_type in DataType:
            assert conforms(None, data_type)

    def test_boolean(self):
        assert conforms(True, DataType.BOOLEAN)
        assert not conforms(1, DataType.BOOLEAN)

    def test_integer_rejects_bool(self):
        # bool is an int subclass in Python; the model keeps them apart.
        assert conforms(3, DataType.INTEGER)
        assert not conforms(True, DataType.INTEGER)

    def test_real_accepts_int_and_float_but_not_bool(self):
        assert conforms(2.5, DataType.REAL)
        assert conforms(2, DataType.REAL)
        assert not conforms(True, DataType.REAL)

    def test_character_is_single_char(self):
        assert conforms("x", DataType.CHARACTER)
        assert not conforms("xy", DataType.CHARACTER)

    def test_string(self):
        assert conforms("hello", DataType.STRING)
        assert not conforms(42, DataType.STRING)

    def test_an_oid_is_not_a_string(self):
        # OID subclasses str; it is still an identifier, not a value
        oid = OID("a", "s", "d", "r", 1)
        for data_type in DataType:
            assert not conforms(oid, data_type)

    def test_date(self):
        assert conforms(datetime.date(1999, 3, 23), DataType.DATE)
        assert not conforms("1999-03-23", DataType.DATE)


class TestDefaults:
    def test_every_default_conforms_to_its_type(self):
        for data_type in DataType:
            assert conforms(default_value(data_type), data_type)
