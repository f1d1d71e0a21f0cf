"""Tests for the dependent type system."""

import pytest

from repro.arith import Cst, Var
from repro.types import (
    ArrayType,
    FLOAT,
    INT,
    ScalarType,
    TupleType,
    VectorType,
    array,
    element_count,
    float4,
    size_in_bytes,
)
from repro.types.dtypes import scalar_base


class TestScalar:
    def test_equality(self):
        assert FLOAT == ScalarType("float", 4)
        assert FLOAT != INT

    def test_repr(self):
        assert str(FLOAT) == "float"


class TestVector:
    def test_name(self):
        assert float4.name == "float4"

    def test_bad_width(self):
        with pytest.raises(ValueError):
            VectorType(FLOAT, 5)

    def test_size(self):
        assert size_in_bytes(float4) == Cst(16)


class TestTuple:
    def test_name_mangling(self):
        t = TupleType([FLOAT, FLOAT])
        assert t.name == "Tuple2_float_float"

    def test_requires_two(self):
        with pytest.raises(ValueError):
            TupleType([FLOAT])

    def test_size(self):
        assert size_in_bytes(TupleType([FLOAT, INT])) == Cst(8)


class TestArray:
    def test_symbolic_length(self):
        n = Var("N")
        t = ArrayType(FLOAT, n)
        assert str(t) == "[float]_N"

    def test_nested_helper(self):
        t = array(FLOAT, 4, 8)
        assert isinstance(t, ArrayType)
        assert t.length == Cst(4)
        assert isinstance(t.elem, ArrayType)
        assert t.elem.length == Cst(8)

    def test_equality_up_to_simplification(self):
        n = Var("N")
        a = ArrayType(FLOAT, n * 2)
        b = ArrayType(FLOAT, Cst(2) * n)
        assert a == b

    def test_split_length_algebra(self):
        # [float]_N split by 128: [[float]_128]_{N/128}
        n = Var("N")
        t = ArrayType(ArrayType(FLOAT, 128), n // 128)
        assert size_in_bytes(t) == (n // 128) * 128 * 4

    def test_element_count(self):
        assert element_count(array(FLOAT, 4, 8)) == Cst(32)
        assert element_count(array(float4, 8)) == Cst(32)

    def test_scalar_base(self):
        assert scalar_base(array(float4, 8)) == FLOAT
        with pytest.raises(TypeError):
            scalar_base(TupleType([FLOAT, INT]))


class TestNestedTuples:
    def test_a_tuple_of_a_tuple_and_an_array_is_named_counted_and_sized(self):
        inner = TupleType([INT, FLOAT])
        t = TupleType([inner, array(FLOAT, 4)])
        assert t.name == "Tuple2_Tuple2_int_float_arr_float"
        assert element_count(t) == Cst(6)
        assert size_in_bytes(t) == Cst(24)

    def test_the_scalar_base_of_a_vector_array(self):
        assert scalar_base(array(float4, Var("N"))) == FLOAT == scalar_base(FLOAT)
