"""The Lift dependent type system (paper section 5.1).

Scalar, vector, tuple and array types; array types carry their length as a
symbolic arithmetic expression, which is what enables the memory allocator,
the view system and the simplifier to reason about sizes and indices.
"""

from repro.types.dtypes import (
    ArrayType,
    BOOL,
    DOUBLE,
    DataType,
    FLOAT,
    INT,
    ScalarType,
    TupleType,
    Type,
    VectorType,
    array,
    element_count,
    float2,
    float4,
    float8,
    int2,
    int4,
    size_in_bytes,
)

__all__ = [
    "ArrayType",
    "BOOL",
    "DOUBLE",
    "DataType",
    "FLOAT",
    "INT",
    "ScalarType",
    "TupleType",
    "Type",
    "VectorType",
    "array",
    "element_count",
    "float2",
    "float4",
    "float8",
    "int2",
    "int4",
    "size_in_bytes",
]
