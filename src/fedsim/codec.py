"""One JSON codec for dataclass values, driven by their field annotations.

Experiment specs and checkpoint sections both decode here, so the types of
what they hold always come from code and never from the data.
"""

from __future__ import annotations

import dataclasses
import inspect
import types
import typing

import numpy as np


class DecodeError(ValueError):
    """JSON that does not fit its type; the message starts with its path."""


def encode(value, name: str = "", arrays: dict[str, np.ndarray] | None = None):
    """JSON for value: a dataclass becomes a dict of its fields, a tuple a list,
    and an array the name it is stored under in `arrays`: `name` extended by
    each field name and tuple index on the way down (`arr:state:m0`)."""
    if isinstance(value, np.ndarray):
        arrays[name] = value
        return name
    if dataclasses.is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name), f"{name}:{f.name}", arrays)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [encode(v, f"{name}:{i}", arrays) for i, v in enumerate(value)]
    return value


def decode(tp, obj, path: str, array=None):
    """Rebuild a value of type tp from the JSON obj found at path.

    A dataclass takes an object keyed by its constructor's parameters: an
    unknown key is an error, and a missing key takes its default or, without
    one, is an error. `X | None` takes null or an X, `tuple[X, ...]` a list,
    `dict` any object, and an np.ndarray whatever `array(obj)` returns. An
    int takes only a JSON int, a float a JSON int or float that fits a
    float, a bool only true or false, and a str only a string.
    """
    if isinstance(tp, dataclasses.InitVar):
        tp = tp.type
    got = type(obj).__name__
    if tp is np.ndarray and array is not None:
        return array(obj)
    if dataclasses.is_dataclass(tp) or tp is dict:
        if type(obj) is not dict:
            raise DecodeError(f"{path}: expected an object, got {got}")
        if tp is dict:
            return obj
        params = inspect.signature(tp).parameters
        for key in obj:
            if key not in params:
                raise DecodeError(
                    f"{path}.{key}: unknown key (allowed: {', '.join(sorted(params))})"
                )
        for key, p in params.items():
            if key not in obj and p.default is p.empty:
                raise DecodeError(f"{path}.{key}: required key missing")
        hints = typing.get_type_hints(tp)
        return tp(**{
            key: decode(hints[key], value, f"{path}.{key}", array)
            for key, value in obj.items()
        })
    if isinstance(tp, types.UnionType):  # X | None
        return None if obj is None else decode(typing.get_args(tp)[0], obj, path, array)
    if typing.get_origin(tp) is tuple:
        if type(obj) is not list:
            raise DecodeError(f"{path}: expected a list, got {got}")
        item = typing.get_args(tp)[0]
        return tuple(decode(item, v, f"{path}[{i}]", array) for i, v in enumerate(obj))
    if tp is float and type(obj) is int:
        try:
            return float(obj)
        except OverflowError:
            raise DecodeError(f"{path}: integer too large for a float") from None
    if tp in (int, float, bool, str) and type(obj) is tp:
        return obj
    raise DecodeError(f"{path}: expected {tp.__name__}, got {got}")
