"""The one codec of the program's wire types: typed values to JSON and back.

A wire type is a dataclass; its wire is its fields as JSON, shaped by their
annotations (``bool``, ``int``, ``float``, ``str``, ``object``, ``dict``,
``Optional``, ``List``, ``Tuple``, ``Dict`` with ``str`` or ``int`` keys,
nested wire types), by ``field(metadata={"wire": hint})`` where the wire
shape differs, and minus :data:`NOT_ON_WIRE` fields.  :func:`decode` checks
a wire at the door, since JSON has no coercion to lean on (``"no"`` is
truthy and ``"2" > 1`` raises deep inside a worker): ``bool`` is exactly
``bool``, an ``int`` refuses ``bool`` and ``str``, a ``float`` takes either
number, ``None`` passes only where a field is ``Optional``, and an unknown
key or a missing one without a default is a :class:`WireError`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import reprlib
from typing import Dict, Union, get_args, get_origin, get_type_hints


class WireError(ValueError):
    """A wire that does not describe a value of its type."""


#: ``field(metadata=NOT_ON_WIRE)``: the field stays in its process; a
#: decoded value holds the field's default, or ``None`` if it has none.
NOT_ON_WIRE = {"wire": None}

#: The exact JSON types each scalar annotation accepts, and kinds' names.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
          str: "a string", list: "a list", tuple: "a list"}
_INT_KEY = re.compile(r"-?(0|[1-9][0-9]{0,17})")


@functools.lru_cache(maxsize=None)
def _fields(cls):
    """``cls``'s ``(name, wire hint, required)`` triples, and the
    ``{name: None}`` a decode passes for local fields without a default."""
    hints, wired, local = get_type_hints(cls), [], {}
    for f in dataclasses.fields(cls):
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        hint = f.metadata.get("wire", hints[f.name])
        if hint is not None:
            wired.append((f.name, hint, required))
        elif required:
            local[f.name] = None
    return tuple(wired), local


@functools.lru_cache(maxsize=None)
def _unpack(hint):
    """``(hint without Optional, nullable, origin, args)``."""
    nullable = get_origin(hint) is Union and type(None) in get_args(hint)
    if nullable:
        hint = next(a for a in get_args(hint) if a is not type(None))
    return hint, nullable, get_origin(hint) or hint, get_args(hint)


def encode(value) -> Dict[str, object]:
    """The JSON wire of a wire-type value."""
    return {name: _encode(hint, getattr(value, name))
            for name, hint, _ in _fields(type(value))[0]}


def _encode(hint, value):
    hint, _, origin, args = _unpack(hint)
    if value is None or hint in _SCALARS or hint is object:
        return value
    if dataclasses.is_dataclass(hint):
        return encode(value)
    if origin is dict:
        item = args[1] if args else object
        return {str(k): _encode(item, v) for k, v in dict(value).items()}
    if origin is tuple and args[1:] != (Ellipsis,):
        return [_encode(arg, v) for arg, v in zip(args, value)]
    return (list(value) if args[0] in _SCALARS
            else [_encode(args[0], v) for v in value])


def decode(cls, wire):
    """A ``cls`` from its wire, or a :class:`WireError`."""
    what = getattr(cls, "wire_name", cls.__name__)
    if not isinstance(wire, dict):
        raise WireError(f"{what} wire must be an object, not "
                        f"{reprlib.repr(wire)}")
    wired, local = _fields(cls)
    unknown = set(wire).difference(name for name, _, _ in wired)
    if unknown:
        raise WireError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    values = dict(local)
    for name, hint, required in wired:
        if name in wire:
            values[name] = _decode(hint, wire[name], what, repr(name))
        elif required:
            raise WireError(f"{what} key {name!r} is missing")
    try:
        return cls(**values)
    except ValueError as exc:            # the class's own range checks
        raise WireError(str(exc)) from exc


def _decode(hint, value, what: str, where: str):
    hint, nullable, origin, args = _unpack(hint)
    if value is None and nullable or hint is object \
            or type(value) in _SCALARS.get(hint, ()):
        return value
    if origin in (list, tuple) and type(value) in (list, tuple):
        if origin is tuple and args[1:] != (Ellipsis,):
            if len(value) == len(args):
                return tuple(_decode(arg, v, what, f"{where}[{i}]")
                             for i, (arg, v) in enumerate(zip(args, value)))
        elif set(map(type, value)) <= set(_SCALARS.get(args[0], ())):
            return origin(value)         # the common case, checked in C
        else:
            return origin(_decode(args[0], v, what, f"{where}[{i}]")
                          for i, v in enumerate(value))
    elif isinstance(value, dict) and dataclasses.is_dataclass(hint):
        return decode(hint, value)
    elif isinstance(value, dict) and origin is dict:
        key, item = args or (str, object)
        if all(type(k) is str and (key is str or _INT_KEY.fullmatch(k))
               for k in value):
            return {key(k): _decode(item, v, what, f"{where}[{k!r}]")
                    for k, v in value.items()}
        raise WireError(f"{what} key {where} must have {key.__name__} keys, "
                        f"not {reprlib.repr(list(value))}")
    raise WireError(f"{what} key {where} must be "
                    f"{_KINDS.get(origin, 'an object')}"
                    f"{' or null' if nullable else ''}"
                    f"{f' of {len(args)}' if origin is tuple else ''}, "
                    f"not {reprlib.repr(value)}")


class Wire:
    """A wire type's entry points, through :func:`encode`/:func:`decode`."""

    #: The class's name in error messages, and what every refusal raises.
    wire_name = "value"
    wire_error = WireError

    def to_wire(self) -> Dict[str, object]:
        return encode(self)

    @classmethod
    def from_wire(cls, wire):
        try:
            return decode(cls, wire)
        except WireError as exc:
            raise cls.wire_error(str(exc)) from exc

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_wire(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text):
        try:
            wire = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise cls.wire_error(
                f"{cls.wire_name} is not valid JSON: {exc}") from exc
        return cls.from_wire(wire)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def coerce(cls, value):
        """A ``cls``, its wire dict or ``None`` → a ``cls`` or ``None``."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_wire(value)
        raise cls.wire_error(f"cannot build a {cls.__name__} from "
                             f"{type(value).__name__}")
