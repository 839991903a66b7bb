"""The one codec of the program's wire types: typed values to JSON and back.

A wire type is a dataclass, or a ``NamedTuple`` whose fields are all on the
wire (:class:`~repro.ndlog.tuples.NDTuple`); its wire is its fields as JSON,
shaped by their annotations (``bool``, ``int``, ``float``, ``str``, a
``Union`` of them, ``object``, ``dict``, ``Optional``, ``List``, ``Tuple`` —
a bare one of scalars —, ``Dict`` with ``str`` or ``int`` keys, nested wire
types), by ``field(metadata={"wire": hint})`` where the wire shape differs,
and minus :data:`NOT_ON_WIRE` fields.  A class with a ``kind`` string of
its own (a class attribute, not a field) is *tagged*, its wire
``{"kind": kind, **fields}``; a hint naming a class with tagged subclasses
(``Edit``, ``Expression``, ``SessionEvent``) is a tagged union, decoded to
the subclass the ``kind`` names.  :func:`decode` checks a wire at the
door, since JSON has no coercion to lean on (``"no"`` is truthy and
``"2" > 1`` raises deep inside a worker): ``bool`` is exactly ``bool``, an
``int`` refuses ``bool`` and ``str``, a ``float`` takes either number,
``None`` passes only where a field is ``Optional``, and an unknown key or
kind, or a missing key without a default, is a :class:`WireError`.
:func:`decode_fields` holds a value built in process to the same rule.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import reprlib
from typing import (Dict, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)


class WireError(ValueError):
    """A wire that does not describe a value of its type."""


#: ``field(metadata=NOT_ON_WIRE)``: the field stays in its process; a
#: decoded value holds the field's default, or ``None`` if it has none.
NOT_ON_WIRE = {"wire": None}

#: The exact JSON types each scalar annotation accepts, and kinds' names.
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
            type(None): (type(None),)}
_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
          str: "a string", list: "a list", tuple: "a list"}
_INT_KEY = re.compile(r"-?(0|[1-9][0-9]{0,17})")


def _tag(cls):
    """The ``kind`` string ``cls`` itself carries, unless it is a field."""
    kind = vars(cls).get("kind")
    fields = getattr(cls, "__dataclass_fields__", ())
    return kind if isinstance(kind, str) and "kind" not in fields else None


@functools.lru_cache(maxsize=None)
def _variants(cls):
    """``{kind: class}`` over the tagged dataclasses among ``cls`` and its
    subclasses (those defined when first asked): a tagged union if any."""
    found, todo = {}, [cls]
    while todo:
        sub = todo.pop()
        todo.extend(sub.__subclasses__())
        if dataclasses.is_dataclass(sub) and _tag(sub) is not None:
            found[_tag(sub)] = sub
    return found


def _is_named_tuple(cls) -> bool:
    return isinstance(cls, type) and issubclass(cls, tuple) \
        and hasattr(cls, "_fields")


@functools.lru_cache(maxsize=None)
def _fields(cls):
    """``cls``'s ``(name, wire hint, required)`` triples, the ``{name:
    None}`` a decode passes for local fields without a default, its tag and
    the keys its wire may hold."""
    hints, wired, local = get_type_hints(cls), [], {}
    if _is_named_tuple(cls):
        wired = tuple((name, hints[name], name not in cls._field_defaults)
                      for name in cls._fields)
        return wired, local, None, frozenset(cls._fields)
    for f in dataclasses.fields(cls):
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        hint = f.metadata.get("wire", hints[f.name])
        if hint is not None:
            wired.append((f.name, hint, required))
        elif required:
            local[f.name] = None
    tag = _tag(cls)
    keys = {name for name, _, _ in wired} | ({"kind"} if tag else set())
    return tuple(wired), local, tag, frozenset(keys)


@functools.lru_cache(maxsize=None)
def _unpack(hint):
    """``(hint without Optional, nullable, origin, args, exact, nested)``:
    ``exact`` is the set of JSON types a scalar hint, or a union of them,
    accepts (``None`` for other hints); ``nested`` says the hint is a wire
    type or a tagged union."""
    if hint is Tuple:                    # a bare one holds JSON scalars
        hint = Tuple[Optional[Union[bool, int, float, str]], ...]
    members = get_args(hint) if get_origin(hint) is Union else (hint,)
    nullable = type(None) in members
    hint = Union[tuple(m for m in members if m is not type(None))]
    origin, args = get_origin(hint) or hint, get_args(hint)
    exact = (frozenset(t for m in members for t in _SCALARS[m])
             if all(m in _SCALARS for m in members) else None)
    nested = (exact is None and isinstance(hint, type)
              and hint not in (object, dict, list, tuple)
              and (dataclasses.is_dataclass(hint) or _is_named_tuple(hint)
                   or bool(_variants(hint))))
    return hint, nullable, origin, args, exact, nested


def encode(value) -> Dict[str, object]:
    """The JSON wire of a wire-type value."""
    wired, _, tag, _ = _fields(type(value))
    wire = {name: _encode(hint, getattr(value, name))
            for name, hint, _ in wired}
    return wire if tag is None else {"kind": tag, **wire}


def _encode(hint, value):
    hint, _, origin, args, exact, nested = _unpack(hint)
    if value is None or exact is not None or hint is object:
        return value
    if nested:
        return encode(value)
    if origin is dict:
        item = args[1] if args else object
        return {str(k): _encode(item, v) for k, v in dict(value).items()}
    if origin is tuple and args[1:] != (Ellipsis,):
        return [_encode(arg, v) for arg, v in zip(args, value)]
    return (list(value) if _unpack(args[0])[4] is not None
            else [_encode(args[0], v) for v in value])


def decode(cls, wire):
    """A ``cls`` from its wire, or a :class:`WireError`."""
    what = getattr(cls, "wire_name", cls.__name__)
    if not isinstance(wire, dict):
        raise WireError(f"{what} wire must be an object, not "
                        f"{reprlib.repr(wire)}")
    variants = _variants(cls)
    if variants:
        kind = wire.get("kind")
        variant = variants.get(kind) if type(kind) is str else None
        if variant is None:
            raise WireError(f"{what} kind {reprlib.repr(kind)} is not one "
                            f"of {sorted(variants)}")
        if variant is not cls:
            cls, what = variant, f"{what} {kind!r}"
    wired, local, _, keys = _fields(cls)
    unknown = set(wire).difference(keys)
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


def decode_fields(value: Wire) -> None:
    """Decode the wired fields of ``value``, built in process, in place: a
    field takes what :func:`decode` would make of it as a wire (a nested
    type's wire dict becomes its value), or the class's ``wire_error`` is
    raised with the message a wire holding it gets."""
    cls = type(value)
    try:
        for name, hint, _ in _fields(cls)[0]:
            setattr(value, name, _decode(hint, getattr(value, name),
                                         cls.wire_name, repr(name)))
    except WireError as exc:
        raise cls.wire_error(str(exc)) from None


def _decode(hint, value, what: str, where: str):
    hint, nullable, origin, args, exact, nested = _unpack(hint)
    if type(value) in (exact or ()) or value is None and nullable \
            or hint is object or nested and isinstance(value, hint):
        return value
    fixed = origin is tuple and args[1:] != (Ellipsis,)
    if origin in (list, tuple) and type(value) in (list, tuple):
        if fixed:
            if len(value) == len(args):
                return tuple(_decode(arg, v, what, f"{where}[{i}]")
                             for i, (arg, v) in enumerate(zip(args, value)))
        elif set(map(type, value)) <= (_unpack(args[0])[4] or set()):
            return origin(value)         # the common case, checked in C
        else:
            return origin(_decode(args[0], v, what, f"{where}[{i}]")
                          for i, v in enumerate(value))
    elif isinstance(value, dict) and nested:
        return decode(hint, value)
    elif isinstance(value, dict) and origin is dict:
        key, item = args or (str, object)
        if all(type(k) is str and (key is str or _INT_KEY.fullmatch(k))
               for k in value):
            return {key(k): _decode(item, v, what, f"{where}[{k!r}]")
                    for k, v in value.items()}
        raise WireError(f"{what} key {where} must have {key.__name__} keys, "
                        f"not {reprlib.repr(list(value))}")
    kinds = " or ".join(_KINDS.get(kind, "an object")
                        for kind in (args if origin is Union else (origin,)))
    raise WireError(f"{what} key {where} must be {kinds}"
                    f"{' or null' if nullable else ''}"
                    f"{f' of {len(args)}' if fixed else ''}, "
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
