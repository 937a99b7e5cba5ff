"""Saved documents from their dataclasses: one field walk writes and reads them.

An entry holds a dataclass's init fields in declaration order, so derived
values are never written; each field follows the rule of its resolved
annotation (see _read). Reading rejects an unknown key, gives an omitted
field its default and leaves every other rule to the dataclasses, so what
it reads passes the checks of a build. An error inside a listed entry names
it, as in `slides[1]: `. A class in `tags` is written after `"type": tag`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

from .errors import ArgumentError, ChebSliderError, error_detail

SCHEMA_VERSION = 2  # of the saved-slider documents
CurveId = typing.NewType("CurveId", str)  # the id of a curve in the market

# Annotation -> (the JSON type of its values, what an error calls them).
_JSON_TYPES = {int: (int, "an integer"), bool: (bool, "true or false"),
               str: (str, "a string"), CurveId: (str, "a curve name")}
SCALARS = (float, np.ndarray, *_JSON_TYPES)  # written as held (an array as nested lists)


def item_annotation(hint):
    """X of tuple[X, ...]; TypeError for any other annotation, which the walk cannot save."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not tuple or len(args) != 2 or args[1] is not Ellipsis:
        raise TypeError(f"no document rule for the annotation {hint!r}")
    return args[0]


@functools.cache
def _fields(cls) -> tuple:
    """(name, annotation, has a default) of each init field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is not dataclasses.MISSING)
                 for f in dataclasses.fields(cls) if f.init)


def _located(exc: Exception, where: str, cls=ValueError) -> Exception:
    """exc's message after `where`, as cls unless exc is a library error."""
    return (type(exc) if isinstance(exc, ChebSliderError) else cls)(f"{where}: {error_detail(exc)}")


def _write(hint, value, tags):
    if dataclasses.is_dataclass(hint):
        return to_dict(value, tags)
    if hint in SCALARS:
        return value.tolist() if hint is np.ndarray else value
    item = item_annotation(hint)  # raises for an annotation with no rule, even on []
    return [_write(item, v, tags) for v in value]


def _read(hint, value, key: str, tags):
    """A field's value from its JSON value by the annotation's rule; a number is never a
    boolean or a numeric string, which float() takes."""
    if hint in _JSON_TYPES:
        json_type, what = _JSON_TYPES[hint]
        if type(value) is not json_type:
            raise TypeError(f"{key!r} must be {what}, got {value!r}")
        return value
    if hint is float:  # a finite JSON number
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"{key!r} must be a finite number, got {number!r}")
        if type(value) not in (int, float):
            raise TypeError(f"{key!r} must be a number, got {value!r}")
        return number
    if hint is np.ndarray:  # nested lists of JSON numbers, read-only
        numbers = np.asarray(value, dtype=float)
        bad = [v for v in np.asarray(value, dtype=object).flat if type(v) not in (int, float)]
        if bad:
            raise TypeError(f"{key!r} must hold numbers, got {bad[0]!r}")
        numbers.flags.writeable = False
        return numbers
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, tags, f" in {key}")
    item = item_annotation(hint)
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, got {value!r}")
    if not dataclasses.is_dataclass(item):
        return tuple(_read(item, v, key, tags) for v in value)
    out = []
    for i, v in enumerate(value):
        try:
            out.append(from_dict(item, v, tags))
        except (KeyError, TypeError, ValueError) as exc:
            raise _located(exc, f"{key}[{i}]") from None
    return tuple(out)


def to_dict(obj, tags=None) -> dict:
    """obj's entry, after its tag if `tags` maps its class to one."""
    doc = {"type": tags[type(obj)]} if tags and type(obj) in tags else {}
    return doc | {name: _write(hint, getattr(obj, name), tags)
                  for name, hint, _ in _fields(type(obj))}


def from_dict(cls, d, tags=None, where: str = ""):
    """cls from its entry; an unknown key or a wrong tag raises ValueError ending in `where`."""
    if not isinstance(d, dict):
        raise TypeError(f"expected an object{where}, got {d!r}")
    tag = tags.get(cls) if tags else None
    if tag is not None and d.get("type", tag) != tag:
        raise ValueError(f"'type' must be {tag!r}, got {d['type']!r}{where}")
    known = {name for name, _, _ in _fields(cls)} | ({"type"} if tag else set())
    unknown = [k for k in d if k not in known]  # such as a misspelt optional key
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}{where}")
    return cls(**{name: _read(hint, d[name], name, tags)
                  for name, hint, has_default in _fields(cls) if name in d or not has_default})


def write_document(obj, kind: str) -> dict:
    """A JSON-serializable document: the schema version, the kind, then obj's entry."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **to_dict(obj)}


def read_document(cls, doc, kind: str, name: str):
    """cls from a write_document document; ArgumentError, or a dataclass rule's error, names it."""
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        article = "an" if name[0] in "aeiou" else "a"
        raise ArgumentError(f"not {article} {name} document: kind={found!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ArgumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        return from_dict(cls, {k: v for k, v in doc.items() if k not in ("schema_version", "kind")})
    except (KeyError, TypeError, ValueError) as exc:
        raise _located(exc, f"{name} document", ArgumentError) from None
