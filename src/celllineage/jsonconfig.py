"""Config dataclasses from JSON objects, with every key and value type checked."""

import json
import math
from dataclasses import fields, is_dataclass
from functools import partial

# (type of a field's default, JSON values it accepts, their name); no field
# takes true or false, though bool is a subclass of int
_TYPES = (
    (float, (int, float), "a number"),
    (int, int, "an integer"),
    (str, str, "a string"),
    (tuple, list, "a list"),
)
_QUOTE = 20  # characters of a bad number that an error message quotes


def load(cls, path):
    """Instance of dataclass `cls` from the JSON object in the file at `path`;
    a NaN, Infinity or -Infinity anywhere in it, a number beyond float range
    such as 1e400, or nesting too deep to parse raises ValueError."""
    number = partial(_finite, path)
    with open(path) as f:
        try:
            doc = json.load(f, parse_constant=number, parse_float=number, parse_int=partial(number, kind=int))
        except RecursionError:
            raise ValueError("%s: nested too deeply" % path) from None
    return from_doc(cls, doc, path)


def _finite(path, text, kind=float):
    """The JSON number `text` as `kind`, if a float can hold it; the error
    message quotes at most _QUOTE characters of a number that it cannot."""
    if not math.isfinite(float(text)):
        raise ValueError("%s: %s is not a finite number" % (path, text[:_QUOTE]))
    return kind(text)


def from_doc(cls, doc, where):
    """Instance of dataclass `cls` from a parsed JSON object; an unknown key
    or a value of the wrong JSON type raises ValueError naming the key."""
    if not isinstance(doc, dict):
        raise ValueError("%s: expected a JSON object" % where)
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ValueError("%s: unknown key %s" % (where, ", ".join(repr(k) for k in unknown)))
    kwargs = {}
    for key, value in doc.items():
        default, at = defaults[key], "%s: %s" % (where, key)
        if is_dataclass(default):
            value = from_doc(type(default), value, at)
        for kind, accepted, name in _TYPES:
            if isinstance(default, kind):
                if not isinstance(value, accepted) or isinstance(value, bool):
                    raise ValueError("%s: expected %s, got %s" % (at, name, json.dumps(value)))
                break
        if isinstance(default, tuple):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return cls(**kwargs)
