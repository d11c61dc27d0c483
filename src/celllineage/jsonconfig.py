"""Config dataclasses from JSON objects, with every key and value type checked."""

import json
from dataclasses import fields, is_dataclass

# (type of a field's default, JSON values it accepts, their name); bool comes
# first because it is a subclass of int, and true/false is never a number
_TYPES = (
    (bool, bool, "true or false"),
    (float, (int, float), "a number"),
    (int, int, "an integer"),
    (str, str, "a string"),
    (tuple, list, "a list"),
)


def load(cls, path):
    """Instance of dataclass `cls` from the JSON object in the file at `path`."""
    with open(path) as f:
        doc = json.load(f)
    return from_doc(cls, doc, path)


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
                if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
                    raise ValueError("%s: expected %s, got %s" % (at, name, json.dumps(value)))
                break
        if isinstance(default, tuple):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return cls(**kwargs)
