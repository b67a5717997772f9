"""One schema for every config block: a frozen dataclass whose fields are the keys
the block takes, and whose `__post_init__` checks the values."""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_type_hints


@cache
def _field_kinds(cls) -> dict:
    """The types each field takes: `X | None` takes None too, and a float field an int."""
    kinds = {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}
    return {name: ks + (int,) if float in ks else ks for name, ks in kinds.items()}


def check_field_types(config):
    """Reject a field not of a type it takes; a bool is no number."""
    field_kinds = _field_kinds(type(config))
    for f in fields(config):
        value, kinds = getattr(config, f.name), field_kinds[f.name]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{f.name} must be {kinds[0].__name__}, got {value!r}")


def check_at_least(config, least, *names):
    """Reject a field of `names` that is set and below `least`."""
    for name in names:
        value = getattr(config, name)
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")


def config_block(cls, block, path, where: str = ""):
    """`cls` built from the JSON object `block` of file `path`, and its sub-blocks likewise.

    `where` is the block's dotted key and a dot ("" at the top).  An error
    names the file and the key: `unknown config key 'model.hedas'`,
    `missing config key ...`, or `<path>: model: heads must be int, got '4'`.
    """
    name = where.rstrip(".")
    if not isinstance(block, dict):
        raise ValueError(f"{path}: '{name or 'config'}' must be a JSON object")
    keys = {f.name: f for f in fields(cls)}
    for key in block:
        if key not in keys:
            raise ValueError(f"{path}: unknown config key '{where}{key}'")
    for key, f in keys.items():
        if key not in block and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{path}: missing config key '{where}{key}'")
    field_kinds = _field_kinds(cls)
    values = {}
    for key, value in block.items():
        sub = next((t for t in field_kinds[key] if is_dataclass(t)), None)
        values[key] = value if sub is None else config_block(sub, value, path, f"{where}{key}.")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {name}: {exc}" if name else f"{path}: {exc}") from exc


def block_doc(config) -> dict:
    """The JSON object that `config_block` reads back into `config`: every set field."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is not None:
            doc[f.name] = block_doc(value) if is_dataclass(value) else value
    return doc
