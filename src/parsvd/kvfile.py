"""Flat key-value text files, shared by hardware profiles and channel configs.

One ``key value`` or ``key=value`` pair per line; ``#`` starts a comment
and blank lines are skipped.
"""

from __future__ import annotations


def read_flat_kv(path: str, types: dict, error: type[Exception]) -> dict:
    """Read ``path`` into ``{key: types[key](value)}``.

    Raises ``error`` for an unreadable file and, naming ``path:line``, for
    a line that is not a pair, a key missing from ``types``, a key given
    twice, or a value its type rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise error(f"cannot read {path!r}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise error(f"{path}:{lineno}: expected 'key value', got {raw.strip()!r}")
            key, val = parts
        key = key.strip()
        if key not in types:
            raise error(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise error(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = types[key](val.strip())
        except ValueError as exc:
            raise error(f"{path}:{lineno}: key {key!r}: {exc}") from exc
    return out
