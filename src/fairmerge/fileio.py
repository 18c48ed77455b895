"""JSON file formats for instances and clusterings.

Instance files: {"n": int, "colors": "RBRB...", "p": int, "q": int}.
Clustering files: {"labels": [int, ...]}, normalized on load.
Serialization is canonical (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidArgument, ParseError, SizeMismatch
from .model import Clustering, ColoredInstance, normalize


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(obj, path) -> None:
    try:
        Path(path).write_text(_dumps(obj), encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def _is_int(x) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return type(x) is int


def load_instance(path) -> ColoredInstance:
    doc = _load_json(path)
    try:
        n, colors, p, q = doc["n"], doc["colors"], doc["p"], doc["q"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    if not _is_int(n) or n < 0:
        raise ParseError(f"{path}: n must be a non-negative integer")
    if not isinstance(colors, str) or len(colors) != n:
        raise ParseError(f"{path}: colors string must have length n = {n}")
    if set(colors) - {"R", "B"}:
        raise ParseError(f"{path}: colors must be 'R' or 'B'")
    if not (_is_int(p) and _is_int(q) and p >= 1 and q >= 1):
        raise ParseError(f"{path}: p and q must be positive integers")
    return ColoredInstance.from_colors(colors, p, q)


def save_instance(instance: ColoredInstance, path) -> None:
    doc = {
        "n": instance.n,
        "colors": instance.color_string(),
        "p": instance.given_p,
        "q": instance.given_q,
    }
    _write_json(doc, path)


def load_clustering(path, n: int | None = None) -> Clustering:
    doc = _load_json(path)
    try:
        labels = doc["labels"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    if not isinstance(labels, list) or not all(map(_is_int, labels)):
        raise ParseError(f"{path}: labels must be a list of integers")
    if n is not None and len(labels) != n:
        raise SizeMismatch(f"{path}: {len(labels)} labels for an instance of {n} points")
    try:
        return normalize(labels)
    except InvalidArgument:
        raise ParseError(f"{path}: labels must lie in the int64 range") from None


def save_clustering(clustering: Clustering, path) -> None:
    _write_json({"labels": clustering.labels_array().tolist()}, path)


def save_report(report: dict, path) -> None:
    _write_json(report, path)
