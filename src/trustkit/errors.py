"""Exception types shared across the toolkit, and the rules the checks that
raise them share: what an integer and a finite setting are (``is_int``,
``check_ints``, ``is_finite``, ``check_finite``); how a JSON file a command takes in is read
and its entries checked against a key schema (``read_json_object``,
``check_entries``); how a data file a manifest names is read and its sha256
checked (``read_blob``); and how an output directory is made (``make_out_dir``). The
files the commands write have one writer per format: ``write_json`` (every JSON file),
``write_blob`` (a data file, returning its ``digest``, the one sha256) and ``csv_text``."""

import hashlib
import json
import sys
from pathlib import Path


def is_int(value, least: int | None = None) -> bool:
    """Whether ``value`` is an integer, of at least ``least`` when that is
    given; a bool or a float such as 16.0 is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and \
        (least is None or value >= least)


def check_ints(cfg, least: dict[str, int]) -> None:
    """ParameterError unless each named attribute of ``cfg`` is an integer
    of at least its bound."""
    for name, bound in least.items():
        value = getattr(cfg, name)
        if not is_int(value, bound):
            raise ParameterError(f"{name} must be an integer >= {bound}, got {value!r}")


def is_finite(value) -> bool:
    """Whether ``value`` is a number >= 0 that a float holds: an int or a
    float in [0, the largest float]; a bool, nan or inf is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and \
        0 <= value <= sys.float_info.max


def check_finite(cfg, names: tuple[str, ...]) -> None:
    """ParameterError unless each named attribute of ``cfg`` is a finite
    number >= 0 (``is_finite``)."""
    for name in names:
        value = getattr(cfg, name)
        if not is_finite(value):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


def read_json_object(path: Path, error: type[Exception], what: str) -> dict:
    """The JSON object in the file at ``path``; ``error``, naming the file
    as ``what``, when it cannot be read or holds anything else."""
    try:
        value = json.loads(path.read_text())
    # ValueError: not UTF-8, not JSON, or an integer of more digits than Python parses
    except (OSError, ValueError) as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} {path} does not hold a JSON object")
    return value


# schema entries: the key's value is an object; a string
OBJECT = (lambda v: isinstance(v, dict), "an object")
STRING = (lambda v: isinstance(v, str), "a string")


def check_entries(entries: dict, schema: dict, where: str, error: type[Exception]) -> None:
    """``error``, naming ``where``, unless ``entries`` holds every key of
    ``schema``, in its order, with a value that passes the key's test; the
    schema maps a key to (test of its value, what the value must be)."""
    for key, (valid, requirement) in schema.items():
        if key not in entries:
            raise error(f"{where} has no {key!r}")
        if not valid(entries[key]):
            raise error(f"{where} {key!r} must be {requirement}, got {entries[key]!r}")


def read_blob(path: Path, sha256: str, error: type[Exception], what: str) -> bytes:
    """The bytes of the file at ``path``; ``error``, naming the file as
    ``what``, when it cannot be read (missing, a directory, a NUL byte in
    its name) or its sha256 is not ``sha256``."""
    try:
        blob = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if digest(blob) != sha256:
        raise error(f"{what} digest mismatch for {path}")
    return blob


def digest(blob: bytes) -> str:
    """The hex sha256 of ``blob``: how every file and record is identified."""
    return hashlib.sha256(blob).hexdigest()


def write_blob(path: Path, blob: bytes) -> str:
    """Write ``blob`` to the file at ``path``; returns its ``digest``."""
    path.write_bytes(blob)
    return digest(blob)


def write_json(path: Path, value) -> None:
    """Write ``value`` as JSON with sorted keys, two-space indents and a final newline."""
    path.write_text(json.dumps(value, sort_keys=True, indent=2) + "\n")


def _cell(value) -> str:
    """A bool as 0/1, anything else as its str, which for a float is its repr
    and reads back bit for bit; a numpy scalar as its Python value's cell."""
    if hasattr(value, "item"):  # a numpy scalar
        value = value.item()
    return str(int(value) if isinstance(value, bool) else value)


def csv_text(header, rows) -> str:
    """The CSV of the ``header`` names and the ``rows`` of values, one line each."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def make_out_dir(path) -> Path:
    """Create the output directory ``path``; a ParameterError naming it if that fails."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {out}: {exc.strerror or exc}")
    return out


class DimensionError(ValueError):
    """Shapes of the operands are incompatible."""


class ParameterError(ValueError):
    """A configuration value or argument is out of its valid range."""


class ContractError(RuntimeError):
    """A documented precondition was violated by the caller."""


class EnumerationCapExceeded(RuntimeError):
    """Exact support enumeration was requested beyond the configured cap."""


class SingularMatrixError(RuntimeError):
    """A linear system that must be solvable is singular."""


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or inconsistent."""


class DatasetError(RuntimeError):
    """A dataset file failed checksum or schema validation."""
