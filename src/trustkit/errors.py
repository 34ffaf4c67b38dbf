"""Exception types shared across the toolkit, and the integer, JSON-file
and output-directory rules the checks that raise them share."""

import json
from pathlib import Path


def is_int(value, least: int | None = None) -> bool:
    """Whether ``value`` is an integer, of at least ``least`` when that is
    given; a bool or a float such as 16.0 is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and \
        (least is None or value >= least)


def read_json_object(path: Path, error: type[Exception], what: str) -> dict:
    """The JSON object in the file at ``path``; ``error``, naming the file
    as ``what``, when it cannot be read or holds anything else."""
    try:
        value = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} {path} does not hold a JSON object")
    return value


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
