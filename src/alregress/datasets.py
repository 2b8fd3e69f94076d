"""Dataset ingestion: delimited-text loading, z-score standardization, seeded splits.

A manifest (JSON, see ``load_manifest``) describes where each data file lives and
how to parse it. Loading produces a :class:`Dataset` of float64 features and
targets; standardization and the test/initial-labeled/pool split are separate,
deterministic steps so experiments can be reproduced from a seed alone.
``standardize`` z-scores a matrix with that matrix's own column statistics;
no statistics carry from one matrix to another.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

# Columns whose population std falls below this are treated as constant and
# left unscaled (std replaced by 1) so standardization never divides by ~0.
DEGENERATE_STD = 1e-12

# Each manifest field's check and what it wants. type(v) is int rejects the
# bools that JSON true and false load as.
_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_COUNT = (
    lambda v: v is None or (type(v) is int and v > 0),
    "null or a positive integer",
)
_MANIFEST_FIELDS = {
    "path": _TEXT,
    "delimiter": _TEXT,
    "target_column": (
        lambda v: type(v) is int or isinstance(v, str),
        "an integer index or a column name",
    ),
    "skip_header": (lambda v: isinstance(v, bool), "true or false"),
    "expected_rows": _COUNT,
    "expected_cols": _COUNT,
}


def require_int(field: str, value) -> None:
    """Reject a config field that is not an integer: bools, which are ints
    in Python, and floats, integral ones too. NumPy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def require_nonnegative(field: str, value) -> None:
    """Reject a config field that is not a finite real number >= 0: first
    bools, which are numbers in Python, and non-numbers such as strings,
    then negative and non-finite values. Ints and NumPy integers and floats
    pass."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValueError(f"{field} must be a real number, got {value!r}")
    if not 0 <= value < np.inf:
        raise ValueError(f"{field} must be finite and >= 0, got {value}")


def round_half_up(x: float) -> int:
    """Nearest integer, halves rounding up; used for every fractional set size."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class DatasetManifest:
    """Where one delimited numeric data file lives and how to parse it.

    ``delimiter`` of ``" "`` (or any all-whitespace string) splits on runs of
    whitespace. ``target_column`` is a 0-based column index (negatives count
    from the end) or, when the file has a header row, a column name.
    ``expected_cols`` counts feature columns, i.e. columns after the target
    is removed.
    """

    name: str
    path: str
    delimiter: str = ","
    target_column: int | str = -1
    skip_header: bool = False
    expected_rows: int | None = None
    expected_cols: int | None = None

    def __post_init__(self):
        for field, (ok, want) in _MANIFEST_FIELDS.items():
            value = getattr(self, field)
            if not ok(value):
                raise ValueError(
                    f"dataset {self.name!r}: {field} must be {want}, got {value!r}"
                )


@dataclass(frozen=True)
class Dataset:
    """Parsed numeric dataset: features (n, d), targets (n,)."""

    features: np.ndarray
    targets: np.ndarray
    name: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        targs = np.asarray(self.targets, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if targs.ndim != 1 or targs.shape[0] != feats.shape[0]:
            raise ValueError(
                f"targets shape {targs.shape} does not match {feats.shape[0]} rows"
            )
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("dataset needs at least one row and one feature")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(targs)):
            raise ValueError(f"dataset {self.name!r} contains non-finite values")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint index sets covering 0..n-1, plus the seed that produced them."""

    test: np.ndarray
    initial_labeled: np.ndarray
    unlabeled_pool: np.ndarray
    seed: int


def load_manifest(path: str | Path) -> dict[str, DatasetManifest]:
    """Read a JSON manifest: an object mapping dataset name -> entry fields.

    Entry fields are ``path`` (required) plus optional ``delimiter``,
    ``target_column``, ``skip_header``, ``expected_rows``, ``expected_cols``.
    Relative data paths are resolved against the manifest file's directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"manifest {path}: top level must be a JSON object")
    out: dict[str, DatasetManifest] = {}
    for name, entry in raw.items():
        if not isinstance(entry, dict):
            raise ValueError(f"manifest entry {name!r}: must be an object")
        unknown = set(entry) - _MANIFEST_FIELDS.keys()
        if unknown:
            raise ValueError(
                f"manifest entry {name!r}: unknown fields {sorted(unknown)}"
            )
        if "path" not in entry:
            raise ValueError(f"manifest entry {name!r}: missing required field 'path'")
        manifest = DatasetManifest(name=name, **entry)
        if not Path(manifest.path).is_absolute():
            manifest = replace(manifest, path=str(path.parent / manifest.path))
        out[name] = manifest
    return out


def _split_line(line: str, delimiter: str) -> list[str]:
    if delimiter.strip() == "":
        return line.split()
    return [cell.strip().strip('"') for cell in line.split(delimiter)]


def _header(line: str, delimiter: str) -> list[str]:
    return [p.strip().strip('"') for p in _split_line(line, delimiter)]


def _load_table(path: Path, delimiter: str, skip_header: bool):
    """(header, rows) of the file through np.loadtxt, or None where loadtxt
    refuses it: ragged rows, a cell it cannot read (a quoted one, say), no
    rows at all. The header is the first non-blank line. loadtxt reads a
    cell with PyOS_string_to_double, the parser float() calls, so every
    cell it reads has float()'s bits."""
    whitespace = delimiter.strip() == ""
    if not whitespace and len(delimiter) != 1:
        return None  # loadtxt takes one delimiter character
    with open(path, encoding="utf-8") as fh:
        header = None
        if skip_header:
            line = next((ln for ln in iter(fh.readline, "") if ln.strip()), "")
            header = _header(line.strip(), delimiter) if line else None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on no rows
                rows = np.loadtxt(
                    fh,
                    delimiter=None if whitespace else delimiter,
                    comments=None,
                    ndmin=2,
                )
        except (ValueError, UserWarning):
            return None
    return header, rows


def _parse_lines(path: Path, manifest: DatasetManifest):
    """(header, rows) of the file, line by line: every cell one Python
    float, written straight into one float64 array. Raises ValueError
    naming the 1-based line number for non-numeric cells or ragged rows."""
    with open(path, encoding="utf-8") as fh:
        lines = ((no, line.strip()) for no, line in enumerate(fh, start=1))
        texts = ((no, line) for no, line in lines if line)
        cells = ((no, _split_line(line, manifest.delimiter)) for no, line in texts)
        header: list[str] | None = None
        if manifest.skip_header:
            first = next(texts, None)
            if first is not None:
                header = _header(first[1], manifest.delimiter)
        lineno, parts = next(cells, (0, []))
        width = len(parts)

        def rows():
            # fromiter asks for the next line only once this one's cells are
            # used up, so on a failure (lineno, parts) is the bad line.
            nonlocal lineno, parts
            yield parts
            for lineno, parts in cells:
                if len(parts) != width:
                    raise ValueError  # named below
                yield parts

        try:
            flat = np.fromiter(map(float, chain.from_iterable(rows())), dtype=np.float64)
        except ValueError:
            bad = next((c for c in parts if not _is_float(c)), None)
            if bad is not None:
                raise ValueError(
                    f"dataset {manifest.name!r}: non-numeric cell {bad!r} "
                    f"at line {lineno} of {path}"
                ) from None
            raise ValueError(
                f"dataset {manifest.name!r}: line {lineno} has {len(parts)} "
                f"columns, expected {width}"
            ) from None
    if not width:
        raise ValueError(f"dataset {manifest.name!r}: no data rows in {path}")
    return header, flat.reshape(-1, width)


def load_dataset(manifest: DatasetManifest) -> Dataset:
    """Parse the manifest's file into a Dataset.

    Raises ValueError naming the 1-based line number for non-numeric cells or
    ragged rows, and on expected_rows/expected_cols mismatches.

    np.loadtxt reads the file (_load_table); a file it refuses goes through
    the per-line parser, which reads what loadtxt would not, such as quoted
    cells, or names the bad line. Both read every cell with float()'s bits.
    """
    path = Path(manifest.path)
    if not path.exists():
        raise FileNotFoundError(f"dataset {manifest.name!r}: no such file {path}")
    table = _load_table(path, manifest.delimiter, manifest.skip_header)
    header, data = table if table is not None else _parse_lines(path, manifest)

    tcol = _resolve_target_column(manifest, header, data.shape[1])
    targets = data[:, tcol]
    features = np.delete(data, tcol, axis=1)

    if manifest.expected_rows is not None and features.shape[0] != manifest.expected_rows:
        raise ValueError(
            f"dataset {manifest.name!r}: expected {manifest.expected_rows} rows, "
            f"parsed {features.shape[0]}"
        )
    if manifest.expected_cols is not None and features.shape[1] != manifest.expected_cols:
        raise ValueError(
            f"dataset {manifest.name!r}: expected {manifest.expected_cols} feature "
            f"columns, parsed {features.shape[1]}"
        )
    return Dataset(features=features, targets=targets, name=manifest.name)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _resolve_target_column(
    manifest: DatasetManifest, header: list[str] | None, ncols: int
) -> int:
    target = manifest.target_column
    if isinstance(target, str):
        if header is None:
            raise ValueError(
                f"dataset {manifest.name!r}: target_column {target!r} is a name "
                "but the file has no header (skip_header is false)"
            )
        hits = [i for i, h in enumerate(header) if h == target]
        if len(hits) != 1:
            raise ValueError(
                f"dataset {manifest.name!r}: target_column {target!r} matches "
                f"{len(hits)} header columns, need exactly 1"
            )
        return hits[0]
    idx = int(target)
    if idx < 0:
        idx += ncols
    if not 0 <= idx < ncols:
        raise ValueError(
            f"dataset {manifest.name!r}: target_column {manifest.target_column} "
            f"out of range for {ncols} columns"
        )
    return idx


def standardize(features: np.ndarray) -> np.ndarray:
    """(X - column mean) / column population std; stds below DEGENERATE_STD
    become 1."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"need a nonempty 2-D matrix to standardize, got {X.shape}")
    stds = X.std(axis=0)  # population (ddof=0)
    return (X - X.mean(axis=0)) / np.where(stds < DEGENERATE_STD, 1.0, stds)


def split_sizes(n: int) -> tuple[int, int, int]:
    """(|test|, |initial_labeled|, |pool|) of every split of n rows:
    round_half_up(0.30 n), max(1, round_half_up(0.01 n)) and the rest."""
    if n < 4:
        raise ValueError(f"n={n} is too small to form a nonempty split")
    n_test = round_half_up(0.30 * n)
    n_init = max(1, round_half_up(0.01 * n))
    if n_test + n_init >= n:
        raise ValueError(f"n={n} leaves an empty unlabeled pool")
    return n_test, n_init, n - n_test - n_init


def make_split(n: int, seed: int) -> SplitIndices:
    """Deterministic test / initial-labeled / pool split of indices 0..n-1.

    The sizes are split_sizes(n); the initial labeled set is drawn from the
    non-test portion and the rest is the unlabeled pool. Each set is returned
    sorted ascending.
    """
    n_test, n_init, _ = split_sizes(n)
    perm = np.random.default_rng(seed).permutation(n)
    test = np.sort(perm[:n_test])
    initial = np.sort(perm[n_test : n_test + n_init])
    pool = np.sort(perm[n_test + n_init :])
    return SplitIndices(test=test, initial_labeled=initial, unlabeled_pool=pool, seed=seed)
