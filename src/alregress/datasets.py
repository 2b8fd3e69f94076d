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
    "delimiter": (
        lambda v: isinstance(v, str)
        and (v.strip() == "" if len(v) > 1 else v not in ("", '"')),
        "one character other than '\"', or whitespace",
    ),
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

    ``delimiter`` is one character, which cannot be the quote ``"``; ``" "``
    (or any all-whitespace string) splits on runs of whitespace.
    ``target_column`` is a 0-based column index (negatives count from the
    end) or, when the file has a header row, a column name.
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


def _read(lines, delimiter: str, **kwargs) -> np.ndarray:
    """np.loadtxt of ``lines`` (a file or a list of lines) as load_dataset
    reads every table: no comments, fields quoted as in RFC 4180, one
    delimiter character, or runs of whitespace for an all-whitespace one.
    loadtxt reads a cell with PyOS_string_to_double, the parser float()
    calls, so every cell it reads has float()'s bits. Split on whitespace,
    a line is read without its trailing whitespace: loadtxt reads one more,
    empty, cell at the end of a line that opens with a quoted cell and ends
    in spaces or tabs."""
    if delimiter.strip() == "":
        lines, delimiter = (line.rstrip() for line in lines), None
    return np.loadtxt(
        lines, delimiter=delimiter, comments=None, quotechar='"', **kwargs
    )


def _cells(line: str, delimiter: str) -> list[str]:
    """The cells of one line as _read splits it; a cell that opens with a
    quote comes without its quotes."""
    return _read([line], delimiter, dtype=str, ndmin=1).tolist()


def _refusal(path: Path, manifest: DatasetManifest) -> ValueError:
    """Why np.loadtxt refused the file, from one scan that reads its lines
    through _read one at a time: the first line holding a cell loadtxt
    cannot read, or another number of cells than the first data line; no
    data rows; or, where no single line is at fault, loadtxt's refusal of
    the whole file."""
    name, width = manifest.name, None
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a blank line
        lines = enumerate(fh, start=1)
        if manifest.skip_header:
            next((no for no, line in lines if line.strip()), None)
        for lineno, line in lines:
            try:
                size = _read([line], manifest.delimiter, ndmin=1).size
            except ValueError:
                for i, cell in enumerate(_cells(line, manifest.delimiter)):
                    try:
                        _read([line], manifest.delimiter, usecols=i)
                    except ValueError:
                        return ValueError(
                            f"dataset {name!r}: non-numeric cell {_shown(cell)!r} "
                            f"at line {lineno} of {path}"
                        )
                raise
            if size and width is None:
                width = size
            elif size and size != width:
                return ValueError(
                    f"dataset {name!r}: line {lineno} has {size} columns, "
                    f"expected {width}"
                )
    if width is None:
        return ValueError(f"dataset {name!r}: no data rows in {path}")
    return ValueError(f"dataset {name!r}: np.loadtxt cannot read {path}")


def _shown(cell: str) -> str:
    """A refused cell as an error names it: without surrounding spaces and
    quotes, or as written where float() would read that as a number, so a
    spelling loadtxt refuses (1_0, a space before a quote) shows itself."""
    text = cell.strip().strip('"')
    try:
        float(text)
    except ValueError:
        return text
    return cell


def load_dataset(manifest: DatasetManifest) -> Dataset:
    """Parse the manifest's file into a Dataset.

    One np.loadtxt call (_read) reads every data row; with skip_header the
    first non-blank line is the header, its cells stripped of spaces and
    quotes. Blank lines are skipped. Where loadtxt refuses the file, the
    ValueError names the first bad line (_refusal), and a header-only or
    empty file raises "no data rows". Also raises ValueError on
    expected_rows/expected_cols mismatches.
    """
    path = Path(manifest.path)
    if not path.exists():
        raise FileNotFoundError(f"dataset {manifest.name!r}: no such file {path}")
    with open(path, encoding="utf-8") as fh:
        header = None
        if manifest.skip_header:
            line = next((ln for ln in iter(fh.readline, "") if ln.strip()), None)
            if line is not None:
                cells = _cells(line, manifest.delimiter)
                header = [cell.strip().strip('"') for cell in cells]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on no rows
                data = _read(fh, manifest.delimiter, ndmin=2)
        except (ValueError, UserWarning):
            raise _refusal(path, manifest) from None

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
