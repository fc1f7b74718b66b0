"""Synthetic multi-source datasets with controllable target shift, CSV
ingestion, and iterate-agnostic batch streams.

Every random draw comes from a generator keyed by (seed, stream tag, ...),
so datasets are byte-identical across runs with the same seed and batch
order never depends on model iterates.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    pass


class CsvFormatError(DataError):
    """Carries the file's path and the 1-based line number of the offending
    row; the message reads "<path>: line N: ..."."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.path = path
        self.line_no = line_no


# ---------------------------------------------------------------------------
# value rules: one predicate and one text for each kind of value the weight
# solve and the bounds read; every module that takes such a value calls the
# predicate and raises its own error with the text

SIMPLEX_RULE = "the simplex to 1e-9 (each weight >= -1e-9, their sum within 1e-9 of 1)"
COUNT_RULE = "sample counts must be finite and >= 1"
NON_NEGATIVE_RULE = ">= 0 and finite"


def usable_weights(weights):
    """Whether a non-empty weight vector lies on SIMPLEX_RULE's simplex (NaN
    fails): domain weights, and a class prior."""
    w = np.asarray(weights, dtype=np.float64)
    return bool(w.size and w.min() >= -1e-9 and abs(w.sum() - 1.0) <= 1e-9)


def usable_counts(counts):
    """Whether every sample count obeys COUNT_RULE (NaN fails)."""
    c = np.asarray(counts, dtype=np.float64)
    return bool(np.all((c >= 1.0) & (c < np.inf)))


def usable_constant(value):
    """Whether a scalar coefficient is NON_NEGATIVE_RULE's (NaN fails)."""
    return 0.0 <= value < math.inf


def label_rule(n_classes):
    """The text of the label rule of usable_labels over n_classes classes."""
    return f"[0, {n_classes}) of integer dtype"


def usable_labels(labels, n_classes):
    """Whether an array of class labels obeys label_rule(n_classes); an
    empty set does, of any dtype."""
    return labels.size == 0 or (labels.dtype.kind in "iu" and labels.min() >= 0
                                and labels.max() < n_classes)


# stream tags keep independent concerns on independent rng streams
TAG_DOMAIN = 1
TAG_SHIFT = 2
TAG_BATCH = 3


def stream_rng(seed, *key):
    """Deterministic generator for (seed, key...) with independent streams
    for distinct keys."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


@dataclass
class DomainSpec:
    """Class-conditional diagonal Gaussians: means (c, d), stds (c, d),
    class prior (c,), and sample count."""

    means: np.ndarray
    stds: np.ndarray
    prior: np.ndarray
    size: int

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.stds = np.atleast_2d(np.asarray(self.stds, dtype=np.float64))
        self.prior = np.asarray(self.prior, dtype=np.float64)
        if self.stds.shape != self.means.shape:
            raise DataError("stds must match means in shape")
        if self.prior.shape != (self.means.shape[0],):
            raise DataError("one prior entry per class required")
        if not usable_weights(self.prior):
            raise DataError(f"class prior {self.prior} is not a distribution: it must "
                            f"lie on {SIMPLEX_RULE}")
        if self.size < 0:
            raise DataError("size must be >= 0")

    @property
    def n_classes(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def sample_domain(spec, seed, tag):
    """Draw (X, y) for one domain; deterministic in (seed, tag)."""
    rng = stream_rng(seed, TAG_DOMAIN, tag)
    if spec.size == 0:
        return np.zeros((0, spec.dim)), np.zeros(0, dtype=np.int64)
    y = rng.choice(spec.n_classes, size=spec.size, p=spec.prior)
    x = spec.means[y] + spec.stds[y] * rng.standard_normal((spec.size, spec.dim))
    return x, y


@dataclass
class MultiSourceDataset:
    """N labeled source sets, a labeled target set (possibly empty for the
    pseudo-label regime), and an unlabeled target set."""

    sources: list  # [(X, y), ...]
    target: tuple  # (X, y); size may be 0
    target_unlabeled: np.ndarray
    n_classes: int
    dim: int

    def __post_init__(self):
        if not self.sources or all(x.shape[0] == 0 for x, _ in self.sources):
            raise DataError("need at least one non-empty source")
        for x, y in list(self.sources) + [self.target]:
            if x.shape[0] != y.shape[0]:
                raise DataError("feature/label count mismatch")
            if x.shape[0] and x.shape[1] != self.dim:
                raise DataError(f"feature width {x.shape[1]} != {self.dim}")
            if not usable_labels(y, self.n_classes):
                raise DataError(f"label outside {label_rule(self.n_classes)}")
        if self.target_unlabeled.shape[0] and self.target_unlabeled.shape[1] != self.dim:
            raise DataError("unlabeled feature width mismatch")

    @property
    def source_sizes(self):
        return np.array([x.shape[0] for x, _ in self.sources])


def gen_gaussian_sources(source_specs, target_spec, unlabeled_size=None, seed=0):
    """Sample a MultiSourceDataset from per-domain Gaussian specs.

    The unlabeled target split is drawn from the target spec as a separate
    independent sample (size defaults to the target spec's size).
    """
    sources = [sample_domain(s, seed, tag=i) for i, s in enumerate(source_specs)]
    target = sample_domain(target_spec, seed, tag=1000)
    un_spec = DomainSpec(means=target_spec.means, stds=target_spec.stds,
                         prior=target_spec.prior,
                         size=target_spec.size if unlabeled_size is None else unlabeled_size)
    x_un, _ = sample_domain(un_spec, seed, tag=1001)
    return MultiSourceDataset(sources=sources, target=target, target_unlabeled=x_un,
                              n_classes=target_spec.n_classes, dim=target_spec.dim)


@dataclass
class ShiftSpec:
    """Deterministic class subsampling: keep exactly ceil((1-d) * count) of
    each dropped class, leaving other classes untouched."""

    drop_classes: tuple
    drop_rate: float
    seed: int = 0

    def __post_init__(self):
        self.drop_classes = tuple(int(c) for c in np.atleast_1d(self.drop_classes))
        if not 0.0 <= self.drop_rate < 1.0:
            raise DataError(f"drop rate {self.drop_rate} outside [0, 1)")


def _subsample(x, y, spec, tag):
    rng = stream_rng(spec.seed, TAG_SHIFT, tag)
    keep = np.ones(y.shape[0], dtype=bool)
    for cls in spec.drop_classes:
        idx = np.flatnonzero(y == cls)
        if idx.size == 0:
            continue
        kept = int(np.ceil((1.0 - spec.drop_rate) * idx.size))
        if kept == 0:
            raise DataError(f"class {cls} would be emptied by the shift")
        order = rng.permutation(idx.size)
        keep[idx[order[kept:]]] = False
    sel = np.flatnonzero(keep)
    sel = sel[rng.permutation(sel.size)]
    return x[sel], y[sel]


def apply_target_shift(dataset, spec):
    """Subsample the designated classes of every source; the target sets
    are returned untouched."""
    sources = [_subsample(x, y, spec, tag=i) for i, (x, y) in enumerate(dataset.sources)]
    return MultiSourceDataset(sources=sources, target=dataset.target,
                              target_unlabeled=dataset.target_unlabeled,
                              n_classes=dataset.n_classes, dim=dataset.dim)


# ---------------------------------------------------------------------------
# default desk-scale benchmark


def rotated(points, degrees):
    t = np.radians(degrees)
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return np.asarray(points) @ r.T


def default_benchmark_specs(source_angles=(15.0, 75.0), radius=2.0, std=0.85,
                            size=2000, labeled_target_size=200):
    """Two 2-class, 2-D sources whose class means are rotated relative to
    the target by per-domain angles.  `std` may be a scalar or one value
    per class; distinct spreads make the two classes structurally
    distinguishable beyond their positions."""
    base = np.array([[radius, 0.0], [-radius, 0.0]])
    std = np.broadcast_to(np.atleast_1d(np.asarray(std, dtype=np.float64)), (2,))
    stds = np.repeat(std.reshape(2, 1), 2, axis=1)
    prior = np.array([0.5, 0.5])
    target = DomainSpec(means=base, stds=stds, prior=prior, size=size)
    labeled_target = DomainSpec(means=base, stds=stds, prior=prior, size=labeled_target_size)
    sources = [DomainSpec(means=rotated(base, a), stds=stds, prior=prior, size=size)
               for a in source_angles]
    return sources, target, labeled_target


def default_benchmark(drop_rate=0.5, seed=0, labeled_target=False, **spec_kw):
    """The stock 2-source target-shift benchmark: class 1 is dropped from
    the sources at `drop_rate`, the target is untouched.

    Returns (train dataset, test dataset); the test draw is an independent
    sample of the same distributions (sources shifted identically).
    """
    sources, target, labeled = default_benchmark_specs(**spec_kw)
    if not labeled_target:
        labeled = DomainSpec(means=target.means, stds=target.stds,
                             prior=target.prior, size=0)
    train = gen_gaussian_sources(sources, labeled, unlabeled_size=target.size, seed=seed)
    test = gen_gaussian_sources(sources, target, unlabeled_size=0, seed=seed + 777_000)
    if drop_rate > 0.0:
        shift = ShiftSpec(drop_classes=(1,), drop_rate=drop_rate, seed=seed)
        train = apply_target_shift(train, shift)
        test = apply_target_shift(test, shift)
    return train, test


# ---------------------------------------------------------------------------
# CSV files: labeled feature tables (header: label,f0,f1,...), and the one
# reader, cell rule and writer every input and output table goes through


def read_table(path, leading=()):
    """(header, [(line number, row), ...]) of a csv table's non-blank rows,
    the twin of write_table.  The header, its cells stripped, must start
    with `leading`, and each row must have its field count.  Bytes that are
    not UTF-8 (read as lone surrogates, which do not encode) name their
    line, as does a fault of the csv reader itself (a field longer than
    csv.field_size_limit).  Cells stay text: see finite_floats."""
    header, rows = None, []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                try:
                    "".join(row).encode("utf-8")
                except UnicodeEncodeError:
                    raise CsvFormatError(path, reader.line_num, "bytes that are not UTF-8 text")
                if header is None:
                    header = [cell.strip() for cell in row]
                    if header[:len(leading)] != list(leading):
                        raise CsvFormatError(path, 1,
                                             f"header must start with {','.join(leading)}")
                elif row:
                    if len(row) != len(header):
                        raise CsvFormatError(path, reader.line_num, f"expected {len(header)} "
                                             f"fields as in the header, found {len(row)}")
                    rows.append((reader.line_num, row))
        except csv.Error as exc:
            raise CsvFormatError(path, reader.line_num, str(exc)) from None
    if header is None:
        raise CsvFormatError(path, 1, "missing header row")
    return header, rows


def number_text(text):
    """text, after raising ValueError unless it is ASCII and holds no '_':
    the spelling of every number read from a table or a config.  float()
    and int() would also read digit-group underscores ('1_5' as 15) and
    other scripts' digits ('\u0663' as 3)."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not ASCII without '_'")
    return text


def finite_floats(path, line_no, columns, cells):
    """The floats of a row's cells, each under its header column: the one
    rule for a number read from a table.  A cell that is not a finite
    number (number_text) raises CsvFormatError naming the file, the line
    and the column."""
    values = []
    for column, text in zip(columns, cells):
        try:
            value = float(number_text(text))
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CsvFormatError(path, line_no, f"{column} {text!r} is not a finite number")
        values.append(value)
    return values


_INT64 = np.iinfo(np.int64)


def integer_cell(path, line_no, column, text):
    """The integer a table cell under `column` spells: the one rule for an
    integer read from a table, a class label or a ledger step.  A cell that
    is not an integer (number_text), or not one a 64-bit array holds,
    raises CsvFormatError naming the file and the line."""
    try:
        value = int(number_text(text))
    except ValueError:
        raise CsvFormatError(path, line_no, f"non-integer {column} {text!r}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise CsvFormatError(path, line_no, f"{column} {text!r} is outside the 64-bit integers")
    return value


def load_csv(path):
    """Parse a labeled feature table; returns (X, y).  Each label must be an
    integer (integer_cell), each feature a finite number (finite_floats)."""
    header, rows = read_table(path, ("label",))
    if len(header) < 2:
        raise CsvFormatError(path, 1, "no feature column after label")
    xs, ys = [], []
    for line_no, row in rows:
        ys.append(integer_cell(path, line_no, "label", row[0]))
        xs.append(finite_floats(path, line_no, header[1:], row[1:]))
    return (np.asarray(xs, dtype=np.float64).reshape(len(ys), len(header) - 1),
            np.asarray(ys, dtype=np.int64))


def write_csv(path, x, y):
    """The labeled feature table load_csv reads back exactly."""
    x = np.asarray(x, dtype=np.float64)
    write_table(path, ["label"] + [f"f{i}" for i in range(x.shape[1])],
                ([int(label), *row] for label, row in zip(np.asarray(y), x)))


def write_table(path, header, rows=()):
    """One header line, then each row's values as csv spells them: a float
    as its repr (which reads back exactly), None as an empty field, anything
    else as str().  A numpy float is written as the Python float it equals,
    never as the repr of the numpy scalar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([float(v) if isinstance(v, np.floating) else v for v in row]
                         for row in rows)


# ---------------------------------------------------------------------------
# batch streams


def epoch_permutation(n, seed, epoch, tag=0):
    """The epoch's data order: a pure function of (seed, epoch, tag)."""
    return stream_rng(seed, TAG_BATCH, tag, epoch).permutation(n)


def epoch_batches(x, y, batch_size, seed, epoch=0, tag=0):
    """Seeded permutation of (x, y) cut into batches; the short final batch
    is kept.  Oversized batch sizes clamp to one full batch with a warning.
    `y` may be None for unlabeled data."""
    n = x.shape[0]
    if batch_size < 1:
        raise DataError("batch size must be >= 1")
    if batch_size > n:
        warnings.warn(f"batch size {batch_size} exceeds set size {n}; using one full batch")
        batch_size = n
    order = epoch_permutation(n, seed, epoch, tag)
    out = []
    for start in range(0, n, batch_size):
        sel = order[start:start + batch_size]
        out.append((x[sel], None if y is None else y[sel]))
    return out


def batch_stream(x, y, batch_size, seed, tag=0):
    """Endless iterator of batches, epoch after epoch; order is a pure
    function of (seed, epoch, step) and never of model state."""
    epoch = 0
    while True:
        yield from epoch_batches(x, y, batch_size, seed, epoch, tag)
        epoch += 1
