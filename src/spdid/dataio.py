"""Subject path discovery, dense-text matrix IO, and a synthetic cohort generator."""

from __future__ import annotations

import glob
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    BaseNotFound,
    InvalidParameter,
    NoSubjectsFound,
    ParseError,
    ShapeMismatch,
    SpdError,
    SpdMatrix,
    eigensolve,
    regularize,
    symmetrize,
)
from .matfun import spectrum_map

DEFAULT_TEMPLATE = "{base}/{subject}/{task}_{scan}_{res}.txt"

_REQUIRED_PLACEHOLDERS = ("{subject}", "{task}", "{scan}", "{res}")


@dataclass(frozen=True)
class PathTemplate:
    """Filesystem layout pattern with {base}/{subject}/{task}/{scan}/{res} slots."""

    pattern: str = DEFAULT_TEMPLATE

    def __post_init__(self):
        for ph in _REQUIRED_PLACEHOLDERS:
            if ph not in self.pattern:
                raise InvalidParameter(f"path template must contain {ph}: {self.pattern!r}")
        try:  # e.g. an unknown field, a positional {}, an unbalanced brace, {res[0]}
            self._expand(base="base", task="task", scan="scan", res=1)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"bad path template {self.pattern!r}: {exc!r}") from None

    def _expand(self, **fields) -> list[str]:  # split first: a field holding "{subject}" stays
        return [part.format(**fields) for part in self.pattern.split("{subject}")]


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    task: str
    scan: str
    resolution: int
    path: str


def _subject_regex(parts: list[str]) -> re.Pattern:
    # The literal parts of a path around its {subject} slots. glob joins a
    # wildcard to its directory with one "/", so a run of them ending a part
    # (a base given as "data/" or "data//") matches a run of any length.
    pattern = ""
    for k, part in enumerate(parts[:-1]):
        pattern += re.sub(r"/+\Z", "/+", re.escape(part))
        pattern += r"(?P<subject>[^/\\]+)" if k == 0 else r"(?P=subject)"
    return re.compile(pattern + re.escape(parts[-1]) + r"\Z")


def find_subject_paths(
    base,
    task: str,
    scan: str,
    resolutions: Sequence[int],
    n: int,
    template: PathTemplate = PathTemplate(),
) -> list[SubjectRecord]:
    """Discover up to ``n`` subjects per resolution under ``base``.

    The template is expanded with a wildcard in the {subject} slot and globbed
    (glob metacharacters elsewhere match literally); subject ids are recovered
    from the matches. Results are sorted by subject id (then resolution) so
    the listing is deterministic across platforms.
    """
    base = os.fspath(base)
    if not os.path.isdir(base):
        raise BaseNotFound(f"base path is not a directory: {base!r}")
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")

    records: list[SubjectRecord] = []
    tried_globs = []
    for res in resolutions:
        parts = template._expand(base=base, task=task, scan=scan, res=res)
        glob_pattern = "*".join(glob.escape(part) for part in parts)
        tried_globs.append(glob_pattern)
        rx = _subject_regex(parts)
        found: dict[str, str] = {}
        for path in glob.glob(glob_pattern):
            m = rx.match(path)
            if m:
                found[m.group("subject")] = path
        for sid in sorted(found)[:n]:
            records.append(SubjectRecord(sid, task, scan, int(res), found[sid]))

    if not records:
        raise NoSubjectsFound(
            "no subjects matched; tried glob(s): " + ", ".join(tried_globs)
        )
    return records


def load_matrix(path, tau: float = 1e-6, expected_n: int | None = None) -> SpdMatrix:
    """Parse a dense text matrix and regularize it with diagonal shift ``tau``.

    The file is decoded as UTF-8, with or without a byte-order mark. Rows are
    lines; blank lines are skipped; entries are whitespace- or comma-separated
    (detected from the first data line). Scientific notation is accepted.
    Errors name the path.

    Numbers are read by ``np.loadtxt`` in one call. Only when it rejects the
    text does a Python tokenizer parse it again, which either words the error
    (line and field of a non-numeric token, or a ragged row) or accepts what
    ``float`` accepts and ``loadtxt`` does not: empty comma fields, a trailing
    comma, underscores between digits, and non-ASCII digits.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read as text: {exc}") from exc
    lines = [(k + 1, ln) for k, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: file contains no data")
    comma = "," in lines[0][1]
    try:
        rows = np.loadtxt(
            [ln for _, ln in lines], comments=None, ndmin=2, delimiter="," if comma else None
        )
    except ValueError:
        rows = _tokenize(path, lines, comma)

    if expected_n is not None and len(rows) != expected_n:
        raise ShapeMismatch(f"{path}: expected order {expected_n}, got {len(rows)}")
    try:
        return regularize(rows, tau)
    except SpdError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _tokenize(path, lines: list[tuple[int, str]], comma: bool) -> list[list[float]]:
    rows: list[list[float]] = []
    for lineno, ln in lines:
        tokens = [t for t in (ln.split(",") if comma else ln.split()) if t.strip()]
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric token {tok.strip()!r} at line {lineno}, field {col}"
                ) from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"{path}: ragged row at line {lineno}: {len(row)} fields, expected {len(rows[0])}"
            )
        rows.append(row)
    return rows


def save_matrix(path, entries: np.ndarray) -> None:
    """Write a dense text matrix at 17 significant digits (round-trip exact)."""
    with open(path, "w", newline="\n") as fh:
        for row in np.atleast_2d(entries):
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def generate_synthetic_cohort(
    n_subjects: int,
    n: int,
    within_noise: float,
    between_spread: float,
    seed: int,
    confound: bool = False,
) -> tuple[list[SpdMatrix], list[SpdMatrix], list[str]]:
    """Seeded two-scan synthetic cohort: (scan-1 list, scan-2 list, labels).

    Per subject a base SPD matrix is drawn (random orthogonal basis with
    log-uniform eigenvalues in [exp(-between_spread), exp(between_spread)]);
    each scan is exp(log(base) + E) with E a symmetric Gaussian perturbation
    of magnitude ``within_noise``, so outputs are SPD by construction.

    With ``confound=True`` all subjects share one off-diagonal template and
    differ only by a positive affine rescaling c*T + d*I: a scale confound
    that Pearson correlation of the off-diagonals cannot see.

    Randomness comes from the Philox 4x64 counter-based generator keyed by
    ``seed``, so a fixed seed reproduces the cohort bit for bit.
    """
    if n_subjects < 1 or n < 2:
        raise InvalidParameter("need n_subjects >= 1 and n >= 2")
    if within_noise < 0 or between_spread <= 0:
        raise InvalidParameter("within_noise must be >= 0 and between_spread > 0")

    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = [f"s{i + 1:03d}" for i in range(n_subjects)]

    if confound:
        q_t = _random_orthogonal(rng, n)
        template = spectrum_map(q_t, rng.uniform(0.1, 1.0, size=n))

    scans1: list[SpdMatrix] = []
    scans2: list[SpdMatrix] = []
    for _ in range(n_subjects):
        if confound:
            c = float(np.exp(rng.uniform(-between_spread, between_spread)))
            d = float(rng.uniform(0.0, 1.0))
            base = c * template + d * np.eye(n)
            lam, vec = eigensolve(base, vectors=True)
            log_base = spectrum_map(vec, np.log(lam))
        else:
            q = _random_orthogonal(rng, n)
            u = rng.uniform(-between_spread, between_spread, size=n)
            log_base = spectrum_map(q, u)
        for out in (scans1, scans2):
            g = rng.standard_normal((n, n))
            lam, vec = eigensolve(log_base + within_noise * symmetrize(g), vectors=True)
            out.append(regularize(spectrum_map(vec, np.exp(lam)), 0.0))
    return scans1, scans2, labels
