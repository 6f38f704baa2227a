from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdid import dataio
from spdid import (
    MetricSpec,
    PathTemplate,
    cross_distances,
    find_subject_paths,
    generate_synthetic_cohort,
    load_matrix,
    save_matrix,
)
from spdid.core import (
    BaseNotFound,
    InvalidParameter,
    NonFiniteEntry,
    NoSubjectsFound,
    NotPositiveDefinite,
    ParseError,
    ShapeMismatch,
    SpdError,
)
from support import MALFORMED_TEMPLATES

TEMPLATE = PathTemplate("{base}/{subject}/{task}_{scan}_{res}.txt")


def make_tree(base, subjects, task="REST", scans=("LR", "RL"), res=5, n=5, seed=0):
    rng = np.random.default_rng(seed)
    for sid in subjects:
        d = base / sid
        d.mkdir()
        for scan in scans:
            g = rng.standard_normal((n, n))
            save_matrix(d / f"{task}_{scan}_{res}.txt", (g + g.T) / 2 + n * np.eye(n))


class TestLoadMatrix:
    def test_whitespace_identity(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n0 1\n")
        s = load_matrix(p, tau=0.0)
        np.testing.assert_array_equal(s.entries, np.eye(2))

    def test_comma_identity(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1,0\n0,1\n")
        np.testing.assert_array_equal(load_matrix(p, tau=0.0).entries, np.eye(2))

    def test_regularization_applied(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\n0 1\n")
        s = load_matrix(p, tau=1e-6)
        np.testing.assert_allclose(
            s.entries, [[1 + 1e-6, 1.0], [1.0, 1 + 1e-6]], atol=0
        )

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1e0 0\n0 2.5E-1\n")
        np.testing.assert_array_equal(
            load_matrix(p, tau=0.0).entries, np.diag([1.0, 0.25])
        )

    def test_non_numeric_token_located(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n0 abc\n")
        with pytest.raises(ParseError) as err:
            load_matrix(p)
        assert "line 2" in str(err.value) and "abc" in str(err.value)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n0\n")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_non_square(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n")
        with pytest.raises(ShapeMismatch):
            load_matrix(p)

    @pytest.mark.parametrize("text, error, wording", [
        ("1 nan\nnan 1\n", NonFiniteEntry, "non-finite entry"),
        ("1 2\n2 1\n", NotPositiveDefinite, "smallest eigenvalue"),
        ("1 0 0\n0 1 0\n", ShapeMismatch, "expected a square matrix"),
    ], ids=["nan-entry", "not-pd", "not-square"])
    def test_validation_errors_name_the_file(self, tmp_path, text, error, wording):
        p = tmp_path / "subject7.txt"
        p.write_text(text)
        with pytest.raises(error, match=f"subject7.txt: {wording}"):
            load_matrix(p, tau=0.0)

    def test_expected_n_enforced(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n0 1\n")
        with pytest.raises(ShapeMismatch):
            load_matrix(p, expected_n=3)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"\xff\xfe\x00\x81 1 2\n")
        with pytest.raises(ParseError, match="m.txt"):
            load_matrix(p)

    def test_byte_order_mark_ignored(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text("2,1\n1,2\n", encoding="utf-8")
        bom.write_text("2,1\n1,2\n", encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        np.testing.assert_array_equal(
            load_matrix(bom, tau=0.0).entries, load_matrix(plain, tau=0.0).entries
        )

    def test_directory_path(self, tmp_path):
        p = tmp_path / "m.txt"
        p.mkdir()
        with pytest.raises(ParseError, match="m.txt"):
            load_matrix(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="absent.txt"):
            load_matrix(tmp_path / "absent.txt")

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((7, 7))
        m = (g + g.T) / 2 + 7 * np.eye(7)
        p = tmp_path / "m.txt"
        save_matrix(p, m)
        back = load_matrix(p, tau=0.0)
        assert np.abs(back.entries - m).max() <= 1e-12


def _load_outcome(path):
    try:
        return "ok", load_matrix(path).entries.tobytes()
    except SpdError as exc:
        return type(exc), str(exc)


def _fast_and_fallback(path):
    """load_matrix as is, and again with np.loadtxt refusing every input."""
    fast = _load_outcome(path)
    with mock.patch.object(dataio.np, "loadtxt", side_effect=ValueError("forced")):
        fallback = _load_outcome(path)
    return fast, fallback


_ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _matrix_text(draw):
    # Diagonally dominant, so validation passes and the entries are compared.
    n = draw(st.integers(1, 4))
    comma = draw(st.booleans())
    seps = [",", ", ", " ,", ",,", ",\t"] if comma else [" ", "\t", "\xa0", "  "]
    lines = []
    for i in range(n):
        cells = []
        for j in range(n):
            v = draw(st.floats(n, 1e6) if i == j else st.floats(-1.0, 1.0))
            tok = draw(st.sampled_from(["{!r}", "{:.17g}", "{:.3e}"])).format(v)
            look = draw(st.sampled_from(["plain", "underscore", "arabic"]))
            if look == "underscore" and tok[:2].isdigit():
                tok = tok[0] + "_" + tok[1:]
            elif look == "arabic":
                tok = tok.translate(_ARABIC_DIGITS)
            cells.append(tok)
        sep = draw(st.sampled_from(seps))
        tail = draw(st.sampled_from(["", " ", sep.strip() if comma else "\t"]))
        lines.append(sep.join(cells) + tail)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


_PIECES = [*"0123456789+-.eE_, \t\xa0#", "١", "nan", "inf"]
_RANDOM_TEXT = st.lists(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join), min_size=1, max_size=5
).map("\n".join)


class TestFastPathAndFallbackAgree:
    """np.loadtxt parses; the tokenizer it falls back to must give the same result."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_matrix_text(), _RANDOM_TEXT))
    def test_agree_on_drawn_text(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "drawn.txt"
        p.write_bytes(text.encode("utf-8"))
        fast, fallback = _fast_and_fallback(p)
        assert fast == fallback

    @pytest.mark.parametrize("text, outcome", [
        ("2,1,\n1,2,\n", "ok"),
        ("2,,1\n1,,2\n", "ok"),
        ("2 1\n1 2 # note\n", ParseError),
        ("2 nan\nnan 2\n", NonFiniteEntry),
        ("\ufeff2 1\n1 2\n", "ok"),
        ("2 1\r\n1 2\r\n", "ok"),
        ("\n \t\n2 1\n\xa0\n1 2\n\n", "ok"),
        ("2 1\n1\n", ParseError),
        ("3\n", "ok"),
        ("2\n1\n", ShapeMismatch),
        ("1_0 1\n1 2\n", "ok"),
        ("٢ 1\n1 2\n", "ok"),
    ], ids=[
        "trailing-comma", "empty-comma-field", "hash", "nan", "bom", "crlf",
        "whitespace-lines", "ragged", "1x1", "single-column", "underscore", "arabic-digit",
    ])
    def test_agree_on_named_cases(self, tmp_path, text, outcome):
        p = tmp_path / "m.txt"
        p.write_bytes(text.encode("utf-8"))
        fast, fallback = _fast_and_fallback(p)
        assert fast == fallback
        assert fast[0] == outcome

    def test_plain_files_skip_the_tokenizer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_tokenize", mock.Mock(side_effect=AssertionError))
        for text in ("2 1\n1 2\n", "2,1\n1,2\n", " 2\t1 \n\n1  2\n"):
            p = tmp_path / "m.txt"
            p.write_text(text)
            load_matrix(p)


class TestFindSubjectPaths:
    def test_discovery_truncated_and_sorted(self, tmp_path):
        make_tree(tmp_path, ["s03", "s01", "s02"])
        recs = find_subject_paths(tmp_path, "REST", "LR", [5], n=2, template=TEMPLATE)
        assert [r.subject_id for r in recs] == ["s01", "s02"]
        assert all(r.resolution == 5 and r.scan == "LR" for r in recs)

    def test_n_zero_rejected(self, tmp_path):
        make_tree(tmp_path, ["s01"])
        with pytest.raises(InvalidParameter, match="n must be >= 1"):
            find_subject_paths(tmp_path, "REST", "LR", [5], 0, TEMPLATE)

    def test_n_larger_than_available(self, tmp_path):
        make_tree(tmp_path, ["s01", "s02"])
        recs = find_subject_paths(tmp_path, "REST", "LR", [5], n=99, template=TEMPLATE)
        assert len(recs) == 2

    def test_prefix_property(self, tmp_path):
        make_tree(tmp_path, [f"s{i:02d}" for i in range(6)])
        small = find_subject_paths(tmp_path, "REST", "LR", [5], 3, TEMPLATE)
        large = find_subject_paths(tmp_path, "REST", "LR", [5], 6, TEMPLATE)
        assert large[: len(small)] == small

    def test_empty_base(self, tmp_path):
        with pytest.raises(NoSubjectsFound) as err:
            find_subject_paths(tmp_path, "REST", "LR", [5], 3, TEMPLATE)
        assert "glob" in str(err.value)

    def test_missing_base(self, tmp_path):
        with pytest.raises(BaseNotFound):
            find_subject_paths(tmp_path / "nope", "REST", "LR", [5], 3, TEMPLATE)

    def test_one_record_per_subject_resolution(self, tmp_path):
        make_tree(tmp_path, ["s01"], res=5, n=5)
        save_matrix(tmp_path / "s01" / "REST_LR_3.txt", np.eye(3))
        recs = find_subject_paths(tmp_path, "REST", "LR", [5, 3], 10, TEMPLATE)
        assert [(r.subject_id, r.resolution) for r in recs] == [("s01", 5), ("s01", 3)]

    @pytest.mark.parametrize("base_name", ["run[1]", "a*b"])
    def test_glob_metacharacters_in_base_match_literally(self, tmp_path, base_name):
        base = tmp_path / base_name
        base.mkdir()
        make_tree(base, ["s01", "s02"])
        # "a*b" as a glob would also match this sibling; "run[1]" would match only "run1".
        sibling = tmp_path / "aXb"
        sibling.mkdir()
        make_tree(sibling, ["s99"])
        recs = find_subject_paths(base, "REST", "LR", [5], 10, TEMPLATE)
        assert [r.subject_id for r in recs] == ["s01", "s02"]
        assert all(r.path.startswith(str(base)) for r in recs)

    def test_subject_placeholder_text_in_base_is_literal(self, tmp_path):
        base = tmp_path / "edge" / "d{subject}"
        base.mkdir(parents=True)
        make_tree(base, ["s01"], scans=("LR",), res=2)
        recs = find_subject_paths(base, "REST", "LR", [2], 10, TEMPLATE)
        assert [(r.subject_id, r.path) for r in recs] == [
            ("s01", str(base / "s01" / "REST_LR_2.txt"))
        ]

    def test_trailing_slashes_on_base_find_the_same_subjects(self, tmp_path):
        make_tree(tmp_path, ["s01", "s02"])
        want = find_subject_paths(tmp_path, "REST", "LR", [5], 10, TEMPLATE)
        for suffix in ("/", "//"):
            recs = find_subject_paths(f"{tmp_path}{suffix}", "REST", "LR", [5], 10, TEMPLATE)
            assert recs == want

    def test_template_requires_placeholders(self):
        with pytest.raises(InvalidParameter):
            PathTemplate("{base}/{subject}/{task}.txt")

    def test_template_that_cannot_format_rejected(self):
        # each is rejected when the template is built, not with a KeyError, IndexError or
        # ValueError from the search that formats it
        for pattern in MALFORMED_TEMPLATES:
            with pytest.raises(InvalidParameter, match="bad path template"):
                PathTemplate(pattern)


class TestSyntheticCohort:
    def test_seed_determinism(self):
        a = generate_synthetic_cohort(4, 6, 0.05, 2.0, seed=123)
        b = generate_synthetic_cohort(4, 6, 0.05, 2.0, seed=123)
        for x, y in zip(a[0] + a[1], b[0] + b[1]):
            np.testing.assert_array_equal(x.entries, y.entries)
        assert a[2] == b[2]

    def test_different_seeds_differ(self):
        a = generate_synthetic_cohort(2, 6, 0.05, 2.0, seed=1)
        b = generate_synthetic_cohort(2, 6, 0.05, 2.0, seed=2)
        assert np.abs(a[0][0].entries - b[0][0].entries).max() > 1e-6

    def test_zero_noise_scans_identical(self):
        lr, rl, labels = generate_synthetic_cohort(3, 6, 0.0, 2.0, seed=5)
        for x, y in zip(lr, rl):
            np.testing.assert_array_equal(x.entries, y.entries)
        d = cross_distances(lr, rl, MetricSpec("log"), labels, labels)
        assert np.abs(np.diag(d.values)).max() == 0.0

    def test_diagonal_shrinks_with_noise(self):
        diags = []
        for noise in (0.2, 0.05, 0.01):
            lr, rl, labels = generate_synthetic_cohort(3, 6, noise, 2.0, seed=9)
            d = cross_distances(lr, rl, MetricSpec("log"), labels, labels)
            diags.append(float(np.diag(d.values).max()))
        assert diags[0] > diags[1] > diags[2]

    def test_separation_regime_identifies_perfectly(self):
        from spdid import both_directions, id_report

        lr, rl, labels = generate_synthetic_cohort(8, 12, 0.005, 2.0, seed=7)
        d12, d21 = both_directions(lr, rl, MetricSpec("alpha_z", 0.99, 1.0), labels, labels)
        assert id_report(d12, d21).mean == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            generate_synthetic_cohort(0, 6, 0.1, 2.0, seed=1)
        with pytest.raises(InvalidParameter):
            generate_synthetic_cohort(2, 1, 0.1, 2.0, seed=1)
        with pytest.raises(InvalidParameter):
            generate_synthetic_cohort(2, 6, -0.1, 2.0, seed=1)
        with pytest.raises(InvalidParameter):
            generate_synthetic_cohort(2, 6, 0.1, 0.0, seed=1)

    def test_confound_mode_deterministic(self):
        a = generate_synthetic_cohort(3, 8, 0.02, 1.5, seed=11, confound=True)
        b = generate_synthetic_cohort(3, 8, 0.02, 1.5, seed=11, confound=True)
        for x, y in zip(a[0] + a[1], b[0] + b[1]):
            np.testing.assert_array_equal(x.entries, y.entries)
