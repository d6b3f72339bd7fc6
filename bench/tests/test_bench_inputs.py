import hashlib

import numpy as np
import pytest

import inputs
from inputs import FULL_PRECISION, THOUSANDTHS, write_input

PINNED_FULL_1000_SEED0 = "e455d880f8ccf86672d0f6bc99d5429f73258d35ddd4b9c510c25cbb68c7f618"


def _read(path):
    with open(path, encoding="ascii") as handle:
        return handle.read().splitlines()


@pytest.mark.parametrize("style", [FULL_PRECISION, THOUSANDTHS])
def test_same_seed_same_bytes(tmp_path, monkeypatch, style):
    monkeypatch.setattr(inputs, "_CHUNK_ROWS", 7)  # several chunks on a small file
    a = write_input(str(tmp_path / "a.csv"), 50, 3, style)
    b = write_input(str(tmp_path / "b.csv"), 50, 3, style)
    c = write_input(str(tmp_path / "c.csv"), 50, 4, style)
    data = (tmp_path / "a.csv").read_bytes()
    assert data == (tmp_path / "b.csv").read_bytes()
    assert a.sha256 == b.sha256 == hashlib.sha256(data).hexdigest()
    assert c.sha256 != a.sha256
    assert a.rows == 50 and len(_read(a.path)) == 51


def test_bytes_are_pinned(tmp_path):
    # Guards the cross-version promise: a numpy or formatting change that
    # alters the inputs shows here instead of as a silent baseline shift.
    made = write_input(str(tmp_path / "x.csv"), 1000, 0, FULL_PRECISION)
    assert made.sha256 == PINNED_FULL_1000_SEED0


@pytest.mark.parametrize("style", [FULL_PRECISION, THOUSANDTHS])
def test_cohort_matches_the_cells_written(tmp_path, style):
    made = write_input(str(tmp_path / "x.csv"), 400, 9, style)
    header, *rows = _read(made.path)
    assert header == "y,m1,m2"
    cells = [row.split(",") for row in rows]
    assert [c[0] == "1" for c in cells] == made.cohort.outcomes.tolist()
    for j, name in ((1, "m1"), (2, "m2")):
        parsed = np.array([float(c[j]) for c in cells])
        assert np.array_equal(parsed, made.cohort.risks[name])
        assert ((parsed >= 0.0) & (parsed <= 1.0)).all()
    if style == THOUSANDTHS:
        assert all(len(c[1]) == 5 and len(c[2]) == 5 for c in cells)


def test_m2_is_m1_shifted_half_a_logit(tmp_path):
    made = write_input(str(tmp_path / "x.csv"), 2000, 1, FULL_PRECISION)
    m1, m2 = made.cohort.risks["m1"], made.cohort.risks["m2"]
    logit = lambda p: np.log(p / (1.0 - p))  # noqa: E731
    assert np.allclose(logit(m2) - logit(m1), 0.5, atol=1e-9)


def test_bad_last_outcome_only_in_last_row(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "_CHUNK_ROWS", 16)
    made = write_input(str(tmp_path / "x.csv"), 40, 2, FULL_PRECISION, bad_last_outcome="1.0")
    rows = _read(made.path)[1:]
    assert rows[-1].split(",")[0] == "1.0"
    assert all(r.split(",")[0] in ("0", "1") for r in rows[:-1])
