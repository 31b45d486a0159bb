import tracemalloc

import numpy as np
import pytest

from groupavg import SizeLimitError, UsageError
from groupavg.experiments.regression import RegressionConfig, RegressionResult, regression_csv
from groupavg.experiments.rotation import grid_csv
from groupavg.io import load_schema, validate_schema, write_json, write_text
from groupavg.separation import SeparationRow, separation_csv
from oracles import grid_csv_as_string

# values whose shortest round trip needs up to 17 significant digits, a huge one, a subnormal, 0
HARD_FLOATS = [1 / 3, 0.1, 2.0**-40, 123456.789, 2 / 3 * 1e300, 5e-324, 0.1 + 0.2, 0.0]


def _columns(csv_text: str, names: list[str]) -> list[list[str]]:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    return [[line.split(",")[header.index(n)] for n in names] for line in lines[1:]]


def _assert_bits(fields: list[str], want: list[float]) -> None:
    assert [float(f).hex() for f in fields] == [float(x).hex() for x in want]


def test_csv_writers_round_trip_floats_bit_for_bit():
    rows = [SeparationRow("signflip", 4, 2, 4, 3, x, 7, "ok") for x in HARD_FLOATS]
    _assert_bits([e for (e,) in _columns(separation_csv(rows), ["eps"])], HARD_FLOATS)

    for i, x in enumerate(HARD_FLOATS):
        y = HARD_FLOATS[-1 - i]
        result = RegressionResult(
            config=RegressionConfig(sigma=y, eps=x),
            m=4, m_triv=1, risks=dict.fromkeys(("erm", "exact", "weak"), x),
            stderrs=dict.fromkeys(("erm", "exact", "weak"), y), scheme_eps=x, scheme_size=3,
        )
        for fields in _columns(regression_csv(result), ["risk", "stderr", "sigma", "eps"]):
            _assert_bits(fields, [x, y, y, x])

    xs, ys = np.array(HARD_FLOATS[:4]), -np.array(HARD_FLOATS[4:])
    values = np.outer(ys, xs) / 3
    cells = _columns("".join(grid_csv(xs, ys, values)), ["x", "y", "value"])
    want = [(x, y, values[iy, ix]) for iy, y in enumerate(ys) for ix, x in enumerate(xs)]
    for got, (x, y, v) in zip(cells, want, strict=True):
        _assert_bits(got, [x, y, v])


def test_write_text_takes_a_string_or_chunks(tmp_path):
    write_text(tmp_path / "new" / "whole.txt", "a\nb\n")
    write_text(tmp_path / "new" / "chunks.txt", iter(["a\n", "", "b\n"]))
    assert (tmp_path / "new" / "whole.txt").read_bytes() == b"a\nb\n"
    assert (tmp_path / "new" / "chunks.txt").read_bytes() == b"a\nb\n"
    with pytest.raises(UsageError, match="^cannot write"):
        write_text(tmp_path / "new", iter(["a\n"]))  # a directory

    def refused():
        yield "a\n"
        raise SizeLimitError("too large")

    # an error of the program's own, raised while the chunks are made, is not
    # taken for a write failure
    with pytest.raises(SizeLimitError, match="^too large$"):
        write_text(tmp_path / "refused.txt", refused())


# -0.0, 1e300-scale, subnormals and values needing 17 digits
GRID_SPECIALS = [-0.0, 0.0, 1e300, -2 / 3 * 1e300, 5e-324, -(2.0**-1060), 1 / 3, 0.1 + 0.2]


def test_grid_csv_streams_the_bytes_of_the_string_oracle():
    xs, ys = np.array(GRID_SPECIALS), -np.array(GRID_SPECIALS[::-1])
    shift = np.add.outer(np.arange(len(ys)), np.arange(len(xs))) % len(GRID_SPECIALS)
    values = np.array(GRID_SPECIALS)[shift]  # every special in every row and column
    chunks = list(grid_csv(xs, ys, values))
    assert len(chunks) == 1 + len(ys)  # the header, then one chunk per grid row
    assert "".join(chunks) == grid_csv_as_string(xs, ys, values)
    values = np.random.default_rng(0).standard_normal((3, 5))
    assert "".join(grid_csv(xs[:5], ys[:3], values)) == grid_csv_as_string(xs[:5], ys[:3], values)


def test_grid_csv_is_written_row_by_row(tmp_path):
    n = 400
    xs = np.linspace(-1.0, 1.0, n)
    values = np.random.default_rng(0).standard_normal((n, n))
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        write_text(path, grid_csv(xs, xs, values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 10 MB of text; held whole, it would peak at several times that
    assert path.stat().st_size > 9_000_000
    assert peak < 2_000_000, peak


def test_all_shipped_schemas_load():
    names = [
        "metadata",
        "scheme",
        "certification",
        "kbound",
        "lowerbound",
        "figure1_summary",
        "group_info",
        "irreps_info",
        "search",
        "selftest",
    ]
    for name in names:
        schema = load_schema(name)
        assert schema["type"] == "object"


def test_validator_rejections():
    schema = load_schema("scheme")
    good = {
        "group": {"spec": "cyclic:2", "family": "cyclic", "order": 2},
        "support": [0, 1],
        "weights": [0.5, 0.5],
        "size": 2,
    }
    validate_schema(good, schema)
    with pytest.raises(UsageError):
        validate_schema({**good, "size": "two"}, schema)
    with pytest.raises(UsageError):
        validate_schema({**good, "support": [0, -1]}, schema)
    missing = dict(good)
    del missing["weights"]
    with pytest.raises(UsageError):
        validate_schema(missing, schema)


def test_validator_enum_and_bool():
    schema = load_schema("certification")
    report = {
        "eps_weak": 0.1,
        "eps_strong": 0.2,
        "method": "projector_path",
        "per_irrep_norms": None,
        "degenerate": False,
        "tolerances": {"sandwich_slack": 1e-9},
    }
    validate_schema(report, schema)
    with pytest.raises(UsageError):
        validate_schema({**report, "method": "guesswork"}, schema)
    with pytest.raises(UsageError):
        validate_schema({**report, "degenerate": 1}, schema)  # bool is not integer


def test_write_json_checks_the_schema_its_file_names(tmp_path):
    payload = {"group": "cyclic:3", "rep": "regular", "order": 3, "k_bound": 3}
    write_json(tmp_path / "out" / "kbound.json", payload)  # makes the directory
    with pytest.raises(UsageError, match="missing required key 'k_bound'"):
        write_json(tmp_path / "bad" / "kbound.json", {k: v for k, v in payload.items() if k != "k_bound"})
    with pytest.raises(UsageError, match="missing required key"):  # the metadata schema
        write_json(tmp_path / "bad" / "kbound_meta.json", payload)
    assert not (tmp_path / "bad").exists()
