import numpy as np
import pytest

from groupavg import UsageError
from groupavg.experiments.regression import RegressionConfig, RegressionResult, regression_csv
from groupavg.experiments.rotation import grid_csv
from groupavg.io import load_schema, validate_schema, write_json
from groupavg.separation import SeparationRow, separation_csv

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
    cells = _columns(grid_csv(xs, ys, values), ["x", "y", "value"])
    want = [(x, y, values[iy, ix]) for iy, y in enumerate(ys) for ix, x in enumerate(xs)]
    for got, (x, y, v) in zip(cells, want, strict=True):
        _assert_bits(got, [x, y, v])


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
