import pytest

from groupavg import UsageError
from groupavg.io import fmt_float, load_schema, validate_schema, write_json


def test_fmt_float_17_digits_round_trip():
    for x in (1 / 3, 0.1, 2.0**-40, 123456.789):
        assert float(fmt_float(x)) == x


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
