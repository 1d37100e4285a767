import json

import numpy as np
import pytest

from ammfg.artifacts import write_csv, write_json


def test_csv_cell_rule(tmp_path):
    row = [0.1 + 0.2, np.float64(1.0) / 3.0, float("nan"), True, np.True_, "DomainError: x"]
    p = write_csv(["a", "b", "c", "d", "e", "f"], [row], str(tmp_path / "out"), "t.csv",
                  "0123456789abcdef", 7)
    assert p == str(tmp_path / "out" / "t.csv")
    with open(p, newline="") as fh:
        text = fh.read()
    # the stamp lines end in \n, the csv module's rows in \r\n
    assert text == ("# config_hash=0123456789abcdef\n"
                    "# seed=7\n"
                    "a,b,c,d,e,f\r\n"
                    "0.30000000000000004,0.3333333333333333,nan,true,true,DomainError: x\r\n")


def _refuse(name):
    raise ValueError(f"bare {name} is not JSON")


def test_json_writes_every_non_finite_number_as_null(tmp_path):
    doc = {"scalar": np.float64("nan"), "vector": np.array([1.5, np.inf]),
           "nested": [np.float32(-np.inf), {"x": float("nan")}], "finite": np.float64(0.25)}
    p = write_json(doc, str(tmp_path), "doc.json", "0123456789abcdef", 7)
    with open(p) as fh:
        got = json.loads(fh.read(), parse_constant=_refuse)
    assert got == {"config_hash": "0123456789abcdef", "seed": 7, "scalar": None,
                   "vector": [1.5, None], "nested": [None, {"x": None}], "finite": 0.25}
    with pytest.raises(ValueError, match="bare NaN"):  # the hook does refuse
        json.loads("[NaN]", parse_constant=_refuse)
