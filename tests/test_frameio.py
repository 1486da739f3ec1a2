import json
import re

import numpy as np
import pytest

from etfspectra import frameio
from etfspectra import frames as fr


@pytest.mark.parametrize("family,params", [
    ("dss", {"n": 11}),
    ("real_paley", {"q": 5}),
    ("gaussian_iid", {"n": 12, "m": 6, "seed": 4}),
])
def test_round_trip(tmp_path, family, params):
    F = fr.construct(family, **params)
    path = tmp_path / "frame.json"
    frameio.save_frame(F, path)
    G = frameio.load_frame(path)
    assert G.family == F.family
    assert (G.m, G.n) == (F.m, F.n)
    assert G.is_complex == F.is_complex
    assert np.array_equal(G.entries, F.entries)


def test_bytes_deterministic(tmp_path):
    F = fr.construct_dss(7)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    frameio.save_frame(F, p1)
    frameio.save_frame(F, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_foreign_file(tmp_path):
    good = tmp_path / "dss7.json"
    frameio.save_frame(fr.construct_dss(7), good)  # m = 3, n = 7, complex
    doc = json.loads(good.read_text())
    path = tmp_path / "x.json"
    cases = [
        ({"format": "something-else"}, "not a etfspectra-frame v1 file"),
        ([1, 2], "not a etfspectra-frame v1 file"),
        ({k: v for k, v in doc.items() if k != "m"}, "missing m"),
        ({**doc, "field": "quaternion"}, "field must be 'real' or 'complex'; got 'quaternion'"),
        ({**doc, "n": 6}, "data_b64 holds 42 values; a complex 3x6 frame has 36"),
        ({**doc, "field": "real"}, "data_b64 holds 42 values; a real 3x7 frame has 21"),
        ("frame: dss7\n", f"{path}: not a JSON document (Expecting value"),
        ({**doc, "data_b64": "AAAA"}, f"{path}: data_b64 is not base64 of whole float64 values"),
        ({**doc, "data_b64": "AA!A"}, f"{path}: data_b64 is not base64 of whole float64 values"),
    ]
    for content, reason in cases:  # a str is written as it is, anything else as JSON
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        with pytest.raises(ValueError, match=re.escape(reason)):
            frameio.load_frame(path)
