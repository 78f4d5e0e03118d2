import math

import numpy as np
import pytest

from qms.channels import GeneratorMap, SuperOperator, depolarizing_channel
from qms.errors import SchemaError
from qms.finite_time import BoundReport
from qms.serialize import (channel_from_dict, channel_from_json, channel_to_dict,
                           dumps_json, load_channel, loads_strict,
                           report_to_dict, reports_to_csv, state_from_dict,
                           state_to_dict)


def test_channel_roundtrip_superoperator():
    t = depolarizing_channel(0.3)
    doc = channel_to_dict(t)
    back = channel_from_dict(doc)
    assert isinstance(back, SuperOperator)
    assert np.allclose(back.matrix, t.matrix)
    assert back.trace_preserving


def test_channel_roundtrip_generator():
    from qms.channels import depolarizing_generator
    gen = depolarizing_generator(1.0)
    back = channel_from_dict(channel_to_dict(gen))
    assert isinstance(back, GeneratorMap)
    assert np.allclose(back.matrix, gen.matrix)


def test_kraus_document():
    doc = {"dim": 2, "representation": "kraus",
           "data": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
           "label": "identity"}
    t = channel_from_dict(doc)
    assert np.allclose(t.matrix, np.eye(4))
    assert t.label == "identity"


def test_stochastic_document():
    doc = {"dim": 2, "representation": "stochastic",
           "data": [[0.5, 0.5], [0.25, 0.75]]}
    t = channel_from_dict(doc)
    assert t.trace_preserving


def test_rejects_nan_token():
    with pytest.raises(SchemaError):
        loads_strict('{"x": NaN}')
    with pytest.raises(SchemaError):
        loads_strict('{"x": Infinity}')


def test_rejects_bad_dimension_with_field_address():
    doc = {"dim": 2, "representation": "superoperator",
           "data": [[[0, 0]] * 4] * 3}
    with pytest.raises(SchemaError) as err:
        channel_from_dict(doc)
    assert "data" in str(err.value)


def test_rejects_malformed_entry_with_path():
    doc = {"dim": 2, "representation": "stochastic",
           "data": [[0.5, "x"], [0.25, 0.75]]}
    with pytest.raises(SchemaError) as err:
        channel_from_dict(doc)
    assert "data[0][1]" in str(err.value)


@pytest.mark.parametrize("parse, doc, address", [
    (channel_from_dict, {"dim": True, "representation": "superoperator",
                         "data": [[[1.0, 0.0]]]}, "dim"),
    (state_from_dict, {"dim": True, "data": [[[1.0, 0.0]]]}, "dim"),
    (channel_from_dict, {"dim": 2, "representation": "kraus",
                         "data": [[[[1, 0], [0, 0]], [[0, 0], [True, False]]]]},
     "data[0][1][1]"),
    (state_from_dict, {"dim": 2, "data": [[[0.5, 0], [0, 0]],
                                          [[0, 0], [0.5, False]]]},
     "data[1][1]"),
    (channel_from_dict, {"dim": 2, "representation": "stochastic",
                         "data": [[True, 0.0], [0.0, 1.0]]}, "data[0][0]"),
], ids=["channel_dim", "state_dim", "complex_entry", "state_entry", "real_entry"])
def test_rejects_json_booleans_as_numbers(parse, doc, address):
    # bool is an int subclass, so true would otherwise read as 1
    with pytest.raises(SchemaError) as err:
        parse(doc)
    assert str(err.value).startswith(f"{address}: ")


def test_rejects_unknown_representation():
    with pytest.raises(SchemaError):
        channel_from_dict({"dim": 2, "representation": "choi", "data": []})


def test_json_syntax_error_carries_line():
    with pytest.raises(SchemaError) as err:
        channel_from_json("{\n  broken")
    assert "line 2" in str(err.value)


def test_load_channel_names_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2}')
    with pytest.raises(SchemaError) as err:
        load_channel(str(path))
    assert "bad.json" in str(err.value)


def test_state_roundtrip():
    from qms.channels import maximally_mixed
    rho = maximally_mixed(3)
    back = state_from_dict(state_to_dict(rho))
    assert np.allclose(back.matrix, rho.matrix)


def test_reports_csv_header_and_blanks():
    rows = [BoundReport(n_or_t=1.0, exact=0.5, bound=0.6, slack=0.1,
                        regime="post_threshold", K=1.0, rate=0.5,
                        recipe="chi2"),
            BoundReport(n_or_t=math.nan, exact=math.nan, bound=math.nan,
                        slack=math.nan, regime="error", instance=3,
                        error="boom")]
    text = reports_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "instance,n_or_t,exact,bound,slack,regime,K,rate,recipe,kappa_variant"
    assert lines[1].startswith(",1.0,0.5,")
    assert lines[2].startswith("3,,,")


def test_dumps_json_is_deterministic_and_sorted():
    a = dumps_json({"b": 1, "a": [1.5, 2.25]})
    b = dumps_json({"a": [1.5, 2.25], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_report_rows_map_nan_to_null_in_json():
    rows = [BoundReport(n_or_t=math.nan, exact=0.5, bound=0.6, slack=0.1,
                        regime="fixed_point", kappa_variant="tau_z"),
            BoundReport(n_or_t=2.0, exact=math.nan, bound=math.nan,
                        slack=math.nan, regime="error", instance=3,
                        error="boom")]
    docs = loads_strict(dumps_json([report_to_dict(r) for r in rows]))
    assert docs[0] == {"instance": None, "n_or_t": None, "exact": 0.5,
                       "bound": 0.6, "slack": 0.1, "regime": "fixed_point",
                       "K": None, "rate": None, "recipe": "",
                       "kappa_variant": "tau_z"}
    assert docs[1]["n_or_t"] == 2.0 and docs[1]["exact"] is None
    assert docs[1]["instance"] == 3 and docs[1]["error"] == "boom"


def test_serialize_imports_only_channels_and_errors():
    # the codecs must load without finite_time, so a command that only
    # reads a channel file does not pull in the bound machinery
    import ast
    from pathlib import Path

    import qms.serialize

    tree = ast.parse(Path(qms.serialize.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("qms")):
            internal.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            internal.update(a.name for a in node.names if a.name.startswith("qms"))
    assert internal == {".channels", ".errors"}
