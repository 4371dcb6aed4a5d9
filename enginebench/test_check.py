"""The output checker accepts the golden output and rejects corrupted ones.

    python3 -m pytest enginebench/test_check.py
"""

import pyarrow as pa
import pytest
from check import check_output, golden_slice
from workloads import SLIDING, TUMBLING

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth

SEED = 7


@pytest.fixture(scope="module", params=[TUMBLING, SLIDING], ids=["tumbling", "sliding"])
def case(request):
    cfg = request.param
    inp = synth.generate_stream(600, seed=SEED, n_sources=4, n_tok_lo=128, n_tok_hi=256)
    expected = golden_slice(inp, cfg, SEED)
    out = golden.golden_pipeline(inp, cfg).select(["doc_id", "tokens", "wm_token"])
    return inp, expected, out, cfg


def test_golden_output_passes(case):
    inp, expected, out, cfg = case
    assert expected.num_rows > 0
    assert check_output(out, 0, inp, expected, cfg) == []


def test_flipped_token_is_rejected(case):
    inp, expected, out, cfg = case
    row = out["doc_id"].to_pylist().index(expected["doc_id"][0].as_py())
    tokens = out["tokens"].to_pylist()
    tokens[row][0] += 1
    bad = out.set_column(1, "tokens", pa.array(tokens, pa.list_(pa.int32())))
    assert check_output(bad, 0, inp, expected, cfg) == ["tokens differ from golden"]


def test_dropped_row_is_rejected(case):
    inp, expected, out, cfg = case
    bad = check_output(out.slice(1), 0, inp, expected, cfg)
    assert bad == [f"committed {out.num_rows - 1} rows for {inp.num_rows} inputs "
                   "(1 missing, 0 not in the input)"]


def test_duplicated_row_is_rejected(case):
    inp, expected, out, cfg = case
    bad = check_output(pa.concat_tables([out, out.slice(5, 1)]), 0, inp, expected, cfg)
    assert bad[0] == "1 doc_ids committed more than once"


def test_late_rows_are_rejected(case):
    inp, expected, out, cfg = case
    assert check_output(out, 3, inp, expected, cfg) == ["3 rows late"]


def test_unplanted_token_is_rejected(case):
    inp, expected, out, cfg = case
    wm = out["wm_token"].to_pylist()
    wm[0] = 99  # below the planted band [100, 250]
    bad = out.set_column(2, "wm_token", pa.array(wm, pa.int32()))
    assert check_output(bad, 0, inp, expected, cfg)[0] == (
        "1 rows carry a wm_token not planted in their window"
    )
