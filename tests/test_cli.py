"""CLI parsers (M14/M15) + fixed-token override + end-to-end CLI run."""

import json

import numpy as np
import pyarrow.parquet as pq
import pytest

from pdf_watermark_removal_otsu_inpaint_ray import golden, synth
from pdf_watermark_removal_otsu_inpaint_ray.cli import main, parse_rows, parse_wm_token
from pdf_watermark_removal_otsu_inpaint_ray.config import DEFAULT_CONFIG


def test_parse_rows():
    assert parse_rows("1,3,5-10") == [1, 3, 5, 6, 7, 8, 9, 10]
    assert parse_rows("7") == [7]
    assert parse_rows("3,1,1,2-3") == [1, 2, 3]
    for bad in ("", "0", "5-2", "a", "1,,2", "1_0", "+5", "-3", "２"):
        with pytest.raises(ValueError):
            parse_rows(bad)


def test_parse_wm_token():
    assert parse_wm_token("150") == 150
    assert parse_wm_token("100,110,120") == 110  # channel mean
    for bad in ("300", "-1", "1,2", "1,2,3,4", "256,0,0"):
        with pytest.raises(ValueError):
            parse_wm_token(bad)


def test_fixed_wm_token_golden_and_pipeline(ray_session, tmp_path):
    import pyarrow as pa

    from pdf_watermark_removal_otsu_inpaint_ray.pipelines.flagship import run_flagship
    from pdf_watermark_removal_otsu_inpaint_ray.sources import read_sequences

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 200, n_sources=2, n_tok_lo=48, n_tok_hi=128)
    cfg = DEFAULT_CONFIG.with_(fixed_wm_token=150, window_kind="global")
    table = pq.read_table(p)
    expected = golden.golden_pipeline(table, cfg).sort_by("doc_id")
    assert (np.asarray(expected["wm_token"]) == 150).all()
    out = run_flagship(read_sequences(p), cfg, batch_size=64)
    got = pa.concat_tables(
        [pa.table(b) for b in out.iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")
    assert got["tokens"].to_pylist() == expected["tokens"].to_pylist()


def test_cli_run_end_to_end(ray_session, tmp_path, capsys):
    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 200, n_sources=2, n_tok_lo=48, n_tok_hi=128)
    out_dir = str(tmp_path / "out")
    rc = main(
        ["run", "--input", p, "--output", out_dir, "--window", "tumbling",
         "--window-size", "32", "--partitions", "4"]
    )
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rows"] == 200 and info["partitions"] == 4


def test_cli_rows_positional_and_streaming(ray_session, tmp_path, capsys):
    """--rows selects by 1-indexed STORAGE position (not event_ts) and is
    honored in --streaming mode too (regression: it was validated but
    silently ignored there)."""
    import pyarrow.parquet as pq

    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 60, n_sources=2, disorder=6)
    src = pq.read_table(p)
    for extra in ([], ["--streaming"]):
        out_dir = str(tmp_path / f"out_rows{'_s' if extra else ''}")
        rc = main(
            ["run", "--input", p, "--output", out_dir, "--rows", "2,5-7",
             "--partitions", "4", "--lateness", "64"] + extra
        )
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["rows"] == 4, extra
        from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output

        got = sorted(
            d
            for b in read_output(out_dir).iter_batches(batch_format="pyarrow")
            for d in b["doc_id"].to_pylist()
        )
        expect = sorted(src["doc_id"].to_pylist()[i - 1] for i in (2, 5, 6, 7))
        assert got == expect, extra


def test_cli_resume_notice_and_overwrite(ray_session, tmp_path, capsys):
    """Rerunning into a committed output dir warns about skipped partitions
    (resume is never silent); --overwrite recomputes from scratch."""
    p = str(tmp_path / "s.parquet")
    synth.write_stream(p, 80, n_sources=2)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--input", p, "--output", out_dir, "--partitions", "4"]) == 0
    capsys.readouterr()
    assert main(["run", "--input", p, "--output", out_dir, "--partitions", "4"]) == 0
    err = capsys.readouterr().err
    assert "SKIPPED" in err and "--overwrite" in err
    assert main(["run", "--input", p, "--output", out_dir, "--partitions", "4",
                 "--overwrite"]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rows"] == 80


def test_cli_streaming_topologies(ray_session, tmp_path, capsys):
    """--streaming-topology salted runs the multi-consumer engine from the
    CLI and commits the same doc_ids and tokens as the default
    single-consumer topology, with tumbling, session and global windows;
    --checkpoint-every is rejected there (the salted topology recovers by
    whole-run replay), and the removed keyed multi-consumer topology
    ``partitioned`` is an argparse error."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import pytest

    p = str(tmp_path / "topo.parquet")
    synth.write_stream(p, 80, n_sources=2, disorder=6)
    src_ids = sorted(pq.read_table(p)["doc_id"].to_pylist())
    from pdf_watermark_removal_otsu_inpaint_ray.sinks.exactly_once import read_output

    for topo in ("single", "salted"):
        out_dir = str(tmp_path / f"out_{topo}")
        rc = main(
            ["run", "--input", p, "--output", out_dir, "--partitions", "4",
             "--lateness", "64", "--streaming", "--streaming-topology", topo]
        )
        assert rc == 0, topo
        capsys.readouterr()
        got = sorted(
            d
            for b in read_output(out_dir).iter_batches(batch_format="pyarrow")
            for d in b["doc_id"].to_pylist()
        )
        assert got == src_ids, topo

    # every window kind runs on the salted topology: it commits the same
    # doc_ids and tokens as the single-consumer one
    def committed(out_dir):
        t = pa.concat_tables(
            list(read_output(out_dir).iter_batches(batch_format="pyarrow"))
        ).sort_by("doc_id")
        return t["doc_id"].to_pylist(), t["tokens"].to_pylist()

    for window in ("session", "global"):
        outs = {}
        for topo in ("single", "salted"):
            outs[topo] = str(tmp_path / f"out_{window}_{topo}")
            rc = main(
                ["run", "--input", p, "--output", outs[topo], "--partitions", "4",
                 "--lateness", "64", "--window", window, "--session-gap", "2",
                 "--streaming", "--streaming-topology", topo]
            )
            assert rc == 0, (window, topo)
            capsys.readouterr()
        assert committed(outs["salted"]) == committed(outs["single"]), window
        assert committed(outs["salted"])[0] == src_ids, window

    with pytest.raises(SystemExit, match="checkpoint-every"):
        main(
            ["run", "--input", p, "--output", str(tmp_path / "out_bad"),
             "--streaming", "--streaming-topology", "salted",
             "--checkpoint-every", "5"]
        )
    with pytest.raises(SystemExit) as exc:
        main(
            ["run", "--input", p, "--output", str(tmp_path / "out_gone"),
             "--streaming", "--streaming-topology", "partitioned"]
        )
    assert exc.value.code == 2
    assert "invalid choice: 'partitioned'" in capsys.readouterr().err
