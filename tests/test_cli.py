import pytest

from trielect.cli import main
from trielect.generators import ring18
from trielect.support import format_shape_text


def test_gen_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "h.cfg"
    assert main(["gen", "--shape", "hexagon1", "--init", "erosion", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["verify", "--config", str(out)]) == 0
    text = capsys.readouterr().out
    assert "valid=yes sinks=1" in text


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    argv = ["gen", "--random", "9", "--seed", "5", "--init", "random", "--conflict-prob", "0.1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_ring18_file(tmp_path, capsys):
    shape = tmp_path / "ring18.shape"
    shape.write_text(format_shape_text(ring18().support.cells))
    rc = main(["gen", "--file", str(shape), "--init", "all-in", "--out", str(tmp_path / "r.cfg")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not simply connected" in err
    # message cites a cell of the enclosed hole
    assert "(" in err and ")" in err


def test_gen_rejects_ring18_shape_name(tmp_path):
    rc = main(["gen", "--shape", "ring18", "--init", "all-in", "--out", str(tmp_path / "r.cfg")])
    assert rc == 2


def test_gen_unknown_shape(tmp_path):
    assert main(["gen", "--shape", "nope", "--out", str(tmp_path / "x.cfg")]) == 2


def test_run_erosion_is_immediately_final(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    main(["gen", "--shape", "hexagon1", "--init", "erosion", "--out", str(cfg)])
    assert main(["run", "--config", str(cfg), "--scheduler", "roundrobin"]) == 0
    assert "FINAL steps=0 sinks=1" in capsys.readouterr().out


def test_run_random_converges_and_traces(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    main(["gen", "--random", "8", "--seed", "3", "--init", "random", "--out", str(cfg)])
    capsys.readouterr()
    trace = tmp_path / "run.trace"
    rc = main([
        "run", "--config", str(cfg), "--scheduler", "random", "--seed", "1",
        "--trace", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("FINAL steps=")
    assert "sinks=1" in out
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# trace shape=")
    assert len(lines) >= 1


def test_verify_flags_violations(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    rc = main(["verify", "--config", str(cfg), "--per-particle"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "valid=no" in out
    assert "FAIL" in out


def test_verify_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("shape\n0 0\ncells\n0 0 | 9 +1 | I I I I I I\n")
    assert main(["verify", "--config", str(bad)]) == 2
    bad.write_text("not a config at all\n")
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_enum_unique_sink_small(capsys):
    assert main(["enum", "--n", "3", "--check", "unique-sink"]) == 0
    out = capsys.readouterr().out
    assert "supports=11" in out
    assert "0 counterexamples" in out


def test_enum_silence_small(capsys):
    assert main(["enum", "--n", "3", "--check", "silence"]) == 0
    assert "0 counterexamples" in capsys.readouterr().out


def test_enum_witness_and_census(capsys):
    assert main(["enum", "--n", "4", "--check", "boundary-witness"]) == 0
    assert main(["enum", "--n", "4", "--check", "angle-census"]) == 0


def test_enum_parallel_jobs(capsys):
    assert main(["enum", "--n", "4", "--check", "unique-sink", "--jobs", "2"]) == 0
    assert "0 counterexamples" in capsys.readouterr().out


def test_search_unfair_and_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cycle.cfg"
    script_path = tmp_path / "cycle.script"
    rc = main([
        "search-unfair", "--shape", "hexagon1",
        "--out-config", str(cfg_path), "--out-script", str(script_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycle found" in out and "period" in out

    rc = main([
        "run", "--config", str(cfg_path),
        "--scheduler", f"script:{script_path}", "--max-steps", "60",
    ])
    assert rc == 0
    assert "CAP steps=60" in capsys.readouterr().out


def test_search_unfair_not_found_on_small_shapes(capsys):
    assert main(["search-unfair", "--max-n", "3"]) == 1
    assert "no cycle" in capsys.readouterr().out


def test_render_counts(tmp_path):
    cfg = tmp_path / "h.cfg"
    svg = tmp_path / "h.svg"
    main(["gen", "--shape", "hexagon1", "--init", "erosion", "--out", str(cfg)])
    assert main(["render", "--config", str(cfg), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 7
    assert text.count("marker-end") == 12  # every edge directed
    assert text.count('class="cell sink"') == 1
    assert text.count("undirected") >= 1  # style block only


def test_render_all_in_triangle_dashes(tmp_path):
    cfg = tmp_path / "t.cfg"
    svg = tmp_path / "t.svg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    main(["render", "--config", str(cfg), "--out", str(svg)])
    text = svg.read_text()
    assert text.count('class="edge undirected"') == 3
    assert "marker-end" not in text.split("</defs>")[1]


def test_render_trace_frame(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    trace = tmp_path / "p.trace"
    main(["gen", "--shape", "line2", "--init", "all-in", "--out", str(cfg)])
    main(["run", "--config", str(cfg), "--scheduler", "roundrobin", "--trace", str(trace)])
    svg = tmp_path / "frame.svg"
    rc = main([
        "render", "--config", str(cfg), "--trace", str(trace), "--frame", "1",
        "--out", str(svg),
    ])
    assert rc == 0
    assert 'class="edge directed"' in svg.read_text()


def test_usage_error_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--shape", "hexagon1"])  # missing --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["enum", "--n", "3", "--check", "bogus"])
    assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2


def test_enum_over_budget_exits_2(capsys, monkeypatch):
    import trielect.oracle as oracle_mod

    def tiny_budget(support, max_edges=24):
        raise oracle_mod.StateSpaceTooLarge("over budget")

    monkeypatch.setattr(oracle_mod, "check_unique_sink", tiny_budget)
    assert main(["enum", "--n", "2", "--check", "unique-sink"]) == 2
    assert "over budget" in capsys.readouterr().err


def test_run_rejects_alien_script_cells(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    main(["gen", "--shape", "triangle3", "--init", "all-in", "--out", str(cfg)])
    script = tmp_path / "bad.script"
    script.write_text("9 9\n")
    rc = main(["run", "--config", str(cfg), "--scheduler", f"script:{script}"])
    assert rc == 2
    assert "scripted cells" in capsys.readouterr().err


def _exit_code(argv):
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, trace_text",
    [
        (["run", "--config", "{cfg}", "--max-steps", "-1"], None),
        (["gen", "--random", "0", "--out", "{out}"], None),
        (["gen", "--shape", "line2", "--init", "random", "--conflict-prob", "2", "--out", "{out}"], None),
        (["enum", "--n", "0", "--check", "silence"], None),
        (["search-unfair", "--shape", "nope"], None),
        (["render", "--config", "{cfg}", "--trace", "{trace}", "--out", "{out}"], "garbage\n"),
        (["render", "--config", "{cfg}", "--trace", "{trace}", "--frame", "1", "--out", "{out}"],
         "0 9 9 1 0 1 0\n"),
        (["render", "--config", "{cfg}", "--frame", "-1", "--out", "{out}"], None),
    ],
)
def test_bad_inputs_exit_2_without_traceback(tmp_path, capsys, argv, trace_text):
    cfg = tmp_path / "p.cfg"
    main(["gen", "--shape", "line2", "--init", "all-in", "--out", str(cfg)])
    trace = tmp_path / "bad.trace"
    if trace_text is not None:
        trace.write_text(trace_text)
    capsys.readouterr()
    paths = {"cfg": str(cfg), "out": str(tmp_path / "out"), "trace": str(trace)}
    assert _exit_code([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err
